"""The entry-by-entry matrix parser the package used before it checked
``data`` as one array.

``matcore.matrix_from_json`` parses the whole nest with numpy; this module
is the independent oracle that parse is checked against.
"""

import math

import numpy as np

from opcheck.errors import ParseError


def entrywise_matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError("matrix document must be a JSON object")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing matrix field: {exc}") from exc
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 0 or cols < 0:
        raise ParseError("rows/cols must be nonnegative integers")
    if not isinstance(data, list) or len(data) != rows:
        raise ParseError(f"data must hold {rows} rows")
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"row {i} must hold {cols} entries")
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ParseError(f"entry ({i},{j}) must be a [re, im] pair")
            re, im = entry
            if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
                raise ParseError(f"entry ({i},{j}) must hold numbers")
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ParseError(f"entry ({i},{j}) is not finite")
            out[i, j] = complex(re, im)
    return out
