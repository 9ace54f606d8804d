"""Dense complex matrix primitives with an explicit tolerance policy.

All operators are plain ``numpy.ndarray`` values in complex double
precision. Every decision of the form "is this zero" or "what is the rank"
goes through a :class:`NumericPolicy`, so the rest of the package never
hard-codes a floating-point threshold.

The JSON matrix file format used by the CLI also lives here:

    {"rows": r, "cols": c, "data": [[[re, im], ...], ...]}

``data`` is row-major; each entry is a two-element array of finite doubles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotSquare, ParseError, Singular

__all__ = [
    "NumericPolicy",
    "DEFAULT_POLICY",
    "as_matrix",
    "adjoint",
    "power",
    "rank",
    "inverse",
    "unvectorize",
    "frob",
    "one_norm",
    "spectral_norm",
    "condition",
    "eye",
    "zeros",
    "block_diag",
    "matrix_to_json",
    "matrix_from_json",
    "load_matrix",
    "save_matrix",
]


@dataclass(frozen=True)
class NumericPolicy:
    """Thresholds governing every zero test and rank decision.

    atol/rtol enter zero tests as ``norm <= atol + rtol * scale`` where the
    caller supplies a scale reflecting the worst-case growth of the
    quantity being tested. ``rank_rtol`` is the relative singular-value
    cutoff, ``cond_max`` bounds the conditioning of similarities we are
    willing to trust.
    """

    atol: float = 1e-10
    rtol: float = 1e-8
    rank_rtol: float = 1e-10
    cond_max: float = 1e8

    def __post_init__(self):
        if self.atol < 0 or self.rtol < 0 or self.rank_rtol < 0:
            raise ValueError("tolerances must be nonnegative")
        if not self.cond_max > 1:
            raise ValueError("cond_max must exceed 1")

    def zero_threshold(self, scale: float) -> float:
        return self.atol + self.rtol * scale


DEFAULT_POLICY = NumericPolicy()


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ParseError("matrix entries must be finite")
    return m


def _require_square(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    return m


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def power(m: np.ndarray, k: int) -> np.ndarray:
    """``m**k`` for integer k >= 0 by repeated squaring; ``m**0`` is I."""
    m = _require_square(np.asarray(m, dtype=np.complex128))
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    n = m.shape[0]
    result = np.eye(n, dtype=np.complex128)
    base = m.copy()
    e = int(k)
    while e:
        if e & 1:
            result = result @ base
        e >>= 1
        if e:
            base = base @ base
    return result


def _singular_values(m: np.ndarray) -> np.ndarray:
    if m.size == 0:
        return np.zeros(0)
    return np.linalg.svd(m, compute_uv=False)


def _spectral_rank(s: np.ndarray, rtol: float, floor: float = 0.0) -> int:
    """Rank from descending singular values: the number above
    ``max(rtol * s[0], floor)``, and 0 for an empty or zero spectrum."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > max(rtol * s[0], floor)))


def rank(m: np.ndarray, policy: NumericPolicy = DEFAULT_POLICY) -> int:
    """Number of singular values above ``rank_rtol`` times the largest."""
    return _spectral_rank(_singular_values(np.asarray(m, dtype=np.complex128)), policy.rank_rtol)


def inverse(m: np.ndarray, policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    m = _require_square(np.asarray(m, dtype=np.complex128))
    n = m.shape[0]
    if n == 0:
        return m.copy()
    if rank(m, policy) < n:
        raise Singular(f"matrix of shape {m.shape} is rank deficient under the policy")
    return np.linalg.solve(m, np.eye(n, dtype=np.complex128))


def unvectorize(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of column-major (column-stacking) vectorization."""
    v = np.asarray(v).reshape(-1)
    if v.size != rows * cols:
        raise DimensionMismatch(f"vector of length {v.size} is not {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def frob(m: np.ndarray) -> float:
    """Frobenius norm; a finite input whose squared entries overflow is
    rescaled by its largest entry modulus, so its norm stays finite where
    the norm itself is representable."""
    m = np.asarray(m)
    if not m.size:
        return 0.0
    norm = float(np.linalg.norm(m))
    if math.isfinite(norm) or not np.isfinite(m).all():
        return norm
    big = float(np.max(np.abs(m)))
    return big * float(np.linalg.norm(m / big))


def one_norm(m: np.ndarray) -> float:
    """Maximum absolute column sum."""
    m = np.asarray(m)
    return float(np.linalg.norm(m, 1)) if m.size else 0.0


def spectral_norm(m: np.ndarray) -> float:
    s = _singular_values(np.asarray(m, dtype=np.complex128))
    return float(s[0]) if s.size else 0.0


def condition(m: np.ndarray) -> float:
    """2-norm condition number; inf when numerically singular, 1 for 0x0."""
    s = _singular_values(np.asarray(m, dtype=np.complex128))
    if s.size == 0:
        return 1.0
    if s[-1] == 0.0:
        return math.inf
    return float(s[0] / s[-1])


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.complex128)


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """Direct sum of square blocks (empty blocks allowed)."""
    blocks = [_require_square(np.asarray(b, dtype=np.complex128)) for b in blocks]
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at : at + k, at : at + k] = b
        at += k
    return out


# ---------------------------------------------------------------------------
# JSON matrix file format
# ---------------------------------------------------------------------------


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch("only 2-D matrices are serializable")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": np.stack((m.real, m.imag), axis=-1).tolist(),
    }


def _entry(k: int, cols: int) -> str:
    """The ``(i,j)`` of flat index k into a ``rows x cols x 2`` array."""
    return "({},{})".format(*divmod(k // 2, cols))


def matrix_from_json(obj) -> np.ndarray:
    """Parse the matrix document; every malformed one raises ParseError.

    ``data`` is checked as one array: a ragged or mis-shaped nest, a
    non-numeric entry, a non-finite value or an integer beyond the double
    range is rejected. Bools count as numbers in ``data`` but not as
    ``rows``/``cols``, and an integer converts to the double that Python's
    ``float`` rounds it to. Signed zeros survive.
    """
    if not isinstance(obj, dict):
        raise ParseError("matrix document must be a JSON object")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing matrix field: {exc}") from exc
    # bool is an int subclass, but a JSON true/false is not a size
    if any(type(v) is bool or not isinstance(v, int) or v < 0 for v in (rows, cols)):
        raise ParseError("rows/cols must be nonnegative integers")
    if not isinstance(data, list) or len(data) != rows:
        raise ParseError(f"data must hold {rows} rows")
    if rows == 0:
        return zeros(0, cols)
    try:
        arr = np.asarray(data)
    except ValueError as exc:
        raise ParseError(f"data is not a {rows}x{cols} array of [re, im] pairs") from exc
    if cols == 0:
        if arr.shape != (rows, 0):
            raise ParseError(f"data must hold {rows} empty rows")
        return zeros(rows, 0)
    if arr.shape != (rows, cols, 2):
        raise ParseError(
            f"data must be a {rows}x{cols} array of [re, im] pairs, got shape {arr.shape}"
        )
    if arr.dtype == object:
        # integers beyond 64 bits, or null/objects among the numbers
        vals = np.empty(arr.size)
        for k, v in enumerate(arr.flat):
            if not isinstance(v, (int, float)):
                raise ParseError(f"entry {_entry(k, cols)} must hold numbers")
            try:
                vals[k] = float(v)
            except OverflowError as exc:
                raise ParseError(f"entry {_entry(k, cols)} is beyond the double range") from exc
        arr = vals.reshape(arr.shape)
    elif arr.dtype.kind not in "biuf":
        raise ParseError("matrix entries must hold numbers")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ParseError(f"entry {_entry(int(bad[0]), cols)} is not finite")
    return np.ascontiguousarray(arr, np.float64).view(np.complex128)[..., 0]


def load_matrix(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
    # literal beyond the interpreter's digit limit; RecursionError is deep
    # nesting
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read matrix file {path}: {exc}") from exc
    return matrix_from_json(obj)


def save_matrix(path, m: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(m), fh)
        fh.write("\n")
