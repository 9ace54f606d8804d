"""The binomial-sum form of both transforms, as the paper writes them.

The package evaluates each transform by applying its one-step map m times,
and builds the kernel's block maps by stepping every unit weight m times;
this module is the independent oracle both are checked against, within
rounding.
"""

from math import comb

import numpy as np

from opcheck.transforms import TransformKind


def binomial_transform(kind, b, a, x, m: int) -> np.ndarray:
    """sum_j (-1)^j C(m,j) B^(m-j) X A^(m-j) for the triangle transform and
    sum_j (-1)^j C(m,j) B^(m-j) X A^j for delta."""
    b, a, x = (np.asarray(t, dtype=np.complex128) for t in (b, a, x))
    n = a.shape[0]
    bp, ap = [np.eye(n, dtype=np.complex128)], [np.eye(n, dtype=np.complex128)]
    for _ in range(m):
        bp.append(bp[-1] @ b)
        ap.append(ap[-1] @ a)
    acc = np.zeros((n, n), dtype=np.complex128)
    for j in range(m + 1):
        right = ap[m - j] if TransformKind(kind) == TransformKind.TRIANGLE else ap[j]
        acc += (-1) ** j * comb(m, j) * (bp[m - j] @ x @ right)
    return acc


def kron_transform_matrix(kind, b, a, m: int) -> np.ndarray:
    """Matrix of X -> binomial_transform(kind, B, A, X, m) on column-stacked
    p x q weights X, for square B (p x p) and A (q x q), by the identity
    vec(L X R) = (R^T kron L) vec(X)."""
    b, a = (np.asarray(t, dtype=np.complex128) for t in (b, a))
    bp, ap = [np.eye(b.shape[0], dtype=np.complex128)], [np.eye(a.shape[0], dtype=np.complex128)]
    for _ in range(m):
        bp.append(bp[-1] @ b)
        ap.append(ap[-1] @ a)
    size = a.shape[0] * b.shape[0]
    acc = np.zeros((size, size), dtype=np.complex128)
    for j in range(m + 1):
        right = ap[m - j] if TransformKind(kind) == TransformKind.TRIANGLE else ap[j]
        acc += (-1) ** j * comb(m, j) * np.kron(right.T, bp[m - j])
    return acc
