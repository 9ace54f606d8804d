"""The two weighted transforms at the heart of the package.

For square matrices B, A of equal size, order m >= 1 and a weight X:

* ``triangle(B, A, X, m)`` is the m-th power of the map ``X -> B X A - X``.
  Its vanishing says A is left (X,m)-invertible by B; with B = A* and
  X = I it is the classical m-isometry defect.

* ``delta(B, A, X, m)`` is the m-th power of the map ``X -> B X - X A``.
  Its vanishing makes B an (X,m)-adjoint of A; with B = A*, X = I it is
  the m-selfadjointness defect.

Both are evaluated by applying the one-step map m times, which is the only
implementation. The paper writes them as binomial sums,
sum_j (-1)^j C(m,j) B^(m-j) X A^(m-j) and sum_j (-1)^j C(m,j) B^(m-j) X A^j;
those sums are kept in the tests as the oracle the iteration is checked
against.

Every identity the package checks says some defect vanishes.
``defect(kind, B, A, X, m, policy)`` is the one place that decision is
made: it returns the defect's Frobenius norm together with its zero
threshold ``defect_threshold``, computed from the same operands, and the
defect vanishes when the first is at most the second.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DimensionMismatch, InvalidOrder
from .matcore import frob, spectral_norm

__all__ = [
    "TransformKind",
    "triangle",
    "delta",
    "transform",
    "defect",
    "defect_growth",
    "defect_scale",
    "defect_threshold",
]


class TransformKind(str, Enum):
    TRIANGLE = "triangle"
    DELTA = "delta"


def _operands(b, a, x, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if m < 1:
        raise InvalidOrder(f"order must be >= 1, got {m}")
    b, a, x = (np.asarray(t, dtype=np.complex128) for t in (b, a, x))
    n = a.shape[0] if a.ndim == 2 else -1
    for name, mat in (("B", b), ("A", a), ("X", x)):
        if mat.ndim != 2 or mat.shape != (n, n):
            raise DimensionMismatch(
                f"{name} must be square of size {n}, got shape {mat.shape}"
            )
    return b, a, x


def triangle(b: np.ndarray, a: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """The m-th power of X -> B X A - X, applied to X."""
    b, a, x = _operands(b, a, x, m)
    for _ in range(m):
        x = b @ x @ a - x
    return x


def delta(b: np.ndarray, a: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """The m-th power of X -> B X - X A, applied to X."""
    b, a, x = _operands(b, a, x, m)
    for _ in range(m):
        x = b @ x - x @ a
    return x


def transform(kind: TransformKind, b, a, x, m: int) -> np.ndarray:
    if TransformKind(kind) == TransformKind.TRIANGLE:
        return triangle(b, a, x, m)
    return delta(b, a, x, m)


def defect_growth(b: np.ndarray, a: np.ndarray) -> float:
    """1 + ||A|| ||B||, the most one step of either map can grow a weight.

    An order-m defect of X is therefore at most ``growth**m * ||X||_F``.
    """
    return 1.0 + spectral_norm(a) * spectral_norm(b)


def defect_scale(b: np.ndarray, a: np.ndarray, x: np.ndarray, m: int) -> float:
    """Worst-case growth of an order-m defect: (1 + ||A|| ||B||)^m ||X||_F.

    Used as the scale in every zero test of a transform residual.
    """
    return defect_growth(b, a) ** m * frob(x)


def defect_threshold(policy, b, a, x, m: int) -> float:
    """Zero threshold for an order-m defect under the policy."""
    return policy.zero_threshold(defect_scale(b, a, x, m))


def defect(kind: TransformKind, b, a, x, m: int, policy) -> tuple[float, float]:
    """(residual, threshold) of the order-m defect of (B, A) on X.

    The residual is ``frob(transform(kind, B, A, X, m))``, the threshold
    ``defect_threshold(policy, B, A, X, m)``; the defect vanishes when
    residual <= threshold.
    """
    return frob(transform(kind, b, a, x, m)), defect_threshold(policy, b, a, x, m)
