"""The two weighted transforms at the heart of the package.

For square matrices B, A of equal size, order m >= 1 and a weight X:

* ``triangle(B, A, X, m)`` is the m-th power of the map ``X -> B X A - X``.
  Its vanishing says A is left (X,m)-invertible by B; with B = A* and
  X = I it is the classical m-isometry defect.

* ``delta(B, A, X, m)`` is the m-th power of the map ``X -> B X - X A``.
  Its vanishing makes B an (X,m)-adjoint of A; with B = A*, X = I it is
  the m-selfadjointness defect.

``transform(kind, B, A, X, m)`` validates the operands and applies the
one-step map ``_step`` m times; ``triangle`` and ``delta`` are ``transform``
with a fixed kind, and the minimal-order scan and the kernel's block maps
step with ``_step`` too. The paper writes them as binomial sums,
sum_j (-1)^j C(m,j) B^(m-j) X A^(m-j) and sum_j (-1)^j C(m,j) B^(m-j) X A^j;
those sums are kept in the tests as the oracle the iteration is checked
against. ``_operands`` is the one operand check of the numeric functions
that take (B, A[, X]) and an order: the transforms, the kernel and the scan.

Every identity the package checks says some defect vanishes.
``defect(kind, B, A, X, m, policy)`` is the one place that decision is
made: it returns the defect's Frobenius norm together with its zero
threshold, and the defect vanishes when the first is at most the second.
``defect_threshold(policy, growth, m, x_norm)`` is the one order-m zero
threshold: ``defect``, the minimal-order scan, the kernel's zero floor and
the suites' own defect scales all take it from there, with ``growth`` the
pair's ``defect_growth``.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, IllConditioned, InvalidOrder
from .matcore import as_matrix, frob, spectral_norm

__all__ = [
    "TransformKind",
    "triangle",
    "delta",
    "transform",
    "defect",
    "defect_growth",
    "defect_threshold",
]


class TransformKind(str, Enum):
    TRIANGLE = "triangle"
    DELTA = "delta"


def _operands(m: int, *ops) -> tuple[np.ndarray, ...]:
    """The operands (B, A) or (B, A, X) of an order-m transform, as complex
    matrices: each passes ``as_matrix``, which rejects a non-2-D operand
    with DimensionMismatch and a non-finite one with ParseError, and each
    must be square of A's size. An order below 1 raises InvalidOrder."""
    if m < 1:
        raise InvalidOrder(f"order must be >= 1, got {m}")
    ops = tuple(as_matrix(t) for t in ops)
    n = ops[1].shape[0]
    for name, mat in zip("BAX", ops):
        if mat.shape != (n, n):
            raise DimensionMismatch(
                f"{name} must be square of size {n}, got shape {mat.shape}"
            )
    return ops


def _step(kind: TransformKind, b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One step of either map on validated operands: B X A - X for the
    triangle transform, B X - X A for delta."""
    if kind is TransformKind.TRIANGLE:
        return b @ x @ a - x
    return b @ x - x @ a


def transform(kind: TransformKind, b, a, x, m: int) -> np.ndarray:
    """The m-th power of the ``kind`` map, applied to X."""
    kind = TransformKind(kind)
    b, a, x = _operands(m, b, a, x)
    for _ in range(m):
        x = _step(kind, b, a, x)
    return x


def triangle(b: np.ndarray, a: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """The m-th power of X -> B X A - X, applied to X."""
    return transform(TransformKind.TRIANGLE, b, a, x, m)


def delta(b: np.ndarray, a: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """The m-th power of X -> B X - X A, applied to X."""
    return transform(TransformKind.DELTA, b, a, x, m)


def defect_growth(b: np.ndarray, a: np.ndarray) -> float:
    """1 + ||A|| ||B||, the most one triangle step X -> B X A - X can grow a
    weight. A delta step X -> B X - X A can grow it by up to ||A|| + ||B||,
    which is more when one norm lies above 1 and the other below it
    (ROADMAP item 5).

    An order-m triangle defect of X is therefore at most
    ``growth**m * ||X||_F``, and so is a delta defect when
    (||A|| - 1)(||B|| - 1) >= 0, as for B = A^*.
    """
    return 1.0 + spectral_norm(a) * spectral_norm(b)


def defect_threshold(policy, growth: float, m: int, x_norm: float) -> float:
    """Zero threshold of an order-m defect: ``policy.zero_threshold(growth**m
    * x_norm)``, for a pair whose ``defect_growth`` is ``growth`` and a
    weight of Frobenius norm ``x_norm``.

    A scale that overflows or is not finite raises IllConditioned: no
    residual could be told apart from zero at it.
    """
    try:
        scale = growth**m * x_norm
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise IllConditioned(f"the order-{m} defect scale of these operators overflows")
    return policy.zero_threshold(scale)


def defect(kind: TransformKind, b, a, x, m: int, policy) -> tuple[float, float]:
    """(residual, threshold) of the order-m defect of (B, A) on X.

    The residual is ``frob(transform(kind, B, A, X, m))``, the threshold
    ``defect_threshold(policy, defect_growth(B, A), m, frob(X))``; the
    defect vanishes when residual <= threshold. A non-finite operand raises
    ParseError, and a residual that overflows from finite operands raises
    IllConditioned.
    """
    res = frob(transform(kind, b, a, x, m))
    if not math.isfinite(res):
        raise IllConditioned(f"the order-{m} defect of these operators overflows")
    return res, defect_threshold(policy, defect_growth(b, a), m, frob(x))
