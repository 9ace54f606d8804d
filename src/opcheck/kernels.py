"""Weight-space computations: the vectorized transform matrix, its kernel,
class membership tests, and minimal-order search.

Under column-major vectorization, ``vec(B X A) = (A^T kron B) vec(X)``, so
both transforms become n^2 x n^2 matrices acting on vec(X). The kernel of
that matrix is the full space of weights X annihilated by the transform;
it is extracted by dense SVD with the policy's relative cutoff, and the
gap between accepted and rejected singular values is reported so callers
can spot unreliable dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import DimensionMismatch, ToleranceInconsistency
from .matcore import (
    DEFAULT_POLICY,
    NumericPolicy,
    _spectral_rank,
    frob,
    matrix_to_json,
    unvectorize,
)
from .transforms import TransformKind, defect_growth, defect_threshold, transform

__all__ = [
    "KernelBasis",
    "ClassificationResult",
    "transform_matrix",
    "kernel",
    "is_member",
    "minimal_order",
]


def transform_matrix(kind: TransformKind, b: np.ndarray, a: np.ndarray, m: int) -> np.ndarray:
    """Matrix of X -> transform(B, A, X, m) on column-stacked weights."""
    kind = TransformKind(kind)
    b = np.asarray(b, dtype=np.complex128)
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != a.shape:
        raise DimensionMismatch(
            f"B and A must be square of equal size, got {b.shape} and {a.shape}"
        )
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    n = a.shape[0]
    ap = [np.eye(n, dtype=np.complex128)]
    bp = [np.eye(n, dtype=np.complex128)]
    for _ in range(m):
        ap.append(ap[-1] @ a)
        bp.append(bp[-1] @ b)
    acc = np.zeros((n * n, n * n), dtype=np.complex128)
    for j in range(m + 1):
        right = ap[m - j] if kind == TransformKind.TRIANGLE else ap[j]
        acc += (-1) ** j * comb(m, j) * np.kron(right.T, bp[m - j])
    return acc


def _normalize_phase(x: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude entry is real positive (determinism)."""
    flat = x.reshape(-1, order="F")
    k = int(np.argmax(np.abs(flat)))
    z = flat[k]
    if abs(z) == 0.0:
        return x
    return x * (abs(z) / z)


@dataclass(frozen=True, eq=False)
class KernelBasis:
    """Frobenius-orthonormal basis of the weight space killed by a transform."""

    kind: TransformKind
    m: int
    dim: int
    basis: list = field(default_factory=list)
    singular_values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    cutoff: float = 0.0
    gap: float = math.inf

    def sample(self, rng: np.random.Generator, norm: float = 1.0) -> np.ndarray:
        """Random element of the kernel with Frobenius norm ``norm``."""
        if self.dim == 0:
            raise ValueError("cannot sample from an empty kernel")
        coeff = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        x = sum(c * b for c, b in zip(coeff, self.basis))
        return x * (norm / frob(x))

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "m": self.m,
            "dim": self.dim,
            "cutoff": self.cutoff,
            "gap": None if math.isinf(self.gap) else self.gap,
            "basis": [matrix_to_json(x) for x in self.basis],
        }


def kernel(
    kind: TransformKind,
    b: np.ndarray,
    a: np.ndarray,
    m: int,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> KernelBasis:
    """Orthonormal basis of the numerical nullspace of the transform matrix."""
    kind = TransformKind(kind)
    tm = transform_matrix(kind, b, a, m)
    n = int(round(math.sqrt(tm.shape[0])))
    _, sv, vh = np.linalg.svd(tm, full_matrices=True)
    # A map whose norm sits below the defect zero threshold annihilates
    # every weight up to rounding; the relative cutoff alone cannot see
    # that, so it gets an absolute floor at the package-wide zero scale.
    zero_floor = policy.zero_threshold(defect_growth(b, a) ** m)
    if sv.size and sv[0] > zero_floor:
        cutoff = policy.rank_rtol * sv[0]
        rank_ = _spectral_rank(sv, policy.rank_rtol)
    else:
        cutoff, rank_ = zero_floor, 0
    dim = tm.shape[0] - rank_
    # Gap between the smallest kept and the largest discarded singular value;
    # a small ratio flags an unreliable kernel dimension.
    if dim == 0 or rank_ == 0 or sv[rank_] == 0.0:
        gap = math.inf
    else:
        gap = float(sv[rank_ - 1] / sv[rank_])
    basis = [_normalize_phase(unvectorize(vh[i].conj(), n, n)) for i in range(rank_, tm.shape[0])]
    return KernelBasis(
        kind=kind, m=m, dim=dim, basis=basis, singular_values=sv, cutoff=cutoff, gap=gap
    )


def is_member(
    kind: TransformKind, b, a, x, m: int, policy: NumericPolicy = DEFAULT_POLICY
) -> bool:
    """True iff the order-m defect of (B, A) on X vanishes: for the triangle
    transform A is left (X,m)-invertible by B, for delta B is an
    (X,m)-adjoint of A."""
    d = transform(kind, b, a, x, m)
    return frob(d) <= defect_threshold(policy, b, a, x, m)


@dataclass(frozen=True)
class ClassificationResult:
    """Outcome of a minimal-order scan over orders 1..bound."""

    member: bool
    minimal_order: int | None
    bound: int
    residuals: tuple[float, ...]
    thresholds: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "member": self.member,
            "minimal_order": self.minimal_order,
            "bound": self.bound,
            "residuals": list(self.residuals),
            "thresholds": list(self.thresholds),
        }


def minimal_order(
    kind: TransformKind,
    b,
    a,
    x,
    bound: int,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> ClassificationResult:
    """Scan orders 1..bound for the first vanishing defect.

    Once an order passes, every later order must pass as well (the defect
    at order n factors through the defect at order m for n >= m); a
    violation is numerical breakdown and raises ToleranceInconsistency.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    kind = TransformKind(kind)
    # the defect of order k is one step applied to the defect of order k-1
    growth, x_norm = defect_growth(b, a), frob(x)
    residuals: list[float] = []
    thresholds: list[float] = []
    passing: list[bool] = []
    d = x
    for k in range(1, bound + 1):
        d = transform(kind, b, a, d, 1)
        residuals.append(frob(d))
        thresholds.append(policy.zero_threshold(growth**k * x_norm))
        passing.append(residuals[-1] <= thresholds[-1])
    first = next((i for i, ok in enumerate(passing) if ok), None)
    if first is not None:
        later_bad = [i + 1 for i in range(first + 1, bound) if not passing[i]]
        if later_bad:
            raise ToleranceInconsistency(
                f"defect vanished at order {first + 1} but not at orders {later_bad}"
            )
    return ClassificationResult(
        member=first is not None,
        minimal_order=None if first is None else first + 1,
        bound=bound,
        residuals=tuple(residuals),
        thresholds=tuple(thresholds),
    )
