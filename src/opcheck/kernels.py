"""Weight-space computations: the vectorized transform matrix, its kernel,
class membership tests, and minimal-order search.

Under column-major vectorization, ``vec(B X A) = (A^T kron B) vec(X)``, so
both transforms become n^2 x n^2 matrices acting on vec(X). The kernel of
that matrix is the full space of weights X annihilated by the transform.
The singular values alone decide its dimension, with the policy's relative
cutoff, and the gap between accepted and rejected singular values is
reported so callers can spot unreliable dimensions. Singular vectors are
computed afterwards, and only for a map that has a kernel: most maps have
none, and a full SVD takes about twice as long as a values-only one.

Given A's core-nilpotent decomposition, :func:`kernel` splits the weight
space when that splitting is unitary (``cond_s - 1 <= rank_rtol``). Then
S^* B S and S^* A S are block diagonal for every partner B of A (A, A^*,
A_d, A_d^*), and in the coordinates Y = S^* X S the transform maps each
block Y_ij to transform(B_i, A_j, Y_ij) on its own. The change of
coordinates vec(X) -> vec(S^* X S) is unitary, so the four block maps
together have exactly the singular values of the n^2 x n^2 map: one SVD
per block, of size n_i n_j, gives the same rank decision and the same
kernel. For an oblique splitting the coordinate change is not unitary,
the singular values differ, and the kernel takes one dense SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .drazin import DrazinData
from .errors import DimensionMismatch, InvalidOrder, ToleranceInconsistency
from .matcore import (
    DEFAULT_POLICY,
    NumericPolicy,
    _spectral_rank,
    adjoint,
    frob,
    matrix_to_json,
    unvectorize,
)
from .transforms import TransformKind, defect, defect_growth, transform

__all__ = [
    "KernelBasis",
    "ClassificationResult",
    "transform_matrix",
    "kernel",
    "is_member",
    "minimal_order",
]


def _operands(b, a, m: int) -> tuple[np.ndarray, np.ndarray]:
    b = np.asarray(b, dtype=np.complex128)
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != a.shape:
        raise DimensionMismatch(
            f"B and A must be square of equal size, got {b.shape} and {a.shape}"
        )
    if m < 1:
        raise InvalidOrder(f"order must be >= 1, got {m}")
    return b, a


def transform_matrix(kind: TransformKind, b: np.ndarray, a: np.ndarray, m: int) -> np.ndarray:
    """Matrix of X -> transform(B, A, X, m) on column-stacked weights."""
    return _kron_sum(TransformKind(kind), *_operands(b, a, m), m)


def _kron_sum(kind: TransformKind, b: np.ndarray, a: np.ndarray, m: int) -> np.ndarray:
    """Matrix of Y -> transform(B, A, Y, m) for square B (p x p) and A
    (q x q) acting on column-stacked p x q weights Y."""
    ap = [np.eye(a.shape[0], dtype=np.complex128)]
    bp = [np.eye(b.shape[0], dtype=np.complex128)]
    for _ in range(m):
        ap.append(ap[-1] @ a)
        bp.append(bp[-1] @ b)
    # kron(R, L)[i p + k, j p + l] = R[i, j] L[k, l]: each term is built as
    # the (q, p, q, p) broadcast product and the sum reshaped once
    q, p = a.shape[0], b.shape[0]
    acc = np.zeros((q, p, q, p), dtype=np.complex128)
    for j in range(m + 1):
        right = ap[m - j] if kind == TransformKind.TRIANGLE else ap[j]
        term = right.T[:, None, :, None] * bp[m - j][None, :, None, :]
        acc += (-1) ** j * comb(m, j) * term
    return acc.reshape(q * p, q * p)


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

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Random element of the kernel with unit Frobenius norm."""
        if self.dim == 0:
            raise ValueError("cannot sample from an empty kernel")
        coeff = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        x = sum(c * b for c, b in zip(coeff, self.basis))
        return x * (1.0 / frob(x))

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "m": self.m,
            "dim": self.dim,
            "cutoff": self.cutoff,
            "gap": None if math.isinf(self.gap) else self.gap,
            "basis": [matrix_to_json(x) for x in self.basis],
        }


def _block_diagonal(t: np.ndarray, r: int, policy: NumericPolicy) -> bool:
    leak = max(frob(t[:r, r:]), frob(t[r:, :r]))
    return leak <= policy.zero_threshold(frob(t))


def _split_blocks(kind, b, a, m, dd: DrazinData, policy: NumericPolicy) -> list:
    """(left, right, matrix) per diagonal block pair (i, j): ``matrix`` acts
    on vec(Y_ij) and a weight Y_ij maps back to X = left Y_ij right^*."""
    n, r = a.shape[0], dd.dim_h1
    if dd.n != n:
        raise ValueError(f"decomposition is of size {dd.n}, operators of size {n}")
    s = dd.s
    tb, ta = adjoint(s) @ b @ s, adjoint(s) @ a @ s
    if not (_block_diagonal(tb, r, policy) and _block_diagonal(ta, r, policy)):
        raise ValueError("the decomposition does not split this pair")
    cut = (slice(0, r), slice(r, n))
    return [
        (s[:, ci], s[:, cj], _kron_sum(kind, tb[ci, ci], ta[cj, cj], m))
        for ci in cut
        for cj in cut
    ]


def kernel(
    kind: TransformKind,
    b: np.ndarray,
    a: np.ndarray,
    m: int,
    policy: NumericPolicy = DEFAULT_POLICY,
    dd: DrazinData | None = None,
) -> KernelBasis:
    """Orthonormal basis of the numerical nullspace of the transform matrix.

    ``dd`` is A's core-nilpotent decomposition. When its splitting is
    unitary and proper, the transform is split into the four block maps
    (see the module docstring); a ``dd`` that does not block-diagonalize
    both B and A raises ValueError. Otherwise the whole n^2 x n^2 map is
    one block. Either way the rank is decided once over the singular values
    of every block, taken without vectors; then only a block with a value at
    or below the cutoff gets a full SVD, whose trailing right singular
    vectors are its part of the basis.

    ``singular_values``, ``cutoff`` and ``gap`` come from the values-only
    SVDs. ``gap`` divides by the largest discarded value, which is often
    rounding noise, so its digits carry no meaning beyond its magnitude.
    """
    kind = TransformKind(kind)
    b, a = _operands(b, a, m)
    n = a.shape[0]
    if dd is not None and 0 < dd.dim_h1 < n and dd.cond_s - 1 <= policy.rank_rtol:
        blocks = _split_blocks(kind, b, a, m, dd, policy)
    else:
        blocks = [(None, None, transform_matrix(kind, b, a, m))]
    svals = [np.linalg.svd(tm, compute_uv=False) for *_, tm in blocks]
    sv = svals[0] if len(svals) == 1 else np.sort(np.concatenate(svals))[::-1]
    # A map whose norm sits below the defect zero threshold annihilates
    # every weight up to rounding; the relative cutoff alone cannot see
    # that, so it gets an absolute floor at the package-wide zero scale.
    zero_floor = policy.zero_threshold(defect_growth(b, a) ** m)
    if sv.size and sv[0] > zero_floor:
        cutoff = policy.rank_rtol * sv[0]
        rank_ = _spectral_rank(sv, policy.rank_rtol)
    else:
        cutoff, rank_ = zero_floor, 0
    dim = sv.size - rank_
    # Gap between the smallest kept and the largest discarded singular value;
    # a small ratio flags an unreliable kernel dimension.
    if dim == 0 or rank_ == 0 or sv[rank_] == 0.0:
        gap = math.inf
    else:
        gap = float(sv[rank_ - 1] / sv[rank_])
    # the last size - keep right singular vectors span a block's kernel
    basis = []
    for (left, right, tm), s in zip(blocks, svals):
        keep = np.count_nonzero(s > cutoff)
        if keep == s.size:
            continue
        rows = left.shape[1] if left is not None else n
        cols = right.shape[1] if right is not None else n
        for v in np.linalg.svd(tm, full_matrices=True)[2][keep:]:
            y = unvectorize(v.conj(), rows, cols)
            basis.append(_normalize_phase(y if left is None else left @ y @ adjoint(right)))
    return KernelBasis(
        kind=kind, m=m, dim=dim, basis=basis, singular_values=sv, cutoff=cutoff, gap=gap
    )


def is_member(
    kind: TransformKind, b, a, x, m: int, policy: NumericPolicy = DEFAULT_POLICY
) -> bool:
    """True iff the order-m defect of (B, A) on X vanishes: for the triangle
    transform A is left (X,m)-invertible by B, for delta B is an
    (X,m)-adjoint of A."""
    res, thr = defect(kind, b, a, x, m, policy)
    return res <= thr


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
        raise InvalidOrder(f"bound must be >= 1, got {bound}")
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
