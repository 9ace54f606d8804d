"""Weight-space computations: the vectorized transform matrix, its kernel,
class membership tests, and minimal-order search.

Under column-major vectorization, ``vec(B X A) = (A^T kron B) vec(X)``, so
both transforms become n^2 x n^2 matrices acting on vec(X). Each is built
with the transforms' one-step map: column k is vec of the k-th unit weight
stepped m times. The kernel of that matrix is the full space of weights X
annihilated by the transform. The singular values alone decide its
dimension, with the policy's relative cutoff, and the gap between accepted
and rejected singular values is reported so callers can spot unreliable
dimensions. Singular vectors are computed afterwards, and only for a map
that has a kernel: most maps have none, and a full SVD takes about twice
as long as a values-only one.

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

For the adjoint pair B = A* (and so the self pair of a Hermitian A) the
rank decision takes cheaper SVDs. Both transforms then map Hermitian
weights to Hermitian weights, times i^m for delta, and so does every
diagonal block map. In an orthonormal basis of Hermitian matrices such a
map, times c = 1 (triangle) or (-i)^m (delta), is a real matrix R, and a
real SVD takes about half as long as a complex one of the same size (from
5 x 5 weights on; a smaller block keeps its complex SVD, which costs less
than building R). The two off-diagonal block maps mirror each other,
L_ji(Y^*) = +-(L_ij(Y))^*, and Y -> Y^* is an isometry, so they share one
set of singular values. R is the real part of c U^H T U for the complex block matrix T. The exact
map's form is real, so the dropped imaginary part is rounding of T's build
(of order eps growth^m, the most the m steps that build it can grow a
weight; eps ||T|| when the steps do not cancel),
and R is no farther from the exact form than T is from the exact map; by
Weyl's inequality the values move by no more than that. The vectors still
come from the complex SVD of the block matrix itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .drazin import DrazinData
from .errors import IllConditioned, ToleranceInconsistency
from .matcore import (
    DEFAULT_POLICY,
    NumericPolicy,
    _spectral_rank,
    adjoint,
    frob,
    matrix_to_json,
)
from .transforms import TransformKind, _operands, _step, defect, defect_growth, defect_threshold

__all__ = [
    "KernelBasis",
    "ClassificationResult",
    "kernel",
    "is_member",
    "minimal_order",
]


def _block_map(kind: TransformKind, b: np.ndarray, a: np.ndarray, m: int) -> np.ndarray:
    """Matrix of Y -> transform(B, A, Y, m) for square B (p x p) and A
    (q x q) acting on column-stacked p x q weights Y: column k is vec of the
    k-th unit weight stepped m times, all p q of them at once."""
    p, q = b.shape[0], a.shape[0]
    y = np.eye(p * q, dtype=np.complex128).reshape(p * q, q, p).swapaxes(1, 2)
    for _ in range(m):
        y = _step(kind, b, a, y)
    return y.swapaxes(1, 2).reshape(p * q, p * q).T


@functools.cache
def _hermitian_frame(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights (w, conj(w)) of the orthonormal Hermitian basis of p x p
    matrices, in the column-stacked order of the weights: the element at
    the position of entry (k, l) is w E_kl + conj(w) E_lk, that is E_kk on
    the diagonal (w = 1/2, counting E_kk twice), (E_kl + E_lk)/sqrt(2)
    above it (w = 1/sqrt(2)) and i(E_lk - E_kl)/sqrt(2) below it
    (w = -i/sqrt(2))."""
    r = math.sqrt(0.5)
    w = np.triu(np.full((p, p), r + 0j), 1) + np.tril(np.full((p, p), -1j * r), -1)
    w[np.diag_indices(p)] = 0.5
    w = w.T  # position k + l p is the entry (k, l)
    wc = w.conj()
    w.setflags(write=False)
    wc.setflags(write=False)
    return w, wc


def _real_form(t: np.ndarray, imaginary: bool) -> np.ndarray:
    """Re(c U^H T U) up to sign, for U the Hermitian frame of the p x p
    weights that T acts on: the real part of U^H T U, or for c = +-i its
    imaginary part (a sign changes no singular value). Each column of U
    has its two entries at the positions of X_kl and X_lk, so both
    products are a transpose of two axes of T seen as a (p, p, p, p) array
    (axes: output column, output row, input column, input row) and a
    weighted sum, not a matrix product."""
    p = math.isqrt(t.shape[0])
    w, wc = _hermitian_frame(p)
    t4 = t.reshape(p, p, p, p)
    tu = t4 * w + t4.swapaxes(2, 3) * wc
    z = wc[:, :, None, None] * tu + w[:, :, None, None] * tu.swapaxes(0, 1)
    return (z.imag if imaginary else z.real).reshape(p * p, p * p)


# Below 5 x 5 weights (25 rows of the block map) a real form costs more to
# build, a fixed count of passes over the map, than its real SVD saves.
_REAL_FORM_MIN = 25


def _value_forms(kind: TransformKind, tms: list, m: int) -> list:
    """For B = A*, the matrix whose singular values are each block map's:
    the real form of a diagonal block of at least _REAL_FORM_MIN weights,
    and None for the (nil, core) block, whose values are those of its mirror
    (core, nil) just before it. The phase c is 1 for triangle and (-i)^m for
    delta, imaginary for odd m."""
    imaginary = kind == TransformKind.DELTA and m % 2 == 1

    def diagonal(t):
        return _real_form(t, imaginary) if t.shape[0] >= _REAL_FORM_MIN else t

    if len(tms) == 1:
        return [diagonal(tms[0])]
    t11, t12, _, t22 = tms
    return [diagonal(t11), t12, None, diagonal(t22)]


def _normalize_phase(x: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude entry is real positive (determinism)."""
    flat = x.reshape(-1, order="F")
    k = int(np.argmax(np.abs(flat)))
    z = flat[k]
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
        (s[:, ci], s[:, cj], _block_map(kind, tb[ci, ci], ta[cj, cj], m))
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
    vectors are its part of the basis. When B equals A^* exactly, the
    values of each diagonal block of at least 5 x 5 weights (the dense map
    counts as one block) come from its real form, and the two off-diagonal
    blocks share one SVD.

    ``singular_values``, ``cutoff`` and ``gap`` come from the values-only
    SVDs, and for B = A^* from the real forms, so they can move in the last
    bits while ``dim`` and the basis do not. ``gap`` divides by the largest
    discarded value, which is often rounding noise, so its digits carry no
    meaning beyond its magnitude. Non-finite operands raise ParseError. A
    zero floor that overflows raises IllConditioned before any block map is
    built, and a block map that overflows raises it before any SVD (after
    numpy's overflow warnings, if those are on).
    """
    kind = TransformKind(kind)
    b, a = _operands(m, b, a)
    n = a.shape[0]
    # A map whose norm sits below the defect zero threshold annihilates
    # every weight up to rounding; the relative cutoff alone cannot see
    # that, so it gets an absolute floor: the threshold of a unit weight.
    zero_floor = defect_threshold(policy, defect_growth(b, a), m, 1.0)
    if dd is not None and 0 < dd.dim_h1 < n and dd.cond_s - 1 <= policy.rank_rtol:
        blocks = _split_blocks(kind, b, a, m, dd, policy)
    else:
        blocks = [(None, None, _block_map(kind, b, a, m))]
    tms = [tm for *_, tm in blocks]
    forms = _value_forms(kind, tms, m) if np.array_equal(b, adjoint(a)) else tms
    # every matrix an SVD may take, once: the block maps and the real forms
    svd_inputs = {id(x): x for x in (*tms, *forms) if x is not None}.values()
    if not all(np.isfinite(x).all() for x in svd_inputs):
        raise IllConditioned(f"the order-{m} transform of these operators overflows")
    svals = []
    for x in forms:
        svals.append(svals[-1] if x is None else np.linalg.svd(x, compute_uv=False))
    sv = svals[0] if len(svals) == 1 else np.sort(np.concatenate(svals))[::-1]
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
            y = v.conj().reshape((rows, cols), order="F")
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
        # shallow: it runs on every classify call, and asdict would deep-copy
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
    violation is numerical breakdown and raises ToleranceInconsistency. A
    defect that overflows from finite operands raises IllConditioned, as
    ``defect`` does, and a bound below 1 raises InvalidOrder.
    """
    kind = TransformKind(kind)
    b, a, x = _operands(bound, b, a, x)
    # the defect of order k is one step applied to the defect of order k-1
    growth, x_norm = defect_growth(b, a), frob(x)
    residuals: list[float] = []
    thresholds: list[float] = []
    passing: list[bool] = []
    d = x
    for k in range(1, bound + 1):
        thresholds.append(defect_threshold(policy, growth, k, x_norm))
        d = _step(kind, b, a, d)
        residuals.append(frob(d))
        if not math.isfinite(residuals[-1]):
            raise IllConditioned(f"the order-{k} defect of these operators overflows")
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
