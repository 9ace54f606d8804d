"""Drazin index, Drazin inverse, and the core-nilpotent block structure.

A square A decomposes the space as ``range(A^p) + null(A^p)`` where p is
the least k with rank(A^k) = rank(A^(k+1)). Relative to a basis of those
two subspaces A is block diagonal A1 (+) A2 with A1 invertible and A2
p-nilpotent, and the Drazin inverse is A1^(-1) (+) 0 carried back to the
original basis. The two subspaces are each spanned orthonormally but are
not orthogonal to each other in general; the conditioning of the combined
basis is checked against the policy and failure raises
:class:`~opcheck.errors.IllConditioned` rather than returning junk.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, IllConditioned
from .matcore import (
    DEFAULT_POLICY,
    NumericPolicy,
    _require_square,
    _spectral_rank,
    adjoint,
    as_matrix,
    condition,
    frob,
    matrix_to_json,
    rank,
)

__all__ = [
    "DrazinData",
    "BlockView",
    "PairSelector",
    "index_of",
    "core_nilpotent_decompose",
    "drazin_inverse",
    "block_view",
    "resolve_pair",
    "axiom_threshold",
]


def _index_power(a: np.ndarray, policy: NumericPolicy) -> tuple[int, np.ndarray, int]:
    """Index p of a square A, together with A^p and its rank.

    A relative cutoff alone cannot tell an exactly nilpotent power apart
    from its rounding dirt (whose largest singular value is ~eps), so the
    singular values of A^k are also floored at atol times the natural
    magnitude ||A||^k of the power; ||A||_2 is the largest singular value
    of A^1, the first power searched. A power whose entries overflow raises
    IllConditioned. The floor is a running product, one factor of
    max(1, ||A||) per power: its factors are >= 1, so it overflows to inf
    only when the floor itself does, and then lies above every finite
    singular value, giving that power rank 0.
    """
    n = a.shape[0]
    ak, rank_k, base, floor = np.eye(n, dtype=np.complex128), n, 1.0, policy.atol
    # an overflowing power raises below; numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            nxt = ak @ a
            if not np.isfinite(nxt).all():
                raise IllConditioned(f"the entries of A^{k + 1} overflow")
            s = np.linalg.svd(nxt, compute_uv=False)
            if k == 0:
                base = max(1.0, float(s[0]))
            floor *= base
            r = _spectral_rank(s, policy.rank_rtol, floor)
            if r == rank_k:
                return k, ak, rank_k
            ak, rank_k = nxt, r
    return n, ak, rank_k  # ranks strictly decrease at most n times


def index_of(a: np.ndarray, policy: NumericPolicy = DEFAULT_POLICY) -> int:
    """Least k >= 0 with rank(A^k) = rank(A^(k+1)); 0 means invertible."""
    return _index_power(_require_square(as_matrix(a)), policy)[0]


@dataclass(frozen=True, eq=False)
class DrazinData:
    """Core-nilpotent decomposition of one operator.

    ``s`` holds an orthonormal basis of range(A^p) in its first ``dim_h1``
    columns and an orthonormal basis of null(A^p) in the rest;
    ``s_inv @ a @ s`` is block diagonal with blocks ``a1`` (invertible) and
    ``a2`` (p-nilpotent). ``cond_s`` is the 2-norm condition number of
    ``s``; it is 1 up to rounding exactly when the two subspaces are
    orthogonal, i.e. when ``s`` is unitary.
    """

    p: int
    a_d: np.ndarray
    s: np.ndarray
    s_inv: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    dim_h1: int
    dim_h2: int
    cond_s: float

    @property
    def n(self) -> int:
        return self.dim_h1 + self.dim_h2

    def residuals_for(self, a: np.ndarray) -> tuple[float, float, float]:
        """Frobenius residuals of the three defining identities of A_d, in
        the order: commutation [A_d, A], A_d^2 A = A_d, A^(p+1) A_d = A^p.
        A residual that overflows raises IllConditioned."""
        a = np.asarray(a, dtype=np.complex128)
        a_d = self.a_d
        ap = np.linalg.matrix_power(a, self.p)
        res = (
            frob(a_d @ a - a @ a_d),
            frob(a_d @ a_d @ a - a_d),
            frob(ap @ a @ a_d - ap),
        )
        if not np.isfinite(res).all():
            raise IllConditioned("the axiom residuals of A_d overflow")
        return res

    def to_json(self, a: np.ndarray) -> dict:
        r1, r2, r3 = self.residuals_for(a)
        return {
            "index": self.p,
            "dim_core": self.dim_h1,
            "dim_nil": self.dim_h2,
            "core_basis_condition": self.cond_s,
            "drazin_inverse": matrix_to_json(self.a_d),
            "axiom_residuals": {"commutation": r1, "inner_inverse": r2, "index_power": r3},
        }


def core_nilpotent_decompose(
    a: np.ndarray, policy: NumericPolicy = DEFAULT_POLICY
) -> DrazinData:
    a = _require_square(as_matrix(a))
    n = a.shape[0]
    p, ap, r = _index_power(a, policy)

    if p == 0:
        # the index search found A of full rank at a cutoff no looser than
        # rank()'s, so A is invertible under the policy
        s = np.eye(n, dtype=np.complex128)
        return DrazinData(
            p=0,
            a_d=np.linalg.solve(a, s),
            s=s,
            s_inv=s.copy(),
            a1=a.copy(),
            a2=np.zeros((0, 0), np.complex128),
            dim_h1=n,
            dim_h2=0,
            cond_s=1.0,
        )

    # the first r left singular vectors of A^p span its range, the rest of
    # the right ones its null space; r is the rank the index was found with
    u, _, vh = np.linalg.svd(ap, full_matrices=True)
    s = np.hstack([u[:, :r], vh[r:].conj().T])

    kappa = condition(s)
    if kappa > policy.cond_max:
        raise IllConditioned(
            f"core/null basis has condition {kappa:.3e} > {policy.cond_max:.1e}"
        )
    s_inv = np.linalg.solve(s, np.eye(n, dtype=np.complex128))
    t = s_inv @ a @ s
    a1, a2 = t[:r, :r], t[r:, r:]

    # A maps each subspace into itself, so the cross blocks must vanish.
    leak = max(frob(t[:r, r:]), frob(t[r:, :r]))
    if leak > policy.zero_threshold(kappa * frob(a)):
        raise IllConditioned(f"block leakage {leak:.3e} exceeds policy threshold")
    if r and rank(a1, policy) < r:
        raise IllConditioned("core block is numerically singular")

    core = np.zeros((n, n), dtype=np.complex128)
    core[:r, :r] = np.linalg.solve(a1, np.eye(r, dtype=np.complex128))
    a_d = s @ core @ s_inv
    return DrazinData(
        p=p, a_d=a_d, s=s, s_inv=s_inv, a1=a1, a2=a2, dim_h1=r, dim_h2=n - r, cond_s=kappa
    )


def drazin_inverse(a: np.ndarray, policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    return core_nilpotent_decompose(a, policy).a_d


@dataclass(frozen=True, eq=False)
class BlockView:
    """Blocks of S^(-1) X S partitioned at the core dimension."""

    x11: np.ndarray
    x12: np.ndarray
    x21: np.ndarray
    x22: np.ndarray


def block_view(x: np.ndarray, dd: DrazinData) -> BlockView:
    x = np.asarray(x, dtype=np.complex128)
    n = dd.n
    if x.shape != (n, n):
        raise DimensionMismatch(f"weight must have shape {(n, n)}, got {x.shape}")
    t = dd.s_inv @ x @ dd.s
    r = dd.dim_h1
    return BlockView(x11=t[:r, :r], x12=t[:r, r:], x21=t[r:, :r], x22=t[r:, r:])


class PairSelector(str, Enum):
    """Which partner operator to pair with A."""

    SELF = "self"
    ADJOINT = "adjoint"
    DRAZIN = "drazin"
    DRAZIN_ADJOINT = "drazin-adjoint"

    @property
    def needs_drazin(self) -> bool:
        return self in (PairSelector.DRAZIN, PairSelector.DRAZIN_ADJOINT)

    def partner(self, a: np.ndarray, a_d: np.ndarray | None = None) -> np.ndarray:
        """The operator this selector pairs with A; ``a_d`` is A's Drazin
        inverse, which only the Drazin selectors read."""
        if self.needs_drazin and a_d is None:
            raise ValueError(f"selector {self.value!r} needs the Drazin inverse of A")
        if self == PairSelector.SELF:
            return np.array(a, dtype=np.complex128)
        if self == PairSelector.ADJOINT:
            return adjoint(a)
        if self == PairSelector.DRAZIN:
            return a_d
        return adjoint(a_d)


def resolve_pair(
    a: np.ndarray, sel: PairSelector, policy: NumericPolicy = DEFAULT_POLICY
) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    sel = PairSelector(sel)
    return sel.partner(a, drazin_inverse(a, policy) if sel.needs_drazin else None)


def axiom_threshold(a: np.ndarray, p: int, policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """Shared tolerance for the three axiom residuals: scales like ||A||_1^(p+2)."""
    return policy.zero_threshold(max(1.0, float(np.linalg.norm(a, 1))) ** (p + 2))
