"""Kernel dimensions and minimal orders against the closed forms of
``structure.py``: A is normal plus nilpotent, B = A^*, at unit scale."""

import numpy as np
import pytest
import structure

from opcheck import kernels as kn
from opcheck.transforms import TransformKind as TK


@pytest.mark.parametrize("a, b", [(a, b) for a in range(1, 5) for b in range(1, 5)])
def test_clebsch_gordan_rule_matches_integer_nullities(a, b):
    # the nilpotent Kronecker sum of two Jordan blocks is an integer matrix,
    # so its powers and their ranks are exact in doubles
    ja, jb = np.eye(a, k=1), np.eye(b, k=1)
    k = np.kron(np.eye(b), ja) - np.kron(jb.T, np.eye(a))
    for m in range(1, 5):
        nullity = a * b - np.linalg.matrix_rank(np.linalg.matrix_power(k, m))
        assert nullity == structure.pair_dim(a, b, m)


def _drawn(kind, seed, *limits):
    rng = np.random.default_rng(seed)
    eigs, sizes = structure.draw(kind.value, rng, *limits)
    return eigs, sizes, structure.build(eigs, sizes, rng)


SEEDED_DRAWS = pytest.mark.parametrize("seed", range(12))
KINDS = pytest.mark.parametrize("kind", list(TK), ids=[k.value for k in TK])


@SEEDED_DRAWS
@KINDS
def test_kernel_dims_match_the_closed_form(kind, seed):
    eigs, sizes, a = _drawn(kind, seed)
    for m in range(1, 5):
        got = kn.kernel(kind, a.conj().T, a, m).dim
        assert got == structure.kernel_dim(kind.value, eigs, sizes, m), (eigs, sizes, m)


@SEEDED_DRAWS
@KINDS
def test_minimal_order_of_the_identity_matches_the_closed_form(kind, seed):
    eigs, sizes, a = _drawn(kind, seed)
    got = kn.minimal_order(kind, a.conj().T, a, np.eye(len(a)), 2 * structure.MAX_BLOCK)
    assert got.minimal_order == structure.minimal_order(kind.value, eigs, sizes), (eigs, sizes)


# larger draws: n <= 16, Jordan blocks up to 6
LARGE = (16, 6)


@pytest.mark.parametrize("seed", range(1000, 1012))
@KINDS
def test_kernel_dims_match_the_closed_form_up_to_n16(kind, seed):
    eigs, sizes, a = _drawn(kind, seed, *LARGE)
    for m in range(1, 4):
        got = kn.kernel(kind, a.conj().T, a, m).dim
        assert got == structure.kernel_dim(kind.value, eigs, sizes, m), (eigs, sizes, m)


_WRONG_ORDER_AT_N11 = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 5: the delta draw at seed 1008 (eigenvalues 1, 2; Jordan sizes "
    "(2, 1), (2, 6); n = 11) passes at order 10 with residual 7.2 against threshold 51.9, "
    "since the delta scale has degree 2m and the residual degree m; the exact order is 11",
)


def _large_order_case(kind, seed):
    marks = _WRONG_ORDER_AT_N11 if (kind, seed) == (TK.DELTA, 1008) else ()
    return pytest.param(kind, seed, marks=marks, id=f"{kind.value}-{seed}")


@pytest.mark.parametrize(
    "kind, seed", [_large_order_case(kind, seed) for kind in TK for seed in range(1000, 1012)]
)
def test_minimal_order_of_the_identity_matches_the_closed_form_up_to_n16(kind, seed):
    eigs, sizes, a = _drawn(kind, seed, *LARGE)
    got = kn.minimal_order(kind, a.conj().T, a, np.eye(len(a)), 2 * LARGE[1])
    assert got.minimal_order == structure.minimal_order(kind.value, eigs, sizes), (eigs, sizes)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 6: the rank of L^m is cut relative to sigma_1(L^m), next to "
    "the rounding of the binomial cancellation",
)
def test_close_real_eigenvalues_at_order_three():
    a = np.diag([1.0, 1.01]).astype(complex)
    assert structure.kernel_dim("delta", (1.0, 1.01), ((1,), (1,)), 3) == 2
    assert kn.kernel(TK.DELTA, a, a, 3).dim == 2
