"""Kernel dimensions against the closed form of ``structure.py``: A is
normal plus nilpotent, B = A^*, at unit scale."""

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


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("kind", list(TK), ids=[k.value for k in TK])
def test_kernel_dims_match_the_closed_form(kind, seed):
    rng = np.random.default_rng(seed)
    eigs, sizes = structure.draw(kind.value, rng)
    a = structure.build(eigs, sizes, rng)
    for m in range(1, 5):
        got = kn.kernel(kind, a.conj().T, a, m).dim
        assert got == structure.kernel_dim(kind.value, eigs, sizes, m), (eigs, sizes, m)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 6: the rank of L^m is cut relative to sigma_1(L^m), next to "
    "the rounding of the binomial cancellation",
)
def test_close_real_eigenvalues_at_order_three():
    a = np.diag([1.0, 1.01]).astype(complex)
    assert structure.kernel_dim("delta", (1.0, 1.01), ((1,), (1,)), 3) == 2
    assert kn.kernel(TK.DELTA, a, a, 3).dim == 2
