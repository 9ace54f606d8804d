"""Tests for index detection, the core-nilpotent decomposition, and block
views, including an independent eigendecomposition oracle for uniqueness."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opcheck import drazin as dz
from opcheck import matcore as mc
from opcheck.errors import IllConditioned, NotSquare, ParseError
from opcheck.generators import (
    make_drazin_block,
    random_invertible,
    random_nilpotent,
    random_unitary,
    rng_for,
)

P = mc.DEFAULT_POLICY
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
FIXTURE = mc.block_diag(2 * mc.eye(1), E12)  # invertible 1x1 plus 2-nilpotent


class TestIndex:
    def test_invertible_is_zero(self):
        a = random_invertible(4, rng_for(0, 1))
        assert dz.index_of(a, P) == 0

    def test_full_jordan_chain(self):
        n = np.diag(np.ones(2), 1).astype(complex)  # 3x3, chain length 3
        assert dz.index_of(n, P) == 3

    def test_fixture_index_two(self):
        assert dz.index_of(FIXTURE, P) == 2

    def test_not_square(self):
        with pytest.raises(NotSquare):
            dz.index_of(np.ones((2, 3)))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_parse_error(self, entry):
        a = np.array([[entry, 1], [0, 1]], dtype=complex)
        with pytest.raises(ParseError):
            dz.index_of(a, P)
        with pytest.raises(ParseError):
            dz.core_nilpotent_decompose(a, P)

    def test_overflowing_largest_singular_value_is_ill_conditioned(self):
        # finite entries, but sigma_1 = 1.5e308 * sqrt(2) overflows: the
        # cutoff was inf, and the index came out 1 where it is 2 (A^2 = 0)
        a = np.zeros((3, 3), dtype=complex)
        a[0, 1:] = 1.5e308
        with pytest.raises(IllConditioned):
            dz.index_of(a, P)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 5: the power floor atol * max(1, |A|)^k is not scale "
        "invariant, so A^2 falls under it; opcheck drazin exits 0 with a zero inverse",
    )
    def test_invertible_with_huge_and_tiny_entries_has_index_zero(self):
        a = np.array([[0, 1e-10], [1e100, 0]], dtype=complex)  # det -1e90
        assert dz.index_of(a, P) == 0

    def test_conjugated_nilpotent_keeps_exact_index(self):
        # rounding dirt in powers of a rotated nilpotent must not inflate rank
        rng = rng_for(5, 2)
        for q in (2, 3, 4):
            n = random_nilpotent(5, q, rng)
            u = random_unitary(5, rng)
            assert dz.index_of(u @ n @ mc.adjoint(u), P) == q


def _reference_index(a, policy):
    """The index search with the floor atol * base**k in closed form, and
    formed in log space when base**k alone overflows; "ill" where a power or
    its largest singular value overflows. A test oracle for the
    running-product floor of index_of."""
    n = a.shape[0]
    ak, rank_k, base = np.eye(n, dtype=complex), n, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            nxt = ak @ a
            if not np.isfinite(nxt).all():
                return "ill"
            s = np.linalg.svd(nxt, compute_uv=False)
            if not math.isfinite(s[0]):
                return "ill"
            if k == 0:
                base = max(1.0, float(s[0]))
            try:
                floor = policy.atol * base ** (k + 1)
            except OverflowError:
                try:
                    floor = policy.atol and math.exp(
                        math.log(policy.atol) + (k + 1) * math.log(base)
                    )
                except OverflowError:
                    floor = math.inf
            r = int(np.count_nonzero(s > max(policy.rank_rtol * s[0], floor))) if s[0] else 0
            if r == rank_k:
                return k
            ak, rank_k = nxt, r
    return n


@st.composite
def _scaled_operators(draw):
    """c * M for c = 2^k, |k| up to about 500, and M of size n <= 6: a Jordan
    block, a nilpotent, an invertible core (+) a nilpotent, or an oblique
    pair [[1, t], [0, 0]] (+) a nilpotent, whose norm t far exceeds its
    spectral radius 1. One draw in two is conjugated by a unitary, and three
    in four take k at the edge of the floor's overflow."""
    n = draw(st.integers(1, 6))
    rng = rng_for(draw(st.integers(0, 2**16)), n)
    shape = draw(st.sampled_from(["jordan", "nilpotent", "core", "oblique"]))
    if shape == "jordan":
        m = np.eye(n, k=1, dtype=complex)
    elif shape == "nilpotent":
        m = random_nilpotent(n, draw(st.integers(1, n)), rng)
    else:
        r = min(2, n) if shape == "oblique" else draw(st.integers(1, n))
        core = (
            np.array([[1, 2.0 ** draw(st.integers(0, 32))], [0, 0]], dtype=complex)[:r, :r]
            if shape == "oblique"
            else random_invertible(r, rng)
        )
        q = draw(st.integers(1, max(n - r, 1)))
        m = mc.block_diag(core, random_nilpotent(n - r, q, rng))
    if draw(st.booleans()):
        u = random_unitary(n, rng)
        m = u @ m @ mc.adjoint(u)
    norm = float(np.linalg.norm(m, 2))
    if norm and draw(st.integers(0, 3)):
        # ||cM||^j from just below 2^1024 to 2^1069 for some power j, so that
        # the closed form base**j overflows while atol * base**j may not
        j = draw(st.integers(2, max(n, 2)))
        k = round((1024 + draw(st.integers(-4, 36))) / j - math.log2(norm))
    else:
        k = draw(st.integers(-500, 500))
    return 2.0**k * m


def _conjugated_nilpotent(n, q, seed):
    rng = rng_for(seed, n)
    m = random_nilpotent(n, q, rng)
    u = random_unitary(n, rng)
    return u @ m @ mc.adjoint(u)


class TestIndexFloor:
    @settings(max_examples=400, deadline=None)
    @given(a=_scaled_operators(), atol=st.sampled_from([0.0, P.atol, 1e-4]))
    # ||A||^2 overflows: only the log space form of the floor is finite, and
    # gives index 1
    @example(a=np.array([[1e150, 1e157], [0, 0]], dtype=complex), atol=P.atol)
    # ||A||^4 overflows, and so does atol * ||A||^4 unless atol is 0
    @example(a=1e100 * np.eye(4, k=1, dtype=complex), atol=P.atol)
    @example(a=1e100 * np.eye(4, k=1, dtype=complex), atol=0.0)
    # A^3 is rounding dirt and ||A||^3 overflows: only a floor formed from
    # atol > 0 gives that power rank 0, and the index 2
    @example(a=2.0**342 * _conjugated_nilpotent(3, 2, 0), atol=P.atol)
    def test_running_product_floor_matches_closed_form(self, a, atol):
        policy = mc.NumericPolicy(atol=atol)
        try:
            got = dz.index_of(a, policy)
        except IllConditioned:
            got = "ill"
        assert got == _reference_index(a, policy)


class TestDecomposition:
    def test_invertible(self):
        a = random_invertible(3, rng_for(1, 3))
        dd = dz.core_nilpotent_decompose(a, P)
        assert dd.p == 0 and dd.dim_h2 == 0 and dd.dim_h1 == 3
        np.testing.assert_allclose(dd.a_d, mc.inverse(a, P), atol=1e-10)

    def test_nilpotent(self):
        n = random_nilpotent(4, 3, rng_for(2, 4))
        dd = dz.core_nilpotent_decompose(n, P)
        assert dd.p == 3 and dd.dim_h1 == 0
        assert mc.frob(dd.a_d) <= 1e-12

    def test_fixture_drazin_inverse(self):
        dd = dz.core_nilpotent_decompose(FIXTURE, P)
        assert dd.p == 2
        np.testing.assert_allclose(dd.a_d, np.diag([0.5, 0, 0]), atol=1e-12)

    def test_axioms_on_families(self):
        for seed in range(25):
            rng = rng_for(seed, 5)
            n1, n2 = int(rng.integers(0, 4)), int(rng.integers(1, 4))
            p = int(rng.integers(1, n2 + 1))
            spectrum = ("generic", "real", "selfadjoint")[seed % 3]
            inst = make_drazin_block(n1, n2, p, rng, P, conjugate=True, spectrum=spectrum)
            a = inst.matrices["A"]
            dd = dz.core_nilpotent_decompose(a, P)
            thr = dz.axiom_threshold(a, dd.p, P)
            for r in dd.residuals_for(a):
                assert r <= thr

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_axiom_residuals_are_ill_conditioned(self):
        a = np.array([[0, 1e-10j], [1e200, 0]])
        dd = dz.core_nilpotent_decompose(a, P)
        with pytest.raises(IllConditioned):
            dd.residuals_for(a)

    def test_uniqueness_against_eigendecomposition(self):
        # independent oracle: on a diagonalizable matrix the inverse is the
        # eigenbasis carry-over of (1/lambda on the support, 0 on the kernel)
        rng = rng_for(3, 6)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            lam = np.where(rng.random(n) < 0.35, 0.0, rng.uniform(0.5, 2.0, n))
            q = random_invertible(n, rng, "generic")
            a = q @ np.diag(lam).astype(complex) @ np.linalg.inv(q)
            oracle = q @ np.diag([0.0 if v == 0 else 1 / v for v in lam]).astype(
                complex
            ) @ np.linalg.inv(q)
            got = dz.drazin_inverse(a, P)
            assert mc.frob(got - oracle) <= 1e-7 * max(1.0, mc.frob(oracle))

    def test_one_svd_per_rank_decision(self, monkeypatch):
        # invertible: the index search's one SVD; FIXTURE (index 2): three in
        # the index search (A, A^2, A^3), the full SVD of A^2, cond(S) and the
        # core block's rank check. ||A||_2 comes from the search's SVD of A,
        # and the inverses take no SVD of their own.
        a = random_invertible(3, rng_for(1, 3))
        svd = np.linalg.svd
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        # numpy's norm(x, 2) calls the implementation module's own binding
        for namespace in (np.linalg, np.linalg._linalg):
            monkeypatch.setattr(namespace, "svd", counting)
        for mat, expected in ((a, 1), (FIXTURE, 6)):
            calls.clear()
            dz.core_nilpotent_decompose(mat, P)
            assert len(calls) == expected, calls
        monkeypatch.undo()
        np.testing.assert_array_equal(dz.drazin_inverse(a, P), mc.inverse(a, P))

    def test_ill_conditioned_split_is_an_error(self):
        # rank-one idempotent-like matrix whose range and kernel are almost
        # parallel: the combined basis has condition ~2e9 > cond_max
        a = np.array([[1.0, 1e9], [0.0, 0.0]], dtype=complex)
        with pytest.raises(IllConditioned):
            dz.core_nilpotent_decompose(a, P)

    def test_near_nilpotent_resolves_as_nilpotent(self):
        # an entry below the zero scale must not produce a phantom core
        a = np.array([[1e-13, 1.0], [0.0, 0.0]], dtype=complex)
        dd = dz.core_nilpotent_decompose(a, P)
        assert dd.dim_h1 == 0 and mc.frob(dd.a_d) <= 1e-10

    def test_reconstruction(self):
        inst = make_drazin_block(2, 3, 2, rng_for(4, 7), P, conjugate=True, spectrum="real")
        a = inst.matrices["A"]
        dd = dz.core_nilpotent_decompose(a, P)
        recon = dd.s @ mc.block_diag(dd.a1, dd.a2) @ dd.s_inv
        assert mc.frob(recon - a) <= 1e-9 * max(1.0, mc.frob(a))

    def test_json_report(self):
        dd = dz.core_nilpotent_decompose(FIXTURE, P)
        doc = dd.to_json(FIXTURE)
        assert doc["index"] == 2 and doc["dim_core"] == 1 and doc["dim_nil"] == 2
        assert set(doc["axiom_residuals"]) == {
            "commutation",
            "inner_inverse",
            "index_power",
        }


class TestBlockView:
    def test_identity_weight(self):
        dd = dz.core_nilpotent_decompose(FIXTURE, P)
        bv = dz.block_view(mc.eye(3), dd)
        np.testing.assert_allclose(bv.x11, mc.eye(1), atol=1e-12)
        np.testing.assert_allclose(bv.x22, mc.eye(2), atol=1e-12)
        assert mc.frob(bv.x12) <= 1e-12 and mc.frob(bv.x21) <= 1e-12

    def test_standard_basis_weight(self):
        dd = dz.core_nilpotent_decompose(FIXTURE, P)
        e11 = mc.zeros(3, 3)
        e11[0, 0] = 1.0
        bv = dz.block_view(e11, dd)
        np.testing.assert_allclose(np.abs(bv.x11), [[1]], atol=1e-12)
        for blk in (bv.x12, bv.x21, bv.x22):
            assert mc.frob(blk) <= 1e-12

    def test_constructed_core_weight(self):
        dd = dz.core_nilpotent_decompose(FIXTURE, P)
        m = np.array([[3.5 + 1j]])
        x = dd.s @ mc.block_diag(m, mc.zeros(2, 2)) @ dd.s_inv
        bv = dz.block_view(x, dd)
        np.testing.assert_allclose(bv.x11, m, atol=1e-12)
        assert mc.frob(bv.x22) <= 1e-12


class TestResolvePair:
    def test_self(self):
        np.testing.assert_array_equal(dz.resolve_pair(FIXTURE, dz.PairSelector.SELF, P), FIXTURE)

    def test_adjoint(self):
        np.testing.assert_array_equal(
            dz.resolve_pair(FIXTURE, dz.PairSelector.ADJOINT, P), mc.adjoint(FIXTURE)
        )

    def test_drazin_adjoint_fixture(self):
        out = dz.resolve_pair(FIXTURE, dz.PairSelector.DRAZIN_ADJOINT, P)
        np.testing.assert_allclose(out, np.diag([0.5, 0, 0]), atol=1e-12)

    def test_accepts_string_values(self):
        out = dz.resolve_pair(FIXTURE, "drazin", P)
        np.testing.assert_allclose(out, np.diag([0.5, 0, 0]), atol=1e-12)

    def test_drazin_partner_needs_the_drazin_inverse(self):
        with pytest.raises(ValueError, match="needs the Drazin inverse"):
            dz.PairSelector.DRAZIN.partner(FIXTURE)
