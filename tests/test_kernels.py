"""Tests for the vectorized transform matrix, kernel extraction, membership
predicates, and the minimal-order scan."""

import math

import numpy as np
import pytest
from binomial import kron_transform_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import _ARITY

from opcheck import drazin as dz
from opcheck import kernels as kn
from opcheck import matcore as mc
from opcheck import transforms as tf
from opcheck.errors import (
    DimensionMismatch,
    IllConditioned,
    InvalidOrder,
    OpcheckError,
    ParseError,
    ToleranceInconsistency,
)
from opcheck.generators import (
    Family,
    InstanceSpec,
    generate,
    make_drazin_block,
    random_invertible,
    random_nilpotent,
    random_unitary,
    rng_for,
)

P = mc.DEFAULT_POLICY
TK = tf.TransformKind
JORDAN2 = np.array([[1, 1], [0, 1]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
NAN = np.array([[np.nan, 1], [0, 1]], dtype=complex)


def _cgauss(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)


class TestTransformMatrix:
    def test_identity_pair_is_zero(self):
        for n in (1, 2, 3):
            tm = kn._block_map(TK.TRIANGLE, mc.eye(n), mc.eye(n), 2)
            assert tm.shape == (n * n, n * n)
            assert mc.frob(tm) <= 1e-13

    def test_scalar_case(self):
        tm = kn._block_map(
            TK.TRIANGLE, np.array([[3.0]], dtype=complex), np.array([[2.0]], dtype=complex), 1
        )
        np.testing.assert_allclose(tm, [[5.0]], atol=1e-14)

    def test_matches_direct_transform(self):
        rng = rng_for(0, 100)
        for _ in range(8):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 5))
            b, a = _cgauss(rng, n), _cgauss(rng, n)
            for kind in TK:
                tm = kn._block_map(kind, b, a, m)
                for _ in range(100):
                    x = _cgauss(rng, n)
                    lhs = tm @ x.reshape(-1, order="F")
                    rhs = tf.transform(kind, b, a, x, m).reshape(-1, order="F")
                    scale = tf.defect_growth(b, a) ** m * mc.frob(x)
                    assert np.abs(lhs - rhs).max() <= P.rtol * scale

    def test_columns_are_unit_weights_stepped_bitwise(self):
        # square maps and the split kernel's p x q block maps, p != q
        rng = rng_for(0, 109)
        for p, q in ((1, 1), (3, 3), (6, 6), (1, 3), (3, 1), (2, 5), (4, 2)):
            b, a = _cgauss(rng, p), _cgauss(rng, q)
            for kind in TK:
                for m in (1, 2, 4):
                    tm = kn._block_map(kind, b, a, m)
                    assert tm.shape == (p * q, p * q)
                    for k in range(p * q):
                        y = np.zeros((p, q), dtype=complex)
                        y[k % p, k // p] = 1.0
                        for _ in range(m):
                            y = tf._step(kind, b, a, y)
                        assert tm[:, k].tobytes() == y.reshape(-1, order="F").tobytes()

    def test_agrees_with_kron_oracle(self):
        rng = rng_for(1, 109)
        for p, q in ((1, 1), (2, 2), (5, 5), (1, 3), (3, 1), (2, 5), (4, 2)):
            b, a = _cgauss(rng, p), _cgauss(rng, q)
            for kind in TK:
                for m in (1, 2, 4):
                    got = kn._block_map(kind, b, a, m)
                    want = kron_transform_matrix(kind, b, a, m)
                    scale = tf.defect_growth(b, a) ** m
                    assert np.abs(got - want).max() <= 16 * np.finfo(float).eps * scale


class TestKernel:
    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionMismatch):
            kn.kernel(TK.DELTA, mc.eye(2), mc.eye(3), 1)

    def test_scalar_cancellation(self):
        basis = kn.kernel(
            TK.TRIANGLE, np.array([[0.5]], dtype=complex), np.array([[2.0]], dtype=complex), 1, P
        )
        assert basis.dim == 1

    def test_diag_two_zero_has_trivial_kernel(self):
        a = np.diag([2.0, 0.0]).astype(complex)
        assert kn.kernel(TK.TRIANGLE, a, a, 1, P).dim == 0

    def test_rank_one_projection_kernel(self):
        a = mc.block_diag(mc.eye(1), E12)
        basis = kn.kernel(TK.TRIANGLE, mc.adjoint(a), a, 1, P)
        assert basis.dim == 1
        e11 = mc.zeros(3, 3)
        e11[0, 0] = 1.0
        np.testing.assert_allclose(basis.basis[0], e11, atol=1e-10)

    def test_zero_map_gives_full_kernel(self):
        basis = kn.kernel(TK.TRIANGLE, mc.eye(3), mc.eye(3), 2, P)
        assert basis.dim == 9

    def test_basis_orthonormal(self):
        a = np.diag([2.0, 0.5, 1.0]).astype(complex)
        basis = kn.kernel(TK.TRIANGLE, a, a, 1, P)
        assert basis.dim >= 1
        for i, x in enumerate(basis.basis):
            for j, y in enumerate(basis.basis):
                inner = np.vdot(y.reshape(-1, order="F"), x.reshape(-1, order="F"))
                target = 1.0 if i == j else 0.0
                assert abs(inner - target) <= 1e-10

    def test_soundness_and_completeness(self):
        # every basis element is annihilated; anything orthogonal to the
        # kernel is not
        rng = rng_for(1, 101)
        a = np.diag([2.0, 0.5, -1.0]).astype(complex)
        b = mc.adjoint(mc.inverse(a, P))
        for m in (1, 2):
            basis = kn.kernel(TK.TRIANGLE, b, a, m, P)
            assert 0 < basis.dim < 9
            thr = tf.defect_threshold(P, tf.defect_growth(b, a), m, mc.frob(mc.eye(3)))
            for x in basis.basis:
                assert mc.frob(tf.triangle(b, a, x, m)) <= thr
            for _ in range(10):
                y = _cgauss(rng, 3)
                for x in basis.basis:
                    y -= np.vdot(x.reshape(-1, order="F"), y.reshape(-1, order="F")) * x
                if mc.frob(y) < 1e-6:
                    continue
                y /= mc.frob(y)
                assert mc.frob(tf.triangle(b, a, y, m)) > thr

    @pytest.mark.parametrize(
        "kind, a", [(TK.DELTA, [2.0, 3.0, 5.0]), (TK.TRIANGLE, [0.5, 1 / 3, 7.0])],
        ids=["delta", "triangle"],
    )
    def test_basis_is_column_stacked(self, kind, a):
        # with B = diag(1, 2, 3) the kernel is spanned by E21 and E32, so no
        # element is symmetric; a row-major reshape would give the
        # transposes, which the transform does not annihilate
        b, a = np.diag([1.0, 2.0, 3.0]).astype(complex), np.diag(a).astype(complex)
        for m in (1, 2):
            basis = kn.kernel(kind, b, a, m, P)
            assert basis.dim == 2
            thr = tf.defect_threshold(P, tf.defect_growth(b, a), m, 1.0)
            for x in basis.basis:
                assert mc.frob(x - x.T) > 1.0
                assert mc.frob(tf.transform(kind, b, a, x, m)) <= thr

    def test_order_1030_has_the_diagonal_kernel(self):
        # off the diagonal each step scales by 1.8, and 1.8^1030 is finite
        # although C(1030, 515) is not
        a = 0.9 * np.diag([1.0, -1.0]).astype(complex)
        basis = kn.kernel(TK.DELTA, a, a, 1030, P)
        assert basis.dim == 2
        np.testing.assert_array_equal(basis.basis, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])

    @pytest.mark.filterwarnings("error")
    def test_order_with_overflowing_defect_scale_is_ill_conditioned(self):
        # 1.81^5000 overflows: the zero floor raises before any map is
        # stepped into inf, so numpy warns of no overflow
        a = 0.9 * np.diag([1.0, -1.0]).astype(complex)
        for kind in TK:
            with pytest.raises(IllConditioned, match="defect scale"):
                kn.kernel(kind, a, a, 5000, P)

    def test_sample_is_in_kernel_and_deterministic(self):
        a = np.diag([2.0, 0.5]).astype(complex)
        basis = kn.kernel(TK.DELTA, a, a, 2, P)
        x1 = basis.sample(rng_for(7, 1))
        x2 = basis.sample(rng_for(7, 1))
        np.testing.assert_array_equal(x1, x2)
        assert abs(mc.frob(x1) - 1.0) <= 1e-12
        thr = tf.defect_threshold(P, tf.defect_growth(a, a), 2, mc.frob(x1))
        assert mc.frob(tf.delta(a, a, x1, 2)) <= thr

    def test_sample_empty_kernel_rejected(self):
        a = np.diag([2.0, 0.0]).astype(complex)
        basis = kn.kernel(TK.TRIANGLE, a, a, 1, P)
        with pytest.raises(ValueError):
            basis.sample(rng_for(0, 0))

    def test_json_document(self):
        a = np.diag([2.0, 0.5]).astype(complex)
        doc = kn.kernel(TK.TRIANGLE, mc.adjoint(mc.inverse(a, P)), a, 1, P).to_json()
        assert doc["kind"] == "triangle" and doc["dim"] == len(doc["basis"])

    @pytest.mark.parametrize("operand", ["B", "A"])
    def test_non_finite_operand_is_parse_error(self, operand):
        for bad in (NAN, np.array([[np.inf, 1], [0, 1]], dtype=complex)):
            b, a = (bad, mc.eye(2)) if operand == "B" else (mc.adjoint(bad), bad)
            for kind in TK:
                with pytest.raises(ParseError):
                    kn.kernel(kind, b, a, 2, P)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_map_is_ill_conditioned(self):
        # finite operands whose order-2 map or zero floor overflows
        huge = np.array([[1e200, 1e200], [0, 1e200]], dtype=complex)
        for b, a in ((mc.adjoint(huge), huge), (huge, huge), (mc.eye(2), huge)):
            for kind in TK:
                with pytest.raises(IllConditioned):
                    kn.kernel(kind, b, a, 2, P)


def _largest_angle_sine(basis0, basis1) -> float:
    """Sine of the largest principal angle between two equal-dimension spans."""
    if not basis0:
        return 0.0
    v0, v1 = (np.stack([x.reshape(-1, order="F") for x in b], axis=1) for b in (basis0, basis1))
    return float(np.linalg.norm(v1 - v0 @ (v0.conj().T @ v1), 2))


def _oblique(rng):
    """A 5 x 5 A whose core-nilpotent splitting (3 + 2) is far from unitary."""
    u, w = random_unitary(5, rng), random_unitary(5, rng)
    v = u @ np.diag(np.geomspace(1.0, 100.0, 5)).astype(complex) @ w
    return v @ mc.block_diag(random_invertible(3, rng), random_nilpotent(2, 2, rng)) @ mc.inverse(v)


class TestSplitKernel:
    """``kernel(..., dd=dd)`` against the one-SVD kernel of the whole map."""

    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("spectrum", ["generic", "reciprocal", "real"])
    def test_matches_dense_kernel(self, conjugate, spectrum):
        rng = rng_for(11, 105, int(conjugate), ["generic", "reciprocal", "real"].index(spectrum))
        for n1, n2, p in ((2, 1, 1), (3, 2, 2), (2, 3, 3), (4, 2, 2)):
            a = make_drazin_block(n1, n2, p, rng, P, conjugate=conjugate, spectrum=spectrum)
            a = a.matrices["A"]
            dd = dz.core_nilpotent_decompose(a, P)
            assert dd.cond_s - 1 <= P.rank_rtol and dd.dim_h1 == n1
            for sel in dz.PairSelector:
                b = sel.partner(a, dd.a_d)
                for kind in TK:
                    for m in range(1, 5):
                        dense = kn.kernel(kind, b, a, m, P)
                        split = kn.kernel(kind, b, a, m, P, dd)
                        assert split.dim == dense.dim == len(split.basis)
                        assert _largest_angle_sine(dense.basis, split.basis) <= 1e-6
                        for x in split.basis:
                            assert kn.is_member(kind, b, a, x, m, P)

    def test_oblique_splitting_takes_the_dense_path(self):
        a = _oblique(rng_for(12, 106))
        dd = dz.core_nilpotent_decompose(a, P)
        assert dd.cond_s - 1 > P.rank_rtol and dd.dim_h1 == 3
        for sel in dz.PairSelector:
            b = sel.partner(a, dd.a_d)
            for kind in TK:
                dense = kn.kernel(kind, b, a, 2, P)
                split = kn.kernel(kind, b, a, 2, P, dd)
                assert (split.dim, split.cutoff, split.gap) == (dense.dim, dense.cutoff, dense.gap)
                np.testing.assert_array_equal(split.singular_values, dense.singular_values)
                for x, y in zip(split.basis, dense.basis):
                    np.testing.assert_array_equal(x, y)

    def test_decomposition_of_another_matrix_rejected(self):
        rng = rng_for(13, 107)
        a, c = (make_drazin_block(3, 2, 2, rng, P, conjugate=True).matrices["A"] for _ in "ac")
        bigger = make_drazin_block(4, 2, 2, rng, P, conjugate=True).matrices["A"]
        for dd in (dz.core_nilpotent_decompose(c, P), dz.core_nilpotent_decompose(bigger, P)):
            for kind in TK:
                with pytest.raises(ValueError):
                    kn.kernel(kind, mc.adjoint(a), a, 1, P, dd)


def _reference_kernel(kind, b, a, m, dd=None):
    """(dim, cutoff, basis, values) from the full complex SVD of every
    block: the rank is cut over all singular values and each block's basis
    read from its V^H."""
    n = a.shape[0]
    if dd is not None and 0 < dd.dim_h1 < n and dd.cond_s - 1 <= P.rank_rtol:
        blocks = kn._split_blocks(kind, b, a, m, dd, P)
    else:
        blocks = [(None, None, kn._block_map(kind, b, a, m))]
    svds = [np.linalg.svd(tm, full_matrices=True)[1:] for *_, tm in blocks]
    sv = np.sort(np.concatenate([s for s, _ in svds]))[::-1]
    zero_floor = P.zero_threshold(tf.defect_growth(b, a) ** m)
    if sv[0] > zero_floor:
        cutoff, rank_ = P.rank_rtol * sv[0], mc._spectral_rank(sv, P.rank_rtol)
    else:
        cutoff, rank_ = zero_floor, 0
    basis = []
    for (left, right, _), (s, vh) in zip(blocks, svds):
        rows = left.shape[1] if left is not None else n
        cols = right.shape[1] if right is not None else n
        for v in vh[np.count_nonzero(s > cutoff):]:
            y = v.conj().reshape((rows, cols), order="F")
            basis.append(kn._normalize_phase(y if left is None else left @ y @ mc.adjoint(right)))
    return sv.size - rank_, cutoff, basis, sv


def _singular_hermitian(rng):
    """A 7 x 7 Hermitian A of rank 5: B = A^* is then bitwise A itself, so
    the self pair takes the real form too, and its splitting is unitary
    with a core block of 5 x 5 weights, large enough for the real form."""
    u = random_unitary(7, rng)
    h = u @ np.diag([2.0, -0.5, 1.5, 1.0, -1.2, 0.0, 0.0]).astype(complex) @ mc.adjoint(u)
    return (h + mc.adjoint(h)) / 2


_KERNEL_INPUTS = {
    "block-4-2-2": lambda rng: make_drazin_block(4, 2, 2, rng, P).matrices["A"],
    "conjugated-3-3-2": lambda rng: make_drazin_block(
        3, 3, 2, rng, P, conjugate=True).matrices["A"],
    "reciprocal-2-2-1": lambda rng: make_drazin_block(
        2, 2, 1, rng, P, conjugate=True, spectrum="reciprocal").matrices["A"],
    "real-3-1-1": lambda rng: make_drazin_block(3, 1, 1, rng, P, spectrum="real").matrices["A"],
    "nilpotent-4": lambda rng: random_nilpotent(4, 3, rng),
    "invertible-4": lambda rng: random_invertible(4, rng),
    "identity-3": lambda rng: mc.eye(3),
    "oblique-5": _oblique,
    "hermitian-5-2": _singular_hermitian,
}


class TestKernelSvds:
    """Singular values of every block decide the rank; singular vectors are
    computed only for the blocks that have a kernel. For B = A^* the values
    of a diagonal block come from its real form, and the two off-diagonal
    blocks share one SVD."""

    @pytest.mark.parametrize(
        "kind, sel, values, full",
        [
            (TK.TRIANGLE, "adjoint", ["c8", "c8", "c12", "f36", "c4"], []),
            (TK.DELTA, "drazin-adjoint", ["c12", "c12", "c36", "c4", "c8", "c8"], ["c4"]),
        ],
        ids=["triangle-adjoint", "delta-drazin-adjoint"],
    )
    def test_full_svd_only_for_blocks_with_a_kernel(self, kind, sel, values, full, monkeypatch):
        # unitary splitting of A (8 x 8) into core 6 and nil 2: block maps of
        # size 36, 12, 12 and 4; at order 2 only the delta map's (nil, nil)
        # block has a kernel. The two 8 x 8 SVDs are ||A||_2 and ||B||_2 of
        # the zero floor. Each SVD is recorded as dtype kind ("c" complex,
        # "f" real) and size; the 2 x 2 (nil, nil) weights are too few for
        # the real form to pay.
        a = make_drazin_block(6, 2, 2, rng_for(14, 108), P).matrices["A"]
        dd = dz.core_nilpotent_decompose(a, P)
        b = dz.PairSelector(sel).partner(a, dd.a_d)
        svd = np.linalg.svd
        seen = {False: [], True: []}

        def counting(x, *args, compute_uv=True, **kwargs):
            seen[compute_uv].append(f"{x.dtype.kind}{x.shape[0]}")
            return svd(x, *args, compute_uv=compute_uv, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        basis = kn.kernel(kind, b, a, 2, P, dd)
        monkeypatch.undo()
        assert sorted(seen[False]) == sorted(values) and seen[True] == full
        assert basis.dim == sum(int(x[1:]) for x in full)

    def test_hermitian_frame_is_unitary_and_real_form_drops_rounding(self):
        rng = rng_for(16, 112)
        eps = np.finfo(float).eps
        for p in range(1, 6):
            # column j of U: w_j e_j + conj(w_j) e_t(j), t(j) the position of
            # the transposed entry
            w = kn._hermitian_frame(p)[0].reshape(-1)
            t = np.arange(p * p).reshape(p, p).T.reshape(-1)
            u = np.zeros((p * p, p * p), dtype=complex)
            u[np.arange(p * p), np.arange(p * p)] += w
            u[t, np.arange(p * p)] += w.conj()
            assert np.abs(mc.adjoint(u) @ u - np.eye(p * p)).max() <= 4 * eps
            for col in u.T:
                x = col.reshape((p, p), order="F")
                assert np.array_equal(x, mc.adjoint(x))
            a = _cgauss(rng, p)
            for kind in TK:
                for m in (1, 2, 3):
                    tm = kn._block_map(kind, mc.adjoint(a), a, m)
                    c = 1 if kind == TK.TRIANGLE else (-1j) ** m
                    full = c * (mc.adjoint(u) @ tm @ u)
                    # the rounding of the stepped build is relative to the
                    # steps, whose size is at most growth^m; ||T|| can be
                    # far smaller after cancellation
                    bound = 4 * eps * tf.defect_growth(mc.adjoint(a), a) ** m
                    assert mc.frob(full.imag) <= bound
                    # Re(c Z) is +-Re(Z) for c = +-1 and +-Im(Z) for c = +-i
                    got = (c.real - c.imag) * kn._real_form(tm, c.imag != 0)
                    assert np.abs(got - full.real).max() <= bound

    @pytest.mark.parametrize("split", [False, True], ids=["dense", "split"])
    @pytest.mark.parametrize("name", list(_KERNEL_INPUTS))
    def test_matches_full_svd_of_every_block(self, name, split):
        a = _KERNEL_INPUTS[name](rng_for(15, 110, list(_KERNEL_INPUTS).index(name)))
        dd = dz.core_nilpotent_decompose(a, P)
        for sel in dz.PairSelector:
            b = sel.partner(a, dd.a_d)
            for kind in TK:
                for m in (1, 2, 3):
                    got = kn.kernel(kind, b, a, m, P, dd if split else None)
                    dim, cutoff, basis, sv = _reference_kernel(
                        kind, b, a, m, dd if split else None)
                    assert got.dim == dim == len(got.basis)
                    assert abs(got.cutoff - cutoff) <= 1e-14 * cutoff
                    # also for B = A^*, whose values come from the real forms
                    # and the shared mirrored SVD
                    assert got.singular_values.dtype == np.float64
                    assert np.abs(got.singular_values - sv).max() <= 1e-13 * sv[0]
                    for x, y in zip(got.basis, basis, strict=True):
                        assert x.tobytes() == y.tobytes()


class TestMembership:
    def test_identity_pair_always_member(self):
        rng = rng_for(2, 102)
        x = _cgauss(rng, 3)
        assert kn.is_member(TK.TRIANGLE, mc.eye(3), mc.eye(3), x, 2, P)

    def test_jordan_isometry_orders(self):
        b = mc.adjoint(JORDAN2)
        assert kn.is_member(TK.TRIANGLE, b, JORDAN2, mc.eye(2), 3, P)
        assert not kn.is_member(TK.TRIANGLE, b, JORDAN2, mc.eye(2), 2, P)

    def test_adjoint_membership(self):
        rng = rng_for(3, 103)
        a = _cgauss(rng, 3)
        assert kn.is_member(TK.DELTA, a, a, mc.eye(3), 2, P)
        h = (a + mc.adjoint(a)) / 2
        assert kn.is_member(TK.DELTA, mc.adjoint(h), h, mc.eye(3), 1, P)
        assert not kn.is_member(TK.DELTA, mc.adjoint(E12), E12, mc.eye(2), 2, P)


class TestMinimalOrder:
    def test_jordan_delta_order_three(self):
        res = kn.minimal_order(TK.DELTA, mc.adjoint(JORDAN2), JORDAN2, mc.eye(2), 5, P)
        assert res.member and res.minimal_order == 3

    def test_jordan_triangle_order_three(self):
        res = kn.minimal_order(TK.TRIANGLE, mc.adjoint(JORDAN2), JORDAN2, mc.eye(2), 5, P)
        assert res.member and res.minimal_order == 3

    def test_selfadjoint_order_one(self):
        rng = rng_for(4, 104)
        g = _cgauss(rng, 3)
        h = (g + mc.adjoint(g)) / 2
        res = kn.minimal_order(TK.DELTA, mc.adjoint(h), h, mc.eye(3), 4, P)
        assert res.minimal_order == 1

    def test_nilpotent_never_isometric(self):
        res = kn.minimal_order(TK.TRIANGLE, mc.adjoint(E12), E12, mc.eye(2), 5, P)
        assert not res.member and res.minimal_order is None
        assert all(r > t for r, t in zip(res.residuals, res.thresholds))

    def test_bound_validated(self):
        # by the scan's operand check, before any step
        for kind in TK:
            with pytest.raises(InvalidOrder):
                kn.minimal_order(kind, E12, E12, mc.eye(2), 0, P)

    def test_tolerance_inconsistency_detected(self):
        # weight = exact kernel element plus a tiny component along an
        # expanding direction (defect grows 3x per order); under a flat
        # absolute-only policy the early orders pass and later ones fail,
        # which must surface as an error instead of a bogus minimal order
        a = np.diag([2.0, 0.5]).astype(complex)
        e11 = mc.zeros(2, 2)
        e11[0, 0] = 1.0
        e12 = mc.zeros(2, 2)
        e12[0, 1] = 1.0  # in the kernel: 2 * x * 0.5 - x = 0
        x = e12 + 1e-12 * e11
        flat = mc.NumericPolicy(atol=2e-11, rtol=0.0)
        with pytest.raises(ToleranceInconsistency):
            kn.minimal_order(TK.TRIANGLE, a, a, x, 6, flat)

    @pytest.mark.parametrize("operand", ["B", "A", "X"])
    def test_non_finite_operand_is_parse_error(self, operand):
        ops = {"B": mc.adjoint(JORDAN2), "A": JORDAN2, "X": mc.eye(2), operand: NAN}
        for kind in TK:
            with pytest.raises(ParseError):
                kn.minimal_order(kind, ops["B"], ops["A"], ops["X"], 3, P)

    def test_result_json(self):
        res = kn.minimal_order(TK.DELTA, mc.adjoint(JORDAN2), JORDAN2, mc.eye(2), 4, P)
        doc = res.to_json()
        assert doc["minimal_order"] == 3 and len(doc["residuals"]) == 4


class TestOneThreshold:
    """Every order-m zero threshold is ``defect_threshold`` of the pair's growth."""

    def test_defect_scan_and_kernel_floor_take_defect_threshold(self):
        rng = rng_for(9, 105)
        for kind in TK:
            b, a, x = (_cgauss(rng, 3) for _ in range(3))
            growth = tf.defect_growth(b, a)
            scan = kn.minimal_order(kind, b, a, x, 4, P)
            for k in range(1, 5):
                want = tf.defect_threshold(P, growth, k, mc.frob(x))
                assert tf.defect(kind, b, a, x, k, P)[1] == want
                assert scan.thresholds[k - 1] == want
        # maps that annihilate every weight exactly: the cutoff is the floor
        i3 = mc.eye(3)
        for kind, b, a in ((TK.DELTA, 1.5 * i3, 1.5 * i3), (TK.TRIANGLE, 2 * i3, 0.5 * i3)):
            for m in (1, 3):
                basis = kn.kernel(kind, b, a, m, P)
                assert basis.dim == 9 and not basis.singular_values.any()
                assert basis.cutoff == tf.defect_threshold(P, tf.defect_growth(b, a), m, 1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e100, 1e200])
    def test_overflowing_scale_is_ill_conditioned(self, c):
        # finite operands whose order-2 scale (1 + ||A||^2)^2 overflows
        a = np.array([[c, c], [0, c]], dtype=complex)
        b, x = mc.adjoint(a), mc.eye(2)
        for kind in TK:
            for call in (
                lambda: tf.defect(kind, b, a, x, 2, P),
                lambda: kn.is_member(kind, b, a, x, 2, P),
                lambda: kn.minimal_order(kind, b, a, x, 6, P),
                lambda: kn.kernel(kind, b, a, 2, P),
            ):
                with pytest.raises(IllConditioned):
                    call()
        if c == 1e200:
            # A is not selfadjoint; an order-1 residual and scale of inf passed
            with pytest.raises(IllConditioned):
                kn.is_member(TK.DELTA, b, a, x, 1, P)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_residual_of_finite_operands_is_ill_conditioned(self):
        d = np.diag([1e200, 1.0]).astype(complex)  # B X and X A are both inf
        with pytest.raises(IllConditioned):
            tf.defect(TK.DELTA, d, d, d, 1, P)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_scan_of_overflowing_defect_is_ill_conditioned(self):
        # every threshold of the Drazin pair is finite, but from order 2 on
        # the defect holds A^2 ~ 1e310, which overflows
        a = np.array([[1e155, 1e155], [0, 1e155]], dtype=complex)
        b = dz.resolve_pair(a, dz.PairSelector.DRAZIN, P)
        with pytest.raises(IllConditioned, match="order-2"):
            kn.minimal_order(TK.DELTA, b, a, mc.eye(2), 6, P)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "a",
        [
            np.array([[1e200, 1e200], [0, 0]], dtype=complex),
            np.array([[0, 0], [-1e200 - 1e200j, -1e300 - 1e300j]], dtype=complex),
        ],
        ids=["singular-1e200", "svd-of-overflow"],
    )
    def test_index_of_overflowing_power_is_ill_conditioned(self, a):
        # A^2 has infinite or NaN entries; the search stops before its SVD
        with pytest.raises(IllConditioned):
            dz.index_of(a, P)

    def test_index_of_overflowing_floor_is_rank_zero(self):
        # the powers of 1e100 * J4 stay finite (A^4 = 0), but the floor
        # atol * ||A||^4 overflows even in log space: it lies above every
        # finite singular value of A^4, so that power has rank 0, index 4
        a = 1e100 * np.eye(4, k=1, dtype=complex)
        assert dz.index_of(a, P) == 4
        dd = dz.core_nilpotent_decompose(a, P)
        assert dd.p == 4 and dd.dim_h1 == 0 and not dd.a_d.any()
        # a zero atol has no floor to overflow
        assert dz.index_of(a, mc.NumericPolicy(atol=0.0)) == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_index_of_finite_floor_of_overflowing_magnitude(self):
        # ||A||^2 = 1e314 overflows, but the floor atol * ||A||^2 does not:
        # A^2 = [[1e300, 1e307], [0, 0]] keeps rank 1 above it, so the index
        # is 1, not the 2 an infinite floor would give
        a = np.array([[1e150, 1e157], [0, 0]], dtype=complex)
        with pytest.raises(OverflowError):
            float(np.linalg.norm(a, 2)) ** 2
        assert dz.index_of(a, P) == 1
        dd = dz.core_nilpotent_decompose(a, P)
        assert (dd.p, dd.dim_h1, dd.dim_h2) == (1, 1, 1)
        # the group inverse of [[a, b], [0, 0]] is [[1/a, b/a^2], [0, 0]]
        np.testing.assert_allclose(dd.a_d, [[1e-150, 1e-143], [0, 0]], rtol=1e-12)

    @pytest.mark.parametrize("operand", ["B", "A", "X"])
    def test_non_finite_operand_of_defect_is_parse_error(self, operand):
        ops = {"B": mc.adjoint(JORDAN2), "A": JORDAN2, "X": mc.eye(2), operand: NAN}
        for kind in TK:
            with pytest.raises(ParseError):
                tf.defect(kind, ops["B"], ops["A"], ops["X"], 2, P)
            with pytest.raises(ParseError):
                kn.is_member(kind, ops["B"], ops["A"], ops["X"], 2, P)


# entry moduli from the smallest to the largest normal exponents, both signs
_ENTRY = st.sampled_from(
    [0.0] + [s * 10.0**e for e in (-300, -100, -10, 0, 10, 100, 200, 300) for s in (1, -1)]
)


@st.composite
def _operand(draw, n: int):
    """An n x n operand. From 2 x 2 on, one draw in four is U (C + N) U*
    for a Haar unitary U, an invertible C and a nilpotent N, whose unitary,
    proper core-nilpotent splitting sends ``kernel`` down its split-block
    path; of the other draws, one in four has a NaN or inf entry."""
    if n >= 2 and not draw(st.integers(0, 3)):
        rng = rng_for(draw(st.integers(0, 2**32 - 1)))
        n1 = draw(st.integers(1, n - 1))
        u = random_unitary(n, rng)
        nil = random_nilpotent(n - n1, draw(st.integers(1, n - n1)), rng)
        return u @ mc.block_diag(random_invertible(n1, rng), nil) @ mc.adjoint(u)
    v = draw(st.lists(_ENTRY, min_size=2 * n * n, max_size=2 * n * n))
    if v and not draw(st.integers(0, 3)):
        v[draw(st.integers(0, len(v) - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return np.array(v, dtype=float).view(np.complex128).reshape(n, n)


@st.composite
def _operand_sets(draw):
    """(B, A, X) of up to 4 x 4; B and X mostly take A's size."""
    n = draw(st.integers(0, 4))

    def size():
        return n if draw(st.integers(0, 3)) else draw(st.integers(0, 4))

    return draw(_operand(size())), draw(_operand(n)), draw(_operand(size()))


@st.composite
def _specs(draw):
    """One InstanceSpec per family, at the family's arity, with dims in
    [-1, 5] and orders in [-1, 4]."""
    return [
        InstanceSpec(
            Family(fam),
            tuple(draw(st.lists(st.integers(-1, 5), min_size=nd, max_size=nd))),
            tuple(draw(st.lists(st.integers(-1, 4), min_size=no, max_size=no))),
            draw(st.integers(0, 2**32 - 1)),
        )
        for fam, (nd, no) in _ARITY.items()
    ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    ops=_operand_sets(), kind=st.sampled_from(list(TK)), m=st.integers(0, 5), specs=_specs()
)
def test_only_package_errors_escape_the_numeric_api(ops, kind, m, specs):
    b, a, x = ops
    calls = [
        *(lambda spec=spec: generate(spec, P) for spec in specs),
        lambda: tf.triangle(b, a, x, m),
        lambda: tf.delta(b, a, x, m),
        lambda: tf.transform(kind, b, a, x, m),
        lambda: tf.defect(kind, b, a, x, m, P),
        lambda: kn.is_member(kind, b, a, x, m, P),
        lambda: kn.kernel(kind, b, a, m, P),
        lambda: kn.minimal_order(kind, b, a, x, m, P),
        lambda: dz.index_of(a, P),
        lambda: dz.drazin_inverse(a, P),
        *(lambda sel=sel: dz.resolve_pair(a, sel, P) for sel in dz.PairSelector),
    ]
    try:
        dd = dz.core_nilpotent_decompose(a, P)
    except OpcheckError:
        pass
    else:
        calls += [
            lambda: dz.block_view(x, dd),
            *(lambda sel=sel: kn.kernel(kind, sel.partner(a, dd.a_d), a, m, P, dd)
              for sel in dz.PairSelector),
        ]
    for call in calls:
        try:
            call()
        except OpcheckError:
            pass
