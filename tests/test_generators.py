"""Tests for the seeded instance generators: determinism, exactness of the
structural guarantees, self-certification, and the dispatch surface."""

import numpy as np
import pytest

import opcheck.generators as gen
from opcheck import matcore as mc
from opcheck import transforms as tf
from opcheck.drazin import core_nilpotent_decompose, drazin_inverse, index_of
from opcheck.errors import InvalidOrder
from opcheck.generators import (
    Family,
    GeneratedInstance,
    InstanceSpec,
    generate,
    make_ab_zero_pair,
    make_commuting_core_weight,
    make_commuting_quadruple,
    make_disjoint_quadruple,
    make_drazin_block,
    make_nilpotent_perturbation,
    make_product_pairs,
    make_remark3_counterexample,
    make_scalar_plus_nilpotent,
    random_invertible,
    random_nilpotent,
    random_unitary,
    rng_for,
)

P = mc.DEFAULT_POLICY


def test_rng_streams_are_reproducible_and_distinct():
    a = rng_for(42, 3, 7).standard_normal(4)
    b = rng_for(42, 3, 7).standard_normal(4)
    c = rng_for(42, 3, 8).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


class TestRandomUnitary:
    def test_unitarity(self):
        for n in range(1, 9):
            u = random_unitary(n, rng_for(0, n))
            assert mc.frob(mc.adjoint(u) @ u - mc.eye(n)) <= 1e-12

    def test_scalar_case_modulus_one(self):
        u = random_unitary(1, rng_for(1, 1))
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-14

    def test_determinism(self):
        np.testing.assert_array_equal(
            random_unitary(5, rng_for(9, 0)), random_unitary(5, rng_for(9, 0))
        )


class TestRandomNilpotent:
    def test_exact_order(self):
        for seed, (n, q) in enumerate([(2, 2), (4, 2), (5, 3), (6, 4), (8, 4)]):
            nil = random_nilpotent(n, q, rng_for(seed, 20))
            assert mc.frob(mc.power(nil, q)) == 0.0  # structural, not rounded
            assert mc.frob(mc.power(nil, q - 1)) > 1e-3

    def test_order_one_is_zero(self):
        np.testing.assert_array_equal(random_nilpotent(3, 1, rng_for(0, 21)), mc.zeros(3, 3))

    def test_strictly_upper_triangular(self):
        nil = random_nilpotent(6, 3, rng_for(1, 22))
        assert np.allclose(np.tril(nil), 0)

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidOrder):
            random_nilpotent(3, 4, rng_for(0, 23))
        with pytest.raises(InvalidOrder):
            random_nilpotent(3, 0, rng_for(0, 23))


class TestRandomInvertible:
    def test_real_spectrum(self):
        a = random_invertible(5, rng_for(2, 30), "real")
        eig = np.linalg.eigvals(a)
        assert np.abs(eig.imag).max() <= 1e-8
        assert np.abs(eig).min() >= 0.4

    def test_reciprocal_pairs(self):
        a = random_invertible(6, rng_for(3, 31), "reciprocal")
        eig = sorted(np.linalg.eigvals(a).real)
        prods = sorted(abs(e) for e in eig)
        # each magnitude t pairs with 1/t
        for lo, hi in zip(prods[:3], reversed(prods[3:])):
            assert abs(lo * hi - 1.0) <= 1e-8

    def test_selfadjoint(self):
        a = random_invertible(4, rng_for(4, 32), "selfadjoint")
        assert mc.frob(a - mc.adjoint(a)) <= 1e-12

    def test_signs_is_involution(self):
        a = random_invertible(4, rng_for(5, 33), "signs")
        assert mc.frob(a @ a - mc.eye(4)) <= 1e-12

    def test_unitary(self):
        a = random_invertible(4, rng_for(6, 34), "unitary")
        assert mc.frob(mc.adjoint(a) @ a - mc.eye(4)) <= 1e-12

    def test_generic_well_conditioned_spectrum(self):
        for seed in range(10):
            a = random_invertible(6, rng_for(seed, 35), "generic")
            assert np.abs(np.linalg.eigvals(a)).min() >= 0.5
            assert mc.condition(a) <= 100

    def test_unknown_spectrum(self):
        with pytest.raises(ValueError):
            random_invertible(3, rng_for(0, 36), "bogus")


class TestDrazinBlock:
    def test_certified_index(self):
        inst = make_drazin_block(2, 3, 2, rng_for(0, 40), P, conjugate=True)
        a = inst.matrices["A"]
        assert index_of(a, P) == 2
        assert dict(inst.certified)["index"] == 0.0

    def test_invertible_case(self):
        inst = make_drazin_block(3, 0, 0, rng_for(1, 41), P)
        assert index_of(inst.matrices["A"], P) == 0

    def test_pure_nilpotent_case(self):
        inst = make_drazin_block(0, 3, 3, rng_for(2, 42), P, conjugate=True)
        assert index_of(inst.matrices["A"], P) == 3
        assert mc.frob(drazin_inverse(inst.matrices["A"], P)) <= 1e-10

    def test_rejects_inconsistent_order(self):
        with pytest.raises(InvalidOrder):
            make_drazin_block(2, 0, 1, rng_for(0, 43), P)
        with pytest.raises(InvalidOrder):
            make_drazin_block(2, 2, 3, rng_for(0, 43), P)


class TestAbZeroPair:
    def test_exact_annihilation(self):
        inst = make_ab_zero_pair(2, 4, rng_for(0, 50), P)
        a, b = inst.matrices["A"], inst.matrices["B"]
        assert mc.frob(a @ b) == 0.0 and mc.frob(b @ a) == 0.0

    def test_conjugated_annihilation_within_rounding(self):
        inst = make_ab_zero_pair(2, 4, rng_for(1, 51), P, conjugate=True)
        a, b = inst.matrices["A"], inst.matrices["B"]
        assert mc.frob(a @ b) <= 1e-10 and mc.frob(a @ b - b @ a) <= 1e-10

    def test_invertible_tail_gives_b_a_core(self):
        inst = make_ab_zero_pair(2, 5, rng_for(2, 52), P, invertible_tail=True)
        b = inst.matrices["B"]
        assert mc.frob(drazin_inverse(b, P)) > 1e-3  # nonzero core survives

    def test_requires_room_in_nil_part(self):
        with pytest.raises(InvalidOrder):
            make_ab_zero_pair(2, 1, rng_for(0, 53), P)


class TestScalarPlusNilpotent:
    def test_real_scalar_selfadjoint_order(self):
        inst = make_scalar_plus_nilpotent(3, 2, 1.0, rng_for(0, 60), P)
        a = inst.matrices["A"]
        assert mc.frob(tf.delta(mc.adjoint(a), a, mc.eye(3), 3)) <= 1e-10

    def test_unimodular_scalar_isometry_order(self):
        s = np.exp(0.43j)
        inst = make_scalar_plus_nilpotent(3, 2, s, rng_for(1, 61), P)
        a = inst.matrices["A"]
        assert mc.frob(tf.triangle(mc.adjoint(a), a, mc.eye(3), 3)) <= 1e-10

    def test_plus_minus_one_certifies_both(self):
        inst = make_scalar_plus_nilpotent(2, 2, -1.0, rng_for(2, 62), P)
        names = [name for name, _ in inst.certified]
        assert "selfadjoint_defect" in names and "isometry_defect" in names


def test_counterexample_instance():
    inst = make_remark3_counterexample(rng_for(0, 70), P)
    assert inst.meta["delta3"] <= 1e-9
    assert inst.meta["triangle3"] >= 0.5
    a, x = inst.matrices["A"], inst.matrices["X"]
    assert mc.frob(tf.delta(mc.adjoint(a), a, x, 3)) <= 1e-9


def test_commuting_core_weight_hypotheses():
    inst = make_commuting_core_weight(rng_for(0, 80), P, n1=3, n2=2, p=2, m=2)
    a, x = inst.matrices["A"], inst.matrices["X"]
    a_d = drazin_inverse(a, P)
    assert mc.frob(tf.triangle(mc.adjoint(a_d), a, x, 2)) <= 1e-8
    assert mc.frob(a @ x - x @ a) <= 1e-10
    assert mc.rank(inst.matrices["X11"], P) == 3


class TestQuadruples:
    def test_commuting_quadruple_certifications(self):
        inst = make_commuting_quadruple(
            rng_for(0, 90), P, flavor="triangle-drazin", dims=(2, 2, 1, 1), qa=2, qb=1
        )
        names = dict(inst.certified)
        assert names["commutator_AB"] <= 1e-10
        assert names["defect_A_X"] <= 1e-8
        assert inst.meta["xy_norm"] > 0.01

    def test_delta_flavor(self):
        inst = make_commuting_quadruple(
            rng_for(1, 91), P, flavor="delta", dims=(3, 2, 0, 0), qa=2, qb=1
        )
        a, x = inst.matrices["A"], inst.matrices["X"]
        m = inst.meta["m"]
        assert mc.frob(tf.delta(mc.adjoint(a), a, x, m)) <= 1e-8

    def test_shared_weight(self):
        inst = make_commuting_quadruple(
            rng_for(2, 92), P, flavor="delta", dims=(2, 2, 1, 0), qa=2, qb=2,
            shared_weight=True,
        )
        np.testing.assert_array_equal(inst.matrices["X"], inst.matrices["Y"])

    def test_disjoint_quadruple_ab_zero(self):
        inst = make_disjoint_quadruple(
            rng_for(3, 93), P, flavor="triangle-adjoint", dims=(2, 1, 2, 1), qa=2, qb=1,
            m=3, n=1,
        )
        a, b = inst.matrices["A"], inst.matrices["B"]
        assert mc.frob(a @ b) <= 1e-10
        assert inst.meta["xy_norm"] <= 1e-12  # weights live on disjoint cores

    def test_disjoint_quadruple_hands_over_its_decomposition(self):
        inst = make_disjoint_quadruple(
            rng_for(3, 95), P, flavor="triangle-drazin", dims=(2, 1, 2, 1), qa=2, qb=1,
            m=3, n=1,
        )
        a = inst.matrices["A"]
        np.testing.assert_array_equal(inst.drazin["A"].a_d, drazin_inverse(a, P))
        assert "drazin" not in inst.to_json() and "drazin" not in inst.to_json()["meta"]

    def test_nilpotent_perturbation_placements(self):
        for placement, qa in (("disjoint", 1), ("power", 3)):
            inst = make_nilpotent_perturbation(
                rng_for(4, 94), P, flavor="delta", na=3, nb=2, qa=qa, m=2 * qa - 1,
                nil_placement=placement,
            )
            a, nmat = inst.matrices["A"], inst.matrices["N"]
            assert mc.frob(a @ nmat - nmat @ a) <= 1e-10
            assert mc.frob(mc.power(nmat, inst.meta["q"])) <= 1e-10

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: make_disjoint_quadruple(rng_for(0), P, qa=3, m=1, n=1), InvalidOrder),
            (lambda: make_disjoint_quadruple(rng_for(0), P, flavor="delta", m=1, n=1), ValueError),
            (lambda: make_nilpotent_perturbation(rng_for(0), P, qa=3, m=1), InvalidOrder),
            (lambda: make_nilpotent_perturbation(rng_for(0), P, flavor="x", m=1), ValueError),
            (lambda: make_nilpotent_perturbation(rng_for(0), P, m=1, nil_placement="x"),
             ValueError),
            (lambda: make_nilpotent_perturbation(rng_for(0), P, m=1, nil_placement="power"),
             InvalidOrder),
            (lambda: make_nilpotent_perturbation(rng_for(0), P, nb=0, m=1), InvalidOrder),
            (lambda: make_product_pairs(rng_for(0), P, qa=3, m1=1, m2=1), InvalidOrder),
            (lambda: make_product_pairs(rng_for(0), P, families=("adjoint", "x"), m1=1, m2=1),
             ValueError),
            (lambda: make_commuting_core_weight(rng_for(0), P, n1=1, n2=2, p=3, m=1),
             InvalidOrder),
        ],
        ids=["disjoint-order", "disjoint-flavor", "perturbation-order", "perturbation-flavor",
             "perturbation-placement", "perturbation-power-needs-nilpotent",
             "perturbation-disjoint-needs-block", "pairs-order", "pairs-family",
             "core-weight-index"],
    )
    def test_builder_rejects_bad_arguments(self, build, error):
        with pytest.raises(error):
            build()

    def test_product_pairs_families(self):
        for fams in (("adjoint", "adjoint"), ("inverse", "adjoint")):
            inst = make_product_pairs(
                rng_for(5, 95), P, families=fams, na=2, nb=2, qa=2, qb=1, m1=3, m2=1
            )
            certs = dict(inst.certified)
            assert certs["defect_pair1"] <= 1e-8
            assert certs["commutator_A1A2"] <= 1e-10


_HANDED_OVER = {
    "drazin-block": (lambda: make_drazin_block(2, 3, 2, rng_for(6, 96), P, conjugate=True), "A"),
    "commuting-core-weight": (
        lambda: make_commuting_core_weight(rng_for(6, 97), P, n1=2, n2=3, p=2, m=2),
        "A",
    ),
    "ab-zero-A": (
        lambda: make_ab_zero_pair(2, 4, rng_for(6, 98), P, invertible_tail=True, conjugate=True),
        "A",
    ),
    "ab-zero-B": (
        lambda: make_ab_zero_pair(2, 4, rng_for(6, 98), P, invertible_tail=True, conjugate=True),
        "B",
    ),
    "nilpotent": (lambda: generate(InstanceSpec(Family.NILPOTENT, (4,), (3,), 19), P), "A"),
    "remark3": (lambda: make_remark3_counterexample(rng_for(6, 99), P), "A"),
}


@pytest.mark.parametrize("build, name", _HANDED_OVER.values(), ids=_HANDED_OVER.keys())
def test_builder_hands_over_the_decomposition_it_certified_with(build, name):
    inst = build()
    got, fresh = inst.drazin[name], core_nilpotent_decompose(inst.matrices[name], P)
    for f in ("p", "dim_h1", "dim_h2", "cond_s"):
        assert getattr(got, f) == getattr(fresh, f), f
    for f in ("a_d", "s", "s_inv", "a1", "a2"):
        np.testing.assert_array_equal(getattr(got, f), getattr(fresh, f), err_msg=f)


class TestGenerateDispatch:
    @pytest.mark.parametrize(
        "spec",
        [
            InstanceSpec(Family.UNITARY, (4,), (), 11),
            InstanceSpec(Family.NILPOTENT, (4,), (3,), 12),
            InstanceSpec(Family.INVERTIBLE, (3,), (), 13),
            InstanceSpec(Family.DRAZIN_BLOCK, (2, 2), (2,), 14),
            InstanceSpec(Family.AB_ZERO, (2, 4), (2, 2), 15),
            InstanceSpec(Family.HYPOTHESIS1, (2, 2, 1, 1), (2, 1), 16),
            InstanceSpec(Family.REMARK3, (), (), 17),
            InstanceSpec(Family.SCALAR_PLUS_NILPOTENT, (3,), (2,), 18),
        ],
    )
    def test_families_generate_and_certify(self, spec):
        import json

        inst = generate(spec, P)
        assert isinstance(inst, GeneratedInstance)
        assert inst.matrices
        doc = inst.to_json()
        assert doc["family"] == spec.family.value
        assert all("residual" in c for c in doc["certified"])
        json.dumps(doc)  # the whole document must be JSON-encodable

    def test_determinism_bitwise(self):
        spec = InstanceSpec(Family.DRAZIN_BLOCK, (2, 3), (2,), 123456789)
        a1 = generate(spec, P).matrices["A"]
        a2 = generate(spec, P).matrices["A"]
        np.testing.assert_array_equal(a1, a2)

    def test_seed_changes_instance(self):
        base = InstanceSpec(Family.DRAZIN_BLOCK, (2, 3), (2,), 1)
        other = InstanceSpec(Family.DRAZIN_BLOCK, (2, 3), (2,), 2)
        assert not np.array_equal(generate(base, P).matrices["A"], generate(other, P).matrices["A"])

    @pytest.mark.parametrize(
        "family, dims, orders",
        [
            (Family.UNITARY, (-1,), ()),
            (Family.NILPOTENT, (-2,), (1,)),
            (Family.REMARK3, (-1,), ()),
            (Family.DRAZIN_BLOCK, (2, -1), (1,)),
        ],
    )
    def test_negative_dim_rejected_before_any_draw(self, family, dims, orders, monkeypatch):
        def no_draws(*args):
            raise AssertionError("generate drew before checking its dims")

        monkeypatch.setattr(gen, "rng_for", no_draws)
        with pytest.raises(InvalidOrder):
            generate(InstanceSpec(family, dims, orders, 0), P)

    def test_bad_arity_rejected(self):
        with pytest.raises(InvalidOrder):
            generate(InstanceSpec(Family.UNITARY, (3,), (1,), 0), P)
        with pytest.raises(InvalidOrder):
            generate(InstanceSpec(Family.DRAZIN_BLOCK, (2,), (1,), 0), P)
