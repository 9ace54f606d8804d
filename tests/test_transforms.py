"""Tests for the weighted transforms: frozen small cases plus a check of
the one-step iteration against the binomial-sum oracle."""

import math

import numpy as np
import pytest

from opcheck import kernels as kn
from opcheck import matcore as mc
from opcheck import transforms as tf
from opcheck.errors import DimensionMismatch, ParseError

from binomial import binomial_transform

P = mc.DEFAULT_POLICY
JORDAN2 = np.array([[1, 1], [0, 1]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
I2 = mc.eye(2)


def _cgauss(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)


def test_triangle_identity_pair_vanishes():
    rng = np.random.default_rng(0)
    for m in (1, 2, 5):
        x = _cgauss(rng, 3)
        # exact zero in exact arithmetic
        assert mc.frob(tf.triangle(mc.eye(3), mc.eye(3), x, m)) <= 2.0**m * 1e-14


def test_triangle_jordan_order2():
    out = tf.triangle(mc.adjoint(JORDAN2), JORDAN2, I2, 2)
    np.testing.assert_allclose(out, [[0, 0], [0, 2]], atol=1e-14)


def test_triangle_jordan_order3_vanishes():
    out = tf.triangle(mc.adjoint(JORDAN2), JORDAN2, I2, 3)
    np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-13)


def test_delta_self_pair_identity_weight():
    rng = np.random.default_rng(1)
    for m in (1, 2, 3, 4):
        a = _cgauss(rng, 4)
        d = tf.delta(a, a, mc.eye(4), m)
        assert mc.frob(d) <= tf.defect_threshold(P, tf.defect_growth(a, a), m, mc.frob(mc.eye(4)))


def test_delta_e12_order2():
    out = tf.delta(mc.adjoint(E12), E12, I2, 2)
    np.testing.assert_allclose(out, [[0, 0], [0, -2]], atol=1e-14)


def test_delta_jordan_order3_vanishes():
    out = tf.delta(mc.adjoint(JORDAN2), JORDAN2, I2, 3)
    np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-13)


def test_one_step_definitions():
    rng = np.random.default_rng(2)
    b, a, x = (_cgauss(rng, 3) for _ in range(3))
    np.testing.assert_allclose(tf.triangle(b, a, x, 1), b @ x @ a - x, atol=1e-14)
    np.testing.assert_allclose(tf.delta(b, a, x, 1), b @ x - x @ a, atol=1e-14)


def test_binomial_matches_iterated_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 6))
        b, a, x = (_cgauss(rng, n) for _ in range(3))
        for kind in tf.TransformKind:
            stepped = tf.transform(kind, b, a, x, m)
            direct = binomial_transform(kind, b, a, x, m)
            tol = P.rtol * (tf.defect_growth(b, a) ** m * mc.frob(x))
            assert mc.frob(direct - stepped) <= max(tol, 1e-12)


def test_linearity_in_weight():
    rng = np.random.default_rng(4)
    for kind in tf.TransformKind:
        b, a = _cgauss(rng, 4), _cgauss(rng, 4)
        x, y = _cgauss(rng, 4), _cgauss(rng, 4)
        alpha, beta = 1.7 - 0.3j, -0.2 + 2.1j
        lhs = tf.transform(kind, b, a, alpha * x + beta * y, 3)
        rhs = alpha * tf.transform(kind, b, a, x, 3) + beta * tf.transform(kind, b, a, y, 3)
        assert mc.frob(lhs - rhs) <= 1e-10 * (1 + mc.frob(lhs))


def test_composition_across_orders():
    rng = np.random.default_rng(5)
    for kind in tf.TransformKind:
        b, a, x = (_cgauss(rng, 3) for _ in range(3))
        for m, n in ((1, 3), (2, 5), (3, 4)):
            inner = tf.transform(kind, b, a, x, m)
            lhs = tf.transform(kind, b, a, inner, n - m)
            rhs = tf.transform(kind, b, a, x, n)
            assert mc.frob(lhs - rhs) <= P.rtol * (tf.defect_growth(b, a) ** n * mc.frob(x))


def test_isometry_defect_unitary():
    theta = 0.813
    u = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]],
        dtype=complex,
    )
    assert mc.frob(tf.triangle(mc.adjoint(u), u, I2, 1)) <= 1e-14


def test_isometry_defect_scalar_case():
    out = tf.triangle(mc.adjoint(2 * mc.eye(1)), 2 * mc.eye(1), mc.eye(1), 1)
    np.testing.assert_allclose(out, [[3]], atol=1e-14)


def test_isometry_defect_jordan_order3():
    assert mc.frob(tf.triangle(mc.adjoint(JORDAN2), JORDAN2, I2, 3)) <= 1e-13


def test_selfadjoint_defect_selfadjoint_input():
    rng = np.random.default_rng(6)
    g = _cgauss(rng, 3)
    h = (g + mc.adjoint(g)) / 2
    assert mc.frob(tf.delta(mc.adjoint(h), h, mc.eye(3), 1)) <= 1e-13


def test_selfadjoint_defect_e12_order1():
    out = tf.delta(mc.adjoint(E12), E12, I2, 1)
    np.testing.assert_allclose(out, [[0, -1], [1, 0]], atol=1e-14)


def test_selfadjoint_defect_jordan_order3():
    assert mc.frob(tf.delta(mc.adjoint(JORDAN2), JORDAN2, I2, 3)) <= 1e-13


def test_defect_is_residual_and_threshold_of_one_operand_set():
    rng = np.random.default_rng(7)
    for kind in tf.TransformKind:
        for m in (1, 2, 4):
            b, a, x = (_cgauss(rng, 3) for _ in range(3))
            res, thr = tf.defect(kind, b, a, x, m, P)
            assert res == mc.frob(tf.transform(kind, b, a, x, m))
            assert thr == tf.defect_threshold(P, tf.defect_growth(b, a), m, mc.frob(x))


def test_is_member_agrees_with_defect():
    rng = np.random.default_rng(8)
    h = _cgauss(rng, 3)
    h = h + mc.adjoint(h)
    cases = [
        (tf.TransformKind.TRIANGLE, mc.adjoint(JORDAN2), JORDAN2, I2, m) for m in (2, 3)
    ] + [
        (tf.TransformKind.DELTA, mc.adjoint(E12), E12, I2, m) for m in (1, 2, 3)
    ] + [
        (tf.TransformKind.DELTA, mc.adjoint(h), h, mc.eye(3), 1),
        (tf.TransformKind.TRIANGLE, *(_cgauss(rng, 3) for _ in range(3)), 2),
    ]
    verdicts = []
    for kind, b, a, x, m in cases:
        res, thr = tf.defect(kind, b, a, x, m, P)
        assert kn.is_member(kind, b, a, x, m, P) == (res <= thr)
        verdicts.append(res <= thr)
    assert any(verdicts) and not all(verdicts)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        tf.triangle(mc.eye(2), mc.eye(3), mc.eye(3), 1)
    with pytest.raises(DimensionMismatch):
        tf.delta(mc.eye(3), mc.eye(3), mc.eye(2), 1)


def test_order_must_be_positive():
    with pytest.raises(ValueError):
        tf.triangle(I2, I2, I2, 0)
    with pytest.raises(ValueError):
        tf.delta(I2, I2, I2, 0)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("operand", ["B", "A", "X"])
def test_non_finite_operand_is_parse_error(operand, value):
    ops = {"B": mc.adjoint(JORDAN2), "A": JORDAN2, "X": I2}
    ops[operand] = np.array([[value, 1], [0, 1]], dtype=complex)
    calls = [tf.triangle, tf.delta] + [
        lambda b, a, x, m, kind=kind: tf.transform(kind, b, a, x, m) for kind in tf.TransformKind
    ]
    for call in calls:
        with pytest.raises(ParseError):
            call(ops["B"], ops["A"], ops["X"], 1)
