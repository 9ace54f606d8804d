"""Acceptance criteria.

Every criterion runs at desk scale (sizes 2-8, orders 1-4, 200 seeded
trials per suite) with its tolerance pinned here, and prints one PASS line
on success; a failure carries the offending payload in the assertion
message. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math

import numpy as np
import pytest

from opcheck import matcore as mc
from opcheck import transforms as tf
from opcheck.generators import make_remark3_counterexample, rng_for
from opcheck.kernels import minimal_order
from opcheck.suites import SuiteConfig, run_suite

from binomial import binomial_transform

SEED = 20250808
TRIALS = 200
ACCEPT = dict(trials=TRIALS, dim_max=8, order_max=4, seed=SEED)

JORDAN2 = np.array([[1, 1], [0, 1]], dtype=complex)


def _announce(num, text, ok, payload=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}"
    print(line)
    assert ok, f"{line}\n{payload}"


def _run(name):
    return run_suite(SuiteConfig(suite=name, **ACCEPT))


def _cgauss(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)


def test_criterion_01_drazin_axioms():
    rep = _run("drazin_axioms")
    ok = rep.verdict == "pass" and rep.passes == TRIALS and rep.skips == 0
    _announce(
        1,
        "three inverse axioms within 1e-10 + 1e-8*||A||_1^(p+2); "
        f"constructed index recovered on {rep.passes}/{TRIALS} trials",
        ok,
        rep.to_json()["failures"][:3],
    )


def test_criterion_02_transform_equivalence():
    worst = 0.0
    for t in range(TRIALS):
        rng = rng_for(SEED, 900, t)
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 5))
        b, a, x = (_cgauss(rng, n) for _ in range(3))
        for kind in tf.TransformKind:
            gap = mc.frob(tf.transform(kind, b, a, x, m) - binomial_transform(kind, b, a, x, m))
            worst = max(worst, gap / (1e-8 * tf.defect_scale(b, a, x, m)))
    _announce(
        2,
        f"iterated and binomial forms agree on {TRIALS} random instances "
        f"(worst residual at {worst:.2e} of the 1e-8-scaled budget)",
        worst <= 1.0,
    )


def test_criterion_03_self_pair_identity_weight():
    worst = 0.0
    for t in range(TRIALS):
        rng = rng_for(SEED, 901, t)
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 5))
        a = _cgauss(rng, n)
        res = mc.frob(tf.delta(a, a, mc.eye(n), m))
        worst = max(worst, res / tf.defect_threshold(mc.DEFAULT_POLICY, a, a, mc.eye(n), m))
    _announce(
        3,
        f"order-m self-pair defect of the identity vanishes on {TRIALS} random "
        f"matrices (worst at {worst:.2e} of the scaled tolerance)",
        worst <= 1.0,
    )


def test_criterion_04_order_monotonicity():
    rep = _run("prop1")
    inconsistencies = [f for f in rep.failures if f.clause == "tolerance_consistency"]
    ok = rep.verdict == "pass" and not inconsistencies and rep.skips <= TRIALS // 2
    _announce(
        4,
        "order monotonicity (m..m+3) and invertible-pair equivalence on all "
        f"kernel-sampled trials; {len(inconsistencies)} tolerance inconsistencies",
        ok,
        rep.to_json()["failures"][:3],
    )


def test_criterion_05_weight_block_structure():
    rep = _run("thm1")
    ok = rep.verdict == "pass" and rep.skips == 0
    _announce(
        5,
        "kernel weights have off-core blocks below 1e-7 for all four partner "
        "selectors, and each triangle kernel element satisfies the paired "
        "delta identity at order m",
        ok,
        rep.to_json()["failures"][:3],
    )


def test_criterion_06_converse_failure_witness():
    rep = _run("remark3")
    inst = make_remark3_counterexample(rng_for(SEED, 902), mc.DEFAULT_POLICY)
    pos, neg = inst.meta["delta3"], inst.meta["triangle3"]
    separation = neg / max(pos, 1e-300)
    ok = (
        rep.verdict == "pass"
        and pos <= 1e-9
        and neg >= 0.5
        and separation >= 1e6
    )
    _announce(
        6,
        "self-pair kernel carries a nonzero trailing block (converse fails) and "
        f"the constructed witness separates by {separation:.1e} "
        f"(order-3 defects {pos:.1e} vs {neg:.2f})",
        ok,
        rep.to_json()["failures"][:3],
    )


def test_criterion_07_never_left_invertible_by_drazin_partners():
    rep = _run("no_left_m_inv")
    ok = rep.verdict == "pass" and rep.skips == 0
    _announce(
        7,
        "identity-weight triangle defect against both Drazin partners keeps "
        "norm >= sqrt(dim_nil) - 1e-6 on every trial",
        ok,
        rep.to_json()["failures"][:3],
    )


@pytest.mark.parametrize("name", ["prop2", "cor1", "remark1", "thm3", "thm4", "thm5"])
def test_criterion_08_product_sum_perturbation_families(name):
    rep = _run(name)
    ok = rep.verdict == "pass" and rep.skips <= TRIALS // 2
    _announce(
        8,
        f"suite {name}: conclusion residuals below scaled tolerance on every "
        f"non-skipped trial (skips {rep.skips}/{TRIALS})",
        ok,
        rep.to_json()["failures"][:3],
    )


def test_criterion_09_dense_range_weight_forces_selfadjoint_order():
    rep = _run("thm2")
    ok = rep.verdict == "pass" and rep.skips <= TRIALS // 2
    _announce(
        9,
        "invertible commuting core weight forces the order-(m+2p-2) "
        "selfadjointness identity (and order 2p-1 when m = 2)",
        ok,
        rep.to_json()["failures"][:3],
    )


def test_criterion_10_fixed_fixture():
    ident = mc.eye(2)
    tri2 = tf.triangle(mc.adjoint(JORDAN2), JORDAN2, ident, 2)
    del2 = tf.delta(mc.adjoint(JORDAN2), JORDAN2, ident, 2)
    tri_gap = mc.frob(tri2 - np.array([[0, 0], [0, 2]]))
    del_gap = mc.frob(del2 - np.array([[0, 0], [0, -2]]))
    iso = minimal_order(tf.TransformKind.TRIANGLE, mc.adjoint(JORDAN2), JORDAN2, ident, 6)
    sadj = minimal_order(tf.TransformKind.DELTA, mc.adjoint(JORDAN2), JORDAN2, ident, 6)
    ok = (
        iso.minimal_order == 3
        and sadj.minimal_order == 3
        and tri_gap <= 1e-12
        and del_gap <= 1e-12
    )
    _announce(
        10,
        "the 2x2 unit Jordan block is exactly order-3 isometric and order-3 "
        f"selfadjoint (defect gaps {tri_gap:.1e}, {del_gap:.1e})",
        ok,
    )
