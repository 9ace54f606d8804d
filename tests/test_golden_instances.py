"""Golden instances: every generator's output, pinned bit for bit.

For each ``make_*`` builder (at the argument sets the generator tests use)
and each ``generate`` family, the fixture holds the sha256 of every matrix's
bytes, the ``certified`` list, the meta and every certification check the
builder evaluated (name, residual, threshold, in order, failed attempts
included). Streams, residuals and thresholds must all stay exactly as
recorded; ``test_golden`` pins only the harness outcome.

Re-record with ``PYTHONPATH=src python tests/test_golden_instances.py``,
which names every case whose entry changed and counts the unchanged ones.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from opcheck import generators as gen
from opcheck.generators import Family, InstanceSpec, rng_for
from opcheck.matcore import DEFAULT_POLICY as P

FIXTURE = Path(__file__).parent / "data" / "golden_instances.json"
_CERTIFY = gen._certify

_PLACEMENTS = (("disjoint", 1), ("power", 3))

CASES = {
    "drazin_block_2_3_2": lambda: gen.make_drazin_block(2, 3, 2, rng_for(0, 40), P, conjugate=True),
    "drazin_block_3_0_0": lambda: gen.make_drazin_block(3, 0, 0, rng_for(1, 41), P),
    "drazin_block_0_3_3": lambda: gen.make_drazin_block(0, 3, 3, rng_for(2, 42), P, conjugate=True),
    **{
        f"drazin_block_{spectrum}": (
            lambda spectrum=spectrum, lane=lane: gen.make_drazin_block(
                3, 2, 2, rng_for(lane, 43), P, spectrum=spectrum
            )
        )
        for lane, spectrum in enumerate(("unitary", "signs", "selfadjoint", "real", "reciprocal"))
    },
    "ab_zero_plain": lambda: gen.make_ab_zero_pair(2, 4, rng_for(0, 50), P),
    "ab_zero_conjugate": lambda: gen.make_ab_zero_pair(2, 4, rng_for(1, 51), P, conjugate=True),
    "ab_zero_tail": lambda: gen.make_ab_zero_pair(2, 5, rng_for(2, 52), P, invertible_tail=True),
    "scalar_plus_nil_real": lambda: gen.make_scalar_plus_nilpotent(3, 2, 1.0, rng_for(0, 60), P),
    "scalar_plus_nil_unimodular": lambda: gen.make_scalar_plus_nilpotent(
        3, 2, np.exp(0.43j), rng_for(1, 61), P
    ),
    "scalar_plus_nil_minus_one": lambda: gen.make_scalar_plus_nilpotent(2, 2, -1.0, rng_for(2, 62), P),
    "remark3": lambda: gen.make_remark3_counterexample(rng_for(0, 70), P),
    "commuting_core_weight": lambda: gen.make_commuting_core_weight(
        rng_for(0, 80), P, n1=3, n2=2, p=2, m=2
    ),
    "commuting_core_weight_plain": lambda: gen.make_commuting_core_weight(
        rng_for(1, 81), P, n1=3, n2=2, p=2, m=2, conjugate=False
    ),
    "quadruple_triangle_drazin": lambda: gen.make_commuting_quadruple(
        rng_for(0, 90), P, flavor="triangle-drazin", dims=(2, 2, 1, 1), qa=2, qb=1, m=3, n=1
    ),
    "quadruple_delta": lambda: gen.make_commuting_quadruple(
        rng_for(1, 91), P, flavor="delta", dims=(3, 2, 0, 0), qa=2, qb=1, m=3, n=1
    ),
    "quadruple_shared_weight": lambda: gen.make_commuting_quadruple(
        rng_for(2, 92), P, flavor="delta", dims=(2, 2, 1, 0), qa=2, qb=2, m=3, n=3,
        shared_weight=True,
    ),
    "disjoint_triangle_adjoint": lambda: gen.make_disjoint_quadruple(
        rng_for(3, 93), P, flavor="triangle-adjoint", dims=(2, 1, 2, 1), qa=2, qb=1, m=3, n=1
    ),
    "disjoint_triangle_drazin": lambda: gen.make_disjoint_quadruple(
        rng_for(3, 95), P, flavor="triangle-drazin", dims=(2, 1, 2, 1), qa=2, qb=1, m=3, n=1
    ),
    **{
        f"perturbation_{flavor}_{placement}": (
            lambda flavor=flavor, placement=placement, qa=qa: gen.make_nilpotent_perturbation(
                rng_for(4, 94), P, flavor=flavor, na=3, nb=2, qa=qa, m=2 * qa - 1,
                nil_placement=placement,
            )
        )
        for flavor in ("delta", "triangle")
        for placement, qa in _PLACEMENTS
    },
    **{
        f"product_pairs_{f1}_{f2}": (
            lambda fams=(f1, f2): gen.make_product_pairs(
                rng_for(5, 95), P, families=fams, na=2, nb=2, qa=2, qb=1, m1=3, m2=1
            )
        )
        for f1, f2 in (("adjoint", "adjoint"), ("inverse", "adjoint"), ("inverse", "inverse"))
    },
    **{
        f"generate_{spec.family.value}": (lambda spec=spec: gen.generate(spec, P))
        for spec in (
            InstanceSpec(Family.UNITARY, (4,), (), 11),
            InstanceSpec(Family.NILPOTENT, (4,), (3,), 12),
            InstanceSpec(Family.INVERTIBLE, (3,), (), 13),
            InstanceSpec(Family.DRAZIN_BLOCK, (2, 2), (2,), 14),
            InstanceSpec(Family.AB_ZERO, (2, 4), (2, 2), 15),
            InstanceSpec(Family.HYPOTHESIS1, (2, 2, 1, 1), (2, 1), 16),
            InstanceSpec(Family.REMARK3, (), (), 17),
            InstanceSpec(Family.SCALAR_PLUS_NILPOTENT, (3,), (2,), 18),
        )
    },
}


def _digest(mat) -> str:
    mat = np.asarray(mat)
    head = f"{mat.dtype.str}{mat.shape}".encode()
    return hashlib.sha256(head + np.ascontiguousarray(mat).tobytes()).hexdigest()


def _record(build, monkeypatch) -> dict:
    """Run one builder, capturing every check list handed to ``_certify``."""
    checks = []

    def recording(items):
        items = list(items)
        checks.append([[name, float(res), float(thr)] for name, res, thr in items])
        return _CERTIFY(items)

    monkeypatch.setattr(gen, "_certify", recording)
    inst = build()
    doc = inst.to_json()
    return {
        "matrices": {k: _digest(v) for k, v in sorted(inst.matrices.items())},
        "certified": [[name, float(res)] for name, res in inst.certified],
        "meta": doc["meta"],
        "checks": checks,
    }


def _roundtrip(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_instance_matches_golden(name, monkeypatch):
    assert _roundtrip(_record(CASES[name], monkeypatch)) == GOLDEN[name]


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        out = {name: _roundtrip(_record(build, mp)) for name, build in sorted(CASES.items())}
    changed = sorted(name for name in {*GOLDEN, *out} if GOLDEN.get(name) != out.get(name))
    FIXTURE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} instances to {FIXTURE}")
    for name in changed:
        print(f"changed: {name}")
    print(f"unchanged: {sum(GOLDEN.get(name) == doc for name, doc in out.items())}")
