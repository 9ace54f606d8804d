"""Wrong-theorem mutants: a green harness means something only if a wrong
theorem turns it red.

Each mutant is applied with monkeypatch and must make ``run_suite`` fail at
a small fixed budget. A suite that a mutant cannot fail stays listed as a
strict xfail, a known gap, so that it shows until the suite is mended.
"""

import dataclasses

import pytest

from opcheck import drazin, generators, suites, transforms
from opcheck.drazin import PairSelector
from opcheck.suites import SuiteConfig, run_suite

# the golden report's budget, at which every suite passes unmutated
BUDGET = {"trials": 50, "dim_max": 6, "seed": 0}

# make_disjoint_quadruple puts X on A's core block and Y on B's, and with
# AB = BA = 0 the certified hypotheses force XY = 0: the sum theorems'
# defect is then 0 at every order, and no order mutant can show
XY_ZERO = "XY = 0 in every thm4/thm5 trial, so their defect vanishes at any order"

CAUGHT = ["prop2", "cor1", "thm2", "thm3", "remark1"]
GAPS = ["thm4", "thm5"]

# the suites whose generators or clauses read A_d; prop2 and cor1 never do
DRAZIN_CAUGHT = ["drazin_axioms", "thm1", "thm4"]
DRAZIN_GAPS = ["prop1", "remark1", "remark2", "no_left_m_inv", "remark3", "thm2", "thm3", "thm5"]
DRAZIN_BLIND = (
    "the suite reads A_d, but no clause is tight enough to see a relative error of 1e-6; "
    "at most some trials fail certification and skip"
)


def _fails(suite):
    report = run_suite(SuiteConfig(suite, **BUDGET))
    # a conclusion failed in some trial, not the skip budget
    return any(f.trial >= 0 for f in report.failures)


def _lowered_defect(kind, b, a, x, m, policy):
    """The defect one order below the one asked for; an order of 1 stays 1."""
    return transforms.defect(kind, b, a, x, max(1, m - 1), policy)


@pytest.mark.parametrize(
    "suite",
    CAUGHT + [pytest.param(s, marks=pytest.mark.xfail(strict=True, reason=XY_ZERO)) for s in GAPS],
)
def test_conclusion_one_order_lower_fails_the_suite(monkeypatch, suite):
    monkeypatch.setattr(suites, "defect", _lowered_defect)
    assert _fails(suite)


@pytest.mark.parametrize(
    "suite",
    DRAZIN_CAUGHT
    + [pytest.param(s, marks=pytest.mark.xfail(strict=True, reason=DRAZIN_BLIND)) for s in DRAZIN_GAPS],
)
def test_drazin_inverse_off_by_one_part_in_a_million_fails_the_suite(monkeypatch, suite):
    exact = drazin.core_nilpotent_decompose

    def off(a, policy=drazin.DEFAULT_POLICY):
        dd = exact(a, policy)
        return dataclasses.replace(dd, a_d=dd.a_d * (1 + 1e-6))

    # every module that binds the decomposition: drazin's own for
    # resolve_pair and drazin_inverse, and the generators' and the suites'
    for module in (drazin, generators, suites):
        monkeypatch.setattr(module, "core_nilpotent_decompose", off)
    assert _fails(suite)


def test_swapped_partner_fails_thm1(monkeypatch):
    # thm1 is the only reader of the partner map: the triangle kernel of each
    # pair (B, A) must lie in the delta kernel of (C, A), C the partner of B
    sel = PairSelector
    swapped = {
        sel.SELF: sel.DRAZIN_ADJOINT,
        sel.DRAZIN_ADJOINT: sel.SELF,
        sel.ADJOINT: sel.DRAZIN,
        sel.DRAZIN: sel.ADJOINT,
    }
    monkeypatch.setattr(suites, "_PARTNER", swapped)
    assert _fails("thm1")
