"""Wrong-theorem mutants: a green harness means something only if a wrong
theorem turns it red.

Each mutant is applied with monkeypatch and must make ``run_suite`` fail at
a small fixed budget. A suite that a mutant cannot fail stays listed as a
strict xfail, a known gap, so that it shows until the suite is mended.
"""

import pytest

from opcheck import suites, transforms
from opcheck.suites import SuiteConfig, run_suite

# the golden report's budget, at which every suite passes unmutated
BUDGET = {"trials": 50, "dim_max": 6, "seed": 0}

# make_disjoint_quadruple puts X on A's core block and Y on B's, and with
# AB = BA = 0 the certified hypotheses force XY = 0: the sum theorems'
# defect is then 0 at every order, and no order mutant can show
XY_ZERO = "XY = 0 in every thm4/thm5 trial, so their defect vanishes at any order"

CAUGHT = ["prop2", "cor1", "thm2", "thm3", "remark1"]
GAPS = ["thm4", "thm5"]


def _lowered_defect(kind, b, a, x, m, policy):
    """The defect one order below the one asked for; an order of 1 stays 1."""
    return transforms.defect(kind, b, a, x, max(1, m - 1), policy)


@pytest.mark.parametrize(
    "suite",
    CAUGHT + [pytest.param(s, marks=pytest.mark.xfail(strict=True, reason=XY_ZERO)) for s in GAPS],
)
def test_conclusion_one_order_lower_fails_the_suite(monkeypatch, suite):
    monkeypatch.setattr(suites, "defect", _lowered_defect)
    report = run_suite(SuiteConfig(suite, **BUDGET))
    # a conclusion failed in some trial, not the skip budget
    assert any(f.trial >= 0 for f in report.failures)
