"""Golden report: the harness's outcome per suite, pinned.

The fixture was recorded at seed 0, 50 trials per suite and ``dim_max`` 6.
Verdict, passes, skips, generation failures and the anomaly count must
match exactly; ``max_ratio`` (worst residual over its threshold) may move
with rounding but not grow past twice its recorded value.
"""

import json
from pathlib import Path

import pytest

from opcheck.suites import SuiteConfig, available_suites, run_suite

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_report.json").read_text())


def test_fixture_covers_every_suite():
    assert sorted(GOLDEN["suites"]) == sorted(available_suites())


@pytest.mark.parametrize("name", sorted(GOLDEN["suites"]))
def test_suite_matches_golden_report(name):
    want = GOLDEN["suites"][name]
    rep = run_suite(SuiteConfig(suite=name, **GOLDEN["config"]))
    got = {
        "verdict": rep.verdict,
        "passes": rep.passes,
        "skips": rep.skips,
        "generation_failures": rep.generation_failures,
        "anomalies": len(rep.anomalies),
    }
    assert got == {k: want[k] for k in got}
    assert rep.max_ratio <= 2.0 * want["max_ratio"]
