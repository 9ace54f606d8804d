"""Tests for the verification harness: every suite runs green on a small
budget, reports are deterministic, and the bookkeeping rules (skip budget,
generation-failure accounting) behave as documented."""

import json

import pytest

import opcheck.suites as su
from opcheck.errors import GenerationFailed, UnknownSuite
from opcheck.generators import rng_for
from opcheck.suites import SuiteConfig, SuiteReport, available_suites, run_suite

SMALL = dict(trials=25, dim_max=6, order_max=4, seed=20240817)


@pytest.mark.parametrize("name", available_suites())
def test_suite_passes_on_small_budget(name):
    rep = run_suite(SuiteConfig(suite=name, **SMALL))
    assert rep.verdict == "pass", rep.to_json()["failures"]
    assert rep.passes + rep.skips == rep.trials
    assert rep.skips <= rep.trials // 2


def test_reports_are_deterministic():
    cfg = SuiteConfig(suite="thm1", trials=12, seed=99)
    r1 = run_suite(cfg).to_json()
    r2 = run_suite(cfg).to_json()
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_unknown_suite_rejected():
    with pytest.raises(UnknownSuite):
        run_suite(SuiteConfig(suite="nonsense", trials=1))


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(suite="thm1", trials=0)
    with pytest.raises(ValueError):
        SuiteConfig(suite="thm1", dim_max=1)
    with pytest.raises(ValueError):
        SuiteConfig(suite="thm1", order_max=0)


def test_skip_budget_fails_suite(monkeypatch):
    def always_skip(cfg, rng, extras, trial):
        raise su._Skip("synthetic")

    monkeypatch.setitem(su._SUITES, "thm1", always_skip)
    rep = run_suite(SuiteConfig(suite="thm1", trials=10, seed=0))
    assert rep.verdict == "fail"
    assert rep.failures[0].clause == "skip_budget_exceeded"
    assert rep.skips == 10


def test_generation_failures_counted_separately(monkeypatch):
    calls = {"n": 0}

    def flaky(cfg, rng, extras, trial):
        calls["n"] += 1
        if trial % 2 == 0:
            raise GenerationFailed("synthetic")
        return [("ok", 0.0, 1.0, {})]

    monkeypatch.setitem(su._SUITES, "thm2", flaky)
    rep = run_suite(SuiteConfig(suite="thm2", trials=9, seed=0))
    assert rep.generation_failures == 5
    assert rep.skips == 5 and rep.passes == 4
    assert rep.verdict == "fail"  # 5 of 9 skipped busts the budget


def test_generation_errors_reach_the_report(monkeypatch):
    def one_bad_draw(cfg, rng, extras, trial):
        if trial == 1:
            raise GenerationFailed("synthetic draw failure")
        return [("ok", 0.0, 1.0, {})]

    monkeypatch.setitem(su._SUITES, "thm4", one_bad_draw)
    rep = run_suite(SuiteConfig(suite="thm4", trials=4, seed=0))
    expected = [{"trial": 1, "error": "synthetic draw failure"}]
    assert rep.generation_failures == 1
    assert rep.generation_errors == expected
    assert json.loads(json.dumps(rep.to_json()))["generation_errors"] == expected


def test_failed_clause_recorded(monkeypatch):
    def failing(cfg, rng, extras, trial):
        return [("broken_clause", 1.0, 1e-9, {"trial": trial})]

    monkeypatch.setitem(su._SUITES, "prop1", failing)
    rep = run_suite(SuiteConfig(suite="prop1", trials=3, seed=0))
    assert rep.verdict == "fail"
    assert len(rep.failures) == 3
    assert rep.failures[0].clause == "broken_clause"
    assert rep.max_ratio > 1e8


def test_remark2_records_spectrum_anomalies():
    # the generic-unitary core family produces eigenvalues on the circle
    # away from {-1, 0, 1}; those are reported, not failed
    rep = run_suite(SuiteConfig(suite="remark2", trials=60, seed=5))
    assert rep.verdict == "pass"
    assert rep.anomalies, "expected at least one recorded spectrum anomaly"
    for record in rep.anomalies:
        assert record["deviation_from_signs"] > su.EIGENVALUE_TOL


def test_report_json_shape():
    rep = run_suite(SuiteConfig(suite="remark3", trials=6, seed=1))
    doc = rep.to_json()
    assert doc["suite"] == "remark3"
    assert doc["verdict"] in ("pass", "fail")
    assert set(doc["config"]) == {"suite", "trials", "dim_max", "order_max", "seed", "policy"}
    assert isinstance(doc["failures"], list)
    json.dumps(doc)  # must be serializable as-is


def test_report_dataclass_invariant():
    rep = SuiteReport(
        suite="x", config=SuiteConfig(suite="thm1"), trials=1, passes=1,
        skips=0, generation_failures=0,
    )
    assert rep.verdict == "pass"


def test_draw_coverage_spans_dims_and_orders():
    dims_seen = set()
    orders_seen = set()
    cfg = SuiteConfig(suite="thm1", trials=1, dim_max=8, order_max=4, seed=0)
    for t in range(300):
        rng = rng_for(0, 999, t)
        n1, n2, p = su._draw_drazin_dims(rng, cfg, min_nil=1, min_p=1)
        dims_seen.add(n1 + n2)
        orders_seen.add(p)
    assert dims_seen.issuperset(range(2, 9))
    assert orders_seen.issuperset(range(1, 5))


def test_quadruple_draw_coverage():
    cfg = SuiteConfig(suite="thm3", trials=1, dim_max=8, order_max=4, seed=0)
    # core bounds: the commuting quadruples' at dim_max 8, the disjoint ones'
    for hi_core in (3, 2):
        totals = set()
        orders = set()
        for t in range(400):
            rng = rng_for(1, 998, t)
            params = su._quad_params(rng, cfg, hi_core)
            totals.add(sum(params["dims"]))
            orders.add(params["m"])
            orders.add(params["n"])
        assert totals.issuperset(range(2, 9)), (hi_core, sorted(totals))
        assert orders == {1, 2, 3, 4}, (hi_core, sorted(orders))
