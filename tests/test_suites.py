"""Tests for the verification harness: every suite runs green on a small
budget, reports are deterministic, and the bookkeeping rules (skip budget,
generation-failure accounting) behave as documented."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import opcheck.suites as su
from opcheck.cli import main
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


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 5: at the drawn orders 71 to 449 the kernel's zero floor, "
    "rtol growth^m, lies far above sigma_1(L^m) (1.4e26 against 71 at m = 71), so every "
    "kernel is the whole weight space and weight_block_structure fails",
)
def test_thm1_passes_at_high_orders():
    rep = run_suite(SuiteConfig(suite="thm1", trials=4, order_max=1100, seed=0))
    assert rep.passes == rep.trials, rep.to_json()["failures"]


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
        n1, n2, p = su._draw_drazin_dims(rng, cfg)
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


@pytest.mark.parametrize("name", ["thm1", "no_left_m_inv", "remark3", "remark2"])
def test_suites_reuse_the_builders_decompositions(name, monkeypatch):
    # these suites take A's Drazin data from the builder that certified A,
    # so their reports do not change when the suite cannot decompose at all
    cfg = SuiteConfig(suite=name, trials=30, dim_max=6, order_max=4, seed=3)
    want = json.dumps(run_suite(cfg).to_json())

    def no_decomposition(*args, **kwargs):
        raise AssertionError(f"suite {name} decomposed an operator again")

    for fn in ("core_nilpotent_decompose", "drazin_inverse", "resolve_pair"):
        monkeypatch.setattr(su, fn, no_decomposition)
    assert json.dumps(run_suite(cfg).to_json()) == want


def _cpus(monkeypatch, k):
    """Pretend the process may run on k CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: k)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes forked during a test."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):  # no such child left, not even a zombie
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("name", available_suites())
def test_reports_do_not_depend_on_the_cpu_count(name, monkeypatch, forks):
    cfg = SuiteConfig(suite=name, trials=12, dim_max=4, order_max=3, seed=7)
    _cpus(monkeypatch, 1)
    serial = run_suite(cfg).to_json()
    assert not forks
    _cpus(monkeypatch, 3)
    assert run_suite(cfg).to_json() == serial
    assert len(forks) == 2
    _assert_reaped(forks)


def test_a_workers_exception_escapes_with_its_type(monkeypatch, forks):
    def raises_late(cfg, rng, extras, trial):
        if trial >= 6:
            raise ValueError(f"trial {trial}")
        return [("ok", 0.0, 1.0, {})]

    monkeypatch.setitem(su._SUITES, "thm1", raises_late)
    _cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match="trial 6"):
        run_suite(SuiteConfig(suite="thm1", trials=12, seed=0))
    assert len(forks) == 1
    _assert_reaped(forks)


@pytest.mark.parametrize("bad", [(4, 7), (1, 7), (1, 4)])
def test_the_lowest_trials_exception_wins(bad, monkeypatch, forks):
    # blocks of trials 0-2 (run by the caller), 3-5 and 6-8
    def raises_at(cfg, rng, extras, trial):
        if trial == bad[0]:
            raise ValueError(f"trial {trial}")
        if trial == bad[1]:
            raise KeyError(f"trial {trial}")
        return [("ok", 0.0, 1.0, {})]

    monkeypatch.setitem(su._SUITES, "thm1", raises_at)
    _cpus(monkeypatch, 3)
    with pytest.raises(ValueError, match=f"trial {bad[0]}"):
        run_suite(SuiteConfig(suite="thm1", trials=9, seed=0))
    assert len(forks) == 2
    _assert_reaped(forks)


def _dies_at_trial_5(cfg, rng, extras, trial):
    if trial == 5:
        os._exit(7)
    return [("ok", 0.0, 1.0, {})]


def test_a_worker_that_dies_is_reported_not_waited_for(monkeypatch, forks):
    monkeypatch.setitem(su._SUITES, "thm1", _dies_at_trial_5)
    _cpus(monkeypatch, 2)
    with pytest.raises(ChildProcessError, match=r"trials 4\.\.7 exited before sending its results"):
        run_suite(SuiteConfig(suite="thm1", trials=8, seed=0))
    _assert_reaped(forks)


def _dies_at_trial_7(cfg, rng, extras, trial):
    if trial == 3:
        time.sleep(0.5)  # the worker for trials 3..5 is still busy when 6..8's dies
    if trial == 7:
        os._exit(3)
    return [("ok", 0.0, 1.0, {})]


def test_a_dead_worker_is_named_among_the_lost_blocks(monkeypatch, forks):
    # blocks of trials 0-2 (run by the caller), 3-5 and 6-8; the broken pool
    # fails both worker blocks, and the one that died must be named
    monkeypatch.setitem(su._SUITES, "thm1", _dies_at_trial_7)
    _cpus(monkeypatch, 3)
    with pytest.raises(ChildProcessError, match=r"trials (3\.\.5 or )?6\.\.8 exited before sending"):
        run_suite(SuiteConfig(suite="thm1", trials=9, seed=0))
    assert len(forks) == 2
    _assert_reaped(forks)


def test_a_dead_worker_ends_verify_with_exit_1_and_no_traceback(monkeypatch, forks, capfd):
    monkeypatch.setitem(su._SUITES, "thm1", _dies_at_trial_5)
    _cpus(monkeypatch, 2)
    assert main(["verify", "--suite", "thm1", "--trials", "8"]) == 1
    out, err = capfd.readouterr()
    assert err.startswith("opcheck: error: suite thm1: the worker for trials 4..7 ")
    assert "Traceback" not in out + err
    _assert_reaped(forks)


def test_a_workers_exception_carries_its_remote_traceback(monkeypatch, forks):
    def raises_in_worker(cfg, rng, extras, trial):
        if trial == 6:
            raise ValueError(f"trial {trial}")
        return [("ok", 0.0, 1.0, {})]

    monkeypatch.setitem(su._SUITES, "thm1", raises_in_worker)
    _cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match="trial 6") as info:
        run_suite(SuiteConfig(suite="thm1", trials=8, seed=0))
    assert "raises_in_worker" in str(info.value.__cause__)
    _assert_reaped(forks)


def test_a_serial_run_never_loads_the_pool():
    code = (
        "import os, sys\n"
        "import opcheck\n"
        "from opcheck.suites import SuiteConfig, run_suite\n"
        "cfg = SuiteConfig(suite='remark3', trials=2, seed=0)\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "run_suite(cfg)\n"
        "assert 'concurrent.futures.process' not in sys.modules\n"
        # a two-CPU run does load it, so the check above can see the pool
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "run_suite(cfg)\n"
        "assert 'concurrent.futures.process' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(su.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


def test_one_trial_forks_nothing(monkeypatch, forks):
    _cpus(monkeypatch, 8)
    rep = run_suite(SuiteConfig(suite="remark3", trials=1, seed=0))
    assert rep.trials == 1 and not forks


def test_workers_are_capped_by_the_trials(monkeypatch, forks):
    _cpus(monkeypatch, 64)
    rep = run_suite(SuiteConfig(suite="remark3", trials=3, seed=0))
    assert rep.passes + rep.skips == 3
    assert len(forks) == 2
    _assert_reaped(forks)


def test_skips_errors_and_anomalies_merge_in_trial_order(monkeypatch):
    def mixed(cfg, rng, extras, trial):
        extras.setdefault("anomalies", []).append({"trial": trial})
        if trial % 3 == 1:
            raise su._Skip("synthetic")
        if trial % 3 == 2:
            raise GenerationFailed(f"draw {trial}")
        return [("ok", float(trial), 10.0, {})]

    monkeypatch.setitem(su._SUITES, "thm2", mixed)
    _cpus(monkeypatch, 3)
    rep = run_suite(SuiteConfig(suite="thm2", trials=9, seed=0))
    assert [a["trial"] for a in rep.anomalies] == list(range(9))
    assert rep.generation_errors == [{"trial": t, "error": f"draw {t}"} for t in (2, 5, 8)]
    assert (rep.passes, rep.skips, rep.generation_failures) == (3, 6, 3)
    assert rep.max_residual == 6.0 and rep.max_ratio == 0.6
