"""Self-tests of the benchmark: tracer coverage and restoration, seeded
inputs, and a tiny configuration of each workload.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for _p in (ROOT / "src", BENCH):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import numpy as np  # noqa: E402

import opcheck  # noqa: E402
import run as bench_run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "harness": dict(trials=3, dim_max=3, order_max=2, suite_names=("drazin_axioms", "thm1")),
    "kernel_desk": dict(sizes=((8, 1),)),
    "classify_scan": dict(sizes=(4, 8)),
}


def _bindings():
    spaces = [m for n, m in sorted(sys.modules.items())
              if n == "opcheck" or n.startswith("opcheck.")]
    spaces += [sys.modules[n] for n in ("numpy.linalg", "numpy.linalg._linalg")]
    return {(ns.__name__, k): id(v) for ns in spaces for k, v in vars(ns).items()}


def test_tracer_wraps_every_public_function_in_every_namespace():
    with tracer.installed(tracer.Tracer()):
        for module in tracer.traced_modules():
            names = tracer.public_functions(module)
            assert names, module.__name__
            for name in names:
                assert hasattr(getattr(module, name), "__wrapped__"), f"{module.__name__}.{name}"
        # names imported with ``from .x import y`` are rebound too
        assert opcheck.suites.kernel is opcheck.kernels.kernel
        assert opcheck.generators.kernel is opcheck.kernels.kernel
        assert hasattr(opcheck.suites.kernel, "__wrapped__")
        assert hasattr(opcheck.cli.main, "__wrapped__")
        assert hasattr(np.linalg.svd, "__wrapped__")
        assert hasattr(sys.modules["numpy.linalg._linalg"].svd, "__wrapped__")


def test_tracer_fails_loudly_on_an_unexported_public_function(monkeypatch):
    import opcheck.kernels as kernels

    def new_public_function():
        return None

    new_public_function.__module__ = kernels.__name__
    monkeypatch.setattr(kernels, "new_public_function", new_public_function, raising=False)
    before = _bindings()
    with pytest.raises(tracer.CoverageError, match="new_public_function"):
        with tracer.installed(tracer.Tracer()):
            pass
    assert _bindings() == before


def test_tracer_restores_every_binding_even_on_error():
    before = _bindings()
    with tracer.installed(tracer.Tracer()):
        assert _bindings() != before
    assert _bindings() == before
    with pytest.raises(ZeroDivisionError):
        with tracer.installed(tracer.Tracer()):
            1 / 0
    assert _bindings() == before


def test_tracer_self_times_add_up_and_counts_are_taken():
    a = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 0]], dtype=complex)
    tr = tracer.Tracer()
    with tracer.installed(tr):
        tr.active = True
        opcheck.kernels.kernel("delta", a.conj().T, a, 2)
        b = opcheck.drazin.resolve_pair(a, "drazin-adjoint")
        opcheck.kernels.minimal_order("triangle", b, a, np.eye(3), 4)
        tr.active = False
        opcheck.kernels.kernel("delta", a.conj().T, a, 2)  # inactive: not recorded
    assert tr.calls("kernels.kernel") == 1
    assert tr.calls("kernels.transform_matrix") == 1
    assert tr.calls("numpy.svd") > 1
    assert tr.counts["kernels.tm_bytes"] == 16 * 3**4
    assert tr.counts["transforms.eval"] == 4
    assert tr.counts["transforms.matmuls"] == sum(4 * m + 2 for m in range(1, 5))
    assert math.isclose(tr.self_s(lambda name: True), tr.top_s, rel_tol=1e-9)
    assert all(st[2] <= st[1] + 1e-12 for st in tr.stats.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_byte_identical_per_seed(name, tmp_path):
    w = workloads.WORKLOADS[name](**TINY[name])
    digest = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        inputs = tmp_path / label / "inputs"
        ops = w.setup(seed, inputs)
        files = {p.name: p.read_bytes() for p in sorted(inputs.iterdir())}
        digest[label] = (repr([getattr(o, "seed", None) for o in ops]), files)
        if name != "harness":
            assert files
    assert digest["a"] == digest["b"]
    assert digest["a"] != digest["c"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_clean_and_prints_the_declared_metrics(name, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    w = workloads.WORKLOADS[name](**TINY[name])
    w.tail_q = 0.75  # a tiny run cannot fill p99
    t0 = time.perf_counter()
    ops, problems = bench_run.set_up(w, 3, tmp_path)
    assert not problems
    setup_s = time.perf_counter() - t0
    untraced = bench_run.measure(w, ops, 0.0)
    assert untraced.failed == 0 and not untraced.problems
    e2e = bench_run.end_to_end(w, setup_s, untraced)
    tr = tracer.Tracer()
    with tracer.installed(tr):
        traced = bench_run.measure(w, ops, 0.0, tr)
    assert traced.failed == 0 and not traced.problems
    layer = bench_run.per_layer(tr, traced, untraced)
    assert time.perf_counter() - t0 < 60
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert all(e2e[k]["value"] > 0 for k in e2e)
    shares = [layer[k]["value"] for k in bench_run.ACCOUNTING]
    assert math.isclose(sum(shares), 1.0, rel_tol=1e-9)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "harness", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_setup_only_prints_one_cold_set_up_time():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "classify_scan", "--seed", "1",
         "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["setup_s"] > 0
