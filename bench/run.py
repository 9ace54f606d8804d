"""opcheck benchmark: one workload per process, a closed loop with one client.

Usage, from the root of a checkout:

    python3 bench/run.py --workload harness --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched.
``--trace 1`` measures an untraced phase and then a traced phase of the
same length, and reports the per-layer metrics of the traced phase. Human
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_out"

SETUP_REPS = 5  # setup_s is the median over this many cold processes
COLD_SETUP_TIMEOUT_S = 60.0
PHASE_WALL_CAP_S = 75.0  # a phase stops here even if it has too few samples
MIN_BEYOND = 10  # samples a reported percentile needs above it

LIMITS = (
    "shared 2-core box: other tenants' load shows as noise; no CPU pinning; "
    "no cache control; BLAS threads as the library picks them; "
    "no wall-clock scaling claims"
)
KNOWN_GAPS = (
    "kernel at n=48 is left out: one 2304^2 complex SVD takes ~8.6 s",
    "random_invertible(spectrum='reciprocal') raises GenerationFailed for cores "
    "of ~40 and above, so inputs use the default 'generic' spectrum",
    "tracing covers public function boundaries only; spans inside the package "
    "are not recorded",
)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "peak_rss_mb": "MB",
}

SUITE_NAMES = (
    "drazin_axioms", "prop1", "prop2", "cor1", "remark1", "remark2", "no_left_m_inv",
    "thm1", "remark3", "thm2", "thm3", "thm4", "thm5",
)

# Span groups whose self time one per-layer metric sums.
EVAL = {f"transforms.{n}" for n in ("triangle", "delta", "transform", "transform_apply",
                                    "transform_iterated", "isometry_defect",
                                    "selfadjoint_defect")}
THRESHOLD = {"transforms.defect_threshold", "transforms.defect_scale"}
JSON_IN = {"matcore.load_matrix", "matcore.matrix_from_json"}
JSON_OUT = {"matcore.matrix_to_json", "matcore.save_matrix"}


def _is_build(name: str) -> bool:
    from tracer import BUILDER_PREFIXES

    return name.startswith(BUILDER_PREFIXES)


def _layer(layer: str):
    return lambda name: name.startswith(layer + ".")


# Self-time shares of every layer; with the unspanned remainder they sum to 1.
ACCOUNTING = (
    "layer.matcore.self_frac", "layer.transforms.self_frac", "layer.drazin.self_frac",
    "layer.kernels.self_frac", "layer.generators.self_frac", "suites.self_frac",
    "cli.main.self_frac", "numpy.svd.self_frac", "trace.unspanned_frac",
)

PER_LAYER = {
    "layer.matcore.self_frac": "frac",
    "layer.transforms.self_frac": "frac",
    "layer.drazin.self_frac": "frac",
    "layer.kernels.self_frac": "frac",
    "layer.generators.self_frac": "frac",
    "suites.self_frac": "frac",
    "cli.main.self_frac": "frac",
    "numpy.svd.self_frac": "frac",
    "trace.unspanned_frac": "frac",
    "trace.overhead_frac": "frac",
    # kernels
    "kernels.kernel.calls": "count",
    "kernels.kernel.self_frac": "frac",
    "kernels.transform_matrix.self_frac": "frac",
    "numpy.svd.calls": "count",
    "kernels.tm_bytes_computed": "B/op",
    "kernels.empty_frac": "frac",
    # transforms
    "transforms.eval.calls": "count",
    "transforms.eval.self_frac": "frac",
    "transforms.defect_threshold.calls": "count",
    "transforms.defect_threshold.self_frac": "frac",
    "matcore.spectral_norm.calls": "count",
    "matcore.spectral_norm.self_frac": "frac",
    "transforms.matmuls_computed": "count/op",
    # drazin
    "drazin.core_nilpotent_decompose.calls": "count",
    "drazin.core_nilpotent_decompose.self_frac": "frac",
    "drazin.index_of.calls": "count",
    "drazin.index_of.self_frac": "frac",
    "drazin.decompose_per_op": "count/op",
    "drazin.redundant_decompose_frac": "frac",
    # JSON I/O and cli
    "matcore.load_matrix.self_frac": "frac",
    "matcore.matrix_to_json.self_frac": "frac",
    "cli.output_bytes": "B/op",
    # generators
    "generators.build.calls": "count",
    "generators.build.self_frac": "frac",
    "generators.genfail_frac": "frac",
    # suites
    **{f"suites.{s}.frac": "frac" for s in SUITE_NAMES},
    "suites.skip_frac": "frac",
    "matcore.svd_per_op": "count/op",
}


class Phase:
    """Latencies and checked outcomes of one measured phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.cycle_rates: list[float] = []  # units per second of op time, per cycle
        self.units = self.failed = self.out_bytes = self.skips = self.genfails = 0
        self.problems: list[str] = []

    @property
    def busy_s(self) -> float:
        return math.fsum(self.latencies)

    @property
    def ops_per_s(self) -> float:
        """Median over cycles, so a disturbance during one cycle is outvoted."""
        return statistics.median(self.cycle_rates)

    def add(self, outcome) -> None:
        self.units += outcome.units
        self.failed += outcome.failed
        self.out_bytes += outcome.out_bytes
        self.skips += outcome.skips
        self.genfails += outcome.genfails
        self.problems += outcome.problems


def run_op(workload, op):
    try:
        return workload.run(op), None
    except Exception as exc:  # an escaped error is a failed op, not a crash
        return None, f"{type(exc).__name__}: {exc}"


def check_op(workload, op, result, error):
    from workloads import Outcome

    if error is not None:
        return Outcome(1, 1, problems=[f"{op}: {error}"])
    return workload.check(op, result)


def measure(workload, ops, seconds: float, tracer=None) -> Phase:
    """Run whole cycles of ``ops`` until ``seconds`` of op time and enough
    samples for the workload's tail percentile have been collected."""
    phase = Phase()
    min_ops = math.ceil(MIN_BEYOND / (1 - workload.tail_q))
    start = time.perf_counter()
    while True:
        units, busy = phase.units, 0.0
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
                tracer.active = True
            t0 = time.perf_counter()
            result, error = run_op(workload, op)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            phase.latencies.append(dt)
            busy += dt
            phase.add(check_op(workload, op, result, error))
        phase.cycle_rates.append((phase.units - units) / busy)
        enough = phase.busy_s >= seconds and len(phase.latencies) >= min_ops
        if enough or time.perf_counter() - start > PHASE_WALL_CAP_S:
            return phase


def set_up(workload, seed: int, work: Path):
    """Make the inputs and warm up; return the ops and any problems found.

    The warm-up call is the last op, which is the largest for the CLI
    workloads (they build their ops in ascending n): a one-off cost of the
    first large call in a process, such as the first large SVD, lands in
    set-up, not in a measured op."""
    inputs = work / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    ops = workload.setup(seed, inputs)
    result, error = run_op(workload, ops[-1])
    return ops, check_op(workload, ops[-1], result, error).problems


def cold_set_ups(args, count: int) -> tuple[list[float], list[str]]:
    """Set-up times of ``count`` fresh processes, run one after another."""
    times, problems = [], []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=COLD_SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            problems.append(f"cold set-up exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            continue
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times, problems


def percentile(latencies: list[float], q: float) -> tuple[float, int]:
    """The q-quantile and the number of samples above it."""
    value = statistics.quantiles(latencies, n=100, method="inclusive")[round(q * 100) - 1]
    return value, sum(1 for x in latencies if x > value)


def blas_info(np) -> dict:
    """BLAS name, version and thread count as numpy reports them."""
    import ctypes

    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": deps.get("name"), "version": deps.get("version"), "threads": threads}


def machine_header(np, workload: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "loadavg_start": os.getloadavg(),
        "limits": LIMITS,
        "known_gaps": KNOWN_GAPS,
        "workload": workload,
        "why": why[workload],
    }


def end_to_end(workload, setup_s, phase: Phase) -> dict:
    p50 = statistics.median(phase.latencies)
    tail, beyond = percentile(phase.latencies, workload.tail_q)
    label = f"p{round(workload.tail_q * 100)}"
    n = len(phase.latencies)
    print(f"ops_per_s    {phase.ops_per_s:.4f} 1/s  (median of {len(phase.cycle_rates)} cycles, "
          f"{min(phase.cycle_rates):.4f}..{max(phase.cycle_rates):.4f}; "
          f"{phase.units} ops in {phase.busy_s:.3f} s of op time, {n} calls)")
    print("cycle rates  " + " ".join(f"{r:.4g}" for r in phase.cycle_rates))
    print(f"op_ms.p50    {p50 * 1e3:.4f} ms  (n={n})")
    print(f"op_ms.tail   {tail * 1e3:.4f} ms  ({label}, n={n}, {beyond} beyond)")
    if beyond < MIN_BEYOND:
        raise RuntimeError(f"{label} has only {beyond} samples beyond it")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak_rss_mb  {rss_mb:.1f} MB")
    values = {
        "setup_s": setup_s,
        "ops_per_s": phase.ops_per_s,
        "op_ms.p50": p50 * 1e3,
        "op_ms.tail": tail * 1e3,
        "peak_rss_mb": rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(tr, phase: Phase, untraced: Phase) -> dict:
    wall = phase.busy_s
    ops = phase.units
    frac = lambda pred: tr.self_s(pred) / wall  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    decompositions = tr.calls("drazin.core_nilpotent_decompose")
    kernels = tr.calls("kernels.kernel")
    values = {
        "layer.matcore.self_frac": frac(_layer("matcore")),
        "layer.transforms.self_frac": frac(_layer("transforms")),
        "layer.drazin.self_frac": frac(_layer("drazin")),
        "layer.kernels.self_frac": frac(_layer("kernels")),
        "layer.generators.self_frac": frac(_layer("generators")),
        "suites.self_frac": frac(_layer("suites")),
        "cli.main.self_frac": frac(_layer("cli")),
        "numpy.svd.self_frac": frac(_layer("numpy")),
        "trace.unspanned_frac": (wall - tr.top_s) / wall,
        "trace.overhead_frac": 1 - phase.ops_per_s / untraced.ops_per_s,
        "kernels.kernel.calls": kernels,
        "kernels.kernel.self_frac": frac(lambda n: n == "kernels.kernel"),
        "kernels.transform_matrix.self_frac": frac(lambda n: n == "kernels.transform_matrix"),
        "numpy.svd.calls": tr.calls("numpy.svd"),
        "kernels.tm_bytes_computed": tr.counts["kernels.tm_bytes"] / ops,
        "kernels.empty_frac": ratio(tr.counts["kernels.empty"], kernels),
        "transforms.eval.calls": tr.counts["transforms.eval"],
        "transforms.eval.self_frac": frac(EVAL.__contains__),
        "transforms.defect_threshold.calls": tr.calls("transforms.defect_threshold"),
        "transforms.defect_threshold.self_frac": frac(THRESHOLD.__contains__),
        "matcore.spectral_norm.calls": tr.calls("matcore.spectral_norm"),
        "matcore.spectral_norm.self_frac": frac(lambda n: n == "matcore.spectral_norm"),
        "transforms.matmuls_computed": tr.counts["transforms.matmuls"] / ops,
        "drazin.core_nilpotent_decompose.calls": decompositions,
        "drazin.core_nilpotent_decompose.self_frac":
            frac(lambda n: n == "drazin.core_nilpotent_decompose"),
        "drazin.index_of.calls": tr.calls("drazin.index_of"),
        "drazin.index_of.self_frac": frac(lambda n: n == "drazin.index_of"),
        "drazin.decompose_per_op": decompositions / ops,
        "drazin.redundant_decompose_frac": ratio(tr.counts["drazin.redundant"], decompositions),
        "matcore.load_matrix.self_frac": frac(JSON_IN.__contains__),
        "matcore.matrix_to_json.self_frac": frac(JSON_OUT.__contains__),
        "cli.output_bytes": phase.out_bytes / ops,
        "generators.build.calls": tr.counts["generators.build"],
        "generators.build.self_frac": frac(_is_build),
        "generators.genfail_frac": phase.genfails / ops,
        **{f"suites.{s}.frac": tr.counts[f"suites.{s}.s"] / wall for s in SUITE_NAMES},
        "suites.skip_frac": phase.skips / ops,
        "matcore.svd_per_op": tr.calls("numpy.svd") / ops,
    }
    accounted = sum(values[k] for k in ACCOUNTING)
    print(f"ops_per_s untraced {untraced.ops_per_s:.4f}, traced {phase.ops_per_s:.4f} 1/s")
    print(f"traced wall {wall:.4f} s over {len(phase.latencies)} calls; layer self times "
          f"plus unspanned account for {accounted:.6f} of it")
    print(f"spans kept {len(tr.spans)}, dropped {tr.spans_dropped}")
    for name, st in sorted(tr.stats.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:42s} calls={st[0]:8d} incl_s={st[1]:10.4f} self_s={st[2]:10.4f}")
    return {k: {"value": float(values[k]), "unit": PER_LAYER[k]} for k in PER_LAYER}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("harness", "kernel_desk", "classify_scan"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the set-up time as JSON and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "opcheck" / "__init__.py").is_file():
        print(f"bench: no opcheck sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("OPCHECK_POLICY", None)  # measure the default policy
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy as np

    import opcheck
    import_s = time.perf_counter() - t0
    if Path(opcheck.__file__).resolve().parent != (SRC / "opcheck").resolve():
        print(f"bench: opcheck imported from {opcheck.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    from workloads import WORKLOADS

    if not args.setup_only:
        header = machine_header(np, args.workload)
        print("bench header " + json.dumps(header))
        if (header["blas"]["threads"] or 0) > header["nproc"]:
            print("bench: BLAS threads exceed nproc", file=sys.stderr)
            return 2

    workload = WORKLOADS[args.workload]()
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        ops, problems = set_up(workload, args.seed, work)
        own_setup_s = import_s + time.perf_counter() - t0
        if args.setup_only:
            for msg in problems:
                print(f"CHECK FAILED: {msg}", file=sys.stderr)
            print(json.dumps({"setup_s": own_setup_s}))
            return 1 if problems else 0
        if not args.trace:
            times, cold_problems = cold_set_ups(args, SETUP_REPS - 1)
            problems += cold_problems
            times.append(own_setup_s)
            setup_s = statistics.median(times)
            print(f"setup_s      {setup_s:.4f} s  (import, inputs and warm-up; median of "
                  f"{len(times)} cold processes: " + " ".join(f"{t:.4f}" for t in times) + ")")
        untraced = measure(workload, ops, args.seconds)
        phases = [untraced]
        if args.trace:
            tr = tracing.Tracer()
            with tracing.installed(tr):
                traced = measure(workload, ops, args.seconds, tr)
            phases.append(traced)
            TRACE_OUT.mkdir(exist_ok=True)
            tr.write(TRACE_OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
            metrics = per_layer(tr, traced, untraced)
        else:
            metrics = end_to_end(workload, setup_s, untraced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = sum(p.units for p in phases)
    failed = min(attempted, sum(p.failed for p in phases) + (1 if problems else 0))
    problems += [m for p in phases for m in p.problems]
    for msg in list(dict.fromkeys(problems))[:20]:
        print(f"CHECK FAILED: {msg}")
    print(f"fail_frac    {failed / attempted:.6f}  ({failed}/{attempted} ops failed)")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
