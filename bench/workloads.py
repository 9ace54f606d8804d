"""The benchmark's workloads: inputs made from a seed, one op, and its check.

Each workload is driven as a closed loop with one client: an op starts when
the previous one has returned. The ops of one cycle are a fixed mix, and a
measured phase always runs whole cycles, so every run sees the same mix.
The program sees only the generated inputs; the checks read its outputs
and are never timed.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from opcheck import cli, drazin, generators, matcore, suites, transforms

POLICY = matcore.DEFAULT_POLICY
DRAZIN_PAIRS = ("drazin", "drazin-adjoint")
KINDS = ("triangle", "delta")
KERNEL_ORDER = 2  # --order of every kernel_desk call
SCAN_QS = (2, 3)  # nilpotency orders of the scalar-plus-nilpotent inputs
SCAN_MAX_ORDER = 6  # --max-order of every classify_scan call
THRESHOLD_RTOL = 1e-12  # how far the program's zero thresholds may differ from ours


@dataclass(frozen=True)
class Op:
    """One CLI call: an input file, the transform and the pair."""

    path: Path
    n: int
    kind: str
    pair: str
    family: str
    p: int  # Drazin index of the input
    q: int = 0  # nilpotency order for scalar-plus-nilpotent inputs


@dataclass
class Outcome:
    """Checked result of one op. ``units`` are what ops_per_s counts."""

    units: int
    failed: int
    out_bytes: int = 0
    skips: int = 0
    genfails: int = 0
    problems: list = field(default_factory=list)


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def read_matrix(doc: dict) -> np.ndarray:
    """Parse the matrix JSON format independently of the package."""
    data = np.asarray(doc["data"], dtype=np.float64).reshape(doc["rows"], doc["cols"], 2)
    return data[..., 0] + 1j * data[..., 1]


def drazin_residual_problems(a: np.ndarray, a_d: np.ndarray, p: int) -> list[str]:
    """The three defining identities of the Drazin inverse, checked here."""
    ap = np.linalg.matrix_power(a, p)
    residuals = {
        "commutation": np.linalg.norm(a_d @ a - a @ a_d),
        "inner_inverse": np.linalg.norm(a_d @ a @ a_d - a_d),
        "index_power": np.linalg.norm(ap @ a @ a_d - ap),
    }
    scale = (1 + np.linalg.norm(a, 2)) ** (p + 1) * (1 + np.linalg.norm(a_d, 2)) ** 2
    tol = POLICY.rtol * scale
    return [f"Drazin {k} residual {r:.3e} > {tol:.3e}" for k, r in residuals.items() if r > tol]


def one_step(kind: str, b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The defining one-step map of either transform."""
    return b @ x @ a - x if kind == "triangle" else b @ x - x @ a


def own_threshold(b: np.ndarray, a: np.ndarray, x_frob: float, m: int) -> float:
    """The policy's zero threshold for an order-m defect, (1 + |A|_2 |B|_2)^m |X|_F,
    computed here rather than taken from the program."""
    return POLICY.zero_threshold((1 + np.linalg.norm(a, 2) * np.linalg.norm(b, 2)) ** m * x_frob)


def expected_kernel_dim(kind: str, b: np.ndarray, a: np.ndarray, m: int) -> int:
    """n^2 minus the rank of the m-th power of the one-step map's Kronecker
    matrix, with the policy's relative cutoff and zero floor."""
    n = a.shape[0]
    eye = np.eye(n)
    if kind == "triangle":
        step = np.kron(a.T, b) - np.eye(n * n)
    else:
        step = np.kron(eye, b) - np.kron(a.T, eye)
    sv = np.linalg.svd(np.linalg.matrix_power(step, m), compute_uv=False)
    floor = POLICY.zero_threshold((1 + np.linalg.norm(a, 2) * np.linalg.norm(b, 2)) ** m)
    rank = 0 if sv[0] <= floor else int(np.count_nonzero(sv > POLICY.rank_rtol * sv[0]))
    return n * n - rank


class _CliWorkload:
    """Inputs on disk, one ``cli.main`` call per op, cached reference data."""

    tail_q = 0.75

    def __init__(self):
        self._inputs: dict = {}

    def _operands(self, op: Op):
        """(A, B, problems) for an op's input file and pair, computed once."""
        key = (op.path, op.pair)
        if key not in self._inputs:
            a = read_matrix(json.loads(op.path.read_text(encoding="utf-8")))
            b = drazin.resolve_pair(a, op.pair)
            problems = []
            if op.pair in DRAZIN_PAIRS:
                a_d = b if op.pair == "drazin" else b.conj().T
                problems = drazin_residual_problems(a, a_d, op.p)
            self._inputs[key] = (a, b, problems)
        return self._inputs[key]

    def _save(self, inputs: Path, name: str, a: np.ndarray) -> Path:
        path = inputs / f"{name}.json"
        matcore.save_matrix(path, a)
        return path


class Harness:
    """``suites.run_suite`` over every suite: one op per suite call."""

    name = "harness"
    tail_q = 0.75

    def __init__(self, trials=200, dim_max=6, order_max=4, suite_names=None):
        self.trials, self.dim_max, self.order_max = trials, dim_max, order_max
        self.suite_names = suite_names
        self._seen: dict = {}

    def setup(self, seed: int, inputs: Path) -> list:
        inputs.mkdir(parents=True, exist_ok=True)
        names = self.suite_names or suites.available_suites()
        return [
            suites.SuiteConfig(suite=s, trials=self.trials, dim_max=self.dim_max,
                               order_max=self.order_max, seed=seed)
            for s in names
        ]

    def run(self, cfg):
        return suites.run_suite(cfg)

    def check(self, cfg, rep) -> Outcome:
        problems = []
        bad_trials = {f.trial for f in rep.failures if f.trial >= 0}
        failed = len(bad_trials) + rep.generation_failures
        if rep.verdict != "pass":
            failed += 1
            problems.append(f"{cfg.suite}: verdict {rep.verdict}")
        key = (rep.passes, rep.skips, rep.generation_failures)
        if self._seen.setdefault(cfg.suite, key) != key:
            failed += 1
            problems.append(f"{cfg.suite}: passes/skips/genfails {key} != {self._seen[cfg.suite]}")
        return Outcome(rep.trials, min(failed, rep.trials), 0, rep.skips,
                       rep.generation_failures, problems)


class KernelDesk(_CliWorkload):
    """``opcheck kernel --out`` on Drazin-block inputs, both transforms,
    the adjoint and drazin-adjoint pairs."""

    name = "kernel_desk"

    # (n, inputs of that size). Unequal counts keep the median and p75 inside
    # one (size, transform) latency group instead of on the edge between two.
    def __init__(self, sizes=((16, 2), (24, 2), (32, 1))):
        super().__init__()
        self.sizes = sizes
        self._dims: dict = {}
        self.out: Path | None = None

    def setup(self, seed: int, inputs: Path) -> list:
        inputs.mkdir(parents=True, exist_ok=True)
        self.out = inputs.parent / "basis.json"
        ops = []
        for n, count in self.sizes:
            rng = np.random.default_rng([seed, n])
            n2 = n // 4
            p = min(2, n2)
            for i in range(count):
                inst = generators.make_drazin_block(n - n2, n2, p, rng)
                path = self._save(inputs, f"drazin_block_n{n}_{i}", inst.matrices["A"])
                ops += [Op(path, n, kind, pair, "drazin_block", p)
                        for kind in KINDS for pair in ("adjoint", "drazin-adjoint")]
        return ops

    def run(self, op: Op):
        return call_cli(["kernel", str(op.path), "--transform", op.kind, "--pair", op.pair,
                         "--order", str(KERNEL_ORDER), "--out", str(self.out)])

    def check(self, op: Op, result) -> Outcome:
        rc, stdout, stderr = result
        if rc != 0 or not self.out.is_file():
            return Outcome(1, 1, len(stdout),
                           problems=[f"{op}: exit {rc}, no basis written: {stderr.strip()}"])
        raw = self.out.read_bytes()
        self.out.unlink()  # so the next op's check cannot read this basis
        doc = json.loads(raw)
        a, b, problems = self._operands(op)
        problems = list(problems)
        if doc["kind"] != op.kind or doc["m"] != KERNEL_ORDER:
            problems.append(f"basis is for {doc['kind']} at m={doc['m']}")
        key = (op.path, op.kind, op.pair)
        if key not in self._dims:
            self._dims[key] = expected_kernel_dim(op.kind, b, a, KERNEL_ORDER)
        basis = [read_matrix(x) for x in doc["basis"]]
        if doc["dim"] != self._dims[key] or len(basis) != doc["dim"]:
            problems.append(f"dim {doc['dim']} ({len(basis)} elements), expected {self._dims[key]}")
        if basis:
            v = np.stack([x.reshape(-1, order="F") for x in basis], axis=1)
            gram_err = float(np.abs(v.conj().T @ v - np.eye(len(basis))).max())
            if gram_err > 1e-10:
                problems.append(f"basis not orthonormal: max |G - I| = {gram_err:.3e}")
        for i, x in enumerate(basis):
            r = np.linalg.norm(transforms.transform(op.kind, b, a, x, KERNEL_ORDER))
            thr = own_threshold(b, a, np.linalg.norm(x), KERNEL_ORDER)
            if r > thr:
                problems.append(f"basis[{i}] defect {r:.3e} > {thr:.3e}")
        if op.pair in DRAZIN_PAIRS and len(doc.get("block_norms", ())) != len(basis):
            problems.append("block_norms missing or of the wrong length")
        problems = [f"{op.kind}/{op.pair} n={op.n}: {p}" for p in problems]
        return Outcome(1, int(bool(problems)), len(raw) + len(stdout), problems=problems)


class ClassifyScan(_CliWorkload):
    """``opcheck classify --json`` over both transforms and all four pairs on
    scalar-plus-nilpotent and Drazin-block inputs."""

    name = "classify_scan"
    tail_q = 0.99

    def __init__(self, sizes=(8, 16, 32, 48)):
        super().__init__()
        self.sizes = sizes
        self._scans: dict = {}

    def setup(self, seed: int, inputs: Path) -> list:
        inputs.mkdir(parents=True, exist_ok=True)
        pairs = ("self", "adjoint", "drazin", "drazin-adjoint")
        ops = []
        for n in self.sizes:
            rng = np.random.default_rng([seed, n])
            # s = +-1 is real and unimodular, so both the order-(2q-1)
            # selfadjointness and isometry identities hold.
            s = float(rng.choice([-1.0, 1.0]))
            for q in SCAN_QS:
                inst = generators.make_scalar_plus_nilpotent(n, q, s, rng)
                path = self._save(inputs, f"scalar_plus_nilpotent_n{n}_q{q}", inst.matrices["A"])
                ops += [Op(path, n, k, pr, "scalar_plus_nilpotent", 0, q)
                        for k in KINDS for pr in pairs]
            n2 = n // 4
            p = min(2, n2)
            inst = generators.make_drazin_block(n - n2, n2, p, rng)
            path = self._save(inputs, f"drazin_block_n{n}", inst.matrices["A"])
            ops += [Op(path, n, k, pr, "drazin_block", p) for k in KINDS for pr in pairs]
        return ops

    def run(self, op: Op):
        return call_cli(["classify", str(op.path), "--transform", op.kind, "--pair", op.pair,
                         "--max-order", str(SCAN_MAX_ORDER), "--json"])

    def check(self, op: Op, result) -> Outcome:
        rc, stdout, stderr = result
        if rc != 0:
            return Outcome(1, 1, len(stdout), problems=[f"{op}: exit {rc}: {stderr.strip()}"])
        doc = json.loads(stdout)
        a, b, problems = self._operands(op)
        problems = list(problems)
        key = (op.path, op.kind, op.pair)
        if key not in self._scans:
            x, own = np.eye(op.n, dtype=np.complex128), []
            for _ in range(SCAN_MAX_ORDER):
                x = one_step(op.kind, b, a, x)
                own.append(float(np.linalg.norm(x)))
            thr = [own_threshold(b, a, np.sqrt(op.n), k) for k in range(1, SCAN_MAX_ORDER + 1)]
            self._scans[key] = own, thr
        own, thr = self._scans[key]
        res = doc["residuals"]
        if doc["bound"] != SCAN_MAX_ORDER or len(res) != SCAN_MAX_ORDER or len(
                doc["thresholds"]) != SCAN_MAX_ORDER:
            problems.append(f"scan covers {len(res)} orders, expected {SCAN_MAX_ORDER}")
        else:
            for k, (r, t, o, pt) in enumerate(zip(res, thr, own, doc["thresholds"]), start=1):
                if abs(pt - t) > THRESHOLD_RTOL * t:
                    problems.append(f"order {k}: threshold {pt:.6e}, own {t:.6e}")
                if abs(r - o) > t:
                    problems.append(f"order {k}: residual {r:.6e} vs one-step {o:.6e} (thr {t:.3e})")
            first = next((k for k in range(1, len(res) + 1) if res[k - 1] <= thr[k - 1]), None)
            if doc["minimal_order"] != first or doc["member"] != (first is not None):
                problems.append(f"minimal order {doc['minimal_order']} but first pass at {first}")
        if op.family == "scalar_plus_nilpotent" and op.pair in ("adjoint", "drazin-adjoint"):
            if doc["minimal_order"] != 2 * op.q - 1:
                problems.append(f"minimal order {doc['minimal_order']}, known {2 * op.q - 1}")
        problems = [f"{op.family} n={op.n} {op.kind}/{op.pair}: {p}" for p in problems]
        return Outcome(1, int(bool(problems)), len(stdout), problems=problems)


WORKLOADS = {w.name: w for w in (Harness, KernelDesk, ClassifyScan)}
