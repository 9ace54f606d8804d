"""Golden identity: does another checkout give byte-identical results?

    python tests/golden_identity.py OTHER_TREE

runs the same commands on this tree and on OTHER_TREE (a checkout of
another commit), each in a fresh process with ``PYTHONPATH`` set to that
tree's ``src`` and in an empty working directory of its own:

- ``opcheck verify --suite all --report`` at (200 trials, ``dim_max`` 6,
  seed 0) and at (100 trials, ``dim_max`` 8, seed 1);
- ``opcheck example`` for every family at seed 5;
- the ``setup(1, dir)`` of ``bench/workloads.py``'s kernel_desk and
  classify_scan, which writes their input matrices (``bench/`` is only
  read).

It compares the exit codes, stdout, stderr and every file each run writes,
ignoring only the ``report ->`` line, prints one line per run and exits 1
on any difference. Pytest does not collect it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

# family -> (--dims, --orders), the arities the CLI tests use
EXAMPLES = {
    "unitary": ("4", ""), "nilpotent": ("4", "3"), "invertible": ("4", ""),
    "drazin-block": ("3,2", "2"), "ab-zero": ("2,4", "2,1"),
    "hypothesis1": ("2,2,1,1", "2,1"), "remark3": ("", ""),
    "scalar-plus-nilpotent": ("4", "2"),
}

# argv: the bench directory and the workload; prints one line per op
SETUP = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS
for op in WORKLOADS[sys.argv[2]]().setup(1, Path("inputs")):
    print(op.path, op.n, op.kind, op.pair, op.family, op.p, op.q)
"""


def runs(tree: Path) -> dict:
    """Run name -> the argv after the interpreter, for one tree."""
    verify = ["-m", "opcheck", "verify", "--suite", "all", "--report", "report.json"]
    out = {
        f"verify {t}/{d}/{s}": [*verify, "--trials", t, "--dim-max", d, "--seed", s]
        for t, d, s in (("200", "6", "0"), ("100", "8", "1"))
    }
    for family, (dims, orders) in EXAMPLES.items():
        out[f"example {family}"] = ["-m", "opcheck", "example", "--family", family,
                                    "--dims", dims, "--orders", orders, "--seed", "5",
                                    "--out", "out"]
    for workload in ("kernel_desk", "classify_scan"):
        out[f"setup {workload}"] = ["-c", SETUP, str(tree / "bench"), workload]
    return out


def outcome(tree: Path, argv: list) -> dict:
    """Exit code, stdout, stderr and the bytes of every file written."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=1800)
        files = {str(p.relative_to(cwd)): p.read_bytes()
                 for p in sorted(Path(cwd).rglob("*")) if p.is_file()}
    stdout = [line for line in proc.stdout.splitlines() if not line.startswith("report -> ")]
    return {"exit": proc.returncode, "stdout": stdout, "stderr": proc.stderr, "files": files}


def main(argv: list) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "opcheck").is_dir():
        print("usage: python tests/golden_identity.py OTHER_TREE  (a checkout with src/opcheck)",
              file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    mine = runs(HERE)
    differ = 0
    for (name, argv_mine), argv_other in zip(mine.items(), runs(other).values()):
        a, b = outcome(HERE, argv_mine), outcome(other, argv_other)
        diffs = [key for key in ("exit", "stdout", "stderr") if a[key] != b[key]]
        files = sorted(k for k in {*a["files"], *b["files"]} if a["files"].get(k) != b["files"].get(k))
        if files:
            diffs.append("files " + ", ".join(files))
        differ += bool(diffs)
        detail = f"differ in {'; '.join(diffs)}" if diffs else "identical"
        print(f"{name:32s} exit {a['exit']}, {len(a['files'])} files: {detail}", flush=True)
    print(f"{differ} of {len(mine)} runs differ from {other}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
