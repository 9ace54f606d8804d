"""Outside-in tracer for the opcheck package.

The tracer never edits the package. While installed it rebinds every public
function of each ``opcheck.<layer>`` module to a timing wrapper, in every
``opcheck`` namespace that holds it (``suites`` and ``generators`` import
names with ``from .x import y``, so patching only the defining module would
miss their calls), and does the same for ``numpy.linalg.svd`` in both numpy
namespaces that call it. On exit every binding is put back, so untraced runs
measure the unmodified program.

Spans (op, id, parent, name, start, end) are kept in memory up to a cap and
written out at the end; per-name call counts, inclusive and self time are
aggregated for every span, kept or not. Self time is a span's duration minus
the time of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import sys
import time
import types
from collections import Counter

import numpy as np

LAYERS = ("matcore", "transforms", "drazin", "kernels", "generators", "suites", "cli")
# Span names of the top-level instance builders that generators.build counts.
BUILDER_PREFIXES = ("generators.make_", "generators.random_", "generators.generate")
SPAN_CAP = 100_000  # spans kept for the written trace; later ones are only aggregated

# numpy namespaces whose ``svd`` binding is rebound: the public one and the
# implementation module, whose own ``norm(x, 2)`` calls ``svd`` directly.
_SVD_NAMESPACES = ("numpy.linalg", "numpy.linalg._linalg")


class CoverageError(RuntimeError):
    """A public function of a traced module would escape the tracer."""


def public_functions(module) -> list[str]:
    """The functions a module exposes: the functions named in its
    ``__all__`` or, for a module without one, every module-level function
    whose name does not start with an underscore."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n, v in vars(module).items() if _defined_here(module, n, v)]
    return [n for n in names if isinstance(getattr(module, n), types.FunctionType)]


def unexported_functions(module) -> list[str]:
    """Public functions defined in ``module`` that its ``__all__`` omits."""
    defined = {n for n, v in vars(module).items() if _defined_here(module, n, v)}
    return sorted(defined - set(public_functions(module)))


def _defined_here(module, name, value) -> bool:
    return (
        not name.startswith("_")
        and isinstance(value, types.FunctionType)
        and value.__module__ == module.__name__
    )


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counters taken at span boundaries: hook(tracer, parent, args, kwargs, result, dur).


def _on_kernel(tr, parent, args, kwargs, result, dur):
    tr.counts["kernels.empty"] += result.dim == 0


def _on_transform_matrix(tr, parent, args, kwargs, result, dur):
    n = np.shape(_arg(args, kwargs, 2, "a"))[0]
    tr.counts["kernels.tm_bytes"] += 16 * n**4


def _on_eval(tr, parent, args, kwargs, result, dur):
    m = _arg(args, kwargs, 3, "m")
    tr.counts["transforms.eval"] += 1
    # m powers of each operand, then two products per binomial term
    tr.counts["transforms.matmuls"] += 4 * m + 2


def _on_decompose(tr, parent, args, kwargs, result, dur):
    a = np.ascontiguousarray(_arg(args, kwargs, 0, "a"), dtype=np.complex128)
    key = hashlib.blake2b(repr(a.shape).encode() + a.tobytes(), digest_size=16).digest()
    tr.counts["drazin.redundant"] += key in tr.decomposed
    tr.decomposed.add(key)


def _on_rng_for(tr, parent, args, kwargs, result, dur):
    # run_suite draws one generator per trial before running it, so this
    # call marks the start of a harness trial: a new op for per-op counts.
    if parent is not None and parent[1] == "suites.run_suite":
        tr.begin_op()


def _on_build(tr, parent, args, kwargs, result, dur):
    if parent is None or not parent[1].startswith("generators."):
        tr.counts["generators.build"] += 1


def _on_run_suite(tr, parent, args, kwargs, result, dur):
    tr.counts[f"suites.{_arg(args, kwargs, 0, 'cfg').suite}.s"] += dur


def _hook_for(name):
    fixed = {
        "kernels.kernel": _on_kernel,
        "kernels.transform_matrix": _on_transform_matrix,
        "transforms.triangle": _on_eval,
        "transforms.delta": _on_eval,
        "drazin.core_nilpotent_decompose": _on_decompose,
        "generators.rng_for": _on_rng_for,
        "suites.run_suite": _on_run_suite,
    }
    if name in fixed:
        return fixed[name]
    if name.startswith(BUILDER_PREFIXES):
        return _on_build
    return None


class Tracer:
    """Spans and counters of one traced phase; records only while ``active``."""

    def __init__(self):
        self.active = False
        self.stack: list[list] = []  # open spans: [id, name, child seconds]
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.top_s = 0.0  # time inside outermost spans
        self.op = 0
        self.decomposed: set = set()
        self._next_id = 0

    def begin_op(self) -> None:
        """Start a new op: spans get its id and per-op state is reset."""
        self.op += 1
        self.decomposed.clear()

    def call(self, name, hook, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        sid = self._next_id
        self._next_id += 1
        frame = [sid, name, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[2]
            if parent is None:
                self.top_s += dur
            else:
                parent[2] += dur
            if len(self.spans) < SPAN_CAP:
                self.spans.append((self.op, sid, parent and parent[0], name, t0, t1))
            else:
                self.spans_dropped += 1
        if hook is not None:
            hook(self, parent, args, kwargs, result, dur)
        return result

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def self_s(self, pred) -> float:
        return sum(st[2] for name, st in self.stats.items() if pred(name))

    def write(self, path) -> None:
        """Write the kept spans as JSON lines, then one summary line."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                "start": t0, "end": t1}) + "\n"
                )
            fh.write(json.dumps({"spans_kept": len(self.spans),
                                 "spans_dropped": self.spans_dropped,
                                 "stats": self.stats, "counts": self.counts}) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    hook = _hook_for(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        return tracer.call(name, hook, fn, args, kwargs)

    return traced


def traced_modules() -> list:
    return [sys.modules[f"opcheck.{layer}"] for layer in LAYERS]


def check_coverage() -> None:
    """Raise CoverageError if a public function of a layer is not traced."""
    missing = {m.__name__: unexported_functions(m) for m in traced_modules()}
    missing = {k: v for k, v in missing.items() if v}
    if missing:
        raise CoverageError(
            f"public functions missing from __all__, so not traced: {missing}"
        )


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every public layer function and numpy's svd while inside."""
    import opcheck  # noqa: F401  (loads every layer module)

    check_coverage()
    originals: dict[int, tuple] = {}
    for module in traced_modules():
        layer = module.__name__.rsplit(".", 1)[1]
        for n in public_functions(module):
            fn = getattr(module, n)
            originals[id(fn)] = (fn, _wrap(tracer, f"{layer}.{n}", fn))
    svd = np.linalg.svd
    originals[id(svd)] = (svd, _wrap(tracer, "numpy.svd", svd))

    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name == "opcheck" or name.startswith("opcheck.")]
    namespaces += [sys.modules[n] for n in _SVD_NAMESPACES if n in sys.modules]
    saved = []
    try:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(ns, attr, entry[1])
                    saved.append((ns, attr, value))
        yield tracer
    finally:
        tracer.active = False
        for ns, attr, value in reversed(saved):
            setattr(ns, attr, value)
