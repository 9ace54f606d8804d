"""Command-line interface.

Subcommands: ``drazin`` (index/inverse report), ``classify`` (minimal-order
scan), ``kernel`` (weight-space basis), ``example`` (seeded instance
files), ``verify`` (run verification suites).

Exit codes are a stable contract: 0 success/pass, 1 usage or parse error
(an output path that cannot be written included), 2 numerical failure
(ill-conditioning), 3 suite verdict fail. The environment variable
``OPCHECK_POLICY`` may point to a JSON file overriding NumericPolicy
fields; it is read on every call of ``main``.

``main`` builds its argument parser once per process (``build_parser`` is
cached) and looks each ``cmd_*`` handler up by name when it runs, so a
handler rebound on this module takes effect on the next call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .drazin import (
    PairSelector,
    block_view,
    core_nilpotent_decompose,
    resolve_pair,
)
from .errors import (
    IllConditioned,
    InvalidOrder,
    OpcheckError,
    ParseError,
    Singular,
    ToleranceInconsistency,
    UnknownSuite,
)
from .generators import Family, InstanceSpec, generate
from .kernels import kernel, minimal_order
from .matcore import (
    DEFAULT_POLICY,
    NumericPolicy,
    eye,
    frob,
    load_matrix,
    save_matrix,
)
from .suites import SuiteConfig, available_suites, run_suite
from .transforms import TransformKind

__all__ = [
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_NUMERICAL",
    "EXIT_VERDICT",
    "cmd_drazin",
    "cmd_classify",
    "cmd_kernel",
    "cmd_example",
    "cmd_verify",
    "build_parser",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERDICT = 3


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    numerical failures, so usage errors are remapped to 1. The usage lines
    are followed by argparse's message, which names the bad argument."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"opcheck: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_policy() -> NumericPolicy:
    path = os.environ.get("OPCHECK_POLICY")
    if not path:
        return DEFAULT_POLICY
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        values = {f.name: doc[f.name] for f in dataclasses.fields(NumericPolicy) if f.name in doc}
        for k, v in values.items():
            # exact types: a bool is an int, and float() takes numeric strings
            if type(v) not in (int, float):
                raise TypeError(f"{k} must be a JSON number, got {json.dumps(v)}")
        return NumericPolicy(**{k: float(v) for k, v in values.items()})
    # ValueError covers JSONDecodeError, UnicodeDecodeError and a non-finite
    # field; TypeError a field that is not a number; OverflowError an integer
    # beyond float range; RecursionError deep nesting
    except (OSError, ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise ParseError(f"bad policy file {path}: {exc}") from exc


def _fmt_matrix(m: np.ndarray) -> str:
    with np.printoptions(precision=6, suppress=True, linewidth=120):
        return str(np.round(m, 10))


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ParseError(f"expected a comma-separated integer list, got {text!r}") from exc


def _load_square(args) -> np.ndarray:
    a = load_matrix(args.matrix)
    if a.shape[0] != a.shape[1]:
        raise ParseError(f"{args.command} needs a square matrix, got {a.shape}")
    return a


def cmd_drazin(args, policy: NumericPolicy) -> int:
    a = _load_square(args)
    dd = core_nilpotent_decompose(a, policy)
    if args.json:
        print(json.dumps(dd.to_json(a), indent=2))
    else:
        r1, r2, r3 = dd.residuals_for(a)
        print(f"size:            {dd.n}")
        print(f"index:           {dd.p}")
        print(f"core dimension:  {dd.dim_h1}")
        print(f"nil dimension:   {dd.dim_h2}")
        print(f"axiom residuals: commutation={r1:.3e} inner-inverse={r2:.3e} index-power={r3:.3e}")
        print("drazin inverse:")
        print(_fmt_matrix(dd.a_d))
    return EXIT_OK


def cmd_classify(args, policy: NumericPolicy) -> int:
    a = _load_square(args)
    x = load_matrix(args.weight) if args.weight else eye(a.shape[0])
    if args.max_order < 1:
        raise InvalidOrder(f"bound must be >= 1, got {args.max_order}")
    kind = TransformKind(args.transform)
    b = resolve_pair(a, PairSelector(args.pair), policy)
    result = minimal_order(kind, b, a, x, args.max_order, policy)
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(f"transform={kind.value} pair={args.pair} bound={args.max_order}")
        print(f"{'order':>5s} {'residual':>12s} {'threshold':>12s}  pass")
        for k, (res, thr) in enumerate(zip(result.residuals, result.thresholds), start=1):
            print(f"{k:5d} {res:12.4e} {thr:12.4e}  {'yes' if res <= thr else 'no'}")
        if result.member:
            print(f"minimal order: {result.minimal_order}")
        else:
            print(f"minimal order: none <= {args.max_order}")
    return EXIT_OK


def cmd_kernel(args, policy: NumericPolicy) -> int:
    a = _load_square(args)
    if args.order < 1:
        raise InvalidOrder(f"order must be >= 1, got {args.order}")
    kind = TransformKind(args.transform)
    sel = PairSelector(args.pair)
    # every partner is block diagonal in A's core-nilpotent splitting, which
    # lets the kernel split; when A cannot be decomposed, the self and
    # adjoint pairs take the one dense SVD
    try:
        dd = core_nilpotent_decompose(a, policy)
    except (IllConditioned, Singular):
        if sel.needs_drazin:
            raise
        dd = None
    b = sel.partner(a, dd.a_d if dd else None)
    basis = kernel(kind, b, a, args.order, policy, dd)
    doc = basis.to_json()
    if sel.needs_drazin:
        doc["block_norms"] = [
            {f.name: frob(getattr(bv, f.name)) for f in dataclasses.fields(bv)}
            for bv in (block_view(x, dd) for x in basis.basis)
        ]
    # unindented, so the C encoder writes it
    text = json.dumps(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"kernel dimension {basis.dim} (gap {basis.gap:.3e}) -> {args.out}")
    else:
        print(text)
    return EXIT_OK


def cmd_example(args, policy: NumericPolicy) -> int:
    spec = InstanceSpec(
        family=Family(args.family),
        dims=_parse_int_list(args.dims),
        orders=_parse_int_list(args.orders),
        seed=args.seed,
    )
    inst = generate(spec, policy)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, mat in inst.matrices.items():
        save_matrix(outdir / f"{name}.json", mat)
    doc = {"family": spec.family.value, **inst.to_json(), "spec": dataclasses.asdict(spec)}
    with open(outdir / "instance.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    print(f"family={spec.family.value} seed={spec.seed} -> {outdir}/")
    for name, residual in inst.certified:
        print(f"  certified {name}: {residual:.3e}")
    return EXIT_OK


def cmd_verify(args, policy: NumericPolicy) -> int:
    if args.suite == "all":
        names = list(available_suites())
    elif args.suite in available_suites():
        names = [args.suite]
    else:
        raise UnknownSuite(
            f"unknown suite {args.suite!r}; available: all, {', '.join(available_suites())}"
        )
    reports = []
    all_pass = True
    for name in names:
        cfg = SuiteConfig(
            suite=name,
            trials=args.trials,
            dim_max=args.dim_max,
            order_max=args.order_max,
            seed=args.seed,
            policy=policy,
        )
        rep = run_suite(cfg)
        reports.append(rep)
        all_pass &= rep.verdict == "pass"
        extra = f" anomalies={len(rep.anomalies)}" if rep.anomalies else ""
        print(
            f"{name:16s} {rep.verdict:4s}  passes={rep.passes}/{rep.trials} "
            f"skips={rep.skips} max_residual={rep.max_residual:.3e}{extra}"
        )
    if args.report:
        payload = reports[0].to_json() if len(reports) == 1 else [r.to_json() for r in reports]
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"report -> {args.report}")
    return EXIT_OK if all_pass else EXIT_VERDICT


@functools.cache
def build_parser() -> _Parser:
    """The ``opcheck`` parser, built once and shared by every call: parse
    with it, but do not mutate it."""
    parser = _Parser(prog="opcheck", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("drazin", help="index, Drazin inverse and axiom residuals")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("classify", help="minimal-order scan for a transform/pair")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("--transform", choices=[k.value for k in TransformKind], required=True)
    p.add_argument("--pair", choices=[s.value for s in PairSelector], required=True)
    p.add_argument("--weight", help="weight matrix JSON file (default: identity)")
    p.add_argument("--max-order", type=int, default=6)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("kernel", help="orthonormal basis of the weight kernel")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("--transform", choices=[k.value for k in TransformKind], required=True)
    p.add_argument("--pair", choices=[s.value for s in PairSelector], required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", help="write the basis JSON here instead of stdout")

    p = sub.add_parser("example", help="generate a certified seeded instance")
    p.add_argument("--family", choices=[f.value for f in Family], required=True)
    p.add_argument("--dims", default="", help="comma-separated sizes")
    p.add_argument("--orders", default="", help="comma-separated orders")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all", help="suite name or 'all'")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--dim-max", type=int, default=6)
    p.add_argument("--order-max", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="write the report JSON here")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        policy = _load_policy()
        # an overflowing power, transform or defect ends in IllConditioned;
        # numpy's overflow warnings on the way there would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            return globals()[f"cmd_{args.command}"](args, policy)
    except (IllConditioned, Singular, ToleranceInconsistency) as exc:
        print(f"opcheck: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OpcheckError, OSError) as exc:
        # OSError: an --out or --report path that cannot be written
        print(f"opcheck: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
