"""Seeded verification suites.

Each suite generates structured instances, certifies the hypotheses of one
identity family numerically, and then checks the corresponding conclusion
at its scaled tolerance. A trial whose hypothesis certification fails is
skipped, never counted as a pass, and a suite whose skip fraction exceeds
one half fails outright (that guards against vacuous green runs).
Generation errors are counted separately from mathematical failures.

Reports are deterministic per (config, seed): every trial draws from its
own key-split stream ``rng_for(seed, lane, t)`` and records what it found
in an ``extras`` dict of its own, so no trial sees another's state.
``run_suite`` therefore fans the trials out over the CPUs in the process's
affinity mask: it splits them into one contiguous block per CPU (at most
one per trial), runs the first block itself and the others on a process
pool of forked workers, and reduces the records in trial order, exactly as
a serial loop would, so the report is byte-identical at any CPU count. With
one CPU, one trial or no ``fork`` the same loop runs in the calling process,
which never imports the pool. An error escapes once every worker is joined,
a worker's with its traceback, a dead worker's without its exit code and
naming every block whose results the broken pool lost.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .drazin import (
    PairSelector,
    axiom_threshold,
    block_view,
    core_nilpotent_decompose,
    drazin_inverse,
    resolve_pair,
)
from .errors import (
    GenerationFailed,
    IllConditioned,
    InvalidOrder,
    Singular,
    ToleranceInconsistency,
    UnknownSuite,
)
from .generators import (
    REMARK3_DELTA_MAX,
    REMARK3_TRIANGLE_MIN,
    _cgauss,
    make_ab_zero_pair,
    make_commuting_core_weight,
    make_commuting_quadruple,
    make_disjoint_quadruple,
    make_drazin_block,
    make_nilpotent_perturbation,
    make_product_pairs,
    make_remark3_counterexample,
    make_scalar_plus_nilpotent,
    random_invertible,
    random_nilpotent,
    random_unitary,
    rng_for,
)
from .kernels import kernel, minimal_order
from .matcore import (
    DEFAULT_POLICY,
    NumericPolicy,
    adjoint,
    block_diag,
    eye,
    frob,
    inverse,
)
from .transforms import (
    TransformKind,
    defect,
    defect_growth,
    defect_threshold,
    delta,
    transform,
    triangle,
)

__all__ = ["SuiteConfig", "SuiteReport", "TrialFailure", "run_suite", "available_suites"]

EIGENVALUE_TOL = 1e-6
OFFBLOCK_TOL = 1e-7
WITNESS_FLOOR = 1e-3


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    trials: int = 200
    dim_max: int = 6
    order_max: int = 4
    seed: int = 0
    policy: NumericPolicy = DEFAULT_POLICY

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidOrder("trials must be >= 1")
        if self.dim_max < 2:
            raise InvalidOrder("dim_max must be >= 2")
        if self.order_max < 1:
            raise InvalidOrder("order_max must be >= 1")


@dataclass(frozen=True)
class TrialFailure:
    trial: int
    clause: str
    residual: float
    threshold: float
    detail: dict

    def to_json(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["detail"] = {k: repr(v) for k, v in self.detail.items()}
        return doc


@dataclass
class SuiteReport:
    suite: str
    config: SuiteConfig
    trials: int
    passes: int
    skips: int
    generation_failures: int
    failures: list = field(default_factory=list)
    max_residual: float = 0.0
    max_ratio: float = 0.0
    anomalies: list = field(default_factory=list)
    generation_errors: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "pass" if not self.failures else "fail"

    def to_json(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["failures"] = [f.to_json() for f in self.failures]
        doc["verdict"] = self.verdict
        return doc


class _Skip(Exception):
    """Raised by a trial whose hypotheses could not be certified."""


def _dim(rng, lo: int, hi: int) -> int:
    if hi < lo:
        return lo
    return int(rng.integers(lo, hi + 1))


_PARTNER = {
    PairSelector.SELF: PairSelector.DRAZIN,
    PairSelector.DRAZIN: PairSelector.SELF,
    PairSelector.ADJOINT: PairSelector.DRAZIN_ADJOINT,
    PairSelector.DRAZIN_ADJOINT: PairSelector.ADJOINT,
}

_SELECTORS = tuple(PairSelector)


# ---------------------------------------------------------------------------
# per-suite trial bodies: return a list of (clause, residual, threshold, detail)
# ---------------------------------------------------------------------------


def _draw_drazin_dims(rng, cfg, *, min_core=0):
    """Core/nil sizes and index within the configured budget; the nilpotent
    part and the index are at least 1."""
    n2 = _dim(rng, 1, max(1, cfg.dim_max - max(min_core, 1)))
    n1 = _dim(rng, min_core, max(min_core, cfg.dim_max - n2))
    p = _dim(rng, 1, max(1, min(n2, cfg.order_max)))
    return n1, n2, p


def _trial_drazin_axioms(cfg, rng, extras, trial):
    policy = cfg.policy
    kind = trial % 9
    # a builder that certified the matrix's index hands over its
    # decomposition; only A+B and kinds 3-6 are decomposed here
    dd = None
    if kind == 7:
        inst = make_ab_zero_pair(
            _dim(rng, 1, 2), _dim(rng, 2, max(2, cfg.dim_max - 2)), rng, policy,
            invertible_tail=bool(trial & 16), conjugate=bool(trial & 32),
        )
        pick = (trial // 9) % 3
        if pick == 0:
            a, dd, expected = inst.matrices["A"], inst.drazin["A"], inst.meta["qa"]
        elif pick == 1:
            a, dd, expected = inst.matrices["B"], inst.drazin["B"], inst.meta["qb"]
        else:
            a = inst.matrices["A"] + inst.matrices["B"]
            expected = max(inst.meta["qa"], inst.meta["qb"])
    elif kind == 8:
        inst = make_remark3_counterexample(rng, policy)
        a, dd, expected = inst.matrices["A"], inst.drazin["A"], 2
    elif kind in (0, 1, 2):
        dims = _draw_drazin_dims(rng, cfg, min_core=int(kind == 2))
        conjugate = bool(trial & 8) if kind == 1 else True
        spectrum = ("generic", "real", "selfadjoint")[kind]
        inst = make_drazin_block(*dims, rng, policy, conjugate=conjugate, spectrum=spectrum)
        a, dd, expected = inst.matrices["A"], inst.drazin["A"], inst.meta["p"]
    elif kind == 3:
        n = _dim(rng, 2, cfg.dim_max)
        q = _dim(rng, 1, min(n, cfg.order_max))
        u = random_unitary(n, rng)
        a = u @ random_nilpotent(n, q, rng) @ adjoint(u)
        expected = q
    elif kind == 4:
        a = random_invertible(_dim(rng, 2, cfg.dim_max), rng, "generic")
        expected = 0
    elif kind == 5:
        a = random_unitary(_dim(rng, 2, cfg.dim_max), rng)
        expected = 0
    else:
        n = _dim(rng, 2, cfg.dim_max)
        q = _dim(rng, 1, min(n, cfg.order_max))
        s = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.5, 1.5)
        inst = make_scalar_plus_nilpotent(n, q, s, rng, policy)
        a, expected = inst.matrices["A"], 0  # s != 0 keeps A invertible

    if dd is None:
        dd = core_nilpotent_decompose(a, policy)
    r1, r2, r3 = dd.residuals_for(a)
    thr = axiom_threshold(a, dd.p, policy)
    recon = dd.s @ block_diag(dd.a1, dd.a2) @ dd.s_inv
    detail = {"family": kind, "n": a.shape[0], "p": dd.p}
    return [
        ("axiom_commutation", r1, thr, detail),
        ("axiom_inner_inverse", r2, thr, detail),
        ("axiom_index_power", r3, thr, detail),
        ("index_match", abs(dd.p - expected), 0.5, detail),
        ("block_reconstruction", frob(recon - a), policy.zero_threshold(dd.cond_s * frob(a)), detail),
    ]


def _trial_prop1(cfg, rng, extras, trial):
    policy = cfg.policy
    flavor = trial % 4
    checks = []
    if flavor in (0, 1):
        tkind = TransformKind.TRIANGLE if flavor == 0 else TransformKind.DELTA
        sel = _SELECTORS[(trial // 4) % 4]
        n1, n2, p = _draw_drazin_dims(rng, cfg, min_core=2)
        inst = make_drazin_block(n1, n2, p, rng, policy, conjugate=bool(trial & 16), spectrum="reciprocal")
        a = inst.matrices["A"]
        b = sel.partner(a, inst.drazin["A"].a_d)
        m = _dim(rng, 1, cfg.order_max)
        basis = kernel(tkind, b, a, m, policy)
        if basis.dim == 0:
            raise _Skip(f"empty kernel for selector {sel.value}")
        x = basis.sample(rng)
        detail = {"selector": sel.value, "kind": tkind.value, "m": m, "n": a.shape[0]}
        try:
            scan = minimal_order(tkind, b, a, x, m + 3, policy)
        except ToleranceInconsistency as exc:
            return [("tolerance_consistency", math.inf, 0.0, {**detail, "error": str(exc)})]
        for k in range(m, m + 4):
            checks.append(
                (f"order_{k - m}_above", scan.residuals[k - 1], scan.thresholds[k - 1], detail)
            )
    elif flavor == 2:
        n = _dim(rng, 2, cfg.dim_max)
        m = _dim(rng, 1, cfg.order_max)
        a = random_invertible(n, rng, "generic")
        b = random_invertible(n, rng, "generic")
        x = _cgauss(rng, n, n)
        a_inv, b_inv = inverse(a, policy), inverse(b, policy)
        scale = (
            (1.0 + frob(a) * frob(b)) ** m
            * (1.0 + frob(a_inv) * frob(b_inv)) ** m
            * frob(x)
        )
        detail = {"n": n, "m": m}
        for tkind in TransformKind:
            lhs = transform(tkind, b_inv, a_inv, x, m)
            b_inv_m, a_inv_m = np.linalg.matrix_power(b_inv, m), np.linalg.matrix_power(a_inv, m)
            rhs = (-1) ** m * b_inv_m @ transform(tkind, b, a, x, m) @ a_inv_m
            checks.append(
                (f"inverse_identity_{tkind.value}", frob(lhs - rhs), policy.zero_threshold(scale), detail)
            )
    else:
        n = _dim(rng, 2, cfg.dim_max)
        m = _dim(rng, 1, cfg.order_max)
        a = random_invertible(n, rng, "reciprocal")
        sel = PairSelector.DRAZIN_ADJOINT if trial & 4 else PairSelector.DRAZIN
        b = resolve_pair(a, sel, policy)
        tkind = TransformKind.TRIANGLE if trial & 8 else TransformKind.DELTA
        a_inv, b_inv = inverse(a, policy), inverse(b, policy)
        detail = {"selector": sel.value, "kind": tkind.value, "m": m, "n": n}
        fwd = kernel(tkind, b, a, m, policy)
        if fwd.dim == 0:
            raise _Skip("empty kernel on invertible pair")
        x = fwd.sample(rng)
        checks.append(("inverse_pair_forward", *defect(tkind, b_inv, a_inv, x, m, policy), detail))
        bwd = kernel(tkind, b_inv, a_inv, m, policy)
        if bwd.dim == 0:
            raise _Skip("empty kernel on inverted pair")
        x2 = bwd.sample(rng)
        checks.append(("inverse_pair_backward", *defect(tkind, b, a, x2, m, policy), detail))
    return checks


def _quad_params(rng, cfg, hi_core):
    """Orders and block sizes of a quadruple: core sizes up to ``hi_core``
    (at least the orders qa, qb), nilpotent sizes up to 2 within dim_max;
    dims are (core A, core B, nil A, nil B)."""
    qa = _dim(rng, 1, min(2, cfg.order_max))
    qb = _dim(rng, 1, min(2, cfg.order_max))
    nca = _dim(rng, qa, max(qa, hi_core))
    ncb = _dim(rng, qb, max(qb, hi_core))
    rest = max(0, cfg.dim_max - nca - ncb)
    nna = _dim(rng, 0, min(2, rest))
    nnb = _dim(rng, 0, min(2, max(0, rest - nna)))
    m = _dim(rng, 1, cfg.order_max)
    n = _dim(rng, 1, cfg.order_max)
    return dict(dims=(nca, ncb, nna, nnb), qa=qa, qb=qb, m=m, n=n)


def _commuting_params(rng, cfg):
    """Quadruple draw for the commuting builders: cores of up to 3 where
    dim_max leaves room for them."""
    return _quad_params(rng, cfg, max(2, min(3, cfg.dim_max - 2)))


def _product_sum_checks(inst, weight, suffix, detail, policy):
    """The shared conclusion of Prop 2, Cor 1 and Thm 3: the order-(m+n-1)
    delta defects of (A*B*, AB) and (A*+B*, A+B) on the weight vanish."""
    a, b = inst.matrices["A"], inst.matrices["B"]
    order = inst.meta["m"] + inst.meta["n"] - 1
    return [
        (f"{clause}_{suffix}", *defect(TransformKind.DELTA, bop, aop, weight, order, policy), detail)
        for clause, bop, aop in (
            ("product", adjoint(a) @ adjoint(b), a @ b),
            ("sum", adjoint(a) + adjoint(b), a + b),
        )
    ]


def _perturbation_checks(cfg, rng, kind, placement, conjugate, clause):
    """Prop 2 / Remark 1: perturbing A by a nilpotent N of order q that
    commutes with it keeps the order-(m+q-1) defect of (A*, A+N) on X zero."""
    qa = _dim(rng, 2 if placement == "power" else 1, 2)
    na = _dim(rng, max(qa, 2), max(qa, 3))
    nb = _dim(rng, 1, 2)
    m = _dim(rng, 1, cfg.order_max)
    inst = make_nilpotent_perturbation(
        rng, cfg.policy, flavor=kind.value, na=na, nb=nb, qa=qa, m=m,
        nil_placement=placement, conjugate=conjugate,
    )
    a, b, x, nmat = (inst.matrices[k] for k in ("A", "B", "X", "N"))
    q = inst.meta["q"]
    detail = {"flavor": f"perturbation-{placement}", "m": m, "q": q}
    return [(clause, *defect(kind, b, a + nmat, x, m + q - 1, cfg.policy), detail)]


def _trial_prop2(cfg, rng, extras, trial):
    policy = cfg.policy
    flavor = trial % 3
    if flavor == 0:
        inst = make_commuting_quadruple(
            rng, policy, flavor="delta", conjugate=bool(trial & 4), **_commuting_params(rng, cfg)
        )
        detail = {"flavor": "product-sum", **{k: inst.meta[k] for k in ("dims", "m", "n")}}
        xy = inst.matrices["X"] @ inst.matrices["Y"]
        return _product_sum_checks(inst, xy, "selfadjoint", detail, policy)
    return _perturbation_checks(
        cfg, rng, TransformKind.DELTA, "disjoint" if flavor == 1 else "power",
        bool(trial & 4), "perturbed_adjoint",
    )


def _trial_cor1(cfg, rng, extras, trial):
    policy = cfg.policy
    inst = make_commuting_quadruple(
        rng, policy, flavor="delta", shared_weight=True, conjugate=bool(trial & 2),
        **_commuting_params(rng, cfg),
    )
    detail = {"dims": inst.meta["dims"], "m": inst.meta["m"], "n": inst.meta["n"]}
    return _product_sum_checks(inst, inst.matrices["X"], "shared_weight", detail, policy)


def _trial_remark1(cfg, rng, extras, trial):
    policy = cfg.policy
    flavor = trial % 3
    if flavor == 0:
        fams = (
            ("adjoint", "adjoint"),
            ("adjoint", "inverse"),
            ("inverse", "adjoint"),
            ("inverse", "inverse"),
        )[(trial // 3) % 4]
        qa = _dim(rng, 1, 2)
        qb = _dim(rng, 1, 2)
        na = _dim(rng, max(qa, 2), max(qa, cfg.dim_max // 2))
        nb = _dim(rng, max(qb, 2), max(qb, cfg.dim_max - na))
        m1 = _dim(rng, 1, cfg.order_max)
        m2 = _dim(rng, 1, cfg.order_max)
        inst = make_product_pairs(
            rng, policy, families=fams, na=na, nb=nb, qa=qa, qb=qb, m1=m1, m2=m2,
            conjugate=bool(trial & 8),
        )
        a1, b1, x1 = (inst.matrices[k] for k in ("A1", "B1", "X1"))
        a2, b2, x2 = (inst.matrices[k] for k in ("A2", "B2", "X2"))
        order = m1 + m2 - 1
        detail = {"families": fams, "m1": m1, "m2": m2}
        return [
            (
                "product_pairs",
                *defect(TransformKind.TRIANGLE, b1 @ b2, a1 @ a2, x1 @ x2, order, policy),
                detail,
            )
        ]
    return _perturbation_checks(
        cfg, rng, TransformKind.TRIANGLE, "disjoint" if flavor == 1 else "power",
        bool(trial & 8), "perturbed_left_invertible",
    )


def _trial_remark2(cfg, rng, extras, trial):
    policy = cfg.policy
    flavor = trial % 3
    if flavor == 0:
        n = _dim(rng, 2, cfg.dim_max)
        m = _dim(rng, 1, cfg.order_max)
        a = _cgauss(rng, n, n)
        return [
            (
                "self_pair_identity_weight",
                *defect(TransformKind.DELTA, a, a, eye(n), m, policy),
                {"n": n, "m": m},
            )
        ]
    if flavor == 1:
        n = _dim(rng, 2, cfg.dim_max)
        a = _cgauss(rng, n, n)
        d2 = delta(adjoint(a), a, eye(n), 2)
        # trace(delta^2 of I) = -||A - A*||_F^2 exactly: order-2 selfadjointness
        # forces selfadjointness, quantitatively.
        tau = complex(np.trace(d2))
        gap = abs(tau + frob(a - adjoint(a)) ** 2)
        scale = n * (1.0 + frob(a)) ** 2
        h = (a + adjoint(a)) / 2
        return [
            ("order2_trace_identity", gap, policy.zero_threshold(scale), {"n": n}),
            (
                "selfadjoint_is_order2",
                *defect(TransformKind.DELTA, adjoint(h), h, eye(n), 2, policy),
                {"n": n},
            ),
        ]
    family = (trial // 3) % 4
    if family == 3:
        n1, n2, p = 0, _dim(rng, 2, 3), 2
        spectrum = "generic"
    else:
        n1 = _dim(rng, 1, cfg.dim_max - 2)
        n2, p = ((1, 1) if family == 1 else (2, 2))
        spectrum = "unitary" if family == 2 else "signs"
    inst = make_drazin_block(n1, n2, p, rng, policy, conjugate=True, spectrum=spectrum)
    a = inst.matrices["A"]
    a_d = inst.drazin["A"].a_d
    hyp, hyp_thr = defect(TransformKind.DELTA, adjoint(a_d), a, eye(a.shape[0]), 2, policy)
    if hyp > hyp_thr:
        raise _Skip(f"order-2 identity not satisfied (residual {hyp:.2e})")
    eigs = np.linalg.eigvals(a)
    on_circle_or_zero = max(
        (min(abs(lam), abs(abs(lam) - 1.0)) for lam in eigs), default=0.0
    )
    sign_membership = max(
        (min(abs(lam), abs(lam - 1.0), abs(lam + 1.0)) for lam in eigs), default=0.0
    )
    detail = {"family": spectrum if family != 3 else "nilpotent", "n": a.shape[0]}
    if sign_membership > EIGENVALUE_TOL:
        extras.setdefault("anomalies", []).append(
            {
                "trial": trial,
                "family": detail["family"],
                "eigenvalues": [[lam.real, lam.imag] for lam in eigs],
                "deviation_from_signs": sign_membership,
            }
        )
    return [("spectrum_unit_or_zero", on_circle_or_zero, EIGENVALUE_TOL, detail)]


def _trial_no_left_m_inv(cfg, rng, extras, trial):
    policy = cfg.policy
    spectrum = ("generic", "real", "unitary")[trial % 3]
    n1, n2, p = _draw_drazin_dims(rng, cfg)
    inst = make_drazin_block(n1, n2, p, rng, policy, conjugate=bool(trial & 2), spectrum=spectrum)
    a, dd = inst.matrices["A"], inst.drazin["A"]
    m = _dim(rng, 1, cfg.order_max)
    ident = eye(a.shape[0])
    checks = []
    for sel in (PairSelector.DRAZIN, PairSelector.DRAZIN_ADJOINT):
        b = sel.partner(a, dd.a_d)
        d = triangle(b, a, ident, m)
        bv = block_view(d, dd)
        sign = (-1) ** m
        detail = {"selector": sel.value, "m": m, "dim_nil": dd.dim_h2}
        checks.append(
            (
                "nil_block_identity",
                frob(bv.x22 - sign * eye(dd.dim_h2)),
                defect_threshold(policy, defect_growth(b, a), m, dd.cond_s * frob(ident)),
                detail,
            )
        )
        shortfall = max(0.0, math.sqrt(dd.dim_h2) - 1e-6 - frob(d))
        checks.append(("defect_norm_floor", shortfall, 0.0, detail))
    return checks


def _trial_thm1(cfg, rng, extras, trial):
    policy = cfg.policy
    n2 = _dim(rng, 2, max(2, cfg.dim_max - 2))
    p = _dim(rng, 2, min(n2, max(2, cfg.order_max)))
    n1 = _dim(rng, 1, max(1, cfg.dim_max - n2))
    inst = make_drazin_block(n1, n2, p, rng, policy, conjugate=bool(trial & 2), spectrum="reciprocal")
    a, dd = inst.matrices["A"], inst.drazin["A"]
    m = _dim(rng, 1, cfg.order_max)
    checks = []
    nonempty = 0
    for sel in _SELECTORS:
        b = sel.partner(a, dd.a_d)
        basis = kernel(TransformKind.TRIANGLE, b, a, m, policy)
        if basis.dim == 0:
            continue
        nonempty += 1
        cmat = _PARTNER[sel].partner(a, dd.a_d)
        detail = {"selector": sel.value, "m": m, "p": p, "kernel_dim": basis.dim}
        # basis elements are unit Frobenius norm, so one threshold covers all
        delta_thr = defect_threshold(policy, defect_growth(cmat, a), m, frob(basis.basis[0]))
        worst_block = 0.0
        worst_delta = 0.0
        for x in basis.basis:
            bv = block_view(x, dd)
            worst_block = max(worst_block, frob(bv.x12), frob(bv.x21), frob(bv.x22))
            worst_delta = max(worst_delta, frob(delta(cmat, a, x, m)))
        checks.append(("weight_block_structure", worst_block, OFFBLOCK_TOL, detail))
        checks.append(("triangle_implies_delta", worst_delta, delta_thr, detail))
    if nonempty == 0:
        raise _Skip("all four selector kernels were empty")
    return checks


def _trial_remark3(cfg, rng, extras, trial):
    policy = cfg.policy
    if trial % 2 == 0:
        spectrum = "real" if trial & 2 else "reciprocal"
        n1, n2, p = _draw_drazin_dims(rng, cfg, min_core=1)
        inst = make_drazin_block(n1, n2, p, rng, policy, conjugate=bool(trial & 4), spectrum=spectrum)
        a, dd = inst.matrices["A"], inst.drazin["A"]
        m = _dim(rng, 1, cfg.order_max)
        basis = kernel(TransformKind.DELTA, a, a, m, policy)
        if basis.dim == 0:
            raise _Skip("empty self-pair kernel")
        off = 0.0
        x22_max = 0.0
        for x in basis.basis:
            bv = block_view(x, dd)
            off = max(off, frob(bv.x12), frob(bv.x21))
            x22_max = max(x22_max, frob(bv.x22))
        detail = {"m": m, "p": p, "kernel_dim": basis.dim}
        return [
            ("offdiagonal_blocks_vanish", off, OFFBLOCK_TOL, detail),
            ("diagonal_converse_witness", max(0.0, WITNESS_FLOOR - x22_max), 0.0, detail),
        ]
    inst = make_remark3_counterexample(rng, policy)
    pos, neg = inst.meta["delta3"], inst.meta["triangle3"]
    detail = {"delta3": pos, "triangle3": neg}
    return [
        ("counterexample_positive_clause", pos, REMARK3_DELTA_MAX, detail),
        ("counterexample_negative_clause", max(0.0, REMARK3_TRIANGLE_MIN - neg), 0.0, detail),
    ]


def _trial_thm2(cfg, rng, extras, trial):
    policy = cfg.policy
    n2 = _dim(rng, 1, cfg.dim_max - 1)
    p = _dim(rng, 1, min(n2, cfg.order_max))
    n1 = _dim(rng, 1, cfg.dim_max - n2)
    m = _dim(rng, 1, cfg.order_max)
    inst = make_commuting_core_weight(
        rng, policy, n1=n1, n2=n2, p=p, m=m, conjugate=bool(trial & 2)
    )
    a = inst.matrices["A"]
    ident = eye(a.shape[0])
    order = m + 2 * p - 2
    checks = []
    detail = {"m": m, "p": p, "order": order}
    checks.append(
        (
            "selfadjoint_at_order",
            *defect(TransformKind.DELTA, adjoint(a), a, ident, order, policy),
            detail,
        )
    )
    if m == 2:
        sharp = 2 * p - 1
        checks.append(
            (
                "selfadjoint_sharpened",
                *defect(TransformKind.DELTA, adjoint(a), a, ident, sharp, policy),
                {**detail, "order": sharp},
            )
        )
    return checks


def _trial_thm3(cfg, rng, extras, trial):
    policy = cfg.policy
    inst = make_commuting_quadruple(
        rng, policy, flavor="triangle-drazin", conjugate=bool(trial & 2),
        **_commuting_params(rng, cfg),
    )
    detail = {k: inst.meta[k] for k in ("dims", "m", "n", "xy_norm")}
    xy = inst.matrices["X"] @ inst.matrices["Y"]
    return _product_sum_checks(inst, xy, "selfadjoint", detail, policy)


def _disjoint_sum(cfg, rng, trial, flavor):
    """Thm 4 / Thm 5 set-up: a quadruple with AB = BA = 0, and the
    conclusion both share, that (A+B)_d* is an (XY, m+n-1)-adjoint of A+B.

    Returns (inst, A+B, (A+B)_d, XY, m+n-1, detail, checks)."""
    params = _quad_params(rng, cfg, 2)
    nca, ncb, nna, nnb = params["dims"]
    inst = make_disjoint_quadruple(
        rng, cfg.policy, flavor=flavor, conjugate=bool(trial & 2),
        **{**params, "dims": (nca, nna, ncb, nnb)},
    )
    a, b, x, y = (inst.matrices[k] for k in "ABXY")
    m, n = inst.meta["m"], inst.meta["n"]
    xy = x @ y
    apb = a + b
    apb_d = drazin_inverse(apb, cfg.policy)
    order = m + n - 1
    detail = {"dims": inst.meta["dims"], "m": m, "n": n}
    check = defect(TransformKind.DELTA, adjoint(apb_d), apb, xy, order, cfg.policy)
    return inst, apb, apb_d, xy, order, detail, [("sum_drazin_adjoint", *check, detail)]


def _trial_thm4(cfg, rng, extras, trial):
    policy = cfg.policy
    inst, apb, apb_d, _, _, detail, checks = _disjoint_sum(cfg, rng, trial, "triangle-drazin")
    # cross-check the block formula for (A+B)_d inside A's own decomposition,
    # the one the generator made to certify the instance
    dd = inst.drazin["A"]
    b = inst.matrices["B"]
    bb = block_view(b, dd)
    b_leak = max(frob(bb.x11), frob(bb.x12), frob(bb.x21))
    checks.append(
        ("b_vanishes_on_core", b_leak, policy.zero_threshold(dd.cond_s * max(1.0, frob(b))), detail)
    )
    t = block_view(apb, dd)
    checks.append(
        (
            "sum_block_diagonal",
            max(frob(t.x12), frob(t.x21)),
            policy.zero_threshold(dd.cond_s * max(1.0, frob(apb))),
            detail,
        )
    )
    core_inv, nil_d = inverse(t.x11, policy), drazin_inverse(t.x22, policy)
    formula = dd.s @ block_diag(core_inv, nil_d) @ dd.s_inv
    scale = dd.cond_s ** 2 * (1.0 + frob(apb_d) + frob(formula))
    checks.append(("drazin_block_formula", frob(apb_d - formula), policy.zero_threshold(scale), detail))
    return checks


def _trial_thm5(cfg, rng, extras, trial):
    _, apb, _, xy, order, detail, checks = _disjoint_sum(cfg, rng, trial, "triangle-adjoint")
    isometric = defect(TransformKind.TRIANGLE, adjoint(apb), apb, xy, order, cfg.policy)
    return [("sum_isometric", *isometric, detail), *checks]


_SUITES = {
    "drazin_axioms": _trial_drazin_axioms,
    "prop1": _trial_prop1,
    "prop2": _trial_prop2,
    "cor1": _trial_cor1,
    "remark1": _trial_remark1,
    "remark2": _trial_remark2,
    "no_left_m_inv": _trial_no_left_m_inv,
    "thm1": _trial_thm1,
    "remark3": _trial_remark3,
    "thm2": _trial_thm2,
    "thm3": _trial_thm3,
    "thm4": _trial_thm4,
    "thm5": _trial_thm5,
}

_LANE = {name: i for i, name in enumerate(sorted(_SUITES))}


def available_suites() -> tuple[str, ...]:
    return tuple(_SUITES)


def _run_trials(cfg: SuiteConfig, trials: range) -> list:
    """One record ``(t, outcome, extras)`` per trial, in trial order. The
    outcome is the trial's checks, None for a skip, or the text of its
    generation error; ``extras`` holds what the trial recorded besides."""
    trial_fn = _SUITES[cfg.suite]
    records = []
    for t in trials:
        extras: dict = {}
        try:
            outcome = trial_fn(cfg, rng_for(cfg.seed, _LANE[cfg.suite], t), extras, t)
        except _Skip:
            outcome = None
        except (GenerationFailed, IllConditioned, Singular) as exc:
            outcome = str(exc)
        records.append((t, outcome, extras))
    return records


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _fan_out(cfg: SuiteConfig) -> list:
    """``_run_trials`` over all trials, in contiguous blocks: the calling
    process runs the first, a pool of forked workers the others. An
    exception escapes with its type, the lowest block's winning, and only
    once the pool has joined every worker, so one from the caller's own
    block waits for the worker blocks. A worker's carries its traceback as
    ``__cause__``. A dead worker breaks the pool, which fails every pending
    block alike, so its error names every block whose results were lost
    ("trials 3..5 or 6..8"), the dead one among them, but no exit code."""
    workers = min(_cpu_count(), cfg.trials)
    if workers == 1 or not hasattr(os, "fork"):
        return _run_trials(cfg, range(cfg.trials))
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    bounds = [cfg.trials * w // workers for w in range(workers + 1)]
    blocks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    with ProcessPoolExecutor(workers - 1, mp_context=get_context("fork")) as pool:
        futures = [pool.submit(_run_trials, cfg, block) for block in blocks[1:]]
        records = _run_trials(cfg, blocks[0])
        for future in futures:
            try:
                records += future.result()
            except BrokenProcessPool:
                lost = " or ".join(
                    f"{block.start}..{block.stop - 1}"
                    for block, f in zip(blocks[1:], futures)
                    if isinstance(f.exception(), BrokenProcessPool)
                )
                raise ChildProcessError(
                    f"suite {cfg.suite}: the worker for trials {lost} "
                    "exited before sending its results"
                ) from None
    return records


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    if cfg.suite not in _SUITES:
        raise UnknownSuite(
            f"unknown suite {cfg.suite!r}; available: {', '.join(_SUITES)}"
        )
    failures: list[TrialFailure] = []
    anomalies: list = []
    generation_errors: list = []
    passes = skips = genfails = 0
    max_residual = 0.0
    max_ratio = 0.0
    for t, checks, extras in _fan_out(cfg):
        anomalies += extras.get("anomalies", [])
        if checks is None:
            skips += 1
            continue
        if isinstance(checks, str):
            genfails += 1
            skips += 1
            generation_errors.append({"trial": t, "error": checks})
            continue
        ok = True
        for clause, residual, threshold, detail in checks:
            residual = float(residual)
            max_residual = max(max_residual, residual)
            if threshold > 0:
                max_ratio = max(max_ratio, residual / threshold)
            if residual > threshold:
                ok = False
                failures.append(TrialFailure(t, clause, residual, float(threshold), detail))
        passes += ok
    if skips > cfg.trials // 2:
        failures.append(
            TrialFailure(
                -1,
                "skip_budget_exceeded",
                float(skips),
                cfg.trials / 2,
                {"skips": skips, "generation_failures": genfails},
            )
        )
    return SuiteReport(
        suite=cfg.suite,
        config=cfg,
        trials=cfg.trials,
        passes=passes,
        skips=skips,
        generation_failures=genfails,
        failures=failures,
        max_residual=max_residual,
        max_ratio=max_ratio,
        anomalies=anomalies,
        generation_errors=generation_errors,
    )
