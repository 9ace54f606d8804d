"""Deterministic, seeded generators for structured operator instances.

Every builder self-certifies: it evaluates the properties the instance is
supposed to have (nilpotency orders, vanishing defects, exact commutation,
Drazin indices) and raises :class:`~opcheck.errors.GenerationFailed` if
certification cannot be achieved within a small retry budget. A builder
that certifies an operator's index does so with the operator's full
core-nilpotent decomposition and hands it over in
``GeneratedInstance.drazin``, so no consumer decomposes that matrix again.
Instances are bit-reproducible functions of their seed; independent streams
are derived by keying a counter-based Philox generator, so parallel and
serial sweeps see identical draws.

Commutation-constrained families (the product/sum and AB = 0 instance
sets) are built constructively on block layouts where the constraints hold
exactly, never by rejection sampling over dense matrices: the constraint
sets have measure zero, so rejection would not terminate.

Builders place an instance through ``_conjugated`` only: one Haar unitary U
per placed instance, drawn after all of its blocks, maps each matrix M to
U M U*; when ``conjugate`` is false, U = I and nothing is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .drazin import PairSelector, core_nilpotent_decompose, resolve_pair
from .errors import GenerationFailed, InvalidOrder
from .kernels import kernel
from .matcore import (
    DEFAULT_POLICY,
    NumericPolicy,
    adjoint,
    block_diag,
    condition,
    eye,
    frob,
    matrix_to_json,
    zeros,
)
from .transforms import TransformKind, defect, delta, triangle

__all__ = [
    "Family",
    "InstanceSpec",
    "GeneratedInstance",
    "rng_for",
    "random_unitary",
    "random_nilpotent",
    "random_invertible",
    "make_drazin_block",
    "make_ab_zero_pair",
    "make_scalar_plus_nilpotent",
    "make_remark3_counterexample",
    "make_commuting_quadruple",
    "make_disjoint_quadruple",
    "make_nilpotent_perturbation",
    "make_product_pairs",
    "make_commuting_core_weight",
    "generate",
]

_MASK64 = (1 << 64) - 1


def _splitmix(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, path); distinct paths give
    statistically independent, individually reproducible streams."""
    h = seed & _MASK64
    for p in path:
        h = _splitmix(h ^ (int(p) & _MASK64))
    key = np.array([seed & _MASK64, h], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _CertFailure(Exception):
    def __init__(self, bad):
        super().__init__(", ".join(f"{n}: {r:.3e} > {t:.3e}" for n, r, t in bad))


def _certify(checks) -> list[tuple[str, float]]:
    bad = [(name, res, thr) for name, res, thr in checks if res > thr]
    if bad:
        raise _CertFailure(bad)
    return [(name, float(res)) for name, res, _ in checks]


def _commutator(name: str, p: np.ndarray, q: np.ndarray, policy: NumericPolicy):
    """Certification check that P and Q commute: (name, ||PQ - QP||_F,
    zero threshold at scale max(1, ||P||_F) max(1, ||Q||_F))."""
    return (
        name,
        frob(p @ q - q @ p),
        policy.zero_threshold(max(1.0, frob(p)) * max(1.0, frob(q))),
    )


_RETRIES = 8


def _with_retries(build):
    last = None
    for _ in range(_RETRIES):
        try:
            return build()
        except _CertFailure as exc:
            last = exc
    raise GenerationFailed(f"certification failed after {_RETRIES} attempts ({last})")


class Family(str, Enum):
    UNITARY = "unitary"
    NILPOTENT = "nilpotent"
    INVERTIBLE = "invertible"
    DRAZIN_BLOCK = "drazin-block"
    AB_ZERO = "ab-zero"
    HYPOTHESIS1 = "hypothesis1"
    REMARK3 = "remark3"
    SCALAR_PLUS_NILPOTENT = "scalar-plus-nilpotent"


@dataclass(frozen=True)
class InstanceSpec:
    """Seeded description of one generated instance (the CLI surface)."""

    family: Family
    dims: tuple[int, ...] = ()
    orders: tuple[int, ...] = ()
    seed: int = 0


def _plain(value):
    """Coerce meta values to JSON-encodable types."""
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


@dataclass(eq=False)
class GeneratedInstance:
    matrices: dict
    certified: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    # core-nilpotent decompositions made while certifying, by matrix name;
    # handed to consumers so they need not decompose again, never serialised
    drazin: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "meta": {k: _plain(v) for k, v in self.meta.items()},
            "certified": [
                {"property": name, "residual": res} for name, res in self.certified
            ],
            "matrices": {k: matrix_to_json(v) for k, v in self.matrices.items()},
        }


# ---------------------------------------------------------------------------
# elementary draws
# ---------------------------------------------------------------------------


def _cgauss(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def _unit_modulus(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * math.pi * rng.random()))


def _core_scalar(rng: np.random.Generator, real: bool) -> complex:
    """Scalar part of a core block: a signed real of modulus in [0.6, 1.6),
    or a unimodular complex."""
    return rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.6) if real else _unit_modulus(rng)


def _weight_scalar(rng: np.random.Generator) -> complex:
    """Scalar weight block: modulus in [0.5, 1.5), uniform phase."""
    return (0.5 + rng.random()) * _unit_modulus(rng)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary (QR of a complex Gaussian with phase fix)."""
    z = _cgauss(rng, n, n)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _distinct_reals(rng, n, lo=0.55, hi=1.9, gap=0.04, signs=True) -> list[float]:
    vals: list[float] = []
    guard = 0
    while len(vals) < n:
        v = float(rng.uniform(lo, hi))
        if signs and rng.random() < 0.5:
            v = -v
        if all(abs(v - w) > gap for w in vals):
            vals.append(v)
        guard += 1
        if guard > 1000:
            raise GenerationFailed("could not draw distinct eigenvalues")
    return vals


def _reciprocal_reals(rng, n) -> list[float]:
    ts = _distinct_reals(rng, n // 2, lo=1.2, hi=1.85, gap=0.03, signs=False)
    vals = ts + [1.0 / t for t in ts]
    if n % 2:
        vals.append(1.0 if rng.random() < 0.5 else -1.0)
    return vals


def random_invertible(
    n: int, rng: np.random.Generator, spectrum: str = "generic"
) -> np.ndarray:
    """Well-conditioned invertible matrix with a chosen eigenvalue structure.

    spectrum:
      generic     -- complex eigenvalues with moduli in [0.55, 1.9]
      unitary     -- Haar unitary
      signs       -- unitary conjugate of diag(+-1)
      selfadjoint -- unitary conjugate of a distinct real diagonal
      real        -- (non-normal) similarity conjugate of a distinct real diagonal
      reciprocal  -- like real, eigenvalues paired (t, 1/t) plus +-1 leftover
    """
    if spectrum == "generic":
        # Schur-style construction keeps eigenvalue moduli bounded away
        # from zero, so powers of the core never lose rank numerically.
        lam = rng.uniform(0.55, 1.9, size=n) * np.exp(2j * math.pi * rng.random(n))
        t = np.diag(lam.astype(np.complex128)) + 0.35 * np.triu(_cgauss(rng, n, n), 1)
        return _conjugated(rng, True, t)[1]
    if spectrum == "unitary":
        return random_unitary(n, rng)
    if spectrum in ("signs", "selfadjoint"):
        v = random_unitary(n, rng)
        d = np.where(rng.random(n) < 0.5, -1.0, 1.0) if spectrum == "signs" else _distinct_reals(rng, n)
        return v @ np.diag(np.array(d, dtype=np.complex128)) @ adjoint(v)
    if spectrum in ("real", "reciprocal"):
        d = _reciprocal_reals(rng, n) if spectrum == "reciprocal" else _distinct_reals(rng, n)
        u = random_unitary(n, rng)
        v = random_unitary(n, rng)
        sv = np.exp(rng.uniform(math.log(0.75), math.log(1.33), size=n))
        q = u @ np.diag(sv).astype(np.complex128) @ v
        return q @ np.diag(np.array(d, dtype=np.complex128)) @ np.linalg.solve(
            q, eye(n)
        )
    raise ValueError(f"unknown spectrum {spectrum!r}")


def random_nilpotent(n: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly q-nilpotent n x n matrix (N^q = 0 structurally, N^(q-1) != 0).

    Coordinates are partitioned into q consecutive groups and N carries
    random dense blocks mapping each group to the previous one, so the
    nilpotency order is exact by support, not by cancellation.
    """
    if q < 1 or q > max(n, 1):
        raise InvalidOrder(f"nilpotency order {q} invalid for size {n}")
    if q == 1:
        return zeros(n, n)

    sizes = [1] * q
    for _ in range(n - q):
        sizes[int(rng.integers(0, q))] += 1
    starts = np.concatenate([[0], np.cumsum(sizes)])

    for _ in range(60):
        mat = zeros(n, n)
        for lev in range(q - 1):
            r0, r1 = starts[lev], starts[lev + 1]
            c0, c1 = starts[lev + 1], starts[lev + 2]
            shape = (r1 - r0, c1 - c0)
            # entry moduli bounded away from zero so chain products survive
            block = (0.4 + 0.6 * rng.random(shape)) * np.exp(
                2j * math.pi * rng.random(shape)
            )
            mat[r0:r1, c0:c1] = block / math.sqrt(c1 - c0)
        if frob(np.linalg.matrix_power(mat, q - 1)) > 1e-3:
            return mat
    raise GenerationFailed(f"could not realize a {q}-nilpotent of size {n}")


def _nil_summand(k: int, rng: np.random.Generator) -> np.ndarray:
    """k x k nilpotent summand of order min(2, k); empty for k = 0."""
    return random_nilpotent(k, min(2, k), rng) if k else zeros(0, 0)


def _conjugated(rng: np.random.Generator, conjugate: bool, *mats: np.ndarray) -> tuple:
    """The one Haar placement: ``(U, U M1 U*, U M2 U*, ...)`` with one Haar
    unitary U drawn here, after the caller has drawn every M. When
    ``conjugate`` is false it returns ``(I, M1, M2, ...)`` and draws nothing."""
    n = mats[0].shape[0]
    if not conjugate:
        return (eye(n), *mats)
    u = random_unitary(n, rng)
    return (u, *(u @ t @ adjoint(u) for t in mats))


# ---------------------------------------------------------------------------
# structured families
# ---------------------------------------------------------------------------


def make_drazin_block(
    n1: int,
    n2: int,
    p: int,
    rng: np.random.Generator,
    policy: NumericPolicy = DEFAULT_POLICY,
    *,
    conjugate: bool = False,
    spectrum: str = "generic",
) -> GeneratedInstance:
    """A = U (A1 (+) A2) U* with A1 invertible and A2 exactly p-nilpotent.

    ``p = 0`` requires ``n2 = 0`` (invertible A); otherwise 1 <= p <= n2.
    The constructed index is certified against A's core-nilpotent
    decomposition, which the instance carries as ``drazin["A"]``.
    """
    if n2 == 0:
        if p != 0:
            raise InvalidOrder("p must be 0 when the nilpotent summand is empty")
    elif not 1 <= p <= n2:
        raise InvalidOrder(f"index {p} invalid for nilpotent size {n2}")
    if n1 + n2 == 0:
        raise InvalidOrder("instance must have positive size")

    def build():
        a1 = random_invertible(n1, rng, spectrum)
        a2 = random_nilpotent(n2, p, rng) if n2 else zeros(0, 0)
        u, a = _conjugated(rng, conjugate, block_diag(a1, a2))
        dd = core_nilpotent_decompose(a, policy)
        checks = [
            ("index", abs(dd.p - p), 0.5),
            ("core_condition", condition(a1), 100.0),
        ]
        if n2:
            a2_p = np.linalg.matrix_power(a2, p)
            checks.append(("nil_order", frob(a2_p), policy.zero_threshold(1.0)))
            if p > 1:
                shortfall = max(0.0, 1e-3 - frob(np.linalg.matrix_power(a2, p - 1)))
                checks.append(("nil_order_sharp", shortfall, 0.0))
        certified = _certify(checks)
        return GeneratedInstance(
            matrices={"A": a, "A1": a1, "A2": a2, "U": u},
            certified=certified,
            meta={"n1": n1, "n2": n2, "p": p, "spectrum": spectrum, "conjugate": conjugate},
            drazin={"A": dd},
        )

    return _with_retries(build)


def make_ab_zero_pair(
    n1: int,
    n2: int,
    rng: np.random.Generator,
    policy: NumericPolicy = DEFAULT_POLICY,
    *,
    qa: int | None = None,
    qb: int | None = None,
    invertible_tail: bool = False,
    conjugate: bool = False,
) -> GeneratedInstance:
    """Commuting pair with AB = BA = 0 exactly.

    A = A1 (+) A2 with A1 invertible (distinct real spectrum) on the first
    n1 coordinates and A2 nilpotent on the first half of the trailing n2;
    B vanishes there and acts nilpotently on the second half (plus,
    optionally, an invertible tail so that B has a nonzero core of its
    own). All the structure lives on disjoint coordinate blocks, so the
    product and commutator vanish identically rather than to rounding.
    """
    if n2 < 2:
        raise InvalidOrder("need n2 >= 2 to split the nilpotent part")
    h2c = max(1, n2 // 3) if invertible_tail else 0
    h2a = (n2 - h2c + 1) // 2
    h2b = n2 - h2c - h2a
    qa = qa if qa is not None else min(2, h2a)
    qb = qb if qb is not None else max(1, min(2, h2b))
    if not 1 <= qa <= h2a:
        raise InvalidOrder(f"qa={qa} invalid for block of size {h2a}")
    # an empty nilpotent block of B leaves B of index 1
    if not 1 <= qb <= max(1, h2b):
        raise InvalidOrder(f"qb={qb} invalid for block of size {h2b}")

    def build():
        a1 = random_invertible(n1, rng, "real")
        na = random_nilpotent(h2a, qa, rng)
        nb = random_nilpotent(h2b, qb, rng)
        mb = random_invertible(h2c, rng, "real")
        a = block_diag(a1, na, zeros(h2b, h2b), zeros(h2c, h2c))
        b = block_diag(zeros(n1, n1), zeros(h2a, h2a), nb, mb)
        u, a, b = _conjugated(rng, conjugate, a, b)
        dd_a = core_nilpotent_decompose(a, policy)
        dd_b = core_nilpotent_decompose(b, policy)
        certified = _certify(
            [
                ("ab_product", frob(a @ b), policy.atol),
                ("ba_product", frob(b @ a), policy.atol),
                ("commutator", frob(a @ b - b @ a), policy.atol),
                ("index_A", abs(dd_a.p - qa), 0.5),
                ("index_B", abs(dd_b.p - qb), 0.5),
            ]
        )
        return GeneratedInstance(
            matrices={
                "A": a,
                "B": b,
                "A1": a1,
                "A2": block_diag(na, zeros(h2b, h2b), zeros(h2c, h2c)),
                "B22": block_diag(zeros(h2a, h2a), nb, mb),
                "U": u,
            },
            certified=certified,
            meta={
                "n1": n1,
                "n2": n2,
                "qa": qa,
                "qb": qb,
                "layout": (n1, h2a, h2b, h2c),
                "invertible_tail": invertible_tail,
            },
            drazin={"A": dd_a, "B": dd_b},
        )

    return _with_retries(build)


def make_scalar_plus_nilpotent(
    n: int,
    q: int,
    s: complex,
    rng: np.random.Generator,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> GeneratedInstance:
    """A = s I + N with N exactly q-nilpotent.

    Certifies the order-(2q-1) selfadjointness defect when s is real and
    the order-(2q-1) isometry defect when |s| = 1.
    """

    def build():
        nil = random_nilpotent(n, q, rng)
        a = complex(s) * eye(n) + nil
        m = 2 * q - 1
        certified = _certify(
            [
                (name, *defect(kind, adjoint(a), a, eye(n), m, policy))
                for name, kind, holds in (
                    ("selfadjoint_defect", TransformKind.DELTA, abs(complex(s).imag) < 1e-15),
                    ("isometry_defect", TransformKind.TRIANGLE, abs(abs(complex(s)) - 1.0) < 1e-15),
                )
                if holds
            ]
        )
        return GeneratedInstance(
            matrices={"A": a, "N": nil},
            certified=certified,
            meta={"n": n, "q": q, "s": complex(s), "order": m},
        )

    return _with_retries(build)


def make_remark3_counterexample(
    rng: np.random.Generator,
    policy: NumericPolicy = DEFAULT_POLICY,
    n1: int = 2,
) -> GeneratedInstance:
    """The one-way-implication witness: a pair (A, X) whose order-3
    selfadjointness defect vanishes while the order-3 triangle defect
    against the adjoint of the Drazin inverse stays far from zero.

    A = A1 (+) N with A1 an invertible real diagonal, N a 2-nilpotent
    2 x 2 block; X = X11 (+) I with X11 diagonal. The surviving defect is
    exactly the identity on the nilpotent summand, so its norm is sqrt(2).
    """

    def build():
        d = np.array(
            _distinct_reals(rng, n1, lo=0.5, hi=2.5, signs=False), dtype=np.complex128
        )
        a1 = np.diag(d)
        x11 = np.diag(np.array([_weight_scalar(rng) for _ in range(n1)], dtype=np.complex128))
        alpha = (0.6 + 0.8 * rng.random()) * _unit_modulus(rng)
        nil = zeros(2, 2)
        nil[0, 1] = alpha
        a = block_diag(a1, nil)
        x = block_diag(x11, eye(2))
        dd = core_nilpotent_decompose(a, policy)
        pos = frob(delta(adjoint(a), a, x, 3))
        neg = frob(triangle(adjoint(dd.a_d), a, x, 3))
        certified = _certify(
            [
                ("delta3_defect", pos, 1e-9),
                ("triangle3_norm_shortfall", max(0.0, 0.5 - neg), 0.0),
            ]
        )
        return GeneratedInstance(
            matrices={"A": a, "X": x, "A1": a1, "X11": x11, "N": nil},
            certified=certified,
            meta={"n1": n1, "delta3": pos, "triangle3": neg},
            drazin={"A": dd},
        )

    return _with_retries(build)


def make_commuting_core_weight(
    rng: np.random.Generator,
    policy: NumericPolicy = DEFAULT_POLICY,
    *,
    n1: int,
    n2: int,
    p: int,
    m: int,
    conjugate: bool = True,
) -> GeneratedInstance:
    """(A, X) with A1 selfadjoint, X = X11 (+) 0, X11 invertible, [A, X] = 0,
    and the order-m triangle defect of (A_d*, A) on X equal to zero.

    X11 is a function of A1 (same unitary eigenbasis, nonzero diagonal), so
    commutation and the defect identity hold exactly by construction.
    """
    if not 1 <= p <= n2:
        raise InvalidOrder(f"index {p} invalid for nilpotent size {n2}")

    def build():
        v = random_unitary(n1, rng)
        d = np.array(_distinct_reals(rng, n1), dtype=np.complex128)
        a1 = v @ np.diag(d) @ adjoint(v)
        f = np.array(
            [(0.5 + 1.3 * rng.random()) * _unit_modulus(rng) for _ in range(n1)],
            dtype=np.complex128,
        )
        x11 = v @ np.diag(f) @ adjoint(v)
        a2 = random_nilpotent(n2, p, rng)
        u, a, x = _conjugated(rng, conjugate, block_diag(a1, a2), block_diag(x11, zeros(n2, n2)))
        dd = core_nilpotent_decompose(a, policy)
        b = adjoint(dd.a_d)
        certified = _certify(
            [
                ("triangle_defect", *defect(TransformKind.TRIANGLE, b, a, x, m, policy)),
                ("commutator_AX", frob(a @ x - x @ a), policy.zero_threshold(frob(a) * frob(x))),
                ("weight_core_condition", condition(x11), 1e4),
                ("index", abs(dd.p - p), 0.5),
            ]
        )
        return GeneratedInstance(
            matrices={"A": a, "X": x, "A1": a1, "X11": x11, "A2": a2, "U": u},
            certified=certified,
            meta={"n1": n1, "n2": n2, "p": p, "m": m},
            drazin={"A": dd},
        )

    return _with_retries(build)


# ---------------------------------------------------------------------------
# commutation-constrained quadruples
# ---------------------------------------------------------------------------


def _kernel_sample_block(kind, b_block, a_block, m, policy, rng):
    """Unit-norm sample from the weight kernel of a single diagonal block."""
    basis = kernel(kind, b_block, a_block, m, policy)
    if basis.dim == 0:
        raise _CertFailure([("block_kernel_dim", 0.0, -1.0)])
    return basis.sample(rng)


# weight hypothesis of each quadruple flavor: the transform, and the partner
# of A (of B) in it
_WEIGHT_HYPOTHESIS = {
    "triangle-drazin": (TransformKind.TRIANGLE, PairSelector.DRAZIN_ADJOINT),
    "triangle-adjoint": (TransformKind.TRIANGLE, PairSelector.ADJOINT),
    "delta": (TransformKind.DELTA, PairSelector.ADJOINT),
}


def _quadruple_commutator_checks(a, b, x, y, policy):
    return [
        _commutator("commutator_XY", x, y, policy),
        _commutator("commutator_AB", a, b, policy),
        _commutator("commutator_AstarY", adjoint(a), y, policy),
        _commutator("commutator_BstarX", adjoint(b), x, policy),
    ]


def make_commuting_quadruple(
    rng: np.random.Generator,
    policy: NumericPolicy = DEFAULT_POLICY,
    *,
    flavor: str = "triangle-drazin",
    dims: tuple[int, int, int, int] = (2, 2, 1, 1),
    qa: int = 1,
    qb: int = 1,
    m: int,
    n: int,
    shared_weight: bool = False,
    conjugate: bool = True,
) -> GeneratedInstance:
    """Commuting quadruple (A, B, X, Y) with exact cross-commutation.

    Layout: H = Ca (+) Cb (+) Na (+) Nb. A acts as (scalar + nilpotent) on
    Ca, as a real scalar on Cb, nilpotently on Na and as zero on Nb; B is
    the mirror image. X is kernel-sampled on Ca (order m) and scalar on
    Cb; Y the mirror. All four cross commutators vanish identically
    because every pair of factors meets only through scalar blocks.

    flavor "triangle-drazin": X is sampled from the weight kernel of the
    order-m triangle transform of (A_d*, A) (core scalars real); flavor
    "delta": from the kernel of the order-m delta transform of (A*, A).
    """
    nca, ncb, nna, nnb = dims
    if not 1 <= qa <= nca or not 1 <= qb <= ncb:
        raise InvalidOrder(f"orders ({qa},{qb}) invalid for core dims ({nca},{ncb})")
    if flavor not in ("triangle-drazin", "delta"):
        raise ValueError(f"unknown flavor {flavor!r}")
    kind, sel = _WEIGHT_HYPOTHESIS[flavor]

    def build():
        sa, ta, sb, tb = (_core_scalar(rng, True) for _ in range(4))
        a_ca = sa * eye(nca) + random_nilpotent(nca, qa, rng)
        b_cb = tb * eye(ncb) + random_nilpotent(ncb, qb, rng)
        nil_a, nil_b = _nil_summand(nna, rng), _nil_summand(nnb, rng)

        a = block_diag(a_ca, ta * eye(ncb), nil_a, zeros(nnb, nnb))
        b = block_diag(sb * eye(nca), b_cb, zeros(nna, nna), nil_b)

        x_ca = _kernel_sample_block(kind, resolve_pair(a_ca, sel, policy), a_ca, m, policy, rng)
        y_cb = _kernel_sample_block(kind, resolve_pair(b_cb, sel, policy), b_cb, n, policy, rng)

        if shared_weight:
            x = block_diag(x_ca, y_cb, zeros(nna, nna), zeros(nnb, nnb))
            y = x
        else:
            c, d = _weight_scalar(rng), _weight_scalar(rng)
            x = block_diag(x_ca, c * eye(ncb), zeros(nna, nna), zeros(nnb, nnb))
            y = block_diag(d * eye(nca), y_cb, zeros(nna, nna), zeros(nnb, nnb))

        _, a, b, x, y = _conjugated(rng, conjugate, a, b, x, y)
        checks = [
            ("defect_A_X", *defect(kind, resolve_pair(a, sel, policy), a, x, m, policy)),
            ("defect_B_Y", *defect(kind, resolve_pair(b, sel, policy), b, y, n, policy)),
        ]
        if shared_weight:
            # the shared-weight statement only assumes [A, B] = 0
            checks.append(_commutator("commutator_AB", a, b, policy))
        else:
            checks.extend(_quadruple_commutator_checks(a, b, x, y, policy))
        certified = _certify(checks)
        return GeneratedInstance(
            matrices={"A": a, "B": b, "X": x, "Y": y},
            certified=certified,
            meta={
                "flavor": flavor,
                "dims": dims,
                "qa": qa,
                "qb": qb,
                "m": m,
                "n": n,
                "shared_weight": shared_weight,
                "xy_norm": frob(x @ y),
            },
        )

    return _with_retries(build)


def make_disjoint_quadruple(
    rng: np.random.Generator,
    policy: NumericPolicy = DEFAULT_POLICY,
    *,
    flavor: str = "triangle-drazin",
    dims: tuple[int, int, int, int] = (2, 1, 2, 1),
    qa: int = 1,
    qb: int = 1,
    m: int,
    n: int,
    conjugate: bool = True,
) -> GeneratedInstance:
    """Quadruple (A, B, X, Y) with AB = BA = 0 exactly plus the commuting
    hypotheses; A and B live on disjoint coordinate blocks.

    Layout: H = CoreA (+) NilA (+) CoreB (+) NilB. flavor picks the weight
    hypothesis: "triangle-drazin" (real core scalars, kernel of the
    triangle transform of (A_d*, A)) or "triangle-adjoint" (unimodular
    core scalars, kernel of the isometry-style transform of (A*, A)).
    """
    n1a, nsa, n1b, nsb = dims
    if not 1 <= qa <= n1a or not 1 <= qb <= n1b:
        raise InvalidOrder(f"orders ({qa},{qb}) invalid for core dims ({n1a},{n1b})")
    if flavor not in ("triangle-drazin", "triangle-adjoint"):
        raise ValueError(f"unknown flavor {flavor!r}")
    kind, sel = _WEIGHT_HYPOTHESIS[flavor]

    def build():
        sa, sb = (_core_scalar(rng, flavor == "triangle-drazin") for _ in range(2))
        a_core = sa * eye(n1a) + random_nilpotent(n1a, qa, rng)
        b_core = sb * eye(n1b) + random_nilpotent(n1b, qb, rng)
        nil_a, nil_b = _nil_summand(nsa, rng), _nil_summand(nsb, rng)

        a = block_diag(a_core, nil_a, zeros(n1b, n1b), zeros(nsb, nsb))
        b = block_diag(zeros(n1a, n1a), zeros(nsa, nsa), b_core, nil_b)

        x_a = _kernel_sample_block(kind, resolve_pair(a_core, sel, policy), a_core, m, policy, rng)
        y_b = _kernel_sample_block(kind, resolve_pair(b_core, sel, policy), b_core, n, policy, rng)
        x = block_diag(x_a, zeros(nsa, nsa), zeros(n1b, n1b), zeros(nsb, nsb))
        y = block_diag(zeros(n1a, n1a), zeros(nsa, nsa), y_b, zeros(nsb, nsb))

        _, a, b, x, y = _conjugated(rng, conjugate, a, b, x, y)
        dd = core_nilpotent_decompose(a, policy) if sel.needs_drazin else None
        ba_full = sel.partner(a, dd.a_d if dd else None)
        checks = [
            ("ab_product", frob(a @ b), policy.atol),
            ("ba_product", frob(b @ a), policy.atol),
            ("defect_A_X", *defect(kind, ba_full, a, x, m, policy)),
            ("defect_B_Y", *defect(kind, resolve_pair(b, sel, policy), b, y, n, policy)),
        ]
        checks.extend(_quadruple_commutator_checks(a, b, x, y, policy))
        certified = _certify(checks)
        return GeneratedInstance(
            matrices={"A": a, "B": b, "X": x, "Y": y},
            certified=certified,
            meta={
                "flavor": flavor,
                "dims": dims,
                "qa": qa,
                "qb": qb,
                "m": m,
                "n": n,
                "xy_norm": frob(x @ y),
            },
            drazin={"A": dd} if dd else {},
        )

    return _with_retries(build)


def make_nilpotent_perturbation(
    rng: np.random.Generator,
    policy: NumericPolicy = DEFAULT_POLICY,
    *,
    flavor: str = "delta",
    na: int = 2,
    nb: int = 2,
    qa: int = 1,
    m: int,
    nil_placement: str = "disjoint",
    conjugate: bool = True,
) -> GeneratedInstance:
    """(A, B, X, N) with [A, N] = 0 and the order-m defect of (B, A) on X zero.

    flavor "delta" uses B = A* with a real core scalar (selfadjointness
    setting); flavor "triangle" uses B = A* with a unimodular core scalar
    (left-invertibility setting). ``nil_placement`` puts N either on a
    scalar block disjoint from the active core ("disjoint") or as a power
    of the core nilpotent ("power").
    """
    if not 1 <= qa <= na:
        raise InvalidOrder(f"core order {qa} invalid for size {na}")
    if flavor not in ("delta", "triangle"):
        raise ValueError(f"unknown flavor {flavor!r}")
    if nil_placement not in ("disjoint", "power"):
        raise ValueError(f"unknown placement {nil_placement!r}")
    if nil_placement == "power" and qa < 2:
        raise InvalidOrder("power placement needs a nontrivial core nilpotent")
    if nil_placement == "disjoint" and nb < 1:
        raise InvalidOrder("disjoint placement needs a nonempty scalar block")

    def build():
        sa, tb = (_core_scalar(rng, flavor == "delta") for _ in range(2))
        core_nil = random_nilpotent(na, qa, rng)
        a_core = sa * eye(na) + core_nil
        a = block_diag(a_core, tb * eye(nb))

        kind = TransformKind(flavor)
        x_a = _kernel_sample_block(kind, adjoint(a_core), a_core, m, policy, rng)
        x_b = _cgauss(rng, nb, nb)
        x = block_diag(x_a, x_b)

        if nil_placement == "disjoint":
            q = min(2, nb)
            pert = block_diag(zeros(na, na), random_nilpotent(nb, q, rng))
        else:
            r = 1 if qa <= 2 else int(rng.integers(1, qa - 1))
            coeff = (0.4 + rng.random()) * _unit_modulus(rng)
            pert = block_diag(coeff * np.linalg.matrix_power(core_nil, r), zeros(nb, nb))
            q = -(-qa // r)  # ceil(qa / r): exact nilpotency order of core_nil^r

        _, a, x, pert = _conjugated(rng, conjugate, a, x, pert)
        b = adjoint(a)
        certified = _certify(
            [
                ("defect_A_X", *defect(kind, b, a, x, m, policy)),
                _commutator("commutator_AN", a, pert, policy),
                (
                    "pert_nilpotency",
                    frob(np.linalg.matrix_power(pert, q)),
                    policy.zero_threshold(1.0),
                ),
            ]
        )
        return GeneratedInstance(
            matrices={"A": a, "B": b, "X": x, "N": pert},
            certified=certified,
            meta={"flavor": flavor, "m": m, "q": q, "qa": qa, "placement": nil_placement},
        )

    return _with_retries(build)


# partner of A_i in each pair family; B_i = A_i^(-1) is the Drazin inverse
# of an invertible A_i
_PAIR_FAMILY = {"adjoint": PairSelector.ADJOINT, "inverse": PairSelector.DRAZIN}


def make_product_pairs(
    rng: np.random.Generator,
    policy: NumericPolicy = DEFAULT_POLICY,
    *,
    families: tuple[str, str] = ("adjoint", "adjoint"),
    na: int = 2,
    nb: int = 2,
    qa: int = 1,
    qb: int = 1,
    m1: int,
    m2: int,
    conjugate: bool = True,
) -> GeneratedInstance:
    """Two pairs (B1, A1), (B2, A2) with weights X1, X2, active on disjoint
    blocks, each left (Xi, mi)-invertible, with every cross commutator
    exactly zero.

    family "adjoint": Ai = (unimodular scalar + nilpotent) on its block,
    Bi = Ai*; family "inverse": Ai invertible with distinct real spectrum,
    Bi = Ai^(-1). Off its own block every operator of pair i is a scalar
    chosen so it cancels inside the pair-i transform.
    """
    if not 1 <= qa <= na or not 1 <= qb <= nb:
        raise InvalidOrder(f"orders ({qa},{qb}) invalid for dims ({na},{nb})")
    for fam in families:
        if fam not in _PAIR_FAMILY:
            raise ValueError(f"unknown pair family {fam!r}")

    def one_pair(fam, size, q, order):
        if fam == "adjoint":
            alpha = _unit_modulus(rng) * eye(size) + random_nilpotent(size, q, rng)
        else:
            alpha = random_invertible(size, rng, "real")
        beta = resolve_pair(alpha, _PAIR_FAMILY[fam], policy)
        xi = _kernel_sample_block(TransformKind.TRIANGLE, beta, alpha, order, policy, rng)
        return alpha, beta, xi

    def build():
        alpha1, beta1, xi1 = one_pair(families[0], na, qa, m1)
        alpha2, beta2, xi2 = one_pair(families[1], nb, qb, m2)
        # scalar continuations: pair-i operators act as reciprocal scalars
        # on the other pair's block, so transforms cancel there exactly
        w1, w2 = (_unit_modulus(rng) if fam == "adjoint" else complex(rng.uniform(0.6, 1.6))
                  for fam in families)
        a1 = block_diag(alpha1, w1 * eye(nb))
        b1 = block_diag(beta1, (1.0 / w1) * eye(nb))
        a2 = block_diag(w2 * eye(na), alpha2)
        b2 = block_diag((1.0 / w2) * eye(na), beta2)
        x1 = block_diag(xi1, _weight_scalar(rng) * eye(nb))
        x2 = block_diag(_weight_scalar(rng) * eye(na), xi2)
        _, a1, b1, x1, a2, b2, x2 = _conjugated(rng, conjugate, a1, b1, x1, a2, b2, x2)

        certified = _certify(
            [
                ("defect_pair1", *defect(TransformKind.TRIANGLE, b1, a1, x1, m1, policy)),
                ("defect_pair2", *defect(TransformKind.TRIANGLE, b2, a2, x2, m2, policy)),
                _commutator("commutator_A1A2", a1, a2, policy),
                _commutator("commutator_A1B2", a1, b2, policy),
                _commutator("commutator_X1X2", x1, x2, policy),
                _commutator("commutator_A1X2", a1, x2, policy),
                _commutator("commutator_A2X1", a2, x1, policy),
                _commutator("commutator_B1B2", b1, b2, policy),
                _commutator("commutator_B2X1", b2, x1, policy),
            ]
        )
        return GeneratedInstance(
            matrices={"A1": a1, "B1": b1, "X1": x1, "A2": a2, "B2": b2, "X2": x2},
            certified=certified,
            meta={"families": families, "m1": m1, "m2": m2, "qa": qa, "qb": qb},
        )

    return _with_retries(build)


# ---------------------------------------------------------------------------
# CLI dispatcher
# ---------------------------------------------------------------------------


_FAMILY_LANE = {fam: i for i, fam in enumerate(Family)}

# the accepted counts of dims and the count of orders each family takes
_ARITY = {
    Family.UNITARY: ((1,), 0), Family.NILPOTENT: ((1,), 1), Family.INVERTIBLE: ((1,), 0),
    Family.DRAZIN_BLOCK: ((2,), 1), Family.AB_ZERO: ((2,), 2), Family.HYPOTHESIS1: ((4,), 2),
    Family.REMARK3: ((0, 1), 0), Family.SCALAR_PLUS_NILPOTENT: ((1,), 1),
}


def generate(spec: InstanceSpec, policy: NumericPolicy = DEFAULT_POLICY) -> GeneratedInstance:
    """Build the instance described by ``spec`` (deterministic per seed)."""
    if any(d < 0 for d in spec.dims):
        raise InvalidOrder(f"dims must be nonnegative, got {list(spec.dims)}")
    fam = Family(spec.family)
    dims, orders = _ARITY[fam]
    if len(spec.dims) not in dims or len(spec.orders) != orders:
        raise InvalidOrder(
            f"family {fam.value} takes {' or '.join(map(str, dims))} dims and {orders} orders, "
            f"got {len(spec.dims)} and {len(spec.orders)}"
        )
    rng = rng_for(spec.seed, _FAMILY_LANE[fam])

    if fam == Family.UNITARY:
        def build_unitary():
            u = random_unitary(spec.dims[0], rng)
            resid = frob(adjoint(u) @ u - eye(spec.dims[0]))
            certified = _certify([("unitarity", resid, 1e-12)])
            return GeneratedInstance({"A": u}, certified, {"n": spec.dims[0]})

        return _with_retries(build_unitary)

    if fam == Family.NILPOTENT:
        n, q = spec.dims[0], spec.orders[0]

        def build_nilpotent():
            nil = random_nilpotent(n, q, rng)
            dd = core_nilpotent_decompose(nil, policy)
            certified = _certify(
                [
                    ("nil_order", frob(np.linalg.matrix_power(nil, q)), policy.zero_threshold(1.0)),
                    ("index", abs(dd.p - (q if n else 0)), 0.5),
                ]
            )
            return GeneratedInstance({"A": nil}, certified, {"n": n, "q": q}, {"A": dd})

        return _with_retries(build_nilpotent)

    if fam == Family.INVERTIBLE:
        def build_invertible():
            a = random_invertible(spec.dims[0], rng)
            certified = _certify([("condition", condition(a), 100.0)])
            return GeneratedInstance({"A": a}, certified, {"n": spec.dims[0]})

        return _with_retries(build_invertible)

    if fam == Family.DRAZIN_BLOCK:
        return make_drazin_block(spec.dims[0], spec.dims[1], spec.orders[0], rng, policy)

    if fam == Family.AB_ZERO:
        return make_ab_zero_pair(
            spec.dims[0], spec.dims[1], rng, policy, qa=spec.orders[0], qb=spec.orders[1]
        )

    if fam == Family.HYPOTHESIS1:
        qa, qb = spec.orders
        return make_commuting_quadruple(
            rng, policy, dims=spec.dims, qa=qa, qb=qb, m=2 * qa - 1, n=2 * qb - 1
        )

    if fam == Family.REMARK3:
        n1 = spec.dims[0] if spec.dims else 2
        return make_remark3_counterexample(rng, policy, n1=n1)

    s = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)  # Family.SCALAR_PLUS_NILPOTENT
    return make_scalar_plus_nilpotent(spec.dims[0], spec.orders[0], s, rng, policy)
