"""Closed-form kernel dimensions and minimal orders for normal-plus-nilpotent
operators.

Take A = V (+)_i (l_i I + N_i) V^* with V unitary and each N_i nilpotent
with known Jordan block sizes, and B = A^*. In the coordinates
Y = V^* X V the one-step map L acts on each block pair Y_ij on its own:
as (conj(l_i) - l_j) + (N_i^* Y - Y N_j) for delta, and as
conj(l_i) l_j (I + P) Y (I + Q) - Y, with P = N_i^* / conj(l_i) and
Q = N_j / l_j, for triangle. So L is invertible on Y_ij unless
conj(l_i) = l_j (delta) or conj(l_i) l_j = 1 (triangle). Where it is
singular it is nilpotent with the Jordan structure of the Kronecker sum
of the two nilpotent parts; for triangle (I + P) (x) (I + Q) - I has that
structure too, as one sees by taking logarithms. Two Jordan blocks of
sizes a and b give blocks of sizes a + b - 1, a + b - 3, ..., |a - b| + 1
(the sl_2 Clebsch-Gordan rule; Humphreys, *Introduction to Lie Algebras
and Representation Theory*, 1972, section 7), and a nilpotent Jordan
block of size s has a kernel of dimension min(m, s) under its m-th power.

For X = I only the diagonal block pairs Y_ii carry a defect. L is
invertible there unless l_i is real (delta) or unimodular (triangle); where
it is singular, l_i I + N_i is a strict (2q_i - 1)-selfadjoint or
-isometric block, q_i its largest Jordan block (Agler & Stankus,
*m-Isometric transformations of Hilbert space I*, IEOT 21, 1995;
Bermudez, Martinon & Noda, JMAA 407, 2013; Agler, Helton & Stankus,
*Classification of hereditary matrices*, LAA 274, 1998).

This module is test-only and uses numpy and the standard library only.
"""

import numpy as np

# well-separated eigenvalues; the delta palette holds an exact conjugate
# pair, so that some off-diagonal block pairs are singular
PALETTE = {
    "delta": (1.0, -0.5, 2.0, 0.5 + 1.0j, 0.5 - 1.0j),
    "triangle": (1.0, -1.0, 1.0j, -1.0j, (1.0 + 1.0j) / np.sqrt(2.0)),
}
MAX_N = 8
MAX_BLOCK = 4


def draw(
    kind: str, rng: np.random.Generator, max_n: int = MAX_N, max_block: int = MAX_BLOCK
) -> tuple[tuple, tuple]:
    """One to three distinct eigenvalues from ``PALETTE[kind]`` (unit
    modulus for triangle) and, per eigenvalue, one or two Jordan blocks of
    sizes 1..max_block, at most max_n rows in all."""
    palette = PALETTE[kind]
    picks = rng.choice(len(palette), size=int(rng.integers(1, 4)), replace=False)
    eigs, sizes, n = [], [], 0
    for k in picks:
        blocks = []
        for _ in range(int(rng.integers(1, 3))):
            s = int(rng.integers(1, max_block + 1))
            if n + s <= max_n:
                blocks.append(s)
                n += s
        if blocks:
            eigs.append(complex(palette[k]))
            sizes.append(tuple(blocks))
    return tuple(eigs), tuple(sizes)


def build(eigs, sizes, rng: np.random.Generator) -> np.ndarray:
    """A = V (+)_i (l_i I + N_i) V^*, where N_i has one Jordan chain per
    entry of ``sizes[i]`` with superdiagonal weights in [0.5, 1.5] and V is
    a Haar unitary."""
    diag, sup = [], []
    for lam, blocks in zip(eigs, sizes):
        for s in blocks:
            diag += [lam] * s
            sup += list(rng.uniform(0.5, 1.5, s - 1)) + [0.0]
    n = len(diag)
    core = np.diag(np.asarray(diag, dtype=np.complex128))
    core += np.diag(np.asarray(sup[:-1], dtype=np.complex128), 1)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v = q * (np.diag(r) / np.abs(np.diag(r)))
    return v @ core @ v.conj().T


def _singular(kind: str, li: complex, lj: complex) -> bool:
    """Whether L is singular on the block pair (i, j); the palettes are
    well separated, so a loose comparison decides it."""
    if kind == "triangle":
        return abs(np.conj(li) * lj - 1.0) <= 1e-12
    return abs(np.conj(li) - lj) <= 1e-12


def pair_dim(a: int, b: int, m: int) -> int:
    """dim ker K^m for K the Kronecker sum of nilpotent Jordan blocks of
    sizes a and b: min(m, s) summed over its blocks s = a + b - 1, a + b - 3,
    ..., |a - b| + 1."""
    return sum(min(m, a + b - 1 - 2 * k) for k in range(min(a, b)))


def kernel_dim(kind: str, eigs, sizes, m: int) -> int:
    """Exact dim ker L^m of the order-m transform of (A^*, A) for the A
    that ``build`` makes from ``eigs`` and ``sizes``."""
    return sum(
        pair_dim(a, b, m)
        for li, bi in zip(eigs, sizes)
        for lj, bj in zip(eigs, sizes)
        if _singular(kind, li, lj)
        for a in bi
        for b in bj
    )


def minimal_order(kind: str, eigs, sizes):
    """Exact minimal order m at which the order-m transform of (A^*, A)
    vanishes on X = I, for the A that ``build`` makes: 2q - 1 with q the
    largest Jordan block, or None when some eigenvalue leaves L invertible
    on its own diagonal block (a non-real one, for delta)."""
    if not all(_singular(kind, lam, lam) for lam in eigs):
        return None
    return 2 * max(max(blocks) for blocks in sizes) - 1
