"""Independent reference implementations used only to check the library.

Each oracle deliberately avoids the code path it validates: the angle oracle
enumerates every angle that is a rational multiple of pi (denominator-bounded)
and tests cosine membership at high precision; the dense oracle multiplies
full matrices; the column oracle lexsorts the raw sign columns; the string
producers build one int8 +1/-1 entry per bit, where the library packs eight
bits to a byte; the single-string codec shifts and scans such an array, where
the library runs its level kernels on one segment; the generator builders
assemble each operator whole from its half-size blocks, where the library
evaluates one index rule per row; the amplitude expanders compute every
branch factor of the tree as one heap array before the first level, where the
library computes those of the levels above the deepest, then the deepest's.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

ANGLE_TABLE_MAX_DEN = 100
ANGLE_PRECISION_DPS = 50
ANGLE_MATCH_TOL = mp.mpf("1e-40")
_PREFILTER_TOL = 1e-9

_table_mp: list | None = None
_table_float: np.ndarray | None = None


def _angle_cosine_table() -> tuple[list, np.ndarray]:
    """All cos(k*pi/d) for d <= ANGLE_TABLE_MAX_DEN, sorted, at 50 digits."""
    global _table_mp, _table_float
    if _table_mp is None:
        with mp.workdps(ANGLE_PRECISION_DPS):
            vals = sorted(
                mp.cos(mp.pi * k / d)
                for d in range(1, ANGLE_TABLE_MAX_DEN + 1)
                for k in range(0, d + 1)
            )
        _table_mp = vals
        _table_float = np.array([float(v) for v in vals])
    return _table_mp, _table_float


def rational_pi_angle(c: Fraction) -> bool:
    """True iff arccos(c) is a rational multiple of pi with denominator <= 100.

    Brute force over the candidate angles: c qualifies iff it coincides (at 50
    significant digits, tolerance 1e-40) with some cos(k*pi/d).
    """
    table_mp, table_float = _angle_cosine_table()
    x = float(c)
    idx = int(np.searchsorted(table_float, x))
    candidates = [j for j in (idx - 1, idx, idx + 1) if 0 <= j < len(table_mp)]
    if not any(abs(table_float[j] - x) < _PREFILTER_TOL for j in candidates):
        return False
    with mp.workdps(ANGLE_PRECISION_DPS):
        exact = mp.mpf(c.numerator) / c.denominator
        return any(abs(table_mp[j] - exact) < ANGLE_MATCH_TOL for j in candidates)


def reduced_cosines(max_den: int) -> list[Fraction]:
    """Every reduced rational p/q in [-1, 1] with q <= max_den."""
    out = [Fraction(0), Fraction(1), Fraction(-1)]
    for q in range(2, max_den + 1):
        for p in range(1, q + 1):
            if math.gcd(p, q) == 1 and p <= q:
                out.append(Fraction(p, q))
                out.append(Fraction(-p, q))
    return out


def dense_apply(op, values: np.ndarray) -> np.ndarray:
    """Matrix-vector (or matrix-batch) product with the dense operator form."""
    dense = op.to_dense().astype(np.float64)
    return (dense @ values.astype(np.float64).T).T.astype(np.int8)


def equivalent_mod_xi(family1, family2) -> bool:
    """Column-multiset equality of two equal-sized families of bit strings.

    Stacks each family into an (L, N) matrix of sign columns, orders the
    columns with ``np.lexsort`` and compares the sorted matrices.
    """

    def sorted_columns(family) -> np.ndarray:
        mat = np.stack([s.values for s in family]).T
        return mat[np.lexsort(mat.T[::-1])]

    return np.array_equal(sorted_columns(family1), sorted_columns(family2))


# String producers on int8 arrays of +1/-1 entries, one byte per bit.


def iota(L: int, m: int) -> np.ndarray:
    v = np.full(L, -1, dtype=np.int8)
    v[:m] = 1
    return v


def cyc(values: np.ndarray, k: int) -> np.ndarray:
    return np.roll(values, -(k % values.size))


def negate(values: np.ndarray) -> np.ndarray:
    return -values


def concat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.concatenate([a, b])


def encode(L: int, m: int, n: int) -> np.ndarray:
    """Codeword of the grid state (m, n, L): cyc(iota(L, m), L/2 + n)."""
    return cyc(iota(L, m), L // 2 + n)


def decode(values: np.ndarray) -> tuple[int, int, bool] | None:
    """(m, n, degenerate) of a codeword, or None if its +1s are not one cyclic block.

    m is the +1 count.  An all-equal string is degenerate with n = 0;
    otherwise the start of the single cyclic +1 block pins the shift, hence n.
    """
    L = values.size
    plus = values == 1
    m = int(plus.sum())
    if m == 0 or m == L:
        return m, 0, True
    block_starts = np.flatnonzero(plus > np.roll(plus, 1))
    if block_starts.size != 1:
        return None
    return m, (-int(block_starts[0]) - L // 2) % L, False


def apply_permutation(values: np.ndarray, perm: np.ndarray) -> np.ndarray:
    return values.take(perm)


def apply(op, values: np.ndarray) -> np.ndarray:
    """Signed-permutation action: out[i] = signs[i] * values[map[i]]."""
    return op.signs * values[op.index_map]


# Generators as whole (map, signs) arrays in the 2 x 2 block forms.


def identity_parts(L: int) -> tuple[np.ndarray, np.ndarray]:
    return np.arange(L), np.ones(L, dtype=np.int8)


def block_parts(L: int, block, columns, signs) -> tuple[np.ndarray, np.ndarray]:
    """Block row r holds signs[r] * block(L/2) in block column columns[r]."""
    h = L // 2
    block_map, block_signs = block(h)
    out_map = np.concatenate([block_map + c * h for c in columns])
    out_signs = np.concatenate([block_signs * s for s in signs]).astype(np.int8)
    return out_map, out_signs


def j_parts(L: int) -> tuple[np.ndarray, np.ndarray]:
    # [[0, 1], [-1, 0]] on half-size blocks
    return block_parts(L, identity_parts, (1, 0), (1, -1))


GENERATOR_PARTS = {
    "j": j_parts,
    "i": lambda L: block_parts(L, j_parts, (0, 1), (1, -1)),
    "k": lambda L: block_parts(L, j_parts, (1, 0), (1, 1)),
    "ilittle": lambda L: block_parts(L, j_parts, (0, 1), (1, 1)),
    "pauli_x": lambda L: block_parts(L, identity_parts, (1, 0), (1, 1)),
    "pauli_y": lambda L: block_parts(L, j_parts, (1, 0), (-1, 1)),
    "pauli_z": lambda L: block_parts(L, identity_parts, (0, 1), (1, -1)),
}


# Dense amplitudes from whole heap arrays of branch factors (slot 0 unused).


def level_vectors(cos_half: np.ndarray, sin_half: np.ndarray, phase: np.ndarray) -> list:
    """Dense 2^d vectors for d = 1 .. depth: the + child of node k multiplies
    by cos_half[k], the - child by sin_half[k] and then by phase[k]."""
    vec, levels = np.ones(1, dtype=np.complex128), []
    for d in range(1, cos_half.size.bit_length()):
        lo, hi = 1 << (d - 1), 1 << d
        nxt = np.empty(2 * vec.size, dtype=np.complex128)
        np.multiply(vec, cos_half[lo:hi], out=nxt[0::2])
        minus = np.multiply(vec, sin_half[lo:hi], out=nxt[1::2])
        minus *= phase[lo:hi]
        vec = nxt
        levels.append(vec)
    return levels


def state_factors(state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantised heap factors: sqrt(m/l), sqrt(1 - m/l), e^(2 pi i n/l) at
    live nodes; 0, 0 and 1 at absent ones (l = 0), and phase 1 where n = 0."""
    m, n, lengths = state.m, state.n, state.lengths
    live = np.flatnonzero(lengths > 0)
    weight = m[live] / lengths[live]
    cos_half, sin_half = np.zeros(m.size), np.zeros(m.size)
    cos_half[live] = np.sqrt(weight)
    sin_half[live] = np.sqrt(1.0 - weight)
    phase = np.ones(m.size, dtype=np.complex128)
    turn = live[n[live] != 0]
    phase[turn] = np.exp(2j * np.pi * (n[turn] / lengths[turn]))
    return cos_half, sin_half, phase


def tree_factors(tree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact heap factors: cos(theta/2), sin(theta/2), e^(i phi)."""
    half = tree.thetas / 2.0
    return np.cos(half), np.sin(half), np.exp(1j * tree.phis)


def support_factors(tree, state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact heap factors kept only where the quantised factor is nonzero
    (+ branch: m > 0, - branch: m < l), 0 elsewhere."""
    m, lengths = state.m, state.lengths
    plus, minus = np.flatnonzero(m > 0), np.flatnonzero(m < lengths)
    cos_half, sin_half = np.zeros(m.size), np.zeros(m.size)
    phase = np.zeros(m.size, dtype=np.complex128)
    cos_half[plus] = np.cos(tree.thetas[plus] / 2.0)
    sin_half[minus] = np.sin(tree.thetas[minus] / 2.0)
    phase[minus] = np.exp(1j * tree.phis[minus])
    return cos_half, sin_half, phase
