"""Independent reference implementations used only to check the library.

Each oracle deliberately avoids the code path it validates: the angle oracle
enumerates every angle that is a rational multiple of pi (denominator-bounded)
and tests cosine membership at high precision; the dense oracle multiplies
full matrices; the column oracle lexsorts the raw sign columns.
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
