"""Complex units, quaternions and Pauli operators as signed permutations.

On length-L bit strings these operators are L x L matrices with one +-1 entry
per row, so they are stored as (map, signs) pairs and applied in O(L):

    out[i] = signs[i] * s[map[i]]

The sign is applied after gathering; the block-matrix forms fix this
convention uniquely and ``to_dense`` reproduces them exactly.  The generators
are built from half- and quarter-size blocks, hence the divisibility
requirements: 2|L for j, sigma_x, sigma_z and 4|L for i, k, i_little,
sigma_y.

Each generator has one definition, an index rule ``rule(rows, L) -> (map,
signs)`` that gives its entries at any array of row indices.  ``make_*``
evaluates the rule at every row.  The identity checks (``verify_quaternion``,
``verify_spin_identities``, ``self_similar_split``) evaluate it one bounded
slice of rows at a time, as ``apply`` reads an operator's arrays: at most 64
slices, each a multiple of 8 rows and at least 2^12 rows.  So no check holds
more than a slice of any operator, and an L too large for memory fails on
the first slice.
"""

from __future__ import annotations

import numpy as np

from .bitstring import BitString, _gathered, _row_slices, concat, cyc, iota, negate


# Least rows per slice (see bitstring._row_slices) in which operators are
# applied, compared and verified.
_MIN_SLICE = 1 << 12


class SignedPermutation:
    """A bijection on 0..L-1 together with a per-index sign.

    The map is stored in the canonical dtype for its length (int32 up to
    L = 2^31, int64 above; see ``_map_dtype``) and the signs as int8, so one
    operator costs 5 bytes per entry below 2^31.  The constructor checks the
    caller's values before it narrows them, so no out-of-range index can wrap
    into a valid map.
    """

    __slots__ = ("_map", "_signs")

    def __init__(self, index_map: np.ndarray, signs: np.ndarray):
        index_map = np.asarray(index_map)
        signs = np.asarray(signs)
        if index_map.shape != signs.shape or index_map.ndim != 1:
            raise ValueError("map and signs must be 1-D of equal length")
        if not np.array_equal(np.sort(index_map), np.arange(index_map.size)):
            raise ValueError("map must be a bijection on 0..L-1")
        if not np.all((signs == 1) | (signs == -1)):
            raise ValueError("signs must be +1 or -1")
        index_map = index_map.astype(_map_dtype(index_map.size))
        signs = signs.astype(np.int8)
        index_map.flags.writeable = False
        signs.flags.writeable = False
        self._map = index_map
        self._signs = signs

    @classmethod
    def _trusted(cls, index_map: np.ndarray, signs: np.ndarray) -> "SignedPermutation":
        # A fresh bijection in the canonical map dtype and equal-length int8
        # +-1 signs: no copy, no check.
        op = object.__new__(cls)
        index_map.flags.writeable = False
        signs.flags.writeable = False
        op._map = index_map
        op._signs = signs
        return op

    @property
    def index_map(self) -> np.ndarray:
        return self._map

    @property
    def signs(self) -> np.ndarray:
        return self._signs

    def __len__(self) -> int:
        return self._map.size

    def __eq__(self, other) -> bool:
        # Compared a slice at a time: np.array_equal of whole arrays would
        # allocate an L-byte mask beside the operators.
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(
            np.array_equal(a[lo:hi], b[lo:hi])
            for a, b in ((self._signs, other._signs), (self._map, other._map))
            for lo, hi in _row_slices(len(self), _MIN_SLICE)
        )

    def __hash__(self) -> int:
        return hash((self._map.tobytes(), self._signs.tobytes()))

    def __repr__(self) -> str:
        return f"SignedPermutation(map={self._map.tolist()}, signs={self._signs.tolist()})"

    def to_dense(self) -> np.ndarray:
        """Dense L x L matrix with M[i, map[i]] = signs[i]; test oracle only."""
        L = len(self)
        dense = np.zeros((L, L), dtype=np.int8)
        dense[np.arange(L), self._map] = self._signs
        return dense


def apply(a: SignedPermutation, s: BitString) -> BitString:
    """Operator action, equal to the dense matrix-vector product."""
    if len(a) != len(s):
        raise ValueError(f"operator length {len(a)} != string length {len(s)}")
    slices = _row_slices(len(s), _MIN_SLICE)
    return _gathered(s, slices, lambda lo, hi: (a.index_map[lo:hi], a.signs[lo:hi]))


def _rows(lo: int, hi: int, L: int) -> np.ndarray:
    return np.arange(lo, hi, dtype=_map_dtype(L))


def _applied(rule, s: BitString) -> BitString:
    """apply(op, s) for the operator of length len(s) that rule defines."""
    L = len(s)
    return _gathered(s, _row_slices(L, _MIN_SLICE), lambda lo, hi: rule(_rows(lo, hi, L), L))


def compose(a: SignedPermutation, b: SignedPermutation) -> SignedPermutation:
    """Operator product: apply(compose(a, b), s) == apply(a, apply(b, s))."""
    if len(a) != len(b):
        raise ValueError(f"operator lengths differ: {len(a)} != {len(b)}")
    p = a.index_map
    signs = b.signs[p]
    signs *= a.signs
    return SignedPermutation._trusted(b.index_map[p], signs)


def _require_divisible(L: int, d: int) -> None:
    if L < d or L % d:
        raise ValueError(f"operator needs L a positive multiple of {d}, got L={L}")
    if L >= 1 << 63:
        raise ValueError(f"operator needs L < 2^63 (int64 limit), got L={L}")


# Largest length whose indices 0..L-1 all fit in int32.
_INT32_MAX_L = 1 << 31


def _map_dtype(L: int) -> np.dtype:
    """Canonical index-map dtype for length L: int32 up to 2^31, int64 above."""
    return np.dtype(np.int32 if L <= _INT32_MAX_L else np.int64)


def _operator(rule, L: int, d: int = 1) -> SignedPermutation:
    # The operator rule defines, evaluated at every row.  The signs' L bytes
    # are claimed first: from L = 2^60 an int64 map passes numpy's size limit
    # (a ValueError), while L < 2^63 bytes fail to allocate as the MemoryError
    # every other huge L gives.
    _require_divisible(L, d)
    np.empty(L, dtype=np.int8)
    return SignedPermutation._trusted(*rule(np.arange(L, dtype=_map_dtype(L)), L))


# Index rules: rule(rows, L) -> (map, signs) at an integer array of rows in
# the canonical map dtype for L.  A rule works in place: the rows array
# becomes the map, so the caller hands over rows it no longer needs.


def _identity_at(rows: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    return rows, np.ones(rows.size, dtype=np.int8)


def _negation_at(rows: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    return rows, np.full(rows.size, -1, dtype=np.int8)


def _blocks_at(rows, L: int, block, columns, signs) -> tuple[np.ndarray, np.ndarray]:
    # The 2 x 2 block form at rows: block row r (rows below L/2, then the
    # rest) holds signs[r] * block(L/2) in block column columns[r].  Every step
    # runs in place in the rows' dtype, which holds every index below L, and
    # without where= masks, which are slow on an operator's scattered images.
    h = L // 2
    upper = rows >= h
    offset = np.multiply(upper, h, dtype=rows.dtype)
    rows -= offset
    index_map, out_signs = block(rows, h)
    if columns == (0, 1):  # block-diagonal
        index_map += offset
    else:  # off-diagonal
        index_map -= offset
        index_map += h
    factor = np.multiply(upper, signs[1] - signs[0], dtype=np.int8)
    factor += signs[0]
    out_signs *= factor
    return index_map, out_signs


def _block_rule(block, columns, signs):
    return lambda rows, L: _blocks_at(rows, L, block, columns, signs)


_j_at = _block_rule(_identity_at, (1, 0), (1, -1))  # [[0, 1], [-1, 0]] on half blocks
_i_at = _block_rule(_j_at, (0, 1), (1, -1))
_k_at = _block_rule(_j_at, (1, 0), (1, 1))
_ilittle_at = _block_rule(_j_at, (0, 1), (1, 1))
_pauli_x_at = _block_rule(_identity_at, (1, 0), (1, 1))
_pauli_y_at = _block_rule(_j_at, (1, 0), (-1, 1))
_pauli_z_at = _block_rule(_identity_at, (0, 1), (1, -1))


def identity_op(L: int) -> SignedPermutation:
    return _operator(_identity_at, L)


def negation_op(L: int) -> SignedPermutation:
    """-1_L: identity map, all signs flipped."""
    return _operator(_negation_at, L)


def make_j(L: int) -> SignedPermutation:
    """j: swap halves, negating the second; j^2 = -1."""
    return _operator(_j_at, L, 2)


def make_i(L: int) -> SignedPermutation:
    """i: block-diagonal (j_half, -j_half)."""
    return _operator(_i_at, L, 4)


def make_k(L: int) -> SignedPermutation:
    """k: off-diagonal (j_half | j_half); k = i * j."""
    return _operator(_k_at, L, 4)


def make_ilittle(L: int) -> SignedPermutation:
    """Scalar complex unit: block-diagonal (j_half, j_half); commutes with sigma_z."""
    return _operator(_ilittle_at, L, 4)


def make_pauli_x(L: int) -> SignedPermutation:
    """sigma_x: swap halves."""
    return _operator(_pauli_x_at, L, 2)


def make_pauli_y(L: int) -> SignedPermutation:
    """sigma_y: off-diagonal (-j_half | j_half)."""
    return _operator(_pauli_y_at, L, 4)


def make_pauli_z(L: int) -> SignedPermutation:
    """sigma_z: diagonal (+1 on the first half, -1 on the second)."""
    return _operator(_pauli_z_at, L, 2)


def verify_quaternion(L: int) -> bool:
    """i^2 = j^2 = k^2 = -1 and i*j = k, as exact operator equalities.

    Up to 2^12 rows, one slice is the whole operator, so the operators are
    built and composed whole.  Above, the check runs a slice of rows at a
    time: row r of a*b has map b.map[a.map[r]] and sign
    a.signs[r] * b.signs[a.map[r]], so a slice needs i, j and k only at its
    rows and at their images.
    """
    _require_divisible(L, 4)
    if L <= _MIN_SLICE:
        i, j, k, minus_one = make_i(L), make_j(L), make_k(L), negation_op(L)
        return (
            compose(i, i) == minus_one
            and compose(j, j) == minus_one
            and compose(k, k) == minus_one
            and compose(i, j) == k
        )
    for lo, hi in _row_slices(L, _MIN_SLICE):
        rows = _rows(lo, hi, L)
        i_map, i_signs = _i_at(rows.copy(), L)
        j_map, j_signs = _j_at(i_map.copy(), L)  # j after i
        k_map, k_signs = _k_at(rows.copy(), L)
        if not (
            np.array_equal(j_map, k_map)
            and np.array_equal(i_signs * j_signs, k_signs)
            and _squares_to_minus_one(_i_at, rows, i_map, i_signs, L)
            and _squares_to_minus_one(_j_at, rows, *_j_at(rows.copy(), L), L)
            and _squares_to_minus_one(_k_at, rows, k_map, k_signs, L)
        ):
            return False
    return True


def _squares_to_minus_one(rule, rows, index_map, signs, L: int) -> bool:
    # a*a = -1 on these rows: a sends each image back to its row with the
    # opposite sign.  index_map is handed over to the rule.
    back_map, back_signs = rule(index_map, L)
    return np.array_equal(back_map, rows) and not np.any(back_signs == signs)


def verify_spin_identities(L: int) -> bool:
    """Cyclic shifts of block strings against Pauli actions on the equator string.

    The sigma_z and sigma_x identities hold bit-exactly in the canonical
    frame.  The sigma_y identity holds up to the global relabelling freedom,
    which for one string keeps exactly its +1 count (the Born frequency), so
    the two sides' +1 counts are compared.
    """
    _require_divisible(L, 4)
    equator = iota(L, L // 2)
    z_ok = cyc(iota(L, L), L // 2) == _applied(_pauli_z_at, equator)
    x_ok = cyc(equator, L // 2) == _applied(_pauli_x_at, equator)
    y_ok = cyc(equator, 3 * L // 4).plus_count == _applied(_pauli_y_at, equator).plus_count
    return z_ok and x_ok and y_ok


def self_similar_split(L: int) -> bool:
    """Half-size self-similarity of the equator codeword.

    The shift-by-L/2 image of the equator string equals sigma_x applied to
    the concatenation of a half-size block image with its negation.  The
    identity holds bit-exactly in the canonical frame.
    """
    _require_divisible(L, 8)
    h = L // 2
    lhs = cyc(iota(L, h), h)
    inner = _applied(_pauli_z_at, iota(h, L // 4))
    rhs = _applied(_pauli_x_at, concat(inner, negate(inner)))
    return lhs == rhs
