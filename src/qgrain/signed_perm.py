"""Complex units, quaternions and Pauli operators as signed permutations.

On length-L bit strings these operators are L x L matrices with one +-1 entry
per row, so they are stored as (map, signs) pairs and applied in O(L):

    out[i] = signs[i] * s[map[i]]

The sign is applied after gathering; the block-matrix forms fix this
convention uniquely and ``to_dense`` reproduces them exactly.  The generators
are built from half- and quarter-size blocks, hence the divisibility
requirements: 2|L for j, sigma_x, sigma_z and 4|L for i, k, i_little,
sigma_y.
"""

from __future__ import annotations

import numpy as np

from .bitstring import BitString, concat, cyc, equivalent_mod_xi, iota, negate


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
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        return np.array_equal(self._map, other._map) and np.array_equal(
            self._signs, other._signs
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
    return BitString._trusted(a.signs * s.values[a.index_map])


def compose(a: SignedPermutation, b: SignedPermutation) -> SignedPermutation:
    """Operator product: apply(compose(a, b), s) == apply(a, apply(b, s))."""
    if len(a) != len(b):
        raise ValueError(f"operator lengths differ: {len(a)} != {len(b)}")
    p = a.index_map
    return SignedPermutation._trusted(b.index_map[p], a.signs * b.signs[p])


def _require_divisible(L: int, d: int) -> None:
    if L < d or L % d:
        raise ValueError(f"operator needs {d} | L, got L={L}")
    _require_int64(L)


def _require_int64(L: int) -> None:
    if L >= 1 << 63:
        raise ValueError(f"operator needs L < 2^63 (int64 limit), got L={L}")


# Largest length whose indices 0..L-1 all fit in int32.
_INT32_MAX_L = 1 << 31


def _map_dtype(L: int) -> np.dtype:
    """Canonical index-map dtype for length L: int32 up to 2^31, int64 above."""
    return np.dtype(np.int32 if L <= _INT32_MAX_L else np.int64)


def _identity(L: int) -> tuple[np.ndarray, np.ndarray]:
    # The int8 signs come first: from 2^60 entries the int64 map exceeds
    # numpy's size limit (a ValueError), while L < 2^63 bytes of signs fail
    # to allocate as the MemoryError every other huge L gives.
    _require_int64(L)
    signs = np.ones(L, dtype=np.int8)
    return np.arange(L, dtype=_map_dtype(L)), signs


def identity_op(L: int) -> SignedPermutation:
    return SignedPermutation._trusted(*_identity(L))


def negation_op(L: int) -> SignedPermutation:
    """-1_L: identity map, all signs flipped."""
    index_map, signs = _identity(L)
    return SignedPermutation._trusted(index_map, np.negative(signs, out=signs))


def _blocks(L: int, d: int, block, columns, signs) -> tuple[np.ndarray, np.ndarray]:
    # (map, signs) of the 2 x 2 block form needing d | L: block row r holds
    # signs[r] * block(L/2) in block column columns[r].  block(h) runs first,
    # so a huge L fails on the innermost int8 allocation, as in _identity.
    # The offset add runs in the output dtype: an int32 half-block widens into
    # an int64 map once L > 2^31, where c * h no longer fits in int32.
    _require_divisible(L, d)
    h = L // 2
    block_map, block_signs = block(h)
    out_signs = np.empty(L, dtype=np.int8)
    out_map = np.empty(L, dtype=_map_dtype(L))
    for r, (c, s) in enumerate(zip(columns, signs)):
        rows = slice(r * h, (r + 1) * h)
        np.add(block_map, c * h, out=out_map[rows], dtype=out_map.dtype)
        np.multiply(block_signs, s, out=out_signs[rows])
    return out_map, out_signs


def _j_parts(L: int) -> tuple[np.ndarray, np.ndarray]:
    # [[0, 1], [-1, 0]] on half-size blocks
    return _blocks(L, 2, _identity, (1, 0), (1, -1))


def make_j(L: int) -> SignedPermutation:
    """j: swap halves, negating the second; j^2 = -1."""
    return SignedPermutation._trusted(*_j_parts(L))


def make_i(L: int) -> SignedPermutation:
    """i: block-diagonal (j_half, -j_half)."""
    return SignedPermutation._trusted(*_blocks(L, 4, _j_parts, (0, 1), (1, -1)))


def make_k(L: int) -> SignedPermutation:
    """k: off-diagonal (j_half | j_half); k = i * j."""
    return SignedPermutation._trusted(*_blocks(L, 4, _j_parts, (1, 0), (1, 1)))


def make_ilittle(L: int) -> SignedPermutation:
    """Scalar complex unit: block-diagonal (j_half, j_half); commutes with sigma_z."""
    return SignedPermutation._trusted(*_blocks(L, 4, _j_parts, (0, 1), (1, 1)))


def make_pauli_x(L: int) -> SignedPermutation:
    """sigma_x: swap halves."""
    return SignedPermutation._trusted(*_blocks(L, 2, _identity, (1, 0), (1, 1)))


def make_pauli_y(L: int) -> SignedPermutation:
    """sigma_y: off-diagonal (-j_half | j_half)."""
    return SignedPermutation._trusted(*_blocks(L, 4, _j_parts, (1, 0), (-1, 1)))


def make_pauli_z(L: int) -> SignedPermutation:
    """sigma_z: diagonal (+1 on the first half, -1 on the second)."""
    return SignedPermutation._trusted(*_blocks(L, 2, _identity, (0, 1), (1, -1)))


def verify_quaternion(L: int) -> bool:
    """i^2 = j^2 = k^2 = -1 and i*j = k, as exact operator equalities."""
    _require_divisible(L, 4)
    # At most three L-entry operators are alive at once: each is dropped
    # after its last check, and -1 is built afresh for each square: one kept
    # alive would be a fourth beside j, i*j and j*j.
    i = make_i(L)
    if compose(i, i) != negation_op(L):
        return False
    j = make_j(L)
    ij = compose(i, j)
    del i
    jj = compose(j, j)
    del j
    if jj != negation_op(L):
        return False
    del jj
    k = make_k(L)
    if ij != k:
        return False
    del ij
    return compose(k, k) == negation_op(L)


def verify_spin_identities(L: int) -> bool:
    """Cyclic shifts of block strings against Pauli actions on the equator string.

    The sigma_z and sigma_x identities hold bit-exactly in the canonical
    frame.  The sigma_y identity holds up to the global relabelling freedom
    (the two sides share one +1 multiset but differ pointwise), so it is
    compared as such.
    """
    _require_divisible(L, 4)
    equator = iota(L, L // 2)
    z_ok = cyc(iota(L, L), L // 2) == apply(make_pauli_z(L), equator)
    x_ok = cyc(equator, L // 2) == apply(make_pauli_x(L), equator)
    y_ok = equivalent_mod_xi(
        [cyc(equator, 3 * L // 4)], [apply(make_pauli_y(L), equator)]
    )
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
    inner = apply(make_pauli_z(h), iota(h, L // 4))
    rhs = apply(make_pauli_x(L), concat(inner, negate(inner)))
    return lhs == rhs
