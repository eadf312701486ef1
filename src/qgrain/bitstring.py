"""Length-L bit strings over {+1, -1} and the grid-state codec.

A string is stored as its +1 mask packed eight bits to a byte (``np.packbits``
order: the first bit is the high bit of the first byte, and the padding bits
of the last byte are zero) together with its length L, so N strings of L bits
cost L*N/8 bytes, the bit count of the capacity bound.

A grid state (m, n, L) is carried by the string obtained from the block
pattern of m leading +1s by a cyclic shift of L/2 + n places.  The +1
frequency of the string is the Born weight m/L; the cyclic offset carries the
phase.  The global bit relabelling that would carry a physical global phase
is fixed to the identity here, and handled separately by
``equivalent_mod_xi``.

One codec serves a single string and a level of a nested state, whose string
concatenates one codeword per segment, each at least one bit long: ``encode``,
``decode`` and ``iota`` are its one-segment callers.  Encoding expands three runs per
segment and packs them; decoding reads a level's sign changes off its packed
bytes.  Every level is encoded and decoded slice by slice (one slice up to
2^16 bits), so no temporary holds a byte per bit of a long string.  No other
module reads or writes the packed bytes.  The whole slicing policy lives
here: ``_row_slices`` and the least slices, 2^16 bits for the codec and 2^12
rows for ``signed_perm``'s operators, whose action ``_gathered`` applies.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple
import math

import numpy as np

from .qubit import DiscretisedQubit


class NotCodewordError(ValueError):
    """The string is not a cyclic shift of any contiguous +1 block."""


_NOT_A_BLOCK = "segment is not a cyclic shift of a contiguous +1 block"


class BitString:
    """Immutable 1-D sequence of +1/-1 entries, stored eight to a byte."""

    __slots__ = ("_bits", "_length")

    def __init__(self, values: Iterable[int] | np.ndarray):
        # The caller's values are checked as given, before anything narrows
        # them, so no out-of-range entry can wrap into a valid one.
        arr = np.asarray(values)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("a bit string is a non-empty 1-D sequence")
        plus = arr == 1
        if not np.all(plus | (arr == -1)):
            raise ValueError("entries must be +1 or -1")
        bits = np.packbits(plus)
        bits.flags.writeable = False
        self._bits = bits
        self._length = arr.size

    @classmethod
    def _trusted(cls, bits: np.ndarray, length: int) -> "BitString":
        # Wraps fresh packed bytes of a length-bit +1 mask, zero-padded, that
        # the caller built and hands over: no copy and no check.
        s = object.__new__(cls)
        bits.flags.writeable = False
        s._bits = bits
        s._length = length
        return s

    @classmethod
    def _from_plus(cls, plus: np.ndarray) -> "BitString":
        # Packs a 1-D 0/1 (or bool) +1 mask that the caller built: no check.
        return cls._trusted(np.packbits(plus), plus.size)

    def _plus(self) -> np.ndarray:
        # Fresh uint8 array, 1 where the string holds +1 and 0 where -1.
        return np.unpackbits(self._bits, count=self._length)

    @property
    def values(self) -> np.ndarray:
        """The entries as a fresh read-only int8 array of +1 and -1."""
        v = self._plus().view(np.int8)  # the one L-byte array, worked in place
        v <<= 1
        v -= 1
        v.flags.writeable = False
        return v

    @property
    def plus_count(self) -> int:
        return int.from_bytes(self._bits.tobytes(), "big").bit_count()

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._length == other._length and np.array_equal(self._bits, other._bits)

    def __hash__(self) -> int:
        return hash((self._length, self._bits.tobytes()))

    def __repr__(self) -> str:
        return f"BitString({to_text(self)!r})"


def to_text(s: BitString) -> str:
    """Render as a string over '+' and '-' (bytes 45 - 2 * bit: 43 and 45)."""
    return _text(s._bits, len(s))


def _text(bits: np.ndarray, count: int) -> str:
    # to_text of the first count bits of the packed bytes.
    text = np.unpackbits(bits, count=count)
    text <<= 1
    return np.subtract(45, text, out=text).tobytes().decode("ascii")


def from_text(text: str) -> BitString:
    """Parse text over '+' and '-'."""
    raw = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    plus = raw == 43  # '+'; '-' is 45
    if not text or not np.all(plus | (raw == 45)):
        raise ValueError("bit-string text must be non-empty over '+' and '-'")
    return BitString._from_plus(plus)


def iota(L: int, m: int) -> BitString:
    """Block pattern: m leading +1 entries, then L - m entries of -1."""
    if not 1 <= L < 1 << 63:
        raise ValueError(f"string needs L in [1, 2^63) (int64 limit), got L={L}")
    if not 0 <= m <= L:
        raise ValueError(f"m must lie in [0, L={L}], got {m}")
    # The one-segment codeword's +1 block starts at -(L//2 + n) mod L: this n puts it at 0.
    n = (L - L // 2) % L
    return _encode_levels(L, np.array([L]), np.array([m]), np.array([n]), 1)[0]


def cyc(s: BitString, k: int) -> BitString:
    """k-fold cyclic shift: out[i] = s[(i + k) mod L]."""
    return BitString._from_plus(np.roll(s._plus(), -(k % len(s))))


def negate(s: BitString) -> BitString:
    bits = np.invert(s._bits)
    bits[-1] &= 0xFF << (-len(s) % 8) & 0xFF  # the padding stays zero
    return BitString._trusted(bits, len(s))


def concat(a: BitString, b: BitString) -> BitString:
    return BitString._from_plus(np.concatenate((a._plus(), b._plus())))


def encode(q: DiscretisedQubit) -> BitString:
    """Codeword for the grid state: cyc(iota(L, m), L/2 + n).

    The half-turn in the offset requires even L; odd-L grid states have no
    bit-string form.
    """
    _require_codec_length(q.L)
    return _encode_levels(q.L, np.array([q.L]), np.array([q.m]), np.array([q.n]), 1)[0]


class Decoded(NamedTuple):
    qubit: DiscretisedQubit
    degenerate: bool


def decode(s: BitString) -> Decoded:
    """Invert ``encode``: recover (m, n, L) from a codeword.

    m is the +1 count.  For 0 < m < L the +1s form a single cyclic block
    whose start pins the shift, hence n.  All-equal strings decode with
    n = 0 and the degenerate flag set (the phase of an eigenstate is
    unobservable).  Raises NotCodewordError when the +1s are not one
    cyclic block.
    """
    L = len(s)
    try:
        m, n = _decode_level(s, np.array([L]))
    except NotCodewordError:
        # A long string is named by its length and first 64 bits, so the
        # error path holds no text of the whole string.
        head = repr(to_text(s)) if L <= 64 else f"{L}-bit {_text(s._bits[:8], 64)!r}..."
        raise NotCodewordError(f"{head} is not a cyclic shift of a contiguous +1 block") from None
    m = int(m[0])
    return Decoded(DiscretisedQubit(m, int(n[0]), L), m in (0, L))


def _require_codec_length(L: int) -> None:
    # Segment lengths are int64 and the codeword's offset halves L.
    if not 2 <= L < 1 << 63 or L % 2:
        raise ValueError(f"encoding needs even L in [2, 2^63) (int64 limit), got L={L}")


def _encode_levels(
    L: int, lengths: np.ndarray, m: np.ndarray, n: np.ndarray, strings: int
) -> list[BitString]:
    # ``strings`` L-bit strings of concatenated codewords cyc(iota(l, m), l//2 + n)
    # of live (l > 0) segments in order, each string's segments tiling its L bits.
    # Three runs per segment, bit 1 for +1, in one table for all strings.
    # The +1 block starts at a = -(l//2 + n) mod l and wraps past the segment
    # end iff a + m > l.  No wrap: -1 x a, +1 x m, -1 x (l - a - m); wrap:
    # +1 x (a + m - l), -1 x (l - m), +1 x (l - a).  With 0 <= n < l every
    # intermediate below lies in (-l, l], so int64 holds it for any l < 2^63.
    a = (lengths - lengths // 2 - n) % lengths
    minus = lengths - m
    wrap = a > minus
    runs = np.empty((lengths.size, 3), dtype=np.int64)
    runs[:, 0] = np.where(wrap, a - minus, a)
    runs[:, 1] = np.where(wrap, minus, m)
    runs[:, 2] = lengths - runs[:, 0] - runs[:, 1]
    bits = np.array([[0, 1, 0], [1, 0, 1]], dtype=np.uint8).take(wrap, axis=0).ravel()
    runs = runs.ravel()
    # String i is bits i*L .. (i + 1)*L - 1 of the family, and its slice
    # [lo, hi) takes runs first .. last, from the first run that ends past
    # i*L + lo to the first that ends at or past i*L + hi, cut to the slice in
    # place: a later slice takes its first run from ends, and no slice reaches
    # into another's runs.  (Splitting the runs once with sort and diff would
    # add ~0.1 MB each to a CLI call's peak RSS on first use.)  The strings are
    # allocated before the prefix sums, which pass 2^63 only for a family of
    # 2^60 bytes, so such an L fails with a MemoryError, not a wrapped sum.
    outs = [np.empty(-(-L // 8), dtype=np.uint8) for _ in range(strings)]
    bounds = list(_row_slices(L, _CODEC_SLICE))
    slices = [(out, i * L, lo, hi) for i, out in enumerate(outs) for lo, hi in bounds]
    ends = runs.cumsum()
    firsts = ends.searchsorted([at + lo for _, at, lo, _ in slices], "right").tolist()
    lasts = ends.searchsorted([at + hi for _, at, _, hi in slices]).tolist()
    for (out, at, lo, hi), first, last in zip(slices, firsts, lasts):
        if first == last and hi % 8 == 0:  # inside one run: its bit in every byte
            out[lo // 8 : hi // 8] = 0xFF if bits[first] else 0
        else:
            runs[first] = ends[first] - (at + lo)
            runs[last] -= ends[last] - (at + hi)
            expanded = np.repeat(bits[first : last + 1], runs[first : last + 1])
            out[lo // 8 : -(-hi // 8)] = np.packbits(expanded)
    return [BitString._trusted(out, L) for out in outs]


def _decode_level(s: BitString, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (m, n) of the consecutive segments that tile s, of the given lengths,
    # all > 0; the inverse of _encode_levels, raising on a non-codeword.  A
    # segment is a codeword iff at most 2 of its adjacent bit pairs differ:
    # with the wrap-around pair that count is even, and it is at most 2 iff
    # the +1s form one cyclic block.  The marks are the bits that differ from
    # the bit before them, every segment bound and the slot past the end;
    # after a segment's start they are its internal changes e1 < e2, then its
    # end, which stands in for a missing one.  The runs between the marks
    # alternate in sign, so the segment's first bit, read off the bytes, fixes
    # them: if it is +1 the middle run [e1, e2) is -1 and the block starts at
    # e2, otherwise the middle run is the block.  Segments with no internal
    # change are degenerate and keep n = 0.
    bits = s._bits
    bounds = np.zeros(lengths.size + 1, dtype=np.int64)
    lengths.cumsum(out=bounds[1:])
    starts = bounds[:-1]
    L = int(bounds[-1])
    # A level of codewords has at most 3 marks per segment and its end, so a
    # level with more is refused before it holds them all.  Slice [lo, hi)
    # takes bounds i .. j - 1, and the last slice the end too.
    slices = list(_row_slices(L, _CODEC_SLICE))
    edges = bounds.searchsorted([lo for lo, _ in slices] + [L + 1]).tolist()
    parts, count = [], 0
    for (lo, hi), i, j in zip(slices, edges, edges[1:]):
        end = hi + (hi == L)
        part = _marks(_changes(bits, lo, end), end - lo, bounds[i:j] - lo)
        part += lo
        count += part.size
        if count > 3 * lengths.size + 1:
            raise NotCodewordError(_NOT_A_BLOCK)
        parts.append(part)
    marks = np.concatenate(parts)
    at = np.searchsorted(marks, bounds)
    gaps = at[1:] - at[:-1]  # internal changes + 1
    if gaps.max() > 3:
        raise NotCodewordError(_NOT_A_BLOCK)
    first = at[:-1] + 1
    e1 = marks[first]
    e2 = marks[np.minimum(first + 1, at[1:])]
    starts_plus = (bits[starts >> 3] << (starts & 7)) & 0x80
    middle = e2 - e1
    m = np.where(starts_plus, lengths - middle, middle)
    n = (starts - np.where(starts_plus, e2, e1) - (lengths >> 1)) % lengths
    n[gaps == 1] = 0
    return m, n


def _changes(bits: np.ndarray, lo: int, end: int) -> np.ndarray:
    # Packed mask of the bits p in [lo, end) that differ from bit p - 1 (bit
    # -1 and the padding past the string read 0); lo is a multiple of 8.  Bit
    # i of the packed bytes XORed with their one-bit shift is set where bit i
    # differs from bit i - 1, and from lo > 0 the byte before the slice
    # supplies bit lo - 1.
    skip = int(lo > 0)
    chunk = bits[lo // 8 - skip : -(-end // 8)]
    changes = chunk >> 1
    changes[1:] |= chunk[:-1] << 7
    changes ^= chunk
    return changes[skip:]


def _marks(changes: np.ndarray, count: int, at: np.ndarray) -> np.ndarray:
    # Offsets, in order, of the first count bits of the packed mask that are
    # set or listed in at.  Only the mask is unpacked, as bool: numpy's
    # nonzero is several times faster on bool than on integer arrays.
    mask = np.unpackbits(changes, count=count).view(bool)
    mask[at] = True
    return mask.nonzero()[0]


_MAX_SLICES = 64
# The codec's least slice: a level of up to 2^16 bits is one slice, a longer
# one at most 64 slices of at least 2^16 bits, whose bookkeeping stays small
# next to their per-bit work.
_CODEC_SLICE = 1 << 16
# The least slice of rows in which signed_perm builds, composes, applies,
# compares and verifies operators, and _gathered applies them.
_MIN_SLICE = 1 << 12


def _row_slices(n: int, least: int):
    """(lo, hi) bounds of the slices that cover rows 0..n-1 in order.

    At most _MAX_SLICES of them, each at least ``least`` rows (the last may
    be shorter) and a multiple of 8, so a slice's bits fill whole bytes of a
    packed string.
    """
    step = max(least, -(-n // (8 * _MAX_SLICES)) * 8)
    return ((lo, min(lo + step, n)) for lo in range(0, n, step))


def _gathered(s: BitString, entries) -> BitString:
    # out[r] = signs[r] * s[map[r]], a slice of _MIN_SLICE or more rows at a
    # time.  Each slice's lo is a multiple of 8, so its bits fill output bytes
    # [lo/8, hi/8); entries(lo, hi) gives the slice's map and signs.  take()
    # casts only the slice's indices to intp.
    plus = s._plus()
    out = np.empty(-(-len(s) // 8), dtype=np.uint8)
    for lo, hi in _row_slices(len(s), _MIN_SLICE):
        index_map, signs = entries(lo, hi)
        bits = plus.take(index_map)
        bits ^= signs < 0  # a -1 sign turns +1 into -1 and back
        out[lo // 8 : -(-hi // 8)] = np.packbits(bits)
    return BitString._trusted(out, len(s))


def born_frequency(s: BitString) -> Fraction:
    """Exact frequency of +1 entries."""
    return Fraction(s.plus_count, len(s))


def mean_var_exact(s: BitString) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of the +-1 entries: mu = (2m - L)/L, var = 1 - mu^2."""
    mu = Fraction(2 * s.plus_count - len(s), len(s))
    return mu, 1 - mu * mu


def mean_std(s: BitString) -> tuple[float, float]:
    """Mean and standard deviation; these equal cos(theta) and |sin(theta)|."""
    mu, var = mean_var_exact(s)
    return float(mu), math.sqrt(float(var))


def apply_permutation(s: BitString, perm: np.ndarray) -> BitString:
    """Relabel positions: out[i] = s[perm[i]].  perm must be a bijection."""
    perm = np.asarray(perm)
    if not np.array_equal(np.sort(perm), np.arange(len(s))):
        raise ValueError("perm must be a bijection on 0..L-1")
    return BitString._from_plus(s._plus().take(perm))


_KEY_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


def _sorted_columns(family: list[BitString]) -> np.ndarray:
    # String n shifts its +1 mask into key row n // 64 one bit at a time;
    # sorting the keys (rows lexicographically when N > 64) sorts the
    # columns.  numpy radix-sorts 8-bit keys under kind="stable", ~5x faster
    # there than its default, which is the faster one for the wider keys.
    width = min(len(family), 64)
    dtype = next(t for t in _KEY_DTYPES if np.iinfo(t).bits >= width)
    keys = np.zeros((-(-len(family) // 64), len(family[0])), dtype=dtype)
    for n, s in enumerate(family):
        row = keys[n // 64]
        np.left_shift(row, 1, out=row)
        row |= s._plus()
    if len(keys) == 1:
        keys.sort(kind="stable" if dtype is np.uint8 else None)
        return keys
    return keys[:, np.lexsort(keys[::-1])]


def equivalent_mod_xi(family1: list[BitString], family2: list[BitString]) -> bool:
    """Whether one index permutation maps family1 onto family2 simultaneously.

    Column c of a family is the tuple of c-th entries across its strings; a
    shared relabelling exists iff the two multisets of columns coincide.
    Each column is packed into one unsigned key per 64 strings (uint8 up to
    8 strings, ..., uint64 up to 64), and the sorted keys are compared, so
    the test is exact for every family size.
    """
    if len(family1) != len(family2):
        raise ValueError("families must contain the same number of strings")
    if not family1:
        return True
    lengths = {len(s) for s in family1} | {len(s) for s in family2}
    if len(lengths) != 1:
        raise ValueError("all strings must share one length")
    return np.array_equal(_sorted_columns(family1), _sorted_columns(family2))
