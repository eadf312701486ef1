"""Length-L bit strings over {+1, -1} and the grid-state codec.

A grid state (m, n, L) is carried by the string obtained from the block
pattern of m leading +1s by a cyclic shift of L/2 + n places.  The +1
frequency of the string is the Born weight m/L; the cyclic offset carries the
phase.  The global bit relabelling that would carry a physical global phase
is fixed to the identity here, and handled separately by
``equivalent_mod_xi``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple
import math

import numpy as np

from .qubit import DiscretisedQubit


class NotCodewordError(ValueError):
    """The string is not a cyclic shift of any contiguous +1 block."""


class BitString:
    """Immutable 1-D array of +1/-1 entries."""

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[int] | np.ndarray):
        arr = np.asarray(values, dtype=np.int8).copy()
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("a bit string is a non-empty 1-D sequence")
        if not np.all((arr == 1) | (arr == -1)):
            raise ValueError("entries must be +1 or -1")
        arr.flags.writeable = False
        self._values = arr

    @classmethod
    def _trusted(cls, values: np.ndarray) -> "BitString":
        # Wraps a fresh 1-D int8 array of +1/-1 entries that the caller built
        # and hands over: no copy and no check.
        s = object.__new__(cls)
        values.flags.writeable = False
        s._values = values
        return s

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def plus_count(self) -> int:
        return int(np.count_nonzero(self._values == 1))

    def __len__(self) -> int:
        return self._values.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return np.array_equal(self._values, other._values)

    def __hash__(self) -> int:
        return hash(self._values.tobytes())

    def __repr__(self) -> str:
        return f"BitString({to_text(self)!r})"


def to_text(s: BitString) -> str:
    """Render as a string over '+' and '-' (bytes 44 - v: 43 and 45)."""
    return (44 - s.values).tobytes().decode("ascii")


def from_text(text: str) -> BitString:
    """Parse '+'/'-' text, with or without a 'L:' length header."""
    if ":" in text:
        head, _, body = text.partition(":")
        length = int(head)
        if length != len(body):
            raise ValueError(f"length header {length} does not match body of {len(body)}")
        text = body
    # 44 - byte is +1 for '+' (43), -1 for '-' (45) and neither for other bytes.
    values = 44 - np.frombuffer(text.encode("ascii", "replace"), dtype=np.int8)
    if not text or np.any(np.abs(values) != 1):
        raise ValueError("bit-string text must be non-empty over '+' and '-'")
    return BitString._trusted(values)


def to_wire(s: BitString) -> str:
    """Serialise with the length header, e.g. '4:--++'."""
    return f"{len(s)}:{to_text(s)}"


def iota(L: int, m: int) -> BitString:
    """Block pattern: m leading +1 entries, then L - m entries of -1."""
    if not 1 <= L < 1 << 63:
        raise ValueError(f"string needs L in [1, 2^63) (int64 limit), got L={L}")
    if not 0 <= m <= L:
        raise ValueError(f"m must lie in [0, L={L}], got {m}")
    v = np.full(L, -1, dtype=np.int8)
    v[:m] = 1
    return BitString._trusted(v)


def cyc(s: BitString, k: int) -> BitString:
    """k-fold cyclic shift: out[i] = s[(i + k) mod L]."""
    return BitString._trusted(np.roll(s.values, -(k % len(s))))


def negate(s: BitString) -> BitString:
    return BitString._trusted(-s.values)


def concat(a: BitString, b: BitString) -> BitString:
    return BitString._trusted(np.concatenate([a.values, b.values]))


def encode(q: DiscretisedQubit) -> BitString:
    """Codeword for the grid state: cyc(iota(L, m), L/2 + n).

    The half-turn in the offset requires even L; odd-L grid states have no
    bit-string form.
    """
    if q.L % 2:
        raise ValueError(f"encoding requires even granularity, got L={q.L}")
    return cyc(iota(q.L, q.m), q.L // 2 + q.n)


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
    v = s.values
    L = v.size
    m = int(np.count_nonzero(v == 1))
    if m == 0 or m == L:
        return Decoded(DiscretisedQubit(m, 0, L), True)
    block_starts = np.flatnonzero((v == 1) & (np.roll(v, 1) == -1))
    if block_starts.size != 1:
        raise NotCodewordError(
            f"{to_text(s)!r} is not a cyclic shift of a contiguous +1 block"
        )
    offset = (-int(block_starts[0])) % L
    n = (offset - L // 2) % L
    return Decoded(DiscretisedQubit(m, n, L), False)


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
    return BitString._trusted(s.values.take(perm))


_KEY_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


def _sorted_columns(family: list[BitString]) -> np.ndarray:
    # String n shifts into key row n // 64 one bit, set where it holds +1;
    # sorting the keys (rows lexicographically when N > 64) sorts the
    # columns.  numpy radix-sorts 8-bit keys under kind="stable", ~5x faster
    # there than its default, which is the faster one for the wider keys.
    width = min(len(family), 64)
    dtype = next(t for t in _KEY_DTYPES if np.iinfo(t).bits >= width)
    keys = np.zeros((-(-len(family) // 64), len(family[0])), dtype=dtype)
    plus = np.empty(keys.shape[1], dtype=bool)
    for n, s in enumerate(family):
        row = keys[n // 64]
        np.left_shift(row, 1, out=row)
        row |= np.greater(s.values, 0, out=plus)
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
