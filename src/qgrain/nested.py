"""Nested N-qubit states as N correlated length-L bit strings.

An N-qubit state in normalised product form is a depth-N binary tree of
(theta, phi) pairs: node k (heap indexing, children 2k and 2k+1) carries the
conditional qubit of its branch.  Encoding maps the tree onto N strings of L
bits each: string d concatenates, in node order, one codeword per depth-d
node, where a node's segment length equals the +1 count (m) or -1 count of
its parent segment.  Zero-length segments are absent branches; length-1
segments are classical bits (m in {0, 1}, n = 0).  Decoding runs level by
level: one pass over a level's sign changes, found on its packed bytes,
gives its m, n and codeword check, and its m give the next level's lengths.
Encoding walks the levels only for that length recurrence and builds the
runs once per family, in heap order; each level is expanded one byte per bit
and then packed eight bits to a byte.  Both cover live (l > 0) segments
only.  The
saturation sweep takes the exact state only on the quantised state's support:
off it each overlap term is +-0 either way, so the fidelity is the same float.
It runs one sample at a time and draws, decodes (``decode_nested``) and
expands each sample once, at the deepest N: a shallower tree is the heap
prefix of the deeper one, its strings are the first strings of the deeper
family, and its dense vector is an intermediate level of the deeper expansion.

Capacity counting: the N strings hold L*N bits (stored in L*N/8 bytes)
while the state has 2^(N+1) - 2 real degrees of freedom, which bounds the
usable qubit number ``n_max(L)``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .bitstring import BitString, NotCodewordError
from .qubit import TWO_PI

_MASK64 = (1 << 64) - 1
_MAX_DENSE_DEPTH = 24
SATURATION_PHASES = ("draw", "encode", "decode", "amplitudes", "fidelity")


def dof_count(N: int) -> int:
    """Real degrees of freedom of an N-qubit state: 2 + 4 + ... + 2^N = 2^(N+1) - 2."""
    if N < 1:
        raise ValueError(f"qubit count must be >= 1, got {N}")
    return (1 << (N + 1)) - 2


def capacity_deficient(N: int, L: int) -> bool:
    """True iff N length-L strings cannot give each degree of freedom one bit."""
    if L < 1:
        raise ValueError(f"granularity L must be >= 1, got {L}")
    return dof_count(N) > L * N


def n_max(L: int) -> int:
    """Largest N >= 1 with 2^(N+1) - 2 <= L*N, or 0 if none.

    The paper's N_max, the first N that is capacity-deficient, is
    n_max(L) + 1.  (2^(N+1) - 2)/N increases with N, so the feasible N form
    the interval 1..n_max, found by bisection below b + bit_length(b) + 1 (always
    deficient), b = bit_length(L).  Everything is exact big-int arithmetic.
    """
    if L < 1:
        raise ValueError(f"granularity L must be >= 1, got {L}")
    b = L.bit_length()
    lo, hi = 0, b + b.bit_length() + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if capacity_deficient(mid, L):
            hi = mid
        else:
            lo = mid
    return lo


@dataclass(frozen=True)
class AngleTree:
    """Depth-N tree of continuum (theta, phi) pairs, heap-indexed from 1.

    Arrays have size 2^depth with slot 0 unused; node k has children 2k and
    2k + 1, so the depth-d nodes are indices 2^(d-1) .. 2^d - 1.
    """

    depth: int
    thetas: np.ndarray
    phis: np.ndarray

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        size = 1 << self.depth
        if self.thetas.shape != (size,) or self.phis.shape != (size,):
            raise ValueError(f"angle arrays must have shape ({size},)")

    @classmethod
    def from_nodes(cls, depth: int, pairs: Sequence[tuple[float, float]]) -> "AngleTree":
        """Build from (theta, phi) pairs listed for nodes 1 .. 2^depth - 1."""
        size = 1 << depth
        if len(pairs) != size - 1:
            raise ValueError(f"need {size - 1} nodes for depth {depth}")
        thetas = np.zeros(size)
        phis = np.zeros(size)
        for k, (theta, phi) in enumerate(pairs, start=1):
            thetas[k] = theta
            phis[k] = phi
        return cls(depth, thetas, phis)


def random_angle_tree(depth: int, rng: np.random.Generator) -> AngleTree:
    """Random tree with cos^2(theta/2) uniform on [0, 1] and phi uniform on [0, 2pi)."""
    size = 1 << depth
    draws = rng.random((size - 1, 2))
    thetas = np.zeros(size)
    phis = np.zeros(size)
    thetas[1:] = 2.0 * np.arccos(np.sqrt(draws[:, 0]))
    phis[1:] = TWO_PI * draws[:, 1]
    return AngleTree(depth, thetas, phis)


@dataclass(frozen=True, eq=False)
class NestedState:
    """Quantised tree: per node k the integers (m_k, n_k) at segment length l_k.

    l_1 = L, l_2k = m_k and l_2k+1 = l_k - m_k.  Heap layout as in AngleTree.
    Degenerate nodes (m in {0, l}) carry n = 0 since their phase never
    reaches the strings.
    """

    depth: int
    L: int
    m: np.ndarray
    n: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        size = 1 << self.depth
        for name, arr in (("m", self.m), ("n", self.n), ("lengths", self.lengths)):
            if arr.shape != (size,):
                raise ValueError(f"{name} must have shape ({size},)")
        if self.lengths[1] != self.L:
            raise ValueError("root segment length must equal L")

    def __eq__(self, other) -> bool:
        if not isinstance(other, NestedState):
            return NotImplemented
        return (
            self.depth == other.depth
            and self.L == other.L
            and np.array_equal(self.m, other.m)
            and np.array_equal(self.n, other.n)
            and np.array_equal(self.lengths, other.lengths)
        )

    @property
    def degenerate_mask(self) -> np.ndarray:
        """Boolean heap array marking nodes with m in {0, l} (l > 0)."""
        return (self.lengths > 0) & ((self.m == 0) | (self.m == self.lengths))

    def level_slice(self, d: int) -> slice:
        return slice(1 << (d - 1), 1 << d)


def _run_table(lengths: np.ndarray, m: np.ndarray, n: np.ndarray):
    # (bit, run) table of the codewords cyc(iota(l, m), l//2 + n), three runs
    # per segment, bit 1 for +1.  The +1 block starts at a = -(l//2 + n) mod l
    # and wraps past the segment end iff a + m > l.  No wrap: -1 x a, +1 x m,
    # -1 x (l - a - m); wrap: +1 x (a + m - l), -1 x (l - m), +1 x (l - a).
    a = -(lengths // 2 + n) % np.maximum(lengths, 1)
    wrap = a + m > lengths
    runs = np.empty((lengths.size, 3), dtype=np.int64)
    runs[:, 0] = np.where(wrap, a + m - lengths, a)
    runs[:, 1] = np.where(wrap, lengths - m, m)
    runs[:, 2] = lengths - runs[:, 0] - runs[:, 1]
    bits = np.array([[0, 1, 0], [1, 0, 1]], dtype=np.uint8).take(wrap, axis=0)  # row by wrap
    return bits.ravel(), runs.ravel()


def _level_codeword(lengths: np.ndarray, m: np.ndarray, n: np.ndarray) -> np.ndarray:
    # Concatenated codewords of consecutive segments, as packed bytes.
    return np.packbits(np.repeat(*_run_table(lengths, m, n)))


def _decode_level(bits: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (m, n) of the consecutive segments that tile a level, given as packed
    # bytes; the inverse of _level_codeword, raising on a non-codeword.  A
    # segment is a codeword iff at most 2 of its adjacent bit pairs differ:
    # with the wrap-around pair that count is even, and it is at most 2 iff
    # the +1s form one cyclic block.  Bit i of the bytes XORed with their
    # one-bit shift is set where bit i differs from bit i - 1; only that mask
    # is unpacked, with one slot past the end.  With every segment bound set
    # in it too, the marks after a segment's start are its internal changes
    # e1 < e2, then its end, which stands in for a missing one.  The runs
    # between the marks alternate in sign, so the segment's first bit, read
    # off the bytes, fixes them: if it is +1 the middle run [e1, e2) is -1
    # and the block starts at e2, otherwise the middle run is the block.
    # Segments with no internal change are degenerate and keep n = 0.  Live
    # segments only.
    live = (lengths > 0).nonzero()[0]
    l = lengths[live]
    bounds = np.zeros(live.size + 1, dtype=np.int64)
    l.cumsum(out=bounds[1:])
    starts = bounds[:-1]
    changes = bits >> 1
    changes[1:] |= bits[:-1] << 7
    changes ^= bits
    # As bool, like live's mask above: numpy's nonzero is several times
    # faster on bool than on integer arrays.
    changes = np.unpackbits(changes, count=int(bounds[-1]) + 1).view(bool)
    changes[bounds] = True
    marks = changes.nonzero()[0]
    at = np.searchsorted(marks, bounds)
    gaps = at[1:] - at[:-1]  # internal changes + 1
    if gaps.max() > 3:
        raise NotCodewordError("segment is not a cyclic shift of a contiguous +1 block")
    first = at[:-1] + 1
    e1 = marks[first]
    e2 = marks[np.minimum(first + 1, at[1:])]
    starts_plus = (bits[starts >> 3] << (starts & 7)) & 0x80
    middle = e2 - e1
    m_live = np.where(starts_plus, l - middle, middle)
    n_live = (starts - np.where(starts_plus, e2, e1) - (l >> 1)) % l
    n_live[gaps == 1] = 0
    m, n = np.zeros_like(lengths), np.zeros_like(lengths)
    m[live], n[live] = m_live, n_live
    return m, n


def _walk_levels(depth: int, L: int, level_m):
    # Heap arrays m and lengths, root down, by l_2k = m_k, l_2k+1 = l_k - m_k.
    # level_m(d, lengths) gives the depth-d m for the depth-d lengths; decode's
    # also decodes the level's n.  Encode does the rest once over all nodes in
    # heap order, the strings' order.
    size = 1 << depth
    m = np.zeros(size, dtype=np.int64)
    lengths = np.zeros(size, dtype=np.int64)
    lengths[1] = L
    for d in range(1, depth + 1):
        lo, hi = 1 << (d - 1), 1 << d
        level_len = lengths[lo:hi]
        m[lo:hi] = level_m(d, level_len)
        if d < depth:
            lengths[2 * lo : 2 * hi : 2] = m[lo:hi]
            lengths[2 * lo + 1 : 2 * hi : 2] = level_len - m[lo:hi]
    return m, lengths


def _check_granularity(L: int) -> None:
    # Segment lengths are int64 and the root codeword halves L.
    if not 2 <= L < 1 << 63 or L % 2:
        raise ValueError(f"encoding needs even L in [2, 2^63) (int64 limit), got L={L}")


def encode_nested(tree: AngleTree, L: int) -> tuple[list[BitString], NestedState]:
    """Quantise a depth-N tree at granularity L and emit its N strings."""
    _check_granularity(L)
    if not (np.isfinite(tree.thetas[1:]).all() and np.isfinite(tree.phis[1:]).all()):
        raise ValueError("angles must be finite at nodes 1 .. 2^depth - 1")
    # Vector form of qubit.quantise with the same half-down tie rule.  Slot 0
    # is no node, so the angle arithmetic starts at node 1.
    weight = np.cos(tree.thetas[1:] / 2.0) ** 2

    def level_m(d: int, lengths: np.ndarray):
        m = np.ceil(lengths * weight[(1 << (d - 1)) - 1 : (1 << d) - 1] - 0.5).astype(np.int64)
        np.maximum(m, 0, out=m)
        return np.minimum(m, lengths, out=m)

    m, lengths = _walk_levels(tree.depth, L, level_m)
    # np.mod returns phases in [0, 2pi) unchanged, so only the others pay for it.
    phis, l = tree.phis[1:], lengths[1:]
    frac = np.mod(phis, TWO_PI, out=phis.copy(), where=(phis < 0) | (phis >= TWO_PI)) / TWO_PI
    n = np.zeros_like(lengths)
    np.mod(np.ceil(l * frac - 0.5).astype(np.int64), np.maximum(l, 1), out=n[1:])
    n[(m == 0) | (m == lengths)] = 0  # degenerate or absent (m <= l)
    live = (lengths > 0).nonzero()[0]  # absent nodes would emit empty runs
    bits, runs = _run_table(lengths[live], m[live], n[live])  # level d's: [cuts[d - 1], cuts[d])
    cuts = 3 * np.searchsorted(live, [1 << d for d in range(tree.depth + 1)])
    strings = [
        BitString._from_plus(np.repeat(bits[a:b], runs[a:b]))
        for a, b in zip(cuts, cuts[1:])
    ]
    return strings, NestedState(tree.depth, L, m, n, lengths)


def decode_nested(strings: Sequence[BitString]) -> NestedState:
    """Invert ``encode_nested``: recover every (m_k, n_k, l_k) by conditional counting."""
    if not strings:
        raise ValueError("need at least one string")
    L = len(strings[0])
    if any(len(s) != L for s in strings):
        raise ValueError("all strings must share one length")

    n = np.zeros(1 << len(strings), dtype=np.int64)

    def level_m(d: int, lengths: np.ndarray):
        m, n[1 << (d - 1) : 1 << d] = _decode_level(strings[d - 1]._bits, lengths)
        return m

    m, lengths = _walk_levels(len(strings), L, level_m)
    return NestedState(len(strings), L, m, n, lengths)


def _level_vectors(cos_half: np.ndarray, sin_half: np.ndarray, phase: np.ndarray):
    # Yields the dense 2^d vectors for d = 1 .. depth of a product-form tree
    # with 2^depth heap branch factors: the + child of node k multiplies by
    # cos_half[k] and the - child by sin_half[k], then by phase[k].  Level
    # d's vector is that of the tree cut at depth d.
    vec = np.ones(1, dtype=np.complex128)
    for d in range(1, cos_half.size.bit_length()):
        lo, hi = 1 << (d - 1), 1 << d
        nxt = np.empty(2 * vec.size, dtype=np.complex128)
        np.multiply(vec, cos_half[lo:hi], out=nxt[0::2])
        minus = np.multiply(vec, sin_half[lo:hi], out=nxt[1::2])
        minus *= phase[lo:hi]
        vec = nxt
        yield vec


def _expand(factors, *heaps: np.ndarray) -> np.ndarray:
    # Dense 2^depth vector of a product-form tree; factors(*heaps) turns the
    # tree's 2^depth heap arrays into its branch factors.
    if heaps[0].size > 1 << _MAX_DENSE_DEPTH:
        raise ValueError(f"dense amplitudes limited to depth {_MAX_DENSE_DEPTH}")
    for vec in _level_vectors(*factors(*heaps)):
        pass
    return vec


def _state_factors(m: np.ndarray, n: np.ndarray, lengths: np.ndarray):
    # Branch factors of quantised heap arrays, computed at live nodes (l > 0)
    # only; absent nodes give 0, and the phase is left at e^0 = 1 where n = 0.
    live = np.flatnonzero(lengths > 0)
    weight = m[live] / lengths[live]
    cos_half, sin_half = np.zeros(m.size), np.zeros(m.size)
    cos_half[live] = np.sqrt(weight)
    sin_half[live] = np.sqrt(1.0 - weight)
    phase = np.ones(m.size, dtype=np.complex128)
    turn = live[n[live] != 0]
    phase[turn] = np.exp(2j * np.pi * (n[turn] / lengths[turn]))
    return cos_half, sin_half, phase


def _tree_factors(thetas: np.ndarray, phis: np.ndarray):
    half = thetas / 2.0
    return np.cos(half), np.sin(half), np.exp(1j * phis)


def amplitudes(state: NestedState) -> np.ndarray:
    """Dense 2^N state vector of the quantised tree.

    Along the path to a basis index, a + branch multiplies by
    sqrt(m_k / l_k) and a - branch by sqrt(1 - m_k / l_k) * e^(2 pi i n_k / l_k);
    absent branches (l_k = 0) contribute amplitude zero.
    """
    return _expand(_state_factors, state.m, state.n, state.lengths)


def amplitudes_of_tree(tree: AngleTree) -> np.ndarray:
    """Dense 2^N state vector of the continuum tree (the exact reference)."""
    return _expand(_tree_factors, tree.thetas, tree.phis)


def _support_levels(tree: AngleTree, state: NestedState):
    # Pairs of exact and quantised 2^d vectors of a tree and its decoded
    # state, for d = 1 .. depth.  The exact factors are taken only where the
    # quantised ones are nonzero (+ branch: m > 0, - branch: m < l), so the
    # exact vector is 0 off the support.
    m, lengths = state.m, state.lengths
    plus, minus = np.flatnonzero(m > 0), np.flatnonzero(m < lengths)
    cos_half, sin_half = np.zeros(m.size), np.zeros(m.size)
    phase = np.zeros(m.size, dtype=np.complex128)
    cos_half[plus] = np.cos(tree.thetas[plus] / 2.0)
    sin_half[minus] = np.sin(tree.thetas[minus] / 2.0)
    phase[minus] = np.exp(1j * tree.phis[minus])
    exact = _level_vectors(cos_half, sin_half, phase)
    return zip(exact, _level_vectors(*_state_factors(m, state.n, lengths)))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Squared overlap |<a|b>|^2."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"state vectors differ in shape: {a.shape} vs {b.shape}")
    return float(abs(np.vdot(a, b)) ** 2)


class SaturationRow(NamedTuple):
    N: int
    median_fidelity: float
    p10_fidelity: float
    min_segment_len: int


def _encode_cuts(tree: AngleTree, L: int, n_min: int) -> list[BitString]:
    # encode_nested of the tree cut at each depth n_min .. tree.depth, one call
    # each, checking that every family is the prefix of the next deeper one;
    # returns the deepest.  Decoding it then decodes every cut: each level's
    # lengths, m and n depend only on its own and the shallower strings.
    shallower = None
    for N in range(n_min, tree.depth + 1):
        cut = tree if N == tree.depth else AngleTree(N, tree.thetas[: 1 << N], tree.phis[: 1 << N])
        family = encode_nested(cut, L)[0]
        if shallower is not None and family[: N - 1] != shallower:
            raise RuntimeError(f"depth-{N - 1} strings are not a prefix of the depth-{N} strings")
        shallower = family
    return family


def _median_and_p10(values: np.ndarray) -> tuple[float, float]:
    # np.median(values) and np.percentile(values, 10), by numpy's own steps on
    # the sorted values: the mean of the middle slice, and numpy's linear
    # interpolation (_lerp) at (k - 1) * 0.1.  Bit-equal unless values hold
    # both zeros, whose order sort and numpy's partition may not share;
    # fidelities are never -0.0.  Both numpy functions import numpy.ma on
    # first use, ~20 ms per CLI call.
    s = np.sort(values)
    if np.isnan(s[-1]):  # sort puts NaN last; numpy returns that element
        return float(s[-1]), float(s[-1])
    k = s.size
    median = float(s[(k - 1) // 2 : k // 2 + 1].mean())
    at = (k - 1) * 0.1
    lo = math.floor(at)
    a, b, t = float(s[lo]), float(s[min(lo + 1, k - 1)]), at - lo
    return median, (b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def saturation_experiment(
    L: int,
    n_min: int,
    n_max_arg: int,
    samples: int,
    seed: int,
    timings: Optional[dict] = None,
) -> list[SaturationRow]:
    """Fidelity of random trees after encode/decode, swept over qubit number.

    Each sample draws one random tree of depth n_max (sub-seed = seed XOR
    sample index, one fresh generator per sample, so the output is
    independent of evaluation order); row N uses its cut at depth N, which is
    exactly the depth-N tree the same generator draws.  Each cut is quantised
    at granularity L and encoded, the strings are decoded back and the
    reconstructed state is compared against the exact state of the cut.
    Rows report the median and 10th-percentile fidelity plus the smallest
    segment length encountered.  L must be even with 2 <= L < 2^63, as for
    ``encode_nested``; it is checked before anything is drawn.

    Every cut is encoded alone, and each family is checked to be the prefix
    of the next deeper one, so only the deepest family of a sample is decoded
    (by ``decode_nested``) and expanded: the rows read their levels off that
    one pass.  Samples run one at a time, so memory stays bounded by one
    deepest tree plus the fidelity table (8 bytes per row and sample, which
    the percentiles need whole).  The exact state's branch factors
    are computed only where the quantised factor is nonzero and set to 0
    elsewhere.  Where the quantised amplitude is exactly 0 each term of the
    overlap is +-0 with or without that, and adding +-0 leaves the sum
    unchanged (up to the sign of a zero, which |.| drops), so every fidelity
    equals the dense reference's to the bit.
    When ``timings`` is a dict, the wall seconds spent in each phase of
    ``SATURATION_PHASES`` are added to it under the phase's name.
    """
    if not 1 <= n_min <= n_max_arg <= _MAX_DENSE_DEPTH:
        raise ValueError(
            f"need 1 <= n_min <= n_max <= {_MAX_DENSE_DEPTH}, got {n_min}..{n_max_arg}"
        )
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    _check_granularity(L)
    spent = {} if timings is None else timings
    last = time.perf_counter()

    def lap(phase: str) -> None:
        # Adds the wall time since the previous lap to the phase.
        nonlocal last
        last, begin = time.perf_counter(), last
        spent[phase] = spent.get(phase, 0.0) + last - begin

    depths = range(n_min, n_max_arg + 1)
    fids = np.empty((len(depths), samples))
    min_seg = [L] * len(depths)
    for i in range(samples):
        tree = random_angle_tree(n_max_arg, np.random.default_rng((seed ^ i) & _MASK64))
        lap("draw")
        family = _encode_cuts(tree, L, n_min)
        lap("encode")
        state = decode_nested(family)
        for row, N in enumerate(depths):
            min_seg[row] = min(min_seg[row], int(state.lengths[state.level_slice(N)].min()))
        lap("decode")
        for N, (exact, quantised) in enumerate(_support_levels(tree, state), 1):
            lap("amplitudes")
            if N >= n_min:
                fids[N - n_min, i] = fidelity(exact, quantised)
                lap("fidelity")
        lap("amplitudes")
    return [
        SaturationRow(N, *_median_and_p10(row_fids), seg)
        for N, row_fids, seg in zip(depths, fids, min_seg)
    ]
