"""Nested N-qubit states as N correlated length-L bit strings.

An N-qubit state in normalised product form is a depth-N binary tree of
(theta, phi) pairs: node k (heap indexing, children 2k and 2k+1) carries the
conditional qubit of its branch.  Encoding maps the tree onto N strings of L
bits each: string d concatenates, in node order, one codeword per depth-d
node, where a node's segment length equals the +1 count (m) or -1 count of
its parent segment.  Zero-length segments are absent branches; length-1
segments are classical bits (m in {0, 1}, n = 0).  The codec itself, for a
level as for a single string, is ``bitstring``'s, and it sees the live
(l > 0) segments only: absent branches are this module's.  Decoding runs
level by level: the codec gives the m and n of a level's live segments, the
absent ones keep m = n = 0, and the level's m give the next level's lengths.
Encoding walks the levels only for that length recurrence and hands the live
segments to the codec once per family, in heap order.  Dense amplitudes
grow level by level, from the factors of the deepest level and of the levels
above it in turn, never of the whole tree.  The saturation sweep draws,
decodes and expands one sample at a time, once at the deepest N: a shallower
tree is its heap prefix, with the first strings and an intermediate level.

Capacity counting: the N strings hold L*N bits (stored in L*N/8 bytes)
while the state has 2^(N+1) - 2 real degrees of freedom, which bounds the
usable qubit number ``n_max(L)``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .bitstring import BitString, _decode_level, _encode_levels, _require_codec_length
from .qubit import TWO_PI, _require_granularity

_MASK64 = (1 << 64) - 1
_MAX_DENSE_DEPTH = 24
SATURATION_PHASES = ("draw", "encode", "decode", "amplitudes", "fidelity")


def dof_count(N: int) -> int:
    """Real degrees of freedom of an N-qubit state: 2 + 4 + ... + 2^N = 2^(N+1) - 2."""
    return 2 * _heap_size(N) - 2


def capacity_deficient(N: int, L: int) -> bool:
    """True iff N length-L strings cannot give each degree of freedom one bit."""
    _require_granularity(L)
    return dof_count(N) > L * N


def n_max(L: int) -> int:
    """Largest N >= 1 with 2^(N+1) - 2 <= L*N, or 0 if none.

    The paper's N_max, the first N that is capacity-deficient, is
    n_max(L) + 1.  (2^(N+1) - 2)/N increases with N, so the feasible N form
    the interval 1..n_max, found by bisection below b + bit_length(b) + 1 (always
    deficient), b = bit_length(L).  Everything is exact big-int arithmetic.
    """
    _require_granularity(L)
    b = L.bit_length()
    lo, hi = 0, b + b.bit_length() + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if capacity_deficient(mid, L):
            hi = mid
        else:
            lo = mid
    return lo


def _heap_size(depth: int) -> int:
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return 1 << depth


def _fields_equal(self, other) -> bool:
    # __eq__ of AngleTree and NestedState: field by field, arrays by value.
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class AngleTree:
    """Depth-N tree of continuum (theta, phi) pairs, heap-indexed from 1.

    Arrays have size 2^depth with slot 0 unused; node k has children 2k and
    2k + 1, so the depth-d nodes are indices 2^(d-1) .. 2^d - 1.
    """

    depth: int
    thetas: np.ndarray
    phis: np.ndarray

    def __post_init__(self):
        size = _heap_size(self.depth)
        if self.thetas.shape != (size,) or self.phis.shape != (size,):
            raise ValueError(f"angle arrays must have shape ({size},)")

    __eq__ = _fields_equal

    @classmethod
    def from_nodes(cls, depth: int, pairs: Sequence[tuple[float, float]]) -> "AngleTree":
        """Build from (theta, phi) pairs listed for nodes 1 .. 2^depth - 1."""
        size = _heap_size(depth)
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
    size = _heap_size(depth)
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
        size = _heap_size(self.depth)
        for name, arr in (("m", self.m), ("n", self.n), ("lengths", self.lengths)):
            if arr.shape != (size,):
                raise ValueError(f"{name} must have shape ({size},)")
        if self.lengths[1] != self.L:
            raise ValueError("root segment length must equal L")

    __eq__ = _fields_equal

    @property
    def degenerate_mask(self) -> np.ndarray:
        """Boolean heap array marking nodes with m in {0, l} (l > 0)."""
        return (self.lengths > 0) & ((self.m == 0) | (self.m == self.lengths))

    def level_slice(self, d: int) -> slice:
        return slice(1 << (d - 1), 1 << d)


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


def encode_nested(tree: AngleTree, L: int) -> tuple[list[BitString], NestedState]:
    """Quantise a depth-N tree at granularity L and emit its N strings."""
    _require_codec_length(L)
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
    live = (lengths > 0).nonzero()[0]  # string d codes live[cuts[d - 1] : cuts[d]]
    cuts = np.searchsorted(live, [1 << d for d in range(tree.depth + 1)])
    strings = _encode_levels(L, lengths[live], m[live], n[live], cuts)
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
        live = (lengths > 0).nonzero()[0]
        m = np.zeros_like(lengths)
        m[live], n[(1 << (d - 1)) + live] = _decode_level(strings[d - 1], lengths[live])
        return m

    m, lengths = _walk_levels(len(strings), L, level_m)
    return NestedState(len(strings), L, m, n, lengths)


def _level_vectors(depth: int, factors):
    # Yields the 2^d vector of the tree cut at depth d, d = 1 .. depth.  Node k's
    # + child multiplies by cos_half[k - lo], its - child by sin_half[k - lo]
    # and phase[k - lo], from factors(lo, hi) for nodes lo .. hi-1: one call for
    # the levels above the deepest (fewer nodes than it), dropped before its own.
    vec = np.ones(1, dtype=np.complex128)
    for lo, hi in ((1, 1 << (depth - 1)), (1 << (depth - 1), 1 << depth)):
        cos_half, sin_half, phase = factors(lo, hi)
        for d in range(lo.bit_length(), hi.bit_length()):
            a, b = (1 << (d - 1)) - lo, (1 << d) - lo
            nxt = np.empty(2 * vec.size, dtype=np.complex128)
            np.multiply(vec, cos_half[a:b], out=nxt[0::2])
            minus = np.multiply(vec, sin_half[a:b], out=nxt[1::2])
            minus *= phase[a:b]
            vec = nxt
            yield vec
        del cos_half, sin_half, phase


def _dense_depth(depth: int) -> int:
    if depth > _MAX_DENSE_DEPTH:
        raise ValueError(f"dense amplitudes limited to depth {_MAX_DENSE_DEPTH}")
    return depth


def _expand(depth: int, factors) -> np.ndarray:
    for vec in _level_vectors(depth, factors):
        pass
    return vec


def _state_factors(state: NestedState, lo: int, hi: int):
    # Quantised factors of nodes lo .. hi-1 at live (l > 0) nodes; 0 if absent, phase 1 if n = 0.
    m, n, lengths = state.m[lo:hi], state.n[lo:hi], state.lengths[lo:hi]
    live = np.flatnonzero(lengths > 0)
    weight = m[live] / lengths[live]
    cos_half, sin_half = np.zeros(m.size), np.zeros(m.size)
    cos_half[live] = np.sqrt(weight)
    sin_half[live] = np.sqrt(1.0 - weight)
    phase = np.ones(m.size, dtype=np.complex128)
    turn = live[n[live] != 0]
    phase[turn] = np.exp(2j * np.pi * (n[turn] / lengths[turn]))
    return cos_half, sin_half, phase


def _tree_factors(tree: AngleTree, lo: int, hi: int, plus=slice(None), minus=slice(None)):
    # Exact factors of nodes lo .. hi-1 at offsets plus (+) and minus (-), else 0.
    thetas, phis = tree.thetas[lo:hi], tree.phis[lo:hi]
    cos_half, sin_half, phase = np.zeros(hi - lo), np.zeros(hi - lo), np.zeros(hi - lo, complex)
    cos_half[plus] = np.cos(thetas[plus] / 2.0)
    sin_half[minus] = np.sin(thetas[minus] / 2.0)
    phase[minus] = np.exp(1j * phis[minus])
    return cos_half, sin_half, phase


def amplitudes(state: NestedState) -> np.ndarray:
    """Dense 2^N state vector of the quantised tree.

    Along the path to a basis index, a + branch multiplies by
    sqrt(m_k / l_k) and a - branch by sqrt(1 - m_k / l_k) * e^(2 pi i n_k / l_k);
    absent branches (l_k = 0) contribute amplitude zero.  Memory is the 2^N
    result, the level above it and one level's factors.  N > 24 is refused, and
    so is a state that breaks 0 <= m_k <= l_k or NestedState's length recurrence.
    """
    m, l, half = state.m, state.lengths, 1 << (_dense_depth(state.depth) - 1)
    if not (((0 <= m) & (m <= l))[1:].all() and np.array_equal(l[2::2], m[1:half])
            and np.array_equal(l[3::2], l[1:half] - m[1:half])):
        raise ValueError("amplitudes need 0 <= m_k <= l_k, l_2k = m_k and l_2k+1 = l_k - m_k")
    return _expand(state.depth, lambda lo, hi: _state_factors(state, lo, hi))


def amplitudes_of_tree(tree: AngleTree) -> np.ndarray:
    """Dense 2^N state vector of the continuum tree (the exact reference)."""
    return _expand(_dense_depth(tree.depth), lambda lo, hi: _tree_factors(tree, lo, hi))


def _support_levels(tree: AngleTree, state: NestedState):
    # Pairs of exact and quantised 2^d vectors for d = 1 .. depth, the exact
    # factors kept where the quantised are nonzero (+: m > 0, -: m < l).
    def exact_factors(lo: int, hi: int):
        m, lengths = state.m[lo:hi], state.lengths[lo:hi]
        return _tree_factors(tree, lo, hi, np.flatnonzero(m > 0), np.flatnonzero(m < lengths))

    quantised = _level_vectors(state.depth, lambda lo, hi: _state_factors(state, lo, hi))
    return zip(_level_vectors(state.depth, exact_factors), quantised)


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

    Every cut is encoded alone and checked to be the prefix of the next
    deeper family, so only a sample's deepest family is decoded (by
    ``decode_nested``) and expanded, and the rows read their levels off that
    pass.  Memory is one deepest tree, its decoded heap arrays, two levels of
    the exact and quantised vectors, one level's factors and the fidelity
    table (8 bytes per row and sample).  Exact factors are kept only where the
    quantised factor is nonzero: elsewhere each overlap term is +-0 either
    way, so every fidelity equals the dense reference's to the bit.  A
    ``timings`` dict gains the wall seconds of each ``SATURATION_PHASES`` phase.
    """
    if not 1 <= n_min <= n_max_arg <= _MAX_DENSE_DEPTH:
        raise ValueError(
            f"need 1 <= n_min <= n_max <= {_MAX_DENSE_DEPTH}, got {n_min}..{n_max_arg}"
        )
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    _require_codec_length(L)
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
