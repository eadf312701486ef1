import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgrain.bitstring import (
    BitString,
    NotCodewordError,
    _decode_level,
    _encode_levels,
    encode,
    from_text,
    negate,
    to_text,
)
from qgrain import nested
from qgrain.nested import (
    AngleTree,
    amplitudes,
    amplitudes_of_tree,
    capacity_deficient,
    decode_nested,
    dof_count,
    encode_nested,
    fidelity,
    n_max,
    random_angle_tree,
    saturation_experiment,
)
from qgrain.qubit import TWO_PI, DiscretisedQubit, quantise

import oracles


def test_dof_count_examples():
    assert dof_count(3) == 14
    assert dof_count(1) == 2
    assert dof_count(5) == 62
    with pytest.raises(ValueError):
        dof_count(0)


def test_capacity_deficient_examples():
    assert capacity_deficient(5, 16) is False
    assert capacity_deficient(6, 16) is True
    assert capacity_deficient(1, 1) is True


def test_n_max_examples():
    assert n_max(16) == 5
    assert n_max(1) == 0
    assert n_max(2) == 1


def _is_capacity_bound(L, n):
    # certificate: n is feasible (or 0), n + 1 is not
    return (1 << (n + 1)) - 2 <= L * n and (1 << (n + 2)) - 2 > L * (n + 1)


@pytest.mark.parametrize(
    "L,expected",
    [(1 << 10, 12), (1 << 20, 23), (1 << 100, 105), (1 << 640, 648)],
)
def test_n_max_certificates_at_large_granularity(L, expected):
    assert _is_capacity_bound(L, expected)
    assert n_max(L) == expected
    # the bound tracks log2 L up to the log2(N) correction
    k = L.bit_length() - 1
    assert k <= expected <= k + math.ceil(math.log2(expected)) + 1


@given(st.integers(min_value=1, max_value=1 << 4096))
def test_n_max_is_the_capacity_bound(L):
    assert _is_capacity_bound(L, n_max(L))


def test_n_max_certificate_at_megabit_granularity():
    # A scan over N would need ~2^20 steps of megabit arithmetic here.
    L = (1 << (1 << 20)) - 12345
    assert _is_capacity_bound(L, n_max(L))


def tree_from(depth, pairs):
    return AngleTree.from_nodes(depth, pairs)


def test_encode_nested_single_qubit_matches_codec():
    strings, state = encode_nested(tree_from(1, [(math.pi / 2, 0.0)]), 4)
    assert strings[0] == BitString([-1, -1, 1, 1])
    assert strings[0] == encode(DiscretisedQubit(2, 0, 4))
    assert state.m[1] == 2 and state.n[1] == 0 and state.lengths[1] == 4


def test_encode_nested_two_level_example():
    tree = tree_from(2, [(math.pi / 2, 0.0), (0.0, 0.0), (0.0, 0.0)])
    strings, state = encode_nested(tree, 4)
    assert [to_text(s) for s in strings] == ["--++", "++++"]
    # conditional frequency is 1 inside both depth-2 segments
    assert state.m[2] == state.lengths[2] == 2
    assert state.m[3] == state.lengths[3] == 2


def test_encode_nested_segment_bookkeeping():
    pairs = [(math.pi / 2, 0.0)] + [(0.3, 0.1)] * 6
    strings, state = encode_nested(tree_from(3, pairs), 8)
    assert state.m[1] == 4
    assert state.lengths[2] == state.lengths[3] == 4
    assert [len(s) for s in strings] == [8, 8, 8]


def test_encode_nested_rejects_odd_granularity():
    with pytest.raises(ValueError):
        encode_nested(tree_from(1, [(0.1, 0.2)]), 5)


@pytest.mark.parametrize(
    "node, theta, phi",
    [(1, math.nan, 0.0), (1, 0.3, math.inf), (2, -math.inf, 0.1), (3, 0.3, math.nan)],
)
def test_encode_nested_refuses_non_finite_angles(node, theta, phi):
    # Unchecked, the int64 casts turn NaN/inf into garbage with only a warning.
    pairs = [(0.3, 0.1)] * 3
    pairs[node - 1] = (theta, phi)
    with pytest.raises(ValueError, match="finite"):
        encode_nested(tree_from(2, pairs), 8)


@pytest.mark.parametrize(
    "theta0, phi0", [(math.nan, math.inf), (math.inf, math.nan), (-math.inf, -math.inf)]
)
def test_encode_nested_leaves_slot_zero_alone(theta0, phi0):
    # Slot 0 is no node, so nothing it holds reaches the arithmetic.
    def tree(theta0, phi0):
        return AngleTree(2, np.array([theta0, 1.2, 2.0, 0.9]), np.array([phi0, 0.1, 2.5, 4.0]))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strings, state = encode_nested(tree(theta0, phi0), 16)
    assert (strings, state) == encode_nested(tree(0.0, 0.0), 16)


@pytest.mark.parametrize("L", [2**63, 2**64, 2**641], ids=["2^63", "2^64", "2^641"])
def test_granularity_beyond_int64_is_refused(L):
    with pytest.raises(ValueError, match=r"2\^63"):
        encode_nested(tree_from(1, [(0.1, 0.2)]), L)
    with pytest.raises(ValueError, match=r"2\^63"):
        saturation_experiment(L, 1, 2, 1, 0)


@given(st.integers(1, 6), st.integers(1, 2**32 - 1))
@settings(max_examples=40)
def test_nested_round_trip(depth, seed):
    rng = np.random.default_rng(seed)
    tree = random_angle_tree(depth, rng)
    strings, state = encode_nested(tree, 256)
    assert decode_nested(strings) == state


def test_nested_round_trip_degenerate_root():
    # theta = 0 forces m = L at the root: right branch empty, left all-ones
    tree = tree_from(2, [(0.0, 1.0), (math.pi / 2, 0.5), (1.0, 1.0)])
    strings, state = encode_nested(tree, 8)
    assert state.m[1] == 8 and state.lengths[3] == 0
    assert state.n[1] == 0  # degenerate phase canonicalised
    assert bool(state.degenerate_mask[1])
    assert decode_nested(strings) == state
    vec = amplitudes(state)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    assert vec[2] == 0 and vec[3] == 0  # absent branch carries no weight


def test_all_ones_family_degenerate():
    depth = 3
    tree = tree_from(depth, [(0.0, 0.0)] * 7)
    strings, state = encode_nested(tree, 16)
    assert all(to_text(s) == "+" * 16 for s in strings)
    live = state.lengths > 0
    assert np.array_equal(state.m[live], state.lengths[live])
    assert np.all(state.degenerate_mask[live])
    assert decode_nested(strings) == state


def test_decode_nested_rejects_corrupt_segment():
    tree = tree_from(2, [(math.pi / 2, 0.0), (math.pi / 2, 0.0), (math.pi / 2, 0.0)])
    strings, _ = encode_nested(tree, 8)
    bad = np.array(strings[1].values)
    bad[:4] = [1, -1, 1, -1]  # not a cyclic block in the first segment
    with pytest.raises(NotCodewordError):
        decode_nested([strings[0], BitString(bad)])


NOT_CODEWORD = r"^segment is not a cyclic shift of a contiguous \+1 block$"


def _corrupt(string, start, pattern):
    # Overwrite bits from start on with pattern; the +1 count is unchanged
    # when pattern has as many +1s as the bits it replaces.
    values = np.array(string.values)
    values[start : start + len(pattern)] = pattern
    return BitString(values)


def _half_tree(depth):
    # Every node at theta = pi/2, so every segment splits evenly.
    return tree_from(depth, [(math.pi / 2, 0.0)] * ((1 << depth) - 1))


def test_decode_nested_rejects_corrupt_root_level_only():
    strings, _ = encode_nested(_half_tree(3), 16)
    assert to_text(strings[0]) == "--------++++++++"
    bad = [_corrupt(strings[0], 0, [1, -1] * 8)] + strings[1:]  # same m = 8 at the root
    with pytest.raises(NotCodewordError, match=NOT_CODEWORD):
        decode_nested(bad)


def test_decode_nested_rejects_corrupt_deepest_level_only():
    strings, state = encode_nested(_half_tree(3), 16)
    assert state.lengths[4] == 4
    bad = strings[:2] + [_corrupt(strings[2], 0, [1, -1, 1, -1])]
    with pytest.raises(NotCodewordError, match=NOT_CODEWORD):
        decode_nested(bad)


def test_decode_nested_rejects_corrupt_middle_level_only():
    strings, state = encode_nested(_half_tree(3), 16)
    assert to_text(strings[1]) == "----++++" * 2
    assert decode_nested(strings) == state
    bad = [strings[0], _corrupt(strings[1], 0, [1, -1] * 4), strings[2]]  # same m = 4 per segment
    with pytest.raises(NotCodewordError, match=NOT_CODEWORD):
        decode_nested(bad)


@pytest.mark.parametrize(
    "root,codeword,m,n",
    [
        ("++++", "--++", [0, 4, 2, 0], [0, 0, 0, 0]),  # cyc(iota(4, 2), 4/2 + 0)
        ("----", "-++-", [0, 0, 0, 2], [0, 0, 0, 1]),  # cyc(iota(4, 2), 4/2 + 1)
    ],
)
def test_decode_nested_codeword_check_next_to_an_absent_branch(root, codeword, m, n):
    # One branch of the all-equal root is absent, so string 2 is the other
    # branch's codeword alone: decode_nested, not the codec, places it.
    with pytest.raises(NotCodewordError, match=NOT_CODEWORD):
        decode_nested([from_text(root), from_text("+-+-")])
    state = decode_nested([from_text(root), from_text(codeword)])
    assert state.lengths.tolist() == [0, 4, m[1], 4 - m[1]]
    assert state.m.tolist() == m
    assert state.n.tolist() == n


def test_decode_nested_length_mismatch_is_reported_first():
    strings, _ = encode_nested(_half_tree(2), 16)
    bad = [_corrupt(strings[0], 0, [1, -1] * 8), BitString([1, -1] * 4)]
    with pytest.raises(ValueError, match="share one length") as excinfo:
        decode_nested(bad)
    assert excinfo.type is ValueError


def _traced_peak(call):
    # Traced peak bytes of call(), run once before so that first-call
    # allocations are out of the way, and its second result.
    call()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


def test_decode_nested_megabit_memory():
    # Each level is decoded a slice of at least 2^16 bits at a time; a
    # slice's largest temporary is its byte-per-bit mask of sign changes.
    strings, state = encode_nested(random_angle_tree(4, np.random.default_rng(0)), 1 << 20)
    peak, decoded = _traced_peak(lambda: decode_nested(strings))
    assert decoded == state
    assert peak <= 0.5 * 2**20, f"decode_nested at (2^20, 4) peaked at {peak / 2**20:.2f} MiB"


def test_encode_nested_megabit_memory():
    # The family is 4 strings of 2^20 bits, 0.5 MiB; each level is expanded
    # and packed a slice at a time, so the rest stays well under a level.
    tree = random_angle_tree(4, np.random.default_rng(0))
    peak, _ = _traced_peak(lambda: encode_nested(tree, 1 << 20))
    assert peak <= 0.75 * 2**20, f"encode_nested at (2^20, 4) peaked at {peak / 2**20:.2f} MiB"


def test_codec_memory_at_2_24_bits():
    # At 2^24 bits a level runs in 64 slices of 2^18 bits: encode holds the
    # family and one slice's temporaries, decode only a slice's.
    tree = random_angle_tree(4, np.random.default_rng(0))
    peak, (strings, state) = _traced_peak(lambda: encode_nested(tree, 1 << 24))
    family = len(strings) * (1 << 24) // 8  # eight bits to a byte
    over = (peak - family) / 2**20
    assert over <= 1, f"encode_nested at (2^24, 4) peaked {over:.2f} MiB over the family"
    peak, decoded = _traced_peak(lambda: decode_nested(strings))
    assert decoded == state
    assert peak <= 0.5 * 2**20, f"decode_nested at (2^24, 4) peaked at {peak / 2**20:.2f} MiB"


def _decode_segment_by_segment(strings):
    # Reference for decode_nested: the single-string oracle on every live
    # segment, root down, with children of lengths m and l - m; None where a
    # segment is not a codeword.
    depth, L = len(strings), len(strings[0])
    m, n, lengths = (np.zeros(1 << depth, dtype=np.int64) for _ in range(3))
    lengths[1] = L
    for d, string in enumerate(strings, start=1):
        start = 0
        for k in range(1 << (d - 1), 1 << d):
            l = int(lengths[k])
            if l:
                decoded = oracles.decode(string.values[start : start + l])
                if decoded is None:
                    return None
                m[k], n[k], _ = decoded
                start += l
            if d < depth:
                lengths[2 * k], lengths[2 * k + 1] = m[k], l - m[k]
    return nested.NestedState(depth, L, m, n, lengths)


@given(st.integers(1, 6), st.integers(1, 32), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=200)
def test_decode_nested_matches_segment_by_segment_decode(depth, half_L, seed, data):
    # 0-3 bit flips anywhere in the family: both raise, or both give one state.
    strings, _ = encode_nested(random_angle_tree(depth, np.random.default_rng(seed)), 2 * half_L)
    values = [np.array(s.values) for s in strings]
    bits = st.tuples(st.integers(0, depth - 1), st.integers(0, 2 * half_L - 1))
    for d, i in data.draw(st.lists(bits, max_size=3), label="flips"):
        values[d][i] *= -1
    family = [BitString(v) for v in values]
    expected = _decode_segment_by_segment(family)
    if expected is None:
        with pytest.raises(NotCodewordError, match=NOT_CODEWORD):
            decode_nested(family)
        return
    assert decode_nested(family) == expected


# Levels of the nested codec: (l, m, n) per segment, absent (l = 0),
# classical (l = 1) and odd-length segments included.
segments = st.integers(0, 12).flatmap(
    lambda l: st.tuples(st.just(l), st.integers(0, l), st.integers(0, max(l - 1, 0)))
)
levels = st.lists(segments, min_size=1, max_size=8).filter(
    lambda segs: sum(l for l, _, _ in segs) > 0
)


def level_arrays(segs):
    return tuple(np.array(col, dtype=np.int64) for col in zip(*segs))


def level_codewords(lengths, m, n):
    # _encode_levels on one level whose segments include absent ones: the one
    # string of its live segments' codewords.
    live = lengths > 0
    cuts = [0, int(live.sum())]
    return _encode_levels(int(lengths.sum()), lengths[live], m[live], n[live], cuts)[0]


def assert_decode_matches_single_segment_codec(values, lengths):
    # Oracle: the single-string codec on each live segment of the +1/-1
    # values on its own; _decode_level reads the same level packed eight bits
    # to a byte, given the live lengths only, as decode_nested gives them.
    live = lengths[lengths > 0]
    expected_m, expected_n = [], []
    failed = False
    for start, length in zip(np.cumsum(live) - live, live):
        decoded = oracles.decode(values[start : start + length])
        if decoded is None:
            failed = True
            break
        expected_m.append(decoded[0])
        expected_n.append(decoded[1])
    level = BitString(values)
    if failed:
        with pytest.raises(NotCodewordError, match=NOT_CODEWORD):
            _decode_level(level, live)
        return
    m, n = _decode_level(level, live)
    assert m.tolist() == expected_m
    assert n.tolist() == expected_n


@given(levels)
@settings(max_examples=200)
def test_level_codeword_matches_single_segment_codec(segs):
    lengths, m, n = level_arrays(segs)
    expected = np.concatenate([oracles.encode(l, mm, nn) for l, mm, nn in segs if l > 0])
    got = level_codewords(lengths, m, n)
    assert np.array_equal(got.values, expected)
    assert_decode_matches_single_segment_codec(expected, lengths)


@given(st.integers(1, 8), st.integers(1, 32), st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_encode_nested_strings_are_level_codewords_of_heap_slices(depth, half_L, seed):
    # Phases span several turns either side of [0, 2pi), with exact turns mixed in.
    L = 2 * half_L
    rng = np.random.default_rng(seed)
    tree = random_angle_tree(depth, rng)
    turns = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], tree.phis.size)
    phis = np.where(rng.random(tree.phis.size) < 0.2, turns, rng.uniform(-3, 3, tree.phis.size))
    tree = AngleTree(depth, tree.thetas, TWO_PI * phis)
    strings, state = encode_nested(tree, L)
    for d, string in enumerate(strings, start=1):
        sl = state.level_slice(d)
        segs = zip(state.lengths[sl], state.m[sl], state.n[sl])
        codeword = np.concatenate([oracles.encode(l, m, n) for l, m, n in segs if l > 0])
        assert np.array_equal(string.values, codeword)
    for k in range(1, 1 << depth):
        l, m = int(state.lengths[k]), int(state.m[k])
        if 0 < m < l:  # scalar oracle for the phase: qubit.quantise's n rule
            assert state.n[k] == quantise(float(tree.thetas[k]), float(tree.phis[k]), l).n
        else:
            assert state.n[k] == 0
    assert decode_nested(strings) == state


@given(levels, st.data())
@settings(max_examples=200)
def test_decode_level_matches_single_segment_codec(segs, data):
    lengths, m, n = level_arrays(segs)
    total = int(lengths.sum())
    if data.draw(st.booleans(), label="arbitrary"):
        values = np.array(
            data.draw(st.lists(st.sampled_from([1, -1]), min_size=total, max_size=total)),
            dtype=np.int8,
        )
    else:
        values = np.array(level_codewords(lengths, m, n).values)
        flips = data.draw(st.lists(st.integers(0, total - 1), max_size=3))
        values[flips] *= -1
    assert_decode_matches_single_segment_codec(values, lengths)


# Levels the codec takes in slices: 2^16 * k + r bits in all, k >= 1, so the
# slices are 2^16 bits long and the last one r bits when r > 0.  Segment
# bounds, block starts and block ends are drawn either anywhere or within a
# few bits of a slice bound.
SLICE = 1 << 16


@st.composite
def sliced_levels(draw):
    k, r = draw(st.integers(1, 3)), draw(st.sampled_from([0, 2, 4, 6]))
    total = k * SLICE + r
    near = st.sampled_from(range(SLICE, total + 1, SLICE)).flatmap(
        lambda b: st.integers(b - 9, b + 9)
    )
    place = st.one_of(near, st.integers(0, total))
    cuts = sorted(min(max(c, 0), total) for c in draw(st.lists(place, max_size=5)))
    segs, start = [], 0
    for end in cuts + [total]:
        l = end - start
        if l == 0:
            segs.append((0, 0, 0))
            continue
        # The +1 block starts at offset a and wraps past the segment end iff
        # a + m > l; encode puts it there for n = -(l//2 + a) mod l.
        a = min(max(draw(place) - start, 0), l - 1)
        if draw(st.booleans()):
            m = min(max(draw(place) - start - a, 0), l)
        else:
            m = draw(st.integers(0, l))
        segs.append((l, m, (-(l // 2) - a) % l))
        start = end
    return segs, total


@given(sliced_levels(), st.data())
@settings(max_examples=100, deadline=None)
def test_sliced_level_codec_matches_single_segment_codec(level, data):
    segs, total = level
    lengths, m, n = level_arrays(segs)
    expected = np.concatenate([oracles.encode(l, mm, nn) for l, mm, nn in segs if l > 0])
    assert np.array_equal(level_codewords(lengths, m, n).values, expected)
    assert_decode_matches_single_segment_codec(expected, lengths)
    # Non-codewords: up to two flips, each within a few bits either side of a
    # slice bound or anywhere, or a level of arbitrary bits.
    flip = st.one_of(
        st.sampled_from(range(SLICE, total + 1, SLICE)).flatmap(
            lambda b: st.integers(b - 4, min(b + 3, total - 1))
        ),
        st.integers(0, total - 1),
    )
    values = expected.copy()
    values[data.draw(st.lists(flip, min_size=1, max_size=2), label="flips")] *= -1
    assert_decode_matches_single_segment_codec(values, lengths)
    if data.draw(st.booleans(), label="arbitrary"):
        values = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).choice(
            np.array([1, -1], dtype=np.int8), total
        )
        assert_decode_matches_single_segment_codec(values, lengths)


@pytest.mark.parametrize(
    "text,lengths",
    [
        ("+-+-++", [4, 0, 2]),  # non-block segment next to an absent one
        ("++--+-+-", [0, 4, 4]),
        ("--++--++", [4, 4]),  # shared boundary is a +1 -> -1 transition
        ("++----++", [4, 4]),  # shared boundary is a -1 -> +1 transition
        ("+-+--+", [2, 0, 1, 0, 3]),
        ("+-+", [1, 1, 1]),  # classical bits: transitions only at boundaries
    ],
)
def test_decode_level_explicit_boundaries(text, lengths):
    values = from_text(text).values
    assert_decode_matches_single_segment_codec(values, np.array(lengths, dtype=np.int64))


def _codec_digests(L, depth):
    tree = random_angle_tree(depth, np.random.default_rng(0))
    strings, _ = encode_nested(tree, L)
    state = decode_nested(strings)
    bits = hashlib.sha256()
    for s in strings:
        bits.update(s.values.tobytes())
    ints = hashlib.sha256()
    for arr in (state.m, state.n, state.lengths):
        ints.update(arr.astype("<i8").tobytes())
    return bits.hexdigest(), ints.hexdigest()


@pytest.mark.parametrize(
    "L,depth,strings_sha256,state_sha256",
    [
        (
            4096,
            14,
            "5644a2716c320d5d699372562a114b497194225458a33e41283bbcab158fedf0",
            "b89433eb62d1e456318006d1283429445fc818f175b5702183ec4a37348d344d",
        ),
        (
            1 << 20,
            4,
            "85ac852ae20a6c6e7a7a929f37206af617b535c054619e4b79fe3315b921a1e4",
            "b1e2b2c9c6c22e1a923a779a2ead353883ef4c6225e2a47f8e83399796ea6205",
        ),
        (
            (1 << 20) + 2,
            4,
            "a43a9329d1b4b6033dc21cf662b5d0e398318645de556d9d3053731f7f212a74",
            "de894087ed543448a878be50af7ba1457b1f36a50647ac75820df412b4b47ecb",
        ),
        (
            3 * 2**16 + 6,
            10,
            "202bb20a04a635966b03f6f139a6f1b5d9600d78af6f9d623b5a97f3c2906e62",
            "dfbaa43121b87fa9bb0c0cc5602ad6fe3abcd6613b8aa22fcd6dea27c8f2aa3f",
        ),
    ],
)
def test_nested_codec_golden_digests(L, depth, strings_sha256, state_sha256):
    # Seed-0 trees at the two saturate benchmark shapes, and at two lengths
    # whose levels the codec takes in slices with a short last one.  The
    # digests were taken when every level was coded whole.  Only integers
    # are hashed: fidelities depend on the BLAS summation order.
    assert _codec_digests(L, depth) == (strings_sha256, state_sha256)


def test_conditional_born_exactness_and_bit_budget():
    rng = np.random.default_rng(7)
    for depth in (2, 4, 6):
        tree = random_angle_tree(depth, rng)
        strings, state = encode_nested(tree, 512)
        assert sum(len(s) for s in strings) == depth * 512
        for d in range(1, depth + 1):
            sl = state.level_slice(d)
            lengths = state.lengths[sl]
            starts = np.concatenate(([0], np.cumsum(lengths)))[:-1]
            values = strings[d - 1].values
            for seg, (start, ell) in enumerate(zip(starts, lengths)):
                plus = int(np.count_nonzero(values[start : start + ell] == 1))
                assert plus == state.m[sl][seg]


def test_amplitudes_examples():
    _, state = encode_nested(tree_from(1, [(0.0, 0.0)]), 8)
    assert np.allclose(amplitudes(state), [1, 0], atol=1e-15)

    _, state = encode_nested(tree_from(1, [(math.pi / 2, math.pi / 2)]), 8)
    vec = amplitudes(state)
    assert vec[0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert vec[1] == pytest.approx(1j / math.sqrt(2), abs=1e-12)

    uniform = tree_from(3, [(math.pi / 2, 0.0)] * 7)
    _, state = encode_nested(uniform, 16)
    assert np.allclose(amplitudes(state), np.full(8, 1 / (2 * math.sqrt(2))), atol=1e-12)

    # An absent branch (l = 0) gives amplitude zero whatever n it carries.
    m, n, lengths = np.array([0, 4, 0, 0]), np.array([0, 0, 0, 3]), np.array([0, 4, 4, 0])
    assert amplitudes(nested.NestedState(2, 4, m, n, lengths)).tolist() == [0, 1, 0, 0]


@given(st.integers(1, 7), st.integers(1, 2**32 - 1))
@settings(max_examples=30)
def test_amplitudes_unit_norm(depth, seed):
    tree = random_angle_tree(depth, np.random.default_rng(seed))
    _, state = encode_nested(tree, 128)
    assert abs(np.linalg.norm(amplitudes(state)) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(amplitudes_of_tree(tree)) - 1.0) <= 1e-12


def test_fidelity_examples():
    v = np.array([0.6, 0.8j])
    assert fidelity(v, v) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(np.array([1, 0]), np.array([0, 1])) == 0.0
    half = fidelity(np.array([1, 0]), np.array([1, 1]) / math.sqrt(2))
    assert half == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        fidelity(np.array([1, 0]), np.array([1, 0, 0]))


def test_fidelity_of_quantised_state_is_high_at_fine_grain():
    # A random split can still produce a near-empty segment at shallow depth
    # (one draw below lands on length 1), so only the bulk is sharp.
    rng = np.random.default_rng(3)
    fids = []
    for _ in range(20):
        tree = random_angle_tree(3, rng)
        _, state = encode_nested(tree, 4096)
        fids.append(fidelity(amplitudes_of_tree(tree), amplitudes(state)))
    assert min(fids) > 0.995
    assert float(np.median(np.array(fids))) > 1 - 1e-4


def test_saturation_experiment_rows_and_determinism():
    rows_a = saturation_experiment(64, 1, 4, 25, seed=9)
    rows_b = saturation_experiment(64, 1, 4, 25, seed=9)
    assert rows_a == rows_b
    assert [r.N for r in rows_a] == [1, 2, 3, 4]
    assert rows_a[0].median_fidelity > 1 - 1e-3
    assert all(0 <= r.p10_fidelity <= r.median_fidelity <= 1 for r in rows_a)
    assert all(r.min_segment_len <= 64 for r in rows_a)


def test_saturation_experiment_seed_changes_output():
    assert saturation_experiment(64, 2, 2, 25, seed=1) != saturation_experiment(
        64, 2, 2, 25, seed=2
    )


def test_saturation_experiment_validation():
    with pytest.raises(ValueError):
        saturation_experiment(63, 1, 2, 5, 0)
    with pytest.raises(ValueError):
        saturation_experiment(64, 3, 2, 5, 0)
    with pytest.raises(ValueError):
        saturation_experiment(64, 1, 30, 5, 0)
    with pytest.raises(ValueError):
        saturation_experiment(64, 1, 2, 0, 0)


def _per_tree_rows(L, n_min, n_max_arg, samples, seed):
    # Reference: one tree at a time through the public functions.
    rows = []
    for N in range(n_min, n_max_arg + 1):
        fids = []
        min_seg = L
        for i in range(samples):
            tree = random_angle_tree(N, np.random.default_rng(seed ^ i))
            strings, _ = encode_nested(tree, L)
            state = decode_nested(strings)
            fids.append(fidelity(amplitudes_of_tree(tree), amplitudes(state)))
            min_seg = min(min_seg, int(state.lengths[state.level_slice(N)].min()))
        rows.append((N, float(np.median(fids)), float(np.percentile(fids, 10)), min_seg))
    return rows


@pytest.mark.parametrize(
    "L,n_min,n_max_arg,samples,seed",
    [
        (4096, 10, 10, 11, 0),
        (4096, 10, 10, 12, 7),
        (4096, 10, 10, 13, 12345),
        (4096, 14, 14, 3, 1),
        (2, 1, 14, 5, 3),
        (64, 1, 6, 40, 9),
        (16, 1, 12, 8, 5),  # past n_max(16) = 5 almost every deep branch is absent
        (4096, 12, 14, 3, 2),
        (16, 4, 9, 7, 11),
        (256, 3, 8, 20, 4),
    ],
)
def test_saturation_batches_match_per_tree_reference(L, n_min, n_max_arg, samples, seed):
    assert saturation_experiment(L, n_min, n_max_arg, samples, seed) == _per_tree_rows(
        L, n_min, n_max_arg, samples, seed
    )


@pytest.mark.parametrize(
    "L,n_min,n_max_arg,samples,seed",
    [(4096, 1, 14, 3, 0), (2, 1, 12, 4, 1), (16, 3, 10, 9, 6), (1 << 16, 1, 6, 2, 2)],
)
def test_multi_row_sweep_equals_single_row_sweeps(L, n_min, n_max_arg, samples, seed):
    # Single-row sweeps draw and decode at their own depth.
    assert saturation_experiment(L, n_min, n_max_arg, samples, seed) == [
        row for N in range(n_min, n_max_arg + 1) for row in saturation_experiment(L, N, N, samples, seed)
    ]


@given(st.integers(1, 8), st.integers(0, 4), st.sampled_from([2, 16, 4096, 1 << 16]), st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_shallower_trees_families_and_decodes_are_prefixes(N, extra, L, seed):
    # The sweep's premises: one generator draws the depth-N tree as the heap
    # prefix of the deeper one, whose first N strings, quantised heap and
    # decoded heap are then those of the depth-N tree.
    size = 1 << N
    tree, deep = (random_angle_tree(depth, np.random.default_rng(seed)) for depth in (N, N + extra))
    assert np.array_equal(tree.thetas, deep.thetas[:size])
    assert np.array_equal(tree.phis, deep.phis[:size])
    (strings, state), (deep_strings, deep_state) = encode_nested(tree, L), encode_nested(deep, L)
    assert strings == deep_strings[:N]
    decoded, deep_decoded = decode_nested(strings), decode_nested(deep_strings)
    for name in ("m", "n", "lengths"):
        assert np.array_equal(getattr(state, name), getattr(deep_state, name)[:size])
        assert np.array_equal(getattr(decoded, name), getattr(deep_decoded, name)[:size])


def test_saturation_encodes_each_cut_once_and_draws_each_sample_once(monkeypatch):
    encoded, decoded, drawn = [], [], []
    encode, decode, draw = nested.encode_nested, nested.decode_nested, nested.random_angle_tree

    def counting_encode(tree, L):
        strings, state = encode(tree, L)
        encoded.append((tree.depth, sum(len(s) for s in strings)))
        return strings, state

    def counting_decode(strings):
        decoded.append((len(strings), sum(len(s) for s in strings)))
        return decode(strings)

    def counting_draw(depth, rng):
        drawn.append(depth)
        return draw(depth, rng)

    monkeypatch.setattr(nested, "encode_nested", counting_encode)
    monkeypatch.setattr(nested, "decode_nested", counting_decode)
    monkeypatch.setattr(nested, "random_angle_tree", counting_draw)
    L, samples = 64, 6
    saturation_experiment(L, 2, 6, samples, 0)
    assert sorted(encoded) == sorted((N, L * N) for N in range(2, 7) for _ in range(samples))
    assert sum(bits for _, bits in encoded) == L * sum(range(2, 7)) * samples
    assert decoded == [(6, L * 6)] * samples  # the deepest family only
    assert drawn == [6] * samples


def test_saturation_rejects_a_family_that_is_not_a_prefix(monkeypatch):
    encode = nested.encode_nested

    def corrupting_encode(tree, L):
        strings, state = encode(tree, L)
        if tree.depth == 2:
            strings[0] = negate(strings[0])
        return strings, state

    monkeypatch.setattr(nested, "encode_nested", corrupting_encode)
    with pytest.raises(RuntimeError, match="prefix"):
        saturation_experiment(16, 1, 3, 2, 0)


def test_saturation_checks_granularity_before_the_deepest_draw():
    # A depth-24 draw would hold ~256 MB before encode_nested saw L.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"even L in \[2, 2\^63\)"):
            saturation_experiment(3, 1, 24, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


_ROW_VALUES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 0.25, 0.5, 1.0, math.nan]),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: x + 0.0),  # no -0.0
)


@given(st.lists(_ROW_VALUES, min_size=1, max_size=600))
@settings(max_examples=200)
def test_row_statistics_equal_numpy_to_the_bit(values):
    arr = np.array(values)
    got = nested._median_and_p10(arr)
    want = (np.median(arr), np.percentile(arr, 10))
    assert [np.float64(x).tobytes() for x in got] == [np.float64(x).tobytes() for x in want]


_OFF_TURN_PHASES = st.one_of(
    st.floats(-40.0, 0.0, exclude_max=True),
    st.floats(TWO_PI, 40.0),
    st.sampled_from([-TWO_PI, 2 * TWO_PI]),
)


@given(st.integers(1, 7), st.sampled_from([2, 4, 16, 64, 4096]), st.data())
@settings(max_examples=100)
def test_support_overlap_equals_dense_fidelity(depth, L, data):
    # Inner nodes at theta in {0, pi} cut whole subtrees; no phase lies in [0, 2pi).
    leaves = 1 << (depth - 1)
    cuts = st.sampled_from([0.0, math.pi])
    thetas = data.draw(st.lists(cuts, min_size=leaves - 1, max_size=leaves - 1))
    thetas += data.draw(st.lists(st.floats(0.0, math.pi), min_size=leaves, max_size=leaves))
    phis = data.draw(st.lists(_OFF_TURN_PHASES, min_size=2 * leaves - 1, max_size=2 * leaves - 1))
    tree = AngleTree.from_nodes(depth, list(zip(thetas, phis)))
    strings, _ = encode_nested(tree, L)
    levels = nested._support_levels(tree, decode_nested(strings))
    for d, (exact, quantised) in enumerate(levels, 1):
        # Level d against the dense reference of the tree cut at depth d.
        cut = AngleTree(d, tree.thetas[: 1 << d], tree.phis[: 1 << d])
        dense_exact = amplitudes_of_tree(cut)
        dense_quantised = amplitudes(decode_nested(encode_nested(cut, L)[0]))
        assert np.array_equal(quantised, dense_quantised)
        assert np.all((exact == dense_exact) | ((exact == 0) & (quantised == 0)))
        assert fidelity(exact, quantised) == fidelity(dense_exact, dense_quantised)
    assert d == depth


@given(st.integers(1, 10), st.sampled_from([2, 16, 4096]), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_level_expansion_equals_the_heap_factor_oracle(depth, L, seed, data):
    # Hypothesis draws the pools, a seeded generator spreads them over the
    # nodes: theta in {0, pi} cuts whole subtrees, most phases lie outside
    # [0, 2pi).  Every level vector must equal the oracle's byte for byte.
    angles = st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi))
    phases = st.one_of(_OFF_TURN_PHASES, st.floats(0.0, TWO_PI, exclude_max=True))
    thetas = data.draw(st.lists(angles, min_size=1, max_size=32))
    phis = data.draw(st.lists(phases, min_size=1, max_size=32))
    rng, size = np.random.default_rng(seed), 1 << depth
    nodes = [np.r_[0.0, rng.choice(pool, size - 1)] for pool in (thetas, phis)]
    tree = AngleTree(depth, *nodes)
    state = decode_nested(encode_nested(tree, L)[0])
    quantised = oracles.level_vectors(*oracles.state_factors(state))
    exact = oracles.level_vectors(*oracles.support_factors(tree, state))
    dense = oracles.level_vectors(*oracles.tree_factors(tree))
    assert amplitudes(state).tobytes() == quantised[-1].tobytes()
    assert amplitudes_of_tree(tree).tobytes() == dense[-1].tobytes()
    pairs = list(nested._support_levels(tree, state))
    assert [(e.tobytes(), q.tobytes()) for e, q in pairs] == [
        (e.tobytes(), q.tobytes()) for e, q in zip(exact, quantised)
    ]


@pytest.mark.parametrize("of_tree", [False, True])
def test_dense_amplitudes_memory_at_depth_16(of_tree):
    # The deepest level's factors are built after the upper levels' are
    # dropped, so the peak is the 2^16 vector (1 MiB), the level above it
    # (0.5 MiB) and the deepest level's factors (1 MiB).  Three whole-tree
    # factor arrays took it to 3.63 MiB.
    tree = random_angle_tree(16, np.random.default_rng(0))
    state = encode_nested(tree, 1 << 20)[1]
    peak, vec = _traced_peak(lambda: amplitudes_of_tree(tree) if of_tree else amplitudes(state))
    assert vec.shape == (1 << 16,)
    assert peak < 3.0 * 2**20, f"dense amplitudes at depth 16 peaked at {peak / 2**20:.2f} MiB"


def test_dense_amplitudes_beyond_depth_24_are_refused_before_allocating():
    # Zero-stride views stand in for the 2^25-entry heap arrays.
    size, L = 1 << 25, 4096
    tree = AngleTree(25, np.broadcast_to(0.5, (size,)), np.broadcast_to(0.0, (size,)))
    zeros, lengths = np.broadcast_to(np.int64(0), (size,)), np.broadcast_to(np.int64(L), (size,))
    state = nested.NestedState(25, L, zeros, zeros, lengths)
    for expand in (lambda: amplitudes_of_tree(tree), lambda: amplitudes(state)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dense amplitudes limited to depth 24"):
                expand()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


@pytest.mark.parametrize("depth", [0, -1])
def test_nested_state_refuses_depth_below_one(depth):
    one = np.zeros(1, dtype=np.int64)
    with pytest.raises(ValueError, match="depth must be >= 1"):
        nested.NestedState(depth, 0, one, one, one)


@pytest.mark.parametrize("depth", [0, -1])
def test_depth_rule_has_one_text(depth):
    # N >= 1 for a qubit count is the same rule as depth >= 1 for a tree.
    builds = (
        lambda: dof_count(depth),
        lambda: random_angle_tree(depth, np.random.default_rng(0)),
        lambda: AngleTree.from_nodes(depth, []),
    )
    for build in builds:
        with pytest.raises(ValueError, match=rf"^depth must be >= 1, got {depth}$"):
            build()


def test_saturation_timings_cover_every_phase():
    timings = {"draw": 1.0}
    rows = saturation_experiment(64, 1, 3, 5, 2, timings=timings)
    assert rows == saturation_experiment(64, 1, 3, 5, 2)
    assert list(timings) == list(nested.SATURATION_PHASES)
    assert timings["draw"] > 1.0 and all(t >= 0 for t in timings.values())


@pytest.mark.parametrize("N", [4, 10, 14])
def test_saturation_memory_is_flat_in_samples(N):
    saturation_experiment(4096, N, N, 1, 0)  # first-call allocations out of the way
    peaks = []
    for samples in (64, 512):
        tracemalloc.start()
        try:
            saturation_experiment(4096, N, N, samples, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # The fidelity table (float64, rows x samples) must grow with the
    # samples, since the median and 10th percentile need it whole; its growth
    # is allowed exactly, and the rest of the peak keeps the 10% bound.
    rows = 1
    assert peaks[1] - 8 * rows * 512 <= 1.1 * (peaks[0] - 8 * rows * 64)


def test_saturation_memory_near_the_bound():
    # One N = 14 tree at a time, 4 samples, about a fifth of the nodes live.  The
    # run tables and factor gathers are live-sized and the exact factors are
    # taken on the quantised support only, so the traced peak stays under
    # 2.75 MiB (3.02 MiB when every such temporary was heap-sized).
    saturation_experiment(4096, 14, 14, 4, 0)  # first-call allocations out of the way
    tracemalloc.start()
    try:
        saturation_experiment(4096, 14, 14, 4, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * 2**20


def test_saturation_memory_on_the_wide_shape():
    # saturate-wide's shape.  Strings hold eight bits to a byte, so the prefix
    # check's two families (3 + 4 strings of 2^20 bits) hold 0.9 MiB, the
    # floor; the codec's temporaries are a slice's, not a level's.
    peak, _ = _traced_peak(lambda: saturation_experiment(1 << 20, 1, 4, 1, 0))
    assert peak <= 1.25 * 2**20, f"the (2^20, 1..4) sweep peaked at {peak / 2**20:.2f} MiB"


def test_trees_compare_field_by_field_and_stay_unhashable():
    tree, again = (random_angle_tree(3, np.random.default_rng(1)) for _ in range(2))
    assert tree == again and not tree != again
    bent = AngleTree(3, tree.thetas.copy(), tree.phis)
    bent.thetas[5] += 1e-9
    assert tree != bent and tree != random_angle_tree(2, np.random.default_rng(1))
    state = encode_nested(tree, 64)[1]
    assert state == decode_nested(encode_nested(again, 64)[0]) and state != tree
    with pytest.raises(TypeError):
        hash(tree)
    with pytest.raises(TypeError):
        hash(state)


@pytest.mark.parametrize(
    "depth,m,lengths",
    [(1, [0, 5], [0, 4]), (2, [0, 3, 0, 0], [0, 4, 7, 1])],
    ids=["m-above-l", "child-length"],
)
def test_amplitudes_refuse_a_state_off_the_length_rules(depth, m, lengths):
    m, lengths = np.array(m), np.array(lengths)
    state = nested.NestedState(depth, 4, m, np.zeros_like(m), lengths)
    with pytest.raises(ValueError, match=r"0 <= m_k <= l_k, l_2k = m_k and l_2k\+1 = l_k - m_k"):
        amplitudes(state)
