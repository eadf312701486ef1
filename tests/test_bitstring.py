from fractions import Fraction
from pathlib import Path
import ast
import inspect
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgrain.bitstring import (
    BitString,
    NotCodewordError,
    apply_permutation,
    born_frequency,
    concat,
    cyc,
    decode,
    encode,
    equivalent_mod_xi,
    from_text,
    iota,
    mean_std,
    mean_var_exact,
    negate,
    to_text,
    to_wire,
)
import qgrain
from qgrain.nested import encode_nested, random_angle_tree
from qgrain.qubit import DiscretisedQubit
from qgrain.signed_perm import SignedPermutation, apply

import oracles


def bits(*vals):
    return BitString(list(vals))


def test_iota_examples():
    assert iota(4, 4) == bits(1, 1, 1, 1)
    assert iota(4, 0) == bits(-1, -1, -1, -1)
    assert iota(8, 3) == bits(1, 1, 1, -1, -1, -1, -1, -1)
    with pytest.raises(ValueError):
        iota(4, 5)
    with pytest.raises(ValueError):
        iota(4, -1)


def test_cyc_examples():
    assert cyc(bits(1, -1, -1, -1), 1) == bits(-1, -1, -1, 1)
    s = bits(1, -1, 1, 1, -1)
    assert cyc(s, 0) == s
    assert cyc(s, len(s)) == s
    assert cyc(bits(1, 1, -1, -1), 2) == bits(-1, -1, 1, 1)


@given(st.integers(1, 64), st.integers(-100, 100), st.integers(-100, 100), st.data())
def test_cyc_composes_additively(L, j, k, data):
    v = data.draw(st.lists(st.sampled_from([1, -1]), min_size=L, max_size=L))
    s = BitString(v)
    assert cyc(cyc(s, j), k) == cyc(s, j + k)


def test_encode_examples():
    assert encode(DiscretisedQubit(4, 0, 4)) == bits(1, 1, 1, 1)
    assert encode(DiscretisedQubit(2, 0, 4)) == bits(-1, -1, 1, 1)
    assert encode(DiscretisedQubit(2, 1, 4)) == bits(-1, 1, 1, -1)


def test_encode_rejects_odd_length():
    with pytest.raises(ValueError):
        encode(DiscretisedQubit(1, 0, 3))


def test_decode_examples():
    decoded = decode(bits(-1, -1, 1, 1))
    assert decoded.qubit == DiscretisedQubit(2, 0, 4) and not decoded.degenerate
    decoded = decode(bits(1, 1, 1, 1))
    assert decoded.qubit == DiscretisedQubit(4, 0, 4) and decoded.degenerate
    decoded = decode(bits(-1, -1, -1, -1))
    assert decoded.qubit == DiscretisedQubit(0, 0, 4) and decoded.degenerate
    with pytest.raises(NotCodewordError):
        decode(bits(1, -1, 1, -1))


def test_encode_matches_the_single_string_oracle():
    # Every grid state at even L < 40 against the oracle's shifted block.
    for L in range(2, 40, 2):
        for m in range(L + 1):
            for n in range(L):
                expected = oracles.encode(L, m, n)
                assert np.array_equal(encode(DiscretisedQubit(m, n, L)).values, expected)


def test_decode_matches_the_single_string_oracle():
    # Every string of length 1 to 12, odd lengths included.
    for L in range(1, 13):
        for entries in itertools.product((1, -1), repeat=L):
            s = BitString(entries)
            expected = oracles.decode(s.values)
            if expected is None:
                with pytest.raises(NotCodewordError) as excinfo:
                    decode(s)
                why = f"{to_text(s)!r} is not a cyclic shift of a contiguous +1 block"
                assert str(excinfo.value) == why
                continue
            decoded = decode(s)
            m, n, degenerate = expected
            assert decoded.qubit == DiscretisedQubit(m, n, L)
            assert type(decoded.qubit.m) is int and type(decoded.qubit.n) is int
            assert type(decoded.degenerate) is bool and decoded.degenerate == degenerate


@pytest.mark.parametrize("L", [64, 65, 1 << 20])
def test_decode_error_quotes_at_most_64_bits(L):
    # Up to 64 bits the message quotes the whole string, as for the lengths
    # above; a longer one is named by its length and first 64 bits, and the
    # error path holds no text or unpacked copy of the whole string.
    s = BitString(np.random.default_rng(L).choice(np.array([1, -1], dtype=np.int8), L))
    head = to_text(s)[:64]
    why = f"{head!r}" if L <= 64 else f"{L}-bit {head!r}..."
    tracemalloc.start()
    try:
        with pytest.raises(NotCodewordError) as excinfo:
            decode(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(excinfo.value) == f"{why} is not a cyclic shift of a contiguous +1 block"
    assert peak <= 0.5 * 2**20, f"decode's error path peaked at {peak / 2**20:.2f} MiB"


def test_only_bitstring_reads_the_packed_format():
    # The +1 mask packed eight bits to a byte is bitstring.py's alone: no
    # other module packs, unpacks or reads a string's bytes.
    pattern = re.compile(r"\._bits\b|\._plus\(|_from_plus|BitString\._trusted|packbits|unpackbits")
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(qgrain.__file__).parent.glob("*.py"))
        if path.name != "bitstring.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert hits == []


def test_each_length_rule_has_one_owner():
    # qubit.py states the grid's L >= 1, bitstring.py the codec's even L and
    # nested.py the tree's depth >= 1 (dof_count's N too); the other modules
    # call their helpers.  Equality slices rows as every bounded loop does, and
    # block patterns come from the one codeword writer.
    sources = {path.name: path.read_text() for path in Path(qgrain.__file__).parent.glob("*.py")}
    owners = {
        "granularity L must be >= 1": "qubit.py",
        "even L in [2, 2^63)": "bitstring.py",
        "depth must be >= 1": "nested.py",
    }
    for text, owner in owners.items():
        assert [(name, src.count(text)) for name, src in sources.items() if text in src] == [
            (owner, 1)
        ]
    for retired in ("_check_granularity", "_EQ_CHUNK", "qubit count must be"):
        assert [name for name, src in sources.items() if retired in src] == []
    assert "_row_slices(" in inspect.getsource(SignedPermutation.__eq__)
    writer = inspect.getsource(iota)
    assert "_encode_levels(" in writer and not re.search(r"_trusted|packbits|0xFF|np\.zeros", writer)


@pytest.mark.parametrize("L", [2**16 - 1, 2**16 + 1, 2**16 + 8, 3 * 2**16 + 5])
def test_iota_matches_the_oracle_across_codec_slices(L):
    for m in (0, 1, 2**16 - 1, 2**16, 2**16 + 3, L - 9, L):
        m = min(m, L)
        assert np.array_equal(iota(L, m).values, oracles.iota(L, m))
        _assert_packed_canonically(iota(L, m))


def test_cli_reads_no_private_name_of_another_module():
    # cli.py calls the library through its public names only: no
    # module._name attribute and no "from .x import _y".
    package = Path(qgrain.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    tree = ast.parse((package / "cli.py").read_text())
    hits = [
        f"cli.py:{node.lineno}: {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
    ] + [
        f"cli.py:{node.lineno}: from {'.' * node.level}{node.module} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("qgrain"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert hits == []


def test_round_trip_exhaustive_small():
    for L in (2, 4, 6, 8, 10):
        for m in range(1, L):
            for n in range(L):
                q = DiscretisedQubit(m, n, L)
                decoded = decode(encode(q))
                assert decoded.qubit == q and not decoded.degenerate


@given(st.integers(1, 1 << 13), st.data())
def test_round_trip_random_large(half_L, data):
    L = 2 * half_L  # even, up to 2**14
    m = data.draw(st.integers(1, L - 1))
    n = data.draw(st.integers(0, L - 1))
    q = DiscretisedQubit(m, n, L)
    assert decode(encode(q)).qubit == q


def test_born_frequency_examples():
    assert born_frequency(bits(1, 1, -1, -1)) == Fraction(1, 2)
    assert born_frequency(encode(DiscretisedQubit(3, 5, 8))) == Fraction(3, 8)
    assert born_frequency(bits(-1, -1, -1, -1)) == 0


@given(st.integers(2, 256), st.data())
def test_born_frequency_permutation_invariant(L, data):
    m = data.draw(st.integers(0, L))
    s = iota(L, m)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    assert born_frequency(apply_permutation(s, rng.permutation(L))) == Fraction(m, L)


def test_apply_permutation_requires_bijection():
    with pytest.raises(ValueError):
        apply_permutation(bits(1, -1), np.array([0, 0]))


def test_mean_std_examples():
    assert mean_std(bits(1, 1, -1, -1)) == (0.0, 1.0)
    assert mean_std(bits(1, 1, 1, 1)) == (1.0, 0.0)
    mu, sigma = mean_std(encode(DiscretisedQubit(12, 0, 16)))
    assert mu == pytest.approx(0.5, abs=0)
    assert sigma == pytest.approx(math.sqrt(3) / 2, abs=1e-15)


@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=200))
def test_mean_var_identity_exact(vals):
    mu, var = mean_var_exact(BitString(vals))
    assert mu * mu + var == 1


def test_equivalent_mod_xi_examples():
    assert equivalent_mod_xi([bits(1, -1, 1, -1)], [bits(1, 1, -1, -1)])
    fam1 = [bits(1, -1), bits(1, -1)]
    fam2 = [bits(-1, 1), bits(1, -1)]
    assert not equivalent_mod_xi(fam1, fam2)
    assert equivalent_mod_xi(fam1, fam1)


def test_equivalent_mod_xi_validation():
    with pytest.raises(ValueError):
        equivalent_mod_xi([bits(1, -1)], [bits(1, -1), bits(1, -1)])
    with pytest.raises(ValueError):
        equivalent_mod_xi([bits(1, -1)], [bits(1, -1, 1)])


@given(st.integers(1, 5), st.integers(2, 32), st.integers(0, 2**32 - 1))
def test_equivalent_mod_xi_equivalence_relation(N, L, seed):
    rng = np.random.default_rng(seed)
    base = [BitString(rng.choice([1, -1], size=L).astype(np.int8)) for _ in range(N)]
    p1, p2 = rng.permutation(L), rng.permutation(L)
    fam_b = [apply_permutation(s, p1) for s in base]
    fam_c = [apply_permutation(fam_b[i], p2) for i in range(N)]
    assert equivalent_mod_xi(base, base)  # reflexive
    assert equivalent_mod_xi(base, fam_b) and equivalent_mod_xi(fam_b, base)  # symmetric
    assert equivalent_mod_xi(base, fam_c)  # transitive through fam_b


def _family(rows: np.ndarray) -> list[BitString]:
    return [BitString(row) for row in rows]


# Across every key width (8, 16, 32, 64 strings) and the split into one key
# row per 64 strings.
@pytest.mark.parametrize("N", [1, 2, 7, 8, 9, 16, 17, 63, 64, 65, 130])
@pytest.mark.parametrize("distinct", [3, None], ids=["3-columns", "free"])
def test_equivalent_mod_xi_matches_the_lexsort_oracle(N, distinct):
    # distinct=3 draws every column from three, so columns repeat.
    L = 97
    rng = np.random.default_rng([N, distinct or 0])
    signs = np.array([1, -1], dtype=np.int8)
    if distinct:
        mat = rng.choice(signs, size=(N, distinct))[:, rng.integers(0, distinct, L)]
    else:
        mat = rng.choice(signs, size=(N, L))
    base = _family(mat)
    cases = {
        "column-permuted": (mat[:, rng.permutation(L)], True),
        "first string flipped": (mat.copy(), False),
        "last string flipped": (mat.copy(), False),
        "halves permuted apart": (mat.copy(), None),
        "unrelated": (rng.choice(signs, size=(N, L)), None),
    }
    cases["first string flipped"][0][0, 5] *= -1
    cases["last string flipped"][0][-1, 90] *= -1
    # Each part keeps its own columns but loses their pairing; at N = 130 the
    # split falls between key rows.
    halves = cases["halves permuted apart"][0]
    split = min(64, N // 2)
    halves[split:] = halves[split:, rng.permutation(L)]
    for name, (other, want) in cases.items():
        got = equivalent_mod_xi(base, _family(other))
        assert got == oracles.equivalent_mod_xi(base, _family(other)), name
        assert want is None or got == want, name


def test_equivalent_mod_xi_megabit_memory():
    # One packed uint8 key per column: two L-byte key arrays and one string's
    # L-byte unpacked +1 mask, where lexsort's int64 order alone was 8 bytes
    # per column.
    L = 1 << 20
    equator = iota(L, L // 2)
    pair = ([cyc(equator, 3 * L // 4)], [equator])
    assert equivalent_mod_xi(*pair)  # first-call allocations out of the way
    tracemalloc.start()
    try:
        assert equivalent_mod_xi(*pair)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 5, f"equivalent_mod_xi at N=1, L=2^20 peaked at {peak:.1f} MiB"


def test_negate_and_concat():
    assert negate(bits(1, -1)) == bits(-1, 1)
    assert concat(bits(1), bits(-1, -1)) == bits(1, -1, -1)


@given(
    st.lists(st.sampled_from([1, -1]), min_size=1, max_size=64), st.integers(-99, 99), st.data()
)
def test_built_strings_are_fresh_read_only_and_canonical(vals, k, data):
    s = BitString(vals)
    L = len(s)
    perm = np.array(data.draw(st.permutations(range(L))))
    built = [
        iota(L, data.draw(st.integers(0, L))),
        cyc(s, k),
        negate(s),
        concat(s, negate(s)),
        apply_permutation(s, perm),
        encode(DiscretisedQubit(data.draw(st.integers(0, 2 * L)), k % (2 * L), 2 * L)),
    ]
    depth = data.draw(st.integers(1, 4), label="depth")
    tree = random_angle_tree(depth, np.random.default_rng(data.draw(st.integers(0, 99))))
    family = encode_nested(tree, 2 * L)[0]
    assert len(family) == depth and all(len(f) == 2 * L for f in family)
    for b in built + family:
        assert b.values.dtype == np.int8 and b.values.ndim == 1
        assert not b.values.flags.writeable
        assert not np.shares_memory(b.values, s.values)
        assert BitString(b.values) == b
    assert all(f.values.flags.owndata for f in family)  # each level is its own array
    assert perm.flags.writeable  # the caller's permutation is left alone


def test_apply_permutation_reads_boolean_perm_as_indices():
    # [False, True] sorts equal to [0, 1], so it passes the bijection check.
    assert apply_permutation(bits(1, -1), np.array([True, False])) == bits(-1, 1)


def test_text_round_trip_at_megabit_length():
    s = BitString(np.random.default_rng(3).choice(np.array([1, -1], dtype=np.int8), 1 << 20))
    text = to_text(s)
    assert len(text) == 1 << 20 and set(text) == {"+", "-"}
    assert text[:64] == "".join("+" if v > 0 else "-" for v in s.values[:64])
    assert from_text(text) == s
    assert from_text(to_wire(s)) == s


@pytest.mark.parametrize("text", ["", "+!-", "+ -", "+é-", "+\ud800-", "0:", "2:+:"])
def test_from_text_rejects_anything_but_plus_minus(text):
    with pytest.raises(ValueError, match="non-empty over"):
        from_text(text)


def test_text_serialisation_round_trip():
    s = encode(DiscretisedQubit(2, 0, 4))
    assert to_text(s) == "--++"
    assert from_text("--++") == s
    assert to_wire(s) == "4:--++"
    assert from_text("4:--++") == s
    with pytest.raises(ValueError):
        from_text("3:--++")
    with pytest.raises(ValueError):
        from_text("+!-")
    with pytest.raises(ValueError):
        from_text("")


@pytest.mark.parametrize(
    "values",
    [np.array([257, -1, 255]), [257, 1], np.array([1.5, -1.0]), [-1, 2**64 + 1]],
    ids=["int64-array", "list", "float", "beyond-uint64"],
)
def test_bitstring_checks_entries_before_narrowing(values):
    # Each of these once narrowed into a valid string or overflowed.
    with pytest.raises(ValueError, match="entries must be"):
        BitString(values)


def _signs(size):
    return st.lists(st.sampled_from([1, -1]), min_size=size, max_size=size).map(
        lambda v: np.array(v, dtype=np.int8)
    )


def _assert_packed_canonically(s):
    # ceil(L/8) bytes with every padding bit of the last byte zero.
    assert s._bits.dtype == np.uint8 and s._bits.size == -(-len(s) // 8)
    assert not np.unpackbits(s._bits)[len(s) :].any()


@given(st.integers(1, 70), st.integers(1, 70), st.integers(-200, 200), st.data())
@settings(max_examples=300)
def test_packed_producers_match_the_int8_oracles(L, L2, k, data):
    # Lengths 1..70 cross byte boundaries and leave every tail of 0..7 bits.
    v, w, signs = data.draw(_signs(L)), data.draw(_signs(L2)), data.draw(_signs(L))
    m = data.draw(st.integers(0, L))
    perm = np.array(data.draw(st.permutations(range(L))), dtype=np.int64)
    s, t = BitString(v), BitString(w)
    op = SignedPermutation(perm, signs)
    built = [
        (iota(L, m), oracles.iota(L, m)),
        (cyc(s, k), oracles.cyc(v, k)),
        (negate(s), oracles.negate(v)),
        (concat(s, t), oracles.concat(v, w)),
        (apply_permutation(s, perm), oracles.apply_permutation(v, perm)),
        (apply(op, s), oracles.apply(op, v)),
        (from_text(to_text(s)), v),
        (s, v),
    ]
    for got, want in built:
        values = got.values
        assert values.dtype == np.int8 and not values.flags.writeable
        assert np.array_equal(values, want)
        assert len(got) == want.size and got.plus_count == np.count_nonzero(want == 1)
        assert BitString(values) == got and hash(BitString(values)) == hash(got)
        _assert_packed_canonically(got)
    for (a, _), (b, _) in itertools.product(built, repeat=2):
        same = len(a) == len(b) and np.array_equal(a.values, b.values)
        assert (a == b) == same
        assert not same or hash(a) == hash(b)
    # One string reached by different producers.
    block = oracles.cyc(oracles.iota(L, m), k)
    shift = (np.arange(L) + k) % L
    split = data.draw(st.integers(1, max(L - 1, 1)))
    routes = [
        cyc(iota(L, m), k),
        BitString(block),
        from_text(to_text(BitString(block))),
        negate(negate(cyc(iota(L, m), k))),
        apply_permutation(iota(L, m), shift),
        apply(SignedPermutation(shift, np.ones(L, dtype=np.int8)), iota(L, m)),
    ]
    if L > 1:
        routes.append(concat(BitString(block[:split]), BitString(block[split:])))
    for route in routes:
        assert route == routes[0] and hash(route) == hash(routes[0])
        _assert_packed_canonically(route)


def test_bitstring_validation_and_immutability():
    with pytest.raises(ValueError):
        BitString([1, 0, -1])
    with pytest.raises(ValueError):
        BitString([])
    s = bits(1, -1)
    with pytest.raises(ValueError):
        s.values[0] = -1
