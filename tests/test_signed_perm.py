import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qgrain import signed_perm
from qgrain.bitstring import BitString, cyc, iota
from qgrain.signed_perm import (
    SignedPermutation,
    apply,
    compose,
    identity_op,
    make_i,
    make_ilittle,
    make_j,
    make_k,
    make_pauli_x,
    make_pauli_y,
    make_pauli_z,
    negation_op,
    self_similar_split,
    verify_quaternion,
    verify_spin_identities,
)

from oracles import dense_apply

GENERATORS = {
    "j": (make_j, 2),
    "i": (make_i, 4),
    "k": (make_k, 4),
    "ilittle": (make_ilittle, 4),
    "pauli_x": (make_pauli_x, 2),
    "pauli_y": (make_pauli_y, 4),
    "pauli_z": (make_pauli_z, 2),
}


def all_strings(L: int) -> np.ndarray:
    idx = np.arange(1 << L)[:, None]
    return np.where((idx >> np.arange(L)) & 1 == 1, 1, -1).astype(np.int8)


def random_strings(L: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.choice(np.array([1, -1], dtype=np.int8), size=(count, L))


def test_j2_matches_the_two_bit_rule():
    j = make_j(2)
    assert j.index_map.tolist() == [1, 0]
    assert j.signs.tolist() == [1, -1]
    assert apply(j, BitString([1, -1])) == BitString([-1, -1])
    a1, a2 = 1, -1
    assert apply(j, BitString([a1, a2])) == BitString([a2, -a1])


def test_pauli_z_dense_block_form():
    assert np.array_equal(make_pauli_z(4).to_dense(), np.diag([1, 1, -1, -1]))


def test_sigma_x_swaps_blocks():
    assert apply(make_pauli_x(4), BitString([1, 1, -1, -1])) == BitString([-1, -1, 1, 1])


def test_identity_and_negation():
    s = BitString([1, -1, 1, -1])
    assert apply(identity_op(4), s) == s
    assert apply(negation_op(4), s) == BitString([-1, 1, -1, 1])


def test_compose_examples():
    assert compose(make_j(4), make_j(4)) == negation_op(4)
    assert compose(make_i(4), make_j(4)) == make_k(4)
    assert compose(make_j(8), identity_op(8)) == make_j(8)
    assert compose(make_ilittle(4), make_pauli_z(4)) == make_i(4)


def test_little_i_relations():
    for L in (4, 8, 12, 16, 32, 64):
        ilit = make_ilittle(L)
        assert compose(ilit, ilit) == negation_op(L)
        sz = make_pauli_z(L)
        assert compose(ilit, sz) == compose(sz, ilit) == make_i(L)
        assert compose(ilit, make_pauli_y(L)) == make_j(L)
        assert compose(ilit, make_pauli_x(L)) == make_k(L)


def test_pauli_involutions():
    for L in range(4, 65, 4):
        one = identity_op(L)
        assert compose(make_pauli_x(L), make_pauli_x(L)) == one
        assert compose(make_pauli_y(L), make_pauli_y(L)) == one
        assert compose(make_pauli_z(L), make_pauli_z(L)) == one


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("L", [4, 8, 12, 16])
def test_apply_matches_dense_oracle(name, L):
    factory, divisor = GENERATORS[name]
    if L % divisor:
        pytest.skip(f"{name} needs {divisor} | L")
    op = factory(L)
    batch = all_strings(L) if L <= 12 else random_strings(L, 4096, seed=L)
    expect = dense_apply(op, batch)
    for row, want in zip(batch, expect):
        assert np.array_equal(apply(op, BitString(row)).values, want)


def test_compose_matches_dense_product():
    rng = np.random.default_rng(5)
    for L in (4, 8, 12):
        ops = [factory(L) for factory, div in GENERATORS.values() if L % div == 0]
        for a in ops:
            for b in ops:
                want = a.to_dense().astype(np.int64) @ b.to_dense().astype(np.int64)
                assert np.array_equal(compose(a, b).to_dense(), want.astype(np.int8))
        s = BitString(rng.choice(np.array([1, -1], np.int8), size=L))
        for a in ops:
            for b in ops:
                assert apply(compose(a, b), s) == apply(a, apply(b, s))


def assert_canonical(op):
    # A library-built operator: a read-only map in the dtype its length
    # selects and read-only int8 signs, which the public constructor accepts
    # unchanged.
    assert op.index_map.dtype == signed_perm._map_dtype(len(op))
    assert op.signs.dtype == np.int8
    assert not op.index_map.flags.writeable and not op.signs.flags.writeable
    assert SignedPermutation(op.index_map, op.signs) == op


@pytest.mark.parametrize("L", [2, 6, 12, 64])
def test_built_operators_are_read_only_and_canonical(L):
    ops = [factory(L) for factory, div in GENERATORS.values() if L % div == 0]
    ops += [identity_op(L), negation_op(L)]
    s = iota(L, L // 3)
    for a in ops:
        assert_canonical(a)
        for b in ops:
            assert_canonical(compose(a, b))
        out = apply(a, s)
        assert out.values.dtype == np.int8 and not out.values.flags.writeable
        assert BitString(out.values) == out


def test_equality_compares_every_chunk():
    # Lengths past two chunks, differing only in the last entries.
    L = 2 * signed_perm._EQ_CHUNK + 3
    one = np.ones(L, dtype=np.int8)
    flipped = one.copy()
    flipped[-1] = -1
    swapped = np.arange(L)
    swapped[[-2, -1]] = swapped[[-1, -2]]
    assert identity_op(L) == SignedPermutation(np.arange(L), one)
    assert identity_op(L) != SignedPermutation(np.arange(L), flipped)
    assert identity_op(L) != SignedPermutation(swapped, one)
    assert identity_op(L) != identity_op(L - 1)


def test_map_dtype_boundary():
    # Indices run to L - 1, so int32 holds every map up to L = 2^31.
    assert signed_perm._map_dtype(1) == np.int32
    assert signed_perm._map_dtype(2**31) == np.int32
    assert signed_perm._map_dtype(2**31 + 1) == np.int64
    assert signed_perm._map_dtype(2**63 - 1) == np.int64


WIDENINGS = {
    # With the threshold at 4, L = 8 builds its int64 map from int32 blocks
    # of length 4, as L in (2^31, 2^32] does from int32 blocks of 2^31.
    "int32": (8, "_INT32_MAX_L", 4),
    # int8 blocks of length 128 cannot hold the offset c * h = 128, as int32
    # blocks cannot hold 2^31: an add in the block's dtype would overflow.
    "int8": (256, "_map_dtype", lambda n: np.dtype(np.int8 if n <= 128 else np.int64)),
}


@pytest.mark.parametrize("factory", [make_i, make_k, make_ilittle, make_pauli_y])
@pytest.mark.parametrize("widening", sorted(WIDENINGS))
def test_narrow_half_blocks_widen_into_an_int64_map(monkeypatch, widening, factory):
    L, name, patch = WIDENINGS[widening]
    want = factory(L)
    monkeypatch.setattr(signed_perm, name, patch)
    got = factory(L)
    assert got.index_map.dtype == np.int64 and want.index_map.dtype == np.int32
    assert got == want
    assert_canonical(got)


def test_constructor_checks_the_map_before_narrowing_it():
    # Cast to int32 first, 2^32 + 1 would wrap to the valid map [1, 0].
    for index_map in ([2**32 + 1, 0], np.array([2**32 + 1, 0]), [2**64 + 1, 0]):
        with pytest.raises(ValueError, match="bijection"):
            SignedPermutation(index_map, [1, 1])
    # Cast to int8 first, 257 and 255 would wrap to the valid signs 1 and -1.
    for signs in (np.array([257, 1]), np.array([255, 1])):
        with pytest.raises(ValueError, match="signs"):
            SignedPermutation([0, 1], signs)


@pytest.mark.parametrize("factory", [make_j, make_k, make_pauli_y])
def test_wide_copy_of_a_built_map_gives_an_equal_operator(factory):
    op = factory(64)
    copy = SignedPermutation(op.index_map.astype(np.int64), op.signs.astype(np.int64))
    assert copy == op and hash(copy) == hash(op)
    assert_canonical(copy)


BUILDERS = [factory for factory, _ in GENERATORS.values()] + [
    identity_op, negation_op, verify_quaternion, verify_spin_identities, self_similar_split,
]


@pytest.mark.parametrize("L", [2**63, 2**64, 2**641], ids=["2^63", "2^64", "2^641"])
def test_operators_beyond_int64_are_refused(L):
    for build in BUILDERS:
        with pytest.raises(ValueError, match=r"^operator needs L < 2\^63 \(int64 limit\)"):
            build(L)
    with pytest.raises(ValueError, match=r"^string needs L in \[1, 2\^63\) \(int64 limit\)"):
        iota(L, 1)


@given(st.integers(1, 32), st.data())
def test_compose_of_random_public_operators_is_canonical(L, data):
    signs = st.lists(st.sampled_from([1, -1]), min_size=L, max_size=L)
    arrays = [
        (np.array(data.draw(st.permutations(range(L)))), np.array(data.draw(signs)))
        for _ in range(2)
    ]
    a, b = (SignedPermutation(index_map, sign) for index_map, sign in arrays)
    c = compose(a, b)
    assert_canonical(c)
    want = a.to_dense().astype(np.int64) @ b.to_dense().astype(np.int64)
    assert np.array_equal(c.to_dense(), want.astype(np.int8))
    s = BitString(data.draw(signs))
    out = apply(c, s)
    assert out == apply(a, apply(b, s))
    assert not out.values.flags.writeable and BitString(out.values) == out
    for index_map, sign in arrays:  # the public constructor copied its input
        assert index_map.flags.writeable and sign.flags.writeable
        index_map[:] = 0
        sign[:] = 1
    assert_canonical(a)
    assert_canonical(b)


@given(st.integers(2, 64), st.data())
def test_compose_is_associative(L, data):
    seeds = data.draw(st.tuples(*[st.integers(0, 2**31)] * 3))
    ops = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        ops.append(
            SignedPermutation(rng.permutation(L), rng.choice(np.array([1, -1], np.int8), L))
        )
    a, b, c = ops
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_verify_quaternion():
    assert verify_quaternion(4)
    assert verify_quaternion(8)
    with pytest.raises(ValueError):
        verify_quaternion(6)


def _quaternion_identities(i, j, k):
    minus_one = negation_op(len(i))
    return {
        "i^2": compose(i, i) == minus_one,
        "j^2": compose(j, j) == minus_one,
        "k^2": compose(k, k) == minus_one,
        "ij=k": compose(i, j) == k,
    }


def _quaternion_fakes(L):
    # Per identity, replacement generators under which it alone fails.
    ilittle = make_ilittle(L)  # commutes with j, so (ilittle j)^2 = +1
    return {
        "i^2": {"make_i": identity_op(L), "make_k": make_j(L)},
        "j^2": {"make_j": identity_op(L), "make_k": make_i(L)},
        "k^2": {"make_i": ilittle, "make_k": compose(ilittle, make_j(L))},
        "ij=k": {"make_k": compose(negation_op(L), make_k(L))},
    }


@pytest.mark.parametrize("broken", ["i^2", "j^2", "k^2", "ij=k"])
def test_verify_quaternion_checks_each_identity(monkeypatch, broken):
    L = 8
    ops = {"make_i": make_i(L), "make_j": make_j(L), "make_k": make_k(L)}
    ops.update(_quaternion_fakes(L)[broken])
    failing = [name for name, ok in _quaternion_identities(*ops.values()).items() if not ok]
    assert failing == [broken]
    for name, op in ops.items():
        monkeypatch.setattr(signed_perm, name, lambda n, op=op: op)
    assert not verify_quaternion(L)


def test_verify_quaternion_composes_four_full_products(monkeypatch):
    L = 64
    lengths = []

    def counted(a, b):
        product = compose(a, b)
        lengths.append(len(product))
        return product

    monkeypatch.setattr(signed_perm, "compose", counted)
    assert verify_quaternion(L)
    assert lengths == [L] * 4


def _traced_peak_mib(check, L):
    check(L)  # first-call allocations out of the way
    tracemalloc.start()
    try:
        assert check(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def test_verify_quaternion_megabit_memory():
    # Three 5-byte-per-entry operators (int32 map, int8 signs): i, j and i*j
    # while they are composed; equality tests compare in bounded chunks.
    peak = _traced_peak_mib(verify_quaternion, 1 << 20)
    assert peak <= 16, f"verify_quaternion(2^20) peaked at {peak:.1f} MiB"


@pytest.mark.parametrize("check", [verify_spin_identities, self_similar_split])
def test_spin_checks_megabit_memory(check):
    peak = _traced_peak_mib(check, 1 << 20)
    assert peak <= 11, f"{check.__name__}(2^20) peaked at {peak:.1f} MiB"


def test_verify_spin_identities():
    for L in (4, 8, 16, 24):
        assert verify_spin_identities(L)
    with pytest.raises(ValueError):
        verify_spin_identities(6)


def test_spin_identity_z_explicit_case():
    # sigma_z turns the equator string into all-ones, matching the shifted block
    assert apply(make_pauli_z(4), BitString([1, 1, -1, -1])) == BitString([1, 1, 1, 1])
    assert cyc(iota(4, 4), 2) == BitString([1, 1, 1, 1])


def test_self_similar_split():
    assert self_similar_split(8)
    assert self_similar_split(16)
    with pytest.raises(ValueError):
        self_similar_split(4)


def test_validation_errors():
    with pytest.raises(ValueError):
        SignedPermutation(np.array([0, 0]), np.array([1, 1]))
    with pytest.raises(ValueError):
        SignedPermutation(np.array([0, 1]), np.array([1, 2]))
    with pytest.raises(ValueError):
        apply(make_j(4), BitString([1, -1]))
    with pytest.raises(ValueError):
        compose(make_j(4), make_j(8))
    with pytest.raises(ValueError):
        make_j(3)
    with pytest.raises(ValueError):
        make_i(6)


def test_apply_is_linear_time_at_megabit_scale():
    L = 1 << 20
    op = make_pauli_y(L)
    s = BitString(iota(L, L // 2).values)
    best = min(_timed_apply(op, s) for _ in range(3))
    assert best < 0.05, f"apply took {best * 1e3:.1f} ms at L=2^20"


def _timed_apply(op, s):
    t0 = time.perf_counter()
    apply(op, s)
    return time.perf_counter() - t0
