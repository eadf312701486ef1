import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qgrain.qubit import (
    Direction,
    DiscretisedQubit,
    coarsen,
    complementarity_conflict,
    niven_admissible,
    phi_of,
    quantise,
    round_half_down,
    theta_of,
    uncertainty_check,
)

from oracles import rational_pi_angle, reduced_cosines


def test_round_half_down_ties():
    assert round_half_down(0.5) == 0
    assert round_half_down(1.5) == 1
    assert round_half_down(-0.5) == -1
    assert round_half_down(0.6) == 1
    assert round_half_down(Fraction(5, 2)) == 2
    assert round_half_down(Fraction(7, 3)) == 2


def test_constructor_validation_and_phase_canonicalisation():
    assert DiscretisedQubit(2, 4, 4).n == 0
    assert DiscretisedQubit(2, 5, 4).n == 1
    assert DiscretisedQubit(0, 0, 1).n == 0
    with pytest.raises(ValueError):
        DiscretisedQubit(5, 0, 4)
    with pytest.raises(ValueError):
        DiscretisedQubit(-1, 0, 4)
    with pytest.raises(ValueError):
        DiscretisedQubit(0, 0, 0)


def test_theta_examples():
    assert theta_of(DiscretisedQubit(8, 0, 8)) == 0.0
    assert theta_of(DiscretisedQubit(0, 0, 8)) == pytest.approx(math.pi, abs=1e-15)
    # cos^2(pi/6) = 3/4 = 12/16
    assert theta_of(DiscretisedQubit(12, 0, 16)) == pytest.approx(math.pi / 3, abs=1e-12)


def test_phi_examples():
    assert phi_of(DiscretisedQubit(4, 0, 8)) == 0.0
    assert phi_of(DiscretisedQubit(4, 4, 8)) == pytest.approx(math.pi, abs=1e-15)
    assert phi_of(DiscretisedQubit(12, 2, 16)) == pytest.approx(math.pi / 4, abs=1e-15)


def test_quantise_examples():
    assert quantise(0.0, 0.0, 8) == DiscretisedQubit(8, 0, 8)
    assert quantise(math.pi / 3, math.pi / 4, 16) == DiscretisedQubit(12, 2, 16)
    assert quantise(math.pi / 2, math.pi, 2) == DiscretisedQubit(1, 1, 2)
    with pytest.raises(ValueError):
        quantise(0.0, 0.0, 0)


@given(st.integers(1, 1 << 14), st.data())
def test_quantise_round_trip_exact(L, data):
    m = data.draw(st.integers(0, L))
    n = data.draw(st.integers(0, L - 1))
    q = DiscretisedQubit(m, n, L)
    assert quantise(theta_of(q), phi_of(q), L) == q


@pytest.mark.parametrize("L", [2**49 + 1, 2**53, 2**1100], ids=["limit+1", "2^53", "2^1100"])
def test_quantise_refuses_granularity_past_the_float_limit(L):
    with pytest.raises(ValueError, match=r"^quantise needs L <= 2\^49 \(float round-trip limit\), got L="):
        quantise(0.0, 0.0, L)


@pytest.mark.parametrize("L", [2**49, 2**49 - 1, 2**49 - 3])
def test_quantise_round_trip_exact_near_the_worst_cases_at_the_limit(L):
    # Every m within K of the ends and binade edges of m/L and of 0.77 L (the
    # peak of the error bound at qubit._QUANTISE_MAX_L), every n within K of
    # both ends of the turn and its middle.
    K = 64

    def near(points, top):
        return sorted({v for p in points for v in range(p - K, p + K + 1) if 0 <= v <= top})

    ms = near((0, L // 4, L // 2, L * 77 // 100, 3 * L // 4, L), L)
    ns = near((0, L // 2, L - 1), L - 1)
    assert len(ms) > len(ns)  # so the zip below visits every n too
    for m, n in zip(ms, itertools.cycle(ns)):
        q = DiscretisedQubit(m, n, L)
        assert quantise(theta_of(q), phi_of(q), L) == q


def test_angles_of_states_past_the_float_range():
    L = 2**1100
    q = DiscretisedQubit(L // 4, L // 2, L)  # cos^2(theta/2) = 1/4, half a turn
    assert theta_of(q) == pytest.approx(2 * math.pi / 3, abs=1e-15)
    assert phi_of(q) == math.pi
    assert phi_of(DiscretisedQubit(0, 0, L)) == 0.0
    # n/L rounds to 1.0 past 2^53: the last grid point's phase is 0, not 2*pi
    assert phi_of(DiscretisedQubit(0, L - 1, L)) == 0.0
    assert phi_of(DiscretisedQubit(0, 2**60 - 1, 2**60)) == 0.0


@given(
    st.floats(0.0, math.pi, allow_nan=False),
    st.floats(0.0, 2 * math.pi, exclude_max=True, allow_nan=False),
    st.integers(1, 4096),
)
def test_quantise_approximation_bounds(theta, phi, L):
    q = quantise(theta, phi, L)
    # Born weight lands within half a grid cell
    assert abs(q.m / L - math.cos(theta / 2) ** 2) <= 0.5 / L + 1e-12
    # phase lands within half a grid cell, cyclically
    dphi = abs(phi_of(q) - phi) % (2 * math.pi)
    assert min(dphi, 2 * math.pi - dphi) <= math.pi / L + 1e-9
    # colatitude error: pi/L away from the poles, sqrt-widened near them
    dtheta = abs(theta_of(q) - theta)
    if L / 4 <= q.m <= 3 * L / 4:
        assert dtheta <= math.pi / L + 1e-9
    assert dtheta <= math.sqrt(2.0 / L) + math.pi / L + 1e-9


def test_coarsen_examples():
    assert coarsen(DiscretisedQubit(8, 0, 8), 1) == DiscretisedQubit(1, 0, 1)
    assert coarsen(DiscretisedQubit(3, 5, 8), 1) == DiscretisedQubit(0, 0, 1)
    assert coarsen(DiscretisedQubit(12, 2, 16), 4) == DiscretisedQubit(3, 0, 4)


def test_coarsen_rejects_refinement():
    with pytest.raises(ValueError):
        coarsen(DiscretisedQubit(2, 0, 4), 8)


@given(st.integers(1, 512), st.data())
def test_coarsen_same_grid_is_identity(L, data):
    m = data.draw(st.integers(0, L))
    n = data.draw(st.integers(0, L - 1))
    q = DiscretisedQubit(m, n, L)
    assert coarsen(q, L) == q


def test_coarsen_is_exact_requantisation():
    for L in (8, 12, 16, 48):
        for m in range(L + 1):
            for n in range(L):
                q = DiscretisedQubit(m, n, L)
                for L_new in (1, 2, 3, 4, L // 2, L):
                    got = coarsen(q, L_new)
                    assert got.m == round_half_down(Fraction(m * L_new, L))
                    assert got.n == round_half_down(Fraction(n * L_new, L)) % L_new


def test_coarsen_matches_quantise_of_angles_off_ties():
    # The float path cannot reproduce exact .5 ties (the angle round trip
    # perturbs them by an ulp); away from ties the two agree bit for bit.
    def is_tie(num, L_new, L):
        frac = Fraction(num * L_new, L)
        return frac - math.floor(frac) == Fraction(1, 2)

    for L in (8, 12, 16, 48):
        for m in range(L + 1):
            for n in range(L):
                q = DiscretisedQubit(m, n, L)
                for L_new in (1, 2, 3, 4, L // 2, L):
                    if is_tie(m, L_new, L) or is_tie(n, L_new, L):
                        continue
                    assert coarsen(q, L_new) == quantise(theta_of(q), phi_of(q), L_new)


def test_coarsen_is_exact_past_the_float_range():
    L = 2**1100
    # L_new * m / L = 2^1099 - 1/2 and 3/2: half-down ties in both coordinates.
    q = DiscretisedQubit(L - 1, L - 1, L)
    assert coarsen(q, L // 2) == DiscretisedQubit(L // 2 - 1, L // 2 - 1, L // 2)
    assert coarsen(DiscretisedQubit(3, L // 2, L), L // 2) == DiscretisedQubit(1, L // 4, L // 2)
    # 3 * (L - 1) / L rounds to 3, which the grid wraps to phase 0.
    assert coarsen(DiscretisedQubit(L // 2, L - 1, L), 3) == DiscretisedQubit(1, 0, 3)


def test_coarsen_eigenstate_endpoint():
    for L in (2, 5, 8, 31):
        for m in range(L + 1):
            q = coarsen(DiscretisedQubit(m, 0, L), 1)
            assert q.L == 1 and q.n == 0 and q.m in (0, 1)
            # nearest eigenstate under the half-down rule
            assert q.m == (1 if Fraction(m, L) > Fraction(1, 2) else 0) or Fraction(
                m, L
            ) == Fraction(1, 2)


@given(st.data())
def test_coarsen_two_step_drift_bounded(data):
    # Nearest-rounding re-quantisation double-rounds: a coarsening via an
    # intermediate grid may differ from the direct one, but never by more
    # than one cell in either coordinate.
    L = data.draw(st.integers(4, 512))
    L1 = data.draw(st.integers(2, L))
    L2 = data.draw(st.integers(1, L1))
    m = data.draw(st.integers(0, L))
    n = data.draw(st.integers(0, L - 1))
    q = DiscretisedQubit(m, n, L)
    via = coarsen(coarsen(q, L1), L2)
    direct = coarsen(q, L2)
    assert abs(via.m - direct.m) <= 1
    dn = (via.n - direct.n) % L2
    assert min(dn, L2 - dn) <= 1


def test_coarsen_double_rounding_case():
    # 3/8 sits exactly between the L=4 cells 1/4 and 2/4; the half-down tie
    # sends it to 1/4, which then ties again on the L=2 grid and drops to 0,
    # while the direct rounding of 3/8 on the L=2 grid gives 1/2.
    q = DiscretisedQubit(3, 0, 8)
    assert coarsen(coarsen(q, 4), 2) == DiscretisedQubit(0, 0, 2)
    assert coarsen(q, 2) == DiscretisedQubit(1, 0, 2)


def test_niven_examples():
    assert niven_admissible(Fraction(1, 2))
    assert not niven_admissible(Fraction(1, 3))
    assert niven_admissible(Fraction(-1))
    with pytest.raises(ValueError):
        niven_admissible(Fraction(3, 2))


def test_niven_agrees_with_angle_oracle():
    mismatches = [
        c for c in reduced_cosines(1000) if niven_admissible(c) != rational_pi_angle(c)
    ]
    assert mismatches == []


def test_complementarity_examples():
    assert not complementarity_conflict(DiscretisedQubit(4, 1, 8))  # cos phi = 0
    assert complementarity_conflict(DiscretisedQubit(3, 0, 8))  # cos phi = -1/4
    assert not complementarity_conflict(DiscretisedQubit(3, 0, 4))  # cos phi = 1/2


def test_uncertainty_pole_examples():
    lhs, rhs, ok = uncertainty_check(Direction(0.0, 0.0, 1.0))
    assert ok and lhs == pytest.approx(1.0, abs=1e-12) and rhs == 1.0
    lhs, rhs, ok = uncertainty_check(Direction(1.0, 0.0, 0.0))
    assert ok and lhs == 0.0 and rhs == 0.0
    lhs, rhs, ok = uncertainty_check(Direction(0.0, 1.0, 0.0))
    assert ok and lhs == 0.0 and rhs == 0.0


def test_uncertainty_diagonal_example():
    r = 1.0 / math.sqrt(3.0)
    lhs, rhs, ok = uncertainty_check(Direction(r, r, r))
    assert ok
    assert lhs == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rhs == pytest.approx(r, abs=1e-12)


def test_uncertainty_holds_on_sphere_sample():
    rng = np.random.default_rng(11)
    vecs = rng.normal(size=(20_000, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    for cx, cy, cz in vecs[:200]:
        assert uncertainty_check(Direction(cx, cy, cz)).ok
    # vectorised check over the full sample
    lhs = np.sqrt(1 - vecs[:, 0] ** 2) * np.sqrt(1 - vecs[:, 1] ** 2)
    assert np.all(lhs >= np.abs(vecs[:, 2]) - 1e-12)
    # direction-cosine identity
    assert np.all(np.abs((vecs**2).sum(axis=1) - 1.0) <= 1e-12)


def test_uncertainty_check_accepts_arrays():
    rng = np.random.default_rng(5)
    vecs = rng.normal(size=(500, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    lhs, rhs, ok = uncertainty_check(Direction(*vecs.T))
    assert lhs.shape == rhs.shape == ok.shape == (500,)
    assert ok.all()
    for i, (cx, cy, cz) in enumerate(vecs[:50]):
        assert (lhs[i], rhs[i], ok[i]) == tuple(uncertainty_check(Direction(cx, cy, cz)))
    vecs[7] *= 2.0
    with pytest.raises(ValueError):
        Direction(*vecs.T)


def test_direction_norm_validation():
    with pytest.raises(ValueError):
        Direction(1.0, 1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_direction_refuses_non_finite_cosines(bad):
    # NaN fails every comparison, so the norm check must require closeness.
    with pytest.raises(ValueError):
        Direction(bad, 0.0, 0.0)
    with pytest.raises(ValueError):
        Direction(np.array([1.0, bad]), np.zeros(2), np.zeros(2))
