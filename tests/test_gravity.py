import math
import time
import warnings
from decimal import Decimal, Underflow
from fractions import Fraction

import pytest

from qgrain.gravity import (
    CONSTANTS_ENV_VAR,
    DEFAULT_CONSTANTS,
    PhysicalConstants,
    Scenario,
    constants_from_env,
    dp_time,
    e_g_full,
    e_g_large_b,
    e_g_small_b,
    l_of_scenario,
    reduction_after,
    reduction_time,
    scenario_report,
    sn_radius,
)
from qgrain.nested import n_max

ELECTRON = Scenario(M=Decimal("1e-30"), b=Decimal("5e-9"))

# Exact-rational constants: same digits as the defaults, as fractions.
RATIONAL_CONSTANTS = PhysicalConstants(
    G=Fraction(667430, 10**16),
    hbar=Fraction(1054571817, 10**43),
    t_P=Fraction(5391247, 10**50),
    E_P=Fraction(19561) * 10**5,
)


def test_sn_radius_electron_magnitude():
    # hbar^2 / (G M^3) evaluated directly: 1.666e32 m
    R = sn_radius(Decimal("1e-30"))
    assert float(R) == pytest.approx(1.66627469e32, rel=1e-6)


def test_sn_radius_cubic_scaling_exact():
    M = Fraction(1, 10**30)
    assert sn_radius(2 * M, RATIONAL_CONSTANTS) * 8 == sn_radius(M, RATIONAL_CONSTANTS)


def test_sn_radius_dwarfs_separation_for_electron():
    R = sn_radius(ELECTRON.M)
    assert ELECTRON.b / (2 * R) < Decimal("1e-40")


def test_e_g_full_branch_continuity_exact():
    M, b = Fraction(3, 2), Fraction(4)
    R = b / 2  # beta = 1 exactly
    prefactor = 6 * RATIONAL_CONSTANTS.G * M**2 / (5 * R)
    value = e_g_full(M, R, b, RATIONAL_CONSTANTS)
    assert value == prefactor * Fraction(7, 12)
    # both polynomial branches give 7/12 at beta = 1
    assert Fraction(5, 3) - Fraction(5, 4) + Fraction(1, 6) == Fraction(7, 12)
    assert 1 - Fraction(5, 12) == Fraction(7, 12)


def test_e_g_full_branch_continuity_decimal():
    M = Decimal("1e-20")
    b = Decimal("2e-3")
    R = b / 2
    inside = e_g_full(M, R, b * Decimal("0.9999999999"), DEFAULT_CONSTANTS)
    outside = e_g_full(M, R, b * Decimal("1.0000000001"), DEFAULT_CONSTANTS)
    assert abs(inside - outside) / outside < Decimal("1e-9")


def test_e_g_full_wide_separation_asymptote():
    M = Decimal("1e-20")
    R = Decimal("1e-6")
    asymptote = 6 * DEFAULT_CONSTANTS.G * M**2 / (5 * R)
    wide = e_g_full(M, R, R * Decimal("1e9"), DEFAULT_CONSTANTS)
    assert abs(wide - asymptote) / asymptote < Decimal("1e-8")


def test_e_g_full_agrees_with_small_b_limit():
    M = Decimal("1e-30")
    R = sn_radius(M)
    for b in (Decimal("5e-9"), R * Decimal("0.001")):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            full = e_g_full(M, R, b, DEFAULT_CONSTANTS)
            small = e_g_small_b(M, b, DEFAULT_CONSTANTS)
        assert abs(full - small) / small < Decimal("0.01")


def test_e_g_small_b_electron_value():
    value = e_g_small_b(ELECTRON.M, ELECTRON.b)
    assert float(value.log10()) == pytest.approx(-183.744, abs=0.01)


def test_e_g_small_b_separation_scaling_exact():
    M, b = Fraction(1, 10**30), Fraction(5, 10**9)
    assert e_g_small_b(M, 3 * b, RATIONAL_CONSTANTS) == 9 * e_g_small_b(
        M, b, RATIONAL_CONSTANTS
    )


def test_e_g_small_b_mass_scaling_exact():
    M, b = Fraction(1, 10**30), Fraction(5, 10**9)
    for k in (2, 640, 10**6):
        ratio = e_g_small_b(k * M, b, RATIONAL_CONSTANTS) / e_g_small_b(
            M, b, RATIONAL_CONSTANTS
        )
        assert ratio == Fraction(k) ** 11


def test_e_g_small_b_warns_outside_regime():
    M = Decimal("1e-30")
    R = sn_radius(M)
    with pytest.warns(UserWarning):
        e_g_small_b(M, R / 50, DEFAULT_CONSTANTS)


def test_e_g_large_b_value_and_scaling():
    # direct evaluation: G^2 M^5 / hbar^2 for M = 1e-30 kg
    value = e_g_large_b(Decimal("1e-30"))
    assert float(value.log10()) == pytest.approx(math.log10(4.0055e-103), abs=0.01)
    M = Fraction(1, 10**30)
    assert e_g_large_b(2 * M, RATIONAL_CONSTANTS) == 32 * e_g_large_b(
        M, RATIONAL_CONSTANTS
    )


def test_e_g_large_b_is_wide_limit_of_full_profile():
    # with R = hbar^2 / G M^3 the wide-separation prefactor is 6/5 of it
    M = Fraction(1, 10**30)
    R = sn_radius(M, RATIONAL_CONSTANTS)
    prefactor = 6 * RATIONAL_CONSTANTS.G * M**2 / (5 * R)
    assert prefactor == Fraction(6, 5) * e_g_large_b(M, RATIONAL_CONSTANTS)


def test_dp_time_examples():
    tau = dp_time(e_g_small_b(ELECTRON.M, ELECTRON.b))
    assert float(tau.log10()) == pytest.approx(149.767, abs=0.01)
    assert dp_time(RATIONAL_CONSTANTS.hbar, RATIONAL_CONSTANTS) == 1
    with pytest.raises(ValueError):
        dp_time(Decimal(0))


def test_dp_time_inverse_exact():
    E_G = Fraction(3, 7) * Fraction(1, 10**180)
    assert dp_time(E_G, RATIONAL_CONSTANTS) * E_G == RATIONAL_CONSTANTS.hbar


def test_l_of_scenario_electron():
    L = l_of_scenario(ELECTRON)
    assert float(Decimal(L).log10()) == pytest.approx(193.035, abs=0.01)
    assert 640 < float(Decimal(L).ln() / Decimal(2).ln()) < 642


def test_l_of_scenario_composite_640():
    L = l_of_scenario(Scenario(M=ELECTRON.M, b=ELECTRON.b, qubit_multiplier=640))
    assert float(Decimal(L).log10()) == pytest.approx(162.167, abs=0.01)


def test_l_of_scenario_classical_limit():
    # a kilogram-scale mass has E_G far above E_P in the wide-separation branch
    assert l_of_scenario(Scenario(M=Decimal(1), b=Decimal(1))) == 1
    # exactly, too: the ceiling of a ratio in (0, 1] is 1
    assert l_of_scenario(Scenario(M=Fraction(1), b=Fraction(1)), RATIONAL_CONSTANTS) == 1
    # and where E_P / E_G would fall below the decimal exponent range
    tiny_planck = PhysicalConstants(E_P=Decimal("1e-999990"))
    assert l_of_scenario(Scenario(M=Decimal(1), b=Decimal(1)), tiny_planck) == 1


def test_reduction_time_examples():
    assert reduction_time(1) == 0
    assert reduction_time(2) == DEFAULT_CONSTANTS.t_P
    with pytest.raises(ValueError):
        reduction_time(0)


def test_reduction_after_examples():
    assert reduction_after(123, Decimal(0)) == 123
    assert reduction_after(5, Decimal(10) * DEFAULT_CONSTANTS.t_P) == 1
    L0 = 10**193
    gigayear = Decimal("3.156e16")
    drop = L0 - reduction_after(L0, gigayear)
    assert float(Decimal(drop).log10()) == pytest.approx(59.767, abs=0.01)
    with pytest.raises(ValueError):
        reduction_after(5, Decimal(-1))


def test_reduction_after_rational_constants():
    # Off the Decimal path the floor of t / t_P is exact rational arithmetic.
    t_P = RATIONAL_CONSTANTS.t_P
    assert reduction_after(100, 0, RATIONAL_CONSTANTS) == 100
    assert reduction_after(100, 10 * t_P, RATIONAL_CONSTANTS) == 90
    assert reduction_after(100, 10 * t_P - Fraction(1, 10**90), RATIONAL_CONSTANTS) == 91
    assert reduction_after(5, 10**6 * t_P, RATIONAL_CONSTANTS) == 1
    with pytest.raises(ValueError, match="non-negative"):
        reduction_after(5, Fraction(-1), RATIONAL_CONSTANTS)


@pytest.mark.parametrize(
    "t,constants",
    [
        (1e-30, DEFAULT_CONSTANTS),
        (Fraction(1, 10**40), DEFAULT_CONSTANTS),
        ("1e-30", DEFAULT_CONSTANTS),
        (Decimal("1e-40"), RATIONAL_CONSTANTS),
        (1e-20, RATIONAL_CONSTANTS),
    ],
    ids=["float", "fraction", "str", "decimal-with-fractions", "float-with-fractions"],
)
def test_reduction_after_refuses_a_time_of_another_type(t, constants):
    kind = type(constants.t_P).__name__
    with pytest.raises(ValueError, match=f"^elapsed time must be an int or a {kind} ") as excinfo:
        reduction_after(10**30, t, constants)
    assert excinfo.type is ValueError


def test_scenario_report_consistency():
    report = scenario_report(ELECTRON)
    assert report.tau_M == reduction_time(report.L)
    assert reduction_time(Decimal(report.L)) == report.tau_M  # the report passes its Decimal L
    # same product at the working precision, one ulp of the last digit
    naive = (Decimal(report.L) - 1) * DEFAULT_CONSTANTS.t_P  # context prec 28
    assert abs(report.tau_M - naive) / naive < Decimal("1e-27")
    assert report.n_max == n_max(report.L)
    assert float(report.beta) < 1e-40
    assert report.log2_L == pytest.approx(641.25, abs=0.05)
    # tau_M and tau_DP agree by construction (E_P t_P is hbar up to constant rounding)
    assert abs(report.tau_M - report.tau_DP) / report.tau_DP < Decimal("1e-3")


def test_scenario_report_r_override():
    custom = scenario_report(
        Scenario(M=Decimal("1e-30"), b=Decimal("5e-9"), R_override=Decimal("1e30"))
    )
    assert custom.R == Decimal("1e30")


@pytest.mark.parametrize(
    "radius,e_g,n_max_",
    [("1e-6", "8.327232E-70", 267), ("1e-8", "6.791622E-64", 247)],
    ids=["100b<=R", "100b>R"],
)
def test_an_overridden_radius_takes_the_full_profile(radius, e_g, n_max_):
    # The small-b formula assumes the Schroedinger-Newton radius, so with an
    # override E_G is the full profile on either side of 100 b = R.
    M, b, R = Decimal("1e-30"), Decimal("5e-9"), Decimal(radius)
    report = scenario_report(Scenario(M=M, b=b, R_override=R))
    assert report.E_G == e_g_full(M, R, b)
    assert (f"{report.E_G:.6E}", report.n_max) == (e_g, n_max_)


def test_precision_independence():
    coarse = scenario_report(ELECTRON, PhysicalConstants(precision=100)).log10_L
    fine = scenario_report(ELECTRON, PhysicalConstants(precision=200)).log10_L
    assert abs(coarse - fine) < 1e-6


def test_float_logarithms_do_not_scale_with_the_working_precision():
    # log10_L and log2_L are floats, taken at 50 digits: at the working
    # precision their ln and log10 took 27 s at 10,000 digits.
    report = scenario_report(ELECTRON)
    t0 = time.perf_counter()
    fine = scenario_report(ELECTRON, PhysicalConstants(precision=10_000))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert (fine.log10_L, fine.log2_L, fine.n_max) == (report.log10_L, report.log2_L, report.n_max)


def test_constants_validation():
    with pytest.raises(ValueError):
        PhysicalConstants(G=Decimal(-1))
    with pytest.raises(ValueError):
        PhysicalConstants(precision=10)
    with pytest.raises(ValueError):
        Scenario(M=Decimal(0), b=Decimal(1))
    with pytest.raises(ValueError):
        Scenario(M=Decimal(1), b=Decimal(1), qubit_multiplier=0)
    with pytest.raises(ValueError, match="R_override must be finite"):
        Scenario(M=Decimal(1), b=Decimal(1), R_override=Decimal("NaN"))
    with pytest.raises(ValueError, match="b must be finite"):
        Scenario(M=Fraction(1), b=float("inf"))
    # a finite Decimal beyond float range is accepted
    assert Scenario(M=Decimal("1e400000"), b=Decimal(1)).M == Decimal("1e400000")


@pytest.mark.parametrize(
    "value",
    [Decimal("Infinity"), Decimal("-Infinity"), Decimal("NaN"), Decimal("sNaN"),
     float("inf"), float("nan")],
)
@pytest.mark.parametrize("name", ["G", "hbar", "t_P", "E_P"])
def test_non_finite_constant_is_refused_by_name(name, value):
    with pytest.raises(ValueError, match=f"constant {name} must be finite"):
        PhysicalConstants(**{name: value})


@pytest.mark.parametrize("line", ["G = abc", "hbar = 1e-34e", "E_P =", "precision = 1e3"])
def test_unparsable_constant_names_key_and_path(tmp_path, line):
    path = tmp_path / "c.txt"
    path.write_text(line + "\n")
    key = line.split("=")[0].strip()
    with pytest.raises(ValueError, match="unparsable") as info:
        PhysicalConstants.from_file(str(path))
    assert repr(key) in str(info.value) and str(path) in str(info.value)


@pytest.mark.parametrize("mass", ["1.23456789e-90930", "9.87e-90990"])
def test_self_energy_below_the_exponent_range_raises_underflow(mass):
    # G^4 M^11 lands below 10^-1000000: rounding it to zero would be silent.
    with pytest.raises(Underflow):
        e_g_small_b(Decimal(mass), Decimal("5e-9"))


def test_constants_file_and_env(tmp_path, monkeypatch):
    path = tmp_path / "constants.txt"
    path.write_text(
        "# toy constants\n"
        "G = 1e-10\n"
        "hbar = 1e-34\n"
        "t_P = 5e-44\n"
        "E_P = 2e9\n"
        "precision = 80\n"
    )
    c = PhysicalConstants.from_file(str(path))
    assert c.G == Decimal("1e-10") and c.precision == 80
    c2 = PhysicalConstants.from_file(str(path), precision=150)
    assert c2.precision == 150
    monkeypatch.setenv(CONSTANTS_ENV_VAR, str(path))
    assert constants_from_env().E_P == Decimal("2e9")
    # An explicit path wins over the environment, and precision over both files.
    given = tmp_path / "given.txt"
    given.write_text("E_P = 3e9\n")
    assert constants_from_env(path=str(given)) == PhysicalConstants(E_P=Decimal("3e9"))
    assert constants_from_env(70).precision == 70
    monkeypatch.delenv(CONSTANTS_ENV_VAR)
    assert constants_from_env() is DEFAULT_CONSTANTS
    bad = tmp_path / "bad.txt"
    bad.write_text("mystery = 3\n")
    with pytest.raises(ValueError):
        PhysicalConstants.from_file(str(bad))
