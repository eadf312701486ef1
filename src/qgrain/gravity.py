"""Gravitational discretisation scale for qubit state space.

The granularity available to a mass-M system follows from equating the tick
count of grid reduction, tau = (L - 1) * t_P, with the Diosi-Penrose collapse
time tau = hbar / E_G, giving L = ceil(E_P / E_G).  E_G is the gravitational
self-energy of two instances of the mass displaced by b, evaluated either
with the full beta = b / 2R profile or in its small-separation limit
G^4 M^11 b^2 / 2 hbar^6 (with R the Schroedinger-Newton radius hbar^2/G M^3).

All reference magnitudes land around 1e-184 J self-energies and 1e193
granularities, so the arithmetic runs in decimal floating point at a
configurable precision (default 120 significant digits).  Every formula is
plain +-*/ and integer powers, so passing Fraction constants instead of
Decimal ones yields exact rational results; tests use that mode to check
identities exactly.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import asdict, dataclass
from decimal import (
    Context, Decimal, DivisionByZero, InvalidOperation, Overflow, Underflow, localcontext,
)
from typing import Optional

from .nested import n_max
from .qubit import _require_granularity

_DEC_EXP_LIMIT = 10**6
_CONSTANT_KEYS = ("G", "hbar", "t_P", "E_P")
_MIN_PRECISION = 50  # digits; the float logarithms of L need no more


def _context(precision: int) -> Context:
    # Underflow is trapped too: a result rounded to zero or to a subnormal has
    # lost its digits, so it raises rather than passing on as a value.
    return Context(
        prec=precision, Emin=-_DEC_EXP_LIMIT, Emax=_DEC_EXP_LIMIT,
        traps=[InvalidOperation, DivisionByZero, Overflow, Underflow],
    )


def _require_finite(obj, names: tuple[str, ...], what: str) -> None:
    for name in names:
        value = getattr(obj, name)
        # Decimal and float carry inf/nan; Fraction and int are always finite.
        if (isinstance(value, Decimal) and not value.is_finite()) or (
            isinstance(value, float) and not math.isfinite(value)
        ):
            raise ValueError(f"{what} {name} must be finite, got {value}")


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants used by every evaluation, plus the working precision.

    Defaults are CODATA 2018 values:
      G    = 6.67430e-11  m^3 kg^-1 s^-2
      hbar = 1.054571817e-34  J s
      t_P  = 5.391247e-44  s
      E_P  = 1.9561e9  J
    """

    G: Decimal = Decimal("6.67430e-11")
    hbar: Decimal = Decimal("1.054571817e-34")
    t_P: Decimal = Decimal("5.391247e-44")
    E_P: Decimal = Decimal("1.9561e9")
    precision: int = 120

    def __post_init__(self):
        _require_finite(self, _CONSTANT_KEYS, "constant")
        for name in _CONSTANT_KEYS:
            if getattr(self, name) <= 0:
                raise ValueError(f"constant {name} must be positive")
        if self.precision < _MIN_PRECISION:
            raise ValueError(f"precision must be >= 50 digits, got {self.precision}")

    @classmethod
    def from_file(cls, path: str, precision: Optional[int] = None) -> "PhysicalConstants":
        """Load key=value lines (decimal strings, SI units; # starts a comment)."""
        fields: dict = {}
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                if key != "precision" and key not in _CONSTANT_KEYS:
                    raise ValueError(f"unknown constants key {key!r} in {path}")
                try:
                    fields[key] = int(value) if key == "precision" else Decimal(value)
                except (ValueError, InvalidOperation):
                    raise ValueError(
                        f"constants key {key!r} in {path} has unparsable value {value!r}"
                    ) from None
        if precision is not None:
            fields["precision"] = precision
        return cls(**fields)


DEFAULT_CONSTANTS = PhysicalConstants()

#: Environment variable naming a default constants file for the CLI.
CONSTANTS_ENV_VAR = "QGRAIN_CONSTANTS"


def constants_from_env(
    precision: Optional[int] = None, path: Optional[str] = None
) -> PhysicalConstants:
    """The constants the CLI evaluates with.

    They come from the file at ``path`` if one is given, else from the file
    that ``QGRAIN_CONSTANTS`` names, else the CODATA defaults.  ``precision``,
    when given, overrides the file's ``precision`` key and the default 120.
    """
    path = path or os.environ.get(CONSTANTS_ENV_VAR)
    if path:
        return PhysicalConstants.from_file(path, precision=precision)
    if precision is not None:
        return PhysicalConstants(precision=precision)
    return DEFAULT_CONSTANTS


@dataclass(frozen=True)
class Scenario:
    """A mass in superposition: M (kg), separation b (m), entangled-qubit multiplier."""

    M: Decimal
    b: Decimal
    qubit_multiplier: int = 1
    R_override: Optional[Decimal] = None

    def __post_init__(self):
        _require_finite(self, ("M", "b", "R_override"), "scenario")
        if self.M <= 0 or self.b <= 0:
            raise ValueError("mass and separation must be positive")
        if self.qubit_multiplier < 1:
            raise ValueError("qubit_multiplier must be >= 1")
        if self.R_override is not None and self.R_override <= 0:
            raise ValueError("R_override must be positive")


def sn_radius(M, c: PhysicalConstants = DEFAULT_CONSTANTS):
    """Schroedinger-Newton radius R = hbar^2 / (G M^3) of a self-gravitating mass."""
    with localcontext(_context(c.precision)):
        return c.hbar**2 / (c.G * M**3)


def e_g_full(M, R, b, c: PhysicalConstants = DEFAULT_CONSTANTS):
    """Gravitational self-energy of two instances of M (size R) separated by b.

    With beta = b / 2R:
      0 <= beta <= 1:  (6 G M^2 / 5R) * (5/3 beta^2 - 5/4 beta^3 + 1/6 beta^5)
      beta >= 1:       (6 G M^2 / 5R) * (1 - 5 / 12 beta)
    The two branches agree (value 7/12 of the prefactor) at beta = 1.
    """
    with localcontext(_context(c.precision)):
        beta = b / (2 * R)
        prefactor = 6 * c.G * M**2 / (5 * R)
        if beta <= 1:
            profile = 5 * beta**2 / 3 - 5 * beta**3 / 4 + beta**5 / 6
        else:
            profile = 1 - 5 / (12 * beta)
        return prefactor * profile


def e_g_small_b(M, b, c: PhysicalConstants = DEFAULT_CONSTANTS):
    """Small-separation self-energy G^4 M^11 b^2 / (2 hbar^6), valid for b << R."""
    with localcontext(_context(c.precision)):
        if 100 * b > sn_radius(M, c):
            warnings.warn(
                "separation exceeds R/100; the small-b formula degrades",
                stacklevel=2,
            )
        return c.G**4 * M**11 * b**2 / (2 * c.hbar**6)


def e_g_large_b(M, c: PhysicalConstants = DEFAULT_CONSTANTS):
    """Wide-separation self-energy G^2 M^5 / hbar^2, valid for b >> R."""
    with localcontext(_context(c.precision)):
        return c.G**2 * M**5 / c.hbar**2


def dp_time(E_G, c: PhysicalConstants = DEFAULT_CONSTANTS):
    """Diosi-Penrose collapse timescale hbar / E_G."""
    if E_G <= 0:
        raise ValueError("self-energy must be positive")
    with localcontext(_context(c.precision)):
        return c.hbar / E_G


def _effective_e_g(s: Scenario, c: PhysicalConstants):
    with localcontext(_context(c.precision)):
        M_eff = s.qubit_multiplier * s.M
        R = s.R_override if s.R_override is not None else sn_radius(M_eff, c)
        beta = s.b / (2 * R)
        # The small-b formula assumes R = sn_radius: an overridden R takes the full one.
        if s.R_override is None and 100 * s.b <= R:
            E_G = e_g_small_b(M_eff, s.b, c)
        else:
            E_G = e_g_full(M_eff, R, s.b, c)
        return R, beta, E_G


def l_of_scenario(s: Scenario, c: PhysicalConstants = DEFAULT_CONSTANTS) -> int:
    """Granularity L = ceil(E_P / E_G) for the scenario; L = 1 once E_G >= E_P."""
    with localcontext(_context(c.precision)):
        _, _, E_G = _effective_e_g(s, c)
        # min: E_G >= E_P gives 1, also where E_P / E_G would underflow (trapped).
        return math.ceil(c.E_P / min(E_G, c.E_P))


def reduction_time(L: int | Decimal, c: PhysicalConstants = DEFAULT_CONSTANTS) -> Decimal:
    """Time to reach the classical grid at one unit of L per Planck tick: (L - 1) t_P."""
    _require_granularity(L)
    with localcontext(_context(c.precision)):
        return (Decimal(L) - 1) * c.t_P


def reduction_after(L0: int, t, c: PhysicalConstants = DEFAULT_CONSTANTS) -> int:
    """Granularity left after elapsed time t: max(1, L0 - floor(t / t_P))."""
    _require_granularity(L0)
    if not isinstance(t, (int, type(c.t_P))):
        kind = type(c.t_P).__name__
        raise ValueError(f"elapsed time must be an int or a {kind} as t_P is, got {t!r}")
    if t < 0:
        raise ValueError("elapsed time must be non-negative")
    with localcontext(_context(c.precision)):
        ticks = math.floor(t / c.t_P)
    return max(1, L0 - ticks)


@dataclass(frozen=True)
class CapacityReport:
    """Derived quantities for one scenario.

    L is exact for the configured constants and precision; its trailing
    digits carry no physical meaning at 1e193 scale, so the base-10/base-2
    logarithms ride along.
    """

    R: Decimal
    beta: Decimal
    E_G: Decimal
    tau_DP: Decimal
    tau_M: Decimal
    L: int
    log10_L: float
    log2_L: float
    n_max: int

    def to_dict(self) -> dict:
        # Exact values as str, L by way of Decimal (no int-to-str digit limit); the rest as is.
        doc = {**asdict(self), "L": Decimal(self.L)}
        return {k: str(v) if isinstance(v, Decimal) else v for k, v in doc.items()}


def scenario_report(s: Scenario, c: PhysicalConstants = DEFAULT_CONSTANTS) -> CapacityReport:
    """Evaluate R, beta, E_G, tau_DP, L, tau_M and the capacity bound for a scenario."""
    R, beta, E_G = _effective_e_g(s, c)
    tau = dp_time(E_G, c)
    L = l_of_scenario(s, c)
    dec_L, logs = Decimal(L), _context(_MIN_PRECISION)
    return CapacityReport(
        R=R,
        beta=beta,
        E_G=E_G,
        tau_DP=tau,
        tau_M=reduction_time(dec_L, c),
        L=L,
        log10_L=float(logs.log10(dec_L)),
        log2_L=float(logs.divide(logs.ln(dec_L), logs.ln(2))),
        n_max=n_max(L),
    )
