"""Exact single-qubit states on a rational grid.

A qubit state cos(theta/2)|1> + e^(i phi) sin(theta/2)|-1> is pinned to a
granularity-L grid by two integers: a Born weight m with cos^2(theta/2) = m/L
and a phase index n with phi = 2*pi*n/L.  Everything here is exact integer /
rational arithmetic except the angle conversions themselves.

quantise rounds floats, so it refuses L above 2^49, past which the round trip
through theta_of and phi_of may miss a grid point; coarsen rounds the exact
fractions m/L and n/L by the same rule, so it is exact at any L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

#: Rational cosines whose angle is also a rational multiple of pi.  By
#: Niven's theorem these five are the only ones.
NIVEN_COSINES = frozenset(
    (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1))
)


def round_half_down(x) -> int:
    """Nearest integer, with exact .5 ties rounded toward -inf.

    Accepts floats and Fractions; the tie rule is what makes grid results
    platform-independent.
    """
    return math.ceil(x - Fraction(1, 2))


def _require_granularity(L: int) -> None:
    if L < 1:
        raise ValueError(f"granularity L must be >= 1, got {L}")


@dataclass(frozen=True)
class DiscretisedQubit:
    """State indices (m, n) on the granularity-L grid.

    m is the Born-weight numerator (0 <= m <= L), n the phase numerator.
    n is canonicalised into [0, L) on construction: phi = 2*pi and phi = 0
    name the same state, so n = L collapses to 0.
    """

    m: int
    n: int
    L: int

    def __post_init__(self):
        _require_granularity(self.L)
        if not 0 <= self.m <= self.L:
            raise ValueError(f"m must lie in [0, L={self.L}], got {self.m}")
        object.__setattr__(self, "n", self.n % self.L)

    @property
    def born_weight(self) -> Fraction:
        """Squared amplitude of the |1> outcome, m/L."""
        return Fraction(self.m, self.L)


def theta_of(q: DiscretisedQubit) -> float:
    """Colatitude theta = 2*arccos(sqrt(m/L)), in [0, pi]."""
    return 2.0 * math.acos(math.sqrt(q.m / q.L))


def phi_of(q: DiscretisedQubit) -> float:
    """Azimuthal phase 2*pi*n/L, in [0, 2*pi)."""
    return TWO_PI * (q.n / q.L)  # int / int is correctly rounded at any size


# Largest L that quantise accepts.  With / and sqrt correctly rounded and
# acos and cos within 1 ulp, the round trip quantise(theta_of(q), phi_of(q), L)
# lands within 5.25 * L * 2^-53 of m (each step's error taken at its binade,
# peak near m/L = 0.77) and within 2.64 * L * 2^-53 of n (the two rounded
# 2*pi cancel; n < L keeps phi below 2*pi).  Half-down rounding recovers both
# while that is below 1/2: L < 2^53 / 10.5.  Up to 2^49 L is an exact
# float, so L * weight <= L for any angle and m never exceeds L.
_QUANTISE_MAX_L = 1 << 49


def _on_grid(weight, turn, L: int) -> DiscretisedQubit:
    """Round L * weight and L * turn (phase in turns) half-down; exact for
    Fractions.  The constructor checks L and m and wraps n = L to 0."""
    return DiscretisedQubit(round_half_down(L * weight), round_half_down(L * turn), L)


def quantise(theta: float, phi: float, L: int) -> DiscretisedQubit:
    """Round continuum angles onto the granularity-L grid.

    m = round(L * cos^2(theta/2)) and n = round(L * phi/2pi) mod L, both with
    the half-down tie rule.  phi is taken mod 2*pi.  Together with
    theta_of/phi_of this reproduces grid states exactly.  L above 2^49 is
    refused: a float cannot carry the round trip there.
    """
    if L > _QUANTISE_MAX_L:
        raise ValueError(f"quantise needs L <= 2^49 (float round-trip limit), got L={L}")
    return _on_grid(math.cos(theta / 2.0) ** 2, (phi % TWO_PI) / TWO_PI, L)


def coarsen(q: DiscretisedQubit, L_new: int) -> DiscretisedQubit:
    """Re-quantise a state onto a coarser grid (state reduction step).

    Equivalent to quantise(theta_of(q), phi_of(q), L_new) but carried out in
    exact rational arithmetic, so the documented tie rule is honoured even
    when L_new * m / L lands exactly on a half, and any L is accepted.  At
    L_new = 1 the result is the nearer measurement eigenstate.
    """
    if L_new > q.L:
        raise ValueError(
            f"reduction only decreases granularity: L_new={L_new} > L={q.L}"
        )
    return _on_grid(q.born_weight, Fraction(q.n, q.L), L_new)


def niven_admissible(c) -> bool:
    """True iff the rational cosine c also has an angle rational in pi.

    By Niven's theorem the admissible values are exactly 0, +-1/2, +-1.
    """
    c = Fraction(c)
    if abs(c) > 1:
        raise ValueError(f"cosine must lie in [-1, 1], got {c}")
    return c in NIVEN_COSINES


def complementarity_conflict(q: DiscretisedQubit) -> bool:
    """Whether the conjugate (which-way) basis of a wave-like state is undefined.

    Interpreting (m, L) in the wave-like basis gives cos(phi) = 2m/L - 1.
    Unless that cosine is Niven-admissible, phi is an irrational multiple of
    pi and the which-way basis cannot sit on any rational grid.
    """
    return not niven_admissible(Fraction(2 * q.m - q.L, q.L))


@dataclass(frozen=True)
class Direction:
    """Unit direction via its three direction cosines."""

    cx: float
    cy: float
    cz: float

    def __post_init__(self):
        norm = self.cx**2 + self.cy**2 + self.cz**2
        if not np.all(np.abs(norm - 1.0) <= 1e-12):  # NaN compares False
            raise ValueError(f"direction cosines must be unit norm, got |.|^2 = {norm!r}")


class UncertaintyResult(NamedTuple):
    lhs: float
    rhs: float
    ok: bool


def uncertainty_check(d: Direction) -> UncertaintyResult:
    """Spread product bound sigma' * sigma'' >= |mu| for spin components.

    With mu = cz the mean along z and sigma' = sqrt(1 - cx^2),
    sigma'' = sqrt(1 - cy^2) the standard deviations along x and y, the
    product inequality is a theorem of spherical trigonometry; equality holds
    on the coordinate great circles.  Direction fields may be equal-shape
    arrays; the result is then elementwise.
    """
    mu = d.cz
    sigma_x = np.sqrt(np.maximum(0.0, 1.0 - d.cx**2))
    sigma_y = np.sqrt(np.maximum(0.0, 1.0 - d.cy**2))
    lhs = sigma_x * sigma_y
    rhs = np.abs(mu)
    return UncertaintyResult(lhs, rhs, lhs >= rhs - 1e-12)
