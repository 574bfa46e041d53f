"""Core model data: kinetic orderings, power-law mass profiles, generators.

The Hamiltonians treated here are position-dependent-mass operators

    H = -d/dx (1/M(x)) d/dx + potential,

where the kinetic term descends from the two-parameter symmetrized ordering
with exponents (alpha, beta, gamma), alpha + beta + gamma = -1.  The mass
profiles form the one-parameter power-law class

    mu(x) = (c1*x + c2)^(1/(delta+1)),        M(x) = mu(x)^(-2),

which is exactly the class on which mu'(x) * mu(x)^delta is constant.  The
exponent delta compatible with a given ordering is

    delta = 4*alpha + 1 + 4*alpha^2 / (beta + 1),

undefined at beta = -1.  Orderings and delta values are kept as exact
rationals; profile evaluation is floating point.

Profiles and generators take array-likes and return float arrays of the
same shape; a scalar argument gives numpy's 0-d result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

import numpy as np

from .errors import (
    BadIntervalError,
    BetaMinusOneError,
    OutOfDomainError,
    OutOfRangeError,
)

__all__ = [
    "AmbiguityOrdering",
    "ORDERING_PRESETS",
    "ordering_preset",
    "delta_of",
    "ProfileValues",
    "MassProfile",
    "ConstantMass",
    "ScarfII",
    "SamsonovRoy",
    "Morse",
    "Constant",
    "ModelSpec",
]


def _as_fraction(value: Union[int, float, str, Fraction]) -> Fraction:
    """Coerce to an exact rational; floats go through their decimal repr."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class AmbiguityOrdering:
    """Kinetic ordering exponents (alpha, beta, gamma) with sum -1.

    The exponents are stored as exact rationals so that preset comparisons
    and the derived profile exponent involve no rounding.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    name: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _as_fraction(self.alpha))
        object.__setattr__(self, "beta", _as_fraction(self.beta))
        object.__setattr__(self, "gamma", _as_fraction(self.gamma))
        total = self.alpha + self.beta + self.gamma
        if total != -1:
            raise ValueError(
                f"ordering exponents must sum to -1, got {total} "
                f"from ({self.alpha}, {self.beta}, {self.gamma})"
            )

    def __str__(self) -> str:
        label = self.name or "AmbiguityOrdering"
        return f"{label}(alpha={self.alpha}, beta={self.beta}, gamma={self.gamma})"


ORDERING_PRESETS: dict[str, AmbiguityOrdering] = {
    "GoraWilliams": AmbiguityOrdering(Fraction(-1), Fraction(0), Fraction(0), "GoraWilliams"),
    "BenDanielDuke": AmbiguityOrdering(Fraction(0), Fraction(-1), Fraction(0), "BenDanielDuke"),
    "ZhuKroemer": AmbiguityOrdering(Fraction(-1, 2), Fraction(0), Fraction(-1, 2), "ZhuKroemer"),
    "LiKuhn": AmbiguityOrdering(Fraction(0), Fraction(-1, 2), Fraction(-1, 2), "LiKuhn"),
    "MustafaMazharimousavi": AmbiguityOrdering(
        Fraction(-1, 4), Fraction(-1, 2), Fraction(-1, 4), "MustafaMazharimousavi"
    ),
}


def ordering_preset(name: str) -> AmbiguityOrdering:
    """Return one of the named literature orderings."""
    try:
        return ORDERING_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(ORDERING_PRESETS))
        raise ValueError(f"unknown ordering preset {name!r}; known presets: {known}") from None


def delta_of(ordering: AmbiguityOrdering) -> Fraction:
    """Profile exponent delta = 4a + 1 + 4a^2/(b+1) compatible with `ordering`.

    Raises
    ------
    BetaMinusOneError
        If the ordering has beta = -1 (BenDanielDuke), where the exponent
        formula degenerates and no power-law profile is singled out.
    """
    a, b = ordering.alpha, ordering.beta
    if b == -1:
        raise BetaMinusOneError(
            f"delta is undefined for beta = -1 (ordering {ordering.name or ordering})"
        )
    return 4 * a + 1 + 4 * a * a / (b + 1)


class ProfileValues(NamedTuple):
    """Pointwise profile data: mu, mu', mu'' and the mass M = mu^-2."""

    mu: np.ndarray
    mu_prime: np.ndarray
    mu_second: np.ndarray
    mass: np.ndarray


@dataclass(frozen=True)
class MassProfile:
    """Power-law profile mu(x) = (c1*x + c2)^(1/(delta+1)) on c1*x + c2 > 0."""

    c1: float
    c2: float
    delta: float

    def __post_init__(self) -> None:
        if self.c1 == 0.0:
            raise ValueError("c1 must be nonzero; use ConstantMass for a flat profile")
        if self.delta == -1.0:
            raise ValueError("delta = -1 makes the profile exponent 1/(delta+1) undefined")

    def _argument(self, x) -> np.ndarray:
        u = self.c1 * np.asarray(x, dtype=float) + self.c2
        if np.any(u <= 0.0):
            raise OutOfDomainError(
                f"position outside profile domain: need c1*x + c2 > 0 "
                f"(c1={self.c1}, c2={self.c2})"
            )
        return u

    def eval(self, x) -> ProfileValues:
        """Evaluate mu, mu', mu'' and M at the points `x`.

        Raises OutOfDomainError when any point has c1*x + c2 <= 0.
        """
        u = self._argument(x)
        p = 1.0 / (self.delta + 1.0)
        mu = u**p
        mu1 = self.c1 * p * u ** (p - 1.0)
        mu2 = self.c1 * self.c1 * p * (p - 1.0) * u ** (p - 2.0)
        mass = u ** (-2.0 * p)
        return ProfileValues(mu, mu1, mu2, mass)

    def mass_derivatives(self, x):
        """Return (M, M', M'') at `x`; used by the ordering-term identity check."""
        u = self._argument(x)
        e = -2.0 / (self.delta + 1.0)
        m = u**e
        m1 = self.c1 * e * u ** (e - 1.0)
        m2 = self.c1 * self.c1 * e * (e - 1.0) * u ** (e - 2.0)
        return m, m1, m2

    # Change of variables q(x) = integral of 1/mu.  Closed forms:
    #   delta != 0:  q = (delta+1)/(delta*c1) * (c1*x + c2)^(delta/(delta+1))
    #   delta == 0:  q = log(c1*x + c2)/c1
    def q_from_x(self, x):
        u = self._argument(x)
        d = self.delta
        if d == 0.0:
            return np.log(u) / self.c1
        return (d + 1.0) / (d * self.c1) * u ** (d / (d + 1.0))

    def x_from_q(self, q):
        q = np.asarray(q, dtype=float)
        d = self.delta
        if d == 0.0:
            u = np.exp(self.c1 * q)
        else:
            s = q * d * self.c1 / (d + 1.0)
            if np.any(s <= 0.0):
                raise OutOfRangeError(
                    f"q value not attained by the map for delta={d}, c1={self.c1} "
                    "(the image of q is a half-line)"
                )
            u = s ** ((d + 1.0) / d)
        return (u - self.c2) / self.c1

    def __str__(self) -> str:
        return f"MassProfile(c1={self.c1:g}, c2={self.c2:g}, delta={self.delta:g})"


@dataclass(frozen=True)
class ConstantMass:
    """Flat profile mu = M = 1; the change of variables is the identity."""

    def eval(self, x) -> ProfileValues:
        one = np.ones_like(x, dtype=float)
        zero = np.zeros_like(one)
        return ProfileValues(one, zero, zero, one.copy())

    def mass_derivatives(self, x):
        one = np.ones_like(x, dtype=float)
        zero = np.zeros_like(one)
        return one, zero, zero.copy()

    def q_from_x(self, x):
        return np.array(x, dtype=float)

    def x_from_q(self, q):
        return np.array(q, dtype=float)

    def __str__(self) -> str:
        return "ConstantMass()"


MassLike = Union[MassProfile, ConstantMass]


class Generator:
    """Base for intertwiner generators F(q); subclasses return (F, F')."""

    def __call__(self, q):
        raise NotImplementedError


@dataclass(frozen=True)
class ScarfII(Generator):
    """F(q) = -v2*sech(q); `sign` selects the branch f(x) = sign*exp(q(x))
    used by the rational closed form of the target-picture potential."""

    v2: float
    sign: int = 1

    def __post_init__(self) -> None:
        if self.v2 == 0.0:
            raise ValueError("v2 must be nonzero")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        sech = 1.0 / np.cosh(q)
        return -self.v2 * sech, self.v2 * sech * np.tanh(q)

    def __str__(self) -> str:
        return f"ScarfII(v2={self.v2:g}, sign={self.sign:+d})"


@dataclass(frozen=True)
class SamsonovRoy(Generator):
    """F(q) = -4/(3*cos(q)^2 - 4) - 5/4, a pi-periodic bounded generator."""

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        den = 3.0 * np.cos(q) ** 2 - 4.0
        return -4.0 / den - 1.25, -24.0 * np.sin(q) * np.cos(q) / den**2

    def __str__(self) -> str:
        return "SamsonovRoy()"


@dataclass(frozen=True)
class Morse(Generator):
    """F(q) = a*exp(-q)."""

    a: float = 1.0

    def __call__(self, q):
        f = self.a * np.exp(-np.asarray(q, dtype=float))
        return f, -f

    def __str__(self) -> str:
        return f"Morse(a={self.a:g})"


@dataclass(frozen=True)
class Constant(Generator):
    """F(q) = value; handy for free-operator limits."""

    value: float = 0.0

    def __call__(self, q):
        f = np.full_like(np.asarray(q, dtype=float), self.value)
        return f, np.zeros_like(f)

    def __str__(self) -> str:
        return f"Constant(value={self.value:g})"


@dataclass(frozen=True)
class ModelSpec:
    """One solvable model: generator, ordering, profile, shift and q-window.

    The q-interval must map into the profile's domain; this is checked at
    construction.
    """

    generator: Generator
    ordering: AmbiguityOrdering
    profile: MassLike
    alpha0: float = 0.0
    q_interval: tuple[float, float] = (-8.0, 8.0)

    def __post_init__(self) -> None:
        qa, qb = self.q_interval
        if not qa < qb:
            raise BadIntervalError(f"q interval must satisfy qa < qb, got ({qa}, {qb})")
        object.__setattr__(self, "q_interval", (float(qa), float(qb)))
        # Raises OutOfRangeError/OutOfDomainError when the window is invalid.
        self.profile.x_from_q(np.array(self.q_interval))

    @classmethod
    def from_ordering(
        cls,
        generator: Generator,
        ordering: AmbiguityOrdering,
        q_interval: tuple[float, float],
        c1: float = 1.0,
        c2: float = 0.0,
        alpha0: float = 0.0,
    ) -> "ModelSpec":
        """Build a spec whose profile exponent is derived from the ordering."""
        profile = MassProfile(c1, c2, float(delta_of(ordering)))
        return cls(generator, ordering, profile, alpha0, q_interval)

    @property
    def x_interval(self) -> tuple[float, float]:
        """Image of the q-interval under the change of variables."""
        qa, qb = self.q_interval
        return float(self.profile.x_from_q(qa)), float(self.profile.x_from_q(qb))
