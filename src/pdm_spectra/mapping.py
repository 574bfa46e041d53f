"""Change of variables between the mass coordinate and the flat coordinate.

The map q(x) with q'(x) = 1/mu(x), together with the amplitude rescaling
psi(x) = phi(q(x)) / sqrt(mu(x)), carries the position-dependent-mass
operator into a unit-mass reference operator

    H_ref = -d^2/dq^2 + V_eff(q),      V_eff(q) = alpha0 - F(q)^2 - i F'(q),

so the two pictures share their Dirichlet spectra on matched windows.  This
module evaluates the map, the reference and target potentials (including the
rational closed forms used for cross-validation), and the decomposition of the
full potential into real/imaginary/bare parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedKindError
from .model import Generator, MassLike, ModelSpec, SamsonovRoy, ScarfII

__all__ = [
    "LiouvilleMap",
    "reference_potential",
    "closed_form_reference",
    "target_potential",
    "closed_form_target",
    "PotentialDecomposition",
    "potential_decomposition",
    "wavefunction_pullback",
]


@dataclass(frozen=True)
class LiouvilleMap:
    """Invertible coordinate change generated by a mass profile."""

    profile: MassLike

    def q_of_x(self, x):
        """Flat coordinate of position `x`; OutOfDomainError outside the profile."""
        return self.profile.q_from_x(x)

    def x_of_q(self, q):
        """Position at flat coordinate `q`; OutOfRangeError when not attained."""
        return self.profile.x_from_q(q)

    def mu(self, x):
        """Inverse square-root mass mu(x) = M(x)^(-1/2)."""
        return self.profile.eval(x).mu


def reference_potential(generator: Generator, alpha0: float, q):
    """Flat-picture potential alpha0 - F(q)^2 - i F'(q)."""
    f, fp = generator(q)
    return alpha0 - f * f - 1j * fp


def closed_form_reference(generator: Generator, q):
    """Closed form of the flat-picture potential for the built-in generators.

    ScarfII gives -v2^2 sech(q)^2 - i v2 sech(q) tanh(q); SamsonovRoy gives
    -6/(cos q + 2i sin q)^2 - 25/16.  Both assume alpha0 = 0.  Other kinds
    raise UnsupportedKindError.
    """
    arr = np.asarray(q, dtype=float)
    scalar = arr.ndim == 0
    if isinstance(generator, ScarfII):
        sech = 1.0 / np.cosh(arr)
        out = -generator.v2**2 * sech**2 - 1j * generator.v2 * sech * np.tanh(arr)
    elif isinstance(generator, SamsonovRoy):
        out = -6.0 / (np.cos(arr) + 2j * np.sin(arr)) ** 2 - 25.0 / 16.0
    else:
        raise UnsupportedKindError(f"no closed-form potential for {generator}")
    return out.item() if scalar else out


def target_potential(spec: ModelSpec, x):
    """Mass-picture potential alpha0 - F(q(x))^2 - i mu(x) dF/dx."""
    q = spec.profile.q_from_x(x)
    f, fq = spec.generator(q)
    mu = spec.profile.eval(x).mu
    df_dx = fq / mu
    return spec.alpha0 - f * f - 1j * (mu * df_dx)


def closed_form_target(spec: ModelSpec, x):
    """Rational closed form of the mass-picture potential.

    For ScarfII the potential is expressed through f = sign * exp(q(x)):

        -4 v2^2 f^2/(f^2+1)^2 - sign * 2i v2 f (f^2-1)/(f^2+1)^2,

    and for SamsonovRoy through g = cos(q(x)) and its x-derivative:

        -6 / (g - 2i mu g')^2 - 25/16.

    Both assume alpha0 = 0; other generator kinds raise UnsupportedKindError.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    gen = spec.generator
    q = np.asarray(spec.profile.q_from_x(arr), dtype=float)
    if isinstance(gen, ScarfII):
        f = gen.sign * np.exp(q)
        f2 = f * f
        den = (f2 + 1.0) ** 2
        out = -4.0 * gen.v2**2 * f2 / den - gen.sign * 2j * gen.v2 * f * (f2 - 1.0) / den
    elif isinstance(gen, SamsonovRoy):
        mu = np.asarray(spec.profile.eval(arr).mu, dtype=float)
        g = np.cos(q)
        g_prime = -np.sin(q) / mu  # dg/dx through the chain rule
        out = -6.0 / (g - 2j * mu * g_prime) ** 2 - 25.0 / 16.0
    else:
        raise UnsupportedKindError(f"no closed-form target potential for {gen}")
    return out.item() if scalar else out


@dataclass(frozen=True)
class PotentialDecomposition:
    """Split of the mass-picture potential: total = vtilde + i*w, bare v."""

    vtilde: complex | np.ndarray
    w: complex | np.ndarray
    v: complex | np.ndarray


def potential_decomposition(spec: ModelSpec, x) -> PotentialDecomposition:
    """Real part, imaginary part and bare potential at `x`.

    Returns
    -------
    PotentialDecomposition with
        vtilde = alpha0 - F^2 - mu*mu''/2 - (mu')^2/4      (dressed, real)
        w      = -mu * dF/dx                               (imaginary part)
        v      = alpha0 - F^2 + (1/2+beta) mu*mu''
                 + (4a(a+b+1) + b + 3/4) (mu')^2           (bare)

    The three satisfy the ordering identity: adding the ordering terms
    (1+b)/2 * M''/M^2 - (a(a+b+1)+b+1) (M')^2/M^3 to `v` reproduces `vtilde`.
    """
    a = float(spec.ordering.alpha)
    b = float(spec.ordering.beta)
    mu, mu1, mu2, _ = spec.profile.eval(x)
    q = spec.profile.q_from_x(x)
    f, fq = spec.generator(q)
    df_dx = fq / mu
    vtilde = spec.alpha0 - f * f - mu * mu2 / 2.0 - mu1 * mu1 / 4.0
    w = -mu * df_dx
    v = (
        spec.alpha0
        - f * f
        + (0.5 + b) * mu * mu2
        + (4.0 * a * (a + b + 1.0) + b + 0.75) * mu1 * mu1
    )
    return PotentialDecomposition(vtilde, w, v)


def wavefunction_pullback(liouville_map: LiouvilleMap, samples):
    """Carry flat-picture samples (q, phi(q)) to mass-picture pairs (x, psi(x)).

    psi(x) = phi(q(x)) / sqrt(mu(x)) evaluated at x = x_of_q(q).
    """
    out = []
    for q, phi in samples:
        x = liouville_map.x_of_q(q)
        mu = liouville_map.profile.eval(x).mu
        out.append((x, phi / np.sqrt(mu)))
    return out

