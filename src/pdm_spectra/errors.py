"""Exception types raised across the package.

Everything derives from :class:`PdmSpectraError` so callers can catch the
package's failures with one handler while still distinguishing the cause.
"""

from __future__ import annotations


class PdmSpectraError(Exception):
    """Base class for all errors raised by pdm_spectra."""


class OutOfDomainError(PdmSpectraError):
    """A position falls outside the mass profile's domain c1*x + c2 > 0."""


class OutOfRangeError(PdmSpectraError):
    """A coordinate value is not attained by the change of variables, or a
    q-window on which the reference potential is not finite."""


class BetaMinusOneError(PdmSpectraError):
    """The profile exponent is undefined because the ordering has beta = -1."""


class BadIntervalError(PdmSpectraError):
    """An interval's endpoints are not strictly increasing."""


class TooFewNodesError(PdmSpectraError):
    """A grid was requested with too few interior nodes."""


class SingularEdgeError(PdmSpectraError):
    """A grid node sits too close to the mass singularity x = -c2/c1."""


class NoConvergenceError(PdmSpectraError):
    """An eigenvalue iteration failed to converge: LAPACK's dense solve, or
    the Ehrlich-Aberth sweeps of the banded full-spectrum solve."""


class TooLargeError(PdmSpectraError):
    """A matrix exceeds a size limit: a full spectrum or dense assembly
    (MAX_DENSE_NODES) or the brute-force characteristic-polynomial oracle
    (n <= 8)."""


class InsufficientBoundStatesError(PdmSpectraError):
    """A grid cannot hold the levels a check compares: more shared levels
    than the lowest quarter of an n-node grid's spectrum (k > n // 4), or a
    sweep ladder that is empty or longer than its smallest grid."""


class UnsupportedKindError(PdmSpectraError):
    """No closed form is available for the requested generator kind: no
    rational target potential, or no bound-level ladder."""


class ConfigError(PdmSpectraError):
    """A run configuration failed validation."""
