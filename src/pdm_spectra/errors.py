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
    """A coordinate value is not attained by the change of variables."""


class BetaMinusOneError(PdmSpectraError):
    """The profile exponent is undefined because the ordering has beta = -1."""


class BadIntervalError(PdmSpectraError):
    """An interval's endpoints are not strictly increasing."""


class TooFewNodesError(PdmSpectraError):
    """A grid was requested with too few interior nodes."""


class SingularEdgeError(PdmSpectraError):
    """A grid node sits too close to the mass singularity x = -c2/c1."""


class NoConvergenceError(PdmSpectraError):
    """The QR eigenvalue iteration failed to converge."""


class TooLargeError(PdmSpectraError):
    """A matrix exceeds a size limit: dense assembly (MAX_DENSE_NODES) or the
    brute-force characteristic-polynomial oracle (n <= 8)."""


class InsufficientBoundStatesError(PdmSpectraError):
    """Fewer bound-classified eigenvalues were found than requested."""


class UnsupportedKindError(PdmSpectraError):
    """No closed form is available for the requested generator kind."""


class UnsupportedGeneratorError(UnsupportedKindError):
    """No analytic level oracle is available for the requested generator."""


class ConfigError(PdmSpectraError):
    """A run configuration failed validation."""
