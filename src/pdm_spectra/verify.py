"""Verification checks tying the numerics to closed-form knowledge.

Every check returns a VerificationReport: a pass/fail flag plus a details
dict of plain JSON-safe values (reports are written byte-for-byte
reproducibly, so no wall-clock times and no non-finite floats).

The checks:

* isospectral_sweep: the mass-picture and flat-picture Hamiltonians over
  matched domains share their low spectrum; the gap must shrink with the
  grid.
* check_intertwining: the discretized first-order intertwiner and target
  Hamiltonian satisfy eta H = H^dagger eta up to a residual that decays
  with grid spacing.
* check_analytic: numerically bound levels land on the known closed-form
  ladders (sech-profile and trigonometric models).
* check_identities: the independent algebraic routes to the potentials
  agree pointwise to near machine precision.
* eigensolver_validation: `eig` on dense and on tridiagonal matrices
  against the LAPACK-free small-matrix oracle on seeded random matrices.

`analytic_levels` lists the closed-form ladders that check_analytic and
convergence_sweep compare with, and DEFAULT_TOLERANCES holds the checks'
default tolerances, which the run config reads too.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InsufficientBoundStatesError, UnsupportedKindError
from .eigen import _unit_scaled, brute_oracle_small, eig, eig_lowest, match_eigenvalue_sets
from .mapping import (
    closed_form_target,
    potential_decomposition,
    reference_potential,
    target_potential,
)
from .model import ModelSpec, SamsonovRoy, ScarfII
from .operators import (
    OperatorMatrix,
    build_eta_matrix,
    build_target_matrix,
    picture_matrix,
    uniform_grid,
)

__all__ = [
    "DEFAULT_TOLERANCES",
    "SAMSONOV_ROY_MISSING_LEVEL",
    "SAMSONOV_ROY_MISSING_WINDOW",
    "VerificationReport",
    "analytic_levels",
    "fit_decay_rate",
    "isospectral_sweep",
    "check_intertwining",
    "check_analytic",
    "check_identities",
    "convergence_sweep",
    "eigensolver_validation",
    "atomic_write_text",
]

# The checks' default tolerances, by run-config key.
DEFAULT_TOLERANCES = {
    "isospectral": 5e-2,
    "iso_rate": 1.0,
    "analytic": 2e-2,
    "im": None,
    "intertwine_rate": 0.9,
    "identities": 1e-12,
    "solver": 1e-8,
    "trace": 1e-10,
}

# The trigonometric model's ladder n^2/4 - 25/16 skips n = 2; check_analytic
# wants every eigenvalue at least the window away from the missing level.
SAMSONOV_ROY_MISSING_LEVEL = -9.0 / 16.0
SAMSONOV_ROY_MISSING_WINDOW = 0.2
# check_identities samples this many points across the padded x-window.
_IDENTITY_POINTS = 200


def _jsonable(value):
    """Recursively coerce to JSON-safe plain types; non-finite floats -> None."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, complex):
        return {"re": _jsonable(value.real), "im": _jsonable(value.imag)}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (np.generic, np.ndarray)):
        return _jsonable(value.tolist())
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def atomic_write_text(path, *parts: str) -> None:
    """Write the parts of a text in turn, then rename the file into place, so
    readers never see half a file."""
    path = str(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class VerificationReport:
    """Outcome of one check: name, verdict, and JSON-safe evidence."""

    check: str
    passed: bool
    details: dict

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "passed": bool(self.passed),
            "details": _jsonable(self.details),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path) -> None:
        atomic_write_text(path, self.to_json())


def _require_ladder_fits(size: int, n: int) -> None:
    """InsufficientBoundStatesError where a ladder of `size` levels has more
    levels than the smallest grid, of n nodes, has nodes."""
    if size > n:
        raise InsufficientBoundStatesError(
            f"a ladder of {size:.6g} levels needs grids of at least {size:.6g} nodes, got n = {n}"
        )


def analytic_levels(generator, n: int) -> np.ndarray:
    """The generator's closed-form bound levels, for grids of at least n nodes.

    Scarf II: -(|v2| - j - 1/2)^2 for integers 0 <= j < |v2| - 1/2.
    Samsonov-Roy: j^2/4 - 25/16 for j in {1, 3, 4, 5}; j = 2 is absent.
    Raises UnsupportedKindError for any other generator, and
    InsufficientBoundStatesError, before any level is listed, for a ladder
    with more levels than n.
    """
    if isinstance(generator, ScarfII):
        depth = abs(float(generator.v2))
        count = max(0, math.ceil(depth - 0.5))
        _require_ladder_fits(count, n)
        return np.array([-((depth - j - 0.5) ** 2) for j in range(count)])
    if isinstance(generator, SamsonovRoy):
        _require_ladder_fits(4, n)
        return np.array([j * j / 4.0 - 25.0 / 16.0 for j in (1, 3, 4, 5)])
    raise UnsupportedKindError(
        f"no closed-form level ladder for {type(generator).__name__}"
    )


def fit_decay_rate(h_values, errors) -> float:
    """Least-squares exponent p in err ~ C h^p."""
    h = np.asarray(h_values, dtype=float)
    e = np.maximum(np.asarray(errors, dtype=float), 1e-300)
    if h.size < 2:
        raise ValueError("need at least two points to fit a rate")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


def _refine(n_list, interval, measure):
    """measure(n) for each grid size n of a refinement, and the refinement's
    report keys: "n", the sizes; "h", the spacings (b - a)/(n + 1) of flat
    n-node grids on `interval` = (a, b); "rate", the decay rate fitted to
    the measures."""
    n_list = [int(n) for n in n_list]
    a, b = interval
    values = [measure(n) for n in n_list]
    h = [(b - a) / (n + 1) for n in n_list]
    return values, {"n": n_list, "h": h, "rate": fit_decay_rate(h, values)}


def _iso_gaps(spec: ModelSpec, n: int, k: int) -> np.ndarray:
    """Matched gaps of the k lowest reference-picture levels against the
    target picture's whole spectrum, on n-node grids (see _ladder_gaps)."""
    if k > n // 4:
        raise InsufficientBoundStatesError(
            f"requested {k} shared levels from {n}-node grids; only the lowest "
            f"quarter of the truncated spectrum is comparable"
        )
    reference = eig_lowest(picture_matrix(spec, "reference", n)[1], k)
    return _ladder_gaps(reference, picture_matrix(spec, "target", n)[1])


def isospectral_sweep(
    spec: ModelSpec,
    n_list,
    k: int,
    tol: float = DEFAULT_TOLERANCES["isospectral"],
    min_rate: float = DEFAULT_TOLERANCES["iso_rate"],
) -> VerificationReport:
    """Worst matched gap of _iso_gaps over a grid refinement; the last gap
    must be at most tol, and the gaps must shrink at least at min_rate."""
    worst, refinement = _refine(n_list, spec.q_interval,
                                lambda n: float(_iso_gaps(spec, n, k).max()))
    # Two pictures that are one operator agree exactly: no decay to fit.
    passed = worst[-1] <= tol and (refinement["rate"] >= min_rate or not any(worst))
    return VerificationReport(
        check="isospectral_sweep",
        passed=passed,
        details={
            **refinement,
            "k": k,
            "gaps": worst,
            "final_gap": worst[-1],
            "tol": tol,
            "min_rate": min_rate,
        },
    )


def _product_bands(x: OperatorMatrix, y: OperatorMatrix) -> list:
    """The five bands of the pentadiagonal product of two tridiagonals, from
    the second subdiagonal up to the second superdiagonal."""
    diag = x.diag * y.diag
    diag[1:] += x.lower * y.upper
    diag[:-1] += x.upper * y.lower
    return [x.lower[1:] * y.lower[:-1],
            x.lower * y.diag[:-1] + x.diag[1:] * y.lower,
            diag,
            x.diag[:-1] * y.upper + x.upper * y.diag[1:],
            x.upper[:-1] * y.upper[1:]]


def check_intertwining(
    spec: ModelSpec,
    n_list,
    min_rate: float = DEFAULT_TOLERANCES["intertwine_rate"],
) -> VerificationReport:
    """Residual of eta H = H^dagger eta shrinking under refinement.

    The relative residual ||eta H - H^dagger eta||_F / (||eta||_F ||H||_F)
    is dominated by the Dirichlet cut rows and decays about linearly in h;
    the check wants strict decrease plus a fitted rate of at least min_rate.
    A real alpha0 does not enter the relation, so H is taken with the
    spec's alpha0 subtracted from its diagonal, and a large shift cannot
    swamp ||H||_F.  Both factors are tridiagonal, so both products are
    formed as five bands, after each factor is brought to unit scale by an
    exact power of two (eigen._unit_scaled): the relative residual keeps its
    bits under that scaling, and every product and norm stays finite.
    """
    xa, xb = spec.x_interval

    def residual(n):
        grid = uniform_grid(xa, xb, n, coordinate="x")
        target = build_target_matrix(spec, grid)
        shifted = OperatorMatrix(target.lower, target.diag - spec.alpha0, target.upper)
        ham, eta = (OperatorMatrix(*_unit_scaled(m.lower, m.diag, m.upper)[0])
                    for m in (shifted, build_eta_matrix(spec, grid)))
        adjoint = OperatorMatrix(ham.upper.conj(), ham.diag.conj(), ham.lower.conj())
        mismatch = [a - b for a, b in zip(_product_bands(eta, ham), _product_bands(adjoint, eta))]
        norms = [np.linalg.norm(np.concatenate((m.lower, m.diag, m.upper))) for m in (eta, ham)]
        return float(np.linalg.norm(np.concatenate(mismatch)) / (norms[0] * norms[1]))

    residuals, refinement = _refine(n_list, (xa, xb), residual)
    decreasing = all(residuals[i + 1] < residuals[i] for i in range(len(residuals) - 1))
    return VerificationReport(
        check="intertwining",
        passed=decreasing and refinement["rate"] >= min_rate,
        details={
            **refinement,
            "residual": residuals,
            "strictly_decreasing": decreasing,
            "min_rate": min_rate,
            "x_interval": [xa, xb],
        },
    )


def check_analytic(
    spec: ModelSpec,
    n: int,
    tol: float = DEFAULT_TOLERANCES["analytic"],
    im_tol: float | None = DEFAULT_TOLERANCES["im"],
) -> VerificationReport:
    """Numerically bound flat-picture levels against the closed-form ladder + alpha0.

    The bound candidates are the eigenvalues with |Im| <= im_tol below a
    real cutoff, and bound_count counts them; eig_lowest's window grows, one
    Krylov space, until its top level passes the cutoff.  For the sech model
    the cutoff is the continuum threshold (box modes of the truncated
    continuum sit above it); for the trigonometric model max(ladder) + tol,
    above which no level can pass the match.  Matching uses complex modulus:
    near a spectral defect the discretization splits a real level into a
    conjugate pair with O(h) imaginary parts, so the default im_tol for the
    trigonometric model is tol itself, while the sech model (whose levels
    stay cleanly real) uses 1e-6.

    For the trigonometric model the report additionally confirms that no
    eigenvalue comes within SAMSONOV_ROY_MISSING_WINDOW of the absent n = 2
    level.  Raises InsufficientBoundStatesError, before any grid is built,
    for a ladder with more levels than n.
    """
    gen = spec.generator
    oracle = analytic_levels(gen, n) + spec.alpha0
    missing = SAMSONOV_ROY_MISSING_LEVEL + spec.alpha0
    sech = isinstance(gen, ScarfII)
    if im_tol is None:
        im_tol = 1e-6 if sech else tol
    details: dict = {
        "n": n,
        "tol": tol,
        "q_interval": list(spec.q_interval),
        "levels": oracle,
        "im_tol": im_tol,
    }
    if sech:
        endpoint_v = reference_potential(gen, spec.alpha0, np.asarray(spec.q_interval, float))
        cutoff = float(np.max(endpoint_v.real))
        details["continuum_threshold"] = cutoff
    else:
        # The clearance over the window is exact whenever it is below
        # cutoff - missing level (5.27 at tol = 2e-2), itself >= the window.
        cutoff = max(float(oracle.max()) + tol, missing + SAMSONOV_ROY_MISSING_WINDOW)
    eigenvalues = eig_lowest(picture_matrix(spec, "reference", n)[1], oracle.size + 1,
                             lambda window: cutoff)
    bound = (np.abs(eigenvalues.imag) <= im_tol) & (eigenvalues.real < cutoff)
    candidates = eigenvalues[bound]
    details["bound_count"] = int(candidates.size)
    if sech:
        details["bound_below_threshold"] = int(candidates.size)
    if oracle.size == 0:
        details["note"] = "no bound levels to compare"
        return VerificationReport("analytic", True, details)
    if candidates.size < oracle.size:
        details["note"] = "fewer numerically bound levels than the ladder predicts"
        return VerificationReport("analytic", False, details)

    picked, gaps = match_eigenvalue_sets(oracle, candidates)
    details["matched"] = picked
    details["gaps"] = gaps
    details["max_gap"] = float(gaps.max())
    passed = bool(gaps.max() <= tol)

    if sech:
        passed = passed and candidates.size == oracle.size
    if isinstance(gen, SamsonovRoy):
        clearance = float(np.min(np.abs(eigenvalues - missing)))
        details["missing_level"] = missing
        details["missing_level_clearance"] = clearance
        details["missing_window"] = SAMSONOV_ROY_MISSING_WINDOW
        passed = passed and clearance >= SAMSONOV_ROY_MISSING_WINDOW
    return VerificationReport("analytic", passed, details)


def check_identities(
    spec: ModelSpec,
    tol: float = DEFAULT_TOLERANCES["identities"],
) -> VerificationReport:
    """Pointwise agreement of independent algebraic routes.

    (a) the generic potential evaluation against the simplified rational
        closed form, when one exists for the generator;
    (b) the recombination vtilde + mu mu''/2 + (mu')^2/4 + i w of the
        decomposition against the complexified potential;
    (c) the ordering-dependent potential terms written in mass variables
        (M, M', M'') against the same terms in mu variables.
    """
    xa, xb = spec.x_interval
    pad = 1e-3 * (xb - xa)
    x = np.linspace(xa + pad, xb - pad, _IDENTITY_POINTS)
    veff = target_potential(spec, x)
    dec = potential_decomposition(spec, x)

    mu, mu1, mu2 = spec.profile.eval(x)

    triangle_gap = float(
        np.max(np.abs(dec.vtilde + mu * mu2 / 2.0 + mu1 * mu1 / 4.0 + 1j * dec.w - veff))
    )

    a = float(spec.ordering.alpha)
    b = float(spec.ordering.beta)
    m, m1, m2 = spec.profile.mass_derivatives(x)
    terms_mass = (1.0 + b) / 2.0 * m2 / m**2 - (a * (a + b + 1.0) + b + 1.0) * m1**2 / m**3
    terms_mu = dec.vtilde - dec.v
    ordering_gap = float(np.max(np.abs(terms_mass - terms_mu)))

    details: dict = {
        "n_points": _IDENTITY_POINTS,
        "tol": tol,
        "triangle_gap": triangle_gap,
        "ordering_terms_gap": ordering_gap,
        "x_window": [float(x[0]), float(x[-1])],
    }
    gaps = [triangle_gap, ordering_gap]
    try:
        closed = closed_form_target(spec, x)
    except UnsupportedKindError:
        details["closed_form_gap"] = None
        details["note"] = "no rational closed form for this generator"
    else:
        closed_gap = float(np.max(np.abs(closed - veff)))
        details["closed_form_gap"] = closed_gap
        gaps.append(closed_gap)
    return VerificationReport(
        check="identities",
        passed=all(g <= tol for g in gaps),
        details=details,
    )


def _ladder_gaps(levels: np.ndarray, matrix) -> np.ndarray:
    """Each level's gap in the greedy match (match_eigenvalue_sets) against
    the matrix's whole spectrum, in level order.  The low window grows until
    its top real part exceeds max(levels.real) plus its worst gap: every
    level left out is then farther from each of `levels` than any gap
    picked, so the match over the whole spectrum picks the same levels."""
    def gaps(window):
        return match_eigenvalue_sets(levels, window)[1]

    top = float(levels.real.max())
    return gaps(eig_lowest(matrix, levels.size + 1, lambda window: top + gaps(window).max()))


def convergence_sweep(
    spec: ModelSpec,
    n_list,
    picture: str = "reference",
    oracle=None,
) -> dict:
    """Worst matched-level error against a ladder over a grid refinement.

    The ladder is `oracle` as given, else the closed form plus alpha0.
    Returns rows suitable for tabulation: grid sizes, spacings of the
    underlying flat grid, errors, and the fitted decay rate.  Raises
    InsufficientBoundStatesError, before any grid is built, for an empty
    ladder or one with more levels than the smallest grid has nodes.
    """
    n_list = [int(n) for n in n_list]  # the ladder is checked before any grid is built
    if oracle is None:
        oracle = analytic_levels(spec.generator, min(n_list)) + spec.alpha0
    oracle = np.asarray(oracle, dtype=complex).ravel()
    if oracle.size == 0:
        raise InsufficientBoundStatesError("the ladder has no level to sweep against")
    _require_ladder_fits(oracle.size, min(n_list))
    errors, refinement = _refine(
        n_list, spec.q_interval,
        lambda n: float(_ladder_gaps(oracle, picture_matrix(spec, picture, n)[1]).max()))
    return {
        "picture": picture,
        **refinement,
        "error": errors,
        "levels": [complex(v) for v in oracle],
    }


def _against_oracle(matrices, oracles):
    """Worst gap between `eig`'s eigenvalues and the oracle's roots
    `oracles`, worst trace error over `matrices`, and whether re-solving the
    first three gives the same bits."""
    worst_gap = worst_trace = 0.0
    first = []
    for matrix, oracle in zip(matrices, oracles):
        spectrum = eig(matrix)
        _, gaps = match_eigenvalue_sets(oracle, spectrum.eigenvalues)
        worst_gap = max(worst_gap, float(gaps.max()))
        worst_trace = max(worst_trace, float(spectrum.trace_error))
        if len(first) < 3:
            first.append(spectrum.eigenvalues)
    replays = all(np.array_equal(eig(m).eigenvalues, vals) for m, vals in zip(matrices, first))
    return worst_gap, worst_trace, replays


def eigensolver_validation(
    seed: int = 1234,
    count: int = 100,
    tol: float = DEFAULT_TOLERANCES["solver"],
    trace_tol: float = DEFAULT_TOLERANCES["trace"],
) -> VerificationReport:
    """`eig` on dense and on tridiagonal matrices vs the LAPACK-free oracle.

    Draws `count` dense complex Gaussian matrices of sizes 2..8, then one
    complex Gaussian OperatorMatrix of each size 2..8, which `eig` solves
    on its bands; compares matched eigenvalues with those of
    `brute_oracle_small` (one batch for all of them), checks the trace
    identity, and re-solves a few inputs of each to confirm bitwise-identical
    output.  `worst_gap` and `worst_trace_error` are the dense draws'; the
    `tridiagonal_` keys are the banded ones'.  Raises ValueError for
    count < 1, before any draw.
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    rng = np.random.default_rng(seed)
    dense = []
    for _ in range(count):
        size = int(rng.integers(2, 9))
        dense.append(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
    bands = [rng.standard_normal((3, size)) + 1j * rng.standard_normal((3, size))
             for size in range(2, 9)]
    tridiagonal = [OperatorMatrix(b[0, 1:], b[1], b[2, 1:]) for b in bands]
    oracles = brute_oracle_small(dense + tridiagonal)
    worst_gap, worst_trace, dense_replays = _against_oracle(dense, oracles[:len(dense)])
    tri_gap, tri_trace, tri_replays = _against_oracle(tridiagonal, oracles[len(dense):])
    deterministic = dense_replays and tri_replays
    passed = (max(worst_gap, tri_gap) <= tol and max(worst_trace, tri_trace) <= trace_tol
              and deterministic)
    return VerificationReport(
        check="solver",
        passed=passed,
        details={
            "seed": seed,
            "count": count,
            "sizes": [2, 8],
            "worst_gap": worst_gap,
            "tol": tol,
            "worst_trace_error": worst_trace,
            "trace_tol": trace_tol,
            "tridiagonal_worst_gap": tri_gap,
            "tridiagonal_worst_trace_error": tri_trace,
            "deterministic": deterministic,
        },
    )
