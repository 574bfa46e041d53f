"""Verification checks tying the numerics to closed-form knowledge.

Every check returns a VerificationReport: a pass/fail flag plus a details
dict of plain JSON-safe values (reports are written byte-for-byte
reproducibly, so no wall-clock times and no non-finite floats).

The checks:

* check_isospectral / isospectral_sweep: the mass-picture and flat-picture
  Hamiltonians over matched domains share their low spectrum; the gap must
  shrink with the grid.
* check_intertwining: the discretized first-order intertwiner and target
  Hamiltonian satisfy eta H = H^dagger eta up to a residual that decays
  with grid spacing.
* check_analytic: numerically bound levels land on the known closed-form
  ladders (sech-profile and trigonometric models).
* check_identities: the independent algebraic routes to the potentials
  agree pointwise to near machine precision.
* eigensolver_validation: the dense and the full-spectrum tridiagonal
  eigensolvers against the LAPACK-free small-matrix oracle on seeded random
  matrices.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InsufficientBoundStatesError, UnsupportedGeneratorError
from .eigen import brute_oracle_small, eig, eig_lowest, eig_tridiagonal, match_eigenvalue_sets
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
    build_reference_matrix,
    build_target_matrix,
    matched_domains,
    uniform_grid,
)
from .errors import UnsupportedKindError

__all__ = [
    "SAMSONOV_ROY_MISSING_LEVEL",
    "SAMSONOV_ROY_MISSING_WINDOW",
    "VerificationReport",
    "scarf2_levels",
    "samsonov_roy_levels",
    "analytic_levels",
    "fit_decay_rate",
    "check_isospectral",
    "isospectral_sweep",
    "check_intertwining",
    "check_analytic",
    "check_identities",
    "convergence_sweep",
    "eigensolver_validation",
    "atomic_write_text",
]

# The trigonometric model's ladder n^2/4 - 25/16 skips n = 2; check_analytic
# wants every eigenvalue at least the window away from the missing level.
SAMSONOV_ROY_MISSING_LEVEL = -9.0 / 16.0
SAMSONOV_ROY_MISSING_WINDOW = 0.2


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


def atomic_write_text(path, text: str) -> None:
    """Write text then rename into place, so readers never see half a file."""
    path = str(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
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

    @classmethod
    def load(cls, path) -> "VerificationReport":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        return cls(check=raw["check"], passed=raw["passed"], details=raw["details"])


def scarf2_levels(v2) -> np.ndarray:
    """Bound levels -(|v2| - n - 1/2)^2 for integer n with n < |v2| - 1/2."""
    depth = abs(float(v2))
    count = max(0, math.ceil(depth - 0.5))
    return np.array([-((depth - n - 0.5) ** 2) for n in range(count)])


def samsonov_roy_levels() -> np.ndarray:
    """Levels n^2/4 - 25/16 for n in {1, 3, 4, 5}; n = 2 is absent."""
    return np.array([n * n / 4.0 - 25.0 / 16.0 for n in (1, 3, 4, 5)])


def analytic_levels(generator) -> np.ndarray:
    if isinstance(generator, ScarfII):
        return scarf2_levels(generator.v2)
    if isinstance(generator, SamsonovRoy):
        return samsonov_roy_levels()
    raise UnsupportedGeneratorError(
        f"no closed-form level ladder for {type(generator).__name__}"
    )


def fit_decay_rate(h_values, errors) -> float:
    """Least-squares exponent p in err ~ C h^p."""
    h = np.asarray(h_values, dtype=float)
    e = np.maximum(np.asarray(errors, dtype=float), 1e-300)
    if h.size < 2:
        raise ValueError("need at least two points to fit a rate")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


def _iso_gaps(spec: ModelSpec, n: int, k: int) -> np.ndarray:
    if k > n // 4:
        raise InsufficientBoundStatesError(
            f"requested {k} shared levels from {n}-node grids; only the lowest "
            f"quarter of the truncated spectrum is comparable"
        )
    grid_x, grid_q = matched_domains(spec, n)
    # One spare level per picture: a conjugate pair cut at k keeps both
    # members among the candidates, whichever one rounding sorted first.
    vals_x = eig_lowest(build_target_matrix(spec, grid_x), k + 1)
    vals_q = eig_lowest(build_reference_matrix(spec, grid_q), k + 1)
    return match_eigenvalue_sets(vals_q[:k], vals_x)[1]


def check_isospectral(spec: ModelSpec, n: int, k: int, tol: float = 5e-2) -> VerificationReport:
    """Lowest-k agreement of the two pictures on matched domains, one grid."""
    gaps = _iso_gaps(spec, n, k)
    worst = float(gaps.max())
    return VerificationReport(
        check="isospectral",
        passed=worst <= tol,
        details={
            "n": n,
            "k": k,
            "tol": tol,
            "max_gap": worst,
            "gaps": gaps,
            "q_interval": list(spec.q_interval),
        },
    )


def isospectral_sweep(
    spec: ModelSpec,
    n_list,
    k: int,
    tol: float = 5e-2,
    min_rate: float = 1.0,
) -> VerificationReport:
    """Isospectral gap over a grid refinement; gap small and shrinking."""
    n_list = [int(n) for n in n_list]
    qa, qb = spec.q_interval
    worst = [float(_iso_gaps(spec, n, k).max()) for n in n_list]
    h = [(qb - qa) / (n + 1) for n in n_list]
    rate = fit_decay_rate(h, worst)
    passed = worst[-1] <= tol and rate >= min_rate
    return VerificationReport(
        check="isospectral_sweep",
        passed=passed,
        details={
            "n": n_list,
            "h": h,
            "k": k,
            "gaps": worst,
            "final_gap": worst[-1],
            "tol": tol,
            "rate": rate,
            "min_rate": min_rate,
        },
    )


def check_intertwining(
    spec: ModelSpec,
    n_list,
    min_rate: float = 0.9,
) -> VerificationReport:
    """Residual of eta H = H^dagger eta shrinking under refinement.

    The relative residual ||eta H - H^dagger eta||_F / (||eta||_F ||H||_F)
    is dominated by the Dirichlet cut rows and decays about linearly in h;
    the check wants strict decrease plus a fitted rate of at least min_rate.
    Both factors are tridiagonal, so the products are formed sparse.
    """
    from scipy.sparse.linalg import norm  # first use only, like eig_lowest

    n_list = [int(n) for n in n_list]
    xa, xb = spec.x_interval
    residuals = []
    for n in n_list:
        grid = uniform_grid(xa, xb, n, coordinate="x")
        ham = build_target_matrix(spec, grid).sparse()
        eta = build_eta_matrix(spec, grid).sparse()
        mismatch = eta @ ham - ham.conj().T @ eta
        residuals.append(float(norm(mismatch) / (norm(eta) * norm(ham))))
    h = [(xb - xa) / (n + 1) for n in n_list]
    decreasing = all(residuals[i + 1] < residuals[i] for i in range(len(residuals) - 1))
    rate = fit_decay_rate(h, residuals)
    return VerificationReport(
        check="intertwining",
        passed=decreasing and rate >= min_rate,
        details={
            "n": n_list,
            "h": h,
            "residual": residuals,
            "strictly_decreasing": decreasing,
            "rate": rate,
            "min_rate": min_rate,
            "x_interval": [xa, xb],
        },
    )


def check_analytic(
    spec: ModelSpec,
    n: int,
    tol: float = 2e-2,
    im_tol: float | None = None,
) -> VerificationReport:
    """Numerically bound flat-picture levels against the closed-form ladder.

    The bound candidates are the eigenvalues with |Im| <= im_tol below a
    real cutoff, and bound_count counts them; only the levels up to the
    cutoff are solved.  For the sech model the cutoff is the continuum
    threshold (box modes of the truncated continuum sit above it); for the
    trigonometric model max(ladder) + tol, above which no level can pass
    the match.  Matching uses complex modulus: near a spectral defect the
    discretization splits a real level into a conjugate pair with O(h)
    imaginary parts, so the default im_tol for the trigonometric model is
    tol itself, while the sech model (whose levels stay cleanly real) uses
    1e-6.

    For the trigonometric model the report additionally confirms that no
    eigenvalue comes within SAMSONOV_ROY_MISSING_WINDOW of the absent n = 2
    level.
    """
    gen = spec.generator
    oracle = analytic_levels(gen)
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
        cutoff = max(float(oracle.max()) + tol,
                     SAMSONOV_ROY_MISSING_LEVEL + SAMSONOV_ROY_MISSING_WINDOW)
    grid = uniform_grid(*spec.q_interval, n, coordinate="q")
    eigenvalues = _window_past(build_reference_matrix(spec, grid), oracle.size + 1,
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
        clearance = float(np.min(np.abs(eigenvalues - SAMSONOV_ROY_MISSING_LEVEL)))
        details["missing_level"] = SAMSONOV_ROY_MISSING_LEVEL
        details["missing_level_clearance"] = clearance
        details["missing_window"] = SAMSONOV_ROY_MISSING_WINDOW
        passed = passed and clearance >= SAMSONOV_ROY_MISSING_WINDOW
    return VerificationReport("analytic", passed, details)


def check_identities(
    spec: ModelSpec,
    n_points: int = 200,
    tol: float = 1e-12,
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
    x = np.linspace(xa + pad, xb - pad, n_points)
    veff = target_potential(spec, x)
    dec = potential_decomposition(spec, x)

    mu, mu1, mu2, _ = spec.profile.eval(x)

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
        "n_points": n_points,
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


def _window_past(matrix, k: int, cutoff) -> np.ndarray:
    """The lowest k levels, lex-ordered, with k doubled until the top one's
    real part exceeds cutoff(window) or k = n."""
    k = min(k, matrix.n)
    while True:
        window = eig_lowest(matrix, k)
        if k == matrix.n or window[-1].real > cutoff(window):
            return window
        k = min(2 * k, matrix.n)


def _ladder_error(oracle: np.ndarray, matrix) -> float:
    """Worst matched gap of a ladder against the matrix's lowest levels.

    The window grows until its top real part exceeds max(oracle.real) plus
    the worst gap: every level left out is then farther from each ladder
    value than any gap picked, so the greedy match over the whole spectrum
    would pick the same levels.
    """
    top = float(oracle.real.max())

    def worst(window):
        return float(match_eigenvalue_sets(oracle, window)[1].max())

    return worst(_window_past(matrix, oracle.size + 1, lambda window: top + worst(window)))


def convergence_sweep(
    spec: ModelSpec,
    n_list,
    picture: str = "reference",
    oracle=None,
) -> dict:
    """Worst matched-level error against a ladder over a grid refinement.

    Returns rows suitable for tabulation: grid sizes, spacings of the
    underlying flat grid, errors, and the fitted decay rate.
    """
    if picture not in ("reference", "target"):
        raise ValueError(f"picture must be 'reference' or 'target', got {picture!r}")
    if oracle is None:
        oracle = analytic_levels(spec.generator)
    oracle = np.asarray(oracle, dtype=complex).ravel()
    if oracle.size == 0:
        raise ValueError("need at least one oracle level to sweep against")
    n_list = [int(n) for n in n_list]
    qa, qb = spec.q_interval
    errors = []
    for n in n_list:
        if picture == "reference":
            grid = uniform_grid(qa, qb, n, coordinate="q")
            matrix = build_reference_matrix(spec, grid)
        else:
            grid_x, _ = matched_domains(spec, n)
            matrix = build_target_matrix(spec, grid_x)
        errors.append(_ladder_error(oracle, matrix))
    h = [(qb - qa) / (n + 1) for n in n_list]
    return {
        "picture": picture,
        "n": n_list,
        "h": h,
        "error": errors,
        "rate": fit_decay_rate(h, errors),
        "levels": [complex(v) for v in oracle],
    }


def _against_oracle(solve, matrices):
    """Worst oracle gap and trace error of `solve` over `matrices`, and
    whether re-solving the first three gives the same bits."""
    worst_gap = worst_trace = 0.0
    first = []
    for matrix in matrices:
        spectrum = solve(matrix)
        _, gaps = match_eigenvalue_sets(brute_oracle_small(matrix), spectrum.eigenvalues)
        worst_gap = max(worst_gap, float(gaps.max()))
        worst_trace = max(worst_trace, float(spectrum.trace_error))
        if len(first) < 3:
            first.append(spectrum.eigenvalues)
    replays = all(np.array_equal(solve(m).eigenvalues, vals) for m, vals in zip(matrices, first))
    return worst_gap, worst_trace, replays


def eigensolver_validation(
    seed: int = 1234,
    count: int = 100,
    tol: float = 1e-8,
    trace_tol: float = 1e-10,
) -> VerificationReport:
    """The dense and tridiagonal solvers vs the LAPACK-free oracle.

    Draws `count` dense complex Gaussian matrices of sizes 2..8 for `eig`,
    then one complex Gaussian tridiagonal of each size 2..8 for
    `eig_tridiagonal`, compares matched eigenvalues with the oracle's,
    checks the trace identity, and re-solves a few inputs of each to confirm
    bitwise-identical output.  `worst_gap` and `worst_trace_error` are
    `eig`'s; the `tridiagonal_` keys are `eig_tridiagonal`'s.
    """
    rng = np.random.default_rng(seed)
    dense = []
    for _ in range(count):
        size = int(rng.integers(2, 9))
        dense.append(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
    bands = [rng.standard_normal((3, size)) + 1j * rng.standard_normal((3, size))
             for size in range(2, 9)]
    tridiagonal = [OperatorMatrix(b[0, 1:], b[1], b[2, 1:]) for b in bands]
    worst_gap, worst_trace, dense_replays = _against_oracle(eig, dense)
    tri_gap, tri_trace, tri_replays = _against_oracle(eig_tridiagonal, tridiagonal)
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
