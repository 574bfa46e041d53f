"""Full-spectrum and low-window eigenvalue solvers, an independent
small-matrix oracle, and eigenvalue set matching.

`eig` is the one entry point for a whole spectrum, with the package
conventions: eigenvalues in lexicographic order (real part, then imaginary
part), the Frobenius norm of the matrix, and a trace cross-check.  It
computes no eigenvectors.  An OperatorMatrix goes to `eig_tridiagonal`,
which works on its three bands by Ehrlich-Aberth iteration in O(n^2) time
and O(n) memory with numpy alone; where those sweeps do not converge, `eig`
takes LAPACK's general complex solver on the dense `entries` and records
why in `Spectrum.fallback`.  A plain array goes to LAPACK.

`eig_lowest` returns only the lowest few eigenvalues of an OperatorMatrix,
as a set, working on its three bands by shift-invert Arnoldi (ARPACK,
through scipy) with a proof that the window it returns is complete, and
hands the matrix to `eig` where it cannot give that proof.  Every
verification check on an operator goes through it.

`brute_oracle_small` shares no code path with LAPACK: it builds the
characteristic polynomial by the Faddeev-LeVerrier recursion and finds all
roots simultaneously with Durand-Kerner iteration.  It exists so the main
solvers can be checked against something that cannot fail the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, TooLargeError
from .operators import MAX_DENSE_NODES, OperatorMatrix

__all__ = [
    "Spectrum",
    "eig",
    "eig_lowest",
    "eig_tridiagonal",
    "brute_oracle_small",
    "match_eigenvalue_sets",
]

_ORACLE_MAX_SIZE = 8
# brute_oracle_small's Durand-Kerner iteration: relative step tolerance and
# sweep limit.
_ORACLE_TOL = 1e-12
_ORACLE_MAX_ITER = 600
# eig_lowest's margin, relative to the Gershgorin bound on ||A||: the shift
# sits at least this far below every real part, and an accepted window's top
# real part this far below the reach, so rounding cannot carry either across.
_MARGIN_RTOL = 1e-10
# eig_tridiagonal: the sweep limit, and the number of entries in one block of
# its pair sum, so that no n x n temporary is held whole.
_MAX_SWEEPS = 200
_PAIR_BLOCK = 1 << 16


def _lex_order(values: np.ndarray) -> np.ndarray:
    """Permutation sorting by real part, ties by imaginary part."""
    return np.lexsort((values.imag, values.real))


def _entries(matrix) -> np.ndarray:
    if isinstance(matrix, OperatorMatrix):
        return np.asarray(matrix.entries, dtype=complex)
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"need a square matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Spectrum:
    """Lex-ordered eigenvalues with three diagnostics.

    matrix_norm is ||A||_F.  trace_error compares the eigenvalue sum with
    the matrix trace, relative to max(1, |trace|, sum |lambda|).  fallback
    is "" unless the banded solve of an OperatorMatrix failed and the dense
    one answered; it then holds the banded solver's error text.
    """

    eigenvalues: np.ndarray
    matrix_norm: float = 0.0
    trace_error: float = 0.0
    fallback: str = ""

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=complex)
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)


def eig(matrix) -> Spectrum:
    """Full spectrum with package conventions.

    An OperatorMatrix is solved on its bands by `eig_tridiagonal`.  If that
    raises NoConvergenceError, its dense `entries` go to LAPACK and the
    banded error text is kept in `fallback`; TooLargeError propagates.  A
    plain array goes to LAPACK.  Raises NoConvergenceError if the dense QR
    iteration gives up.
    """
    fallback = ""
    if isinstance(matrix, OperatorMatrix):
        try:
            return eig_tridiagonal(matrix)
        except NoConvergenceError as exc:
            fallback = str(exc)
    a = _entries(matrix)
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"dense eigensolve failed: {exc}") from exc
    return _spectrum(vals, complex(np.trace(a)), float(np.linalg.norm(a)), fallback)


def _spectrum(vals: np.ndarray, trace: complex, norm: float, fallback: str = "") -> Spectrum:
    """Eigenvalues in lex order, with their trace error against `trace`."""
    vals = vals[_lex_order(vals)]
    scale = max(1.0, abs(trace), float(np.sum(np.abs(vals))))
    return Spectrum(eigenvalues=vals, matrix_norm=norm,
                    trace_error=abs(vals.sum() - trace) / scale, fallback=fallback)


def _row_sums(couplings: np.ndarray) -> np.ndarray:
    """Per-row sum of the two off-diagonal magnitudes of a tridiagonal."""
    out = np.zeros(couplings.size + 1)
    out[:-1] += couplings
    out[1:] += couplings
    return out


def _bounds(matrix: OperatorMatrix):
    """sqrt(lower * upper) and the bounds lo <= Re <= hi, |Im| <= B it gives
    on every eigenvalue (see eig_lowest)."""
    diag = matrix.diag
    root = np.sqrt(matrix.lower * matrix.upper)
    rows = _row_sums(np.abs(root.real))
    height = float(np.max(np.abs(diag.imag) + _row_sums(np.abs(root.imag))))
    return root, float(np.min(diag.real - rows)), float(np.max(diag.real + rows)), height


def eig_lowest(matrix: OperatorMatrix, k: int) -> np.ndarray:
    """Lowest k eigenvalues of a tridiagonal matrix, as a set, lex-ordered.

    Agrees with eig(matrix).eigenvalues[:k] as a set; where two levels tie
    in real part at the cut, either one completes the set.  Shift-invert
    Arnoldi returns the m eigenvalues nearest a real shift sigma placed
    below every real part; they form a disk of radius R about sigma.  Every
    eigenvalue has |Im| <= B, so one outside the disk has real part at least
    sigma + sqrt(R^2 - B^2), the reach.  The window is accepted when its
    k-th value lies below the reach; otherwise m doubles.  An ARPACK
    failure, or m reaching n - 2, hands the matrix to `eig`, which solves it
    on its bands (densifying only where those sweeps fail).

    The bounds come from Bendixson's theorem and Gershgorin's discs applied
    to the diagonally similar matrix whose off-diagonal pairs both equal
    sqrt(lower * upper), so the non-symmetric stencils of the mass picture
    do not inflate them.
    """
    n = matrix.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    root, floor, _, im_bound = _bounds(matrix)
    margin = _MARGIN_RTOL * max(1.0, float(np.max(np.abs(matrix.diag) + _row_sums(np.abs(root)))))
    sigma = floor - max(im_bound, margin)
    m = k + 1
    if m < n - 2:
        from scipy.sparse.linalg import ArpackError, eigs

        sparse = matrix.sparse()
        start = np.random.default_rng(0).standard_normal(n).astype(complex)
        while m < n - 2:
            try:
                vals = eigs(sparse, k=m, sigma=sigma, v0=start, return_eigenvectors=False)
            except ArpackError:
                break
            vals = vals[_lex_order(vals)]
            radius = float(np.max(np.abs(vals - sigma)))
            reach = sigma + math.sqrt(max(radius**2 - im_bound**2, 0.0))
            if reach - vals[k - 1].real > margin:
                vals = vals[:k]
                vals.setflags(write=False)
                return vals
            m *= 2
    return eig(matrix).eigenvalues[:k]


def eig_tridiagonal(matrix: OperatorMatrix) -> Spectrum:
    """Full spectrum of a tridiagonal matrix from its bands, in O(n^2).

    The banded path of `eig`, which adds the dense fallback; called alone
    it is the raw solver that the solver validation checks.  Same
    conventions as `eig`.  Ehrlich-Aberth iteration on det(A - zI)
    (Bini, Gemignani & Tisseur, SIAM J. Matrix Anal. Appl. 27 (2005)
    153-175), with p'/p from the ratio continuant
    r_i = (d_i - z) - l_{i-1} u_{i-1} / r_{i-1}, started on an ellipse that
    holds the Gershgorin and Bendixson bounds.  A root freezes once its step
    is at most 4 eps max(|z|, 1e-3 ||A||_F), or stops shrinking at most
    max(1e-8 |z|, 8 eps ||A||_F), the continuant's rounding level near 0.
    Raises TooLargeError for n > MAX_DENSE_NODES, NoConvergenceError on a
    non-finite entry or when roots still move at the _MAX_SWEEPS limit.
    """
    n = matrix.n
    if n > MAX_DENSE_NODES:
        raise TooLargeError(f"full spectra are limited to {MAX_DENSE_NODES} nodes, got {n}")
    lower, diag, upper = matrix.lower, matrix.diag, matrix.upper
    norm = float(np.linalg.norm(np.concatenate((lower, diag, upper))))
    if not math.isfinite(norm):
        raise NoConvergenceError("the bands hold a non-finite entry")
    if norm == 0.0:
        return Spectrum(np.zeros(n, dtype=complex))
    _, lo, hi, height = _bounds(matrix)
    floor = 1e-3 * norm
    width = max(0.5 * (hi - lo), height, floor)
    # Chebyshev abscissae alternately above and below the real axis; the
    # quarter offset breaks the mirror symmetry x -> lo + hi - x, which would
    # otherwise carry two roots of a mirror-symmetric spectrum onto one point.
    theta = np.pi * (np.arange(n) + 0.25) / n
    z = (0.5 * (lo + hi) + width * np.cos(theta)
         + 1j * max(height, 1e-3 * width) * np.sin(theta) * (-1.0) ** np.arange(n))
    eps = np.finfo(float).eps
    pivot = eps * norm  # stands in for an r_i that is exactly zero
    d0, rest, couplings = complex(diag[0]), diag[1:].tolist(), (lower * upper).tolist()
    block = max(1, _PAIR_BLOCK // n)
    active = np.arange(n)
    last = np.full(n, np.inf)
    for _ in range(_MAX_SWEEPS):
        za = z[active]
        r = d0 - za
        np.copyto(r, pivot, where=r == 0)
        g = -1.0 / r
        dlogp = g.copy()
        for d, c in zip(rest, couplings):
            t = c / r
            r = (d - za) - t
            np.copyto(r, pivot, where=r == 0)
            g = (t * g - 1.0) / r
            dlogp += g
        pair = np.empty_like(za)
        for i in range(0, za.size, block):
            diff = za[i:i + block, None] - z
            diff[diff == 0] = np.inf  # the self term, and exact coincidences
            pair[i:i + block] = (1.0 / diff).sum(axis=1)
        step = 1.0 / (dlogp - pair)
        z[active] = za - step
        # A root pushed only by a close neighbour takes small steps while its
        # Newton correction 1/(p'/p) stays large; neither may be large.
        size = np.maximum(np.abs(step), 1.0 / np.maximum(np.abs(dlogp), np.finfo(float).tiny))
        mag = np.abs(za)
        stalled = (size >= last[active]) & (size <= np.maximum(1e-8 * mag, 8 * eps * norm))
        done = (size <= 4 * eps * np.maximum(mag, floor)) | stalled
        last[active] = size
        active = active[~done]
        if not active.size:
            return _spectrum(z, complex(np.sum(diag)), norm)
    raise NoConvergenceError(
        f"{active.size} of {n} roots still moving at the limit of {_MAX_SWEEPS} Aberth sweeps"
    )


def _char_poly_coeffs(a: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients, highest degree first.

    Faddeev-LeVerrier: M_1 = A, c_1 = -tr M_1;
    M_k = A (M_{k-1} + c_{k-1} I), c_k = -tr(M_k)/k.
    """
    n = a.shape[0]
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = a.copy()
    for k in range(1, n + 1):
        c = -np.trace(m) / k
        coeffs[k] = c
        if k < n:
            m = a @ (m + c * np.eye(n))
    return coeffs


def _durand_kerner(coeffs: np.ndarray) -> np.ndarray:
    """All roots of a monic polynomial by simultaneous iteration."""
    n = coeffs.size - 1
    if n == 0:
        return np.empty(0, dtype=complex)
    # Cauchy-type inclusion radius; the offset angle keeps the start
    # configuration away from real-axis symmetries.
    r0 = 1.0 + float(np.max(np.abs(coeffs[1:])))
    z = r0 * np.exp(2j * np.pi * np.arange(n) / n + 0.4j)
    for _ in range(_ORACLE_MAX_ITER):
        p = np.polyval(coeffs, z)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        small = np.abs(diff) < 1e-14
        if small.any():
            diff[small] = 1e-12 * (1.0 + 1j)
        denom = diff.prod(axis=1)
        step = p / denom
        z = z - step
        if np.max(np.abs(step)) < _ORACLE_TOL * max(1.0, float(np.max(np.abs(z)))):
            break
    else:
        raise NoConvergenceError(
            f"root iteration did not settle within {_ORACLE_MAX_ITER} sweeps"
        )
    return z


def brute_oracle_small(matrix) -> np.ndarray:
    """Eigenvalues of a small matrix without LAPACK, lex-ordered.

    Independent route for cross-checking `eig`: characteristic polynomial
    via Faddeev-LeVerrier, roots via Durand-Kerner.  Sizes above 8 are
    refused (TooLargeError); conditioning of the coefficient route degrades
    quickly and the point is verification, not production solving.
    """
    a = _entries(matrix)
    n = a.shape[0]
    if n > _ORACLE_MAX_SIZE:
        raise TooLargeError(f"oracle accepts matrices up to size {_ORACLE_MAX_SIZE}, got {n}")
    roots = _durand_kerner(_char_poly_coeffs(a))
    return roots[_lex_order(roots)]


def match_eigenvalue_sets(targets: np.ndarray, candidates: np.ndarray):
    """Pair each target value with a distinct nearest candidate.

    Greedy on the globally smallest remaining |target - candidate| gap
    (first index wins ties).  Returns (picked values, distances), both in
    target order.
    """
    t = np.asarray(targets, dtype=complex).ravel()
    c = np.asarray(candidates, dtype=complex).ravel()
    if c.size < t.size:
        raise ValueError(f"need at least {t.size} candidates, got {c.size}")
    dist = np.abs(t[:, None] - c[None, :])
    picked = np.empty(t.size, dtype=complex)
    gaps = np.empty(t.size, dtype=float)
    work = dist.copy()
    for _ in range(t.size):
        flat = int(np.argmin(work))
        i, j = divmod(flat, work.shape[1])
        picked[i] = c[j]
        gaps[i] = dist[i, j]
        work[i, :] = np.inf
        work[:, j] = np.inf
    return picked, gaps
