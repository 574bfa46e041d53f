"""Dense nonsymmetric eigenvalues, a low-window tridiagonal solver, an
independent small-matrix oracle, and eigenvalue set matching.

The main entry point `eig` wraps LAPACK's general complex eigenvalue
solver and adds the package conventions: eigenvalues in lexicographic
order (real part, then imaginary part), the Frobenius norm of the matrix,
and a trace cross-check.  It computes no eigenvectors.

`eig_lowest` returns only the lowest few eigenvalues of an OperatorMatrix,
working on its three bands by shift-invert Arnoldi (ARPACK, through scipy)
with a proof that the window it returns is complete, and falls back to the
dense `eig` where it cannot give that proof.  Every verification check on
an operator goes through it; only `solve`, the solver validation and that
fallback take the dense `eig`.

`brute_oracle_small` shares no code path with LAPACK: it builds the
characteristic polynomial by the Faddeev-LeVerrier recursion and finds all
roots simultaneously with Durand-Kerner iteration.  It exists so the main
solver can be checked against something that cannot fail the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, TooLargeError
from .operators import OperatorMatrix

__all__ = [
    "Spectrum",
    "eig",
    "eig_lowest",
    "brute_oracle_small",
    "match_eigenvalue_sets",
]

_ORACLE_MAX_SIZE = 8
# Real parts closer than this, relative to the Gershgorin bound on ||A||, are
# a tie: rounding alone decides their lexicographic order.
_TIE_RTOL = 1e-10


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
    """Lex-ordered eigenvalues with two diagnostics.

    matrix_norm is ||A||_F.  trace_error compares the eigenvalue sum with
    the matrix trace, relative to max(1, |trace|, sum |lambda|).
    """

    eigenvalues: np.ndarray
    matrix_norm: float = 0.0
    trace_error: float = 0.0

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=complex)
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)


def eig(matrix) -> Spectrum:
    """Full spectrum of a dense complex matrix with package conventions.

    Accepts an OperatorMatrix, densified through its `entries`, or a plain
    array.  Raises NoConvergenceError if the underlying QR iteration gives
    up.
    """
    a = _entries(matrix)
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"dense eigensolve failed: {exc}") from exc
    vals = vals[_lex_order(vals)]
    tr = complex(np.trace(a))
    scale = max(1.0, abs(tr), float(np.sum(np.abs(vals))))
    return Spectrum(
        eigenvalues=vals,
        matrix_norm=float(np.linalg.norm(a)),
        trace_error=abs(vals.sum() - tr) / scale,
    )


def _row_sums(couplings: np.ndarray) -> np.ndarray:
    """Per-row sum of the two off-diagonal magnitudes of a tridiagonal."""
    out = np.zeros(couplings.size + 1)
    out[:-1] += couplings
    out[1:] += couplings
    return out


def eig_lowest(matrix: OperatorMatrix, k: int) -> np.ndarray:
    """Lowest k eigenvalues of a tridiagonal matrix, lex-ordered.

    Agrees with eig(matrix).eigenvalues[:k].  Shift-invert Arnoldi returns
    the m eigenvalues nearest a real shift sigma placed below every real
    part; they form a disk of radius R about sigma.  Every eigenvalue has
    |Im| <= B, so one outside the disk has real part at least
    sigma + sqrt(R^2 - B^2), the reach.  The window is accepted when the
    k-th value lies below the reach and is not tied with the (k+1)-th;
    otherwise m doubles.  A tie at the cut, an ARPACK failure, or m reaching
    n - 2 hands the matrix to the dense `eig`, whose sort then decides.

    The bounds come from Bendixson's theorem and Gershgorin's discs applied
    to the diagonally similar matrix whose off-diagonal pairs both equal
    sqrt(lower * upper), so the non-symmetric stencils of the mass picture
    do not inflate them.
    """
    n = matrix.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    lower, diag, upper = matrix.lower, matrix.diag, matrix.upper
    root = np.sqrt(lower * upper)
    floor = float(np.min(diag.real - _row_sums(np.abs(root.real))))
    im_bound = float(np.max(np.abs(diag.imag) + _row_sums(np.abs(root.imag))))
    tie = _TIE_RTOL * max(1.0, float(np.max(np.abs(diag) + _row_sums(np.abs(root)))))
    sigma = floor - max(im_bound, tie)
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
            cut, after = vals[k - 1].real, vals[k].real
            if min(reach, after) - cut > tie:
                vals = vals[:k]
                vals.setflags(write=False)
                return vals
            if after < reach:
                break  # a tie at the cut; a larger window cannot decide it
            m *= 2
    return eig(matrix).eigenvalues[:k]


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


def _durand_kerner(coeffs: np.ndarray, tol: float = 1e-12, max_iter: int = 600) -> np.ndarray:
    """All roots of a monic polynomial by simultaneous iteration."""
    n = coeffs.size - 1
    if n == 0:
        return np.empty(0, dtype=complex)
    # Cauchy-type inclusion radius; the offset angle keeps the start
    # configuration away from real-axis symmetries.
    r0 = 1.0 + float(np.max(np.abs(coeffs[1:])))
    z = r0 * np.exp(2j * np.pi * np.arange(n) / n + 0.4j)
    for _ in range(max_iter):
        p = np.polyval(coeffs, z)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        small = np.abs(diff) < 1e-14
        if small.any():
            diff[small] = 1e-12 * (1.0 + 1j)
        denom = diff.prod(axis=1)
        step = p / denom
        z = z - step
        if np.max(np.abs(step)) < tol * max(1.0, float(np.max(np.abs(z)))):
            break
    else:
        raise NoConvergenceError(
            f"root iteration did not settle within {max_iter} sweeps"
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
