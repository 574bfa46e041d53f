"""Full-spectrum and low-window eigenvalue solvers, an independent
small-matrix oracle, and eigenvalue set matching.

`eig` is the one entry point for a whole spectrum, with the package
conventions: eigenvalues in lexicographic order (real part, then imaginary
part), the Frobenius norm of the matrix, and a trace cross-check.  It
computes no eigenvectors.  An OperatorMatrix goes to `eig_tridiagonal`,
which works on its three bands by Ehrlich-Aberth iteration in O(n^2) time
and O(n) memory with numpy alone, from starts at the quantiles of the
bands' local level count; where those sweeps do not converge, `eig` takes
LAPACK's general complex solver on the dense `entries` and records why in
`Spectrum.fallback`.  A plain array goes to LAPACK.  Its row loop
over the ratio continuant makes five ufunc calls a row and adds each
block's terms to p'/p with one sequential sum.  It runs without a
zero-pivot guard: an exact zero pivot always makes p'/p non-finite, and
the roots where p'/p is not finite are redone by the same loop with the
guard on, so every root keeps the bits of a loop guarded on every row.
Its pair sum drops only each root's self term; an exact coincidence of two
roots always makes a row's sum non-finite, and such rows are redone with
every exact zero difference dropped, so every sum keeps the bits of a sum
that drops them all.

One rule keeps sums and products in the float range: `_unit_scaled`
multiplies by the exact power of two that brings the largest real or
imaginary part into [1/2, 1).  The Frobenius norm, the trace error and
`eig_tridiagonal`'s sweeps work at that scale and scale their results back,
which keeps the bits of every result whose sums stay in range.
`eig_lowest` stays at the caller's scale: the LAPACK eigensolve of its
projected matrix is not scale-homogeneous.

`eig_lowest` returns only the lowest few eigenvalues of an OperatorMatrix,
as a set, with a proof that the window it returns is complete, and hands
the matrix to `eig` where it cannot give that proof.  It runs shift-invert
Arnoldi (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998) on the
three bands with numpy alone: one Krylov process per matrix, applying
(A - sigma I)^-1 by substitution written as chunked prefix products.  A
matrix with a zero coupling, or a window that a basis of
max(_KRYLOV_MIN, 2m + _CHECK_EVERY) vectors does not converge, goes to
`eig`, which solves it on its bands in O(n^2).  Every verification check on
an operator goes through it.  A process-wide memo, keyed on the exact bytes
of the three bands, keeps for each of the last _MEMO_SIZE matrices the log
of its process's `nearest(m)` requests: each m asked and the Ritz values
returned, or the NoConvergenceError text that ended it.  It keeps no Krylov
basis.  A repeated matrix is served from its log while its requests follow
it; the first request off or past the log builds a fresh process, replays
the logged prefix on it and goes on, so every window, stopping decision and
hand-off to `eig` has the bits of a call on an empty memo.

`brute_oracle_small` shares no code path with LAPACK: it builds the
characteristic polynomial by the Faddeev-LeVerrier recursion and finds all
roots simultaneously with Durand-Kerner iteration, so that the main solvers
can be checked against something that cannot fail the same way.  Its batch
form `_oracle` moves the roots of matrices of every size in one loop, each
padded to the largest size, with the same sweeps and bits per matrix as a
solve alone.
"""

from __future__ import annotations

import contextlib
import math
import threading
from collections import OrderedDict
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
# _oracle's Durand-Kerner iteration: relative step tolerance and
# sweep limit.
_ORACLE_TOL = 1e-12
_ORACLE_MAX_ITER = 600
# eig_lowest's margin, relative to the Gershgorin bound on ||A||: the shift
# sits at least this far below every real part, and an accepted window's top
# real part this far below the reach, so rounding cannot carry either across.
_MARGIN_RTOL = 1e-10
# eig_tridiagonal: the sweep limit, and the number of entries in one block of
# its start's level count, its pair sum and its d_i - z, so that no n x n
# temporary is held whole (each root's sum, and so every bit, is the same for
# any block); the row loop's block is also capped at n - 1 rows, which keeps
# the buffer of a small matrix small.
_MAX_SWEEPS = 200
_BLOCK = 1 << 14
# eig_tridiagonal's refusal of a band with an inf or nan, which `eig` passes
# on instead of densifying
_NON_FINITE = "a band holds a non-finite entry"
# eig_lowest's shift-invert Arnoldi: entries per chunk of the prefix-product
# substitution, short enough that no chunk's running product of the ratios
# |coupling / pivot| underflows; the least number of Krylov steps between two
# Ritz checks, each a dense eigensolve of the projected matrix; the least
# basis size at which a process that has not converged gives up; and the
# least number of values a process converges.
_CHUNK = 32
_CHECK_EVERY = 8
_KRYLOV_MIN = 64
_MIN_WANTED = 8
_EPS = float(np.finfo(float).eps)
# eig_lowest's memo: band bytes -> log of (m, Ritz values or error text),
# least recently used first; the bound holds a reproduction pass's few dozen
# distinct matrices.
_MEMO_SIZE = 64
_MEMO: OrderedDict[tuple[bytes, bytes, bytes], tuple] = OrderedDict()
_MEMO_LOCK = threading.Lock()


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


def _unit_scaled(*arrays):
    """The float or complex arrays times 2^-e, and e, where 2^(e-1) <= their
    largest real or imaginary part < 2^e; e = 0 where that part is 0 or
    infinite (a nan stays nan at any scale).  The scaling is exact short of
    subnormals, so it commutes with every rounding step, and np.ldexp(x, e)
    brings a result back."""
    views = [np.ascontiguousarray(a).view(float) for a in arrays]
    _, e = math.frexp(max(abs(v).max(initial=0.0) for v in views))
    return [np.ldexp(v, -e).view(a.dtype) for v, a in zip(views, arrays)], e


def _frobenius(values: np.ndarray) -> float:
    """||values||_F, taken at unit scale (see _unit_scaled); inf only where
    the norm itself leaves the float range."""
    (scaled,), e = _unit_scaled(values)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(scaled), e))


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

    def __reduce__(self):
        # unpickled through the constructor, so the eigenvalues stay read-only
        return Spectrum, (self.eigenvalues, self.matrix_norm, self.trace_error, self.fallback)


def eig(matrix) -> Spectrum:
    """Full spectrum with package conventions.

    An OperatorMatrix is solved on its bands by `eig_tridiagonal`.  If that
    raises NoConvergenceError, its dense `entries` go to LAPACK and the
    banded error text is kept in `fallback`; TooLargeError propagates, and
    bands with a non-finite entry raise NoConvergenceError before anything
    dense is built.  A plain array goes to LAPACK.  Raises
    NoConvergenceError if the dense QR iteration gives up.
    """
    if not isinstance(matrix, OperatorMatrix):
        return _dense(matrix)
    try:
        return eig_tridiagonal(matrix)
    except NoConvergenceError as exc:
        if str(exc) == _NON_FINITE:
            raise NoConvergenceError(f"{_NON_FINITE}, so no dense solve is tried") from exc
        return _dense(matrix, str(exc))


def _dense(matrix, fallback: str = "") -> Spectrum:
    """LAPACK's Spectrum of the dense entries, with the given fallback text."""
    a = _entries(matrix)
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"dense eigensolve failed: {exc}") from exc
    return _spectrum(vals, np.diagonal(a), _frobenius(a), fallback)


def _spectrum(vals: np.ndarray, diag: np.ndarray, norm: float, fallback: str = "") -> Spectrum:
    """Eigenvalues in lex order, with their trace error: |sum(vals) - trace|
    relative to max(1, |trace|, sum |vals|), the trace being sum(diag).  It
    is taken at unit scale (see _unit_scaled), the floor of 1 scaled with
    the sums, so that every error of sums in the float range keeps its bits."""
    vals = vals[_lex_order(vals)]
    (scaled, diag), e = _unit_scaled(vals, diag)
    trace = complex(np.sum(diag))
    with np.errstate(over="ignore", invalid="ignore"):
        floor = float(np.ldexp(1.0, -e))
        error = abs(scaled.sum() - trace) / max(floor, abs(trace), float(np.sum(np.abs(scaled))))
    return Spectrum(eigenvalues=vals, matrix_norm=norm, trace_error=error, fallback=fallback)


def _row_sums(couplings: np.ndarray) -> np.ndarray:
    """Per-row sum of the two off-diagonal magnitudes of a tridiagonal."""
    out = np.zeros(couplings.size + 1)
    out[:-1] += couplings
    out[1:] += couplings
    return out


def _bounds(matrix: OperatorMatrix):
    """sqrt(lower * upper) and the bounds lo <= Re <= hi, |Im| <= B it gives
    on every eigenvalue (see eig_lowest); NoConvergenceError where one is not finite."""
    diag = matrix.diag
    with np.errstate(over="ignore", invalid="ignore"):
        root = np.sqrt(matrix.lower * matrix.upper)
        rows = _row_sums(np.abs(root.real))
        height = float(np.max(np.abs(diag.imag) + _row_sums(np.abs(root.imag))))
        lo, hi = float(np.min(diag.real - rows)), float(np.max(diag.real + rows))
    if not all(map(math.isfinite, (lo, hi, height))):
        raise NoConvergenceError("the eigenvalue bounds of the bands are not finite floats")
    return root, lo, hi, height


def eig_lowest(matrix: OperatorMatrix, k: int, past=None) -> np.ndarray:
    """Lowest k eigenvalues of a tridiagonal matrix, as a set, lex-ordered.

    Agrees with eig(matrix).eigenvalues[:k] as a set; where two levels tie
    in real part at the cut, either one completes the set.  Shift-invert
    Arnoldi returns the m eigenvalues nearest a real shift sigma placed
    below every real part; they form a disk of radius R about sigma.  Every
    eigenvalue has |Im| <= B, so one outside the disk has real part at least
    sigma + sqrt(R^2 - B^2), the reach.  The window is accepted when its
    k-th value lies below the reach; otherwise m doubles.  m starts at
    k + 1, raised to _MIN_WANTED, so that windows of fewer levels of one
    matrix come from the same Ritz values, bit for bit.

    Given a stopping rule `past` (window -> real), k is clamped to n and
    doubles, at most to n, until the window's top real part exceeds
    past(window); m stays at least k + 1 and the same Arnoldi process grows
    on, so the matrix is factored once however far the window reaches.

    One Arnoldi process (see _ShiftInvertArnoldi), from one seeded start
    vector, runs on the diagonally similar complex-symmetric S with
    off-diagonals s = lower * sqrt(upper / lower) (principal root; s = lower
    where lower == upper).  Bendixson's and Gershgorin's bounds on S do not
    grow with the non-symmetric stencils of the mass picture, and make
    S - sigma I diagonally dominant with a positive definite real part: no
    pivot r vanishes, and every substitution ratio |s / r| is below 1.  The
    matrix must be unreduced (lower * upper != 0 throughout): then every
    eigenvalue has one eigenvector, so a Krylov space, which sees each
    eigenvalue once, misses no copy of it.  Whatever the process cannot
    prove goes to `eig` (on its bands, densifying only where those sweeps
    fail), and the stopping rule then picks from that spectrum: a reducible
    matrix, bounds that are not finite, a substitution that leaves the
    float range, a breakdown, a basis at its limit (see
    _ShiftInvertArnoldi.nearest), or m reaching n - 2.
    The process's answers on a matrix seen before come from the memo (see
    the module docstring), with the same bits.
    """
    n = matrix.n
    k = k if past is None else min(k, n)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    m = k + 1
    # a step the process cannot prove raises NoConvergenceError: on to eig
    with (np.errstate(divide="ignore", over="ignore", invalid="ignore"),
          contextlib.suppress(NoConvergenceError)):
        lower, diag, upper = matrix.lower, matrix.diag, matrix.upper
        if m < n - 2 and np.all(lower * upper != 0):
            root, floor, _, im_bound = _bounds(matrix)
            margin = _MARGIN_RTOL * max(1.0, float(np.max(np.abs(diag) + _row_sums(np.abs(root)))))
            sigma = floor - max(im_bound, margin)

            def build():
                start = np.random.default_rng(0).standard_normal(n).astype(complex)
                coupling = np.where(lower == upper, lower, lower * np.sqrt(upper / lower))
                return _ShiftInvertArnoldi(coupling, diag, sigma, start)

            process = _Replay(matrix, build)
            while m < n - 2:
                m = max(m, _MIN_WANTED)
                vals = process.nearest(m)
                radius = float(np.max(np.abs(vals - sigma)))
                reach = sigma + math.sqrt(max(radius**2 - im_bound**2, 0.0))
                vals = vals[_lex_order(vals)]
                if not reach - vals[k - 1].real > margin:
                    m *= 2
                elif past is None or vals[k - 1].real > past(vals[:k]):
                    vals = vals[:k]
                    vals.setflags(write=False)
                    return vals
                else:
                    k = min(2 * k, n)
                    m = max(m, k + 1)
    full = eig(matrix).eigenvalues
    while past is not None and k < n and not full[k - 1].real > past(full[:k]):
        k = min(2 * k, n)
    return full[:k]


class _Replay:
    """`nearest` of one matrix's Arnoldi process, served from the memo's log
    while the requests follow it.  The first request off the log or past its
    end builds the process and replays this call's requests before it, which
    brings the process to the state it had there; from then on each answer,
    or the text of the NoConvergenceError that ends the process (building it
    included), is logged after them, and the memo's log is replaced by this
    one.  Logs are tuples, never changed once stored, and the memo is read
    and written under a lock."""

    def __init__(self, matrix: OperatorMatrix, build):
        self.key = (matrix.lower.tobytes(), matrix.diag.tobytes(), matrix.upper.tobytes())
        self.build = build
        with _MEMO_LOCK:
            self.logged = _MEMO.get(self.key, ())
            if self.logged:
                _MEMO.move_to_end(self.key)
        self.log: list = []
        self.process = None

    def nearest(self, m: int) -> np.ndarray:
        i = len(self.log)
        if self.process is None and i < len(self.logged) and self.logged[i][0] == m:
            answer = self.logged[i][1]
            self.log.append((m, answer))
        else:
            try:
                if self.process is None:
                    self.process = self.build()
                    for asked, _ in self.log:
                        self.process.nearest(asked)
                answer = self.process.nearest(m)
                answer.setflags(write=False)
            except NoConvergenceError as exc:
                answer = str(exc)
            self.log.append((m, answer))
            with _MEMO_LOCK:
                _MEMO[self.key] = tuple(self.log)
                _MEMO.move_to_end(self.key)
                if len(_MEMO) > _MEMO_SIZE:
                    _MEMO.popitem(last=False)
        if isinstance(answer, str):
            raise NoConvergenceError(answer)
        return answer


class _Recurrence:
    """y_i = a_i y_{i-1} + b_i from y_{-1} = 0, for fixed a and any b.

    Chunked prefix products: within each chunk of _CHUNK entries,
    y = P (c + cumsum(b / P)), where P is the running product of a from the
    chunk's start and c the last y of the chunk before.  The carries c obey
    the same recurrence over the chunks, c_{j+1} = E_j (c_j + s_j), with E_j
    the whole product of chunk j and s_j its last cumulative sum; they are
    one product with the lower triangular matrix of partial products of E.
    P and that matrix depend on a alone and are formed once.  Raises
    NoConvergenceError where any of them leaves the float range.
    """

    def __init__(self, a: np.ndarray):
        self.n = a.size
        padded = np.ones(-(-self.n // _CHUNK) * _CHUNK, dtype=complex)
        padded[:self.n] = a
        self.prod = np.cumprod(padded.reshape(-1, _CHUNK), axis=1)
        self.inv = 1.0 / self.prod
        chunks = self.prod.shape[0]
        self.carry = np.zeros((chunks, chunks), dtype=complex)
        for j in range(chunks - 1):
            self.carry[j + 1:, j] = np.cumprod(self.prod[j:-1, -1])
        if not all(np.isfinite(x).all() for x in (self.prod, self.inv, self.carry)):
            raise NoConvergenceError("a substitution chunk left the float range")
        self.buffer = np.zeros(self.prod.shape, dtype=complex)

    def __call__(self, b: np.ndarray) -> np.ndarray:
        self.buffer.ravel()[:self.n] = b
        sums = np.cumsum(self.buffer * self.inv, axis=1)
        sums += (self.carry @ sums[:, -1])[:, None]
        sums *= self.prod
        return sums.ravel()[:self.n]


class _ShiftInvertArnoldi:
    """Arnoldi on (S - sigma I)^-1 for an unreduced S (see eig_lowest).

    S - sigma I = LU without pivoting, with pivots
    r_i = (d_i - sigma) - s_{i-1}^2 / r_{i-1}; the forward recurrence
    y_i = b_i - (s_{i-1} / r_{i-1}) y_{i-1} and the back recurrence
    x_i = y_i / r_i - (s_i / r_i) x_{i+1}, run on reversed arrays, share
    one ratio array and apply the inverse.  The Krylov basis is
    orthogonalized twice by classical Gram-Schmidt and kept across calls to
    `nearest`, so it grows across doublings of m, up to
    max(_KRYLOV_MIN, 2m + _CHECK_EVERY) vectors: a window that has not
    converged there ends the process, and eig_lowest hands the matrix to
    `eig`, whose banded solve costs O(n^2) at any window width.
    """

    def __init__(self, coupling, diag, sigma: float, start: np.ndarray):
        self.size = diag.size
        shifted = (diag - sigma).tolist()
        pivots = [shifted[0]]
        for d, c in zip(shifted[1:], (coupling * coupling).tolist()):
            pivots.append(d - c / pivots[-1])
        self.pivots = np.array(pivots)
        ratios = -coupling / self.pivots[:-1]
        self.forward = _Recurrence(np.r_[1.0, ratios])
        self.back = _Recurrence(np.r_[1.0, ratios[::-1]])
        self.sigma = sigma
        self.basis = np.empty((min(self.size, 2 * _CHECK_EVERY) + 1, self.size), dtype=complex)
        self.basis[0] = start / np.linalg.norm(start)
        self.projected = np.zeros((self.basis.shape[0], self.basis.shape[0] - 1), dtype=complex)
        self.dim = 0
        self.next_check = 0
        # the last Ritz check's (theta, vectors), until the next step
        self.ritz = None

    def _apply(self, v: np.ndarray) -> np.ndarray:
        return self.back((self.forward(v) / self.pivots)[::-1])[::-1]

    def _step(self) -> None:
        self.ritz = None
        j = self.dim
        if j + 1 == self.basis.shape[0]:
            rows = min(self.size, 2 * j) + 1
            basis = np.empty((rows, self.size), dtype=complex)
            basis[:j + 1] = self.basis
            projected = np.zeros((rows, rows - 1), dtype=complex)
            projected[:j + 1, :j] = self.projected
            self.basis, self.projected = basis, projected
        v = self.basis[:j + 1]
        w = self._apply(self.basis[j])
        h = (v @ w.conj()).conj()
        w -= h @ v
        again = (v @ w.conj()).conj()
        w -= again @ v
        h += again
        beta = float(np.linalg.norm(w))
        self.projected[:j + 1, j] = h
        self.projected[j + 1, j] = beta
        self.dim = j + 1
        if not math.isfinite(beta):
            raise NoConvergenceError("the substitution left the float range")
        if self.dim < self.size:
            if not beta > _EPS * float(np.linalg.norm(h)):
                raise NoConvergenceError(f"the Krylov space broke down at dimension {self.dim}")
            self.basis[j + 1] = w / beta

    def nearest(self, m: int) -> np.ndarray:
        """The m eigenvalues nearest sigma, once every Ritz value among them
        has a residual estimate of at most eps |theta|.

        A Ritz check is a dense eigensolve of the projected matrix, so it
        runs only from m + 2 _CHECK_EVERY vectors on, and then where the
        residual decay between the last two checks predicts convergence; a
        check on a basis unchanged since the last one, in a call that
        follows another, reuses that eigensolve.  A check that fails at
        max(_KRYLOV_MIN, 2m + _CHECK_EVERY) vectors raises NoConvergenceError.
        """
        limit = max(_KRYLOV_MIN, 2 * m + _CHECK_EVERY)
        last = None  # (dimension, worst residual in units of eps |theta|)
        while True:
            full = self.dim == self.size
            if full or self.dim >= min(max(m + 2 * _CHECK_EVERY, self.next_check), limit):
                if self.ritz is None:
                    self.ritz = np.linalg.eig(self.projected[:self.dim, :self.dim])
                theta, vectors = self.ritz
                top = np.argsort(-np.abs(theta), kind="stable")[:m]
                residual = np.abs(self.projected[self.dim, :self.dim] @ vectors[:, top])
                worst = float(np.max(residual / (_EPS * np.abs(theta[top]))))
                if full or worst <= 1.0:
                    return self.sigma + 1.0 / theta[top]
                if self.dim >= limit:
                    raise NoConvergenceError(
                        f"{m} Ritz values not converged at the limit of {limit} Krylov vectors")
                # The next check comes where the decay since the last one
                # reaches eps, but no more than a quarter further out.
                ahead = max(_CHECK_EVERY, self.dim // 4)
                if last is not None and worst < last[1]:
                    rate = math.log(last[1] / worst) / (self.dim - last[0])
                    ahead = min(ahead, max(2, math.ceil(math.log(worst) / rate)))
                last = (self.dim, worst)
                self.next_check = self.dim + ahead
            self._step()


def eig_tridiagonal(matrix: OperatorMatrix) -> Spectrum:
    """Full spectrum of a tridiagonal matrix from its bands, in O(n^2).

    The banded path of `eig`, which adds the dense fallback; called alone
    it is the raw solver that the solver validation checks.  Same
    conventions as `eig`.  Ehrlich-Aberth iteration on det(A - zI)
    (Bini, Gemignani & Tisseur, SIAM J. Matrix Anal. Appl. 27 (2005)
    153-175), with p'/p from the ratio continuant
    r_i = (d_i - z) - l_{i-1} u_{i-1} / r_{i-1}, started at the quantiles of
    the bands' local level count (see _dos_start).  A root freezes once its
    step is at most 4 eps max(|z|, 1e-3 ||A||_F), or stops shrinking at most
    max(1e-8 |z|, 8 eps ||A||_F), the continuant's rounding level near 0.
    The sweeps run on the bands at unit scale (see _unit_scaled), where no
    norm, bound or product l_i u_i leaves the float range, and every step
    is scale-homogeneous: the roots and the norm are scaled back by the same
    exact power of two, so eig_tridiagonal(A 2^j) is 2^j eig_tridiagonal(A)
    bit for bit, short of subnormals and overflow.  Raises TooLargeError for
    n > MAX_DENSE_NODES, NoConvergenceError on a non-finite band entry or
    when roots still move at the _MAX_SWEEPS limit.
    """
    n = matrix.n
    if n > MAX_DENSE_NODES:
        raise TooLargeError(f"full spectra are limited to {MAX_DENSE_NODES} nodes, got {n}")
    (lower, diag, upper), scale = _unit_scaled(matrix.lower, matrix.diag, matrix.upper)
    # at unit scale the sum of squares cannot overflow: only inf or nan make it non-finite
    norm = float(np.linalg.norm(np.concatenate((lower, diag, upper))))
    if not math.isfinite(norm):
        raise NoConvergenceError(_NON_FINITE)
    if norm == 0.0:
        return Spectrum(np.zeros(n, dtype=complex))
    floor = 1e-3 * norm
    z = _dos_start(diag, *_bounds(OperatorMatrix(lower, diag, upper))[:3], floor / n)
    eps = np.finfo(float).eps
    pivot = eps * norm  # stands in for an r_i that is exactly zero
    d0, rest = complex(diag[0]), diag[1:]
    # 0-d arrays, which the ufuncs take faster than Python numbers
    couplings = [np.array(c) for c in (lower * upper).astype(complex)]
    active = np.arange(n)
    last = np.full(n, np.inf)
    for _ in range(_MAX_SWEEPS):
        za = z[active]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            dlogp = _log_derivative(za, d0, rest, couplings)
            redo = ~np.isfinite(dlogp)
            if redo.any():
                # an exact zero pivot always makes p'/p non-finite, and the
                # guard changes no root whose p'/p came out finite
                dlogp[redo] = _log_derivative(za[redo], d0, rest, couplings, pivot)
            pair = _pair_sums(za, z, active)
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
            with np.errstate(over="ignore"):
                z, norm = np.ldexp(z.view(float), scale).view(complex), float(np.ldexp(norm, scale))
            return _spectrum(z, matrix.diag, norm)
    raise NoConvergenceError(
        f"{active.size} of {n} roots still moving at the limit of {_MAX_SWEEPS} Aberth sweeps"
    )


def _dos_start(diag, root, lo, hi, spacing) -> np.ndarray:
    """Aberth's starts matched to the roots (after Bini & Fiorentino, Numer.
    Algorithms 23 (2000) 127-173): root k where the level count N(E) =
    sum_i arccos(clip((Re d_i - E) / R_i, -1, 1)) / pi, R the row sums of
    |root|, reaches k + 1/2; a row with R_i = 0 steps at Re d_i.  N is taken
    in blocks of _BLOCK entries on n energies crowded to lo and hi.  Offsets
    i 0.3 s_k (-1)^k (1 + k/n), s_k the local spacing floored at `spacing`,
    keep every start distinct and break the mirror symmetry of the bands."""
    n = diag.size
    radius = _row_sums(np.abs(root))
    energies = lo + (hi - lo) * np.sin(0.5 * np.pi * np.linspace(0.0, 1.0, n)) ** 2
    counts = np.searchsorted(np.sort(diag.real[radius == 0]), energies).astype(float)
    centre, radius = diag.real[radius > 0], radius[radius > 0]
    rows = max(1, _BLOCK // n)
    for i in range(0, n, rows):
        x = centre - energies[i:i + rows, None]
        np.clip(np.divide(x, radius, out=x), -1.0, 1.0, out=x)
        counts[i:i + rows] += np.arccos(x, out=x).sum(axis=1) / np.pi
    k = np.arange(n)
    start = np.interp(k + 0.5, counts, energies)
    gaps = np.diff(start)
    local = np.maximum(np.maximum(np.r_[gaps, 0.0], np.r_[0.0, gaps]), spacing)
    return start + 0.3j * local * (-1.0) ** k * (1.0 + k / n)


def _pair_sums(za, z, active) -> np.ndarray:
    """The sums over j of 1 / (za_i - z_j) without the self term j =
    active[i], where za = z[active]: a term whose difference is exactly
    zero, the self term's or that of a root that coincides exactly, counts
    as 1 / inf = 0.  Only the self term is dropped up front; a term 1/0 of
    an exact coincidence makes its row's sum non-finite, and the self term
    of a root that is not finite is nan, so those rows alone are redone with
    every exact zero dropped."""
    pair = _blocked_sums(za, z, active)
    redo = ~(np.isfinite(pair) & np.isfinite(za))
    if redo.any():
        pair[redo] = _blocked_sums(za[redo], z)
    return pair


def _blocked_sums(za, z, active=None) -> np.ndarray:
    """The sums over j of 1 / (za_i - z_j), taken in blocks of rows, with
    the difference at z[active[i]] where active is given, and otherwise
    every difference that is exactly zero, set to inf.  Each row's sum, and
    so every bit, is the same for any block."""
    pair = np.empty_like(za)
    block = max(1, _BLOCK // z.size)
    for i in range(0, za.size, block):
        diff = za[i:i + block, None] - z
        if active is None:
            diff[diff == 0] = np.inf
        else:
            diff[np.arange(len(diff)), active[i:i + block]] = np.inf
        pair[i:i + block] = np.divide(1.0, diff, out=diff).sum(axis=1)
    return pair


def _log_derivative(za, d0, rest, couplings, pivot=None) -> np.ndarray:
    """p'/p of det(A - zI) at za by the ratio continuant, from d_0, the array
    of d_1 ... d_{n-1} and the list of c_i = l_i u_i as 0-d arrays.  A given
    pivot stands in for an r_i that is exactly zero."""
    divide, subtract, multiply = np.divide, np.subtract, np.multiply
    r = d0 - za
    if pivot is not None:
        np.copyto(r, pivot, where=r == 0)
    # Row 0 of the buffer holds the running dlogp, and the rows below it a
    # block of rows' d_i - z, taken in one call; each row's g overwrites its
    # d_i - z once that is consumed, and one sum down the block adds the g's
    # to dlogp in row order, as adding them row by row would.  The buffer
    # holds at most n rows.
    rows = max(1, min(_BLOCK // za.size, len(rest)))
    buffer = np.empty((rows + 1, za.size), dtype=complex)
    g = -1.0 / r
    buffer[0] = g
    t, u, last, one = np.empty_like(za), np.empty_like(za), np.empty_like(za), np.array(1.0 + 0j)
    for i in range(0, len(rest), rows):
        block = buffer[:min(rows, len(rest) - i) + 1]
        np.subtract.outer(rest[i:i + rows], za, out=block[1:])
        # every ufunc below writes into a buffer given positionally, which
        # numpy parses faster than out=
        for dz, c in zip(block[1:], couplings[i:i + rows]):
            divide(c, r, t)
            subtract(dz, t, r)
            if pivot is not None:
                np.copyto(r, pivot, where=r == 0)
            # into u, not in place: numpy's in-place complex multiply of a
            # single entry rounds differently
            multiply(t, g, u)
            subtract(u, one, u)
            divide(u, r, dz)
            g = dz
        # the block's last g starts the next block, whose d_i - z overwrite it
        np.copyto(last, g)
        g = last
        # A sum down the rows of several columns adds one row at a time, from
        # the initial value: -0, which keeps every bit of the first row, where
        # numpy's default +0 turns a -0 into +0.  That of one column is
        # pairwise; accumulate is sequential at every width, and slower at many.
        if za.size > 1:
            buffer[0] = np.add.reduce(block, axis=0, initial=complex(-0.0, -0.0))
        else:
            buffer[0] = np.add.accumulate(block, axis=0)[-1]
    return buffer[0].copy()


def _oracle(matrices) -> list[np.ndarray]:
    """Eigenvalues of small matrices without LAPACK, each lex-ordered.

    Faddeev-LeVerrier (M_1 = A, c_k = -tr(M_k)/k, M_{k+1} = A (M_k + c_k I)),
    one stacked chain per size, gives the characteristic polynomials, and
    one Durand-Kerner loop, with Horner from zero, moves the roots of every
    size at once.  Each member is padded to the largest size: its
    coefficient row is left-padded with zeros, which keep Horner at zero
    until the leading 1, and its padded roots sit at 0 with step 0 and a
    Weierstrass factor of exactly 1, multiplied after its real factors.  A
    matrix leaves the batch when its own step test passes, so it runs the
    sweeps, and gives the bits, that it would alone.
    """
    sizes = [m.n if isinstance(m, OperatorMatrix) else _entries(m).shape[0] for m in matrices]
    for n in sizes:
        if n > _ORACLE_MAX_SIZE:
            raise TooLargeError(f"oracle accepts matrices up to size {_ORACLE_MAX_SIZE}, got {n}")
    width = max(sizes, default=0)
    if not width:
        return [np.empty(0, dtype=complex) for _ in sizes]
    degrees = np.array(sizes)
    coeffs = np.zeros((len(sizes), width + 1), dtype=complex)
    z = np.zeros((len(sizes), width), dtype=complex)
    for n in set(sizes) - {0}:
        where = np.flatnonzero(degrees == n)
        a = np.stack([_entries(matrices[i]) for i in where])
        chain = np.ones((len(where), n + 1), dtype=complex)
        m = a
        for k in range(1, n + 1):
            chain[:, k] = c = -np.trace(m, axis1=1, axis2=2) / k
            if k < n:
                m = a @ (m + c[:, None, None] * np.eye(n))
        coeffs[where, width - n:] = chain
        # Cauchy-type inclusion radius; the offset angle keeps the start
        # configuration away from real-axis symmetries.
        r0 = 1.0 + np.abs(chain[:, 1:]).max(axis=1)
        z[where, :n] = r0[:, None] * np.exp(2j * np.pi * np.arange(n) / n + 0.4j)
    real = np.arange(width) < degrees[:, None]
    # Weierstrass factors set to exactly 1 over the coincidence guard: the
    # diagonal's, and in every row each padded root's, after the real ones.
    unit = np.eye(width, dtype=bool) | ~real[:, None, :]
    # a matrix of size 0 has no root to move
    active = np.flatnonzero(degrees)
    for _ in range(_ORACLE_MAX_ITER):
        za = z[active]
        p = np.zeros_like(za)
        for c in coeffs[active].T[:, :, None]:
            np.multiply(p, za, out=p)
            np.add(p, c, out=p)
        diff = za[:, :, None] - za[:, None, :]
        diff[np.abs(diff) < 1e-14] = 1e-12 * (1.0 + 1j)
        diff[unit[active]] = 1.0
        step = np.divide(p, diff.prod(axis=2), out=np.zeros_like(p), where=real[active])
        z[active] = za = za - step
        done = np.abs(step).max(1) < _ORACLE_TOL * np.maximum(1.0, np.abs(za).max(1))
        active = active[~done]
        if not active.size:
            break
    else:
        raise NoConvergenceError(
            f"root iteration did not settle within {_ORACLE_MAX_ITER} sweeps")
    return [roots[_lex_order(roots[:n])] for roots, n in zip(z, degrees)]


def brute_oracle_small(matrix) -> np.ndarray:
    """Eigenvalues of a small matrix without LAPACK, lex-ordered: the batch
    of one of `_oracle`, an independent route for cross-checking `eig`.
    Sizes above 8 are refused (TooLargeError), an OperatorMatrix before it
    is densified; the coefficient route's conditioning degrades quickly, and
    the point is verification, not production solving.
    """
    return _oracle([matrix])[0]


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
