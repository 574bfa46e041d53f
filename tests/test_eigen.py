"""Eigensolver conventions, the low-window and full tridiagonal solvers, the
small-matrix oracle, and eigenvalue set matching."""

import functools
import math
import pickle
import sys
import threading
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdm_spectra import (
    MAX_DENSE_NODES,
    ConstantMass,
    ModelSpec,
    Morse,
    NoConvergenceError,
    OperatorMatrix,
    SamsonovRoy,
    ScarfII,
    TooLargeError,
    brute_oracle_small,
    build_reference_matrix,
    delta_of,
    eig,
    eig_lowest,
    eigensolver_validation,
    isospectral_sweep,
    match_eigenvalue_sets,
    ordering_preset,
    picture_matrix,
    uniform_grid,
)
from pdm_spectra import eigen, verify
from pdm_spectra.config import build_spec, config_from_dict

BDD = ordering_preset("BenDanielDuke")
ZK = ordering_preset("ZhuKroemer")
GW = ordering_preset("GoraWilliams")
SR_ISO_INTERVAL = (0.15, 2.0 * np.pi - 0.15)
# a deep, wide well, where an unchunked substitution's running product
# underflows at n = 1200
DEEP_WELL = ModelSpec.from_ordering(ScarfII(20.0), ZK, q_interval=(-20.0, 20.0))
SAMSONOV_ROY = build_spec(config_from_dict({"generator": {"kind": "samsonov_roy"}}))


def _acceptance_specs():
    """The model specs of acceptance criteria 2-5 and 8, by label."""
    specs = {
        "c2:sech": ModelSpec.from_ordering(ScarfII(2.5), ZK, q_interval=(-12.0, 12.0)),
        "c3:trig": ModelSpec.from_ordering(SamsonovRoy(), ZK, q_interval=(-np.pi, np.pi), c2=2.0),
        "c5:log": ModelSpec.from_ordering(ScarfII(2.0), ZK, q_interval=(-2.0, 2.0)),
        "c5:power": ModelSpec.from_ordering(ScarfII(2.0), GW, q_interval=(0.5, 4.0)),
        "c8:shifted": ModelSpec.from_ordering(ScarfII(2.5), ZK, q_interval=(-4.0, 4.0),
                                              c1=2.0, c2=3.0),
    }
    for name in ("ZhuKroemer", "MustafaMazharimousavi", "GoraWilliams", "LiKuhn"):
        ordering = ordering_preset(name)
        wide = delta_of(ordering) == 0
        specs[f"c4:{name}:sech"] = ModelSpec.from_ordering(
            ScarfII(2.5), ordering, q_interval=(-8.0, 8.0) if wide else (0.5, 8.0))
        specs[f"c4:{name}:trig"] = ModelSpec.from_ordering(
            SamsonovRoy(), ordering, q_interval=SR_ISO_INTERVAL, c2=2.0)
    return specs


ACCEPTANCE_SPECS = _acceptance_specs()


def _picture_matrix(spec, picture, n):
    return picture_matrix(spec, picture, n)[1]


@functools.cache
def _dense(label, picture, n):
    """LAPACK spectrum of an acceptance spec, shared by the tests of both
    tridiagonal solvers."""
    return eig(_picture_matrix(ACCEPTANCE_SPECS[label], picture, n).entries)


def _window_gap(matrix, k, dense=None):
    """Worst matched distance between eig_lowest and the LAPACK lowest k."""
    if dense is None:
        dense = eig(matrix.entries).eigenvalues
    low = eig_lowest(matrix, k)
    assert low.shape == (k,)
    return float(match_eigenvalue_sets(dense[:k], low)[1].max())


def test_eig_known_2x2():
    # [[0, 1], [-2, 0]] has eigenvalues +-i sqrt(2); their lex order is
    # noise-determined (real parts agree to eps), so sort by imaginary part
    vals = eig(np.array([[0.0, 1.0], [-2.0, 0.0]])).eigenvalues
    vals = vals[np.argsort(vals.imag)]
    np.testing.assert_allclose(vals, [-1j * np.sqrt(2), 1j * np.sqrt(2)], atol=1e-14)


def test_eig_known_triangular():
    vals = eig(np.array([[1.0, 5.0], [0.0, 2.0]])).eigenvalues
    np.testing.assert_allclose(vals, [1.0, 2.0], atol=1e-14)


def test_eig_lexicographic_order():
    m = np.diag([1.0 + 1.0j, -1.0 + 0.0j, 1.0 - 1.0j])
    vals = eig(m).eigenvalues
    np.testing.assert_allclose(vals, [-1.0, 1.0 - 1.0j, 1.0 + 1.0j], atol=0)


def test_eig_accepts_operator_matrix_and_array(monkeypatch):
    # An OperatorMatrix is solved on its bands, Morse's too, and never
    # densified; it agrees with LAPACK on the dense array as matched sets.
    morse = ModelSpec.from_ordering(Morse(), ZK, q_interval=(-8.0, 8.0))
    matrices = [_picture_matrix(spec, picture, 40)
                for spec in (ACCEPTANCE_SPECS["c2:sech"], ACCEPTANCE_SPECS["c3:trig"],
                             ACCEPTANCE_SPECS["c5:power"], morse)
                for picture in ("reference", "target")]
    dense = [eig(matrix.entries) for matrix in matrices]

    def refuse(matrix):
        raise AssertionError(f"densified a {matrix.n}-node operator")

    monkeypatch.setattr(OperatorMatrix, "entries", property(refuse))
    for matrix, reference in zip(matrices, dense):
        banded = eig(matrix)
        _, gaps = match_eigenvalue_sets(reference.eigenvalues, banded.eigenvalues)
        assert gaps.max() <= 1e-10 * reference.matrix_norm
        assert banded.matrix_norm == pytest.approx(reference.matrix_norm, rel=1e-14)


def test_eig_raises_on_a_defective_tridiagonal_that_the_dense_route_answers():
    # A nilpotent 3 x 3 Jordan block with every coupling nonzero: its three
    # roots only settle to about eps^(1/3), so the sweeps stall, and eig on
    # the bands raises; eig on the dense entries is the explicit LAPACK
    # route, and answers.
    matrix = _tridiagonal([0.0, 0.0, 0.0], [1.0, 0.5], [1.0, -2.0])
    with pytest.raises(NoConvergenceError, match="Aberth sweeps"):
        eig(matrix)
    dense = eig(matrix.entries).eigenvalues
    assert dense.shape == (3,) and np.abs(dense).max() <= 1e-4
    # Here p'/p - pair comes out nan for one root: its step is nan, and eig
    # refuses it with the same error, not a RuntimeWarning from the divide
    # (the suite makes one an error).
    matrix = _tridiagonal([0.95313852 - 5.1926e-320j, 0.0], [1.01114745e-75 - 4.28121879e-76j],
                          [0.0])
    with pytest.raises(NoConvergenceError, match="Aberth sweeps"):
        eig(matrix)
    dense = np.sort_complex(eig(matrix.entries).eigenvalues)
    np.testing.assert_array_equal(dense.real, [0.0, 0.95313852])


def test_a_norm_whose_sum_of_squares_overflows_is_rescaled():
    # Finite bands whose plain sum of squares overflows, as in a deep Scarf
    # II well: no warning (the suite makes one an error), and a finite norm
    # on both paths of eig.
    matrix = OperatorMatrix(np.ones(3), 1e200 * np.arange(1.0, 5.0), -np.ones(3))
    banded, dense = eig(matrix), eig(matrix.entries)
    for spectrum in (banded, dense):
        assert spectrum.matrix_norm == pytest.approx(1e200 * np.sqrt(30.0), rel=1e-15)
        np.testing.assert_allclose(spectrum.eigenvalues, 1e200 * np.arange(1.0, 5.0), rtol=1e-15)
    # any other norm keeps numpy's bits, a non-finite entry included
    rng = np.random.default_rng(3)
    for values in (rng.standard_normal(9) + 1j * rng.standard_normal(9),
                   np.array([1e150, 1e154]), np.array([np.inf, 1.0]), np.array([np.nan, 1e200])):
        with np.errstate(over="ignore"):
            plain = float(np.linalg.norm(values))
        assert eigen._frobenius(values) == plain or np.isnan(plain)
    assert np.isnan(eigen._frobenius(np.array([np.nan, 1e200])))


def test_a_trace_error_whose_sums_overflow_is_rescaled():
    # The trace and sum |lambda| of this diagonal overflow; the error is
    # taken at unit scale, with no warning (the suite makes one an error).
    spectrum = eig(np.diag([1.5e308, 1.5e308, -1e308]))
    assert spectrum.matrix_norm == np.inf
    assert spectrum.trace_error == 0.0
    # any finite error keeps the bits of the plain formula
    rng = np.random.default_rng(5)
    for m in (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)),
              1e150 * rng.standard_normal((5, 5)),
              OperatorMatrix(np.ones(7), np.arange(8.0), 2j * np.ones(7))):
        spectrum = eig(m)
        vals = spectrum.eigenvalues
        trace = complex(np.trace(eigen._entries(m)))
        scale = max(1.0, abs(trace), float(np.sum(np.abs(vals))))
        assert spectrum.trace_error == abs(vals.sum() - trace) / scale


def test_eig_rejects_nonsquare():
    with pytest.raises(ValueError):
        eig(np.zeros((2, 3)))


def test_eig_residuals_and_unit_vectors():
    # eig returns eigenvalues only; the trace identity is what is left to check
    spec = ModelSpec(ScarfII(2.0), BDD, ConstantMass(), q_interval=(-4.0, 4.0))
    spectrum = eig(build_reference_matrix(spec, uniform_grid(-4.0, 4.0, 120)))
    assert spectrum.trace_error <= 1e-13


def test_eig_deterministic_bitwise():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    assert np.array_equal(eig(m).eigenvalues, eig(m).eigenvalues)


def test_a_pickled_spectrum_keeps_its_bits_and_read_only_eigenvalues():
    # solve --picture both sends the target picture's Spectrum through a pipe
    spectrum = eig(_picture_matrix(ACCEPTANCE_SPECS["c2:sech"], "target", 60))
    again = pickle.loads(pickle.dumps(spectrum))
    assert again.eigenvalues.tobytes() == spectrum.eigenvalues.tobytes()
    assert not again.eigenvalues.flags.writeable
    assert (again.matrix_norm, again.trace_error) == (spectrum.matrix_norm, spectrum.trace_error)


def test_eig_propagates_failure():
    with pytest.raises(NoConvergenceError):
        eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_oracle_companion_matrix():
    # companion of (z-1)(z-2)(z-3) = z^3 - 6z^2 + 11z - 6
    m = np.array([[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(brute_oracle_small([m])[0], [1.0, 2.0, 3.0], atol=1e-10)


def test_oracle_agrees_with_solver():
    rng = np.random.default_rng(11)
    for size in (2, 4, 8):
        m = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        _, gaps = match_eigenvalue_sets(brute_oracle_small([m])[0], eig(m).eigenvalues)
        assert gaps.max() <= 1e-9


def test_oracle_defective_matrix():
    # double eigenvalue of a Jordan block: root finding stalls near sqrt(eps)
    roots = brute_oracle_small([np.array([[1.0, 1.0], [0.0, 1.0]])])[0]
    np.testing.assert_allclose(roots, [1.0, 1.0], atol=1e-6)


def test_oracle_size_cap():
    with pytest.raises(TooLargeError):
        brute_oracle_small([np.eye(9)])


def test_oracle_of_an_empty_matrix_is_empty():
    assert brute_oracle_small([np.empty((0, 0))])[0].shape == (0,)
    batch = brute_oracle_small([np.diag([3.0, 1.0]), np.empty((0, 0)), 2.0 * np.eye(1)])
    assert [roots.size for roots in batch] == [2, 0, 1]
    np.testing.assert_allclose(np.concatenate(batch), [1.0, 3.0, 2.0], atol=1e-12)


def test_oracle_names_the_sweep_limit_on_a_defective_triple_root():
    # A defective triple root keeps its iterates moving at eps^(1/3): alone,
    # or padded among matrices of the same or other sizes that settle, the
    # batch refuses with the limit.
    rng = np.random.default_rng(5)
    settled = {size: rng.standard_normal((size, size)) for size in range(1, 9)}
    for batch in ([np.eye(3)],
                  [settled[3], np.eye(3), settled[2], settled[3]],
                  [settled[8], np.empty((0, 0)), np.eye(3), settled[1], settled[5]]):
        with pytest.raises(NoConvergenceError,
                           match="root iteration did not settle within 600 sweeps"):
            brute_oracle_small(batch)


def test_oracle_names_the_sweep_limit_on_rounded_double_roots():
    # The rounded double roots of diag(1, 1, 2, 2, i) step above the
    # tolerance for good, alone or padded among matrices of other sizes
    # that settle, and beside the defective triple root of eye(3).
    rng = np.random.default_rng(5)
    settled = {size: rng.standard_normal((size, size)) for size in range(1, 9)}
    stuck = np.diag([1.0, 1.0, 2.0, 2.0, 1j])
    for batch in ([stuck],
                  [settled[2], settled[7], stuck, np.empty((0, 0)), settled[4]],
                  [settled[1], stuck, settled[8], np.eye(3)]):
        with pytest.raises(NoConvergenceError,
                           match="root iteration did not settle within 600 sweeps"):
            brute_oracle_small(batch)


def test_oracle_names_its_sweep_limit(monkeypatch):
    monkeypatch.setattr(eigen, "_ORACLE_MAX_ITER", 1)
    with pytest.raises(NoConvergenceError, match="did not settle within 1 sweeps"):
        brute_oracle_small([np.diag([3.0, 1.0]), np.empty((0, 0))])


def test_oracle_holds_apart_iterates_that_meet_at_a_repeated_root():
    # The exact double root at 0 halves the distance between its two
    # iterates every sweep while the rounded pair at 1/2 settles.  Once they
    # are within 1e-14 the guard puts 1e-12 (1 + i) in place of their
    # difference, which stops them there; without it they would end less
    # than 1e-16 apart.
    roots = brute_oracle_small([np.diag([0.0, 0.0, 0.5, 0.5])])[0]
    pair = roots[np.argsort(np.abs(roots))[:2]]
    assert 1e-15 < abs(pair[0] - pair[1]) < 1e-14
    np.testing.assert_allclose(roots, [0.0, 0.0, 0.5, 0.5], atol=1e-8)


# The oracle as it solved one matrix at a time before it was batched, kept
# as the reference that brute_oracle_small must reproduce bit for bit.
def _char_poly_coeffs(a):
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


def _durand_kerner(coeffs):
    n = coeffs.size - 1
    r0 = 1.0 + float(np.max(np.abs(coeffs[1:])))
    z = r0 * np.exp(2j * np.pi * np.arange(n) / n + 0.4j)
    for _ in range(600):
        p = np.polyval(coeffs, z)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        small = np.abs(diff) < 1e-14
        if small.any():
            diff[small] = 1e-12 * (1.0 + 1j)
        step = p / diff.prod(axis=1)
        z = z - step
        if np.max(np.abs(step)) < 1e-12 * max(1.0, float(np.max(np.abs(z)))):
            return z
    raise NoConvergenceError("root iteration did not settle within 600 sweeps")


def _oracle_alone(matrix):
    a = matrix.entries if isinstance(matrix, OperatorMatrix) else np.asarray(matrix, dtype=complex)
    roots = _durand_kerner(_char_poly_coeffs(a))
    return roots[np.lexsort((roots.imag, roots.real))]


def _assert_same_bits(batch, references):
    assert len(batch) == len(references)
    for roots, reference in zip(batch, references):
        assert roots.dtype == reference.dtype and roots.tobytes() == reference.tobytes()


def test_oracle_reproduces_the_one_at_a_time_bits_on_criterion_7(monkeypatch):
    batches = []

    def record(matrices):
        batches.append(matrices)
        return brute_oracle_small(matrices)

    monkeypatch.setattr(verify, "brute_oracle_small", record)
    assert eigensolver_validation().passed
    assert [len(batch) for batch in batches] == [107]
    (both,) = batches
    assert not any(isinstance(m, OperatorMatrix) for m in both[:100])
    assert all(isinstance(m, OperatorMatrix) for m in both[100:])
    reference = [_oracle_alone(m) for m in both]
    _assert_same_bits(brute_oracle_small(both), reference)
    # reversed, split into the dense and tridiagonal halves, and in batches
    # of seven
    _assert_same_bits(brute_oracle_small(both[::-1]), reference[::-1])
    for part in (slice(0, 100), slice(100, None)):
        _assert_same_bits(brute_oracle_small(both[part]), reference[part])
    for i in range(0, len(both), 7):
        _assert_same_bits(brute_oracle_small(both[i:i + 7]), reference[i:i + 7])


_oracle_entry = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0, -2.0, 1j, -1j, 0.5]),
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False,
                       allow_subnormal=False))


@st.composite
def _oracle_input(draw, n=st.integers(0, 8)):
    """A dense array of size 0..8 or an OperatorMatrix of size 1..8."""
    n = draw(n)
    if n and draw(st.booleans()):
        bands = [draw(st.lists(_oracle_entry, min_size=size, max_size=size))
                 for size in (n - 1, n, n - 1)]
        return OperatorMatrix(*(np.array(band, dtype=complex) for band in bands))
    entries = draw(st.lists(_oracle_entry, min_size=n * n, max_size=n * n))
    return np.array(entries, dtype=complex).reshape(n, n)


@st.composite
def _oracle_batch(draw):
    """1..40 oracle inputs in any order; about half hold every size 0..8."""
    batch = draw(st.lists(_oracle_input(), max_size=31))
    if draw(st.booleans()):
        batch += [draw(_oracle_input(st.just(n))) for n in range(9)]
    assume(batch)
    return draw(st.permutations(batch))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_oracle_batch(), st.randoms(use_true_random=False))
def test_oracle_reproduces_the_one_at_a_time_bits_in_any_batch(matrices, random):
    # Every member is padded to the batch's largest size.  Sweeps that
    # settle only to eps^(1/m) at a defective root may not settle at all;
    # such a member makes the whole batch refuse, and the rest are compared.
    references = {}
    for i, matrix in enumerate(matrices):
        if isinstance(matrix, np.ndarray) and not matrix.size:
            references[i] = np.empty(0, dtype=complex)
            continue
        try:
            references[i] = _oracle_alone(matrix)
        except NoConvergenceError:
            pass
    if len(references) < len(matrices):
        with pytest.raises(NoConvergenceError, match="within 600 sweeps"):
            brute_oracle_small(matrices)
    order = list(references)
    _assert_same_bits(brute_oracle_small([matrices[i] for i in order]),
                      [references[i] for i in order])
    random.shuffle(order)
    cut = random.randint(0, len(order))
    for group in (order, order[:cut], order[cut:]):
        _assert_same_bits(brute_oracle_small([matrices[i] for i in group]),
                          [references[i] for i in group])


def test_oracle_makes_no_lapack_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called LAPACK")

    for name in ("eig", "eigvals", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    companion = np.array([[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    tridiagonal = OperatorMatrix(np.ones(2), np.array([1.0, 2.0, 3.0]), np.zeros(2))
    roots = brute_oracle_small([companion, tridiagonal])
    for vals in roots:
        np.testing.assert_allclose(vals, [1.0, 2.0, 3.0], atol=1e-10)
    with pytest.raises(AssertionError, match="called LAPACK"):
        eig(companion)


def test_match_eigenvalue_sets_assignment():
    targets = np.array([1.0, 5.0])
    candidates = np.array([5.1, 0.9, 30.0, 1.05])
    picked, gaps = match_eigenvalue_sets(targets, candidates)
    np.testing.assert_allclose(picked, [1.05, 5.1])
    np.testing.assert_allclose(gaps, [0.05, 0.1])


def test_match_eigenvalue_sets_no_reuse():
    # one candidate near both targets: the second target must take the decoy
    picked, gaps = match_eigenvalue_sets(np.array([1.0, 1.01]), np.array([1.0, 8.0]))
    assert picked.tolist() == [1.0, 8.0]
    assert gaps[1] == pytest.approx(6.99)


def test_match_eigenvalue_sets_needs_enough_candidates():
    with pytest.raises(ValueError):
        match_eigenvalue_sets(np.array([1.0, 2.0]), np.array([1.0]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(lambda size: st.tuples(
    st.lists(st.complex_numbers(max_magnitude=4.0, allow_nan=False), min_size=size,
             max_size=size),
    st.lists(st.complex_numbers(max_magnitude=4.0, allow_nan=False), min_size=size,
             max_size=size + 4))))
def test_match_eigenvalue_sets_property(sets):
    # every target takes a distinct candidate, and its gap is the distance
    # to the candidate it took
    targets, candidates = (np.array(values, dtype=complex) for values in sets)
    picked, gaps = match_eigenvalue_sets(targets, candidates)
    assert Counter(picked.tolist()) <= Counter(candidates.tolist())
    np.testing.assert_array_equal(gaps, np.abs(targets - picked))


def test_trace_error_scale_invariance():
    # relative to max(1, |tr|, sum|lambda|): big matrices do not inflate it
    rng = np.random.default_rng(3)
    m = 1e6 * rng.standard_normal((30, 30))
    assert eig(m).trace_error <= 1e-12


@pytest.mark.parametrize("picture", ["reference", "target"])
@pytest.mark.parametrize("label", sorted(ACCEPTANCE_SPECS))
def test_eig_lowest_matches_dense_on_acceptance_specs(label, picture, eig_calls):
    # criterion 3's model has a conjugate pair at levels 3-4 (see below)
    k = 2 if label == "c3:trig" else 4
    matrix = _picture_matrix(ACCEPTANCE_SPECS[label], picture, 300)
    assert _window_gap(matrix, k, _dense(label, picture, 300).eigenvalues) <= 1e-10
    # none of these operators has a zero coupling, so none goes to the full
    # solve
    assert not eig_calls


@pytest.mark.parametrize("picture", ["reference", "target"])
def test_eig_lowest_matches_dense_at_criterion_2_size(picture):
    # the largest grid of the convergence sweep, which takes this path
    matrix = _picture_matrix(ACCEPTANCE_SPECS["c2:sech"], picture, 1200)
    assert _window_gap(matrix, 4, _dense("c2:sech", picture, 1200).eigenvalues) <= 1e-10


def test_eig_lowest_matches_dense_at_criterion_3_size():
    matrix = _picture_matrix(ACCEPTANCE_SPECS["c3:trig"], "reference", 1200)
    dense = _dense("c3:trig", "reference", 1200).eigenvalues
    assert _window_gap(matrix, 2, dense) <= 1e-10
    # Levels 3-4 are the pair 2.4375 +- 0.0066i, born where two real levels
    # met; its members move like the square root of a perturbation.  On the
    # target picture at n = 600, dense eig of the matrix and of its transpose
    # already differ by 1e-9 there, so 1e-10 is beyond either solver.
    assert _window_gap(matrix, 4, dense) <= 1e-7


def _tridiagonal(diag, lower, upper):
    return OperatorMatrix(lower, diag, upper)


def _random_tridiagonal(rng, kind, n):
    """A seeded tridiagonal whose real parts climb like a Hamiltonian's."""
    def cnormal(size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    if kind == "complex":
        ramp = np.sort(rng.uniform(0.0, n / 4, n))
        return _tridiagonal(ramp + cnormal(n), cnormal(n - 1), cnormal(n - 1))
    if kind == "real":  # real and non-symmetric: conjugate pairs throughout
        ramp = np.sort(rng.uniform(0.0, n / 4, n))
        return _tridiagonal(ramp, rng.standard_normal(n - 1), rng.standard_normal(n - 1))
    # two copies of one block, uncoupled: every eigenvalue is doubled
    half = n // 2
    diag = np.sort(rng.uniform(0.0, n / 4, half)) + cnormal(half)
    lower, upper = cnormal(half - 1), cnormal(half - 1)
    return _tridiagonal(np.tile(diag, 2), np.concatenate([lower, [0.0], lower]),
                        np.concatenate([upper, [0.0], upper]))


@pytest.fixture
def eig_calls(monkeypatch):
    """Records the spectrum of each call eig_lowest makes to the
    full-spectrum `eig`."""
    calls = []

    def counting_eig(*args, **kwargs):
        calls.append(eig(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(eigen, "eig", counting_eig)
    return calls


def test_eig_lowest_matches_dense_on_random_tridiagonals(eig_calls):
    rng = np.random.default_rng(2024)
    cuts = {"tie": 0, "clear": 0}
    for kind in ("complex", "real", "doubled"):
        for _ in range(4):
            n = int(rng.integers(30, 80))
            a = _random_tridiagonal(rng, kind, n)
            dense = eig(a.entries).eigenvalues
            for k in range(1, 9):
                eig_calls.clear()
                low = eig_lowest(a, k)
                tied = abs(dense[k].real - dense[k - 1].real) <= 1e-8
                cuts["tie" if tied else "clear"] += 1
                # no cut of an unreduced matrix, tied or clear, takes a full
                # solve; a reducible one takes exactly one
                assert len(eig_calls) == (kind == "doubled")
                if not tied:
                    assert match_eigenvalue_sets(dense[:k], low)[1].max() <= 1e-10
                    continue
                # Either tied level completes the set: each value is a
                # distinct eigenvalue, and the window holds the lowest k
                # real parts.
                assert match_eigenvalue_sets(low, dense)[1].max() <= 1e-10
                np.testing.assert_allclose(np.sort(low.real), dense.real[:k], rtol=0, atol=1e-10)
    assert min(cuts.values()) >= 10


def test_eig_lowest_takes_dense_path_at_small_n(eig_calls):
    a = _tridiagonal([4.0, 1.0, 3.0, 2.0, 5.0], [0.5] * 4, [0.25] * 4)
    low = eig_lowest(a, 2)
    assert len(eig_calls) == 1
    np.testing.assert_array_equal(low, eig(a).eigenvalues[:2])


def test_eig_lowest_hands_an_overflowing_substitution_to_eig(eig_calls):
    # lower / upper = 100 on every coupling: the symmetric form's couplings
    # are all 1, so the substitution stays in range and no full solve runs
    n = 400
    diag = np.linspace(0.0, 1.0, n)
    a = _tridiagonal(diag, np.full(n - 1, 10.0), np.full(n - 1, 0.1))
    low = eig_lowest(a, 2)
    assert not eig_calls
    assert match_eigenvalue_sets(low, eig(a).eigenvalues[:2])[1].max() <= 1e-10
    # couplings of 1e-12 make every substitution ratio about 1e-10, whose
    # products over a chunk underflow, and their inverses overflow
    a = _tridiagonal(diag, np.full(n - 1, 1e-12), np.full(n - 1, 1e-12))
    low = eig_lowest(a, 2)
    assert len(eig_calls) == 1
    np.testing.assert_array_equal(low, eig(a).eigenvalues[:2])


def test_eig_lowest_at_a_tie_takes_no_full_solve(eig_calls, monkeypatch):
    # A real non-symmetric tridiagonal has conjugate pairs, whose members
    # share one real part; this one has pairs at levels 3-4 and 7-8, so the
    # windows of 3 and 7 levels are cut at a tie.  Either member completes
    # the set: the Arnoldi window answers, with no full solve and no dense
    # array.
    a = _random_tridiagonal(np.random.default_rng(5), "real", 60)
    dense = eig(a.entries).eigenvalues

    def refuse(matrix):
        raise AssertionError(f"densified a {matrix.n}-node operator")

    monkeypatch.setattr(OperatorMatrix, "entries", property(refuse))
    for k in (3, 7):
        assert abs(dense[k].real - dense[k - 1].real) <= 1e-8
        eig_calls.clear()
        low = eig_lowest(a, k)
        assert not eig_calls
        assert match_eigenvalue_sets(low, dense)[1].max() <= 1e-10
        np.testing.assert_allclose(np.sort(low.real), dense.real[:k], rtol=0, atol=1e-10)
    with pytest.raises(AssertionError, match="densified"):
        a.entries


def test_eig_lowest_hands_a_reducible_matrix_to_eig(eig_calls, monkeypatch):
    # A zero coupling splits the matrix.  Two uncoupled copies of one block
    # double every eigenvalue, which one Krylov space sees only once; with
    # lower = 0 and upper != 0 at one place the matrix is block triangular
    # and has no symmetric form.  Two different uncoupled blocks have neither
    # defect, but the rule is one: each goes to the full solve, and no
    # Arnoldi process is built for it.
    unreduced = _random_tridiagonal(np.random.default_rng(6), "complex", 60)

    def cut(lower_scale, upper_scale):
        lower, upper = unreduced.lower.copy(), unreduced.upper.copy()
        lower[29] *= lower_scale
        upper[29] *= upper_scale
        return OperatorMatrix(lower, unreduced.diag, upper)

    reducible = [_random_tridiagonal(np.random.default_rng(5), "doubled", 60),
                 cut(0.0, 1.0), cut(0.0, 0.0)]

    def refuse(*args):
        raise AssertionError("built an Arnoldi process")

    monkeypatch.setattr(eigen, "_ShiftInvertArnoldi", refuse)
    for a in reducible:
        dense = eig(a.entries).eigenvalues
        for k in (1, 4):
            eig_calls.clear()
            low = eig_lowest(a, k)
            assert len(eig_calls) == 1
            assert match_eigenvalue_sets(dense[:k], low)[1].max() <= 1e-10


def test_trigonometric_isospectral_sweep_takes_no_full_solve(eig_calls):
    # Criterion 3's model splits its n = 4 level into a conjugate pair with
    # one real part, and the sweep's target windows of k + 1 = 3 levels cut
    # that pair.
    spec = ACCEPTANCE_SPECS["c3:trig"]
    assert isospectral_sweep(spec, [200, 400, 800], 2).passed
    assert not eig_calls
    matrix = _picture_matrix(spec, "reference", 200)
    dense = eig(matrix.entries).eigenvalues
    low = eig_lowest(matrix, 3)
    assert not eig_calls
    # one member of the pair completes the set, whichever LAPACK sorts first
    assert match_eigenvalue_sets(low, dense)[1].max() <= 1e-10
    np.testing.assert_allclose(np.sort(low.real), dense.real[:3], rtol=0, atol=1e-10)


def test_eig_lowest_matches_oracle_on_small_random_tridiagonals(eig_calls):
    # Criterion 7's LAPACK-free oracle against the low-window solver.  Up to
    # n = 4 every window goes to eig; from n = 5 a window of
    # k <= n - 4 levels can be proved complete by the Arnoldi windows alone.
    rng = np.random.default_rng(77)
    paths = {"arnoldi": 0, "eig": 0}
    for n in range(2, 9):
        for _ in range(8):
            a = _random_tridiagonal(rng, "complex", n)
            oracle = brute_oracle_small([a])[0]
            for k in range(1, n + 1):
                eig_calls.clear()
                low = eig_lowest(a, k)
                paths["eig" if eig_calls else "arnoldi"] += 1
                assert match_eigenvalue_sets(low, oracle)[1].max() <= 1e-8
                # the window holds the lowest k real parts, however ties sort
                np.testing.assert_allclose(
                    np.sort(low.real), np.sort(oracle.real)[:k], rtol=0, atol=1e-8)
    assert min(paths.values()) >= 20, paths


@pytest.mark.parametrize("picture", ["reference", "target"])
def test_eig_lowest_on_a_deep_wide_well(picture, eig_calls):
    # as dense eig says at n = 400; at n = 1200 with no full solve and no
    # floating-point warning, the chunks keeping the substitution in range
    matrix = _picture_matrix(DEEP_WELL, picture, 400)
    assert _window_gap(matrix, 4) <= 1e-10
    eig_calls.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        low = eig_lowest(_picture_matrix(DEEP_WELL, picture, 1200), 4)
    assert not eig_calls
    assert low.shape == (4,)


def _assert_handed_to_eig(eig_calls, low, k):
    """One call to `eig`, whose lowest k levels are the window, as a set."""
    assert len(eig_calls) == 1
    assert set(low.tolist()) == set(eig_calls[0].eigenvalues[:k].tolist())


def test_eig_lowest_hands_a_window_at_the_basis_limit_to_eig(arnoldi_builds, eig_calls):
    # The deep well's window of 40 levels asks for 41 Ritz values, which a
    # basis of max(64, 2 * 41 + 8) = 90 vectors does not converge: the one
    # process built gives up there, and eig answers on the bands.
    low = eig_lowest(_picture_matrix(DEEP_WELL, "reference", 400), 40)
    assert arnoldi_builds == [400]
    _assert_handed_to_eig(eig_calls, low, 40)


def test_a_window_past_the_dense_limit_is_refused_by_type(arnoldi_builds, eig_calls,
                                                           refuse_dense, monkeypatch):
    # Above MAX_DENSE_NODES no full spectrum is solved, so a window that
    # reaches the basis limit there raises TooLargeError from eig, and no
    # dense array is built; a narrow window still answers from its process.
    monkeypatch.setattr(eigen, "MAX_DENSE_NODES", 300)
    matrix = _picture_matrix(DEEP_WELL, "reference", 400)
    with pytest.raises(TooLargeError, match="limited to 300 nodes, got 400"):
        eig_lowest(matrix, 40)
    assert eig_lowest(matrix, 4).shape == (4,)
    assert not eig_calls
    assert arnoldi_builds == [400, 400]


# ---------------------------------------------------------- eig_lowest's memo


def _lowest(matrix, k, spread, eig_calls):
    """eig_lowest's window as bytes, the window sizes its stopping rule saw
    and its number of calls to `eig`.  With a spread, the rule asks the
    window's top real part to pass its bottom one by that much."""
    sizes, past = [], None
    if spread is not None:
        def past(window):
            sizes.append(window.size)
            return window[0].real + spread
    eig_calls.clear()
    return eig_lowest(matrix, k, past).tobytes(), sizes, len(eig_calls)


def _memo_pool():
    """Matrices for the memo's call histories, with the spread scale of
    their stopping rules: two that share their diagonal, one small enough
    that wide windows go to eig, a real one whose conjugate pairs tie at
    cuts, a mass-picture target, and the deep well, whose wider windows
    reach the Krylov basis limit and go to eig."""
    rng = np.random.default_rng(31)
    a = _random_tridiagonal(rng, "complex", 60)
    small = _random_tridiagonal(rng, "complex", 14)
    return [(a, 8.0),
            (OperatorMatrix(1.5 * a.lower, a.diag, a.upper), 8.0),
            (small, 8.0),
            (_random_tridiagonal(rng, "real", 50), 6.0),
            (_picture_matrix(ACCEPTANCE_SPECS["c4:GoraWilliams:sech"], "target", 200), 4.0),
            (_picture_matrix(DEEP_WELL, "reference", 400), 700.0)]


@pytest.mark.parametrize("seed", [0, 1])
def test_eig_lowest_memo_replays_the_bits_of_an_empty_memo(seed, arnoldi_builds, eig_calls):
    # A random history of interleaved calls, repeats among them, each with
    # k from 1 to 12, with or without a stopping rule: with the memo kept
    # across the history, every call gives the window bits, the stopping
    # rule's windows and the hand-offs to eig of that call on an empty memo.
    pool, rng = _memo_pool(), np.random.default_rng(seed)
    history = [(int(rng.integers(len(pool))), int(rng.integers(1, 13)),
                rng.choice([None, 0.05, 0.5])) for _ in range(28)]
    history += history[:6]

    def run(i, k, spread):
        matrix, scale = pool[i]
        return _lowest(matrix, k, None if spread is None else spread * scale, eig_calls)

    fresh = []
    for call in history:
        eigen._MEMO.clear()
        fresh.append(run(*call))
    assert any(handed for _, _, handed in fresh)
    built_fresh = len(arnoldi_builds)
    eigen._MEMO.clear()
    arnoldi_builds.clear()
    for call, reference in zip(history, fresh):
        assert run(*call) == reference, call
    assert len(arnoldi_builds) < built_fresh


def test_eig_lowest_memo_gives_the_fresh_bits_under_threads():
    # Four threads run the same calls, twice each in their own orders,
    # on two shared matrices; k = 1, 2 and 7 with stopping rules of several
    # reaches share some requests and not others, and a short switch
    # interval makes the threads interleave inside calls.
    spec = ACCEPTANCE_SPECS["c2:sech"]
    pool = [_picture_matrix(spec, picture, 120) for picture in ("reference", "target")]
    calls = [(i, k, spread) for i in range(2) for k in (1, 2, 7) for spread in (None, 2.0, 5.0, 9.0)]

    def window(i, k, spread):
        past = None if spread is None else (lambda w: w[0].real + spread)
        return eig_lowest(pool[i], k, past).tobytes()

    fresh = {}
    for call in calls:
        eigen._MEMO.clear()
        fresh[call] = window(*call)
    eigen._MEMO.clear()
    results = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        for _ in range(2):
            for j in rng.permutation(len(calls)):
                results.append((calls[j], window(*calls[j])))

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 2 * len(threads) * len(calls)
    for call, bits in results:
        assert bits == fresh[call], call


def test_a_repeated_eig_lowest_call_builds_no_process(arnoldi_builds):
    matrix = _picture_matrix(ACCEPTANCE_SPECS["c2:sech"], "reference", 300)
    fresh = {}
    for k in (4, 2):
        eigen._MEMO.clear()
        fresh[k] = eig_lowest(matrix, k).tobytes()
    eigen._MEMO.clear()
    arnoldi_builds.clear()
    assert eig_lowest(matrix, 4).tobytes() == fresh[4]
    # the same bands in another OperatorMatrix, and a window of fewer levels
    # cut from the same 8 Ritz values: served from the memo
    twin = OperatorMatrix(matrix.lower.copy(), matrix.diag.copy(), matrix.upper.copy())
    assert eig_lowest(twin, 4).tobytes() == fresh[4]
    assert eig_lowest(matrix, 2).tobytes() == fresh[2]
    assert arnoldi_builds == [300]


def test_a_new_request_builds_one_process_and_a_repeat_none(arnoldi_builds, eig_calls,
                                                           monkeypatch):
    # Under stopping rules that the first windows fall short of, k = 7 asks
    # for 8 values and then 15, and k = 1 for 8, 9 and 17, then 33 where the
    # rule reaches further.  A call that asks for an m not in the memo builds
    # one process, which is asked for the new m alone; calls whose requests
    # were all asked before, in any order, build none.  Every window keeps
    # the bits of a call on an empty memo.
    matrix = _picture_matrix(ACCEPTANCE_SPECS["c2:sech"], "reference", 300)
    calls = [(7, 5.0), (1, 5.0), (1, 9.0)]
    fresh = {}
    for call in calls:
        eigen._MEMO.clear()
        fresh[call] = _lowest(matrix, *call, eig_calls)
    eigen._MEMO.clear()
    arnoldi_builds.clear()
    asked = []

    class Asked(eigen._ShiftInvertArnoldi):
        def nearest(self, m):
            asked.append(m)
            return super().nearest(m)

    monkeypatch.setattr(eigen, "_ShiftInvertArnoldi", Asked)
    for built, call in enumerate(calls, start=1):
        assert _lowest(matrix, *call, eig_calls) == fresh[call]
        assert arnoldi_builds == [300] * built
    assert asked == [8, 15, 9, 17, 33]
    (answers,) = eigen._MEMO.values()
    assert sorted(answers) == sorted(asked)
    for call in calls[::-1] + calls[1:] + calls[:1]:
        assert _lowest(matrix, *call, eig_calls) == fresh[call]
    assert arnoldi_builds == [300, 300, 300]
    assert len(asked) == 5


def test_a_logged_failure_hands_off_to_eig_without_a_process(arnoldi_builds, eig_calls):
    # The basis limit of test_eig_lowest_hands_a_window_at_the_basis_limit_to_eig:
    # the memo stores the error under m = 41, the repeat raises it, and eig
    # answers, with no process built.
    matrix = _picture_matrix(DEEP_WELL, "reference", 400)
    low = eig_lowest(matrix, 40)
    assert arnoldi_builds == [400]
    (answers,) = eigen._MEMO.values()
    assert "not converged at the limit of 90 Krylov vectors" in answers[41]
    eig_calls.clear()
    again = eig_lowest(matrix, 40)
    assert arnoldi_builds == [400]
    _assert_handed_to_eig(eig_calls, again, 40)
    assert again.tobytes() == low.tobytes()
    # a substitution chunk that leaves the float range fails while the
    # process is built, and is stored the same way
    n = 400
    overflowing = _tridiagonal(np.linspace(0.0, 1.0, n), np.full(n - 1, 1e-12),
                               np.full(n - 1, 1e-12))
    for _ in range(2):
        eig_calls.clear()
        low = eig_lowest(overflowing, 2)
        assert arnoldi_builds == [400, 400]
        _assert_handed_to_eig(eig_calls, low, 2)


@pytest.mark.parametrize("n", [200, 400, 800])
def test_every_request_has_the_bits_of_a_fresh_process(n, arnoldi_builds, monkeypatch):
    # The samsonov_roy reference's window of 5 levels under a rule that it
    # falls short of asks one process for 8 values and then 11.  The second
    # answer, from a basis grown for the first, must have the bits of a
    # process built for 11 alone.
    matrix = _picture_matrix(SAMSONOV_ROY, "reference", n)
    low = eig_lowest(matrix, 5, lambda window: 4.7).tobytes()
    assert arnoldi_builds == [n]
    build = eigen._ShiftInvertArnoldi

    class Fresh(build):
        def __init__(self, *args):
            self.args = args
            super().__init__(*args)

        def nearest(self, m):
            return build(*self.args).nearest(m)

    monkeypatch.setattr(eigen, "_ShiftInvertArnoldi", Fresh)
    eigen._MEMO.clear()
    assert eig_lowest(matrix, 5, lambda window: 4.7).tobytes() == low
    # one process for the call, and one for each of its two requests
    assert arnoldi_builds == [n, n, n, n]


def test_the_memo_drops_its_least_recently_used_matrix(arnoldi_builds, monkeypatch):
    monkeypatch.setattr(eigen, "_MEMO_SIZE", 3)
    rng = np.random.default_rng(9)
    a, b, c, d = (_random_tridiagonal(rng, "complex", n) for n in (40, 41, 42, 43))
    # a is used again before d comes in, so b is the least recently used
    for matrix in (a, b, c, a, d):
        eig_lowest(matrix, 2)
    assert arnoldi_builds == [40, 41, 42, 43]
    assert len(eigen._MEMO) == 3
    for matrix in (a, c, d):
        eig_lowest(matrix, 2)
    assert arnoldi_builds == [40, 41, 42, 43]
    eig_lowest(b, 2)
    assert arnoldi_builds == [40, 41, 42, 43, 41]


@pytest.mark.parametrize("apply, message", [
    # the start vector spans an invariant space of 2 I, so the second basis
    # vector is rounding noise
    (lambda self, v: 2.0 * v, "broke down at dimension 1"),
    (lambda self, v: np.full_like(v, np.inf), "left the float range"),
], ids=["breakdown", "non-finite beta"])
def test_eig_lowest_hands_a_failed_krylov_step_to_eig(apply, message, eig_calls, monkeypatch):
    n = 60
    matrix = _tridiagonal(np.arange(float(n)), np.ones(n - 1), np.ones(n - 1))
    monkeypatch.setattr(eigen._ShiftInvertArnoldi, "_apply", apply)
    process = eigen._ShiftInvertArnoldi(matrix.lower, matrix.diag, -3.0, np.ones(n, dtype=complex))
    with np.errstate(all="ignore"), pytest.raises(NoConvergenceError, match=message):
        process.nearest(8)
    _assert_handed_to_eig(eig_calls, eig_lowest(matrix, 4), 4)


@pytest.mark.parametrize("n", [4, 12])
def test_bounds_beyond_the_float_range_hand_off_before_any_sweep(n, eig_calls):
    # Finite bands whose products lower * upper overflow: the bounds on the
    # eigenvalues are not finite floats.  eig_lowest hands the matrix to eig
    # before any Arnoldi step, and eig answers on the bands at unit scale,
    # with no warning (the suite makes one an error).
    matrix = OperatorMatrix(np.full(n - 1, 1e200), np.full(n, 2e200), np.full(n - 1, -1e200))
    spectrum, dense = eig(matrix), eig(matrix.entries)
    _, gaps = match_eigenvalue_sets(dense.eigenvalues, spectrum.eigenvalues)
    assert gaps.max() <= 1e-10 * np.abs(dense.eigenvalues).max()
    for k in (1, 2):
        eig_calls.clear()
        low = eig_lowest(matrix, k)
        _assert_handed_to_eig(eig_calls, low, k)
        assert set(low.tolist()) == set(spectrum.eigenvalues[:k].tolist())


def _substitute(matrix, shift, b):
    """(A - shift I)^-1 b by LU without pivoting, one entry at a time: the
    reference for the chunked prefix products of eig_lowest's solve."""
    lower, diag, upper = (band.tolist() for band in (matrix.lower, matrix.diag, matrix.upper))
    pivots = [diag[0] - shift]
    for i in range(1, matrix.n):
        pivots.append(diag[i] - shift - lower[i - 1] * upper[i - 1] / pivots[-1])
    y = [b[0]]
    for i in range(1, matrix.n):
        y.append(b[i] - lower[i - 1] / pivots[i - 1] * y[-1])
    x = [y[-1] / pivots[-1]]
    for i in range(matrix.n - 2, -1, -1):
        x.append((y[i] - upper[i] * x[-1]) / pivots[i])
    return np.array(x[::-1])


def test_chunked_substitution_matches_the_sequential_one():
    matrices = [_random_tridiagonal(np.random.default_rng(3), "complex", 100),
                _picture_matrix(ACCEPTANCE_SPECS["c5:power"], "target", 300),
                _picture_matrix(DEEP_WELL, "reference", 1200),
                _picture_matrix(DEEP_WELL, "target", 1200)]
    rng = np.random.default_rng(8)
    for matrix in matrices:
        _, floor, _, im_bound = eigen._bounds(matrix.lower, matrix.diag, matrix.upper)
        shift = floor - im_bound - 1.0
        b = rng.standard_normal(matrix.n) + 1j * rng.standard_normal(matrix.n)
        # the symmetric form that eig_lowest's Arnoldi processes run on
        coupling = matrix.lower * np.sqrt(matrix.upper / matrix.lower)
        solver = eigen._ShiftInvertArnoldi(coupling, matrix.diag, shift, b)
        reference = _substitute(OperatorMatrix(coupling, matrix.diag, coupling), shift, b)
        error = np.linalg.norm(solver._apply(b) - reference) / np.linalg.norm(reference)
        assert error <= 1e-14, matrix.n


def test_eig_lowest_rejects_bad_input():
    identity = _tridiagonal(np.ones(6), np.zeros(5), np.zeros(5))
    with pytest.raises(ValueError):
        eig_lowest(identity, 0)
    with pytest.raises(ValueError):
        eig_lowest(identity, 7)


def test_eig_lowest_stopping_rule_picks_from_the_full_spectrum(eig_calls):
    # At n = 4 every window goes to eig, and the stopping rule then picks from
    # its spectrum: k doubles until the top level passes the rule or k = n.
    a = _tridiagonal([4.0, 1.0, 3.0, 2.0], [0.5] * 3, [0.25] * 3)
    full = eig(a).eigenvalues
    sizes = []

    def past(cut):
        def rule(window):
            sizes.append(window.size)
            return cut
        return rule

    between = 0.5 * (full[0].real + full[1].real)
    np.testing.assert_array_equal(eig_lowest(a, 1, past(between)), full[:2])
    assert sizes == [1, 2]
    sizes.clear()
    np.testing.assert_array_equal(eig_lowest(a, 1, past(np.inf)), full)
    assert sizes == [1, 2]
    # with a stopping rule, a request beyond n is clamped to all n levels
    sizes.clear()
    np.testing.assert_array_equal(eig_lowest(a, 9, past(np.inf)), full)
    assert sizes == []
    assert len(eig_calls) == 3


@pytest.mark.parametrize("picture", ["reference", "target"])
@pytest.mark.parametrize("label", sorted(ACCEPTANCE_SPECS))
def test_eig_tridiagonal_matches_dense_on_acceptance_specs(label, picture):
    # eig on the OperatorMatrix, solved on its bands
    dense = _dense(label, picture, 300)
    full = eig(_picture_matrix(ACCEPTANCE_SPECS[label], picture, 300))
    assert full.eigenvalues.shape == (300,)
    gaps = match_eigenvalue_sets(dense.eigenvalues, full.eigenvalues)[1]
    # relative, as matched sets, every level; the members of criterion 3's
    # conjugate pair (see test_eig_lowest_matches_dense_at_criterion_3_size)
    # too, which agree to 4e-11 at this size
    assert np.all(gaps <= 1e-10 * np.maximum(np.abs(dense.eigenvalues), 1.0))
    assert full.matrix_norm == pytest.approx(dense.matrix_norm, rel=1e-14)
    assert abs(full.trace_error - dense.trace_error) <= 1e-14


@pytest.mark.parametrize("label, picture", [("c2:sech", "reference"), ("c2:sech", "target"),
                                            ("c3:trig", "reference")])
def test_eig_tridiagonal_matches_dense_at_criterion_size(label, picture):
    # n = 1200, where ||A||_F is about 1e6 times the lowest levels: each
    # level, the lowest ones too, is held to 1e-10 of max(|E|, 1), except
    # the members of criterion 3's conjugate pair (1e-7, as above).
    dense = _dense(label, picture, 1200).eigenvalues
    full = eig(_picture_matrix(ACCEPTANCE_SPECS[label], picture, 1200))
    gaps = match_eigenvalue_sets(dense, full.eigenvalues)[1]
    pair = (label == "c3:trig") & (np.abs(dense.imag) > 1e-6)
    bound = np.where(pair, 1e-7, 1e-10)
    assert np.all(gaps <= bound * np.maximum(np.abs(dense), 1.0))


@pytest.mark.parametrize("n", [50, 400])
@pytest.mark.parametrize("picture", ["reference", "target"])
@pytest.mark.parametrize("label", ["morse", "deep_well"])
def test_eig_tridiagonal_solves_morse_and_the_deep_well_on_the_bands(label, picture, n):
    # The built-in Morse window and the deep well, whose sweeps from an
    # ellipse over the Gershgorin interval stalled at the limit: from the
    # level-count start they converge, to dense's levels as matched sets.
    spec = {"morse": ModelSpec.from_ordering(Morse(), ZK, q_interval=(-8.0, 8.0)),
            "deep_well": DEEP_WELL}[label]
    matrix = _picture_matrix(spec, picture, n)
    dense = eig(matrix.entries).eigenvalues
    full = eig(matrix)
    gaps = match_eigenvalue_sets(dense, full.eigenvalues)[1]
    assert np.all(gaps <= 1e-10 * np.maximum(np.abs(dense), 1.0))


CONFIG_SPECS = {
    "default": build_spec(config_from_dict({})),
    "samsonov_roy": SAMSONOV_ROY,
    "deep_well": build_spec(config_from_dict({"generator": {"kind": "scarf2", "v2": 20},
                                              "q_interval": [-20, 20]})),
    "morse": build_spec(config_from_dict({"generator": {"kind": "morse"}})),
}


@pytest.mark.parametrize("n", [20, 50, 400])
@pytest.mark.parametrize("label", sorted(CONFIG_SPECS))
def test_a_real_shift_of_the_diagonal_shifts_every_level(label, n):
    # The potential's alpha0 adds a real shift to every diagonal entry.  The
    # sweeps run about the median of Re d_i, so the shifted bands give the
    # levels plus the shift.  Solved on the uncentred bands, a shift of 1e8
    # once moved the levels by up to 3.8.  The diagonal is first put
    # on alpha0's grid, so that adding alpha0 is exact: the rounding of
    # d_i + alpha0 would perturb A by up to half a spacing an entry, which
    # a near-defective level, such as samsonov_roy's conjugate pair, may
    # amplify several times.  What is left is one rounding of each root
    # plus the centre, at most half a spacing at magnitudes below 2 |alpha0|,
    # and each solve's own error, a few eps ||A||_F.
    for picture in ("reference", "target"):
        matrix = _picture_matrix(CONFIG_SPECS[label], picture, n)
        for alpha0 in (1e7, 3e7, 1e8, 1e12, -1e8):
            diag = (matrix.diag + alpha0) - alpha0
            base = eig(OperatorMatrix(matrix.lower, diag, matrix.upper))
            shifted = eig(OperatorMatrix(matrix.lower, diag + alpha0, matrix.upper))
            # exact: every shifted level lies within a factor 2 of alpha0
            moved = shifted.eigenvalues - alpha0
            gaps = match_eigenvalue_sets(base.eigenvalues, moved)[1]
            bound = 0.5 * np.spacing(2.0 * abs(alpha0)) + 8 * eigen._EPS * base.matrix_norm
            assert gaps.max() <= bound, (picture, alpha0, gaps.max())


def test_eig_tridiagonal_converges_on_graded_and_complex_random_tridiagonals():
    # Diagonals graded from e^-10 to e^10 with real Gaussian couplings and
    # complex Gaussian bands, on geometric size ladders over 10-300; from an
    # ellipse over the Gershgorin interval, half of the graded ones and one
    # complex one were left moving at the sweep limit.  Each matches dense
    # within the backward error of either solver.
    rng = np.random.default_rng(2)
    matrices = [_tridiagonal(np.exp(np.linspace(-10.0, 10.0, n)), rng.standard_normal(n - 1),
                             rng.standard_normal(n - 1))
                for n in np.geomspace(10, 300, 20).round().astype(int)]
    for n in np.geomspace(10, 300, 5).round().astype(int):
        diag, lower, upper = (rng.standard_normal(size) + 1j * rng.standard_normal(size)
                              for size in (n, n - 1, n - 1))
        matrices.append(_tridiagonal(diag, lower, upper))
    for matrix in matrices:
        full = eig(matrix)
        dense = eig(matrix.entries)
        gap = match_eigenvalue_sets(dense.eigenvalues, full.eigenvalues)[1].max()
        assert gap <= 1e-10 * dense.matrix_norm


def test_the_start_holds_no_n_by_n_temporary():
    # n = 2000: a whole n x n level-count table would take 32 MB.
    rng = np.random.default_rng(5)
    matrix = _random_tridiagonal(rng, "complex", 2000)
    root, lo, hi, _ = eigen._bounds(matrix.lower, matrix.diag, matrix.upper)
    tracemalloc.start()
    try:
        start = eigen._dos_start(matrix.diag, root, lo, hi, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert np.unique(start).size == 2000


def test_the_start_keeps_coincident_counts_apart():
    # Uncoupled rows are steps of the level count, so three equal diagonal
    # entries give three equal quantiles; the floored spacing and the
    # alternating, growing offsets still part every start.
    diag = np.array([1.0, 1.0, 1.0, 2.0, 2.0], dtype=complex)
    start = eigen._dos_start(diag, np.zeros(4, dtype=complex), 1.0, 2.0, 1e-6)
    assert np.unique(start).size == 5
    assert np.min(np.abs(start[:, None] - start[None, :]) + np.eye(5)) >= 2e-7
    full = eig(_tridiagonal(diag, np.zeros(4), np.zeros(4))).eigenvalues
    np.testing.assert_allclose(full, diag, rtol=0, atol=1e-12)


def _assert_lex_ordered(vals):
    re, im = vals.real, vals.imag
    assert np.all((re[1:] > re[:-1]) | ((re[1:] == re[:-1]) & (im[1:] >= im[:-1])))


def _small_random_tridiagonals():
    """400 seeded tridiagonals of sizes 2-8.  Zero couplings split the
    determinant into blocks, and a root that lands exactly on an isolated
    diagonal entry makes a pivot r_i exactly zero.  The repeated diagonal
    entry is kept inside one coupled block, so every eigenvalue stays simple
    for the oracle."""
    rng = np.random.default_rng(400)
    matrices = []
    for case in range(400):
        n = 2 + case % 7
        a = _random_tridiagonal(rng, "complex", n)
        lower, diag, upper = a.lower.copy(), a.diag.copy(), a.upper.copy()
        if case % 2:
            cut = rng.random(n - 1) < 0.4
            (lower if rng.random() < 0.5 else upper)[cut] = 0.0
        if case % 4 >= 2:
            i = int(rng.integers(n - 1))
            diag[i + 1] = diag[i]
            lower[i], upper[i] = lower[i] or 1.0, upper[i] or 1.0
        matrices.append(_tridiagonal(diag, lower, upper))
    return matrices


def test_eig_tridiagonal_matches_oracle_on_small_random_tridiagonals():
    for a in _small_random_tridiagonals():
        full = eig(a).eigenvalues
        _assert_lex_ordered(full)
        assert match_eigenvalue_sets(brute_oracle_small([a])[0], full)[1].max() <= 1e-9
        assert match_eigenvalue_sets(eig(a.entries).eigenvalues, full)[1].max() <= 1e-9


_entry = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def _small_tridiagonals(draw):
    n = draw(st.integers(2, 8))
    bands = [draw(st.lists(_entry, min_size=size, max_size=size))
             for size in (n - 1, n, n - 1)]
    return _tridiagonal(bands[1], bands[0], bands[2])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_small_tridiagonals())
def test_eig_tridiagonal_property_against_oracle(a):
    # Simple, separated eigenvalues only: at a multiple eigenvalue both
    # routes lose half their digits, and the oracle may not settle at all.
    dense = eig(a.entries)
    scale = max(1.0, dense.matrix_norm)
    vals = dense.eigenvalues
    assume(np.min(np.abs(vals[:, None] - vals[None, :]) + np.eye(a.n) * scale) > 1e-3 * scale)
    full = eig(a)
    _assert_lex_ordered(full.eigenvalues)
    assert match_eigenvalue_sets(brute_oracle_small([a])[0], full.eigenvalues)[1].max() <= 1e-8 * scale
    assert np.array_equal(eig(a).eigenvalues, full.eigenvalues)


def test_eig_tridiagonal_edge_cases():
    np.testing.assert_allclose(eig(_tridiagonal([3.0], [], [])).eigenvalues, [3.0],
                               rtol=1e-15)
    zero = eig(_tridiagonal(np.zeros(4), np.zeros(3), np.zeros(3)))
    assert zero.eigenvalues.tolist() == [0.0] * 4 and zero.matrix_norm == 0.0
    # a Jordan block: the double root 0 is reached exactly
    jordan = eig(_tridiagonal([0.0, 0.0], [0.0], [1.0])).eigenvalues
    np.testing.assert_allclose(jordan, [0.0, 0.0], atol=1e-15)
    # a simple eigenvalue at exactly 0, which no bound relative to |z| freezes
    singular = eig(_tridiagonal([1.0, 1 + 1j], [1.0], [1 + 1j])).eigenvalues
    assert match_eigenvalue_sets(np.array([0.0, 2 + 1j]), singular)[1].max() <= 1e-15
    # a spectrum symmetric under x -> -x: no two roots settle on one point
    mirror = eig(_tridiagonal([0.0, 0.0, 0.0], [1.0, 1.0], [-1.0, 0.0])).eigenvalues
    assert match_eigenvalue_sets(np.array([-1j, 0.0, 1j]), mirror)[1].max() <= 1e-14
    # a subnormal coupling product: a root lands exactly where the last
    # pivot is subnormal, and p'/p is infinite there (a nan step once)
    subnormal = eig(_tridiagonal([0.0, 1.0], [4.31107628e-79], [1.87682046e-241])).eigenvalues
    assert match_eigenvalue_sets(np.array([0.0, 1.0]), subnormal)[1].max() <= 1e-15


def test_eig_tridiagonal_refuses_oversized_input_before_solving():
    n = MAX_DENSE_NODES + 1
    with pytest.raises(TooLargeError):
        eig(_tridiagonal(np.ones(n), np.ones(n - 1), np.ones(n - 1)))


def test_eig_tridiagonal_propagates_failure():
    with pytest.raises(NoConvergenceError):
        eig(_tridiagonal([np.nan, 1.0], [0.5], [0.5]))


def test_eig_refuses_non_finite_bands_before_densifying(monkeypatch):
    dense = []
    entries = eigen._entries

    def counting_entries(matrix):
        dense.append(matrix)
        return entries(matrix)

    monkeypatch.setattr(eigen, "_entries", counting_entries)
    for bad in (_tridiagonal([np.nan, 1.0, 2.0], [0.5, 0.5], [0.5, 0.5]),
                _tridiagonal([0.0, 1.0, 2.0], [0.5, np.inf], [0.5, 0.5]),
                _tridiagonal([0.0, 1.0, 2.0], [0.5, 0.5], [-np.inf, 0.5])):
        with pytest.raises(NoConvergenceError, match="a band holds a non-finite entry"):
            eig(bad)
    assert dense == []


# The norm, the eigenvalue bounds and the trace error of eig on the bands,
# frozen with the loop below so that a change to the live helpers shows.
def _frozen_unit_scaled(*arrays):
    views = [np.ascontiguousarray(a).view(float) for a in arrays]
    _, e = math.frexp(max(abs(v).max(initial=0.0) for v in views))
    return [np.ldexp(v, -e).view(a.dtype) for v, a in zip(views, arrays)], e


def _frozen_frobenius(values):
    (scaled,), e = _frozen_unit_scaled(values)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(scaled), e))


def _frozen_row_sums(couplings):
    out = np.zeros(couplings.size + 1)
    out[:-1] += couplings
    out[1:] += couplings
    return out


def _frozen_bounds(matrix):
    diag = matrix.diag
    with np.errstate(over="ignore", invalid="ignore"):
        root = np.sqrt(matrix.lower * matrix.upper)
        rows = _frozen_row_sums(np.abs(root.real))
        height = float(np.max(np.abs(diag.imag) + _frozen_row_sums(np.abs(root.imag))))
        lo, hi = float(np.min(diag.real - rows)), float(np.max(diag.real + rows))
    if not all(map(math.isfinite, (lo, hi, height))):
        raise NoConvergenceError("the eigenvalue bounds of the bands are not finite floats")
    return root, lo, hi, height


def _frozen_spectrum(vals, diag, norm):
    vals = vals[np.lexsort((vals.imag, vals.real))]
    (scaled, diag), e = _frozen_unit_scaled(vals, diag)
    trace = complex(np.sum(diag))
    with np.errstate(over="ignore", invalid="ignore"):
        floor = float(np.ldexp(1.0, -e))
        error = abs(scaled.sum() - trace) / max(floor, abs(trace), float(np.sum(np.abs(scaled))))
    return eigen.Spectrum(eigenvalues=vals, matrix_norm=norm, trace_error=error)


# eig's banded start at the level-count quantiles, frozen with
# the loop below.
def _frozen_dos_start(diag, root, lo, hi, spacing):
    n = diag.size
    radius = _frozen_row_sums(np.abs(root))
    energies = lo + (hi - lo) * np.sin(0.5 * np.pi * np.linspace(0.0, 1.0, n)) ** 2
    counts = np.searchsorted(np.sort(diag.real[radius == 0]), energies).astype(float)
    centre, radius = diag.real[radius > 0], radius[radius > 0]
    rows = max(1, (1 << 14) // n)
    for i in range(0, n, rows):
        x = centre - energies[i:i + rows, None]
        np.clip(np.divide(x, radius, out=x), -1.0, 1.0, out=x)
        counts[i:i + rows] += np.arccos(x, out=x).sum(axis=1) / np.pi
    k = np.arange(n)
    start = np.interp(k + 0.5, counts, energies)
    gaps = np.diff(start)
    local = np.maximum(np.maximum(np.r_[gaps, 0.0], np.r_[0.0, gaps]), spacing)
    return start + 0.3j * local * (-1.0) ** k * (1.0 + k / n)


# eig on the bands as it was while its row loop guarded every pivot, kept
# verbatim but for its start, which is _frozen_dos_start above, and for its
# sweeps on the bands less the median of Re d_i, which is added back to the
# roots; with that loop's pair-sum block of 2^16 entries, as the reference
# that the unguarded loop with its redo must reproduce bit for bit.
def _guarded_loop(matrix):
    n = matrix.n
    if n > MAX_DENSE_NODES:
        raise TooLargeError(f"full spectra are limited to {MAX_DENSE_NODES} nodes, got {n}")
    lower, diag, upper = matrix.lower, matrix.diag, matrix.upper
    matrix_norm = _frozen_frobenius(np.concatenate((lower, diag, upper)))
    if not math.isfinite(matrix_norm):
        raise NoConvergenceError("a band holds a non-finite entry")
    centre = float(np.partition(diag.real, n // 2)[n // 2])
    diag = diag - centre
    norm = _frozen_frobenius(np.concatenate((lower, diag, upper)))
    if norm == 0.0:
        return _frozen_spectrum(np.zeros(n, dtype=complex) + centre, matrix.diag, matrix_norm)
    floor = 1e-3 * norm
    z = _frozen_dos_start(diag, *_frozen_bounds(OperatorMatrix(lower, diag, upper))[:3], floor / n)
    eps = np.finfo(float).eps
    pivot = eps * norm  # stands in for an r_i that is exactly zero
    d0, rest, couplings = complex(diag[0]), diag[1:].tolist(), (lower * upper).tolist()
    block = max(1, (1 << 16) // n)
    active = np.arange(n)
    last = np.full(n, np.inf)
    for _ in range(eigen._MAX_SWEEPS):
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
        size = np.maximum(np.abs(step), 1.0 / np.maximum(np.abs(dlogp), np.finfo(float).tiny))
        mag = np.abs(za)
        stalled = (size >= last[active]) & (size <= np.maximum(1e-8 * mag, 8 * eps * norm))
        done = (size <= 4 * eps * np.maximum(mag, floor)) | stalled
        last[active] = size
        active = active[~done]
        if not active.size:
            return _frozen_spectrum(z + centre, matrix.diag, matrix_norm)
    raise NoConvergenceError(
        f"{active.size} of {n} roots still moving at the limit of {eigen._MAX_SWEEPS} Aberth sweeps"
    )


def _outcome(solve, matrix):
    try:
        return solve(matrix)
    except (NoConvergenceError, TooLargeError) as exc:
        return exc


def _assert_same_outcome(result, reference):
    """The same error text, or the same Spectrum bit for bit."""
    if isinstance(reference, Exception):
        assert type(result) is type(reference) and str(result) == str(reference)
        return
    assert isinstance(result, eigen.Spectrum)
    assert result.eigenvalues.tobytes() == reference.eigenvalues.tobytes()
    assert result.trace_error == reference.trace_error
    assert result.matrix_norm == reference.matrix_norm


@pytest.mark.parametrize("n", [50, 250, 333, 500])
def test_eig_tridiagonal_reproduces_the_guarded_loop_bits_on_acceptance_specs(n):
    for label in sorted(ACCEPTANCE_SPECS):
        for picture in ("reference", "target"):
            matrix = _picture_matrix(ACCEPTANCE_SPECS[label], picture, n)
            _assert_same_outcome(_outcome(eig, matrix),
                                 _outcome(_guarded_loop, matrix))


def test_eig_tridiagonal_reproduces_the_guarded_loop_bits_at_exact_zero_pivots(monkeypatch):
    # The row loop runs unguarded; a root whose p'/p is not finite is redone
    # with the guard on, and some roots of this set are.
    redone = []
    log_derivative = eigen._log_derivative

    def spy(za, d0, rest, couplings, pivot=None):
        if pivot is not None:
            redone.append(za.size)
        return log_derivative(za, d0, rest, couplings, pivot)

    monkeypatch.setattr(eigen, "_log_derivative", spy)
    for matrix in _small_random_tridiagonals():
        _assert_same_outcome(_outcome(eig, matrix),
                             _outcome(_guarded_loop, matrix))
    assert redone


@pytest.mark.parametrize("sweeps", [eigen._MAX_SWEEPS, 12])
def test_eig_tridiagonal_keeps_the_guarded_loops_errors_and_bits(sweeps, monkeypatch):
    # Matrices that fail before any sweep and, at a sweep limit of 12, ones
    # that run out of sweeps next to ones that finish.
    monkeypatch.setattr(eigen, "_MAX_SWEEPS", sweeps)
    big = MAX_DENSE_NODES + 1
    rng = np.random.default_rng(7)
    matrices = [
        _picture_matrix(ACCEPTANCE_SPECS["c2:sech"], "reference", 60),
        _tridiagonal([np.nan, 1.0, 2.0], [0.5, 0.5], [0.5, 0.5]),
        _random_tridiagonal(rng, "complex", 5),
        _tridiagonal(np.ones(big), np.ones(big - 1), np.ones(big - 1)),
        _tridiagonal(np.zeros(4), np.zeros(3), np.zeros(3)),
        _tridiagonal([3.0], [], []),
        _picture_matrix(ACCEPTANCE_SPECS["c2:sech"], "target", 60),
        _random_tridiagonal(rng, "real", 60),
        _random_tridiagonal(rng, "complex", 5),
    ]
    references = [_outcome(_guarded_loop, m) for m in matrices]
    assert str(references[1]) == "a band holds a non-finite entry"
    assert str(references[3]) == f"full spectra are limited to {MAX_DENSE_NODES} nodes, got {big}"
    if sweeps < eigen._MAX_SWEEPS:
        moving = [r for r in references if "still moving at the limit of 12" in str(r)]
        assert moving and sum(isinstance(r, eigen.Spectrum) for r in references) > 4
    for matrix, reference in zip(matrices, references):
        _assert_same_outcome(_outcome(eig, matrix), reference)


# The row loop as it was with six ufunc calls a row, the sixth adding each
# row's g into dlogp, kept verbatim (but for its name and the module prefix
# of _BLOCK) as the reference that the block-folding loop must reproduce bit
# for bit.
def _six_call_log_derivative(za, d0, rest, couplings, pivot=None) -> np.ndarray:
    """p'/p of det(A - zI) at za by the ratio continuant, from d_0, the array
    of d_1 ... d_{n-1} and the list of c_i = l_i u_i as 0-d arrays.  A given
    pivot stands in for an r_i that is exactly zero."""
    divide, subtract, multiply, add = np.divide, np.subtract, np.multiply, np.add
    r = d0 - za
    if pivot is not None:
        np.copyto(r, pivot, where=r == 0)
    g = -1.0 / r
    dlogp = g.copy()
    t, u, one = np.empty_like(za), np.empty_like(za), np.array(1.0 + 0j)
    rows = max(1, eigen._BLOCK // za.size)
    for i in range(0, len(rest), rows):
        # d_i - z for a block of rows in one call; every ufunc below writes
        # into a buffer given positionally, which numpy parses faster than out=
        for dz, c in zip(np.subtract.outer(rest[i:i + rows], za), couplings[i:i + rows]):
            divide(c, r, t)
            subtract(dz, t, r)
            if pivot is not None:
                np.copyto(r, pivot, where=r == 0)
            # into u, not in place: numpy's in-place complex multiply of a
            # single entry rounds differently
            multiply(t, g, u)
            subtract(u, one, u)
            divide(u, r, g)
            add(dlogp, g, dlogp)
    return dlogp


@st.composite
def _continuant_inputs(draw):
    """Roots, bands and a block size for the row loop: a block of `rows`
    rows that n - 1 is a multiple of or not, and roots where p'/p is not
    finite (r_0 = 0 exactly, a nan, an inf, whose terms hold -0 parts) or
    whose rows overflow."""
    active = draw(st.integers(1, 64))
    rows = draw(st.integers(1, 12))
    n = 1 + rows * draw(st.integers(0, 4)) + draw(st.sampled_from([0, 0, 1, rows // 2]))
    block = active * rows + draw(st.integers(0, active - 1))  # _BLOCK // active == rows
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def cnormal(size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    diag, za = cnormal(n), cnormal(active)
    couplings = cnormal(n - 1)
    for i in draw(st.lists(st.integers(0, active - 1), max_size=4)):
        za[i] = draw(st.sampled_from([diag[0], complex(np.nan, 0.0), complex(np.inf, 1.0),
                                      diag[min(1, n - 1)], 1e300 + 1e300j, complex(-0.0, -0.0)]))
    if n > 1 and draw(st.booleans()):
        couplings[rng.integers(n - 1)] = draw(st.sampled_from([0.0, 1e300]))
    return za, diag, couplings, block


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(inputs=_continuant_inputs(), guarded=st.booleans())
def test_the_row_loop_reproduces_the_six_call_loops_bits(inputs, guarded):
    # One root's block is a single column, which np.add.reduce would sum
    # pairwise: width 1 is drawn as often as any other.
    za, diag, couplings, block = inputs
    args = (za, complex(diag[0]), diag[1:], [np.array(c) for c in couplings.astype(complex)],
            1e-16 if guarded else None)
    with np.errstate(all="ignore"):
        reference = _six_call_log_derivative(*args)
        with mock.patch.object(eigen, "_BLOCK", block):
            result = eigen._log_derivative(*args)
    assert result.tobytes() == reference.tobytes()


def test_the_row_loops_buffer_holds_at_most_n_rows():
    # A few roots of a small matrix, as in the solver check's 2-8-node solves:
    # the buffer holds n - 1 rows of d_i - z and the running p'/p, not
    # _BLOCK // 2 rows (about 260 KB).
    rng = np.random.default_rng(3)
    diag, za = rng.standard_normal(8) + 0j, rng.standard_normal(2) + 1j
    couplings = [np.array(c) for c in rng.standard_normal(7).astype(complex)]
    eigen._log_derivative(za, complex(diag[0]), diag[1:], couplings)
    tracemalloc.start()
    try:
        eigen._log_derivative(za, complex(diag[0]), diag[1:], couplings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8192


# The pair sum of the guarded loop above, verbatim: every exact zero
# difference is dropped.
def _masked_pair_sums(za, z):
    block = max(1, (1 << 16) // z.size)
    pair = np.empty_like(za)
    for i in range(0, za.size, block):
        diff = za[i:i + block, None] - z
        diff[diff == 0] = np.inf  # the self term, and exact coincidences
        pair[i:i + block] = (1.0 / diff).sum(axis=1)
    return pair


@pytest.fixture
def masked_redos(monkeypatch):
    """The number of rows each redo of the pair sum with every exact zero
    dropped takes."""
    redos = []
    blocked_sums = eigen._blocked_sums

    def spy(za, z, active=None):
        if active is None:
            redos.append(za.size)
        return blocked_sums(za, z, active)

    monkeypatch.setattr(eigen, "_blocked_sums", spy)
    return redos


@pytest.mark.parametrize("odd", ["coincident", "inf", "nan"])
def test_the_pair_sum_redoes_coincident_overflowing_and_non_finite_roots(odd, masked_redos):
    # Iterates of a sweep, some moving (active) and some frozen: two that
    # coincide exactly, one on a frozen root, +0 and -0, and a pair so close
    # that 1/diff overflows; or a root that is not finite, whose self term
    # is nan (an inf root adds 0 to every other row, a nan root nan).
    rng = np.random.default_rng(11)
    z = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    active = np.r_[0:20, 33]
    if odd == "coincident":
        z[5], z[8] = z[3], z[30]
        z[10], z[11] = 1e-310, 2e-310
        z[14], z[15] = complex(-0.0, 0.0), 0.0
    else:
        z[12] = complex(np.inf, 0.0) if odd == "inf" else complex(np.nan, 1.0)
    za = z[active]
    with np.errstate(all="ignore"):
        reference = _masked_pair_sums(za, z)
        result = eigen._pair_sums(za, z, active)
    assert result.tobytes() == reference.tobytes()
    # rows 3, 5, 8, 10, 11, 14 and 15; the inf root's row; every row
    assert masked_redos == [{"coincident": 7, "inf": 1, "nan": active.size}[odd]]


@pytest.mark.parametrize("n", [8, 61, 300])
def test_eig_tridiagonal_reproduces_the_guarded_loop_bits_at_repeated_eigenvalues(n):
    # Two equal blocks split by a zero coupling: every eigenvalue is doubled,
    # and its two roots converge on one point.
    rng = np.random.default_rng(n)
    for _ in range(3):
        matrix = _random_tridiagonal(rng, "doubled", n)
        _assert_same_outcome(_outcome(eig, matrix), _outcome(_guarded_loop, matrix))
    block = _picture_matrix(ACCEPTANCE_SPECS["c2:sech"], "target", n // 2)
    matrix = _tridiagonal(np.tile(block.diag, 2), np.r_[block.lower, 0.0, block.lower],
                          np.r_[block.upper, 0.0, block.upper])
    _assert_same_outcome(_outcome(eig, matrix), _outcome(_guarded_loop, matrix))


@st.composite
def _scalable_tridiagonals(draw):
    """A seeded random tridiagonal or an acceptance-spec picture."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        kind = draw(st.sampled_from(["complex", "real", "doubled"]))
        return _random_tridiagonal(rng, kind, draw(st.integers(2, 60)))
    label = draw(st.sampled_from(sorted(ACCEPTANCE_SPECS)))
    picture = draw(st.sampled_from(["reference", "target"]))
    return _picture_matrix(ACCEPTANCE_SPECS[label], picture, draw(st.sampled_from([50, 120])))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(matrix=_scalable_tridiagonals(), j=st.integers(-900, 900))
def test_eig_tridiagonal_is_scale_equivariant_bit_for_bit(matrix, j):
    # A 2^j scaling is exact and the sweeps run at unit scale, so the roots
    # and the norm scale by exactly 2^j.  The trace error's floor of 1 is
    # absolute, so the error is not compared.
    bands = np.concatenate((matrix.lower, matrix.diag, matrix.upper)).view(float)
    assume(np.abs(bands[bands != 0]).min() >= 2.0**-100)  # clear of subnormals at 2^-900

    def scaled(x):
        return np.ldexp(np.asarray(x).view(float), j).view(complex)

    spectrum = _outcome(eig, matrix)
    result = _outcome(eig, OperatorMatrix(
        scaled(matrix.lower), scaled(matrix.diag), scaled(matrix.upper)))
    if isinstance(spectrum, Exception):
        assert type(result) is type(spectrum) and str(result) == str(spectrum)
        return
    assert isinstance(result, eigen.Spectrum)
    assert result.eigenvalues.tobytes() == scaled(spectrum.eigenvalues).tobytes()
    assert result.matrix_norm == np.ldexp(spectrum.matrix_norm, j)
