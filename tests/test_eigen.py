"""Eigensolver conventions, the low-window solver, the small-matrix oracle,
and eigenvalue set matching."""

import numpy as np
import pytest

from pdm_spectra import (
    ConstantMass,
    ModelSpec,
    NoConvergenceError,
    OperatorMatrix,
    SamsonovRoy,
    ScarfII,
    TooLargeError,
    brute_oracle_small,
    build_reference_matrix,
    build_target_matrix,
    delta_of,
    eig,
    eig_lowest,
    match_eigenvalue_sets,
    matched_domains,
    ordering_preset,
    uniform_grid,
)
from pdm_spectra import eigen

BDD = ordering_preset("BenDanielDuke")
ZK = ordering_preset("ZhuKroemer")
GW = ordering_preset("GoraWilliams")
SR_ISO_INTERVAL = (0.15, 2.0 * np.pi - 0.15)


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
    grid_x, grid_q = matched_domains(spec, n)
    if picture == "reference":
        return build_reference_matrix(spec, grid_q)
    return build_target_matrix(spec, grid_x)


def _window_gap(matrix, k, dense=None):
    """Worst matched distance between eig_lowest and the dense lowest k."""
    if dense is None:
        dense = eig(matrix).eigenvalues
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


def test_eig_accepts_operator_matrix_and_array():
    spec = ModelSpec(ScarfII(2.0), BDD, ConstantMass(), q_interval=(-2.0, 2.0))
    matrix = build_reference_matrix(spec, uniform_grid(-2.0, 2.0, 30))
    np.testing.assert_array_equal(eig(matrix).eigenvalues, eig(matrix.entries).eigenvalues)


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


def test_eig_propagates_failure():
    with pytest.raises(NoConvergenceError):
        eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_oracle_companion_matrix():
    # companion of (z-1)(z-2)(z-3) = z^3 - 6z^2 + 11z - 6
    m = np.array([[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(brute_oracle_small(m), [1.0, 2.0, 3.0], atol=1e-10)


def test_oracle_agrees_with_solver():
    rng = np.random.default_rng(11)
    for size in (2, 4, 8):
        m = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        _, gaps = match_eigenvalue_sets(brute_oracle_small(m), eig(m).eigenvalues)
        assert gaps.max() <= 1e-9


def test_oracle_defective_matrix():
    # double eigenvalue of a Jordan block: root finding stalls near sqrt(eps)
    roots = brute_oracle_small(np.array([[1.0, 1.0], [0.0, 1.0]]))
    np.testing.assert_allclose(roots, [1.0, 1.0], atol=1e-6)


def test_oracle_size_cap():
    with pytest.raises(TooLargeError):
        brute_oracle_small(np.eye(9))


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


def test_trace_error_scale_invariance():
    # relative to max(1, |tr|, sum|lambda|): big matrices do not inflate it
    rng = np.random.default_rng(3)
    m = 1e6 * rng.standard_normal((30, 30))
    assert eig(m).trace_error <= 1e-12


@pytest.mark.parametrize("picture", ["reference", "target"])
@pytest.mark.parametrize("label", sorted(ACCEPTANCE_SPECS))
def test_eig_lowest_matches_dense_on_acceptance_specs(label, picture):
    # criterion 3's model has a conjugate pair at levels 3-4 (see below)
    k = 2 if label == "c3:trig" else 4
    matrix = _picture_matrix(ACCEPTANCE_SPECS[label], picture, 300)
    assert _window_gap(matrix, k) <= 1e-10


@pytest.mark.parametrize("picture", ["reference", "target"])
def test_eig_lowest_matches_dense_at_criterion_2_size(picture):
    # the largest grid of the convergence sweep, which takes this path
    matrix = _picture_matrix(ACCEPTANCE_SPECS["c2:sech"], picture, 1200)
    assert _window_gap(matrix, 4) <= 1e-10


def test_eig_lowest_matches_dense_at_criterion_3_size():
    matrix = _picture_matrix(ACCEPTANCE_SPECS["c3:trig"], "reference", 1200)
    dense = eig(matrix).eigenvalues
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
def dense_calls(monkeypatch):
    """Records each call eig_lowest makes to the dense `eig`."""
    calls = []

    def counting_eig(*args, **kwargs):
        calls.append(1)
        return eig(*args, **kwargs)

    monkeypatch.setattr(eigen, "eig", counting_eig)
    return calls


def test_eig_lowest_matches_dense_on_random_tridiagonals(dense_calls):
    rng = np.random.default_rng(2024)
    cuts = {"tie": 0, "clear": 0}
    for kind in ("complex", "real", "doubled"):
        for _ in range(4):
            n = int(rng.integers(30, 80))
            a = _random_tridiagonal(rng, kind, n)
            dense = eig(a).eigenvalues
            for k in range(1, 9):
                dense_calls.clear()
                assert _window_gap(a, k, dense) <= 1e-10
                tied = abs(dense[k].real - dense[k - 1].real) <= 1e-8
                cuts["tie" if tied else "clear"] += 1
                # a tie at the cut goes to the dense sort; a clear cut does not
                assert bool(dense_calls) == tied
    assert min(cuts.values()) >= 10


def test_eig_lowest_takes_dense_path_at_small_n(dense_calls):
    a = _tridiagonal([4.0, 1.0, 3.0, 2.0, 5.0], [0.5] * 4, [0.25] * 4)
    low = eig_lowest(a, 2)
    assert len(dense_calls) == 1
    np.testing.assert_array_equal(low, eig(a).eigenvalues[:2])


def test_eig_lowest_matches_oracle_on_small_random_tridiagonals(dense_calls):
    # Criterion 7's LAPACK-free oracle against the low-window solver.  Up to
    # n = 4 every window goes to the dense path; from n = 5 a window of
    # k <= n - 4 levels can be proved complete by ARPACK alone.
    rng = np.random.default_rng(77)
    paths = {"arpack": 0, "dense": 0}
    for n in range(2, 9):
        for _ in range(8):
            a = _random_tridiagonal(rng, "complex", n)
            oracle = brute_oracle_small(a)
            for k in range(1, n + 1):
                dense_calls.clear()
                low = eig_lowest(a, k)
                paths["dense" if dense_calls else "arpack"] += 1
                assert match_eigenvalue_sets(low, oracle)[1].max() <= 1e-8
                # the window holds the lowest k real parts, however ties sort
                np.testing.assert_allclose(
                    np.sort(low.real), np.sort(oracle.real)[:k], rtol=0, atol=1e-8)
    assert min(paths.values()) >= 20, paths


def test_eig_lowest_rejects_bad_input():
    identity = _tridiagonal(np.ones(6), np.zeros(5), np.zeros(5))
    with pytest.raises(ValueError):
        eig_lowest(identity, 0)
    with pytest.raises(ValueError):
        eig_lowest(identity, 7)
