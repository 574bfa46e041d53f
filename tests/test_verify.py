"""Checks, level ladders, rate fits, and report serialization."""

import json
from fractions import Fraction

import numpy as np
import pytest

from pdm_spectra import (
    Constant,
    ConstantMass,
    InsufficientBoundStatesError,
    ModelSpec,
    OperatorMatrix,
    build_eta_matrix,
    build_reference_matrix,
    build_target_matrix,
    eig,
    match_eigenvalue_sets,
    matched_domains,
    Morse,
    SAMSONOV_ROY_MISSING_LEVEL,
    SamsonovRoy,
    ScarfII,
    TooLargeError,
    UnsupportedGeneratorError,
    VerificationReport,
    analytic_levels,
    brute_oracle_small,
    build_spec,
    check_analytic,
    check_identities,
    check_intertwining,
    config_from_dict,
    convergence_sweep,
    eig_lowest,
    eigensolver_validation,
    fit_decay_rate,
    isospectral_sweep,
    ordering_preset,
    picture_matrix,
    samsonov_roy_levels,
    scarf2_levels,
    uniform_grid,
)
from pdm_spectra import cli, eigen, verify
from pdm_spectra.config import build_intertwine_spec
from pdm_spectra.verify import SAMSONOV_ROY_MISSING_WINDOW, atomic_write_text

ZK = ordering_preset("ZhuKroemer")
C2_SPEC = ModelSpec.from_ordering(ScarfII(2.5), ZK, q_interval=(-12.0, 12.0))
C3_SPEC = ModelSpec.from_ordering(SamsonovRoy(), ZK, q_interval=(-np.pi, np.pi), c2=2.0)


def test_scarf2_ladder():
    np.testing.assert_allclose(scarf2_levels(2.5), [-4.0, -1.0])
    np.testing.assert_allclose(scarf2_levels(-2.5), [-4.0, -1.0])  # depth is |v2|
    np.testing.assert_allclose(scarf2_levels(1.5), [-1.0])
    assert scarf2_levels(0.4).size == 0  # too shallow to bind


def test_samsonov_roy_ladder():
    np.testing.assert_allclose(
        samsonov_roy_levels(), [-21.0 / 16.0, 11.0 / 16.0, 39.0 / 16.0, 75.0 / 16.0]
    )
    assert SAMSONOV_ROY_MISSING_LEVEL == -9.0 / 16.0
    # the hole is well separated from its neighbours
    assert np.min(np.abs(samsonov_roy_levels() - SAMSONOV_ROY_MISSING_LEVEL)) == pytest.approx(0.75)


def test_analytic_levels_dispatch():
    assert analytic_levels(ScarfII(2.5)).size == 2
    assert analytic_levels(SamsonovRoy()).size == 4
    with pytest.raises(UnsupportedGeneratorError):
        analytic_levels(Morse())


def test_fit_decay_rate():
    h = np.array([0.1, 0.05, 0.025])
    assert fit_decay_rate(h, 3.0 * h**2) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_decay_rate([0.1], [0.01])


def test_fit_decay_rate_survives_exact_zero():
    assert fit_decay_rate([0.1, 0.05], [1e-3, 0.0]) > 100.0


def test_check_isospectral():
    # the matched gaps of one grid of isospectral_sweep
    spec = ModelSpec.from_ordering(ScarfII(2.5), ZK, q_interval=(-8.0, 8.0))
    assert verify._iso_gaps(spec, 240, 2).max() <= 5e-2
    with pytest.raises(InsufficientBoundStatesError):
        verify._iso_gaps(spec, 40, 11)


@pytest.mark.parametrize("k", [3, 4])
def test_check_isospectral_pairs_conjugates_across_the_cut(k):
    # Levels 3-4 of the trigonometric model on (-pi, pi) are a conjugate pair
    # with equal real parts, so rounding alone orders its members.  At
    # n = 200 the reference picture lists -0.039i first and the target
    # picture +0.085i first: a positional compare reports 0.124 for a pair
    # whose matched members are 0.045 apart.
    spec = ModelSpec.from_ordering(SamsonovRoy(), ZK, q_interval=(-np.pi, np.pi), c2=2.0)
    n = 200
    grid_x, grid_q = matched_domains(spec, n)
    vals_q = eig(build_reference_matrix(spec, grid_q).entries).eigenvalues
    vals_x = eig(build_target_matrix(spec, grid_x).entries).eigenvalues
    assert np.abs(vals_x[2:4] - vals_q[2:4]).max() > 0.1
    expected = match_eigenvalue_sets(vals_q[:k], vals_x[:k + 1])[1]
    gaps = verify._iso_gaps(spec, n, k)
    np.testing.assert_allclose(gaps, expected, rtol=0, atol=1e-8)
    assert gaps.max() < 0.05


def test_isospectral_sweep_rate():
    spec = ModelSpec.from_ordering(ScarfII(2.5), ZK, q_interval=(-8.0, 8.0))
    report = isospectral_sweep(spec, [60, 120, 240], k=2)
    assert report.passed
    assert 1.5 <= report.details["rate"] <= 2.5
    assert report.details["gaps"][-1] < report.details["gaps"][0]


def test_isospectral_sweep_passes_identical_pictures():
    # Under constant mass both pictures are one operator: every gap is an
    # exact zero, which has no decay rate to fit.
    spec = ModelSpec(Constant(), ordering_preset("BenDanielDuke"), ConstantMass())
    report = isospectral_sweep(spec, [60, 120], k=2)
    assert report.details["gaps"] == [0.0, 0.0]
    assert report.details["rate"] < 1.0
    assert report.passed


def test_check_intertwining():
    spec = ModelSpec.from_ordering(ScarfII(2.0), ZK, q_interval=(-2.0, 2.0))
    report = check_intertwining(spec, [50, 100, 200])
    assert report.passed
    assert report.details["strictly_decreasing"]
    assert report.details["rate"] >= 0.9
    # the banded products sum in another order than dense ones would
    for n, residual in zip(report.details["n"], report.details["residual"]):
        grid = uniform_grid(*spec.x_interval, n, coordinate="x")
        ham = build_target_matrix(spec, grid).entries
        eta = build_eta_matrix(spec, grid).entries
        dense = np.linalg.norm(eta @ ham - ham.conj().T @ eta) / (
            np.linalg.norm(eta) * np.linalg.norm(ham))
        assert residual == pytest.approx(dense, rel=1e-14, abs=0)


def test_check_intertwining_rescales_norms_whose_sum_of_squares_overflows():
    # Scarf II with v2 = 1e100: every band entry is finite, but the plain
    # sums of squares of the products overflow.  The norms are rescaled, so
    # the residuals are finite numbers, with no warning (the suite makes one
    # an error).
    spec = ModelSpec.from_ordering(ScarfII(1e100), ZK, q_interval=(-2.0, 2.0))
    report = check_intertwining(spec, [200, 400, 800])
    assert all(0.0 < residual < 1e-100 for residual in report.details["residual"])
    assert report.details["strictly_decreasing"]
    assert report.details["rate"] == pytest.approx(0.5, abs=0.01)


def test_check_intertwining_scales_product_bands_that_would_overflow():
    # Scarf II with v2 = 1.3e154: the band entries reach v2^2 = 1.69e308, so
    # their products overflow unless the factors are scaled first.
    spec = ModelSpec.from_ordering(ScarfII(1.3e154), ZK, q_interval=(-2.0, 2.0))
    residuals = check_intertwining(spec, [200, 400, 800]).details["residual"]
    assert all(np.isfinite(residuals)) and min(residuals) > 0.0


@pytest.mark.parametrize("payload", [{}, {"generator": {"kind": "samsonov_roy"}}],
                         ids=["scarf2", "samsonov_roy"])
def test_check_intertwining_keeps_the_unscaled_bits(payload):
    # Scaling each factor by a power of two is exact, so the paper specs'
    # residuals equal those of the unscaled products bit for bit.
    spec = build_intertwine_spec(config_from_dict(payload))
    n_list = [200, 400, 800]
    residuals = []
    for n in n_list:
        grid = uniform_grid(*spec.x_interval, n, coordinate="x")
        ham, eta = build_target_matrix(spec, grid), build_eta_matrix(spec, grid)
        adjoint = OperatorMatrix(ham.upper.conj(), ham.diag.conj(), ham.lower.conj())
        mismatch = [a - b for a, b in zip(verify._product_bands(eta, ham),
                                          verify._product_bands(adjoint, eta))]
        norms = [np.linalg.norm(np.concatenate((m.lower, m.diag, m.upper))) for m in (eta, ham)]
        residuals.append(float(np.linalg.norm(np.concatenate(mismatch)) / (norms[0] * norms[1])))
    assert check_intertwining(spec, n_list).details["residual"] == residuals


def test_oracle_sizes_an_operator_before_densifying(refuse_dense):
    with pytest.raises(TooLargeError, match="oracle accepts matrices up to size 8, got 9"):
        brute_oracle_small(OperatorMatrix(np.ones(8), np.ones(9), np.ones(8)))


@pytest.mark.parametrize("generator", [{"kind": "scarf2", "v2": 2.5}, {"kind": "samsonov_roy"}])
def test_alpha0_shifts_the_ladders_and_closed_forms(generator):
    cfg = config_from_dict({"generator": generator})
    tol = cfg.tolerances
    gaps = []
    for alpha0 in (0.0, 1.0):
        spec = build_spec(config_from_dict({"generator": generator, "alpha0": alpha0}))
        report = check_analytic(spec, cfg.n, tol=tol["analytic"], im_tol=tol["im"])
        assert report.passed, report.details
        assert check_identities(spec, tol=tol["identities"]).passed
        gaps.append(report.details["max_gap"])
        sweep = convergence_sweep(spec, [100, 200])
        assert sweep["levels"] == [complex(v + alpha0) for v in analytic_levels(spec.generator)]
        assert sweep["error"][-1] < sweep["error"][0]
    assert gaps[1] == pytest.approx(gaps[0], abs=1e-9)


def test_banded_checks_never_densify(refuse_dense):
    # Only the solver validation builds an n x n array (and eig, where the
    # banded sweeps stall); these checks work on the bands.
    iso = ModelSpec.from_ordering(ScarfII(2.5), ZK, q_interval=(-8.0, 8.0))  # criterion 4
    assert verify._iso_gaps(iso, 240, 2).max() <= 5e-2
    assert isospectral_sweep(iso, [60, 120, 240], k=2).passed
    for picture in ("reference", "target"):  # criterion 2
        result = convergence_sweep(C2_SPEC, [300, 600], picture=picture)
        assert result["error"][-1] < result["error"][0]
    assert check_analytic(C2_SPEC, 300, tol=1e-2, im_tol=1e-6).passed
    assert check_analytic(C3_SPEC, 600).passed  # criterion 3
    residual = ModelSpec.from_ordering(ScarfII(2.0), ZK, q_interval=(-2.0, 2.0))  # criterion 5
    assert check_intertwining(residual, [100, 200, 400]).passed
    with pytest.raises(AssertionError, match="densified"):
        build_reference_matrix(iso, matched_domains(iso, 20)[1]).entries


def test_solve_never_densifies(refuse_dense, tmp_path):
    out = tmp_path / "both.json"
    assert cli.main(["solve", "--picture", "both", "--n", "120", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["reference"]["eigenvalues"]) == len(payload["target"]["eigenvalues"]) == 120


def _assert_sets_close(expected, actual, atol):
    """Matched-set agreement; the members of a conjugate pair (|Im| > 1e-6,
    ill-conditioned where two real levels met) are held to 1e-7 only."""
    expected = np.asarray(expected)
    gaps = match_eigenvalue_sets(expected, actual)[1]
    bound = np.where(np.abs(expected.imag) > 1e-6, 1e-7, atol)
    assert np.all(gaps <= bound), (gaps, bound)


def _analytic_cutoff(details):
    """The real cutoff check_analytic solves up to, recomputed from its report."""
    if "continuum_threshold" in details:
        return details["continuum_threshold"]
    return max(max(details["levels"]) + details["tol"],
               SAMSONOV_ROY_MISSING_LEVEL + SAMSONOV_ROY_MISSING_WINDOW)


@pytest.mark.parametrize("label", ["c2", "c3", "default"])
def test_check_analytic_agrees_with_dense_eig(label, monkeypatch):
    spec, n, kwargs = {
        "c2": (C2_SPEC, 300, {"tol": 1e-2, "im_tol": 1e-6}),
        "c3": (C3_SPEC, 600, {"tol": 2e-2}),
        "default": (build_spec(config_from_dict({})), 400, {"tol": 2e-2}),
    }[label]
    cutoffs = []

    def recording(matrix, k, past):
        def rule(window):
            cutoffs.append(past(window))
            return cutoffs[-1]

        return eig_lowest(matrix, k, rule)

    monkeypatch.setattr(verify, "eig_lowest", recording)
    report = check_analytic(spec, n, **kwargs)
    details = report.details
    cutoff = _analytic_cutoff(details)
    # the stopping rule is the cutoff, whichever window it is asked about
    assert cutoffs and set(cutoffs) == {cutoff}
    # the same report, from every level of the same matrix
    full = eig(build_reference_matrix(spec, uniform_grid(*spec.q_interval, n,
                                                         coordinate="q")).entries).eigenvalues
    candidates = full[(np.abs(full.imag) <= details["im_tol"]) & (full.real < cutoff)]
    assert details["bound_count"] == candidates.size
    oracle = np.asarray(details["levels"])
    gaps = match_eigenvalue_sets(oracle, candidates)[1]
    passed = gaps.max() <= details["tol"]
    if "continuum_threshold" in details:
        passed = passed and candidates.size == oracle.size
    else:
        clearance = np.min(np.abs(full - SAMSONOV_ROY_MISSING_LEVEL))
        assert details["missing_level_clearance"] == pytest.approx(clearance, rel=0, abs=1e-10)
        passed = passed and clearance >= SAMSONOV_ROY_MISSING_WINDOW
    assert report.passed == passed
    # The pair's two members are equally near 39/16, so rounding picks one:
    # each picked level is checked against the dense candidates as a set.
    _assert_sets_close(details["matched"], candidates, 1e-10)
    np.testing.assert_allclose(details["gaps"], gaps, rtol=0,
                               atol=1e-7 if label == "c3" else 1e-10)


def test_eig_lowest_doubles_its_window_until_it_passes_the_cutoff(arnoldi_builds):
    # Criterion 3's ladder tops out at 75/16 = 4.6875, and its fifth level
    # sits just below the cutoff 4.7075, so the first window of five falls short.
    matrix = build_reference_matrix(C3_SPEC, uniform_grid(*C3_SPEC.q_interval, 600,
                                                          coordinate="q"))
    cutoff = 75.0 / 16.0 + 2e-2
    sizes = []

    def past(window):
        sizes.append(window.size)
        return cutoff

    window = eig_lowest(matrix, 5, past)
    assert sizes == [5, 10]
    # the window of ten grows the same Krylov space as the window of five
    assert arnoldi_builds == [600]
    assert window[-1].real > cutoff
    full = eig(matrix.entries).eigenvalues
    below = full[full.real <= cutoff]
    assert np.count_nonzero(window.real <= cutoff) == below.size == 5
    _assert_sets_close(below, window[window.real <= cutoff], 1e-10)


DEEP_WELL = build_spec(config_from_dict(
    {"generator": {"kind": "scarf2", "v2": 20}, "q_interval": [-20, 20]}))
WIDE_WINDOW = build_spec(config_from_dict({"q_interval": [-20, 20]}))


def _symmetric_form(matrix):
    """The diagonally similar matrix whose off-diagonals both equal
    lower * sqrt(upper / lower)."""
    coupling = matrix.lower * np.sqrt(matrix.upper / matrix.lower)
    return OperatorMatrix(coupling, matrix.diag, coupling)


@pytest.mark.parametrize("spec, n, k", [(WIDE_WINDOW, 80, 20), (WIDE_WINDOW, 120, 30),
                                        (WIDE_WINDOW, 160, 40), (DEEP_WELL, 40, 10)])
def test_iso_gaps_match_against_the_whole_target_spectrum(spec, n, k):
    # All but two of the reference levels here are box modes, and their
    # greedy matches in the target picture reach past its lowest k + 1
    # levels: a target window of k + 1 levels is off by up to 1.9 here.
    reference = eig_lowest(picture_matrix(spec, "reference", n)[1], k)
    target = eig(picture_matrix(spec, "target", n)[1]).eigenvalues
    expected = match_eigenvalue_sets(reference, target)[1]
    np.testing.assert_allclose(verify._iso_gaps(spec, n, k), expected, rtol=0, atol=1e-10)


def test_ladder_gaps_match_against_the_whole_spectrum(monkeypatch):
    # Seeded random tridiagonals and level sets: the grown window picks
    # what the greedy match over the full spectrum picks, whether the
    # Arnoldi window answers or the window reaches far enough up to hand
    # the matrix to eig.
    full_solves = []

    def counting_eig(matrix):
        full_solves.append(matrix.n)
        return eig(matrix)

    monkeypatch.setattr(eigen, "eig", counting_eig)
    rng = np.random.default_rng(13)

    def cnormal(size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    draws = 200
    for _ in range(draws):
        n = int(rng.integers(20, 61))
        diag = np.sort(rng.uniform(0.0, n / 4, n)) + cnormal(n)
        matrix = OperatorMatrix(cnormal(n - 1), diag, cnormal(n - 1))
        size = int(rng.integers(1, 9))
        levels = rng.uniform(0.0, n / 16, size) + 1j * rng.standard_normal(size)
        expected = match_eigenvalue_sets(levels, eig(matrix.entries).eigenvalues)[1]
        np.testing.assert_allclose(verify._ladder_gaps(levels, matrix), expected,
                                   rtol=0, atol=1e-10)
    assert 20 <= len(full_solves) <= draws - 20


@pytest.mark.parametrize("picture", ["reference", "target"])
def test_deep_well_sweep_factors_each_grid_once(picture, arnoldi_builds, monkeypatch):
    # The 20-level Scarf II ladder sits below the continuum's box modes, and
    # each window must reach past the ladder by its worst gap: 21, 42 and
    # then 84 levels per grid.  One Krylov space per grid reaches its basis
    # limit on the first window already, and eig's spectrum gives them all.
    windows = []

    def recording(matrix, k, past):
        window = eig_lowest(matrix, k, past)
        windows.append((matrix, window, past(window)))
        return window

    monkeypatch.setattr(verify, "eig_lowest", recording)
    convergence_sweep(DEEP_WELL, [200, 400, 800], picture=picture)
    assert arnoldi_builds == [200, 400, 800]
    assert [window.size for _, window, _ in windows] == [84, 84, 84]
    for matrix, window, cutoff in windows:
        assert window[-1].real > cutoff
        # The target picture's box modes above 0 are ill-conditioned on its
        # unsymmetrized bands, so dense eig solves the symmetric form that
        # eig_lowest's Arnoldi processes run on.
        full = eig(_symmetric_form(matrix).entries).eigenvalues
        below = full[full.real <= cutoff]
        got = window[window.real <= cutoff]
        assert got.size == below.size
        assert match_eigenvalue_sets(below, got)[1].max() <= 1e-10


def test_check_analytic_sech_model():
    spec = ModelSpec.from_ordering(ScarfII(2.5), ZK, q_interval=(-8.0, 8.0))
    report = check_analytic(spec, 300)
    assert report.passed
    assert report.details["bound_below_threshold"] == 2
    # the lowest box modes of the 16-wide window are not bound states
    assert report.details["bound_count"] == 2
    assert report.details["max_gap"] <= 2e-2


def test_check_analytic_empty_ladder_passes_with_note():
    spec = ModelSpec.from_ordering(ScarfII(0.4), ZK, q_interval=(-8.0, 8.0))
    report = check_analytic(spec, 120)
    assert report.passed
    assert report.details["note"] == "no bound levels to compare"
    assert report.details["bound_count"] == 0


def test_check_analytic_refuses_a_ladder_longer_than_the_grid(monkeypatch):
    # 20 Scarf II levels do not fit on 10 nodes: refused before a grid is built
    def refuse(*args):
        raise AssertionError("built a grid")

    monkeypatch.setattr(verify, "picture_matrix", refuse)
    spec = ModelSpec.from_ordering(ScarfII(20.0), ZK, q_interval=(-20.0, 20.0))
    with pytest.raises(InsufficientBoundStatesError, match="a ladder of 20 levels"):
        check_analytic(spec, 10)


def test_check_analytic_trigonometric_model():
    """The n = 4 level appears as a conjugate pair with O(h) imaginary split,
    so matching runs on complex modulus; the absent n = 2 level must stay
    clear of the whole spectrum."""
    report = check_analytic(C3_SPEC, 600)
    assert report.passed
    assert report.details["max_gap"] <= 2e-2
    assert report.details["missing_level_clearance"] >= 0.2
    # the four ladder levels, the n = 4 one as both members of its pair
    assert report.details["bound_count"] == 5
    # The pair has |Im| ~ 0.0099 here, so im_tol = 1e-3 drops it from the
    # candidates and the ladder can no longer be matched.
    assert check_analytic(C3_SPEC, 600, im_tol=1e-3).passed is False


def test_check_identities_all_routes():
    spec = ModelSpec.from_ordering(ScarfII(2.5), ZK, q_interval=(-8.0, 8.0))
    report = check_identities(spec)
    assert report.passed
    assert report.details["triangle_gap"] <= 1e-12
    assert report.details["ordering_terms_gap"] <= 1e-12
    assert report.details["closed_form_gap"] <= 1e-12


def test_check_identities_without_closed_form():
    spec = ModelSpec.from_ordering(Morse(), ordering_preset("GoraWilliams"), q_interval=(0.5, 4.0))
    report = check_identities(spec)
    assert report.passed
    assert report.details["closed_form_gap"] is None
    assert "note" in report.details


def test_convergence_sweep():
    spec = ModelSpec.from_ordering(ScarfII(2.5), ZK, q_interval=(-8.0, 8.0))
    result = convergence_sweep(spec, [60, 120, 240], picture="reference")
    assert result["error"][-1] < result["error"][0]
    assert 1.5 <= result["rate"] <= 2.5
    with pytest.raises(ValueError):
        convergence_sweep(spec, [60, 120], picture="mass")
    with pytest.raises(InsufficientBoundStatesError):
        convergence_sweep(spec, [60, 120], oracle=[])


def test_convergence_sweep_target_picture():
    spec = ModelSpec.from_ordering(ScarfII(2.5), ZK, q_interval=(-8.0, 8.0))
    result = convergence_sweep(spec, [80, 160], picture="target", oracle=[-4.0])
    assert result["error"][-1] < result["error"][0]


def test_eigensolver_validation_report():
    report = eigensolver_validation(seed=99, count=12)
    assert report.passed
    assert report.details["deterministic"] is True
    assert report.details["worst_gap"] <= 1e-8
    assert report.details["worst_trace_error"] <= 1e-10
    assert report.details["tridiagonal_worst_gap"] <= 1e-8
    assert report.details["tridiagonal_worst_trace_error"] <= 1e-10


@pytest.mark.parametrize("count", [0, -3])
def test_eigensolver_validation_refuses_a_count_below_one(count, monkeypatch):
    def refuse(*args):
        raise AssertionError("drew a matrix")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(ValueError, match=f"need count >= 1, got {count}"):
        eigensolver_validation(count=count)


def test_report_roundtrip(tmp_path):
    report = VerificationReport("demo", True, {"gap": 0.25, "n": [2, 3]})
    path = tmp_path / "report.json"
    report.save(path)
    with open(path, encoding="utf-8") as fh:
        loaded = json.load(fh)
    assert loaded["check"] == "demo" and loaded["passed"] is True
    assert loaded["details"] == {"gap": 0.25, "n": [2, 3]}


def test_report_json_safety():
    report = VerificationReport(
        "demo",
        False,
        {
            "inf": float("inf"),
            "z": 1.0 + 2.0j,
            "frac": Fraction(1, 2),
            "arr": np.arange(3),
            "np_scalar": np.float64(0.5),
        },
    )
    payload = report.to_dict()["details"]
    assert payload["inf"] is None  # non-finite floats are nulled, not emitted
    assert payload["z"] == {"re": 1.0, "im": 2.0}
    assert payload["frac"] == "1/2"
    assert payload["arr"] == [0, 1, 2]
    assert payload["np_scalar"] == 0.5
    json.dumps(payload)  # must be serializable as-is


def test_report_bytes_deterministic(tmp_path):
    spec = ModelSpec.from_ordering(ScarfII(2.5), ZK, q_interval=(-8.0, 8.0))
    a = check_identities(spec).to_json()
    b = check_identities(spec).to_json()
    assert a == b


def test_atomic_write_replaces_content(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first\n")
    atomic_write_text(path, "second\n")
    assert path.read_text() == "second\n"
    leftovers = [p for p in path.parent.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_atomic_write_of_parts_writes_their_join(tmp_path):
    parts = ("q,x\n", "0.5,\u03bc\n", "", "1e-300,2\n")
    atomic_write_text(tmp_path / "parts.csv", *parts)
    atomic_write_text(tmp_path / "joined.csv", "".join(parts))
    assert (tmp_path / "parts.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()
