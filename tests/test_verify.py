"""Checks, level ladders, rate fits, and report serialization."""

import json
from fractions import Fraction

import numpy as np
import pytest

from pdm_spectra import (
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
    UnsupportedGeneratorError,
    VerificationReport,
    analytic_levels,
    build_spec,
    check_analytic,
    check_identities,
    check_intertwining,
    check_isospectral,
    config_from_dict,
    convergence_sweep,
    eig_lowest,
    eigensolver_validation,
    fit_decay_rate,
    isospectral_sweep,
    ordering_preset,
    samsonov_roy_levels,
    scarf2_levels,
    uniform_grid,
)
from pdm_spectra import cli, verify
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
    spec = ModelSpec.from_ordering(ScarfII(2.5), ZK, q_interval=(-8.0, 8.0))
    report = check_isospectral(spec, 240, k=2)
    assert report.passed
    assert report.details["max_gap"] <= 5e-2
    with pytest.raises(InsufficientBoundStatesError):
        check_isospectral(spec, 40, k=11)


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
    gaps = np.asarray(check_isospectral(spec, n, k).details["gaps"])
    np.testing.assert_allclose(gaps, expected, rtol=0, atol=1e-8)
    assert gaps.max() < 0.05


def test_isospectral_sweep_rate():
    spec = ModelSpec.from_ordering(ScarfII(2.5), ZK, q_interval=(-8.0, 8.0))
    report = isospectral_sweep(spec, [60, 120, 240], k=2)
    assert report.passed
    assert 1.5 <= report.details["rate"] <= 2.5
    assert report.details["gaps"][-1] < report.details["gaps"][0]


def test_check_intertwining():
    spec = ModelSpec.from_ordering(ScarfII(2.0), ZK, q_interval=(-2.0, 2.0))
    report = check_intertwining(spec, [50, 100, 200])
    assert report.passed
    assert report.details["strictly_decreasing"]
    assert report.details["rate"] >= 0.9
    # the sparse products sum in another order than dense ones would
    for n, residual in zip(report.details["n"], report.details["residual"]):
        grid = uniform_grid(*spec.x_interval, n, coordinate="x")
        ham = build_target_matrix(spec, grid).entries
        eta = build_eta_matrix(spec, grid).entries
        dense = np.linalg.norm(eta @ ham - ham.conj().T @ eta) / (
            np.linalg.norm(eta) * np.linalg.norm(ham))
        assert residual == pytest.approx(dense, rel=1e-14, abs=0)


@pytest.fixture
def refuse_dense(monkeypatch):
    """Makes densifying any OperatorMatrix fail the test."""
    def refuse(matrix):
        raise AssertionError(f"densified a {matrix.n}-node operator")

    monkeypatch.setattr(OperatorMatrix, "entries", property(refuse))


def test_banded_checks_never_densify(refuse_dense):
    # Only the solver validation builds an n x n array (and eig, where the
    # banded sweeps stall); these checks work on the bands.
    iso = ModelSpec.from_ordering(ScarfII(2.5), ZK, q_interval=(-8.0, 8.0))  # criterion 4
    assert check_isospectral(iso, 240, k=2).passed
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
    window_past = verify._window_past

    def recording(matrix, k, cutoff):
        window = window_past(matrix, k, cutoff)
        cutoffs.append(cutoff(window))
        return window

    monkeypatch.setattr(verify, "_window_past", recording)
    report = check_analytic(spec, n, **kwargs)
    details = report.details
    cutoff = _analytic_cutoff(details)
    assert cutoffs == [cutoff]
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


def test_window_past_doubles_until_it_passes_the_cutoff(monkeypatch):
    # Criterion 3's ladder tops out at 75/16 = 4.6875, and its fifth level
    # sits just below the cutoff 4.7075, so the first window of five falls short.
    matrix = build_reference_matrix(C3_SPEC, uniform_grid(*C3_SPEC.q_interval, 600,
                                                          coordinate="q"))
    cutoff = 75.0 / 16.0 + 2e-2
    sizes = []

    def counting(matrix, k):
        sizes.append(k)
        return eig_lowest(matrix, k)

    monkeypatch.setattr(verify, "eig_lowest", counting)
    window = verify._window_past(matrix, 5, lambda window: cutoff)
    assert sizes == [5, 10]
    assert window[-1].real > cutoff
    full = eig(matrix.entries).eigenvalues
    below = full[full.real <= cutoff]
    assert np.count_nonzero(window.real <= cutoff) == below.size == 5
    _assert_sets_close(below, window[window.real <= cutoff], 1e-10)


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
    with pytest.raises(ValueError):
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


def test_report_roundtrip(tmp_path):
    report = VerificationReport("demo", True, {"gap": 0.25, "n": [2, 3]})
    path = tmp_path / "report.json"
    report.save(path)
    loaded = VerificationReport.load(path)
    assert loaded.check == "demo" and loaded.passed is True
    assert loaded.details == {"gap": 0.25, "n": [2, 3]}


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
