"""End-to-end runs of the command-line interface via subprocess."""

import json
import subprocess
import sys

import pytest

from pdm_spectra import (
    MAX_DENSE_NODES,
    build_reference_matrix,
    build_spec,
    build_target_matrix,
    config_from_dict,
    eig,
    matched_domains,
    uniform_grid,
)
from pdm_spectra import cli
from pdm_spectra.config import DEFAULTS


def run_cli(*argv):
    # The timeout turns a lost size guard into a failure instead of a hang.
    return subprocess.run(
        [sys.executable, "-m", "pdm_spectra", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SMALL = {"n": 200, "n_sweep": [60, 120, 240], "k_levels": 2}

MORSE = {
    "generator": {"kind": "morse", "a": 1.0},
    "ordering": "GoraWilliams",
    "q_interval": [0.5, 4.0],
    "intertwine_q_interval": [0.5, 4.0],
    "n": 60,
    "n_sweep": [40, 80],
    "k_levels": 2,
}


def test_orderings_table():
    proc = run_cli("orderings")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["name", "alpha", "beta", "gamma", "delta"]
    assert len(lines) == 6
    body = proc.stdout
    for name in ("GoraWilliams", "BenDanielDuke", "ZhuKroemer", "LiKuhn",
                 "MustafaMazharimousavi"):
        assert name in body
    bdd = next(line for line in lines if line.startswith("BenDanielDuke"))
    assert "undefined" in bdd


def test_orderings_json():
    proc = run_cli("orderings", "--json")
    assert proc.returncode == 0
    rows = {row["name"]: row for row in json.loads(proc.stdout)}
    assert rows["ZhuKroemer"]["alpha"] == "-1/2"
    assert rows["ZhuKroemer"]["delta"] == "0"
    assert rows["BenDanielDuke"]["delta"] == "undefined"


def test_defaults_lists_every_key():
    proc = run_cli("defaults")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert set(payload) == set(DEFAULTS)
    assert payload["ordering"] == "ZhuKroemer"


def test_solve_writes_json(tmp_path):
    out = tmp_path / "solve.json"
    proc = run_cli("solve", "--n", "40", "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["picture"] == "reference"
    assert payload["n"] == 40
    assert len(payload["eigenvalues"]) == 40
    assert {"re", "im"} == set(payload["eigenvalues"][0])


def test_solve_reruns_are_byte_identical(tmp_path):
    # large enough that roots freeze over many sweeps
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        proc = run_cli("solve", "--picture", "both", "--n", "300", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    assert first.read_bytes() == second.read_bytes()


def test_solve_both_pictures(tmp_path):
    out = tmp_path / "both.json"
    proc = run_cli("solve", "--picture", "both", "--n", "40", "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["reference"]["grid"]["kind"] == "uniform_q"
    assert payload["target"]["grid"]["kind"] == "q_induced_x"


def test_solve_takes_dense_eig_where_the_banded_solve_stalls(tmp_path):
    # The Aberth sweeps stall on the built-in Morse generator over the default
    # q-window; solve then takes the dense eig and says so on stderr.
    blob = {"generator": {"kind": "morse"}}
    out = tmp_path / "morse.json"
    proc = run_cli("solve", "--picture", "both", "--n", "50",
                   "--config", write_config(tmp_path, blob), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("taking the dense eig") == 2
    payload = json.loads(out.read_text())
    spec = build_spec(config_from_dict(blob))
    qa, qb = spec.q_interval
    matrices = {
        "reference": build_reference_matrix(spec, uniform_grid(qa, qb, 50, coordinate="q")),
        "target": build_target_matrix(spec, matched_domains(spec, 50)[0]),
    }
    for picture, matrix in matrices.items():
        dense = eig(matrix.entries)
        got = [complex(v["re"], v["im"]) for v in payload[picture]["eigenvalues"]]
        assert got == dense.eigenvalues.tolist()
        assert payload[picture]["matrix_norm"] == dense.matrix_norm
        assert payload[picture]["trace_error"] == dense.trace_error


@pytest.mark.parametrize("command", ["solve", "map"])
def test_zero_nodes_is_refused(command):
    proc = run_cli(command, "--n", "0")
    assert proc.returncode == 2
    assert "TooFewNodesError" in proc.stderr


def test_map_row_count():
    proc = run_cli("map", "--n", "5")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "q,x,mu,veff_re,veff_im,vtilde,w,v"
    assert len(lines) == 6
    assert all(len(line.split(",")) == 8 for line in lines[1:])


def test_verify_identities():
    proc = run_cli("verify", "--which", "identities")
    assert proc.returncode == 0
    assert "identities: pass" in proc.stdout


def test_verify_failing_tolerance_exits_one(tmp_path):
    config = write_config(
        tmp_path,
        {"n_sweep": [60, 120], "tolerances": {"isospectral": 1e-9}},
    )
    proc = run_cli("verify", "--which", "isospectral", "--config", config)
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_verify_report_file(tmp_path):
    out = tmp_path / "report.json"
    config = write_config(tmp_path, SMALL)
    proc = run_cli("verify", "--which", "isospectral", "--config", config,
                   "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["check"] == "isospectral_sweep"
    assert payload["passed"] is True


def test_verify_shallow_well_notes_empty_ladder(tmp_path):
    config = write_config(
        tmp_path, {"generator": {"kind": "scarf2", "v2": 0.4}, "n": 120}
    )
    proc = run_cli("verify", "--which", "analytic", "--config", config)
    assert proc.returncode == 0
    assert "no bound levels to compare" in proc.stdout


def test_verify_all_skips_analytic_without_ladder(tmp_path):
    config = write_config(tmp_path, MORSE)
    proc = run_cli("verify", "--config", config)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 5
    analytic = next(line for line in lines if line.startswith("analytic:"))
    assert "skipped" in analytic
    assert all(": pass" in line for line in lines)


def test_verify_single_check_without_ladder_is_an_error(tmp_path):
    config = write_config(tmp_path, MORSE)
    proc = run_cli("verify", "--which", "analytic", "--config", config)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_unknown_config_key(tmp_path):
    config = write_config(tmp_path, {"bogus": 1})
    proc = run_cli("verify", "--which", "identities", "--config", config)
    assert proc.returncode == 2
    assert "unknown config keys" in proc.stderr


def test_oversized_grid_is_refused_before_allocating():
    # 16 * 100000^2 bytes would be 160 GB; the guard fires before assembly.
    proc = run_cli("solve", "--n", "100000")
    assert proc.returncode == 2
    assert "TooLargeError" in proc.stderr


@pytest.mark.parametrize("picture", ["reference", "target", "both"])
def test_oversized_solve_is_refused_before_any_grid(picture, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("built a grid or a band")

    for name in ("uniform_grid", "matched_domains", "build_reference_matrix",
                 "build_target_matrix"):
        monkeypatch.setattr(cli, name, refuse)
    argv = ["solve", "--picture", picture, "--n", str(MAX_DENSE_NODES + 1)]
    assert cli.main(argv) == 2
    assert f"TooLargeError: full spectra are limited to {MAX_DENSE_NODES} nodes" in \
        capsys.readouterr().err


def _loads_scipy(code):
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\n"
         "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1] == "True"


def test_import_leaves_scipy_unloaded():
    # scipy is imported by the low-window solver on first use only, so the
    # package import stays cheap.
    assert not _loads_scipy("import pdm_spectra")


def test_solve_leaves_scipy_unloaded(tmp_path):
    # the full spectrum comes from the bands with numpy alone
    out = tmp_path / "both.json"
    assert not _loads_scipy(
        "from pdm_spectra import cli\n"
        f"assert cli.main(['solve', '--picture', 'both', '--n', '60', '--out', {str(out)!r}]) == 0"
    )
    assert out.exists()


def test_sweep_csv_and_rate(tmp_path):
    out = tmp_path / "sweep.csv"
    config = write_config(tmp_path, SMALL)
    proc = run_cli("sweep", "--config", config, "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,h,error"
    assert len(lines) == 1 + len(SMALL["n_sweep"])
    assert proc.stderr.startswith("rate ")
    rate = float(proc.stderr.split()[1])
    assert 1.5 <= rate <= 2.5


def test_missing_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 2


@pytest.mark.parametrize("bad", ["not-a-file.json"])
def test_unreadable_config(bad, tmp_path):
    proc = run_cli("verify", "--which", "identities", "--config",
                   str(tmp_path / bad))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
