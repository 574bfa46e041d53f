"""End-to-end runs of the command-line interface via subprocess."""

import json
import os
import subprocess
import sys
import time

import pytest

from pdm_spectra import (
    MAX_DENSE_NODES,
    NoConvergenceError,
    build_reference_matrix,
    build_spec,
    build_target_matrix,
    config_from_dict,
    convergence_sweep,
    eig,
    matched_domains,
    potential_decomposition,
    target_potential,
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


def test_solve_writes_strict_json_where_the_norm_overflows(tmp_path):
    # Every band entry is finite; only their Frobenius norm overflows
    # (v2^2 = 1.69e308).  The bands answer at unit scale, so no dense
    # fallback is noted, and the norm is written as null.
    out = tmp_path / "solve.json"
    proc = run_cli("solve", "--n", "20", "--out", str(out), "--config",
                   write_config(tmp_path, {"generator": {"kind": "scarf2", "v2": 1.3e154}}))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    payload = json.loads(out.read_text(), parse_constant=refuse)
    assert payload["matrix_norm"] is None
    assert isinstance(payload["trace_error"], float)


def test_solve_rescales_a_norm_whose_sum_of_squares_overflows(tmp_path, capsys):
    # The suite turns the RuntimeWarning of an overflowing norm into an error.
    out = tmp_path / "solve.json"
    config = write_config(tmp_path, {"generator": {"kind": "scarf2", "v2": 1e100}})
    assert cli.main(["solve", "--n", "20", "--out", str(out), "--config", config]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["matrix_norm"] == pytest.approx(1.3214144502304866e200)


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


@pytest.mark.parametrize("payload, n, notes", [
    ({}, 150, 0),
    ({"generator": {"kind": "samsonov_roy"}}, 150, 0),
    # the target picture's sweeps stall at this size, the reference's do not
    ({"generator": {"kind": "scarf2", "v2": 20}, "q_interval": [-20, 20]}, 150, 1),
    ({"generator": {"kind": "morse"}}, 50, 2),
    ({"profile": "constant"}, 150, 0),
])
def test_solve_both_equals_the_single_picture_runs(tmp_path, capsys, payload, n, notes):
    # Each picture of a solve of both keeps the spectrum and the note: line
    # it has alone, and the notes come in picture order.
    config = write_config(tmp_path, payload)
    runs = {}
    for picture in ("both", "reference", "target"):
        out = tmp_path / f"{picture}.json"
        argv = ["solve", "--picture", picture, "--n", str(n), "--config", config, "--out", str(out)]
        assert cli.main(argv) == 0
        runs[picture] = json.loads(out.read_text()), capsys.readouterr().err
    both, stderr = runs["both"]
    assert both == {"picture": "both", "reference": runs["reference"][0],
                    "target": runs["target"][0]}
    assert stderr == runs["reference"][1] + runs["target"][1]
    assert stderr.count("note: ") == notes


def _cpus(monkeypatch, count):
    """Make the process see `count` usable CPUs; with one, forking fails."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    if count == 1:
        def no_fork():
            raise AssertionError("forked with one usable CPU")

        monkeypatch.setattr(os, "fork", no_fork)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _solve_both(tmp_path, capsys, payload, n, label):
    out = tmp_path / f"{label}.json"
    argv = ["solve", "--picture", "both", "--n", str(n), "--config",
            write_config(tmp_path, payload), "--out", str(out)]
    code = cli.main(argv)
    _assert_no_child_left()
    return code, out.read_bytes() if out.exists() else None, capsys.readouterr().err


@pytest.mark.parametrize("payload, n", [({}, 150), ({"generator": {"kind": "morse"}}, 50)])
def test_solve_both_writes_the_same_bytes_forked_and_serial(tmp_path, capsys, monkeypatch,
                                                           payload, n):
    # Two usable CPUs fork one child for the target picture, one CPU solves
    # both pictures here; Morse takes the dense eig in both pictures.
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    _cpus(monkeypatch, 2)
    forked = _solve_both(tmp_path, capsys, payload, n, "forked")
    assert forks == [os.getpid()]
    _cpus(monkeypatch, 1)
    assert _solve_both(tmp_path, capsys, payload, n, "serial") == forked
    assert forked[0] == 0


def _refusing(monkeypatch, name, picture, refusal):
    """The solver cli.<name>, with `refusal` called in place of its solve of
    one picture of the default config at n = 150: the parent calls `eig` on
    the reference picture, the child `_banded` on the target."""
    spec = build_spec(config_from_dict({}))
    marked = cli.picture_matrix(spec, picture, 150)[1].diag.tobytes()
    solve = getattr(cli, name)

    def refusing(matrix):
        return refusal() if matrix.diag.tobytes() == marked else solve(matrix)

    monkeypatch.setattr(cli, name, refusing)


def test_an_error_in_the_child_exits_as_the_serial_run(tmp_path, capsys, monkeypatch):
    def refusal():
        raise NoConvergenceError("the target picture refused")

    _refusing(monkeypatch, "_banded", "target", refusal)
    runs = []
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        runs.append(_solve_both(tmp_path, capsys, {}, 150, f"cpus{cpus}"))
    refused = (2, None, "error: NoConvergenceError: the target picture refused\n")
    assert runs[0] == runs[1] == refused


def test_an_error_in_the_parent_kills_and_reaps_the_child(tmp_path, capsys, monkeypatch):
    # the child would sleep for a minute: the parent kills it
    def refusal():
        raise NoConvergenceError("the reference picture refused")

    _refusing(monkeypatch, "_banded", "target", lambda: time.sleep(60))
    _refusing(monkeypatch, "eig", "reference", refusal)
    _cpus(monkeypatch, 2)
    start = time.monotonic()
    code, out, err = _solve_both(tmp_path, capsys, {}, 150, "killed")
    assert time.monotonic() - start < 30
    assert (code, out, err) == (2, None,
                                "error: NoConvergenceError: the reference picture refused\n")


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


# The writers as they formatted one cell at a time, kept as the reference
# that the row templates must reproduce byte for byte.
def _map_one_cell_at_a_time(payload, n):
    spec = build_spec(config_from_dict(payload))
    grid_x, grid_q = matched_domains(spec, n)
    q, x = grid_q.nodes, grid_x.nodes
    mu = spec.profile.eval(x).mu
    veff = target_potential(spec, x)
    dec = potential_decomposition(spec, x)
    lines = ["q,x,mu,veff_re,veff_im,vtilde,w,v"]
    for i in range(q.size):
        lines.append(",".join("%.17g" % c for c in (
            q[i], x[i], mu[i], veff[i].real, veff[i].imag, dec.vtilde[i], dec.w[i], dec.v[i],
        )))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("payload", [
    {},
    {"generator": {"kind": "samsonov_roy"}},
    {"profile": "constant"},
    {"ordering": "GoraWilliams", "q_interval": [0.5, 8.0]},
], ids=["scarf2", "samsonov_roy", "constant-mass", "half-line"])
@pytest.mark.parametrize("n", [3, 1001])
def test_map_rows_match_the_one_cell_at_a_time_bytes(tmp_path, payload, n):
    out = tmp_path / "map.csv"
    argv = ["map", "--config", write_config(tmp_path, payload), "--n", str(n), "--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_bytes() == _map_one_cell_at_a_time(payload, n).encode()


@pytest.mark.parametrize("payload", [
    SMALL,
    {**SMALL, "generator": {"kind": "samsonov_roy"}},
], ids=["scarf2", "samsonov_roy"])
def test_sweep_rows_match_the_one_cell_at_a_time_bytes(tmp_path, payload):
    out = tmp_path / "sweep.csv"
    config = write_config(tmp_path, payload)
    assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 0
    cfg = config_from_dict(payload)
    result = convergence_sweep(build_spec(cfg), cfg.n_sweep, oracle=cfg.oracle_level)
    lines = ["n,h,error"]
    for n, h, err in zip(result["n"], result["h"], result["error"]):
        lines.append(f"{n},{'%.17g' % h},{'%.17g' % err}")
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


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

    for name in ("matched_domains", "picture_matrix"):
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
    # the package runs on numpy alone
    assert not _loads_scipy("import pdm_spectra")


def test_solve_leaves_scipy_unloaded(tmp_path):
    # the full spectrum comes from the bands with numpy alone
    out = tmp_path / "both.json"
    assert not _loads_scipy(
        "from pdm_spectra import cli\n"
        f"assert cli.main(['solve', '--picture', 'both', '--n', '60', '--out', {str(out)!r}]) == 0"
    )
    assert out.exists()


@pytest.mark.parametrize("command, payload", [
    (["verify", "--which", "all"], {}),
    (["verify", "--which", "all"], {"generator": {"kind": "samsonov_roy"}}),
    (["sweep"], {}),
    (["map"], {}),
], ids=["verify-default", "verify-samsonov_roy", "sweep", "map"])
def test_checks_leave_scipy_unloaded(tmp_path, command, payload):
    # the low windows and the intertwining residual work on the bands with
    # numpy alone
    config = write_config(tmp_path, payload)
    out = tmp_path / "out"
    argv = [*command, "--config", config, "--out", str(out)]
    assert not _loads_scipy(
        "from pdm_spectra import cli\n"
        f"assert cli.main({argv!r}) == 0"
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


@pytest.mark.parametrize("payload, message", [
    ({"generator": {"kind": "scarf2", "v2": 0.3}}, "no level"),
    ({"oracle_level": list(range(1, 11)), "n_sweep": [8, 16]}, "10 levels"),
])
def test_sweep_refuses_a_ladder_it_cannot_sweep(tmp_path, payload, message):
    # a shallow well has no bound level; ten levels do not fit on 8 nodes
    proc = run_cli("sweep", "--config", write_config(tmp_path, payload))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: InsufficientBoundStatesError: ")
    assert message in proc.stderr and "Traceback" not in proc.stderr


def test_sweep_with_as_many_ladder_levels_as_nodes(tmp_path):
    # Eight levels and windows of nine: on 8 nodes the window is clamped to
    # the whole spectrum; on 16 the Arnoldi window of nine falls short, and
    # its doubling to all 16 levels hands the matrix to eig.
    payload = {"oracle_level": [1, 2, 3, 4, 5, 6, 7, 8], "n_sweep": [8, 16]}
    proc = run_cli("sweep", "--config", write_config(tmp_path, payload))
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in proc.stdout.splitlines()]
    assert rows[0] == ["n", "h", "error"]
    assert [row[:2] for row in rows[1:]] == [["8", "1.7777777777777777"],
                                             ["16", "0.94117647058823528"]]
    assert [float(row[2]) for row in rows[1:]] == pytest.approx(
        [10.558589970063311, 5.124803981957375], rel=1e-12)
    assert proc.stderr == "rate 1.137\n"


def test_analytic_check_on_a_grid_smaller_than_its_window(tmp_path):
    # four nodes hold none of the trigonometric ladder's levels below its
    # cutoff: the window of five is clamped to the whole spectrum
    config = write_config(tmp_path, {"generator": {"kind": "samsonov_roy"}, "n": 4})
    proc = run_cli("verify", "--which", "analytic", "--config", config)
    assert proc.returncode == 1
    assert proc.stdout == ("analytic: FAIL (bound_count=0, note=fewer numerically "
                           "bound levels than the ladder predicts)\n")
    assert proc.stderr == ""


@pytest.mark.parametrize("command", [
    ["orderings"], ["map"], ["solve", "--n", "10"], ["verify", "--which", "identities"],
    ["sweep"], ["defaults"],
], ids=lambda command: command[0])
def test_out_in_a_missing_directory_is_refused_before_any_work(command, tmp_path,
                                                               monkeypatch, capsys):
    # exit 2, not the failed-check exit 1, and before the command builds anything
    def refuse(args):
        raise AssertionError("ran the command")

    for name in ("orderings", "map", "solve", "verify", "sweep", "defaults"):
        monkeypatch.setattr(cli, f"cmd_{name}", refuse)
    out = tmp_path / "missing" / "x.out"
    assert cli.main([*command, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out {out}: no such directory {out.parent}\n"
    assert not out.parent.exists()


def test_verify_reruns_are_byte_identical_at_a_conjugate_pair(tmp_path):
    # The bare trigonometric model's isospectral windows cut its conjugate
    # pair, and the Arnoldi order of the pair ends them.
    config = write_config(tmp_path, {"generator": {"kind": "samsonov_roy"}})
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = run_cli("verify", "--which", "all", "--config", config, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_missing_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 2


@pytest.mark.parametrize("bad", ["not-a-file.json"])
def test_unreadable_config(bad, tmp_path):
    proc = run_cli("verify", "--which", "identities", "--config",
                   str(tmp_path / bad))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
