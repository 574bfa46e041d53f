"""Run-config validation: every bad value is a ConfigError, exit code 2."""

import json

import pytest

from pdm_spectra import ConfigError, build_spec, cli, config_from_dict


@pytest.mark.parametrize("raw", [
    {"q_interval": [-8, float("inf")]},
    {"q_interval": [float("-inf"), 8]},
    {"intertwine_q_interval": [float("nan"), 2]},
    {"alpha0": float("nan")},
    {"generator": {"kind": "scarf2", "v2": float("inf")}},
    {"generator": {"kind": "constant", "value": float("nan")}},
    {"profile": {"c1": float("inf")}},
    {"oracle_level": [float("nan")]},
    {"tolerances": {"analytic": float("nan")}},
    {"tolerances": {"isospectral": float("inf")}},
    {"q_interval": [-8, 10**400]},
])
def test_non_finite_numbers_are_refused(raw):
    # generator and profile numbers are read when the model is built
    with pytest.raises(ConfigError, match="must be finite"):
        build_spec(config_from_dict(raw))


@pytest.mark.parametrize("key", ["isospectral", "iso_rate", "analytic", "intertwine_rate",
                                 "identities", "solver", "trace"])
def test_only_the_im_tolerance_may_be_null(key):
    with pytest.raises(ConfigError, match=f"tolerances.{key} must be a number"):
        config_from_dict({"tolerances": {key: None}})
    assert config_from_dict({"tolerances": {"im": None}}).tolerances["im"] is None


@pytest.mark.parametrize("raw, argv, message", [
    ({"q_interval": [-8, float("inf")]}, ["solve"], "q_interval[1] must be finite"),
    ({"q_interval": [-8, float("inf")]}, ["solve", "--picture", "both"],
     "q_interval[1] must be finite"),
    ({"tolerances": {"analytic": float("nan")}}, ["verify", "--which", "analytic"],
     "tolerances.analytic must be finite"),
    ({"tolerances": {"isospectral": None}}, ["verify", "--which", "isospectral"],
     "tolerances.isospectral must be a number"),
    ({"tolerances": {"solver": None}}, ["verify", "--which", "solver"],
     "tolerances.solver must be a number"),
])
def test_bad_numbers_exit_two_before_running(raw, argv, message, tmp_path, capsys):
    # json writes NaN and Infinity, and reads them back, as the CLI does
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert cli.main([*argv, "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
