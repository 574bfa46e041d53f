"""Run-config validation: every bad value is a ConfigError, exit code 2."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pdm_spectra import (
    DEFAULTS,
    ConfigError,
    PdmSpectraError,
    SamsonovRoy,
    cli,
    config_from_dict,
    operators,
    ordering_preset,
    verify,
)
from pdm_spectra.config import DEFAULT_TOLERANCES


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
    with pytest.raises(ConfigError, match="must be finite"):
        config_from_dict(raw)


def test_oracle_level_is_a_number_or_a_non_empty_list():
    assert config_from_dict({"oracle_level": 2}).oracle_level == [2.0]
    assert config_from_dict({"oracle_level": [1, 2.5]}).oracle_level == [1.0, 2.5]
    with pytest.raises(ConfigError, match="oracle_level list must not be empty"):
        config_from_dict({"oracle_level": []})


@pytest.mark.parametrize("key", ["isospectral", "iso_rate", "analytic", "intertwine_rate",
                                 "identities", "solver", "trace"])
def test_only_the_im_tolerance_may_be_null(key):
    with pytest.raises(ConfigError, match=f"tolerances.{key} must be a number"):
        config_from_dict({"tolerances": {key: None}})
    assert config_from_dict({"tolerances": {"im": None}}).tolerances["im"] is None


# Model fields are built at load, so even the solver check, which builds no
# model, refuses them.
BAD_MODEL_FIELDS = [
    ({"generator": {"kind": "scarf2", "V2": 3}}, "unknown scarf2 fields: V2"),
    ({"ordering": "nonsense"}, "unknown ordering preset 'nonsense'; known: GoraWilliams, "),
    ({"profile": {"c1": "x"}}, "profile.c1 must be a number, got 'x'"),
    ({"ordering": "BenDanielDuke"},
     "BetaMinusOneError: delta is undefined for beta = -1 (ordering BenDanielDuke)"),
    ({"out": "report.json"}, "unknown config keys: out"),
]


WIDE_FLAT = {"q_interval": [-1e300, 1e300], "profile": "constant",
             "generator": {"kind": "constant", "value": 0}}
TINY = {"q_interval": [0, 1e-300]}
DEEP = {"generator": {"kind": "scarf2", "v2": 1e200}}


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
] + [(raw, ["verify", "--which", which], message)
     for raw, message in BAD_MODEL_FIELDS for which in ("solver", "intertwining")] + [
    ({"seed": -3}, ["verify", "--which", "solver"], "seed must be non-negative, got -3"),
    ({}, ["verify", "--which", "solver", "--seed", "-1"], "seed must be non-negative, got -1"),
    # h^2 underflows to 0: 1/h^2 is not a finite float
    (TINY, ["solve"], "BadIntervalError: grid spacing h = 2.49e-303"),
    (TINY, ["verify", "--which", "isospectral"], "BadIntervalError: grid spacing h = 4.98e-303"),
    # The constant model maps q to itself and has no cosh to overflow, so
    # h^2 is the first number out of range, in both pictures.
    (WIDE_FLAT, ["solve"], "BadIntervalError: grid spacing h = 4.99e+297"),
    (WIDE_FLAT, ["solve", "--picture", "target"], "BadIntervalError: grid spacing h = 4.99e+297"),
    # a ladder of 1e100 levels is refused before a level is listed
    ({"generator": {"kind": "scarf2", "v2": 1e100}}, ["sweep"],
     "InsufficientBoundStatesError: a ladder of 1e+100 levels"),
    ({"generator": {"kind": "scarf2", "v2": 1e100}}, ["verify", "--which", "analytic"],
     "InsufficientBoundStatesError: a ladder of 1e+100 levels"),
    # the induced x-grid is built only from a checked flat grid
    (TINY, ["solve", "--picture", "target"], "BadIntervalError: grid spacing h = 2.49e-303"),
    (TINY, ["map"], "BadIntervalError: grid spacing h = 2.49e-303"),
] + [(DEEP, argv, "bad generator: v2 = 1e+200 has no finite square v2^2")
     for argv in (["solve"], ["verify", "--which", "identities"],
                  ["verify", "--which", "intertwining"])] + [
    # x = exp(q) overflows on this window, which is refused before any warning
    ({"q_interval": [-1e300, 1e300]}, [command], "OutOfRangeError: q interval (-1e+300, 1e+300)")
    for command in ("map", "solve")
] + [
    # x = exp(q) is finite here, but the mapped spacings square to 0
    ({"q_interval": [-740, -700]}, argv, f"BadIntervalError: mapped grid spacing h = {h}")
    for argv, h in ((["solve", "--picture", "target"], "4.45e-323"),
                    (["verify", "--which", "isospectral"], "8.89e-323"),
                    (["map"], "4.45e-323"))
] + [
    # F = exp(-q) squares past the float range here: refused before any
    # warning, and before the bands are assembled
    ({"generator": {"kind": "morse"}, "q_interval": [-740, -700]}, argv,
     "OutOfRangeError: the reference potential of Morse(a=1) is not finite")
    for argv in (["solve", "--picture", "reference", "--n", "50"], ["map"])
] + [
    (DEEP, ["sweep"], "bad generator: v2 = 1e+200 has no finite square v2^2"),
])
def test_bad_numbers_exit_two_before_running(raw, argv, message, tmp_path, capsys):
    # json writes NaN and Infinity, and reads them back, as the CLI does
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert cli.main([*argv, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["solve", "--n", "50"], ["map"]])
def test_a_window_where_cosh_overflows_runs_without_a_warning(argv, tmp_path, capsys):
    # sech = 1/cosh(1000) = 0 is exact; the suite turns a RuntimeWarning into an error
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"ordering": "GoraWilliams", "q_interval": [0.5, 1000],
                                "intertwine_q_interval": [0.5, 4]}))
    assert cli.main([*argv, "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_an_ordering_object_is_parsed_like_its_preset():
    custom = config_from_dict({"ordering": {"alpha": -0.5, "beta": 0, "gamma": -0.5}})
    preset = config_from_dict({"ordering": "ZhuKroemer"})
    zk = ordering_preset("ZhuKroemer")
    assert (custom.ordering.alpha, custom.ordering.beta, custom.ordering.gamma) == (
        zk.alpha, zk.beta, zk.gamma)
    assert custom.profile == preset.profile


@pytest.mark.parametrize("ordering, message", [
    ({"alpha": -0.5, "beta": 0}, "custom ordering needs alpha, beta, and gamma"),
    ({"alpha": -0.5, "beta": 0, "gamma": -0.5, "delta": 0}, "unknown ordering fields: delta"),
    ({"alpha": "x", "beta": 0, "gamma": -2}, "ordering.alpha is not a rational number: 'x'"),
    ({"alpha": True, "beta": 0, "gamma": -2}, "ordering.alpha must be a number, got True"),
    ({"alpha": 0, "beta": 0, "gamma": 0}, "bad ordering: ordering exponents must sum to -1"),
])
def test_a_bad_ordering_object_is_refused(ordering, message):
    with pytest.raises(ConfigError, match=message.replace("(", r"\(")):
        config_from_dict({"ordering": ordering})


def test_window_outside_the_map_waits_for_the_command_that_needs_it(tmp_path, capsys):
    # (-2, 2), the default intertwining window, is not attained by the
    # GoraWilliams map; only the intertwining check reads it.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"ordering": "GoraWilliams", "q_interval": [0.5, 8]}))
    assert cli.main(["solve", "--n", "30", "--config", str(path)]) == 0
    assert cli.main(["verify", "--which", "intertwining", "--config", str(path)]) == 2
    assert "OutOfRangeError" in capsys.readouterr().err


def test_trigonometric_generator_defaults_to_one_period(tmp_path, capsys):
    cfg = config_from_dict({"generator": {"kind": "samsonov_roy"}})
    assert isinstance(cfg.generator, SamsonovRoy)
    assert cfg.q_interval == (-math.pi, math.pi)
    assert (cfg.profile.c1, cfg.profile.c2) == (1.0, 2.0)
    explicit = config_from_dict({"generator": {"kind": "samsonov_roy"}, "q_interval": [-8, 8]})
    assert explicit.q_interval == (-8.0, 8.0)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"generator": {"kind": "samsonov_roy"}}))
    assert cli.main(["verify", "--which", "analytic", "--config", str(path)]) == 0
    assert capsys.readouterr().out.startswith("analytic: pass (max_gap=1.970e-02")
    # the printed defaults stay those of the sech model
    assert cli.main(["defaults"]) == 0
    assert json.loads(capsys.readouterr().out)["q_interval"] == [-8.0, 8.0]


# Each object of a config that names its fields: the names it knows, a
# config holding it with what it needs beside the given fields, and its
# refusal of the sorted unknown names.
_FIELD_OWNERS = {
    "top level": (set(DEFAULTS), lambda fields: {"n": 50, **fields},
                  lambda names: f"unknown config keys: {', '.join(names)}"),
    "tolerances": (set(DEFAULT_TOLERANCES),
                   lambda fields: {"tolerances": {"solver": 1e-8, **fields}},
                   lambda names: f"unknown tolerance keys: {', '.join(names)}"),
    "scarf2": ({"kind", "v2", "sign"},
               lambda fields: {"generator": {"kind": "scarf2", "v2": 2.5, **fields}},
               lambda names: f"unknown scarf2 fields: {', '.join(names)}"),
    "samsonov_roy": ({"kind"}, lambda fields: {"generator": {"kind": "samsonov_roy", **fields}},
                     lambda names: f"samsonov_roy takes no fields, got {names}"),
    "morse": ({"kind", "a"}, lambda fields: {"generator": {"kind": "morse", "a": 1.0, **fields}},
              lambda names: f"unknown morse fields: {', '.join(names)}"),
    "constant": ({"kind", "value"},
                 lambda fields: {"generator": {"kind": "constant", "value": 0.0, **fields}},
                 lambda names: f"unknown constant generator fields: {', '.join(names)}"),
    "ordering": ({"alpha", "beta", "gamma", "name"},
                 lambda fields: {"ordering": {"alpha": -0.5, "beta": 0, "gamma": -0.5, **fields}},
                 lambda names: f"unknown ordering fields: {', '.join(names)}"),
}
# printable names, so that each refusal is one line
_NAME = st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=8)


@st.composite
def _unknown_fields(draw):
    """An object that names its fields, and a config holding it with 1..4
    fields it does not know."""
    owner = draw(st.sampled_from(sorted(_FIELD_OWNERS)))
    known, holder, refusal = _FIELD_OWNERS[owner]
    names = draw(st.lists(_NAME.filter(lambda name: name not in known),
                          min_size=1, max_size=4, unique=True))
    values = st.one_of(st.none(), st.integers(-3, 3), _NAME)
    raw = holder({name: draw(values) for name in names})
    return raw, refusal(sorted(names))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_unknown_fields())
def test_every_unknown_field_is_refused_by_its_sorted_names(case):
    raw, refusal = case
    with pytest.raises(ConfigError) as refused:
        config_from_dict(raw)
    assert str(refused.value) == refusal


def _refused_before_a_grid(raw, argv, tmp_path, capsys, monkeypatch):
    """What the CLI prints on stderr when it exits 2 on the config `raw`,
    with nothing on stdout and no grid built."""
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(operators, "uniform_grid", refuse)
    monkeypatch.setattr(verify, "uniform_grid", refuse)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert cli.main([*argv, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


# every command that reads a config
_COMMANDS = st.sampled_from([["solve"], ["map"], ["sweep"], ["verify"],
                             ["verify", "--which", "solver"]])


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_unknown_fields(), argv=_COMMANDS)
def test_the_cli_refuses_an_unknown_field_before_building_a_grid(
        case, argv, tmp_path, capsys, monkeypatch):
    raw, refusal = case
    err = _refused_before_a_grid(raw, argv, tmp_path, capsys, monkeypatch)
    assert err == f"error: {refusal}\n"


def _is_rational(text):
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        return False
    return True


_RATIONAL = st.fractions(max_denominator=64).map(str)
_NOT_RATIONAL = st.one_of(
    st.text(max_size=6).filter(lambda text: not _is_rational(text)),
    st.sampled_from([math.nan, math.inf, -math.inf, None, [1], {}]))


@st.composite
def _ordering_off_the_sum(draw):
    alpha, beta, gamma = draw(st.lists(st.fractions(max_denominator=64), min_size=3,
                                       max_size=3).filter(lambda e: sum(e) != -1))
    return {"ordering": {"alpha": str(alpha), "beta": str(beta), "gamma": str(gamma)}}


@st.composite
def _ordering_not_rational(draw):
    exponents = {"alpha": "-1/2", "beta": "0", "gamma": "-1/2"}
    exponents[draw(st.sampled_from(sorted(exponents)))] = draw(_NOT_RATIONAL)
    return {"ordering": exponents}


def _scarf2(**fields):
    return {"generator": {"kind": "scarf2", "v2": 2.5, **fields}}


# one bad model field per config: a zero depth or one whose square is not a
# finite float, a sign off +-1, ordering exponents off the sum -1 or not
# rational, a zero profile slope, and beta = -1 beside the derived profile
_BAD_MODEL_FIELD = st.one_of(
    st.sampled_from([0, 0.0, -0.0]).map(lambda v2: _scarf2(v2=v2)),
    st.tuples(st.floats(min_value=1.35e154, allow_infinity=False), st.sampled_from([1, -1]))
    .map(lambda deep: _scarf2(v2=deep[0] * deep[1])),
    st.integers().filter(lambda sign: sign not in (-1, 1)).map(lambda sign: _scarf2(sign=sign)),
    _ordering_off_the_sum(),
    _ordering_not_rational(),
    st.tuples(st.sampled_from([0, 0.0, -0.0]), st.floats(-10.0, 10.0))
    .map(lambda c: {"profile": {"c1": c[0], "c2": c[1]}}),
    st.tuples(_RATIONAL, st.sampled_from([{}, {"profile": "derived"}]))
    .map(lambda case: {"ordering": {"alpha": case[0], "beta": -1,
                                    "gamma": str(-Fraction(case[0]))}, **case[1]}),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_BAD_MODEL_FIELD)
def test_every_bad_model_field_is_refused(raw):
    with pytest.raises(PdmSpectraError):
        config_from_dict(raw)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=_BAD_MODEL_FIELD, argv=_COMMANDS)
def test_the_cli_refuses_a_bad_model_field_before_building_a_grid(
        raw, argv, tmp_path, capsys, monkeypatch):
    err = _refused_before_a_grid(raw, argv, tmp_path, capsys, monkeypatch)
    assert err.startswith("error: ") and err.count("\n") == 1
