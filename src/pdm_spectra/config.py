"""Run configuration: a strict JSON schema parsed once into model objects.

A run config is a flat JSON object.  Unknown keys are rejected rather than
ignored, so a typo like "k_level" fails loudly instead of silently running
with a default.  Every key has a default; an empty config is valid.  The
generator, ordering and mass profile are built when the config is loaded,
so a bad model field fails every command; only the mapping of a q-window
into the profile's domain waits until a command builds its ModelSpec.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError
from .model import (
    AmbiguityOrdering,
    Constant,
    ConstantMass,
    Generator,
    MassLike,
    MassProfile,
    ModelSpec,
    Morse,
    ORDERING_PRESETS,
    SamsonovRoy,
    ScarfII,
    delta_of,
    ordering_preset,
)
from .verify import DEFAULT_TOLERANCES

__all__ = [
    "DEFAULT_TOLERANCES",
    "DEFAULTS",
    "RunConfig",
    "load_config",
    "config_from_dict",
    "build_spec",
    "build_intertwine_spec",
]

DEFAULTS = {
    "generator": {"kind": "scarf2", "v2": 2.5, "sign": 1},
    "ordering": "ZhuKroemer",
    "profile": "derived",
    "alpha0": 0.0,
    "q_interval": [-8.0, 8.0],
    "intertwine_q_interval": [-2.0, 2.0],
    "n": 400,
    "n_sweep": [200, 400, 800],
    "k_levels": 2,
    "oracle_level": None,
    "tolerances": DEFAULT_TOLERANCES,
    "seed": 1234,
}

_GENERATOR_KINDS = ("scarf2", "samsonov_roy", "morse", "constant")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _require_known(blob, known, label: str) -> None:
    unknown = sorted(set(blob) - set(known))
    _require(not unknown, f"unknown {label}: {', '.join(unknown)}")


def _as_number(value, key: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{key} must be a number, got {value!r}")
    # json reads NaN, Infinity, and integers too large for a float; all fail this
    _require(abs(value) <= sys.float_info.max, f"{key} must be finite, got {value!r}")
    return float(value)


def _as_int(value, key: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{key} must be an integer, got {value!r}")
    return int(value)


def _as_pair(value, key: str) -> tuple[float, float]:
    _require(isinstance(value, (list, tuple)) and len(value) == 2,
             f"{key} must be a pair [a, b], got {value!r}")
    a = _as_number(value[0], f"{key}[0]")
    b = _as_number(value[1], f"{key}[1]")
    _require(a < b, f"{key} must satisfy a < b, got [{a}, {b}]")
    return (a, b)


@dataclass
class RunConfig:
    """Validated run settings with every field populated and the model built."""

    generator: Generator
    ordering: AmbiguityOrdering
    profile: MassLike
    alpha0: float
    q_interval: tuple[float, float]
    intertwine_q_interval: tuple[float, float]
    n: int
    n_sweep: list[int]
    k_levels: int
    oracle_level: object
    tolerances: dict
    seed: int


def config_from_dict(raw: dict) -> RunConfig:
    _require(isinstance(raw, dict), f"config must be a JSON object, got {type(raw).__name__}")
    _require_known(raw, DEFAULTS, "config keys")
    merged = {**DEFAULTS, **raw}

    generator = _parse_generator(merged["generator"])
    ordering = _parse_ordering(merged["ordering"])
    profile = _parse_profile(merged["profile"], generator, ordering)
    if isinstance(generator, SamsonovRoy) and "q_interval" not in raw:
        # One period of the pi-periodic trigonometric model, which the
        # derived profile's c2 = 2 maps to a singularity-free x-window.
        merged["q_interval"] = [-math.pi, math.pi]

    alpha0 = _as_number(merged["alpha0"], "alpha0")
    q_interval = _as_pair(merged["q_interval"], "q_interval")
    intertwine_q = _as_pair(merged["intertwine_q_interval"], "intertwine_q_interval")

    n = _as_int(merged["n"], "n")
    _require(n >= 3, f"n must be at least 3, got {n}")

    sweep = merged["n_sweep"]
    _require(isinstance(sweep, (list, tuple)) and len(sweep) >= 2,
             f"n_sweep must list at least two grid sizes, got {sweep!r}")
    n_sweep = [_as_int(v, "n_sweep entry") for v in sweep]
    _require(all(a < b for a, b in zip(n_sweep, n_sweep[1:])),
             f"n_sweep must be strictly increasing, got {n_sweep}")
    _require(n_sweep[0] >= 3, f"n_sweep entries must be at least 3, got {n_sweep}")

    k_levels = _as_int(merged["k_levels"], "k_levels")
    _require(k_levels >= 1, f"k_levels must be positive, got {k_levels}")

    oracle_level = merged["oracle_level"]
    if oracle_level is not None:
        if isinstance(oracle_level, (list, tuple)):
            oracle_level = [_as_number(v, "oracle_level entry") for v in oracle_level]
            _require(len(oracle_level) >= 1, "oracle_level list must not be empty")
        else:
            oracle_level = [_as_number(oracle_level, "oracle_level")]

    tolerances = merged["tolerances"]
    _require(isinstance(tolerances, dict), f"tolerances must be an object, got {tolerances!r}")
    _require_known(tolerances, DEFAULT_TOLERANCES, "tolerance keys")
    tol = {**DEFAULT_TOLERANCES, **tolerances}
    for key, value in tol.items():
        if value is not None or key != "im":  # only im may be null
            tol[key] = _as_number(value, f"tolerances.{key}")

    seed = _as_int(merged["seed"], "seed")
    _require(seed >= 0, f"seed must be non-negative, got {seed}")
    return RunConfig(
        generator=generator,
        ordering=ordering,
        profile=profile,
        alpha0=alpha0,
        q_interval=q_interval,
        intertwine_q_interval=intertwine_q,
        n=n,
        n_sweep=n_sweep,
        k_levels=k_levels,
        oracle_level=oracle_level,
        tolerances=tol,
        seed=seed,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def _parse_generator(blob) -> Generator:
    _require(isinstance(blob, dict) and "kind" in blob,
             "generator must be an object with a 'kind' field")
    kind = blob["kind"]
    _require(kind in _GENERATOR_KINDS,
             f"generator kind must be one of {', '.join(_GENERATOR_KINDS)}, got {kind!r}")
    params = {k: v for k, v in blob.items() if k != "kind"}
    try:
        if kind == "scarf2":
            _require_known(params, ("v2", "sign"), "scarf2 fields")
            _require("v2" in params, "scarf2 generator needs v2")
            return ScarfII(
                v2=_as_number(params["v2"], "generator.v2"),
                sign=_as_int(params.get("sign", 1), "generator.sign"),
            )
        if kind == "samsonov_roy":
            _require(not params, f"samsonov_roy takes no fields, got {sorted(params)}")
            return SamsonovRoy()
        if kind == "morse":
            _require_known(params, ("a",), "morse fields")
            return Morse(a=_as_number(params.get("a", 1.0), "generator.a"))
        _require_known(params, ("value",), "constant generator fields")
        return Constant(_as_number(params.get("value", 0.0), "generator.value"))
    except ValueError as exc:
        raise ConfigError(f"bad generator: {exc}") from exc


def _normalize_name(name: str) -> str:
    return name.replace("-", "").replace("_", "").replace(" ", "").lower()


def _parse_ordering(blob) -> AmbiguityOrdering:
    if isinstance(blob, str):
        wanted = _normalize_name(blob)
        for name in ORDERING_PRESETS:
            if _normalize_name(name) == wanted:
                return ordering_preset(name)
        raise ConfigError(
            f"unknown ordering preset {blob!r}; known: {', '.join(ORDERING_PRESETS)}"
        )
    _require(isinstance(blob, dict),
             f"ordering must be a preset name or an object, got {blob!r}")
    _require_known(blob, ("alpha", "beta", "gamma", "name"), "ordering fields")
    _require({"alpha", "beta", "gamma"} <= set(blob),
             "custom ordering needs alpha, beta, and gamma")

    def frac(key):
        value = blob[key]
        _require(not isinstance(value, bool), f"ordering.{key} must be a number, got {value!r}")
        try:
            return Fraction(str(value)) if isinstance(value, float) else Fraction(value)
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ConfigError(f"ordering.{key} is not a rational number: {value!r}") from exc

    try:
        return AmbiguityOrdering(
            alpha=frac("alpha"),
            beta=frac("beta"),
            gamma=frac("gamma"),
            name=blob.get("name"),
        )
    except ValueError as exc:
        raise ConfigError(f"bad ordering: {exc}") from exc


def _parse_profile(blob, generator: Generator, ordering: AmbiguityOrdering) -> MassLike:
    if isinstance(blob, str):
        _require(blob in ("derived", "constant"),
                 f"profile must be 'derived', 'constant', or an object, got {blob!r}")
        if blob == "constant":
            return ConstantMass()
        # Derived convention: unit slope, with the trigonometric model shifted
        # so its standard q-window maps to a singularity-free x-window.
        c1, c2 = 1.0, (2.0 if isinstance(generator, SamsonovRoy) else 0.0)
    else:
        _require(isinstance(blob, dict), f"profile must be a string or object, got {blob!r}")
        _require_known(blob, ("c1", "c2"), "profile keys")
        _require("c1" in blob, "profile object needs at least c1")
        c1 = _as_number(blob["c1"], "profile.c1")
        c2 = _as_number(blob.get("c2", 0.0), "profile.c2")
    try:
        return MassProfile(c1, c2, float(delta_of(ordering)))
    except ValueError as exc:
        raise ConfigError(f"config does not define a valid model: {exc}") from exc


def build_spec(config: RunConfig) -> ModelSpec:
    """Model for the main q-window of the run."""
    return ModelSpec(config.generator, config.ordering, config.profile, config.alpha0,
                     config.q_interval)


def build_intertwine_spec(config: RunConfig) -> ModelSpec:
    """Same model over the (usually narrower) intertwining q-window."""
    return ModelSpec(config.generator, config.ordering, config.profile, config.alpha0,
                     config.intertwine_q_interval)
