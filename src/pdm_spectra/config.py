"""Run configuration: strict JSON schema plus builders to model objects.

A run config is a flat JSON object.  Unknown keys are rejected rather than
ignored, so a typo like "k_level" fails loudly instead of silently running
with a default.  Every key has a default; an empty config is valid.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigError
from .model import (
    AmbiguityOrdering,
    Constant,
    ConstantMass,
    ModelSpec,
    Morse,
    ORDERING_PRESETS,
    SamsonovRoy,
    ScarfII,
    ordering_preset,
)

__all__ = [
    "DEFAULT_TOLERANCES",
    "DEFAULTS",
    "RunConfig",
    "load_config",
    "config_from_dict",
    "build_generator",
    "build_ordering",
    "build_spec",
    "build_intertwine_spec",
]

DEFAULT_TOLERANCES = {
    "isospectral": 5e-2,
    "iso_rate": 1.0,
    "analytic": 2e-2,
    "im": None,
    "intertwine_rate": 0.9,
    "identities": 1e-12,
    "solver": 1e-8,
    "trace": 1e-10,
}

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
    "out": None,
}

_GENERATOR_KINDS = ("scarf2", "samsonov_roy", "morse", "constant")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


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
    """Validated run settings with every field populated."""

    generator: dict
    ordering: object
    profile: object
    alpha0: float
    q_interval: tuple[float, float]
    intertwine_q_interval: tuple[float, float]
    n: int
    n_sweep: list[int]
    k_levels: int
    oracle_level: object
    tolerances: dict = field(default_factory=dict)
    seed: int = 1234
    out: str | None = None


def config_from_dict(raw: dict) -> RunConfig:
    _require(isinstance(raw, dict), f"config must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(DEFAULTS))
    _require(not unknown, f"unknown config keys: {', '.join(unknown)}")
    merged = {**DEFAULTS, **raw}

    gen = merged["generator"]
    _require(isinstance(gen, dict) and "kind" in gen,
             "generator must be an object with a 'kind' field")

    ordering = merged["ordering"]
    _require(isinstance(ordering, (str, dict)),
             f"ordering must be a preset name or an object, got {ordering!r}")

    profile = merged["profile"]
    if isinstance(profile, str):
        _require(profile in ("derived", "constant"),
                 f"profile must be 'derived', 'constant', or an object, got {profile!r}")
    else:
        _require(isinstance(profile, dict), f"profile must be a string or object, got {profile!r}")
        extra = sorted(set(profile) - {"c1", "c2"})
        _require(not extra, f"unknown profile keys: {', '.join(extra)}")
        _require("c1" in profile, "profile object needs at least c1")

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
    bad = sorted(set(tolerances) - set(DEFAULT_TOLERANCES))
    _require(not bad, f"unknown tolerance keys: {', '.join(bad)}")
    tol = {**DEFAULT_TOLERANCES, **tolerances}
    for key, value in tol.items():
        if value is not None or key != "im":  # only im may be null
            tol[key] = _as_number(value, f"tolerances.{key}")

    seed = _as_int(merged["seed"], "seed")
    out = merged["out"]
    _require(out is None or isinstance(out, str), f"out must be a path string, got {out!r}")

    return RunConfig(
        generator=gen,
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
        out=out,
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


def build_generator(blob: dict):
    kind = blob.get("kind")
    _require(kind in _GENERATOR_KINDS,
             f"generator kind must be one of {', '.join(_GENERATOR_KINDS)}, got {kind!r}")
    params = {k: v for k, v in blob.items() if k != "kind"}
    try:
        if kind == "scarf2":
            extra = sorted(set(params) - {"v2", "sign"})
            _require(not extra, f"unknown scarf2 fields: {', '.join(extra)}")
            _require("v2" in params, "scarf2 generator needs v2")
            return ScarfII(
                v2=_as_number(params["v2"], "generator.v2"),
                sign=_as_int(params.get("sign", 1), "generator.sign"),
            )
        if kind == "samsonov_roy":
            _require(not params, f"samsonov_roy takes no fields, got {sorted(params)}")
            return SamsonovRoy()
        if kind == "morse":
            extra = sorted(set(params) - {"a"})
            _require(not extra, f"unknown morse fields: {', '.join(extra)}")
            return Morse(a=_as_number(params.get("a", 1.0), "generator.a"))
        extra = sorted(set(params) - {"value"})
        _require(not extra, f"unknown constant generator fields: {', '.join(extra)}")
        return Constant(_as_number(params.get("value", 0.0), "generator.value"))
    except ValueError as exc:
        raise ConfigError(f"bad generator: {exc}") from exc


def _normalize_name(name: str) -> str:
    return name.replace("-", "").replace("_", "").replace(" ", "").lower()


def build_ordering(blob) -> AmbiguityOrdering:
    if isinstance(blob, str):
        wanted = _normalize_name(blob)
        for name in ORDERING_PRESETS:
            if _normalize_name(name) == wanted:
                return ordering_preset(name)
        raise ConfigError(
            f"unknown ordering preset {blob!r}; known: {', '.join(ORDERING_PRESETS)}"
        )
    extra = sorted(set(blob) - {"alpha", "beta", "gamma", "name"})
    _require(not extra, f"unknown ordering fields: {', '.join(extra)}")
    _require({"alpha", "beta", "gamma"} <= set(blob),
             "custom ordering needs alpha, beta, and gamma")

    def frac(key):
        value = blob[key]
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


def _profile_constants(config: RunConfig, generator) -> tuple[float, float]:
    if isinstance(config.profile, dict):
        c1 = _as_number(config.profile["c1"], "profile.c1")
        c2 = _as_number(config.profile.get("c2", 0.0), "profile.c2")
        return c1, c2
    # Derived convention: unit slope, with the trigonometric model shifted
    # so its standard q-window maps to a singularity-free x-window.
    if isinstance(generator, SamsonovRoy):
        return 1.0, 2.0
    return 1.0, 0.0


def _spec_for_interval(config: RunConfig, q_interval: tuple[float, float]) -> ModelSpec:
    generator = build_generator(config.generator)
    ordering = build_ordering(config.ordering)
    try:
        if config.profile == "constant":
            return ModelSpec(
                generator=generator,
                ordering=ordering,
                profile=ConstantMass(),
                alpha0=config.alpha0,
                q_interval=q_interval,
            )
        c1, c2 = _profile_constants(config, generator)
        return ModelSpec.from_ordering(
            generator,
            ordering,
            q_interval=q_interval,
            c1=c1,
            c2=c2,
            alpha0=config.alpha0,
        )
    except ValueError as exc:
        raise ConfigError(f"config does not define a valid model: {exc}") from exc


def build_spec(config: RunConfig) -> ModelSpec:
    """Model for the main q-window of the run."""
    return _spec_for_interval(config, config.q_interval)


def build_intertwine_spec(config: RunConfig) -> ModelSpec:
    """Same model over the (usually narrower) intertwining q-window."""
    return _spec_for_interval(config, config.intertwine_q_interval)
