"""The benchmark's three workloads: their inputs and their tasks.

A pass is one closed-loop round of a workload's tasks, run one after another
in an order drawn from the seed, in a fresh interpreter (worker.py).  Inputs
that the seed draws (the full-spectrum solve configs and analytic-check size,
the eigensolver-validation matrices) are drawn again for every pass, so no
generated matrix repeats between passes; the paper's acceptance specs are
fixed.

Grid ladders are scaled down from the acceptance battery where a pass at full
scale would not fit several times into one run; the tolerances are the
acceptance ones (see gate.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gate
from pdm_spectra import cli, config, eigen, model, operators, verify

# low-window: criterion 2's sweep [300, 600, 1200] and criterion 3's n = 1200
# halved, criterion 4's ladder [200, 400, 800] quartered.
SWEEP_N = [150, 300, 600]
TRIG_N = 600
ISO_N = [50, 100, 200]
# full-spectrum: criterion 2's analytic check at full size, plus one sech and
# one trigonometric solve per pass; a coin drawn from the seed gives one of them
# the larger base size.  All three sizes step through base-5 .. base+5 with the
# pass index, so the fixed sech spec of the analytic check and the trigonometric
# model (whose window is fixed) never repeat a matrix within eleven passes.
ANALYTIC_N = 1200
SOLVE_SIZES = (250, 500)
SOLVE_STEPS = 11
# residual: criterion 5's ladder with one more refinement, so the dense
# residual products dominate the pass.
INTERTWINE_N = [200, 400, 800, 1600]
MAP_N = 10000
VALIDATION_COUNT = 200

SR_ISO_INTERVAL = (0.15, 2.0 * math.pi - 0.15)


@dataclass
class Task:
    name: str
    call: Callable[[], object]
    check: Callable[[object], gate.Verdict]
    seeded: bool = False   # inputs drawn from the seed
    cli: bool = False      # an in-process cli.main call


class Context:
    """Fixed acceptance specs and the first LAPACK call: the benchmark's set-up."""

    def __init__(self, workdir: str | None):
        self.workdir = workdir
        spec = model.ModelSpec.from_ordering
        zk = model.ordering_preset("ZhuKroemer")
        self.default_spec = config.build_spec(config.config_from_dict({}))
        config.build_intertwine_spec(config.config_from_dict({}))
        self.sech_wide = spec(model.ScarfII(2.5), zk, q_interval=(-12.0, 12.0))
        self.trig = spec(model.SamsonovRoy(), zk, q_interval=(-math.pi, math.pi), c2=2.0)
        self.iso = []
        for name in ("ZhuKroemer", "MustafaMazharimousavi", "GoraWilliams", "LiKuhn"):
            ordering = model.ordering_preset(name)
            wide = model.delta_of(ordering) == 0
            self.iso.append((f"{name}:sech", 2, spec(
                model.ScarfII(2.5), ordering, q_interval=(-8.0, 8.0) if wide else (0.5, 8.0))))
            self.iso.append((f"{name}:trig", 3, spec(
                model.SamsonovRoy(), ordering, q_interval=SR_ISO_INTERVAL, c2=2.0)))
        gora = model.ordering_preset("GoraWilliams")
        self.intertwine = [
            ("log", spec(model.ScarfII(2.0), zk, q_interval=(-2.0, 2.0))),
            ("power", spec(model.ScarfII(2.0), gora, q_interval=(0.5, 4.0))),
        ]
        self.identities = [
            ("sech:ZhuKroemer", spec(model.ScarfII(2.5), zk, q_interval=(-8.0, 8.0))),
            ("sech:GoraWilliams", spec(model.ScarfII(2.0), gora, q_interval=(0.5, 4.0))),
            ("sech:MustafaMazharimousavi", spec(
                model.ScarfII(2.0), model.ordering_preset("MustafaMazharimousavi"),
                q_interval=(0.5, 8.0))),
            ("trig:ZhuKroemer", spec(model.SamsonovRoy(), zk, q_interval=SR_ISO_INTERVAL, c2=2.0)),
            ("trig:LiKuhn", spec(model.SamsonovRoy(), model.ordering_preset("LiKuhn"),
                                 q_interval=SR_ISO_INTERVAL, c2=2.0)),
        ]
        grid = operators.uniform_grid(-8.0, 8.0, 64, coordinate="q")
        eigen.eig(operators.build_reference_matrix(self.default_spec, grid))

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


def run_cli(argv: list[str]) -> int:
    """cli.main in-process, with its console output kept off the benchmark's."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _take_text(path: str) -> str:
    """Read an output file and delete it, so a later pass cannot see it."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    os.remove(path)
    return text


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _report_task(name: str, call, analytic_tol: float = gate.TRIG_TOL,
                 seeded: bool = False) -> Task:
    def check(report) -> gate.Verdict:
        verdict = gate.Verdict(name)
        gate.check_report(report.to_dict(), verdict, analytic_tol)
        return verdict
    return Task(name, call, check, seeded=seeded)


# ---------------------------------------------------------------- low-window


def _low_window(ctx: Context, rng, index: int, seed: int) -> list[Task]:
    def check_sweep(result) -> gate.Verdict:
        verdict = gate.Verdict("convergence_sweep")
        gate.check_sweep(result, SWEEP_N, verdict)
        return verdict

    tasks = [
        Task("convergence_sweep",
             lambda: verify.convergence_sweep(ctx.sech_wide, SWEEP_N, picture="reference"),
             check_sweep),
        _report_task("check_analytic:trig",
                     lambda: verify.check_analytic(ctx.trig, TRIG_N, tol=gate.TRIG_TOL)),
    ]
    for label, k, spec in ctx.iso:
        tasks.append(_report_task(
            f"isospectral_sweep:{label}",
            lambda spec=spec, k=k: verify.isospectral_sweep(
                spec, ISO_N, k, tol=gate.ISO_TOL, min_rate=gate.ISO_RATE)))

    out = ctx.path(f"verify-{index}.json")

    def check_verify(code) -> gate.Verdict:
        verdict = gate.Verdict("cli verify --which all")
        gate.check_verify_all(code, json.loads(_take_text(out)), verdict)
        return verdict

    tasks.append(Task("cli:verify-all", lambda: run_cli(["verify", "--which", "all", "--out", out]),
                      check_verify, cli=True))
    return tasks


# ---------------------------------------------------------------- full-spectrum


def _solve_problem(rng, kind: str, n: int) -> dict:
    """A sech or trigonometric model inside the range where its ladder holds."""
    c1 = float(rng.uniform(0.5, 1.0))
    if kind == "scarf2":
        # v2 in [2.05, 2.5]: two bound levels, the shallower at depth >= 0.3;
        # c1 * half-width <= 8 keeps the mass picture clear of its singular edge.
        v2 = float(rng.uniform(2.05, 2.5))
        half = float(rng.uniform(6.5, 8.0))
        return {"kind": kind, "params": {"v2": v2}, "q_interval": [-half, half], "n": n,
                "config": {"generator": {"kind": kind, "v2": v2, "sign": 1},
                           "q_interval": [-half, half], "profile": {"c1": c1, "c2": 0.0}}}
    # The trigonometric ladder belongs to the window (-pi, pi).
    return {"kind": kind, "params": {}, "q_interval": [-math.pi, math.pi], "n": n,
            "config": {"generator": {"kind": kind}, "q_interval": [-math.pi, math.pi],
                       "profile": {"c1": c1, "c2": 2.0 * c1}}}


def _full_spectrum(ctx: Context, rng, index: int, seed: int) -> list[Task]:
    step = (seed + index) % SOLVE_STEPS - SOLVE_STEPS // 2
    tasks = [_report_task(
        "check_analytic:sech",
        lambda: verify.check_analytic(ctx.sech_wide, ANALYTIC_N + step, tol=gate.SECH_TOL,
                                      im_tol=1e-6),
        analytic_tol=gate.SECH_TOL)]
    kinds = ("scarf2", "samsonov_roy") if rng.random() < 0.5 else ("samsonov_roy", "scarf2")
    for kind, base_n in zip(kinds, SOLVE_SIZES):
        problem = _solve_problem(rng, kind, base_n + step)
        cfg = ctx.path(f"solve-{index}-{kind}-config.json")
        out = ctx.path(f"solve-{index}-{kind}.json")
        _write_json(cfg, problem["config"])
        argv = ["solve", "--config", cfg, "--picture", "both", "--n", str(problem["n"]),
                "--out", out]

        def check(code, problem=problem, out=out) -> gate.Verdict:
            verdict = gate.Verdict(f"cli solve {problem['kind']} n={problem['n']}")
            verdict.require(code == 0, f"exit code {code}")
            if code == 0:
                gate.check_solve(json.loads(_take_text(out)), problem, verdict)
            return verdict

        tasks.append(Task(f"cli:solve-{kind}", lambda argv=argv: run_cli(argv),
                          check, seeded=True, cli=True))
    return tasks


# ---------------------------------------------------------------- residual


MAP_CONFIGS = (
    ("sech", {}, (-8.0, 8.0)),
    ("trig", {"generator": {"kind": "samsonov_roy"}, "q_interval": [-math.pi, math.pi]},
     (-math.pi, math.pi)),
)


def _residual(ctx: Context, rng, index: int, seed: int) -> list[Task]:
    tasks = []
    for label, spec in ctx.intertwine:
        tasks.append(_report_task(
            f"check_intertwining:{label}",
            lambda spec=spec: verify.check_intertwining(
                spec, INTERTWINE_N, min_rate=gate.INTERTWINE_RATE)))
    for label, spec in ctx.identities:
        tasks.append(_report_task(
            f"check_identities:{label}",
            lambda spec=spec: verify.check_identities(spec, tol=gate.IDENTITY_TOL)))
    for label, payload, window in MAP_CONFIGS:
        cfg = ctx.path(f"map-{label}-config.json")
        out = ctx.path(f"map-{index}-{label}.csv")
        _write_json(cfg, payload)
        argv = ["map", "--config", cfg, "--n", str(MAP_N), "--out", out]

        def check(code, label=label, out=out, window=window) -> gate.Verdict:
            verdict = gate.Verdict(f"cli map {label}")
            verdict.require(code == 0, f"exit code {code}")
            if code == 0:
                gate.check_map(_take_text(out), MAP_N, window, verdict)
            return verdict

        tasks.append(Task(f"cli:map-{label}", lambda argv=argv: run_cli(argv), check, cli=True))
    validation_seed = int(rng.integers(2**31))
    tasks.append(_report_task(
        "eigensolver_validation",
        lambda: verify.eigensolver_validation(
            seed=validation_seed, count=VALIDATION_COUNT, tol=gate.SOLVER_TOL,
            trace_tol=gate.TRACE_TOL),
        seeded=True))
    return tasks


BUILDERS = {"low-window": _low_window, "full-spectrum": _full_spectrum, "residual": _residual}


def build_pass(workload: str, ctx: Context, seed: int, index: int) -> list[Task]:
    """The tasks of pass `index`, with inputs and order drawn from (seed, index)."""
    rng = np.random.default_rng([seed, index])
    tasks = BUILDERS[workload](ctx, rng, index, seed)
    return [tasks[i] for i in rng.permutation(len(tasks))]
