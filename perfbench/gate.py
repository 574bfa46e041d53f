"""Correctness gate for every output the benchmark collects.

The gate shares no code with the package: ladders, tolerances and the
flat-picture potentials are written out here again, and each report's
verdict is recomputed from its evidence, so a program that reports `passed`
without earning it is caught.  The tolerances are those of the acceptance
battery (tests/test_acceptance.py) and of the package's DEFAULT_TOLERANCES;
none is loosened.

Each check returns a Verdict: a list of problems (empty when the output is
correct) and the margins it measured, one per acceptance limit, as
measured/limit for an upper limit and limit/measured for a lower one.  A
margin below 1 passes.
"""

from __future__ import annotations

import math

import numpy as np

SECH_TOL = 1e-2                 # criterion 2: analytic gap and final sweep error
SECH_RATE = (1.5, 2.5)          # criterion 2: convergence rate window
TRIG_TOL = 2e-2                 # criterion 3, and DEFAULT_TOLERANCES["analytic"]
MISSING_LEVEL = -9.0 / 16.0     # the absent n = 2 level of the trigonometric ladder
MISSING_WINDOW = 0.2            # criterion 3: clearance around the absent level
ISO_TOL, ISO_RATE = 5e-2, 1.0   # criterion 4 and DEFAULT_TOLERANCES
INTERTWINE_RATE = 0.9           # criterion 5 and DEFAULT_TOLERANCES
IDENTITY_TOL = 1e-12            # criterion 6 and DEFAULT_TOLERANCES
SOLVER_TOL = 1e-8               # criterion 7 and DEFAULT_TOLERANCES
TRACE_TOL = 1e-10               # criterion 7 and DEFAULT_TOLERANCES

MAP_HEADER = "q,x,mu,veff_re,veff_im,vtilde,w,v"


class Verdict:
    def __init__(self, task: str):
        self.task = task
        self.problems: list[str] = []
        self.margins: list[float] = []

    def fail(self, message: str) -> None:
        self.problems.append(f"{self.task}: {message}")

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)

    def at_most(self, label: str, value, limit: float) -> None:
        if not _finite(value):
            self.fail(f"{label} is {value!r}, not a finite number")
            return
        self.margins.append(value / limit)
        self.require(value <= limit, f"{label} = {value:.3e} exceeds {limit:.3e}")

    def at_least(self, label: str, value, limit: float) -> None:
        if not _finite(value) or value <= 0.0:
            self.fail(f"{label} is {value!r}, not a positive finite number")
            return
        self.margins.append(limit / value)
        self.require(value >= limit, f"{label} = {value:.3e} is below {limit:.3e}")

    def expect_limit(self, label: str, value, limit: float) -> None:
        """The program must have applied the acceptance limit, not a looser one."""
        self.require(value == limit, f"{label} = {value!r}, expected {limit!r}")


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def fit_rate(h, errors) -> float:
    """Least-squares slope of log(error) against log(h)."""
    x = np.log(np.asarray(h, float))
    y = np.log(np.maximum(np.asarray(errors, float), 1e-300))
    return float(np.polyfit(x, y, 1)[0])


def sech_ladder(v2: float) -> np.ndarray:
    depth = abs(v2)
    return np.array([-((depth - k - 0.5) ** 2) for k in range(math.ceil(depth - 0.5))])


TRIG_LADDER = np.array([n * n / 4.0 - 25.0 / 16.0 for n in (1, 3, 4, 5)])


def flat_potential(kind: str, params: dict, q: np.ndarray) -> np.ndarray:
    """Closed-form flat-picture potentials (alpha0 = 0) of the two ladders."""
    if kind == "scarf2":
        v2 = params["v2"]
        sech = 1.0 / np.cosh(q)
        return -v2 * v2 * sech * sech - 1j * v2 * sech * np.tanh(q)
    if kind == "samsonov_roy":
        return -6.0 / (np.cos(q) + 2j * np.sin(q)) ** 2 - 25.0 / 16.0
    raise ValueError(f"no closed-form potential for {kind!r}")


# ---------------------------------------------------------------- reports


def check_report(report: dict, verdict: Verdict, analytic_tol: float = TRIG_TOL) -> None:
    """Recompute the verdict of one serialised VerificationReport."""
    name = report.get("check")
    details = report.get("details") or {}
    note = details.get("note", "")
    verdict.require(report.get("passed") is True, f"{name} report did not pass ({note})")
    if name == "isospectral_sweep":
        verdict.expect_limit("isospectral tol", details.get("tol"), ISO_TOL)
        verdict.expect_limit("isospectral min_rate", details.get("min_rate"), ISO_RATE)
        verdict.at_most("isospectral final gap", details.get("final_gap"), ISO_TOL)
        verdict.at_least("isospectral gap rate", fit_rate(details["h"], details["gaps"]),
                         ISO_RATE)
    elif name == "intertwining":
        verdict.expect_limit("intertwining min_rate", details.get("min_rate"), INTERTWINE_RATE)
        res = details.get("residual") or []
        verdict.require(len(res) >= 2 and all(b < a for a, b in zip(res, res[1:])),
                        f"intertwining residual not strictly decreasing: {res}")
        verdict.at_least("intertwining rate", fit_rate(details["h"], res), INTERTWINE_RATE)
    elif name == "analytic":
        verdict.expect_limit("analytic tol", details.get("tol"), analytic_tol)
        verdict.at_most("analytic max gap", details.get("max_gap"), analytic_tol)
        levels = details.get("levels") or []
        if "missing_level" in details:
            verdict.at_least("missing-level clearance",
                             details.get("missing_level_clearance"), MISSING_WINDOW)
        else:
            verdict.require(details.get("bound_below_threshold") == len(levels),
                            f"{details.get('bound_below_threshold')} bound levels below "
                            f"the continuum, ladder has {len(levels)}")
    elif name == "identities":
        verdict.expect_limit("identities tol", details.get("tol"), IDENTITY_TOL)
        for key in ("triangle_gap", "ordering_terms_gap", "closed_form_gap"):
            if key != "closed_form_gap" or details.get(key) is not None:
                verdict.at_most(key, details.get(key), IDENTITY_TOL)
    elif name == "solver":
        verdict.expect_limit("solver tol", details.get("tol"), SOLVER_TOL)
        verdict.expect_limit("solver trace_tol", details.get("trace_tol"), TRACE_TOL)
        verdict.at_most("solver worst gap", details.get("worst_gap"), SOLVER_TOL)
        verdict.at_most("solver worst trace error", details.get("worst_trace_error"), TRACE_TOL)
        verdict.require(details.get("deterministic") is True, "solver reruns differ")
    else:
        verdict.fail(f"unexpected report kind {name!r}")


def check_verify_all(code: int, report: dict, verdict: Verdict) -> None:
    """`verify --which all` on the default config: exit 0 and five passing reports."""
    verdict.require(code == 0, f"exit code {code}")
    verdict.require(report.get("check") == "all" and report.get("passed") is True,
                    "combined report did not pass")
    reports = (report.get("details") or {}).get("reports") or []
    kinds = [r.get("check") for r in reports]
    verdict.require(kinds == ["isospectral_sweep", "intertwining", "analytic",
                              "identities", "solver"], f"unexpected reports {kinds}")
    for sub in reports:
        check_report(sub, verdict)


def check_sweep(result: dict, n_list, verdict: Verdict) -> None:
    """Criterion 2's convergence sweep against the sech ladder."""
    verdict.require(list(result.get("n", [])) == list(n_list), f"grid sizes {result.get('n')}")
    errors = result.get("error") or []
    verdict.require(len(errors) == len(n_list), f"{len(errors)} errors for {len(n_list)} grids")
    if len(errors) != len(n_list):
        return
    verdict.at_most("final sweep error", errors[-1], SECH_TOL)
    rate = fit_rate(result["h"], errors)
    verdict.at_least("sweep rate (low end)", rate, SECH_RATE[0])
    verdict.at_most("sweep rate (high end)", rate, SECH_RATE[1])


# ---------------------------------------------------------------- CLI files


def check_solve(payload: dict, problem: dict, verdict: Verdict) -> None:
    """`solve --picture both` output against the closed-form ladder.

    `problem` holds the generated input: kind, params, q_interval and n.
    """
    verdict.require(payload.get("picture") == "both", "payload is not a two-picture solve")
    kind = problem["kind"]
    tol = SECH_TOL if kind == "scarf2" else TRIG_TOL
    ladder = sech_ladder(problem["params"]["v2"]) if kind == "scarf2" else TRIG_LADDER
    n = problem["n"]
    for picture, grid_kind in (("reference", "uniform_q"), ("target", "q_induced_x")):
        part = payload.get(picture)
        if not isinstance(part, dict):
            verdict.fail(f"no {picture} picture in the payload")
            continue
        label = f"{picture} picture"
        verdict.require(part.get("n") == n, f"{label}: n = {part.get('n')}, asked {n}")
        verdict.require((part.get("grid") or {}).get("kind") == grid_kind,
                        f"{label}: grid kind {(part.get('grid') or {}).get('kind')}")
        try:
            vals = np.array([complex(e["re"], e["im"]) for e in part["eigenvalues"]])
        except (KeyError, TypeError) as exc:
            verdict.fail(f"{label}: malformed eigenvalue list ({exc})")
            continue
        verdict.require(vals.size == n, f"{label}: {vals.size} eigenvalues, expected {n}")
        if vals.size < ladder.size or not np.all(np.isfinite(vals)):
            verdict.fail(f"{label}: eigenvalues missing or not finite")
            continue
        re, im = vals.real, vals.imag
        in_order = np.all((re[1:] > re[:-1]) | ((re[1:] == re[:-1]) & (im[1:] >= im[:-1])))
        verdict.require(bool(in_order), f"{label}: eigenvalues not in lexicographic order")
        verdict.at_most(f"{label} trace error", part.get("trace_error"), TRACE_TOL)
        # The lowest two levels are real and isolated on every generated input.
        for k in range(2):
            verdict.at_most(f"{label} level {k} gap", float(abs(vals[k] - ladder[k])), tol)
        if kind == "samsonov_roy":
            verdict.at_least(f"{label} missing-level clearance",
                             float(np.min(np.abs(vals - MISSING_LEVEL))), MISSING_WINDOW)
        if picture == "reference":
            qa, qb = problem["q_interval"]
            h = (qb - qa) / (n + 1)
            q = qa + h * np.arange(1, n + 1)
            trace = n * 2.0 / (h * h) + complex(np.sum(flat_potential(kind, problem["params"], q)))
            scale = max(1.0, abs(trace), float(np.sum(np.abs(vals))))
            verdict.at_most(f"{label} eigenvalue sum against the closed-form trace",
                            abs(complex(np.sum(vals)) - trace) / scale, TRACE_TOL)


def check_map(text: str, n: int, q_interval, verdict: Verdict) -> None:
    """`map` CSV: the documented header, one row per grid node, finite values."""
    lines = text.splitlines()
    verdict.require(bool(lines) and lines[0] == MAP_HEADER,
                    f"header {lines[0] if lines else None!r}")
    rows = lines[1:]
    verdict.require(len(rows) == n, f"{len(rows)} rows, expected {n}")
    try:
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
    except ValueError as exc:
        verdict.fail(f"unparsable row ({exc})")
        return
    if table.shape != (n, 8):
        verdict.fail(f"table shape {table.shape}, expected {(n, 8)}")
        return
    verdict.require(bool(np.all(np.isfinite(table))), "non-finite values")
    qa, qb = q_interval
    q = table[:, 0]
    verdict.require(bool(np.all(np.diff(q) > 0) and q[0] > qa and q[-1] < qb),
                    "q column is not an increasing grid inside the window")
