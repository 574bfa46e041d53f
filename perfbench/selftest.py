"""Self-test of the benchmark's output and of its correctness gate.

    python3 perfbench/selftest.py

Checks that
* every metric name in BENCHMARK.json uses only [A-Za-z0-9_.-], and that the
  runner's metric sets and units are exactly the ones BENCHMARK.json lists;
* every workload, run for real (briefly), prints a final line with exactly
  the keys `correct`, `attempted`, `failed` and `metrics`, and every
  end-to-end metric; the traced run prints every per-layer metric;
* every pass runs in an interpreter of its own, and on full-spectrum no
  eigensolver input repeats across passes, so neither a memo kept in memory
  nor any other cache can turn a repeated pass into a gain there;
* the gate passes a genuine `solve` output and catches deliberately wrong
  ones: a shifted level, a broken order, a missing eigenvalue, a uniformly
  scaled spectrum, a spurious level in the trigonometric ladder's gap, and
  a report that claims to pass against its own evidence.
Exits 1 and lists the failures if any check fails.
"""

from __future__ import annotations

import copy
import json
import math
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def check_names(bench: dict) -> None:
    for group in ("end_to_end", "per_layer"):
        for metric in bench[group]:
            expect(bool(NAME.match(metric["name"])), f"bad metric name {metric['name']!r}")
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect(declared == run.END_TO_END_UNITS,
           f"end-to-end metrics {declared} differ from the runner's {run.END_TO_END_UNITS}")
    emitted = {name: unit for name, (_, unit) in tracer.layer_metrics([], 1.0).items()}
    emitted["trace_overhead_ratio"] = "ratio"
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(declared == emitted, f"per-layer metrics differ: declared only "
           f"{sorted(set(declared) - set(emitted))}, emitted only "
           f"{sorted(set(emitted) - set(declared))}")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
           "workload names differ between BENCHMARK.json and run.py")


def check_runs(bench: dict) -> None:
    wanted = {0: {m["name"] for m in bench["end_to_end"]},
              1: {m["name"] for m in bench["per_layer"]}}
    runs = [(w, 0) for w in run.WORKLOADS] + [("full-spectrum", 1)]
    for workload, trace in runs:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        label = f"{workload} --trace {trace}"
        expect(proc.returncode == 0, f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
        if proc.returncode != 0:
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"{label}: result keys {sorted(result)}")
        expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
               f"{label}: correct={result['correct']} attempted={result['attempted']} "
               f"failed={result['failed']}")
        expect(set(result["metrics"]) == wanted[trace],
               f"{label}: metrics {sorted(set(result['metrics']) ^ wanted[trace])} "
               "missing or unexpected")
        for name, metric in result["metrics"].items():
            value = metric["value"]
            expect(isinstance(value, float) and math.isfinite(value),
                   f"{label}: {name} = {value!r}")
            if trace == 0:
                expect(value > 0.0, f"{label}: end-to-end metric {name} is {value!r}")
        stem = os.path.join(run.OUT, f"{workload}-seed7-trace{trace}")
        with open(f"{stem}.json", encoding="utf-8") as fh:
            pids = json.load(fh)["pass_pids"]
        expect(len(set(pids)) == len(pids), f"{label}: passes share an interpreter: {pids}")
        if trace == 1:
            check_fresh_inputs(f"{stem}-spans.jsonl", label)


def check_fresh_inputs(spans_path: str, label: str) -> None:
    """No eig input of one pass may reappear in another."""
    seen: dict[str, int] = {}
    with open(spans_path, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            if span["name"] != "eigen.eig":
                continue
            first = seen.setdefault(span["tag"]["hash"], span["pass"])
            expect(first == span["pass"],
                   f"{label}: an eig input of pass {first} repeats in pass {span['pass']}")
    expect(len(set(seen.values())) >= 2, f"{label}: fewer than two traced passes")


def _verdict(payload: dict, problem: dict) -> gate.Verdict:
    verdict = gate.Verdict("selftest")
    gate.check_solve(payload, problem, verdict)
    return verdict


def _solve(workdir: str, problem: dict) -> dict:
    cfg = os.path.join(workdir, "config.json")
    out = os.path.join(workdir, "solve.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(problem["config"], fh)
    code = workloads.run_cli(["solve", "--config", cfg, "--picture", "both",
                              "--n", str(problem["n"]), "--out", out])
    expect(code == 0, f"solve exited with {code}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def check_gate() -> None:
    sech = {"kind": "scarf2", "params": {"v2": 2.5}, "q_interval": [-8.0, 8.0], "n": 200,
            "config": {"generator": {"kind": "scarf2", "v2": 2.5, "sign": 1},
                       "q_interval": [-8.0, 8.0]}}
    trig = {"kind": "samsonov_roy", "params": {}, "q_interval": [-math.pi, math.pi], "n": 300,
            "config": {"generator": {"kind": "samsonov_roy"},
                       "q_interval": [-math.pi, math.pi]}}
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        good_sech = _solve(workdir, sech)
        good_trig = _solve(workdir, trig)
    expect(not _verdict(good_sech, sech).problems,
           f"genuine sech solve rejected: {_verdict(good_sech, sech).problems}")
    expect(not _verdict(good_trig, trig).problems,
           f"genuine trigonometric solve rejected: {_verdict(good_trig, trig).problems}")

    def mutated(payload, picture, edit):
        bad = copy.deepcopy(payload)
        edit(bad[picture])
        return bad

    def shift_ground(part):
        part["eigenvalues"][0]["re"] += 0.05

    def swap(part):
        vals = part["eigenvalues"]
        vals[0], vals[1] = vals[1], vals[0]

    def drop(part):
        part["eigenvalues"].pop()

    def scale(part):
        for value in part["eigenvalues"]:
            value["re"] *= 1.001
            value["im"] *= 1.001

    def trace_error(part):
        part["trace_error"] = 1e-6

    cases = [("shifted ground level", good_sech, sech, "target", shift_ground),
             ("swapped order", good_sech, sech, "reference", swap),
             ("missing eigenvalue", good_sech, sech, "target", drop),
             ("uniformly scaled spectrum", good_sech, sech, "reference", scale),
             ("inflated trace error", good_sech, sech, "target", trace_error)]

    def fill_gap(part):
        # Move the highest eigenvalue into the gap of the absent n = 2 level,
        # keeping the list in lexicographic order.
        vals = part["eigenvalues"]
        vals.pop()
        vals.insert(1, {"re": gate.MISSING_LEVEL, "im": 0.0})

    cases.append(("level in the missing-level gap", good_trig, trig, "reference", fill_gap))
    for label, payload, problem, picture, edit in cases:
        expect(bool(_verdict(mutated(payload, picture, edit), problem).problems),
               f"gate missed a wrong eigenvalue list: {label}")

    liar = {"check": "isospectral_sweep", "passed": True,
            "details": {"tol": gate.ISO_TOL, "min_rate": gate.ISO_RATE, "final_gap": 0.06,
                        "h": [0.2, 0.1, 0.05], "gaps": [0.9, 0.3, 0.06]}}
    verdict = gate.Verdict("selftest")
    gate.check_report(liar, verdict)
    expect(bool(verdict.problems), "gate accepted a report whose final gap exceeds its tolerance")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check_names(bench)
    check_gate()
    check_runs(bench)
    for failure in failures:
        print(f"selftest: FAIL {failure}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
