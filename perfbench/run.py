"""Benchmark entry point for pdm-spectra.

    python3 perfbench/run.py --workload low-window --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) in closed-loop passes for about
--seconds seconds, set-up included.  Every pass runs in a fresh interpreter
(worker.py), one after another, so no pass can reuse what an earlier one
computed.  Every output is checked (gate.py).  The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 each pass runs twice, untraced and then traced, each in its own
interpreter, and the metrics are the per-layer ones (tracer.py).  The line
before it records the seed, the samples and the environment; the same
record, and with --trace 1 every span, is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("low-window", "full-spectrum", "residual")
MIN_PASSES = 2
SETUP_SAMPLES = 21
WORKER_TIMEOUT = 150.0
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cli_s": "s", "peak_rss_mb": "MB",
                    "worst_gap_ratio": "ratio"}


class WorkerFailed(RuntimeError):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_worker(*args: str) -> dict:
    """Start worker.py with args, wait for it, and return its record."""
    proc = subprocess.run([sys.executable, WORKER, *args], stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_samples() -> list[float]:
    """Set-up time of SETUP_SAMPLES fresh interpreters."""
    return [run_worker("--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]


def measure(workload: str, seed: int, seconds: float, traced: bool, workdir: str,
            start: float):
    """Closed-loop passes until the next one would end after `seconds` from `start`.

    Returns the untraced pass records and, when traced, the traced records
    (each pass's inputs run again under the tracer, in a fresh interpreter).
    """
    plain, traced_passes, durations = [], [], []
    index = 0
    while True:
        began = time.perf_counter()
        common = ["--workload", workload, "--seed", str(seed), "--index", str(index),
                  "--workdir", workdir]
        plain.append(run_worker(*common, "--trace", "0"))
        if traced:
            traced_passes.append(run_worker(*common, "--trace", "1"))
        durations.append(time.perf_counter() - began)
        index += 1
        elapsed = time.perf_counter() - start
        if index >= MIN_PASSES and elapsed + statistics.median(durations) > seconds:
            return plain, traced_passes


def end_to_end(plain: list[dict], setup: list[float]) -> dict:
    margins = [m for record in plain for m in record["margins"]]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall"] for r in plain),
        "cli_s": statistics.median(r["cli"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "worst_gap_ratio": max(margins),
    }
    return {name: {"value": float(v), "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def distinct_ratio(traced: list[dict]) -> float:
    """Distinct eig inputs within each pass's interpreter, over all the run's eig calls."""
    distinct = calls = 0
    for record in traced:
        hashes = [s["tag"]["hash"] for s in record["spans"] if s["name"] == "eigen.eig"]
        distinct += len(set(hashes))
        calls += len(hashes)
    return distinct / calls if calls else 0.0


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Counts from the first traced pass (a function of the seed); times as medians."""
    per_pass = [r["layers"] for r in traced]
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit not in ("count", "bytes"):
            value = statistics.median(p[name][0] for p in per_pass)
        metrics[name] = {"value": float(value), "unit": unit}
    metrics["eigen.eig.distinct_ratio"]["value"] = distinct_ratio(traced)
    overhead = statistics.median(t["wall"] / p["wall"] for p, t in zip(plain, traced))
    metrics["trace_overhead_ratio"] = {"value": float(overhead), "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pdm_spectra", "__init__.py")):
        print("perfbench: src/pdm_spectra not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        setup = [] if args.trace else setup_samples()
        plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                workdir, start)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = plain + traced
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    for record in records:
        for problem in record["problems"]:
            print(f"perfbench: FAILED {problem}", file=sys.stderr)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, setup)

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(plain), "setup_samples": setup,
        "wall_s_samples": [r["wall"] for r in plain],
        "traced_wall_s_samples": [r["wall"] for r in traced],
        "peak_rss_mb_samples": [r["peak_rss_mb"] for r in plain],
        "pass_setup_s_samples": [r["setup_s"] for r in records],
        "pass_pids": [r["pid"] for r in records],
        "environment": plain[0]["environment"],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({**info, "metrics": metrics, "attempted": attempted, "failed": failed,
                   "tasks": [r["tasks"] for r in records]}, fh, indent=1)
    if traced:
        with open(os.path.join(OUT, f"{stem}-spans.jsonl"), "w", encoding="utf-8") as fh:
            for index, record in enumerate(traced):
                for span in record["spans"]:
                    fh.write(json.dumps({"pass": index, **span}) + "\n")

    print("perfbench: " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
