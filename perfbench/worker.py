"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload low-window --seed 1 --index 0 --trace 0 --workdir DIR
    python3 perfbench/worker.py --setup-only

run.py starts this script once for every pass, one after another, so nothing
the package keeps in memory (a solve memo, say) outlives a pass.  It times
the set-up (the import of the package, the acceptance specs and the first
LAPACK call), runs the pass's tasks, checks each output, and prints the
pass's record as one JSON line.  With --trace 1 the package is traced and
the record holds the spans and the per-layer figures of the pass.  With
--setup-only it prints the set-up time alone.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402  (the imports below are part of the timed set-up)
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=tuple(workloads.BUILDERS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--index", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    args = parser.parse_args(argv)
    if not args.setup_only and None in (args.workload, args.seed, args.index, args.workdir):
        parser.error("--workload, --seed, --index and --workdir are required for a pass")
    return args


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library loaded into this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                func = getattr(lib, symbol)
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "PDM_SPECTRA_THREADS": os.environ.get("PDM_SPECTRA_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def run_pass(tasks) -> dict:
    """Run tasks one after another; time the program calls, then check each output."""
    record = {"wall": 0.0, "cli": 0.0, "attempted": 0, "failed": 0, "margins": [],
              "problems": [], "tasks": []}
    for task in tasks:
        record["attempted"] += 1
        start = time.perf_counter()
        try:
            output = task.call()
            elapsed = time.perf_counter() - start
            verdict = task.check(output)
        except Exception as exc:  # a task that raises is a failed task, not a dead run
            elapsed = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            problems = [f"{task.name}: raised {type(exc).__name__}: {exc}"]
        else:
            problems = verdict.problems
            if not task.seeded:
                record["margins"].extend(verdict.margins)
        record["wall"] += elapsed
        if task.cli:
            record["cli"] += elapsed
        record["tasks"].append([task.name, elapsed])
        if problems:
            record["failed"] += 1
            record["problems"].extend(problems)
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    ctx = workloads.Context(args.workdir)
    setup = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0

    tasks = workloads.build_pass(args.workload, ctx, args.seed, args.index)
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            record = run_pass(tasks)
        finally:
            tracer.uninstall()
        spans = tracer.take()
        record["layers"] = {name: list(value) for name, value in
                            tracing.layer_metrics(spans, record["wall"]).items()}
        record["spans"] = [span.as_dict() for span in spans]
    else:
        record = run_pass(tasks)
    record.update(setup_s=setup, pid=os.getpid(), environment=environment(),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
