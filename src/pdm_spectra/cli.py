"""Command-line front end.

Subcommands:

* orderings: list the built-in kinetic-ordering presets with their
  profile exponents.
* map: tabulate the change of variables and potentials as CSV.
* solve: eigenvalues of the flat-picture and/or mass-picture operator,
  written as JSON: the text of json.dumps(..., indent=2, sort_keys=True),
  with the eigenvalue arrays written straight from their parts.
* verify: run one or all of the consistency checks; exit 1 on failure.
* sweep: matched-level error against a grid refinement, as CSV.
* defaults: print the full default configuration.

Exit codes: 0 success, 1 a verification check failed, 2 bad usage,
bad config, a model/numerics error, such as a banded solve whose Aberth
sweeps do not converge (NoConvergenceError), or a grid too large to
allocate (MemoryError); no output file is then written.  Output files
are written atomically; reruns with the same inputs produce identical
bytes, forked or not.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .config import (
    DEFAULTS,
    RunConfig,
    build_intertwine_spec,
    build_spec,
    config_from_dict,
    load_config,
)
from .errors import (
    BetaMinusOneError,
    ConfigError,
    PdmSpectraError,
    TooLargeError,
    UnsupportedKindError,
)
from .eigen import eig
from .mapping import potential_decomposition, target_potential
from .model import ORDERING_PRESETS, delta_of
from .operators import MAX_DENSE_NODES, matched_domains, picture_matrix
from .verify import (
    VerificationReport,
    _jsonable,
    atomic_write_text,
    check_analytic,
    check_identities,
    check_intertwining,
    convergence_sweep,
    eigensolver_validation,
    isospectral_sweep,
)

_CHECK_ORDER = ("isospectral", "intertwining", "analytic", "identities", "solver")


def _load(args) -> RunConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return config_from_dict({})


def _emit(out: str | None, *parts: str) -> None:
    if out:
        atomic_write_text(out, *parts)
    else:
        sys.stdout.writelines(parts)


def cmd_orderings(args) -> int:
    rows = []
    for name, ordering in ORDERING_PRESETS.items():
        try:
            delta = str(delta_of(ordering))
        except BetaMinusOneError:
            delta = "undefined"
        rows.append((name, str(ordering.alpha), str(ordering.beta), str(ordering.gamma), delta))
    if args.json:
        payload = [
            {"name": n, "alpha": a, "beta": b, "gamma": g, "delta": d}
            for n, a, b, g, d in rows
        ]
        _emit(args.out, json.dumps(payload, indent=2) + "\n")
        return 0
    widths = [max(len(r[i]) for r in rows + [("name", "alpha", "beta", "gamma", "delta")])
              for i in range(5)]
    header = ("name", "alpha", "beta", "gamma", "delta")
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_map(args) -> int:
    cfg = _load(args)
    spec = build_spec(cfg)
    n = args.n if args.n is not None else cfg.n
    grid_x, grid_q = matched_domains(spec, n)
    q, x = grid_q.nodes, grid_x.nodes
    mu = spec.profile.eval(x).mu
    veff = target_potential(spec, x)
    dec = potential_decomposition(spec, x)
    columns = [c.tolist() for c in (q, x, mu, veff.real, veff.imag, dec.vtilde, dec.w, dec.v)]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    half = q.size // 2

    def rows(part: slice) -> str:
        return "".join(row % values for values in zip(*(c[part] for c in columns)))

    # %.17g conversion is nearly all of a map's time: a child formats the
    # second half of the rows beside the first, and the parts are written in
    # turn rather than joined into one more copy of the table
    head, tail = _alongside(lambda: rows(slice(half)), lambda: rows(slice(half, None)))
    _emit(args.out, "q,x,mu,veff_re,veff_im,vtilde,w,v\n", head, tail)
    return 0


def _solve_payload(picture: str, n: int, grid, spectrum) -> dict:
    return {
        "picture": picture,
        "n": n,
        "grid": {"kind": grid.kind, "a": grid.a, "b": grid.b},
        "eigenvalues": spectrum.eigenvalues,
        "matrix_norm": spectrum.matrix_norm,
        "trace_error": spectrum.trace_error,
    }


def _solve_text(payload: dict) -> list[str]:
    """json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n" in
    parts, for a solve payload.  json.dumps writes the skeleton, each
    "eigenvalues" array there an empty list; the arrays are written in its
    place straight from their real and imaginary parts with one row
    template, repr for a finite part (as json writes a float) and null
    otherwise.  A JSON string escapes every quote, so the key and its empty
    list can stand only for an array."""
    arrays = []

    def skeleton(node: dict) -> dict:
        out = {}
        for key in sorted(node):  # the order json.dumps writes them in
            value = node[key]
            if key == "eigenvalues":
                arrays.append(value)
                value = []
            out[key] = skeleton(value) if isinstance(value, dict) else value
        return out

    pieces = (json.dumps(_jsonable(skeleton(payload)), indent=2, sort_keys=True) + "\n"
              ).split('"eigenvalues": []')
    parts = [pieces[0]]
    for values, before, after in zip(arrays, pieces, pieces[1:]):
        indent = " " * (len(before) - len(before.rstrip(" ")))
        row = f'{indent}  {{\n{indent}    "im": %s,\n{indent}    "re": %s\n{indent}  }}'
        rows = ",\n".join(map(row.__mod__, zip(_numbers(values.imag), _numbers(values.real))))
        parts += [f'"eigenvalues": [\n{rows}\n{indent}]' if rows else '"eigenvalues": []', after]
    return parts


def _numbers(values) -> list[str]:
    """The JSON text of each float: its repr, or null where it is not finite."""
    return [repr(x) if math.isfinite(x) else "null" for x in values.tolist()]


def _alongside(first, second):
    """(first(), second()), with second() run in a forked child while this
    process runs first(), where os.fork exists and more than one CPU is
    usable; elsewhere the two run here, one after the other.

    The child sends its result, or the exception it raised, pickled through
    a pipe, and ends with os._exit: it writes nothing else and runs no exit
    handler.  The parent reads the pipe to EOF before it reaps the child,
    kills and reaps it if first() raises, and raises the child's exception
    as its own.  A child that sends nothing (killed, or holding a result
    that does not pickle) has second() run here.

    Its callers: `cmd_solve --picture both`, whose child runs `eig` on the
    target picture, and `cmd_map`, whose child formats the second half of
    the CSV rows.
    """
    usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if not hasattr(os, "fork") or len(usable) < 2:
        return first(), second()
    import pickle

    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            try:
                result = True, second()
            except Exception as exc:
                result = False, exc
            with open(write, "wb") as pipe:
                pipe.write(pickle.dumps(result))
        finally:
            os._exit(0)
    os.close(write)
    try:
        with open(read, "rb") as pipe:
            mine = first()
            sent = pipe.read()
    except BaseException:
        import signal

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    if not sent:
        return mine, second()
    ok, result = pickle.loads(sent)
    if not ok:
        raise result
    return mine, result


def cmd_solve(args) -> int:
    cfg = _load(args)
    spec = build_spec(cfg)
    n = args.n if args.n is not None else cfg.n
    if n > MAX_DENSE_NODES:
        # before any grid or band is built
        raise TooLargeError(f"full spectra are limited to {MAX_DENSE_NODES} nodes, got {n}")
    if args.picture == "both":
        # eig of the target picture runs in a forked child beside that of
        # the reference picture
        (ref_grid, ref), (grid, target) = (picture_matrix(spec, picture, n)
                                           for picture in ("reference", "target"))
        reference, spectrum = _alongside(lambda: eig(ref), lambda: eig(target))
        payload = {
            "picture": "both",
            "reference": _solve_payload("reference", n, ref_grid, reference),
            "target": _solve_payload("target", n, grid, spectrum),
        }
    else:
        grid, matrix = picture_matrix(spec, args.picture, n)
        payload = _solve_payload(args.picture, n, grid, eig(matrix))
    _emit(args.out, *_solve_text(payload))
    return 0


def _run_check(name: str, cfg: RunConfig, seed: int) -> VerificationReport:
    tol = cfg.tolerances
    if name == "isospectral":
        return isospectral_sweep(
            build_spec(cfg), cfg.n_sweep, cfg.k_levels,
            tol=tol["isospectral"], min_rate=tol["iso_rate"],
        )
    if name == "intertwining":
        return check_intertwining(
            build_intertwine_spec(cfg), cfg.n_sweep, min_rate=tol["intertwine_rate"],
        )
    if name == "analytic":
        return check_analytic(
            build_spec(cfg), cfg.n, tol=tol["analytic"], im_tol=tol["im"],
        )
    if name == "identities":
        return check_identities(build_spec(cfg), tol=tol["identities"])
    if name == "solver":
        return eigensolver_validation(
            seed=seed, tol=tol["solver"], trace_tol=tol["trace"],
        )
    raise ConfigError(f"unknown check {name!r}")


def _summary_line(report: VerificationReport) -> str:
    bits = []
    for key in ("max_gap", "final_gap", "worst_gap", "rate", "bound_count", "note"):
        if key in report.details and report.details[key] is not None:
            value = report.details[key]
            bits.append(f"{key}={value:.3e}" if isinstance(value, float) else f"{key}={value}")
    verdict = "pass" if report.passed else "FAIL"
    suffix = f" ({', '.join(bits)})" if bits else ""
    return f"{report.check}: {verdict}{suffix}"


def cmd_verify(args) -> int:
    cfg = _load(args)
    # an override passes the config's own check
    seed = cfg.seed if args.seed is None else config_from_dict({"seed": args.seed}).seed
    if args.which == "all":
        reports = []
        for name in _CHECK_ORDER:
            try:
                reports.append(_run_check(name, cfg, seed))
            except UnsupportedKindError as exc:
                reports.append(VerificationReport(
                    check=name, passed=True,
                    details={"note": f"skipped: {exc}"},
                ))
        report = VerificationReport(check="all", passed=all(r.passed for r in reports),
                                    details={"reports": [r.to_dict() for r in reports]})
    else:
        report = _run_check(args.which, cfg, seed)
        reports = [report]
    for each in reports:
        print(_summary_line(each))
    if args.out:
        report.save(args.out)
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    cfg = _load(args)
    spec = build_spec(cfg)
    result = convergence_sweep(
        spec, cfg.n_sweep, picture=args.picture, oracle=cfg.oracle_level,
    )
    rows = zip(result["n"], result["h"], result["error"])
    lines = ["n,h,error", *("%d,%.17g,%.17g" % row for row in rows)]
    _emit(args.out, "\n".join(lines) + "\n")
    print(f"rate {result['rate']:.3f}", file=sys.stderr)
    return 0


def cmd_defaults(args) -> int:
    _emit(args.out, json.dumps(DEFAULTS, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdm-spectra",
        description="Spectra of complexified position-dependent-mass Hamiltonians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orderings", help="list kinetic-ordering presets")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_orderings)

    p = sub.add_parser("map", help="tabulate the change of variables and potentials")
    p.add_argument("--config", help="JSON run config")
    p.add_argument("--n", type=int, help="override the number of sample points")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("solve", help="eigenvalues of the discretized operators")
    p.add_argument("--config", help="JSON run config")
    p.add_argument("--picture", choices=("reference", "target", "both"),
                   default="reference")
    p.add_argument("--n", type=int, help="override the grid size")
    p.add_argument("--out", help="JSON output path (default stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run consistency checks")
    p.add_argument("--config", help="JSON run config")
    p.add_argument("--which", choices=_CHECK_ORDER + ("all",), default="all")
    p.add_argument("--seed", type=int, help="override the RNG seed for the solver check")
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="error against a ladder over a grid refinement")
    p.add_argument("--config", help="JSON run config")
    p.add_argument("--picture", choices=("reference", "target"), default="reference")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("defaults", help="print the default configuration")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_defaults)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = os.path.dirname(os.path.abspath(args.out or "."))
    if not os.path.isdir(out):
        print(f"error: --out {args.out}: no such directory {out}", file=sys.stderr)
        return 2
    if args.out and os.path.isdir(args.out):
        # the rename at the end of the run would fail on it
        print(f"error: --out {args.out}: is a directory", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PdmSpectraError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy raises a private subclass
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
