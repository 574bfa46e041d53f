"""Span recorder that traces the package from outside.

`Tracer.install` wraps the public functions of each package module (and the
public methods of the model classes) and rebinds every module attribute
that refers to them, so `verify.eig` and `cli.eig` are traced as well as
`eigen.eig`.  Nothing inside the package changes; `uninstall` restores the
originals.

Each call becomes a span: id, parent id, name, start and end.  Spans are
kept in memory and summarised per pass by `layer_metrics`.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("model", "config", "mapping", "operators", "eigen", "verify", "cli")

# The CLI's only public entry point; its subcommands stay inside its span.
_CLI_PUBLIC = ("main",)
# verify.atomic_write_text is the CLI's file write; left unwrapped, its cost
# stays in cli.main's self time with the parsing and serialising.
_UNWRAPPED = {"verify.atomic_write_text"}

ASSEMBLY = ("operators.build_reference_matrix", "operators.build_target_matrix",
            "operators.build_eta_matrix")
POTENTIALS = ("mapping.reference_potential", "mapping.target_potential",
              "mapping.potential_decomposition", "mapping.closed_form_reference",
              "mapping.closed_form_target")
CHECKS = ("check_isospectral", "isospectral_sweep", "check_intertwining",
          "check_analytic", "check_identities", "convergence_sweep",
          "eigensolver_validation")
# Spans that time the tracer's own bookkeeping; they belong to no layer but
# count as children, so the bookkeeping is not billed to the caller's self time.
_HOOK = "trace.hook"


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "tag")

    def __init__(self, span_id: int, parent: int, name: str):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = self.end = 0.0
        self.tag = None

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "tag": self.tag}


def _matrix_array(matrix) -> np.ndarray:
    return np.ascontiguousarray(getattr(matrix, "entries", matrix))


def _eig_tag(args, kwargs, result):
    arr = _matrix_array(args[0] if args else kwargs["matrix"])
    vectors = bool(args[1] if len(args) > 1 else kwargs.get("vectors", False))
    digest = hashlib.blake2b(arr.data, digest_size=16)
    digest.update(repr((arr.shape, arr.dtype.str)).encode())
    return {"bytes": int(arr.nbytes), "hash": digest.hexdigest(), "vectors": vectors}


def _assembly_tag(args, kwargs, result):
    return {"bytes": int(result.entries.nbytes)}


def _cli_tag(args, kwargs, result):
    return {"argv": list(args[0] if args else kwargs.get("argv") or [])}


_TAGS = {"eigen.eig": _eig_tag, "cli.main": _cli_tag,
         **{name: _assembly_tag for name in ASSEMBLY}}


class Tracer:
    """Records spans for calls into the package while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[Span, list[Span]]:
        stack = self._stack()
        # A worker thread's first span was caused by whatever the main thread
        # is blocked in (verify --which all hands its checks to a pool).
        owner = stack or self._main_stack
        span = Span(next(self._ids), owner[-1].id if owner else 0, name)
        stack.append(span)
        span.start = time.perf_counter()
        return span, stack

    def _wrap(self, name: str, fn):
        tag = _TAGS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, stack = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if tag is not None:
                hook = Span(next(tracer._ids), span.parent, _HOOK)
                hook.start = time.perf_counter()
                span.tag = tag(args, kwargs, result)
                hook.end = time.perf_counter()
                tracer.spans.append(hook)
            return result

        return traced

    def _targets(self):
        """(owner, attribute, span name) for every public callable to wrap."""
        for layer in LAYERS:
            module = sys.modules[f"pdm_spectra.{layer}"]
            public = _CLI_PUBLIC if layer == "cli" else module.__all__
            for attr in public:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    yield module, attr, f"{layer}.{attr}"
                elif layer == "model" and inspect.isclass(obj):
                    # The model layer does its work in the methods of its
                    # profile and generator classes; other layers' classes
                    # hold data.
                    for meth, raw in vars(obj).items():
                        if meth.startswith("_") and meth != "__call__":
                            continue
                        if inspect.isfunction(raw) or isinstance(raw, classmethod):
                            yield obj, meth, f"{layer}.{obj.__name__}.{meth}"

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for k, m in sys.modules.items()
                   if k == "pdm_spectra" or k.startswith("pdm_spectra.")]
        for owner, attr, name in self._targets():
            if name in _UNWRAPPED:
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                continue
            wrapped = self._wrap(name, raw)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapped)
                continue
            # Rebind the function wherever a module imported it by name.
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, alias, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > max(lo, reach):
            total += hi - max(lo, reach)
            reach = hi
    return total


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of span's interval that its children cover."""
    return _union_length((max(c.start, span.start), min(c.end, span.end)) for c in children)


def layer_metrics(spans: list[Span], pass_wall: float) -> dict:
    """Per-layer figures of one traced pass, keyed by metric name."""
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_time = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        if span.name == _HOOK:
            continue
        duration = span.end - span.start
        own = duration - _covered(span, children[span.id])
        calls[span.name] += 1
        busy[span.name] += duration
        self_time[span.name] += own
        layer_self[span.name.split(".", 1)[0]] += own

    eig_tags = [s.tag for s in spans if s.name == "eigen.eig"]
    eig_calls = len(eig_tags)
    distinct = len({t["hash"] for t in eig_tags})

    overlap = 0.0
    for span in spans:
        if span.name == "cli.main" and span.tag["argv"][:1] == ["verify"] \
                and "all" in span.tag["argv"]:
            checks = sum(c.end - c.start for c in children[span.id]
                         if c.name.startswith("verify."))
            overlap = checks / (span.end - span.start)

    metrics = {
        "eigen.eig.calls": (eig_calls, "count"),
        "eigen.eig.vector_calls": (sum(t["vectors"] for t in eig_tags), "count"),
        "eigen.eig.busy_s": (busy["eigen.eig"], "s"),
        # Share of the pass during which at least one eig call ran; busy_s sums
        # over threads, so it can exceed the pass under verify's thread pool.
        "eigen.eig.wall_share": (_union_length(
            (s.start, s.end) for s in spans if s.name == "eigen.eig") / pass_wall, "ratio"),
        "eigen.eig.distinct_ratio": (distinct / eig_calls if eig_calls else 0.0, "ratio"),
        "eigen.eig.input_bytes": (sum(t["bytes"] for t in eig_tags), "bytes"),
        "eigen.classify_spectrum.busy_s": (busy["eigen.classify_spectrum"], "s"),
        "eigen.match_eigenvalue_sets.busy_s": (busy["eigen.match_eigenvalue_sets"], "s"),
        "eigen.brute_oracle_small.calls": (calls["eigen.brute_oracle_small"], "count"),
        "eigen.brute_oracle_small.busy_s": (busy["eigen.brute_oracle_small"], "s"),
        "operators.assembly.calls": (sum(calls[n] for n in ASSEMBLY), "count"),
        "operators.assembly.self_s": (sum(self_time[n] for n in ASSEMBLY), "s"),
        "operators.assembly.output_bytes": (
            sum(s.tag["bytes"] for s in spans if s.name in ASSEMBLY), "bytes"),
        "mapping.potential.calls": (sum(calls[n] for n in POTENTIALS), "count"),
        "mapping.potential.busy_s": (sum(busy[n] for n in POTENTIALS), "s"),
        "cli.main.calls": (calls["cli.main"], "count"),
        "cli.main.self_s": (self_time["cli.main"], "s"),
        "cli.verify_all.overlap": (overlap, "ratio"),
        "trace.spans": (sum(calls.values()), "count"),
    }
    for check in CHECKS:
        metrics[f"verify.{check}.self_s"] = (self_time[f"verify.{check}"], "s")
    # cli.main is the CLI's only span, so cli.main.self_s is that layer's figure.
    for layer in LAYERS[:-1]:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
    return metrics
