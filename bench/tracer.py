"""Outside-in tracer for the tppat package.

The tracer replaces the public functions named in ``LAYERS`` with timing
wrappers at every binding site: the defining module, every ``tppat`` module
that imported the function by name, or the class that owns the method. It
adds no hook inside the package. Each call becomes a span (name, start, end,
parent); spans live in memory until ``write`` dumps them.

Counts come only from values the package already returns (``SolverReport``,
``LsqReport``, ``ConditionReport``, transferred fields), read by the
observers in ``OBSERVERS`` after the wrapped call has returned, so their
cost is not charged to the span.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

LAYERS = (
    "mesh.build_square_mesh",
    "fem.assemble_stiffness",
    "fem.solve_linear",
    "fem.save_field",
    "forward.ForwardOperator.init",
    "forward.solve_semilinear",
    "forward.ForwardOperator.solve_linearized",
    "forward.ForwardOperator.solve_reaction",
    "lsq.run_lsq",
    "lsq.Evaluator.forward_states",
    "lsq.Evaluator.gradient",
    "lsq.Evaluator.solve_adjoint",
    "direct.recover_all_fields",
    "direct.fit_pair_pointwise",
    "transfer.make_locator",
    "transfer.transfer_field",
    "metrics.relative_l2_error",
    "experiments.prepare_data",
    "experiments.DataBundle.datum_set",
    "experiments.reconstruct",
)

# The two layers whose spans make up one reconstruction job. They stay
# wrapped in untraced runs too, because job_s.p50 is an end-to-end metric.
JOB_LAYERS = ("experiments.DataBundle.datum_set", "experiments.reconstruct")

@dataclass(eq=False)
class Span:
    name: str
    parent: "Span | None"
    thread: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    job: tuple | None = None     # (epsilon, seed) for the two job layers

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _job_key(datum_set) -> tuple:
    meta = datum_set.meta[0]
    return float(meta["epsilon"]), int(meta["seed"])


def _observe_newton(tracer, span, args, kwargs, result):
    steps = result[1].iterations
    span.counts = {"forward.newton_steps": steps,
                   "forward.zero_step_solves": int(steps == 0)}


def _observe_lsq(tracer, span, args, kwargs, result):
    report = result[2]
    span.counts = {"lsq.bfgs_iterations": report.iterations,
                   "lsq.unconverged": int(not report.converged)}


def _observe_fit(tracer, span, args, kwargs, result):
    span.counts = {"direct.flagged_nodes": int(np.count_nonzero(result[2].flagged))}


def _observe_transfer(tracer, span, args, kwargs, result):
    source = args[0] if args else kwargs["source_mesh"]
    target = args[1] if len(args) > 1 else kwargs["target_mesh"]
    # the meshes are kept alive so that their ids stay unique for the run
    tracer.mesh_pairs[(id(source), id(target))] = (source, target)
    span.counts = {"transfer.target_nodes": len(result)}


def _observe_datum_set(tracer, span, args, kwargs, result):
    span.job = _job_key(result)


def _observe_reconstruct(tracer, span, args, kwargs, result):
    span.job = _job_key(args[2] if len(args) > 2 else kwargs["datum_set"])


OBSERVERS = {
    "forward.solve_semilinear": _observe_newton,
    "lsq.run_lsq": _observe_lsq,
    "direct.fit_pair_pointwise": _observe_fit,
    "transfer.transfer_field": _observe_transfer,
    "experiments.DataBundle.datum_set": _observe_datum_set,
    "experiments.reconstruct": _observe_reconstruct,
}


def _load_package():
    """Import every tppat submodule, so no binding site appears after patching."""
    package = importlib.import_module("tppat")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"tppat.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tppat" or name.startswith("tppat."))]


def _binding_sites(layer: str, modules):
    """(owner, attribute, original) for every place the layer is bound."""
    parts = layer.split(".")
    module = importlib.import_module(f"tppat.{parts[0]}")
    if len(parts) == 3:
        owner = getattr(module, parts[1])
        attr = "__init__" if parts[2] == "init" else parts[2]
        return [(owner, attr, owner.__dict__[attr])]
    original = getattr(module, parts[1])
    return [(m, attr, original) for m in modules
            for attr, value in vars(m).items() if value is original]


class Tracer:
    """Spans and counts for the wrapped layers of one benchmark run."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.spans: list[Span] = []
        self.mesh_pairs: dict = {}
        self._local = threading.local()
        self._runner_stack: list = []
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        # a pool thread starts with an empty stack; its work was submitted by
        # the innermost span the runner's thread has open
        runner = self._runner_stack
        parent = stack[-1] if stack else (runner[-1] if runner else None)
        span = Span(name, parent, threading.get_ident())
        stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, layer: str, fn):
        observe = OBSERVERS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if observe is not None:
                observe(tracer, span, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding site of every layer; restore them on exit."""
        modules = _load_package()
        try:
            for layer in self.layers:
                sites = _binding_sites(layer, modules)
                wrapper = self._wrap(layer, sites[0][2])
                for owner, attr, original in sites:
                    setattr(owner, attr, wrapper)
                    self._patches.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    @contextmanager
    def phase(self, name: str):
        """A runner-level span ("setup" or "sweep") that parents all others."""
        self._runner_stack = self._stack()
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- summaries ------------------------------------------------------------

    def phases(self, name: str) -> list:
        return [s for s in self.spans if s.parent is None and s.name == name]

    def jobs(self, seconds=lambda span: span.seconds) -> list:
        """Seconds of each job: its datum_set span plus its reconstruct span."""
        per_sweep: dict = defaultdict(float)
        for s in self.spans:
            if s.job is not None:
                per_sweep[(id(_root(s)), s.job)] += seconds(s)
        return list(per_sweep.values())

    def layer_totals(self) -> dict:
        """Calls, inclusive and self seconds, and counts per run unit.

        A run unit is one setup plus one sweep: each phase's totals are
        divided by the number of times the runner opened that phase. All
        setups of a run are identical, and so are all sweeps, so the counts
        of a unit repeat exactly whatever number of sweeps fit in a run.
        """
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append(s)
        sums = defaultdict(lambda: defaultdict(int))     # (layer, phase) -> key -> sum
        for s in self.spans:
            if s.name not in self.layers:
                continue
            t = sums[(s.name, _root(s).name)]
            t["calls"] += 1
            t["s"] += s.seconds
            t["self_s"] += s.seconds - _covered(children[id(s)])
            for key, value in s.counts.items():
                t[key] += value
        totals = {layer: defaultdict(float) for layer in self.layers}
        for (layer, phase), t in sums.items():
            for key, value in t.items():
                totals[layer][key] += value / len(self.phases(phase))
        return totals

    def write(self, path) -> None:
        """Dump the spans as JSON lines; parents refer to span ids."""
        ids = {id(s): k for k, s in enumerate(self.spans)}
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for k, s in enumerate(self.spans):
                record = {"id": k, "name": s.name,
                          "start": s.start - origin, "end": s.end - origin,
                          "parent": None if s.parent is None else ids[id(s.parent)],
                          "thread": s.thread}
                if s.counts:
                    record["counts"] = s.counts
                if s.job is not None:
                    record["job"] = list(s.job)
                fh.write(json.dumps(record) + "\n")


def _root(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


def _covered(spans) -> float:
    """Length of the union of the spans' intervals (pool threads overlap)."""
    total, reach = 0.0, float("-inf")
    for s in sorted(spans, key=lambda s: s.start):
        if s.end > reach:
            total += s.end - max(s.start, reach)
            reach = s.end
    return total
