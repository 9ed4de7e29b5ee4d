"""Spans around calls into contest_opt's public functions, added from outside.

`Instrumentation` swaps every public function of the traced layers, in every
package namespace that binds it, for a wrapper that records a span: name,
start, end, parent span and operation id.  Counts are taken at the same
boundary (points evaluated, B&B nodes, term evaluations).  Spans stay in
memory; `Tracer.dump` writes them once, at the end of a run.

Import this module after ``src/`` is on ``sys.path``.  Thread pools in the
package are swapped for one that copies the caller's
context into each task, so a span opened in a pool thread still names the
span that submitted it as its parent.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from contest_opt import objective as obj
from contest_opt.quadrature import QuadratureConfig

LAYERS = ("bernstein", "quadrature", "objective", "policy", "optimizer",
          "equilibrium", "cli")


@dataclass
class Span:
    span_id: int
    parent: int | None
    op: object
    name: str
    start: float
    end: float
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; the current span travels in a context variable."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: object = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None)

    def call(self, name, fn, args, kwargs, count):
        with self._lock:
            span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self._record(Span(span_id, parent, self.op, name, start,
                              time.perf_counter(), {"raised": 1}))
            raise
        finally:
            self._current.reset(token)
        end = time.perf_counter()
        self._record(Span(span_id, parent, self.op, name, start, end,
                          count(args, kwargs, out) if count else {}))
        return out

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__, default=str) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


class _ContextPool(ThreadPoolExecutor):
    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def term_count(spec) -> int:
    """Number of terms in the objective's term form (one array each)."""
    if isinstance(spec, obj.ConvexCombo):
        return int(spec.alpha > 0.0) + int(spec.alpha < 1.0)
    if isinstance(spec, obj.Posynomial):
        return len(spec.terms)
    if isinstance(spec, obj.Exponential):
        return len(spec.lambdas) * (spec.order() + 1)
    if isinstance(spec, obj.SocialWelfare):
        return 1 + len(spec.platform_terms)
    return 1  # MaxOrderStat


def _points(arg_index):
    def count(args, kwargs, out):
        return {"points": int(np.size(args[arg_index]))}
    return count


def _lattice_value_counts(args, kwargs, out):
    terms = term_count(args[0]) * int(np.size(args[2]))
    return {"term_evals": terms, "bytes_computed": 8 * terms}


def _bnb_counts(args, kwargs, out):
    return {"nodes": out.nodes_explored, "max_depth": out.max_depth,
            "value_evals": len(kwargs["trace"])}


COUNTERS = {
    "bernstein.basis_matrix": _points(1),
    "bernstein.h_eval": _points(1),
    "bernstein.h_inverse": _points(1),
    "bernstein.h_derivative": _points(1),
    "objective.lattice_value": _lattice_value_counts,
    "optimizer.branch_and_bound": _bnb_counts,
}


class Instrumentation:
    """Installs the wrappers while active; the package is untouched otherwise."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patches: list[tuple[object, str, object]] = []
        self._seen_quads: set = set()

    def _wrap(self, name, fn):
        tracer, count = self.tracer, COUNTERS.get(name)
        if name == "optimizer.branch_and_bound":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                # value evaluations come back through the public trace= list
                kwargs.setdefault("trace", [])
                return tracer.call(name, fn, args, kwargs, count)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs, count)
        return wrapper

    def _nodes_weights_wrapper(self, fn):
        tracer, seen = self.tracer, self._seen_quads

        def count(args, kwargs, out):
            quad = args[0]
            key = (quad.m, quad.rule, quad.exclude_left_endpoint)
            cold = key not in seen
            seen.add(key)
            return {"cold": int(cold)}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call("quadrature.nodes_weights", fn, args, kwargs, count)
        return wrapper

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        # every loaded package module: several bind layer functions by name
        modules = [m for name, m in list(sys.modules.items())
                   if name == "contest_opt" or name.startswith("contest_opt.")]
        for layer in LAYERS:
            mod = importlib.import_module("contest_opt." + layer)
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap("%s.%s" % (layer, attr), fn)
                for owner in modules:
                    for bound, value in list(vars(owner).items()):
                        if value is fn:
                            self._set(owner, bound, wrapper)
        for owner in modules:
            if vars(owner).get("ThreadPoolExecutor") is ThreadPoolExecutor:
                self._set(owner, "ThreadPoolExecutor", _ContextPool)
        self._set(QuadratureConfig, "nodes_weights",
                  self._nodes_weights_wrapper(QuadratureConfig.nodes_weights))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
