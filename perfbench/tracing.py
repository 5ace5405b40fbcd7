"""Spans and counters recorded from outside the package.

The traced worker process calls the package through an ``Api`` built with a
``Tracer``.  Every public call the workload makes runs inside a span; calls
the package makes internally are seen through three kinds of hooks installed
in the traced process only:

* model subclasses that time and count ``omega_plus_sites`` / ``rate_sites``
  (environment builds).  Subclassing keeps every ``isinstance`` dispatch in
  the package, and therefore window sizing and closed-form lookup, unchanged;
* ``BlockUniforms.step`` wrapped to count calls and lanes (the rng layer);
* the ``ensemble_discrete`` / ``ensemble_continuous`` names the estimators
  module calls, wrapped in walk spans.

Spans are kept in memory and written out by the worker at the end.  Uniform
draws happen once per walk step, so they are not stored one span per call:
each parent span gets one aggregate ``BlockUniforms.step`` span holding the
call count and the summed duration.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import time
from collections import Counter, defaultdict

import rwrelab
import rwrelab.estimators
import rwrelab.rng

# Layers whose self time is attributed; anything else in the traced wall time
# (the benchmark's own glue inside a task span) is reported as unattributed.
LAYERS = ("rng", "environments", "walks.discrete", "walks.continuous",
          "estimators", "estimators.renewal", "series", "exact")

# Public functions the workloads call, and the layer each belongs to.
API_LAYERS = {
    "annealed_velocity": "estimators",
    "annealed_diffusion": "estimators",
    "annealed_tau1": "estimators",
    "renewal_product_moment": "estimators.renewal",
    "velocity_jump_probe": "estimators.renewal",
    "ensemble_discrete": "walks.discrete",
    "ensemble_continuous": "walks.continuous",
    "sbar_quenched": "series",
    "u_quenched": "series",
    "v_quenched": "series",
    "lambda_factor": "series",
    "shat_quenched": "series",
    "exact_walk_distribution": "exact",
    "exact_sbar_periodic": "exact",
    "exact_tau1_periodic_continuous": "exact",
}


class Tracer:
    """In-memory span recorder with per-layer self times and counters.

    A layer's self time is its spans' duration minus the time covered by
    their child spans; busy time is the duration of its outermost spans.
    """

    def __init__(self):
        self._subclasses: dict[type, type] = {}
        self.reset()

    def reset(self) -> None:
        """Drop the spans, counters and times recorded so far."""
        if getattr(self, "_stack", None):
            raise RuntimeError("cannot reset a tracer with open spans")
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.busy_s: defaultdict = defaultdict(float)
        self._stack: list[dict] = []
        self._depth: Counter = Counter()
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1]["id"] if self._stack else None
        frame = {"id": self._new_id(), "name": name, "layer": layer,
                 "parent": parent, "child_s": 0.0, "aggs": {}}
        self._stack.append(frame)
        self._depth[layer] += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._depth[layer] -= 1
            dur = end - start
            self.self_s[layer] += dur - frame["child_s"]
            if self._depth[layer] == 0:
                self.busy_s[layer] += dur
            if self._stack:
                self._stack[-1]["child_s"] += dur
            self.spans.append({"id": frame["id"], "name": name, "layer": layer,
                               "parent": parent, "start": start, "end": end})
            self.spans.extend(frame["aggs"].values())

    def leaf(self, name: str, layer: str, start: float, end: float) -> None:
        """A short call with no children, folded into one aggregate span per
        parent (start of the first call, summed duration, call count)."""
        dur = end - start
        self.self_s[layer] += dur
        self.busy_s[layer] += dur
        if not self._stack:
            self.spans.append({"id": self._new_id(), "name": name,
                               "layer": layer, "parent": None,
                               "start": start, "end": end})
            return
        top = self._stack[-1]
        top["child_s"] += dur
        agg = top["aggs"].get(name)
        if agg is None:
            agg = top["aggs"][name] = {
                "id": self._new_id(), "name": name, "layer": layer,
                "parent": top["id"], "start": start, "end": start,
                "calls": 0, "total_s": 0.0}
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["end"] = agg["start"] + agg["total_s"]

    def inside(self, layer: str) -> bool:
        return self._depth[layer] > 0

    def current_layer(self) -> str | None:
        return self._stack[-1]["layer"] if self._stack else None

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn, layer: str):
        """fn wrapped in a span of the given layer, with its layer counters."""
        name = fn.__name__

        def traced(*args, **kwargs):
            with self.span(name, layer):
                out = fn(*args, **kwargs)
            self._count_result(fn, layer, out, args, kwargs)
            return out

        traced.__name__ = name
        traced.__wrapped__ = fn
        return traced

    def _count_result(self, fn, layer, out, args, kwargs) -> None:
        c = self.counters
        if layer.startswith("walks."):
            c["walks.aborted_lanes"] += int(out.aborted.sum())
        elif layer == "estimators.renewal":
            bound = inspect.signature(fn).bind(*args, **kwargs)
            c["estimators.renewal.envs"] += int(bound.arguments["replicas"])
        elif layer == "series":
            c["series.terms"] += int(out.terms_used)
            c["series.inconclusive"] += int(out.status == "inconclusive")
        elif layer == "exact":
            c["exact.calls"] += 1

    def traced_model(self, model):
        """The same model as an instance of a subclass whose site builds are
        timed and counted (builds, sites)."""
        base = type(model)
        sub = _traced_subclass(self, base)
        fields = {f.name: getattr(model, f.name)
                  for f in dataclasses.fields(model) if f.init}
        return sub(**fields)

    @contextlib.contextmanager
    def installed(self):
        """Hook BlockUniforms.step and the estimators' walk entry points for
        the duration of the block."""
        saved_step = rwrelab.rng.BlockUniforms.step
        saved_walks = {name: getattr(rwrelab.estimators, name)
                       for name in ("ensemble_discrete", "ensemble_continuous")}
        tracer = self

        def step(uni, t):
            start = time.perf_counter()
            out = saved_step(uni, t)
            end = time.perf_counter()
            tracer.leaf("BlockUniforms.step", "rng", start, end)
            lanes = int(out.shape[0])
            tracer.counters["rng.step_calls"] += 1
            tracer.counters["rng.draws"] += lanes
            layer = tracer.current_layer()
            if layer == "walks.discrete":
                tracer.counters["walks.discrete.lane_steps"] += lanes
            elif layer == "walks.continuous":
                # one holding-time and one direction draw per lane and jump
                tracer.counters["walks.continuous.lane_draws"] += lanes
            return out

        rwrelab.rng.BlockUniforms.step = step
        for name, fn in saved_walks.items():
            setattr(rwrelab.estimators, name, self.wrap(fn, API_LAYERS[name]))
        try:
            yield self
        finally:
            rwrelab.rng.BlockUniforms.step = saved_step
            for name, fn in saved_walks.items():
                setattr(rwrelab.estimators, name, fn)

    # -- summaries ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters, self and busy times accumulated so far."""
        counters = dict(self.counters)
        draws = counters.pop("walks.continuous.lane_draws", 0)
        counters["walks.continuous.lane_jumps"] = draws // 2
        return {"counters": counters, "self_s": dict(self.self_s),
                "busy_s": dict(self.busy_s)}


def _traced_subclass(tracer: Tracer, base: type) -> type:
    if base not in tracer._subclasses:
        ns = {method: _timed_build(tracer, base, method)
              for method in ("omega_plus_sites", "rate_sites")
              if hasattr(base, method)}
        tracer._subclasses[base] = type(f"Traced{base.__name__}", (base,), ns)
    return tracer._subclasses[base]


def _timed_build(tracer: Tracer, base: type, method: str):
    orig = getattr(base, method)

    def build(self, seed, replica, lo, hi):
        if tracer.inside("environments"):  # a build calling another build
            return orig(self, seed, replica, lo, hi)
        with tracer.span(f"{base.__name__}.{method}", "environments"):
            out = orig(self, seed, replica, lo, hi)
        tracer.counters["environments.builds"] += 1
        tracer.counters["environments.sites"] += int(hi) - int(lo) + 1
        return out

    build.__name__ = method
    return build


class Api:
    """The package's public functions as the workloads call them: plain, or
    wrapped in spans when a tracer is given."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        for name, layer in API_LAYERS.items():
            fn = getattr(rwrelab, name)
            setattr(self, name, fn if tracer is None else tracer.wrap(fn, layer))
        self.materialize = rwrelab.materialize

    def model(self, model):
        return model if self.tracer is None else self.tracer.traced_model(model)
