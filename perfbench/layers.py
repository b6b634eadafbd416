"""Per-layer counts and times, taken by wrapping the public callables of
flowladder's modules from outside.

Each wrapper replaces a module attribute or a class attribute for the
duration of the layer pass and is removed afterwards; the program's sources
are not touched.  Engines look their helpers up as module globals (for
instance ``run_imperative`` calls ``step_compiled`` through the
``imperative`` module), so a wrapper is installed under every name the
engines call it by.  Times are inclusive: ``deltas.replay_s`` contains the
``Store.join`` calls made inside ``replay``.
"""

from __future__ import annotations

import time
from collections import defaultdict

_COMPILED_STAGES = ("compiled", "imperative", "imperative-prealloc")

# name: (unit, better).  Every layer metric the trace reports, in table order.
METRICS = {
    "syntax.parse_s": ("s", "lower"),
    "syntax.nodes": ("count", "lower"),
    "engine.states": ("count", "lower"),
    "compiled.inject_s": ("s", "lower"),
    "compiled.step_calls": ("count", "lower"),
    "compiled.step_s": ("s", "lower"),
    "compiled.successors": ("count", "lower"),
    "compiled.states": ("count", "lower"),
    "compiled.steps_per_state": ("ratio", "lower"),
    "imperative.join_calls": ("count", "lower"),
    "imperative.join_grew": ("count", "lower"),
    "imperative.join_grew_ratio": ("ratio", "higher"),
    "imperative.join_s": ("s", "lower"),
    "imperative.snapshot_s": ("s", "lower"),
    "imperative.layout_s": ("s", "lower"),
    "imperative.layout_size": ("count", "lower"),
    "deltas.step_calls": ("count", "lower"),
    "deltas.step_s": ("s", "lower"),
    "deltas.replay_calls": ("count", "lower"),
    "deltas.replay_entries": ("count", "lower"),
    "deltas.replay_changed": ("count", "lower"),
    "deltas.replay_s": ("s", "lower"),
    "domains.eq_calls": ("count", "lower"),
    "domains.addr_eq_calls": ("count", "lower"),
    "domains.store_join_calls": ("count", "lower"),
    "domains.store_join_s": ("s", "lower"),
    "widening.baseline_step_calls": ("count", "lower"),
    "widening.baseline_step_s": ("s", "lower"),
    "frontier.step_calls": ("count", "lower"),
    "frontier.step_s": ("s", "lower"),
    "lazy.step_calls": ("count", "lower"),
    "lazy.step_s": ("s", "lower"),
    "engine.run_overhead_s": ("s", "lower"),
    "engine.export_s": ("s", "lower"),
    "engine.verdict_s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
    "trace.traced_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Each ratio: (numerator, base).
RATIOS = {
    "compiled.steps_per_state": ("compiled.step_calls", "compiled.states"),
    "imperative.join_grew_ratio": ("imperative.join_grew",
                                   "imperative.join_calls"),
    "trace.overhead_ratio": ("trace.traced_s", "trace.untraced_s"),
}

_ADDRESS_CLASSES = ("BindAddr", "KontAddr", "ValAddr", "ConcreteAddr")


class LayerTrace:
    """Counters and timers behind wrappers installed on one import of
    flowladder.  ``restore()`` puts every original back."""

    def __init__(self, fl):
        self.fl = fl
        self.n = defaultdict(int)
        self.s = defaultdict(float)
        self._undo = []
        self._rung = None

    def _swap(self, owner, name, new):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def restore(self):
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo.clear()

    def _timed(self, key, fn, after=None):
        """Count calls to fn under ``key_calls`` and add their time to
        ``key_s``; ``after(result, args)`` may count more."""
        n, s, clock = self.n, self.s, time.perf_counter

        def wrapper(*args, **kw):
            t0 = clock()
            out = fn(*args, **kw)
            s[key + "_s"] += clock() - t0
            n[key + "_calls"] += 1
            if after is not None:
                after(out, args)
            return out
        return wrapper

    def time_runs(self):
        """Time ``engine.run`` and nothing else."""
        engine = self.fl.engine
        self._swap(engine, "run", self._timed("engine.run", engine.run))

    def install(self):
        """Wrap every layer."""
        fl, n = self.fl, self.n
        engine, imperative = fl.engine, fl.imperative

        def after_run(r, args):
            n["engine.states"] += len(r.contexts)
            if r.stage in _COMPILED_STAGES:
                n["compiled.states"] += len(r.contexts)

        self._swap(engine, "run",
                   self._timed("engine.run", engine.run, after_run))
        self._swap(engine, "compare_stages",
                   self._timed("engine.compare", engine.compare_stages))
        self._swap(engine, "export_graph",
                   self._timed("engine.export", engine.export_graph))

        def successors(out, args):
            n["compiled.successors"] += len(out)

        step = self._timed("compiled.step", fl.compiled.step_compiled,
                           successors)
        inject = self._timed("compiled.inject", fl.compiled.inject_compiled)
        for owner in (engine, imperative):
            self._swap(owner, "step_compiled", step)
            self._swap(owner, "inject_compiled", inject)
        self._swap(engine, "step_with_deltas",
                   self._timed("deltas.step", fl.deltas.step_with_deltas))
        self._swap(engine, "step_lazy",
                   self._timed("lazy.step", fl.lazy.step_lazy))

        def replayed(out, args):
            n["deltas.replay_entries"] += len(args[0])
            n["deltas.replay_changed"] += out[1]

        self._swap(fl.deltas, "replay",
                   self._timed("deltas.replay", fl.deltas.replay, replayed))

        # widened and frontier both step through widening.step_context;
        # the engine entry points say which rung a call belongs to
        for fn_name, rung in (("analyze_baseline", "widened"),
                              ("run_frontier", "frontier")):
            self._swap(engine, fn_name,
                       self._in_rung(rung, getattr(engine, fn_name)))
        step_context = fl.widening.step_context
        by_rung = {
            "widened": self._timed("widening.baseline_step", step_context),
            "frontier": self._timed("frontier.step", step_context),
        }

        def step_context_in_rung(*args, **kw):
            return by_rung[self._rung](*args, **kw)

        self._swap(fl.widening, "step_context", step_context_in_rung)

        def grew(out, args):
            n["imperative.join_grew"] += bool(out)

        for cls in (imperative.DenseValueStore, imperative.HashValueStore):
            self._swap(cls, "join_at", self._timed(
                "imperative.join", cls.__dict__["join_at"], grew))
        self._swap(imperative, "snapshot",
                   self._timed("imperative.snapshot", imperative.snapshot))

        def laid_out(layout, args):
            n["imperative.layout_size"] += layout.size

        self._swap(imperative, "preallocate", self._timed(
            "imperative.layout", imperative.preallocate, laid_out))

        domains = fl.domains
        self._swap(domains.Store, "join", self._timed(
            "domains.store_join", domains.Store.__dict__["join"]))
        for cls in vars(domains).values():
            if isinstance(cls, type) and cls.__module__ == domains.__name__ \
                    and "__eq__" in cls.__dict__:
                keys = ("domains.eq_calls",)
                if cls.__name__ in _ADDRESS_CLASSES:
                    keys += ("domains.addr_eq_calls",)
                self._swap(cls, "__eq__",
                           self._counted(keys, cls.__dict__["__eq__"]))

    def _in_rung(self, rung, fn):
        def wrapper(*args, **kw):
            self._rung = rung
            try:
                return fn(*args, **kw)
            finally:
                self._rung = None
        return wrapper

    def _counted(self, keys, fn):
        n = self.n

        def wrapper(a, b):
            for key in keys:
                n[key] += 1
            return fn(a, b)
        return wrapper


def layer_metrics(n, s):
    """The reported metrics from raw counters ``n`` and timers ``s``."""
    out = {name: n[name] if name in n else s.get(name, 0)
           for name in METRICS}
    # compare_stages time not spent in its runs: the verdicts
    if s.get("engine.compare_s"):
        out["engine.verdict_s"] = s["engine.compare_s"] - s["engine.run_s"]
    for ratio, (num, base) in RATIOS.items():
        out[ratio] = out[num] / out[base] if out[base] else 0.0
    return out
