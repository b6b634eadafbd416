"""One entry point over every stage, graph and metrics export, cross-stage
comparison.

A stage is selected by name, the ladder order being naive, widened,
frontier, deltas, lazy, compiled, imperative, imperative-prealloc.  Every
stage's runner returns an AnalysisResult carrying the reachable contexts,
the generation-labeled edge set, whatever store artifact the stage
produces, and its final values; ``run`` adds the stage name, k, the mode
and the measurements.  Runs are untraced: the space cap bounds the
process's resident set size, sampled before the first generation, then
before a generation at most once a millisecond, and at the end of the
run; the peak of those samples is the run's ``peak_mem_bytes``.  The
time cap is checked before every generation.  Graph exports render
contexts through their label skeleton so nodes from different stages
coincide when the theorems say the states do; one export renders each
shared sub-term (an environment, a continuation, a closure) once.
"""

from __future__ import annotations

import json
import os
import sys
import time
from itertools import groupby, islice
from operator import eq, itemgetter

from .domains import (
    AnalysisResult,
    CoC,
    DelayedAddr,
    EvC,
    StuckC,
    concrete_policy,
    kcfa_policy,
    skeleton,
)
from .syntax import Expr
from .naive import explore
from .widening import analyze_baseline
from .frontier import run_frontier
from .deltas import run_logged, step_with_deltas
from .lazy import step_lazy
from .compiled import step_compiled, inject_compiled
from .imperative import run_imperative

STAGES = (
    "naive",
    "widened",
    "frontier",
    "deltas",
    "lazy",
    "compiled",
    "imperative",
    "imperative-prealloc",
)

# stages whose contexts are directly comparable as sets
_STRICT_GROUP = frozenset({"widened", "frontier", "deltas"})
_COMPILED_GROUP = frozenset({"compiled", "imperative", "imperative-prealloc"})

DEFAULT_TIME_CAP = 30 * 60.0
DEFAULT_SPACE_CAP = 1 << 30


class ConfigError(ValueError):
    """Invalid analysis configuration."""


class Config:
    """What to run and under which budgets."""

    __slots__ = ("stage", "k", "mode", "time_cap", "space_cap")

    def __init__(self, stage: str = "imperative-prealloc", k: int = 0,
                 mode: str = "abstract", time_cap: float = DEFAULT_TIME_CAP,
                 space_cap: int = DEFAULT_SPACE_CAP):
        if stage not in STAGES:
            raise ConfigError(f"unknown stage {stage!r}")
        if mode not in ("abstract", "concrete"):
            raise ConfigError(f"unknown mode {mode!r}")
        if mode == "concrete" and stage != "naive":
            raise ConfigError("concrete mode is only meaningful for the "
                              "naive stage; every other stage widens")
        if not isinstance(k, int) or k < 0:
            raise ConfigError(f"k must be a natural number, got {k!r}")
        if not (time_cap > 0 and space_cap > 0):  # NaN too
            raise ConfigError("caps must be positive")
        self.stage = stage
        self.k = k
        self.mode = mode
        self.time_cap = time_cap
        self.space_cap = space_cap

    def policy(self):
        if self.mode == "concrete":
            return concrete_policy()
        return kcfa_policy(self.k)


_LINUX = sys.platform.startswith("linux")
_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if _LINUX else 0


def rss_bytes() -> int:
    """The process's resident set size in bytes: the current one on Linux,
    read from /proc/self/statm, and the high-water mark elsewhere.  The
    read goes through a raw descriptor, so it allocates no file buffer."""
    if not _LINUX:
        import resource
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak if sys.platform == "darwin" else peak * 1024
    fd = os.open("/proc/self/statm", os.O_RDONLY)
    try:
        return int(os.read(fd, 64).split()[1]) * _PAGE_SIZE
    finally:
        os.close(fd)


# the space cap reads RSS at most once per this many seconds
_RSS_INTERVAL = 1e-3


def _cap_check(t0, time_cap, space_cap, peak_box):
    last_read = float("-inf")  # the first check always reads

    def check(n_states, generation):
        nonlocal last_read
        now = time.perf_counter()
        if now - t0 > time_cap:
            return "time-cap"
        if now - last_read < _RSS_INTERVAL:
            return None
        last_read = now
        rss = rss_bytes()
        if rss > peak_box[0]:
            peak_box[0] = rss
        if rss > space_cap:
            return "space-cap"
        return None
    return check


def run(cfg: Config, e: Expr) -> AnalysisResult:
    """Run one stage to its fixpoint (or to a cap) and measure it."""
    policy = cfg.policy()
    peak_box = [0]
    t0 = time.perf_counter()
    cap = _cap_check(t0, cfg.time_cap, cfg.space_cap, peak_box)
    stage = cfg.stage
    if stage == "naive":
        r = explore(e, policy, cfg.mode, cap_check=cap)
    elif stage == "widened":
        r = analyze_baseline(e, policy, cfg.mode, cap_check=cap)
    elif stage == "frontier":
        r = run_frontier(e, policy, cfg.mode, cap_check=cap)
    elif stage in ("deltas", "lazy", "compiled"):
        stepper = {"deltas": step_with_deltas, "lazy": step_lazy,
                   "compiled": step_compiled}[stage]
        kw = {"inject": inject_compiled} if stage == "compiled" else {}
        r = run_logged(e, stepper, policy, cfg.mode, cap_check=cap, **kw)
    else:
        r = run_imperative(e, policy, cfg.mode, cap_check=cap,
                           prealloc=(stage == "imperative-prealloc"))
    r.wall_time_s = time.perf_counter() - t0
    r.peak_mem_bytes = max(peak_box[0], rss_bytes())
    r.stage, r.k, r.mode = stage, cfg.k, cfg.mode
    return r


# ------------------------------------------------------------ graph export

def _graph_rows(result):
    """Nodes ordered by (skeleton, repr), their contexts, their skeleton
    labels, and index-resolved edges.  A naive node is a (context, store)
    pair; every other node is its context.  Each skeleton is rendered
    once, for both the order and the label, through one memo, so a
    sub-term that many nodes share is rendered once too.  The nodes are
    sorted once, by label; repr is only taken to order a run of
    neighbours whose labels tie, which only naive runs have, and both
    sorts are stable, so ties beyond that keep set order."""
    naive = result.stage == "naive"
    memo = {}
    keyed = [(skeleton(n[0] if naive else n, memo), n)
             for n in result.contexts]
    del memo
    keyed.sort(key=itemgetter(0))
    labels = [label for label, _ in keyed]
    nodes = [n for _, n in keyed]
    del keyed
    if any(map(eq, labels, islice(labels, 1, None))):
        start = 0
        for _, run in groupby(labels):
            end = start + sum(1 for _ in run)
            if end - start > 1:
                nodes[start:end] = sorted(nodes[start:end], key=repr)
            start = end
    contexts = [n[0] for n in nodes] if naive else nodes
    index = {n: i for i, n in enumerate(nodes)}
    edges = sorted((index[s], index[d], g) for s, d, g in result.edges)
    return contexts, labels, index, edges


def _node_color(c) -> str:
    if isinstance(c, EvC):
        return "black"
    if isinstance(c, CoC) and isinstance(c.val, DelayedAddr):
        return "gray"
    return "white"


def _node_shape(c) -> str:
    if isinstance(c, EvC):
        return "ev"
    if isinstance(c, CoC):
        return "co"
    if isinstance(c, StuckC):
        return "stuck"
    return "ap"


def export_graph(result: AnalysisResult, fmt: str = "dot", path=None) -> str:
    """Render the reachable-state graph.  Nodes carry the label skeleton;
    states that follow a variable reference are gray, ev states black,
    everything else white."""
    if fmt not in ("dot", "json"):
        raise ValueError(f"unknown graph format {fmt!r}")
    contexts, labels, index, edges = _graph_rows(result)
    if fmt == "dot":
        out = ["digraph analysis {", "  rankdir=LR;",
           "  node [style=filled, fontname=\"monospace\"];"]
        # pop each label as its line is written, so that the labels and
        # the lines are never all alive at once
        labels.reverse()
        for i, c in enumerate(contexts):
            label = labels.pop()
            if "\\" in label or '"' in label:
                label = label.replace("\\", "\\\\").replace('"', '\\"')
            color = _node_color(c)
            font = "white" if color == "black" else "black"
            out.append(f'  n{i} [label="{label}", fillcolor={color}, '
                       f'fontcolor={font}];')
        for s, d, g in edges:
            out.append(f'  n{s} -> n{d} [label="{g}"];')
        out.append("}")
        text = "\n".join(out) + "\n"
    else:
        payload = {
            "nodes": [
                {"id": i, "label": label, "shape": _node_shape(c),
                 "color": _node_color(c)}
                for i, (c, label) in enumerate(zip(contexts, labels))
            ],
            "edges": [{"src": s, "dst": d, "generation": g}
                      for s, d, g in edges],
            # a run capped before its first state has no initial node
            "initial": index.get(result.initial),
        }
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    if path is not None:
        with open(path, "w") as f:
            f.write(text)
    return text


# ------------------------------------------------------- stage comparison

class StageComparison:
    """Per-stage metrics rows plus adjacent-pair verdicts."""

    __slots__ = ("rows", "verdicts", "results")

    def __init__(self, rows, verdicts, results):
        self.rows = rows
        self.verdicts = verdicts
        self.results = results


def _value_shapes(values, memo) -> frozenset:
    return frozenset(skeleton(v, memo) for v in values)


def _verdict(ra: AnalysisResult, rb: AnalysisResult) -> str:
    a, b = ra.stage, rb.stage
    same_group = (
        (a in _STRICT_GROUP and b in _STRICT_GROUP)
        or (a in _COMPILED_GROUP and b in _COMPILED_GROUP)
    )
    if same_group:
        if ra.contexts == rb.contexts:
            return "equal"
        if rb.contexts <= ra.contexts or ra.contexts <= rb.contexts:
            return "subset"
    memo = {}
    if _value_shapes(ra.values, memo) == _value_shapes(rb.values, memo):
        if len(rb.contexts) <= len(ra.contexts):
            return "sound, <= states"
        return "sound"
    return "diverged"


def compare_stages(e: Expr, stages, k: int = 0, mode: str = "abstract",
                   time_cap: float = DEFAULT_TIME_CAP,
                   space_cap: int = DEFAULT_SPACE_CAP) -> StageComparison:
    """Run each stage on e and report metrics plus the equivalence class of
    every adjacent pair: equal, subset, sound, or diverged."""
    if len(stages) < 2:
        raise ValueError("compare_stages needs at least two stages")
    results = [
        run(Config(stage=s, k=k, mode=mode,
                   time_cap=time_cap, space_cap=space_cap), e)
        for s in stages
    ]
    rows = [r.metrics() for r in results]
    verdicts = [
        (ra.stage, rb.stage, _verdict(ra, rb))
        for ra, rb in zip(results, results[1:])
    ]
    return StageComparison(rows=rows, verdicts=verdicts, results=results)
