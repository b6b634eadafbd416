"""One entry point over every stage, graph and metrics export, cross-stage
comparison.

A stage is an entry of ``RUNGS``, selected by name, the ladder order
being naive, widened, frontier, deltas, lazy, compiled, imperative,
imperative-prealloc; the entry holds the stage's runner and the group of
stages its contexts compare with as sets.  Every stage's runner returns
an AnalysisResult holding the tables its run built: the reachable
contexts in the order they were found and the generation of each edge,
keyed by one int from the positions of its ends, next to whatever store
artifact the stage produces and its final values; ``run`` adds the stage
name, k and the measurements.  Runs are untraced: the space cap bounds the
process's resident set size, sampled before the first generation, then
before a generation at most once a millisecond, and at the end of the
run; the peak of those samples is the run's ``peak_mem_bytes``.  The
time cap is checked before every generation.  The metrics and both graph
exports read the tables and hash no context; only a verdict between two
stages builds a result's set of contexts.  Graph exports render contexts
through their label skeleton so nodes from different stages coincide when
the theorems say the states do; one export renders each shared sub-term
(an environment, a continuation, a closure) and each time once.
"""

from __future__ import annotations

import json
import os
import sys
import time
from itertools import groupby, islice
from operator import eq

from .domains import (
    ID_BITS,
    ID_MASK,
    AnalysisResult,
    CoC,
    DelayedAddr,
    EvC,
    StuckC,
    _RENDER,
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

# Each stage, in ladder order: its runner, ``runner(e, policy, **kw)``,
# which forwards ``cap_check`` and, on the six driven rungs, ``trace``,
# and the group of stages whose contexts compare directly as sets (None:
# the stage compares with others by its final values only).  A runner
# names its engine and stepper in its body, so it calls whatever this
# module's globals hold at call time, not what they held at import.
RUNGS = {
    "naive": (lambda e, p, **kw: explore(e, p, **kw), None),
    "widened": (lambda e, p, **kw: analyze_baseline(e, p, **kw), "strict"),
    "frontier": (lambda e, p, **kw: run_frontier(e, p, **kw), "strict"),
    "deltas": (lambda e, p, **kw: run_logged(e, step_with_deltas, p, **kw),
               "strict"),
    "lazy": (lambda e, p, **kw: run_logged(e, step_lazy, p, **kw), None),
    "compiled": (lambda e, p, **kw: run_logged(
        e, step_compiled, p, inject=inject_compiled, **kw), "compiled"),
    "imperative": (lambda e, p, **kw: run_imperative(e, p, **kw),
                   "compiled"),
    "imperative-prealloc": (lambda e, p, **kw: run_imperative(
        e, p, prealloc=True, **kw), "compiled"),
}
STAGES = tuple(RUNGS)

DEFAULT_TIME_CAP = 30 * 60.0
DEFAULT_SPACE_CAP = 1 << 30


class ConfigError(ValueError):
    """Invalid analysis configuration."""


class Config:
    """What to run and under which budgets.  ``mode`` only picks the
    allocation policy (``policy``), which alone makes a run concrete:
    "concrete" is the concrete policy, which only ``naive`` runs."""

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
        if type(k) is bool or not isinstance(k, int) or k < 0:
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
    runner, _ = RUNGS[cfg.stage]
    r = runner(e, policy, cap_check=cap)
    r.wall_time_s = time.perf_counter() - t0
    r.peak_mem_bytes = max(peak_box[0], rss_bytes())
    r.stage, r.k = cfg.stage, cfg.k
    return r


# ------------------------------------------------------------ graph export

def _graph_rows(result):
    """The graph's nodes, ordered by (skeleton, repr), and its edges, as
    the exports write them: an iterator over the (context, label) pairs in
    order, one over the (src, dst, generation) edges in order, and the
    initial node's position.  A naive node is a (context, store) pair, and
    its context is the one handed out; every other node is its context.

    One label is rendered per node, for both the order and the text, and
    its sub-terms and times through one memo, so a sub-term or a time that
    many nodes share is rendered once too.  Only a naive run's contexts
    repeat, from store to store, so only they go through the memo
    themselves.  The node ids are sorted once, by label; repr is only
    taken to order a run of neighbours whose labels tie, which only naive
    runs have, and both sorts are stable, so ties beyond that keep the
    order the run found the nodes in.

    Nodes and edges are read from the result's tables: an id's position
    is read from a list, and no context is hashed.  Each edge is held as
    one int, ``(src << b | dst) << g_bits | generation``, so the edges sort
    as triples without a tuple each.  The node iterator drops each label
    as it hands it out, and the edge iterator its ints once exhausted."""
    nodes = result.nodes
    naive = result.stage == "naive"
    memo = {}
    if naive:
        labels = [skeleton(n[0], memo) for n in nodes]
    else:
        labels = [_RENDER[type(c)](c, memo) for c in nodes]
    del memo
    order = sorted(range(len(nodes)), key=labels.__getitem__)
    sorted_labels = [labels[i] for i in order]
    if any(map(eq, sorted_labels, islice(sorted_labels, 1, None))):
        start = 0
        for _, run in groupby(sorted_labels):
            end = start + sum(1 for _ in run)
            if end - start > 1:
                order[start:end] = sorted(
                    order[start:end], key=lambda i: repr(nodes[i]))
            start = end
    del sorted_labels
    pos = [0] * len(order)
    for p, i in enumerate(order):
        pos[i] = p
    b = len(order).bit_length()
    # a run labels each edge with a generation it completed
    g_bits = result.generations.bit_length()
    packed = sorted((pos[key >> ID_BITS] << b | pos[key & ID_MASK]) << g_bits
                    | g for key, g in result.edge_table.items())
    return (_pop_nodes(nodes, labels, order, naive),
            _unpack_edges(packed, b, g_bits), pos[0])


def _pop_nodes(nodes, labels, order, naive):
    # pop each node as it is handed out, so that the labels and the
    # text written from them are never all alive at once
    order.reverse()
    while order:
        i = order.pop()
        label = labels[i]
        labels[i] = None
        yield (nodes[i][0] if naive else nodes[i]), label


def _unpack_edges(packed, b, g_bits):
    d_mask, g_mask = (1 << b) - 1, (1 << g_bits) - 1
    for e in packed:
        yield e >> (b + g_bits), e >> g_bits & d_mask, e & g_mask


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


def _dot_lines(result):
    nodes, edges, _ = _graph_rows(result)
    yield "digraph analysis {\n"
    yield "  rankdir=LR;\n"
    yield "  node [style=filled, fontname=\"monospace\"];\n"
    for i, (c, label) in enumerate(nodes):
        if "\\" in label or '"' in label:
            label = label.replace("\\", "\\\\").replace('"', '\\"')
        color = _node_color(c)
        font = "white" if color == "black" else "black"
        yield (f'  n{i} [label="{label}", fillcolor={color}, '
               f'fontcolor={font}];\n')
    for s, d, g in edges:
        yield f'  n{s} -> n{d} [label="{g}"];\n'
    yield "}\n"


def _json_list(items):
    """A list of a JSON object's member at indent 1, after its ``[``, as
    ``json`` writes it: one item a line, each already indented."""
    sep = "\n"
    for item in items:
        yield sep + item
        sep = ",\n"
    yield "]" if sep == "\n" else "\n ]"


def _json_lines(result):
    """The JSON export's text, piece by piece, as
    ``json.dumps(payload, sort_keys=True, indent=1)`` and a newline would
    write it, for the payload {"edges": [{"dst", "generation", "src"}, ...],
    "initial": position, "nodes": [{"color", "id", "label", "shape"},
    ...]}; ``json.dumps`` writes each label."""
    nodes, edges, initial = _graph_rows(result)
    yield '{\n "edges": ['
    yield from _json_list(f'  {{\n   "dst": {d},\n   "generation": {g},\n'
                          f'   "src": {s}\n  }}' for s, d, g in edges)
    yield f',\n "initial": {initial},\n "nodes": ['
    yield from _json_list(
        f'  {{\n   "color": "{_node_color(c)}",\n   "id": {i},\n'
        f'   "label": {json.dumps(label)},\n'
        f'   "shape": "{_node_shape(c)}"\n  }}'
        for i, (c, label) in enumerate(nodes))
    yield "\n}\n"


# pieces per chunk of ``_chunks``: enough that joining and writing cost
# little per piece, few enough that one chunk's pieces are small beside
# the text, so that an export past one chunk peaks at about twice its text
_CHUNK_LINES = 64


def _chunks(pieces):
    while chunk := "".join(islice(pieces, _CHUNK_LINES)):
        yield chunk


def dot_chunks(result: AnalysisResult):
    """The DOT export of ``result`` as a stream of text chunks, each a run
    of whole lines: ``export_graph`` joins them and ``flowladder analyze
    --dot`` writes them to its file as they come.  Alive at once are the
    nodes and edges still to be written, one chunk's lines (64 at most),
    and whatever the consumer keeps of the chunks before it: joined, an
    export past 64 lines peaks at about twice its text."""
    return _chunks(_dot_lines(result))


def export_graph(result: AnalysisResult, fmt: str = "dot") -> str:
    """Render the reachable-state graph.  Nodes carry the label skeleton;
    states that follow a variable reference are gray, ev states black,
    everything else white.  Both formats are written piece by piece from
    the same rows and joined once from chunks of 64 pieces, so at its peak
    an export holds the text, its chunks and the rows not yet written:
    past one chunk, about twice its text."""
    if fmt == "dot":
        return "".join(dot_chunks(result))
    if fmt == "json":
        return "".join(_chunks(_json_lines(result)))
    raise ValueError(f"unknown graph format {fmt!r}")


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
    group = RUNGS[ra.stage][1]
    if group is not None and group == RUNGS[rb.stage][1]:
        if ra.contexts == rb.contexts:
            return "equal"
        if rb.contexts <= ra.contexts or ra.contexts <= rb.contexts:
            return "subset"
    memo = {}
    if _value_shapes(ra.values, memo) == _value_shapes(rb.values, memo):
        if len(rb.nodes) <= len(ra.nodes):
            return "sound, <= states"
        return "sound"
    return "diverged"


def compare_stages(e: Expr, stages, k: int = 0,
                   time_cap: float = DEFAULT_TIME_CAP,
                   space_cap: int = DEFAULT_SPACE_CAP) -> StageComparison:
    """Run each stage on e and report metrics plus the equivalence class of
    every adjacent pair: equal, subset, sound, or diverged."""
    if len(stages) < 2:
        raise ValueError("compare_stages needs at least two stages")
    results = [
        run(Config(stage=s, k=k, time_cap=time_cap, space_cap=space_cap), e)
        for s in stages
    ]
    rows = [r.metrics() for r in results]
    verdicts = [
        (ra.stage, rb.stage, _verdict(ra, rb))
        for ra, rb in zip(results, results[1:])
    ]
    return StageComparison(rows=rows, verdicts=verdicts, results=results)
