"""Timestamped frontier iteration: the driver every timestamped rung runs.

The baseline re-steps every discovered context every iteration.  From this
stage on only a frontier is stepped: contexts are paired with the timestamp
of the store they were scheduled under, and a context is re-enqueued exactly
when it is reached again at a store version it has not seen.  Because the
global store grows monotonically, comparing store versions reduces to
comparing timestamps, and a timestamp is only ever compared, never turned
back into a store: the fixpoint needs the newest store, the clock and each
context's latest stamp, and nothing more.

That discipline is the same on every later rung; what changes is how a
generation's sweep steps the frontier and grows the store.  ``drive`` owns
the discipline (cap checks, iteration order, seen stamps, successor
interning, edge labels, step replay, the frontier rebuild) and takes the
sweep as a function.  It puts contexts on dense int ids as it interns
them: the frontier, the seen stamps, the edges and a per-context step memo
are ids and id-indexed lists, and the contexts are looked up only when a
sweep steps them.  A context whose memo holds its last successors is
replayed from it instead of going to the sweep.  The run's result is the
driver's tables as they stand, the contexts in id order and the edges
keyed by one int per id pair.  ``run_driven`` runs every timestamped rung
and gives all six one trace.
``run_frontier``'s sweep joins into one persistent store, steps the whole
frontier and never fills the memo, so this stays the literal timestamp
rung.  ``replaying_sweep`` is the sweep of every later rung: its steps
read the store through a ``SnapshotView`` that records their reads, it
leaves each step's successors in the memo and files the step under every
address it read, and when a cell grows it clears the memos filed under
that cell.  The rungs differ only in how a generation's writes reach the
store: ``deltas`` replays them into a new persistent store, ``imperative``
joins them into its value cells in place.  A sweep that never reports
growth keeps the clock at 0, which makes the discipline plain
breadth-first closure: ``naive.explore`` drives (context, store) states
that way.
"""

from __future__ import annotations

from .domains import (
    EMPTY_STORE,
    ID_BITS,
    ID_MASK,
    AnalysisBugError,
    AnalysisResult,
    halt_values,
    require_abstract,
)
from .syntax import Expr
from .widening import inject_context, sweep_contexts


def drive(first, sweep, cap_check=None, trace=None):
    """Iterate generations from the contexts ``first`` to an empty frontier.

    Each context gets a dense int id when it is first interned, and the
    driver's bookkeeping is indexed by id: ``ctxs`` maps an id to its
    context, ``seen[i]`` is the timestamp at which context i last entered
    a frontier, and ``memo[i]`` is None or the successor-id list of i's
    last step, which that step's sweep may leave there while the step
    would still come out the same.  Before each sweep the frontier is
    split: contexts with a memo are replayed from it, the rest go to the
    sweep.

    ``sweep(order, ctxs, memo)`` steps the contexts whose ids are in
    ``order``, in order, against the current store and returns (successor
    lists, grew?), one list per id in ``order``; when the store grew, the
    clock advances.  Each list is interned in place, each successor
    replaced by its id, and its edges are recorded.  Every successor,
    stepped or replayed, enters the next frontier unless it was already
    seen at the advanced clock.

    ``cap_check(n_contexts, generation)`` may return a status to stop
    before a generation; after each, ``trace(frontier, t)``, if given, gets
    the contexts of the next frontier and the clock.

    Returns (ctxs, edges, generations, status): edges maps each edge,
    keyed by one int, ``src id << ID_BITS | dst id``, to the generation
    that first produced it.  A run that would give a context the id
    ``2 ** ID_BITS`` raises ``AnalysisBugError`` rather than let two edges
    share a key.
    """
    ids = {}
    ctxs = []
    seen = []
    memo = []
    frontier = []
    for c in first:
        if c not in ids:
            i = ids[c] = len(ctxs)
            frontier.append(i)
            ctxs.append(c)
            seen.append(0)
            memo.append(None)
    t = 0
    edges = {}
    generation = 0
    status = "fixpoint"
    while frontier:
        if cap_check is not None:
            stop = cap_check(len(ctxs), generation)
            if stop is not None:
                status = stop
                break
        todo = []
        replayed = []
        for i in frontier:
            succs = memo[i]
            if succs is None:
                todo.append(i)
            else:
                replayed.append(succs)
        stepped, grew = sweep(todo, ctxs, memo)
        if grew:
            t += 1
        frontier = []
        for src, succs in zip(todo, stepped):
            for j, dst in enumerate(succs):
                i = ids.get(dst)
                if i is None:
                    i = ids[dst] = len(ctxs)
                    if i > ID_MASK:
                        raise AnalysisBugError(
                            f"context id {i} does not fit an edge key")
                    ctxs.append(dst)
                    seen.append(-1)  # before any clock
                    memo.append(None)
                succs[j] = i
                edge = src << ID_BITS | i
                if edge not in edges:
                    edges[edge] = generation
                if seen[i] != t:
                    seen[i] = t
                    frontier.append(i)
        for succs in replayed:
            for i in succs:
                if seen[i] != t:
                    seen[i] = t
                    frontier.append(i)
        generation += 1
        if trace is not None:
            trace([ctxs[i] for i in frontier], t)
    return ctxs, edges, generation, status


def run_driven(e, first, sweep, newest, cap_check=None,
               trace=None) -> AnalysisResult:
    """Drive ``sweep`` from ``first``; the result holds the driver's
    tables as they stand.

    ``newest()`` returns the store the sweeps have left so far.  ``trace``,
    if a list, receives (seen, frontier, chain, t) after every generation:
    seen maps each context to its stamps, newest first, and chain holds
    every store so far, newest first.  A traced run raises
    ``AnalysisBugError`` if the store changed while the clock stood still."""
    snap = None
    if trace is not None:
        hist = {c: (0,) for c in first}
        chain = (newest(),)

        def snap(frontier, t):
            nonlocal hist, chain
            store = newest()
            if t == len(chain):
                chain = (store,) + chain
            elif store != chain[0]:
                raise AnalysisBugError(f"the store changed at clock {t}")
            frontier = tuple(frontier)
            hist = dict(hist)
            for c in frontier:
                hist[c] = (t,) + hist.get(c, ())
            trace.append((hist, frontier, chain, t))

    ctxs, edges, generations, status = drive(first, sweep, cap_check, snap)
    del sweep  # and its read index, before the final snapshot
    store = newest()
    return AnalysisResult(
        program=e, nodes=ctxs, edge_table=edges, store=store,
        status=status, generations=generations,
        values=halt_values(ctxs, store))


def run_frontier(
    e: Expr,
    policy,
    mode: str = "abstract",
    cap_check=None,
    trace=None,
) -> AnalysisResult:
    """Frontier iteration where each generation joins the stores its
    contexts produce; ``Store.join`` returns its receiver unless the store
    grows, so a new store object is growth.  Its sweep steps the whole
    frontier and leaves the memo empty.  ``trace`` is run_driven's."""
    require_abstract(mode, policy)
    store = EMPTY_STORE

    def sweep(order, ctxs, memo):
        nonlocal store
        stepped, store2 = sweep_contexts(map(ctxs.__getitem__, order), store,
                                         policy)
        grew = store2 is not store
        store = store2
        return stepped, grew

    return run_driven(e, [inject_context(e)], sweep, lambda: store,
                      cap_check, trace)


# ------------------------------------------------------------- step replay

class SnapshotView:
    """Read-only store facade: what a replaying sweep's steps see.  The
    sweep applies its writes only after its last step, so the view reads
    the store the sweep started with.  Every address read is appended to
    ``reads``, which the sweep replaces before each step."""

    __slots__ = ("_fetch", "reads")

    def __init__(self, cells):
        self.reads = []
        self.over(cells)

    def over(self, cells):
        """Read ``cells``, an address -> value set dict, from now on; an
        address with no cell reads as absent."""
        self._fetch = cells.get

    def deref(self, a):
        self.reads.append(a)
        vs = self._fetch(a)
        if vs is None:
            raise AnalysisBugError(f"lookup of absent address {a!r}")
        return vs

    def get(self, a, default=None):
        self.reads.append(a)
        vs = self._fetch(a)
        return default if vs is None else vs


def replaying_sweep(stepper, policy, view, apply):
    """A ``drive`` sweep that leaves each step's successors in the memo
    until a cell the step read grows.

    ``stepper(c, view, policy)`` returns a context's (successor,
    change log) pairs and reads the store only through ``view``, a
    ``SnapshotView`` over the store's cells.  No cell changes during the
    sweep.  Its writes are kept in one list, and ``apply(writes)`` joins
    them into the store after the last step, points the view at the
    cells they leave, and returns the addresses whose cells grew, repeats
    allowed.  Each step is filed under every address it read in a
    reverse read index; when a cell grows, the steps filed under it
    whose memo is still the filed successor list lose that memo, and
    step again when they next come round.
    """
    # address -> the steps that read its cell, filed flat as id, successor
    # list, id, successor list, ...
    readers = {}

    def sweep(order, ctxs, memo):
        writes = []
        stepped = []
        for i in order:
            view.reads = reads = []
            succs = []
            last = None
            for c2, log in stepper(ctxs[i], view, policy):
                succs.append(c2)
                # the successors a function continuation builds share one
                # log, and joining it once is enough
                if log is not last:
                    writes += log
                    last = log
            memo[i] = succs
            stepped.append(succs)
            for a in reads:
                filed = readers.get(a)
                if filed is None:
                    readers[a] = [i, succs]
                elif filed[-1] is not succs:
                    filed += (i, succs)
        grown = apply(writes)
        for a in grown:
            # a step that read the cell saw less than is there now
            filed = readers.pop(a, None)
            if filed is not None:
                for j in range(0, len(filed), 2):
                    i = filed[j]
                    if memo[i] is filed[j + 1]:
                        memo[i] = None
        return stepped, bool(grown)

    return sweep

