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
interning, edge labels, the frontier rebuild) and takes the sweep as a
function.  ``run_persistent`` keeps one persistent store: this module's
sweep joins into it, the ``deltas`` one logs writes and replays them.
``imperative`` reads its value cells in place and joins a generation's
writes into them after the sweep, so the sweep reads the store it started
with; it hands back a context's last successors, unstepped, while no cell
that step read has grown.

The untimestamped reference system at the bottom of the module is the same
algorithm with the timestamps replaced by the stores they denote; the two are
related by an order isomorphism (timestamp i <-> i-th store of the chain),
implemented here in both directions and compared exactly in tests against
the chain and stamp histories a trace rebuilds.
"""

from __future__ import annotations

from .domains import EMPTY_STORE, AnalysisResult, Store, halt_values
from .syntax import Expr
from .widening import inject_context, sweep_contexts


def drive(first, sweep, cap_check=None, order_key=None, trace=None):
    """Iterate generations from the contexts ``first`` to an empty frontier.

    ``sweep(order, t)`` steps one generation's frontier, in order, against
    the store at timestamp t and returns (groups, grew?); when the store
    grew, the clock advances.  Each group (src, succs, fresh) holds the
    successor list of one context.  A fresh group comes from a real step:
    its list is interned in place, each successor replaced by the first
    equal context seen, so the bookkeeping dicts compare contexts by
    identity, and its edges are recorded.  A group that is not fresh hands
    back a list an earlier generation interned and recorded, unchanged.
    Every successor enters the next frontier unless it was already seen at
    the advanced clock.

    ``cap_check(n_contexts, generation)`` may return a status to stop
    before a generation; ``order_key`` reorders each frontier (results must
    not depend on it); ``trace(seen, frontier, t)``, if given, is called
    after every generation.

    Returns (seen, edges, generations, status, t): seen maps each context
    to the latest timestamp at which it entered a frontier, edges holds
    every (src, dst, generation first produced).
    """
    seen = {}
    canon = {}
    frontier = []
    for c in first:
        if c not in seen:
            seen[c] = 0
            canon[c] = c
            frontier.append(c)
    t = 0
    edges = {}
    generation = 0
    status = "fixpoint"
    while frontier:
        if cap_check is not None:
            stop = cap_check(len(seen), generation)
            if stop is not None:
                status = stop
                break
        order = frontier if order_key is None else sorted(frontier, key=order_key)
        groups, grew = sweep(order, t)
        if grew:
            t += 1
        frontier = []
        for src, succs, fresh in groups:
            if fresh:
                for i, dst in enumerate(succs):
                    c = canon.setdefault(dst, dst)
                    if c is not dst:
                        succs[i] = c
                    edges.setdefault((src, c), generation)
            for c in succs:
                if seen.get(c) != t:
                    seen[c] = t
                    frontier.append(c)
        generation += 1
        if trace is not None:
            trace(seen, frontier, t)
    return (seen, frozenset((s, d, g) for (s, d), g in edges.items()),
            generation, status, t)


def run_persistent(e, first, store, step, cap_check=None, order_key=None,
                   trace=None) -> AnalysisResult:
    """Drive a sweep over one persistent store, replaced when it grows.

    ``step(order, store)`` steps a generation's frontier against the
    newest store and returns (fresh groups as ``drive`` takes them, store',
    grew?).  ``trace``, if a list, receives a snapshot tuple (seen,
    frontier, chain, t) after every generation (for the order-isomorphism
    comparison), rebuilt from each generation's store and frontier: seen
    maps each context to its stamps, newest first, and chain holds every
    store so far, newest first."""
    def sweep(order, t):
        nonlocal store
        groups, store2, grew = step(order, store)
        if grew:
            store = store2
        return groups, grew

    snap = None
    if trace is not None:
        hist = {c: (0,) for c in first}
        chain = (store,)

        def snap(seen, frontier, t):
            nonlocal hist, chain
            hist = dict(hist)
            for c in frontier:
                hist[c] = (t,) + hist.get(c, ())
            if t == len(chain):
                chain = (store,) + chain
            trace.append((hist, tuple(frontier), chain, t))

    seen, edges, generations, status, _ = drive(
        first, sweep, cap_check, order_key, snap)
    contexts = frozenset(seen)
    return AnalysisResult(
        program=e, contexts=contexts, edges=edges, store=store,
        status=status, generations=generations, initial=first[0],
        values=halt_values(contexts, store))


def run_frontier(
    e: Expr,
    policy,
    mode: str = "abstract",
    cap_check=None,
    order_key=None,
    trace=None,
) -> AnalysisResult:
    """Frontier iteration where each generation joins the stores its
    contexts produce; ``Store.join`` returns its receiver unless the store
    grows, so a new store object is growth.  ``trace`` is
    run_persistent's."""

    def step(order, store):
        groups, store2 = sweep_contexts(order, store, policy, mode)
        return ([(c, succs, True) for c, succs in groups], store2,
                store2 is not store)

    return run_persistent(e, [inject_context(e)], EMPTY_STORE, step,
                          cap_check, order_key, trace)


# ------------------------------------------------- untimestamped reference

class RefSystem:
    """The same frontier algorithm with stores where the timestamps were.

    seen maps a context to the tuple of global stores (newest first) under
    which it entered a frontier.  This is the ordering-faithful widened
    semantics the timestamped system abstracts; it is kept naive on purpose.
    """

    __slots__ = ("seen", "frontier", "chain")

    def __init__(self, seen, frontier, chain):
        self.seen = seen          # dict Context -> tuple of Stores, newest first
        self.frontier = frontier  # list of Context
        self.chain = chain        # list of Store, newest first

    @property
    def store(self) -> Store:
        return self.chain[0]


def inject_reference(e: Expr) -> RefSystem:
    c0 = inject_context(e)
    return RefSystem(seen={c0: (EMPTY_STORE,)}, frontier=[c0], chain=[EMPTY_STORE])


def reference_step(sys: RefSystem, policy, mode: str = "abstract") -> RefSystem:
    if not sys.frontier:
        return sys
    groups, store2 = sweep_contexts(sys.frontier, sys.store, policy, mode)
    changed = store2 is not sys.store and store2 != sys.store
    chain2 = [store2] + sys.chain if changed else sys.chain
    head = chain2[0]
    seen2 = dict(sys.seen)
    frontier2 = []
    local = set()
    for _, succs in groups:
        for dst in succs:
            if dst in local:
                continue
            stores = seen2.get(dst)
            if stores is not None and head in stores:
                continue
            local.add(dst)
            seen2[dst] = (head,) + (stores or ())
            frontier2.append(dst)
    return RefSystem(seen2, frontier2, chain2)


def run_reference(e: Expr, policy, mode: str = "abstract", trace=None, max_generations=None):
    sys = inject_reference(e)
    generation = 0
    while sys.frontier:
        if max_generations is not None and generation >= max_generations:
            break
        sys = reference_step(sys, policy, mode)
        generation += 1
        if trace is not None:
            trace.append((dict(sys.seen), tuple(sys.frontier), tuple(sys.chain)))
    return sys


# --------------------------------------------------- order isomorphism maps

def stamps_to_stores(seen: dict, chain) -> dict:
    """Translate a timestamped seen map through the chain: stamp i names the
    i-th store counted from the oldest."""
    n = len(chain)
    return {c: tuple(chain[n - 1 - s] for s in stamps) for c, stamps in seen.items()}


def stores_to_stamps(seen: dict, chain) -> dict:
    """Inverse translation; every store in the map must occur in the chain."""
    n = len(chain)
    index = {}
    for i, s in enumerate(chain):
        index[s] = n - 1 - i
    return {c: tuple(index[s] for s in stores) for c, stores in seen.items()}
