"""References the rungs are compared against.

Each rung of the ladder is pinned to a reference that a test runs beside
it: the untimestamped frontier system and the order isomorphism between
timestamps and stores, the unwidened (context, store) state graph of a
logged stepper, and the stuttering bisimulation between the lazy and the
compiled machines.  None of this runs in an analysis, so it lives here
rather than in the package.

``tests/support.py`` does not import this module: the benchmark loads
``support`` by path as its oracle, and stays independent of it.
"""

from __future__ import annotations

from flowladder.compiled import compile_expr, inject_compiled, step_compiled
from flowladder.deltas import inject_plain, replay
from flowladder.domains import (
    EMPTY_STORE,
    ApC,
    ArK,
    Closure,
    CoC,
    DelayedAddr,
    EvC,
    FnK,
    Halt,
    IfK,
    Store,
    StuckC,
)
from flowladder.frontier import drive
from flowladder.lazy import step_lazy
from flowladder.syntax import Expr, children
from flowladder.widening import inject_context, sweep_contexts


# ------------------------------------------------------------ label tables

_CHILD_FIELDS = ("body", "fn", "arg", "guard", "then", "els")


def label_table(tree) -> dict:
    """Label -> node for every node under ``tree``, a source expression or
    a compiled one: both keep their children in the same fields."""
    table = {}
    work = [tree]
    while work:
        n = work.pop()
        table[n.label] = n
        for field in _CHILD_FIELDS:
            child = getattr(n, field, None)
            if child is not None:
                work.append(child)
    return table


def descendant_labels(e: Expr) -> dict[int, frozenset[int]]:
    """Map each label to the labels of its strict descendants."""
    out: dict[int, frozenset[int]] = {}

    def walk(node) -> frozenset[int]:
        acc: frozenset[int] = frozenset()
        for c in children(node):
            acc |= walk(c) | {c.label}
        out[node.label] = acc
        return acc

    walk(e)
    return out


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
    stepped, store2 = sweep_contexts(sys.frontier, sys.store, policy, mode)
    changed = store2 is not sys.store and store2 != sys.store
    chain2 = [store2] + sys.chain if changed else sys.chain
    head = chain2[0]
    seen2 = dict(sys.seen)
    frontier2 = []
    local = set()
    for succs in stepped:
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


# ------------------------------------------------- unwidened state graphs

class StateGraph:
    """Unwidened reachable (context, store) graph of a logged stepper."""

    __slots__ = ("states", "edges", "status")

    def __init__(self, states, edges, status):
        self.states = states    # frozenset of (Context, Store)
        self.edges = edges      # frozenset of ((Context, Store), (Context, Store))
        self.status = status


def explore_states(e, stepper, policy, mode: str = "abstract", inject=inject_plain,
                   max_states: int = 200_000) -> StateGraph:
    """Breadth-first closure of a logged stepper WITHOUT store widening:
    every state carries its own store, and each transition's log is replayed
    into a per-successor store.  Only feasible on small programs; used for
    the bisimulation checks.  It runs under the frontier driver with its
    clock at 0, which makes the driver plain breadth-first closure."""
    first, log0 = inject(e, policy)
    s0, _ = replay(log0, EMPTY_STORE)

    def sweep(order, states, memo):
        stepped = []
        for i in order:
            c, store = states[i]
            stepped.append([(c2, replay(log, store)[0])
                            for c2, log in stepper(c, store, policy, mode)])
        return stepped, False

    def cap_check(n_states, generation):
        return "state-budget-exceeded" if n_states > max_states else None

    states, edges, _, status, _ = drive([(c, s0) for c in first], sweep,
                                        cap_check)
    edges = frozenset((states[s], states[d]) for s, d in edges)
    return StateGraph(frozenset(states), edges, status)


def store_has_delayed(store: Store) -> bool:
    """Invariant probe: delayed values must never be written."""
    for _, vals in store.items():
        for v in vals:
            if isinstance(v, DelayedAddr):
                return True
    return False


# -- Translating lazy-machine objects into compiled-machine objects --------

def to_compiled(obj, table):
    """Swap every source expression inside a context, continuation, value,
    or closure for its compiled counterpart, keyed by label."""
    if isinstance(obj, CoC):
        return CoC(to_compiled(obj.kont, table), to_compiled(obj.val, table))
    if isinstance(obj, ApC):
        return ApC(to_compiled(obj.fn, table), obj.arg,
                   to_compiled(obj.kont, table), obj.label, obj.time)
    if isinstance(obj, StuckC):
        return obj
    if isinstance(obj, ArK):
        return ArK(table[obj.expr.label], obj.env, obj.kaddr, obj.label, obj.time)
    if isinstance(obj, FnK):
        return obj
    if isinstance(obj, IfK):
        return IfK(table[obj.then.label], table[obj.els.label],
                   obj.env, obj.kaddr, obj.time)
    if isinstance(obj, Halt):
        return obj
    if isinstance(obj, Closure):
        return Closure(obj.var, table[obj.body.label], obj.env)
    return obj


def store_to_compiled(store, table):
    m = {}
    changed = False
    for a, vs in store.items():
        vs2 = frozenset(to_compiled(v, table) for v in vs)
        changed = changed or vs2 != vs
        m[a] = vs2
    return Store(m) if changed else store


def refine(state, table):
    """The compiled (context, store) state a lazy one denotes: an ev
    context commits, running the compiled corridor for its expression and
    replaying the corridor's log; any other context swaps its expressions
    for their compiled forms."""
    c, store = state
    cstore = store_to_compiled(store, table)
    if isinstance(c, EvC):
        log = []
        ctx = table[c.expr.label].run(
            cstore, c.env, log, to_compiled(c.kont, table), c.time)
        return (ctx, replay(log, cstore)[0])
    return (to_compiled(c, table), cstore)


class StutterReport:
    """Outcome of the lazy-vs-compiled bisimulation check."""

    __slots__ = ("ok", "reason", "witness", "lazy_states", "compiled_states")

    def __init__(self, ok, reason, witness, lazy_states, compiled_states):
        self.ok = ok
        self.reason = reason
        self.witness = witness
        self.lazy_states = lazy_states
        self.compiled_states = compiled_states

    def __bool__(self):
        return self.ok

    def __repr__(self):
        tag = "ok" if self.ok else f"FAIL: {self.reason}"
        return (f"StutterReport({tag}, lazy={self.lazy_states}, "
                f"compiled={self.compiled_states})")


def _fail(reason, witness, gl, gc):
    return StutterReport(False, reason, witness, len(gl.states), len(gc.states))


def stutter_check(e, policy, mode: str = "abstract",
                  max_states: int = 200_000) -> StutterReport:
    """Check that the compiled machine bisimulates the lazy machine up to
    stuttering, with the compiled side never the one stuttering.

    Both machines are explored without widening so each state is an exact
    (context, store) pair.  The refinement map r (``refine``) sends a lazy
    state to the compiled state it denotes.  The check demands

      1. r maps the lazy reachable set onto exactly the compiled one,
      2. contracting lazy edges along r (dropping r-loops) gives exactly
         the compiled edge set, and
      3. every dropped edge is an ev step whose target sits strictly later
         in the same corridor, so lazy stutter phases are finite.
    """
    table = label_table(compile_expr(e, policy))
    desc = descendant_labels(e)
    gl = explore_states(e, step_lazy, policy, mode, max_states=max_states)
    gc = explore_states(e, step_compiled, policy, mode,
                        inject=inject_compiled, max_states=max_states)
    if gl.status != "fixpoint" or gc.status != "fixpoint":
        return _fail("state budget exceeded", None, gl, gc)

    rmap = {s: refine(s, table) for s in gl.states}

    image = frozenset(rmap.values())
    if image != gc.states:
        extra = image - gc.states
        missing = gc.states - image
        w = next(iter(extra or missing))
        return _fail("state sets differ under refinement", w, gl, gc)

    contracted = set()
    for s, s2 in gl.edges:
        r1, r2 = rmap[s], rmap[s2]
        if r1 == r2:
            c = s[0]
            if not isinstance(c, EvC):
                return _fail("non-ev lazy step stuttered", (s, s2), gl, gc)
            c2 = s2[0]
            if isinstance(c2, EvC):
                if c2.expr.label not in desc[c.expr.label]:
                    return _fail("stutter step did not descend", (s, s2), gl, gc)
        else:
            contracted.add((r1, r2))
    if contracted != gc.edges:
        extra = contracted - gc.edges
        missing = gc.edges - contracted
        w = next(iter(extra or missing))
        return _fail("edge sets differ under contraction", w, gl, gc)
    return StutterReport(True, None, None, len(gl.states), len(gc.states))
