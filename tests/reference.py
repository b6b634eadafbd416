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

from flowladder.compiled import corridor, inject_compiled, step_compiled
from flowladder.deltas import inject_plain, replay
from flowladder.domains import (
    EMPTY_STORE,
    ID_BITS,
    ID_MASK,
    DelayedAddr,
    EvC,
    Store,
)
from flowladder.frontier import drive
from flowladder.lazy import step_lazy
from flowladder.syntax import Expr, Lam, Lit, Var, children, subterms
from flowladder.widening import inject_context, sweep_contexts


# ------------------------------------------------------------ syntax walks

def label_table(e: Expr) -> dict:
    """Label -> node for every node under ``e``."""
    return {n.label: n for n in subterms(e)}


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


def recursive_free_vars(e: Expr) -> frozenset[str]:
    """``syntax.free_vars`` as the structural recursion that defines it;
    it recurses once per level of nesting, so only shallow terms."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Lit):
        return frozenset()
    if isinstance(e, Lam):
        return recursive_free_vars(e.body) - {e.var}
    acc: set[str] = set()
    for c in children(e):
        acc |= recursive_free_vars(c)
    return frozenset(acc)


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


def reference_step(sys: RefSystem, policy) -> RefSystem:
    if not sys.frontier:
        return sys
    stepped, store2 = sweep_contexts(sys.frontier, sys.store, policy)
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


def run_reference(e: Expr, policy, trace=None, max_generations=None):
    sys = inject_reference(e)
    generation = 0
    while sys.frontier:
        if max_generations is not None and generation >= max_generations:
            break
        sys = reference_step(sys, policy)
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


def explore_states(e, stepper, policy, inject=inject_plain,
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
                            for c2, log in stepper(c, store, policy)])
        return stepped, False

    def cap_check(n_states, generation):
        return "state-budget-exceeded" if n_states > max_states else None

    states, edges, _, status = drive([(c, s0) for c in first], sweep,
                                     cap_check)
    edges = frozenset((states[key >> ID_BITS], states[key & ID_MASK])
                      for key in edges)
    return StateGraph(frozenset(states), edges, status)


def store_has_delayed(store: Store) -> bool:
    """Invariant probe: delayed values must never be written."""
    for _, vals in store.items():
        for v in vals:
            if isinstance(v, DelayedAddr):
                return True
    return False


# ------------------------------------------- lazy to compiled refinement

def refine(state, policy):
    """The compiled (context, store) state a lazy one denotes: an ev
    context commits, running its expression's corridor and replaying the
    corridor's log; any other state denotes itself."""
    c, store = state
    if isinstance(c, EvC):
        log = []
        ctx = corridor(c.expr, c.env, log, c.kont, c.time, policy)
        return (ctx, replay(log, store)[0])
    return state


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


def stutter_check(e, policy, max_states: int = 200_000) -> StutterReport:
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
    desc = descendant_labels(e)
    gl = explore_states(e, step_lazy, policy, max_states=max_states)
    gc = explore_states(e, step_compiled, policy,
                        inject=inject_compiled, max_states=max_states)
    if gl.status != "fixpoint" or gc.status != "fixpoint":
        return _fail("state budget exceeded", None, gl, gc)

    rmap = {s: refine(s, policy) for s in gl.states}

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
