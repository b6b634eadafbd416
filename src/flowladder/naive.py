"""The unwidened machine: per-state stores, frames carry values.

This is the reference transition relation every later engine is measured
against, and the only rung that runs concretely.  A state is a (context,
store) pair; stepping a state yields the complete set of successor states.
The policy alone decides how concrete a run is.  The concrete policy is the
only one that is not ``finite``: under it arithmetic is exact, and the
machine is deterministic (at most one successor) and doubles as a
definitional interpreter.  Under a k-CFA policy arithmetic is abstract and
the reachable state graph is finite, but states multiply fast because every
store mutation forks a whole store.  ``explore`` closes the step relation
under the driver every later rung runs (``frontier.drive``): its sweep never
reports store growth, so the clock stays at 0 and each state is stepped
once, breadth first.

Later engines change two things at once: values move into the store (frames
hold addresses), and the store is widened globally.  Neither change happens
here, which is what makes this module the oracle.
"""

from __future__ import annotations

from .domains import (
    AnalysisResult,
    ApC,
    ArK,
    Closure,
    CoC,
    EMPTY_STORE,
    EvC,
    FnK,
    Halt,
    IfK,
    MutStore,
    PrimVal,
    StuckC,
    STUCK_APPLY,
    STUCK_IF,
    STUCK_PRIM,
    STUCK_UNBOUND,
    TT,
    FF,
    concrete_policy,
    delta,
    halt_values,
    lit_value,
)
from .syntax import App, Expr, If, Lam, Lit, Var
from .frontier import drive
from .widening import inject_context

State = tuple  # (Context, Store)

CONCRETE_STEP_BUDGET = 10**6


def inject(e: Expr) -> State:
    return (inject_context(e), EMPTY_STORE)


def step_state(state: State, policy) -> list[State]:
    """All successors of one state.  Terminal states (halt returns, stuck
    markers) have none."""
    c, store = state
    out: list[State] = []

    if isinstance(c, EvC):
        e, env, kont, t = c.expr, c.env, c.kont, c.time
        if isinstance(e, Var):
            a = env.lookup(e.name)
            if a is None:
                return [(StuckC(STUCK_UNBOUND, e.label), store)]
            for v in store.deref(a):
                out.append((CoC(kont, v), store))
        elif isinstance(e, Lit):
            out.append((CoC(kont, lit_value(e.value)), store))
        elif isinstance(e, Lam):
            out.append((CoC(kont, Closure(e.var, e.body, env)), store))
        elif isinstance(e, App):
            ka = policy.kont_addr(e.label, t)
            store2 = store.join(ka, (kont,))
            frame = ArK(e.arg, env, ka, e.label, t)
            out.append((EvC(e.fn, env, frame, t), store2))
        elif isinstance(e, If):
            ka = policy.kont_addr(e.label, t)
            store2 = store.join(ka, (kont,))
            frame = IfK(e.then, e.els, env, ka, t)
            out.append((EvC(e.guard, env, frame, t), store2))
        else:
            raise TypeError(f"not an expression: {e!r}")
        return out

    if isinstance(c, CoC):
        kont, v = c.kont, c.val
        if isinstance(kont, Halt):
            return []
        if isinstance(kont, ArK):
            frame = FnK(v, kont.kaddr, kont.label, kont.time)
            return [(EvC(kont.expr, kont.env, frame, kont.time), store)]
        if isinstance(kont, FnK):
            for k2 in store.deref(kont.kaddr):
                out.append((ApC(kont.fv, v, k2, kont.label, kont.time), store))
            return out
        if isinstance(kont, IfK):
            if v == TT:
                branch = kont.then
            elif v == FF:
                branch = kont.els
            else:
                return [(StuckC(STUCK_IF, kont.then.label), store)]
            for k2 in store.deref(kont.kaddr):
                out.append((EvC(branch, kont.env, k2, kont.time), store))
            return out
        raise TypeError(f"not a continuation: {kont!r}")

    if isinstance(c, ApC):
        f, v, kont, lbl, t = c.fn, c.arg, c.kont, c.label, c.time
        if isinstance(f, Closure):
            t2 = policy.tick_ap(lbl, t)
            a = policy.bind_addr(f.var, lbl, t)
            store2 = store.join(a, (v,))
            return [(EvC(f.body, f.env.extend(f.var, a), kont, t2), store2)]
        if isinstance(f, PrimVal):
            res = delta(f.name, v, not policy.finite)
            if res is None:
                return [(StuckC(STUCK_PRIM, lbl), store)]
            for u in res:
                out.append((CoC(kont, u), store))
            return out
        return [(StuckC(STUCK_APPLY, lbl), store)]

    if isinstance(c, StuckC):
        return []
    raise TypeError(f"not a context: {c!r}")


class ConcreteOutcome:
    """Result of a concrete run: a final value, a stuck report, or a budget
    exhaustion standing in for nontermination."""

    __slots__ = ("kind", "value", "reason", "steps")

    def __init__(self, kind: str, value=None, reason=None, steps: int = 0):
        self.kind = kind  # "value" | "stuck" | "nontermination"
        self.value = value
        self.reason = reason
        self.steps = steps

    def __repr__(self):
        if self.kind == "value":
            return f"ConcreteOutcome(value={self.value!r}, steps={self.steps})"
        if self.kind == "stuck":
            return f"ConcreteOutcome(stuck={self.reason}, steps={self.steps})"
        return f"ConcreteOutcome(nontermination, steps={self.steps})"


def evaluate_concrete(e: Expr, budget: int = CONCRETE_STEP_BUDGET) -> ConcreteOutcome:
    """Run the machine with fresh concrete allocation to completion.

    The concrete machine is deterministic; a state with two successors is an
    engine bug and raises.
    """
    policy = concrete_policy()
    c0, _ = inject(e)
    state = (c0, MutStore())  # single path, single store: update in place
    steps = 0
    while steps < budget:
        succs = step_state(state, policy)
        if not succs:
            c = state[0]
            if isinstance(c, CoC) and isinstance(c.kont, Halt):
                return ConcreteOutcome("value", value=c.val, steps=steps)
            if isinstance(c, StuckC):
                return ConcreteOutcome("stuck", reason=c.reason, steps=steps)
            raise AssertionError(f"terminal non-final state {c!r}")
        if len(succs) > 1:
            raise AssertionError(f"concrete machine forked at {state[0]!r}")
        state = succs[0]
        steps += 1
    return ConcreteOutcome("nontermination", steps=steps)


def explore(e: Expr, policy, cap_check=None) -> AnalysisResult:
    """Breadth-first closure of the step relation from the injected state;
    the result's contexts are the reachable (context, store) states.

    ``cap_check(n_states, generation)`` may return a status string to stop
    early (time or space cap); None means keep going.
    """
    initial = inject(e)

    def sweep(order, states, memo):
        return [step_state(states[i], policy) for i in order], False

    states, edges, generations, status = drive([initial], sweep, cap_check)
    return AnalysisResult(
        program=e, nodes=states, edge_table=edges, store=None, status=status,
        generations=generations,
        values=halt_values((c for c, _ in states), None))
