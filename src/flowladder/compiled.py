"""Abstract compilation: an expression's ev corridor runs inside one step.

``corridor``, handed a parsed expression, an environment, a change log
and a continuation, runs the whole deterministic ev corridor rooted at the
expression at native speed, dispatching on each node's type, and returns
the single co or stuck context the corridor ends in, appending its store
writes to the log.  So the machine never reaches an ev context, and its
contexts, continuations and closures hold the program's own nodes.  The
corridor reads no store: allocation takes only the label and time.
Variable lookup stays lazy, so the corridor never branches; all fan-out
lives in the co/ap transfer function `step_compiled`.
"""

from .syntax import App, Lam, Lit, Var
from .domains import (
    AnalysisBugError,
    ApC,
    ArK,
    Closure,
    CoC,
    DelayedAddr,
    EMPTY_ENV,
    EvC,
    FF,
    FnK,
    HALT,
    Halt,
    IfK,
    PrimVal,
    STUCK_APPLY,
    STUCK_IF,
    STUCK_PRIM,
    STUCK_UNBOUND,
    StuckC,
    TT,
    delta,
    lit_value,
)
from .lazy import force


def corridor(e, env, log, kont, t, policy):
    """Run the ev corridor rooted at ``e``: allocate its continuation
    addresses, append the resulting store joins to ``log``, and return the
    one context where the corridor leaves ev territory (a co context, or
    stuck on an unbound variable)."""
    while True:
        cls = type(e)
        if cls is Var:
            a = env.lookup(e.name)
            if a is None:
                return StuckC(STUCK_UNBOUND, e.label)
            return CoC(kont, DelayedAddr(a))
        if cls is Lit:
            return CoC(kont, lit_value(e.value))
        if cls is Lam:
            return CoC(kont, Closure(e.var, e.body, env))
        if cls is App:
            ka = policy.kont_addr(e.label, t)
            log.append((ka, frozenset((kont,))))
            kont = ArK(e.arg, env, ka, e.label, t)
            e = e.fn
        else:  # If
            ka = policy.kont_addr(e.label, t)
            log.append((ka, frozenset((kont,))))
            kont = IfK(e.then, e.els, env, ka, t)
            e = e.guard


def inject_compiled(e, policy):
    """Initial contexts and log: run the program's root corridor.  Shaped
    for the logged fixpoint runner."""
    log = []
    c0 = corridor(e, EMPTY_ENV, log, HALT, (), policy)
    return [c0], log


def step_compiled(c, store, policy):
    """Transfer function of the compiled machine.  A co context whose
    continuation resumes evaluation (an operand, an operator's body, an if
    branch) runs that expression's corridor here, so each successor is the
    co, ap or stuck context the corridor ends in, never an ev state."""
    out = []
    if isinstance(c, CoC):
        kont, v = c.kont, c.val
        if isinstance(kont, Halt):
            return out
        if isinstance(kont, ArK):
            af = policy.fnval_addr(kont.label, kont.time)
            log = [(af, force(store, v))]
            nk = FnK(af, kont.kaddr, kont.label, kont.time)
            ctx = corridor(kont.expr, kont.env, log, nk, kont.time, policy)
            out.append((ctx, log))
            return out
        if isinstance(kont, FnK):
            av = policy.argval_addr(kont.label, kont.time)
            log = [(av, force(store, v))]
            for f in store.deref(kont.fv):
                for k2 in store.deref(kont.kaddr):
                    out.append((ApC(f, av, k2, kont.label, kont.time), log))
            return out
        if isinstance(kont, IfK):
            forced = force(store, v)
            for k2 in store.deref(kont.kaddr):
                if TT in forced:
                    log = []
                    out.append((corridor(kont.then, kont.env, log, k2,
                                         kont.time, policy), log))
                if FF in forced:
                    log = []
                    out.append((corridor(kont.els, kont.env, log, k2,
                                         kont.time, policy), log))
            if not out:
                out.append((StuckC(STUCK_IF, kont.then.label), []))
            return out
        raise AnalysisBugError(f"unknown continuation {kont!r}")
    if isinstance(c, ApC):
        f, av, kont, lbl, t = c.fn, c.arg, c.kont, c.label, c.time
        if isinstance(f, Closure):
            t2 = policy.tick_ap(lbl, t)
            ax = policy.bind_addr(f.var, lbl, t)
            log = [(ax, store.deref(av))]
            ctx = corridor(f.body, f.env.extend(f.var, ax), log, kont, t2,
                           policy)
            out.append((ctx, log))
            return out
        if isinstance(f, PrimVal):
            for v in store.deref(av):
                res = delta(f.name, v)
                if res is None:
                    out.append((StuckC(STUCK_PRIM, lbl), []))
                else:
                    for u in res:
                        out.append((CoC(kont, u), []))
            return out
        out.append((StuckC(STUCK_APPLY, lbl), []))
        return out
    if isinstance(c, StuckC):
        return out
    if isinstance(c, EvC):
        raise AnalysisBugError("compiled machine reached an ev context")
    raise AnalysisBugError(f"unknown context {c!r}")

