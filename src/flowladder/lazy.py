"""Lazy non-determinism.

A variable reference no longer fans out into one successor per stored value:
it produces a single continuation step carrying a delayed address, and the
set split happens only where a concrete value is unavoidable: writing an
operator or operand cell, choosing an if branch, applying a primitive.
Between a lookup and its first strict use the machine explores one path
instead of |values| identical ones, which collapses the diamond subgraphs
the widened stages exhibit at applications.

Delayed addresses live only inside contexts.  Every store write forces
first, so stores never contain a delayed value; the trade-off is a one-step
delay in where precision is applied, which the test suite measures rather
than assumes away.
"""

from __future__ import annotations

from .domains import (
    AnalysisBugError,
    ApC,
    ArK,
    Closure,
    CoC,
    DelayedAddr,
    EvC,
    FnK,
    Halt,
    IfK,
    PrimVal,
    Store,
    StuckC,
    STUCK_APPLY,
    STUCK_IF,
    STUCK_PRIM,
    STUCK_UNBOUND,
    TT,
    FF,
    delta,
    lit_value,
)
from .syntax import App, If, Lam, Lit, Var


def force(store: Store, v) -> frozenset:
    """Dereference a delayed address; any other value is its own singleton."""
    if isinstance(v, DelayedAddr):
        vals = store.get(v.addr)
        if vals is None:
            raise AnalysisBugError(f"dangling delayed address {v.addr!r}")
        return vals
    return frozenset((v,))


def step_lazy(c, store: Store, policy):
    """The logged relation with lazy variable lookup.

    Same shape as the delta stepper except: ev of a variable yields exactly
    one successor, and the ar/fn/if receivers force before writing or
    branching.
    """
    if isinstance(c, EvC):
        e, env, kont, t = c.expr, c.env, c.kont, c.time
        if isinstance(e, Var):
            a = env.lookup(e.name)
            if a is None:
                return [(StuckC(STUCK_UNBOUND, e.label), [])]
            return [(CoC(kont, DelayedAddr(a)), [])]
        if isinstance(e, Lit):
            return [(CoC(kont, lit_value(e.value)), [])]
        if isinstance(e, Lam):
            return [(CoC(kont, Closure(e.var, e.body, env)), [])]
        if isinstance(e, App):
            ka = policy.kont_addr(e.label, t)
            succ = EvC(e.fn, env, ArK(e.arg, env, ka, e.label, t), t)
            return [(succ, [(ka, frozenset((kont,)))])]
        if isinstance(e, If):
            ka = policy.kont_addr(e.label, t)
            succ = EvC(e.guard, env, IfK(e.then, e.els, env, ka, t), t)
            return [(succ, [(ka, frozenset((kont,)))])]
        raise TypeError(f"not an expression: {e!r}")

    if isinstance(c, CoC):
        kont, v = c.kont, c.val
        if isinstance(kont, Halt):
            return []
        if isinstance(kont, ArK):
            af = policy.fnval_addr(kont.label, kont.time)
            succ = EvC(kont.expr, kont.env, FnK(af, kont.kaddr, kont.label, kont.time), kont.time)
            return [(succ, [(af, force(store, v))])]
        if isinstance(kont, FnK):
            av = policy.argval_addr(kont.label, kont.time)
            log = [(av, force(store, v))]
            return [
                (ApC(f, av, k2, kont.label, kont.time), log)
                for f in store.deref(kont.fv)
                for k2 in store.deref(kont.kaddr)
            ]
        if isinstance(kont, IfK):
            forced = force(store, v)
            out = []
            if TT in forced:
                out.extend(
                    (EvC(kont.then, kont.env, k2, kont.time), [])
                    for k2 in store.deref(kont.kaddr)
                )
            if FF in forced:
                out.extend(
                    (EvC(kont.els, kont.env, k2, kont.time), [])
                    for k2 in store.deref(kont.kaddr)
                )
            if not out:
                return [(StuckC(STUCK_IF, kont.then.label), [])]
            return out
        raise TypeError(f"not a continuation: {kont!r}")

    if isinstance(c, ApC):
        f, av, kont, lbl, t = c.fn, c.arg, c.kont, c.label, c.time
        if isinstance(f, Closure):
            t2 = policy.tick_ap(lbl, t)
            ax = policy.bind_addr(f.var, lbl, t)
            succ = EvC(f.body, f.env.extend(f.var, ax), kont, t2)
            return [(succ, [(ax, store.deref(av))])]
        if isinstance(f, PrimVal):
            out = []
            for v in store.deref(av):
                res = delta(f.name, v)
                if res is None:
                    out.append((StuckC(STUCK_PRIM, lbl), []))
                else:
                    out.extend((CoC(kont, u), []) for u in res)
            return out
        return [(StuckC(STUCK_APPLY, lbl), [])]

    if isinstance(c, StuckC):
        return []
    raise TypeError(f"not a context: {c!r}")

