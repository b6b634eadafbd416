"""Globally store-widened baseline over the value-store-allocating relation.

Two changes relative to the unwidened machine land together here and stay for
every later stage:

* one global store shared by every context, grown by joins only;
* every intermediate value is store-allocated: the fn frame carries the
  address of the operator's value cell and ap contexts carry the operand
  cell's address, so frames and contexts contain no raw value sets.

The transfer is deliberately literal: every iteration re-steps EVERY context
discovered so far against the current store.  That re-stepping is the cost
the frontier stage removes, so it is kept observable here, not optimized.
"""

from __future__ import annotations

from .domains import (
    AnalysisResult,
    ApC,
    ArK,
    Closure,
    CoC,
    EMPTY_ENV,
    EMPTY_STORE,
    EvC,
    FnK,
    HALT,
    ID_BITS,
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
    halt_values,
    lit_value,
    require_abstract,
)
from .syntax import App, Expr, If, Lam, Lit, Var


def inject_context(e: Expr):
    return EvC(e, EMPTY_ENV, HALT, ())


def step_context(c, store: Store, policy):
    """Successors of one context against a shared store.

    Returns (contexts, store'); the store only grows.  All dereferences hit
    the incoming store, never the grown one (the logged stepper of the delta
    stage must agree with this one read for read).
    """
    if isinstance(c, EvC):
        e, env, kont, t = c.expr, c.env, c.kont, c.time
        if isinstance(e, Var):
            a = env.lookup(e.name)
            if a is None:
                return [StuckC(STUCK_UNBOUND, e.label)], store
            return [CoC(kont, v) for v in store.deref(a)], store
        if isinstance(e, Lit):
            return [CoC(kont, lit_value(e.value))], store
        if isinstance(e, Lam):
            return [CoC(kont, Closure(e.var, e.body, env))], store
        if isinstance(e, App):
            ka = policy.kont_addr(e.label, t)
            store2 = store.join(ka, (kont,))
            return [EvC(e.fn, env, ArK(e.arg, env, ka, e.label, t), t)], store2
        if isinstance(e, If):
            ka = policy.kont_addr(e.label, t)
            store2 = store.join(ka, (kont,))
            return [EvC(e.guard, env, IfK(e.then, e.els, env, ka, t), t)], store2
        raise TypeError(f"not an expression: {e!r}")

    if isinstance(c, CoC):
        kont, v = c.kont, c.val
        if isinstance(kont, Halt):
            return [], store
        if isinstance(kont, ArK):
            af = policy.fnval_addr(kont.label, kont.time)
            store2 = store.join(af, (v,))
            frame = FnK(af, kont.kaddr, kont.label, kont.time)
            return [EvC(kont.expr, kont.env, frame, kont.time)], store2
        if isinstance(kont, FnK):
            av = policy.argval_addr(kont.label, kont.time)
            store2 = store.join(av, (v,))
            out = [
                ApC(f, av, k2, kont.label, kont.time)
                for f in store.deref(kont.fv)
                for k2 in store.deref(kont.kaddr)
            ]
            return out, store2
        if isinstance(kont, IfK):
            if v == TT:
                branch = kont.then
            elif v == FF:
                branch = kont.els
            else:
                return [StuckC(STUCK_IF, kont.then.label)], store
            return [EvC(branch, kont.env, k2, kont.time) for k2 in store.deref(kont.kaddr)], store
        raise TypeError(f"not a continuation: {kont!r}")

    if isinstance(c, ApC):
        f, av, kont, lbl, t = c.fn, c.arg, c.kont, c.label, c.time
        if isinstance(f, Closure):
            t2 = policy.tick_ap(lbl, t)
            ax = policy.bind_addr(f.var, lbl, t)
            store2 = store.join(ax, store.deref(av))
            return [EvC(f.body, f.env.extend(f.var, ax), kont, t2)], store2
        if isinstance(f, PrimVal):
            out = []
            for v in store.deref(av):
                res = delta(f.name, v)
                if res is None:
                    out.append(StuckC(STUCK_PRIM, lbl))
                else:
                    out.extend(CoC(kont, u) for u in res)
            return out, store
        return [StuckC(STUCK_APPLY, lbl)], store

    if isinstance(c, StuckC):
        return [], store
    raise TypeError(f"not a context: {c!r}")


def sweep_contexts(order, store, policy):
    """Step every context in order against the store.  Returns the
    successor list of each, in order, and the joined store."""
    stepped = []
    acc = store
    for c in order:
        succs, s2 = step_context(c, store, policy)
        if s2 is not store:
            acc = acc.join_store(s2)
        stepped.append(succs)
    return stepped, acc


def analyze_baseline(e: Expr, policy, mode: str = "abstract", cap_check=None) -> AnalysisResult:
    """Least fixpoint of the literal widening iteration from the injected
    context: each iteration steps every context discovered so far against
    the current store, adds every successor, and joins every produced
    store.

    The result lists the contexts in the order they were found, and keys
    each edge by one int, ``src << ID_BITS | dst``, from the positions of
    its ends, labeled with the iteration at which it was first produced;
    its final store's equal value sets are one object.
    ``cap_check(n_contexts, generation)`` may return a status string to
    stop early.
    """
    require_abstract(mode, policy)
    c0 = inject_context(e)
    ids = {c0: 0}
    order = [c0]  # insertion order: deterministic iteration
    store = EMPTY_STORE
    edges = {}
    generation = 0
    status = "fixpoint"
    while True:
        if cap_check is not None:
            stop = cap_check(len(order), generation)
            if stop is not None:
                status = stop
                break
        stepped, store2 = sweep_contexts(order, store, policy)
        grew = False
        # order grows in this loop; stepped holds the contexts swept
        for src, succs in enumerate(stepped):
            for dst in succs:
                i = ids.get(dst)
                if i is None:
                    i = ids[dst] = len(order)
                    order.append(dst)
                    grew = True
                edges.setdefault(src << ID_BITS | i, generation)
        if not grew and store2 == store:
            break
        store = store2
        generation += 1
    store.share_sets()
    return AnalysisResult(
        program=e, nodes=order, edge_table=edges, store=store,
        status=status, generations=generation,
        values=halt_values(order, store))
