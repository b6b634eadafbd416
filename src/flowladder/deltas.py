"""Change-log store deltas.

The frontier stage pays for a full store copy on every write and a full
structural store comparison every generation.  Here transitions stop
touching the store: each successor carries a log of (address, value set)
join intents, the system concatenates the logs of a generation and replays
them once, and the replay's change flag replaces the store comparison.

Lookups never consult the log: every rule reads the generation's entry
store only, which is what makes per-successor logs order-independent.

``run_logged`` runs the log-and-replay system under the frontier driver
with the imperative rungs' step replay (``frontier.replaying_sweep``): a
step reads the generation's store through a read-recording view, and its
successors are replayed from the driver's memo until a cell it read
grows; ``replay`` hands the sweep the addresses of the cells it grows.
The lazy and compiled stages run their steppers through ``run_logged``
too.
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
    require_abstract,
)
from .syntax import App, If, Lam, Lit, Var
from .frontier import SnapshotView, replaying_sweep, run_driven
from .widening import inject_context

# A change log is a list of (Addr, frozenset) join intents.  Entry order is
# immaterial: replay's result and change flag are order-independent, which is
# tested, not assumed.


def replay(log, store: Store, grown=None):
    """Fold a change log into a store.

    Returns (store', changed?).  The change test for every entry runs against
    the PRE-replay store, and an entry it already contains is skipped; the
    store changes exactly when some entry is not skipped, because joins only
    grow.  ``grown``, if a list, gets the address of every entry not
    skipped: each address whose cell grew, repeats allowed.
    """
    m = None
    for a, vs in log:
        old = store.get(a)
        if old is not None and vs <= old:
            continue
        if m is None:
            m = store.to_dict()
        cur = m.get(a)
        m[a] = frozenset(vs) if cur is None else cur | vs
        if grown is not None:
            grown.append(a)
    if m is None:
        return store, False
    return Store(m), True


def step_with_deltas(c, store: Store, policy):
    """The widened relation with writes logged instead of performed.

    Returns a list of (successor context, change log).  Deliberately a fresh
    transcription of the rules rather than a wrapper over the store-joining
    stepper: the two are checked against each other step for step.
    """
    if isinstance(c, EvC):
        e, env, kont, t = c.expr, c.env, c.kont, c.time
        if isinstance(e, Var):
            a = env.lookup(e.name)
            if a is None:
                return [(StuckC(STUCK_UNBOUND, e.label), [])]
            return [(CoC(kont, v), []) for v in store.deref(a)]
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
            return [(succ, [(af, frozenset((v,)))])]
        if isinstance(kont, FnK):
            av = policy.argval_addr(kont.label, kont.time)
            log = [(av, frozenset((v,)))]
            return [
                (ApC(f, av, k2, kont.label, kont.time), log)
                for f in store.deref(kont.fv)
                for k2 in store.deref(kont.kaddr)
            ]
        if isinstance(kont, IfK):
            if v == TT:
                branch = kont.then
            elif v == FF:
                branch = kont.els
            else:
                return [(StuckC(STUCK_IF, kont.then.label), [])]
            return [(EvC(branch, kont.env, k2, kont.time), []) for k2 in store.deref(kont.kaddr)]
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


# ------------------------------------------------------ logged-system runner

def inject_plain(e, policy):
    """Injection for steppers whose start state is the root ev context."""
    return [inject_context(e)], []


def run_logged(
    e,
    stepper,
    policy,
    mode: str = "abstract",
    inject=inject_plain,
    cap_check=None,
    trace=None,
) -> AnalysisResult:
    """Frontier iteration where transitions emit logs and the store advances
    by one replay per generation.  Each step reads the store through a
    ``SnapshotView`` and is replayed from the driver's memo until a cell it
    read grows (``frontier.replaying_sweep``).  ``trace`` is
    run_driven's."""
    require_abstract(mode, policy)
    first, log0 = inject(e, policy)
    store, _ = replay(log0, EMPTY_STORE)
    view = SnapshotView(store._m)

    def apply(writes):
        nonlocal store
        grown = []
        store, _ = replay(writes, store, grown)
        if grown:
            view.over(store._m)
        return grown

    return run_driven(e, first,
                      replaying_sweep(stepper, policy, view, apply),
                      lambda: store, cap_check, trace)
