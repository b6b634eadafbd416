"""Abstract compilation: expressions become invokable objects.

A compiled expression, handed an environment, a change log, and a
continuation, runs the whole deterministic ev corridor at native speed and
returns the single co or stuck context the corridor ends in, appending its
store writes to the log.  It reads no store: allocation takes only the
label and time.  Variable lookup stays lazy, so the corridor never
branches; all fan-out lives in the co/ap transfer function `step_compiled`.
"""

from .syntax import App, If, Lam, Lit, Var
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


class CompiledExpr:
    """An expression fused with its ev-dispatch.

    `run(env, log, kont, t)` executes the corridor rooted at this
    expression: it allocates continuation addresses, appends the resulting
    store joins to `log`, and returns the one context where the corridor
    leaves ev territory (a co context, or stuck on an unbound variable).
    Equality and hash go by the source node, so compiling one program twice
    gives equal trees, and two bodies at one label in different programs
    stay apart.
    """

    __slots__ = ("kind", "label", "source", "name", "var", "body",
                 "fn", "arg", "guard", "then", "els", "value", "policy", "_hash")

    def __init__(self, source, policy):
        self.source = source
        self._hash = hash(("compiled", source))
        self.label = source.label
        self.policy = policy
        self.name = self.var = self.body = None
        self.fn = self.arg = self.guard = self.then = self.els = None
        self.value = None
        if isinstance(source, Var):
            self.kind = "var"
            self.name = source.name
        elif isinstance(source, Lit):
            self.kind = "lit"
            self.value = lit_value(source.value)
        elif isinstance(source, Lam):
            self.kind = "lam"
            self.var = source.var
            self.body = CompiledExpr(source.body, policy)
        elif isinstance(source, App):
            self.kind = "app"
            self.fn = CompiledExpr(source.fn, policy)
            self.arg = CompiledExpr(source.arg, policy)
        elif isinstance(source, If):
            self.kind = "if"
            self.guard = CompiledExpr(source.guard, policy)
            self.then = CompiledExpr(source.then, policy)
            self.els = CompiledExpr(source.els, policy)
        else:
            raise TypeError(f"not an expression: {source!r}")

    def __eq__(self, other):
        return self is other or (
            isinstance(other, CompiledExpr) and self.source == other.source)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"CompiledExpr({self.source!r})"

    def run(self, env, log, kont, t):
        ce = self
        while True:
            kind = ce.kind
            if kind == "var":
                a = env.lookup(ce.name)
                if a is None:
                    return StuckC(STUCK_UNBOUND, ce.label)
                return CoC(kont, DelayedAddr(a))
            if kind == "lit":
                return CoC(kont, ce.value)
            if kind == "lam":
                return CoC(kont, Closure(ce.var, ce.body, env))
            if kind == "app":
                ka = ce.policy.kont_addr(ce.label, t)
                log.append((ka, frozenset((kont,))))
                kont = ArK(ce.arg, env, ka, ce.label, t)
                ce = ce.fn
            else:  # if
                ka = ce.policy.kont_addr(ce.label, t)
                log.append((ka, frozenset((kont,))))
                kont = IfK(ce.then, ce.els, env, ka, t)
                ce = ce.guard


def compile_expr(e, policy) -> CompiledExpr:
    """Compile a source expression tree for a given allocation policy."""
    return CompiledExpr(e, policy)


def inject_compiled(e, policy):
    """Initial contexts and log: run the program's root corridor.  Shaped
    for the logged fixpoint runner."""
    ce = compile_expr(e, policy)
    log = []
    c0 = ce.run(EMPTY_ENV, log, HALT, ())
    return [c0], log


def step_compiled(c, store, policy, mode: str = "abstract"):
    """Transfer function of the compiled machine.  Every expression slot in
    reachable contexts holds a CompiledExpr, so successors of co contexts are
    produced by invoking compiled code instead of enqueueing ev states."""
    out = []
    if isinstance(c, CoC):
        kont, v = c.kont, c.val
        if isinstance(kont, Halt):
            return out
        if isinstance(kont, ArK):
            af = policy.fnval_addr(kont.label, kont.time)
            log = [(af, force(store, v))]
            nk = FnK(af, kont.kaddr, kont.label, kont.time)
            ctx = kont.expr.run(kont.env, log, nk, kont.time)
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
                    out.append((kont.then.run(kont.env, log, k2, kont.time), log))
                if FF in forced:
                    log = []
                    out.append((kont.els.run(kont.env, log, k2, kont.time), log))
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
            ctx = f.body.run(f.env.extend(f.var, ax), log, kont, t2)
            out.append((ctx, log))
            return out
        if isinstance(f, PrimVal):
            for v in store.deref(av):
                res = delta(f.name, v, mode)
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

