"""Abstract compilation: expressions become invokable objects.

A compiled expression, handed a store, an environment, a change log, and a
continuation, runs the whole deterministic ev corridor at native speed and
returns the single co or stuck context the corridor ends in, appending its
store writes to the log.  Variable lookup stays lazy, so the corridor never
branches; all fan-out lives in the co/ap transfer function `step_compiled`.

`stutter_check` verifies on small programs that the compiled machine is the
lazy machine with its ev corridors contracted: a stuttering bisimulation
with all the stutter on the lazy side.
"""

from .syntax import App, If, Lam, Lit, Var, descendant_labels
from .domains import (
    AnalysisBugError,
    ApC,
    ArK,
    BoolVal,
    Closure,
    CoC,
    DelayedAddr,
    EMPTY_ENV,
    EMPTY_STORE,
    EvC,
    FnK,
    HALT,
    Halt,
    IfK,
    PrimVal,
    STUCK_APPLY,
    STUCK_IF,
    STUCK_PRIM,
    STUCK_UNBOUND,
    Store,
    StuckC,
    delta,
    lit_value,
)
from .deltas import explore_states, replay
from .lazy import force, step_lazy

FF = BoolVal(False)
TT = BoolVal(True)


class CompiledExpr:
    """An expression fused with its ev-dispatch.

    `run(store, env, log, kont, t)` executes the corridor rooted at this
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

    def run(self, store, env, log, kont, t):
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
                ka = ce.policy.kont_addr(ce.label, t, store, kont)
                log.append((ka, frozenset((kont,))))
                kont = ArK(ce.arg, env, ka, ce.label, t)
                ce = ce.fn
            else:  # if
                ka = ce.policy.kont_addr(ce.label, t, store, kont)
                log.append((ka, frozenset((kont,))))
                kont = IfK(ce.then, ce.els, env, ka, t)
                ce = ce.guard


def compile_expr(e, policy) -> CompiledExpr:
    """Compile a source expression tree for a given allocation policy."""
    return CompiledExpr(e, policy)


def compiled_nodes(ce: CompiledExpr) -> dict:
    """Label -> CompiledExpr for every node under ce."""
    table = {}
    work = [ce]
    while work:
        n = work.pop()
        table[n.label] = n
        if n.kind == "lam":
            work.append(n.body)
        elif n.kind == "app":
            work.extend((n.fn, n.arg))
        elif n.kind == "if":
            work.extend((n.guard, n.then, n.els))
    return table


def inject_compiled(e, policy):
    """Initial contexts and log: run the program's root corridor against the
    empty store.  Shaped for the logged fixpoint runner."""
    ce = compile_expr(e, policy)
    log = []
    c0 = ce.run(EMPTY_STORE, EMPTY_ENV, log, HALT, ())
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
            af = policy.fnval_addr(kont.label, kont.time, store)
            log = [(af, force(store, v))]
            nk = FnK(af, kont.kaddr, kont.label, kont.time)
            ctx = kont.expr.run(store, kont.env, log, nk, kont.time)
            out.append((ctx, log))
            return out
        if isinstance(kont, FnK):
            av = policy.argval_addr(kont.label, kont.time, store)
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
                    out.append((kont.then.run(store, kont.env, log, k2, kont.time), log))
                if FF in forced:
                    log = []
                    out.append((kont.els.run(store, kont.env, log, k2, kont.time), log))
            if not out:
                out.append((StuckC(STUCK_IF, kont.then.label), []))
            return out
        raise AnalysisBugError(f"unknown continuation {kont!r}")
    if isinstance(c, ApC):
        f, av, kont, lbl, t = c.fn, c.arg, c.kont, c.label, c.time
        if isinstance(f, Closure):
            t2 = policy.tick_ap(lbl, t)
            ax = policy.bind_addr(f.var, lbl, t, store)
            log = [(ax, store.deref(av))]
            ctx = f.body.run(store, f.env.extend(f.var, ax), log, kont, t2)
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
    (context, store) pair.  The refinement map r sends a lazy state to the
    compiled state it denotes: non-ev states swap expressions for their
    compiled forms; an ev state commits, running the compiled corridor for
    its expression and replaying the corridor's log.  The check demands

      1. r maps the lazy reachable set onto exactly the compiled one,
      2. contracting lazy edges along r (dropping r-loops) gives exactly
         the compiled edge set, and
      3. every dropped edge is an ev step whose target sits strictly later
         in the same corridor, so lazy stutter phases are finite.
    """
    table = compiled_nodes(compile_expr(e, policy))
    desc = descendant_labels(e)
    gl = explore_states(e, step_lazy, policy, mode, max_states=max_states)
    gc = explore_states(e, step_compiled, policy, mode,
                        inject=inject_compiled, max_states=max_states)
    if gl.status != "fixpoint" or gc.status != "fixpoint":
        return _fail("state budget exceeded", None, gl, gc)

    def refine(state):
        c, store = state
        cstore = store_to_compiled(store, table)
        if isinstance(c, EvC):
            log = []
            ctx = table[c.expr.label].run(
                cstore, c.env, log, to_compiled(c.kont, table), c.time)
            s2, _ = replay(log, cstore)
            return (ctx, s2)
        return (to_compiled(c, table), cstore)

    rmap = {s: refine(s) for s in gl.states}

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
