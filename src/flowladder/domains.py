"""Semantic domains shared by every engine stage.

The machine is a CESK-style state space: contexts (a machine state minus its
store), value sets, heap-allocated continuations, and stores mapping
addresses to sets of storeables (values and continuations).  Three address
shapes exist:

* ``BindAddr(x, ctx)``   -- variable bindings, context = truncated call string
* ``KontAddr(l, t)``     -- continuations, keyed by the pushing site's label
                            and the unabridged current time
* ``ValAddr(l, t, slot)``-- operator/operand value cells of an application
                            site (engines past the naive one store-allocate
                            every intermediate value)

Allocation is pluggable: the concrete policy hands out fresh counter
addresses (deterministic machine), the k-CFA policy truncates call strings
to length k.  Times are tuples of application labels, newest first.

Every term here derives from ``syntax.Term``, which writes its constructor,
cached hash and structural equality from its ``__slots__``, and prints as
its ``skeleton``; terms are immutable by convention (no mutators).  The
store is not a term: it hashes on first use, and ``MutStore`` updates it
in place.
"""

from __future__ import annotations

from .syntax import PRIM_NAMES, App, If, Lam, Lit, Term, Var

Time = tuple  # tuple of application labels, newest first


class AnalysisBugError(RuntimeError):
    """An internal invariant broke (absent address, dangling delayed value)."""


# ----------------------------------------------------------------- addresses

FN_SLOT = 0
ARG_SLOT = 1


class BindAddr(Term):
    __slots__ = ("var", "ctx")


class KontAddr(Term):
    __slots__ = ("label", "time")


class ValAddr(Term):
    """Value cell of an application site; slot 0 holds the operator value,
    slot 1 the operand value."""

    __slots__ = ("label", "time", "slot")


class ConcreteAddr(Term):
    __slots__ = ("n",)


def fmt_time(t: Time, memo=None) -> str:
    """A time as its labels joined by "-", or "." when it is empty.
    ``memo``, if a dict, keeps each rendering under its time, as
    ``skeleton``'s memo keeps a term's."""
    if memo is None:
        return "-".join(map(str, t)) if t else "."
    s = memo.get(t)
    if s is None:
        s = memo[t] = fmt_time(t)
    return s


# ------------------------------------------------------------------- values

class IntVal(Term):
    __slots__ = ("z",)


class BoolVal(Term):
    __slots__ = ("b",)


class PrimVal(Term):
    __slots__ = ("name",)


class AbstractInt(Term):
    """The single abstract integer; every arithmetic result collapses to it."""

    __slots__ = ()


TT = BoolVal(True)
FF = BoolVal(False)
ZINT = AbstractInt()


class Closure(Term):
    """Function value: binder, body expression, captured environment."""

    __slots__ = ("var", "body", "env")


class DelayedAddr(Term):
    """A variable reference whose store lookup has not happened yet; the lazy
    engines pass these through continuations and force them at strict
    positions.  Never stored."""

    __slots__ = ("addr",)


_PRIMS = {p: PrimVal(p) for p in PRIM_NAMES}


def lit_value(v):
    """Value denoted by a literal payload (int, bool, or primitive name).
    The booleans and primitives are built once."""
    if v is True:
        return TT
    if v is False:
        return FF
    if isinstance(v, int):
        return IntVal(v)
    return _PRIMS[v]


# -------------------------------------------------------------- environment

_ENV_HASH_MOD = 1 << 60


class Env(Term):
    """Immutable variable -> address map with a cached hash: the sum of
    ``hash((var, addr))`` over its bindings modulo ``_ENV_HASH_MOD``, so
    that ``extend`` updates it with the one binding it adds or replaces
    rather than hashing every binding again."""

    __slots__ = ("_m",)

    def __init__(self, m: dict | None = None):
        self._m = m or {}
        self._hash = sum(map(hash, self._m.items())) % _ENV_HASH_MOD

    def lookup(self, var: str):
        return self._m.get(var)

    def extend(self, var: str, addr) -> Env:
        m = dict(self._m)
        old = m.get(var)
        m[var] = addr
        h = self._hash + hash((var, addr))
        if old is not None:
            h -= hash((var, old))
        env = Env.__new__(Env)
        env._m = m
        env._hash = h % _ENV_HASH_MOD
        return env

    def items(self):
        return self._m.items()

    def __len__(self):
        return len(self._m)


EMPTY_ENV = Env()


# -------------------------------------------------------------------- store

class Store:
    """Immutable address -> frozenset-of-storeables map.

    Lookup of an absent address raises: a well-formed machine only ever
    dereferences addresses it has written.  Joins are the only growth
    operation; ``join`` returns ``self`` unchanged when the incoming set adds
    nothing, so object identity doubles as a cheap no-change hint (equality
    stays structural).
    """

    __slots__ = ("_m", "_hash")

    def __init__(self, m: dict | None = None):
        self._m = m if m is not None else {}
        self._hash = None

    def deref(self, addr) -> frozenset:
        try:
            return self._m[addr]
        except KeyError:
            raise AnalysisBugError(f"lookup of absent address {addr!r}") from None

    def get(self, addr, default=None):
        return self._m.get(addr, default)

    def join(self, addr, vals) -> Store:
        old = self._m.get(addr)
        if old is not None and old.issuperset(vals):
            return self
        m = dict(self._m)
        m[addr] = frozenset(vals) if old is None else old.union(vals)
        return Store(m)

    def join_store(self, other: Store) -> Store:
        out = self
        for addr, vals in other._m.items():
            out = out.join(addr, vals)
        return out

    def items(self):
        return self._m.items()

    def to_dict(self) -> dict:
        """A fresh, mutable copy of the address map."""
        return dict(self._m)

    def __contains__(self, addr):
        return addr in self._m

    def __len__(self):
        return len(self._m)

    def __eq__(self, other):
        if self is other:
            return True
        return type(other) is Store and self._m == other._m

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset((a, vs) for a, vs in self._m.items()))
        return self._hash

    def __repr__(self):
        entries = sorted(
            (repr(a), "{" + ",".join(sorted(map(repr, vs))) + "}") for a, vs in self._m.items()
        )
        return "[" + ";".join(f"{a}->{vs}" for a, vs in entries) + "]"


EMPTY_STORE = Store()


class MutStore(Store):
    """Store whose join updates in place.

    Only the concrete evaluator uses this: a deterministic run threads a
    single store down a single path, so nobody can observe the sharing.  The
    transition relation stepped is unchanged; join still returns the store.
    """

    __slots__ = ()

    def __init__(self):
        super().__init__({})

    def join(self, addr, vals):
        vals = frozenset(vals)
        old = self._m.get(addr)
        self._m[addr] = vals if old is None else old | vals
        self._hash = None
        return self


# ------------------------------------------------------------ continuations

class Halt(Term):
    __slots__ = ()


HALT = Halt()


class ArK(Term):
    """Evaluate-the-operand frame: the operand expression, its environment,
    the tail continuation's address, and the application site's label/time."""

    __slots__ = ("expr", "env", "kaddr", "label", "time")


class FnK(Term):
    """Apply-the-operator frame.  ``fv`` is the operator value itself in the
    naive engine and the operator value cell's address in every later one."""

    __slots__ = ("fv", "kaddr", "label", "time")


class IfK(Term):
    __slots__ = ("then", "els", "env", "kaddr", "time")


# ----------------------------------------------------------------- contexts

class EvC(Term):
    """About to evaluate an expression."""

    __slots__ = ("expr", "env", "kont", "time")


class CoC(Term):
    """Returning a value to a continuation."""

    __slots__ = ("kont", "val")


class ApC(Term):
    """Applying an operator value.  ``arg`` is the operand value itself in
    the naive engine and the operand cell's address in every later one."""

    __slots__ = ("fn", "arg", "kont", "label", "time")


class StuckC(Term):
    """Terminal error node: a type error or unbound lookup was detected.
    Coarse payload (reason + one label) so every engine builds the same node
    for the same fault."""

    __slots__ = ("reason", "label")


Context = EvC | CoC | ApC | StuckC

STUCK_APPLY = "apply-non-function"
STUCK_PRIM = "primitive-type-error"
STUCK_IF = "if-non-boolean"
STUCK_UNBOUND = "unbound-variable"


# ------------------------------------------------------------ run results

def halt_values(contexts, store) -> frozenset:
    """Values that reach halt among ``contexts``, with delayed lookups
    forced against ``store``."""
    out = set()
    for c in contexts:
        if isinstance(c, CoC) and isinstance(c.kont, Halt):
            v = c.val
            if isinstance(v, DelayedAddr):
                out |= store.deref(v.addr)
            else:
                out.add(v)
    return frozenset(out)


# an edge table keys an edge by one int, ``src << ID_BITS | dst``: 32 bytes
# where a (src, dst) tuple takes 56.  No node position may reach
# 2 ** ID_BITS
ID_BITS = 32
ID_MASK = (1 << ID_BITS) - 1


class AnalysisResult:
    """A stage's fixpoint plus its measurements: what every runner returns.

    It holds the tables the run built.  ``nodes`` lists the reachable
    contexts in the order the run first met them, the initial one first:
    plain contexts for the widened stages, (context, store) pairs for the
    naive one.  ``edge_table`` maps each edge to the generation that first
    produced it, keyed by one int, ``src << ID_BITS | dst``, from the
    positions of its ends in ``nodes``: ``key >> ID_BITS`` is src and
    ``key & ID_MASK`` dst.  ``store`` is the final store, None for the
    naive stage.  No stage keeps its store history; a run's trace, when
    asked for, records the store each generation reads.  ``engine.run``
    fills in the stage, k, wall time and peak memory.

    ``contexts`` and ``edges``, the nodes and the (src, dst, generation)
    edges as frozensets, are derived from the tables on first read and
    kept; counting, exporting and the metrics read the tables alone."""

    __slots__ = ("stage", "k", "program", "nodes", "edge_table", "store",
                 "status", "generations", "wall_time_s", "peak_mem_bytes",
                 "values", "_contexts", "_edges")

    def __init__(self, *, program, nodes, edge_table, store, status,
                 generations, values):
        self.stage = self.k = None
        self.program = program
        self.nodes = nodes
        self.edge_table = edge_table
        self.store = store
        self.status = status
        self.generations = generations
        self.wall_time_s = 0.0
        self.peak_mem_bytes = 0
        self.values = values
        self._contexts = self._edges = None

    @property
    def initial(self):
        return self.nodes[0]

    @property
    def contexts(self) -> frozenset:
        if self._contexts is None:
            # from a dict, which sizes the set's table once; grown from the
            # list, the table can end up twice as large
            self._contexts = frozenset(dict.fromkeys(self.nodes))
        return self._contexts

    @property
    def edges(self) -> frozenset:
        if self._edges is None:
            nodes = self.nodes
            self._edges = frozenset(
                (nodes[key >> ID_BITS], nodes[key & ID_MASK], g)
                for key, g in self.edge_table.items())
        return self._edges

    def metrics(self) -> dict:
        wall = self.wall_time_s
        transitions = len(self.edge_table)
        return {
            "stage": self.stage,
            "k": self.k,
            "states": len(self.nodes),
            "transitions": transitions,
            "generations": self.generations,
            "wall_time_s": wall,
            "peak_mem_bytes": self.peak_mem_bytes,
            "states_per_sec": (transitions / wall) if wall > 0 else 0.0,
            "status": self.status,
        }


# ----------------------------------------------------------------- policies

class KCfaPolicy:
    """Uniform k-CFA allocation.

    Times are call strings of application labels truncated to length k.
    Binding addresses pair the variable with the truncated extension of the
    current time by the call site; continuation addresses keep the site label
    with the untruncated current time (already at most k long); value cells
    keep the application label, time, and operator/operand slot.  It is
    finite, so a run under it is abstract: ``delta`` is not exact.
    """

    finite = True

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("k must be a natural number")
        self.k = k

    def tick_ap(self, label: int, time: Time) -> Time:
        return ((label,) + time)[:self.k]

    def bind_addr(self, var: str, label: int, time: Time) -> BindAddr:
        return BindAddr(var, self.tick_ap(label, time))

    def fnval_addr(self, label: int, time: Time) -> ValAddr:
        return ValAddr(label, time, FN_SLOT)

    def argval_addr(self, label: int, time: Time) -> ValAddr:
        return ValAddr(label, time, ARG_SLOT)

    def kont_addr(self, label: int, time: Time) -> KontAddr:
        return KontAddr(label, time)

    def __repr__(self):
        return f"KCfaPolicy(k={self.k})"


class ConcretePolicy:
    """Concrete allocation: every request returns the next unused natural.

    The counter belongs to one engine run; freshness (returned address not in
    the current store) holds because addresses enter stores only through this
    policy.  Time is irrelevant to fresh allocation, so tick is identity.
    It is the only policy that is not finite; only ``naive`` runs under it,
    with ``delta`` exact.
    """

    finite = False

    def __init__(self):
        self._next = 0

    def _fresh(self) -> ConcreteAddr:
        a = ConcreteAddr(self._next)
        self._next += 1
        return a

    def tick_ap(self, label: int, time: Time) -> Time:
        return time

    def bind_addr(self, var: str, label: int, time: Time) -> ConcreteAddr:
        return self._fresh()

    def fnval_addr(self, label: int, time: Time) -> ConcreteAddr:
        return self._fresh()

    def argval_addr(self, label: int, time: Time) -> ConcreteAddr:
        return self._fresh()

    def kont_addr(self, label: int, time: Time) -> ConcreteAddr:
        return self._fresh()

    def __repr__(self):
        return "ConcretePolicy()"


def kcfa_policy(k: int) -> KCfaPolicy:
    return KCfaPolicy(k)


def concrete_policy() -> ConcretePolicy:
    return ConcretePolicy()


class UnsupportedPolicyError(ValueError):
    """Raised when a rung past ``naive``, or preallocation, is asked for
    an unbounded address space."""


def require_abstract(mode, policy) -> None:
    """Reject a concrete run of a rung past ``naive`` before it steps.
    Those rungs widen their store, so they are abstract only: the policy
    must be finite.  Their runners keep a ``mode`` slot after the policy
    only because the benchmark's direct runs pass "abstract" there
    positionally."""
    if mode != "abstract" or not policy.finite:
        raise UnsupportedPolicyError(
            f"mode {mode!r} under {policy!r}: the rungs past naive are "
            "abstract only; a concrete run is "
            'Config(stage="naive", mode="concrete") or evaluate_concrete')


# ------------------------------------------------------------- primitive ops

def delta(op: str, v, exact: bool = False):
    """Value sets produced by a primitive on one argument value.

    Returns a frozenset of result values, or None to signal a type error
    (the caller records a stuck node).  Arithmetic collapses every integer
    to the abstract integer unless ``exact`` is set, as it is only for a
    concrete run of the naive machine; zero? stays exact on concrete
    integers and splits on the abstract one.
    """
    if op == "zero?":
        if type(v) is IntVal:
            return _SET_TT if v.z == 0 else _SET_FF
        if type(v) is AbstractInt:
            return _SET_TT_FF
        return None
    if op == "add1":
        if type(v) is IntVal:
            return frozenset((IntVal(v.z + 1),)) if exact else _SET_Z
        if type(v) is AbstractInt:
            return _SET_Z
        return None
    if op == "sub1":
        if type(v) is IntVal:
            return frozenset((IntVal(v.z - 1),)) if exact else _SET_Z
        if type(v) is AbstractInt:
            return _SET_Z
        return None
    raise ValueError(f"unknown primitive {op!r}")


_SET_TT = frozenset((TT,))
_SET_FF = frozenset((FF,))
_SET_TT_FF = frozenset((TT, FF))
_SET_Z = frozenset((ZINT,))


# ----------------------------------------------------- cross-stage utilities

def skeleton(obj, memo=None) -> str:
    """Canonical label-skeleton rendering: an expression renders as its
    label, so contexts from different engine stages can be compared as
    graph nodes.

    ``memo``, if a dict, keeps each rendering under the term rendered, so
    equal sub-terms that many contexts hold (an environment, a continuation,
    a closure) are rendered once, whether or not they are one object.  Keep
    one memo for one export or one comparison.

    A term renders by the entry for its type in ``_RENDER``, and every
    term prints as its skeleton."""
    if memo is not None:
        hit = memo.get(obj)
        if hit is not None:
            return hit
    s = _RENDER[type(obj)](obj, memo)
    if memo is not None:
        memo[obj] = s
    return s


# Expressions render as ``e<label>``, inline where a field always holds one.

def _render_expr(e, memo):
    return f"e{e.label}"


def _render_ev(c, memo):
    return (f"ev(e{c.expr.label},{skeleton(c.env, memo)},"
            f"{skeleton(c.kont, memo)},{fmt_time(c.time, memo)})")


def _render_co(c, memo):
    return f"co({skeleton(c.kont, memo)},{skeleton(c.val, memo)})"


def _render_ap(c, memo):
    return (f"ap({skeleton(c.fn, memo)},{skeleton(c.arg, memo)},"
            f"{skeleton(c.kont, memo)},l{c.label},{fmt_time(c.time, memo)})")


def _render_ar(k, memo):
    return (f"ar(e{k.expr.label},{skeleton(k.env, memo)},"
            f"{skeleton(k.kaddr, memo)},l{k.label},{fmt_time(k.time, memo)})")


def _render_fn(k, memo):
    return (f"fn({skeleton(k.fv, memo)},{skeleton(k.kaddr, memo)},"
            f"l{k.label},{fmt_time(k.time, memo)})")


def _render_if(k, memo):
    return (f"if(e{k.then.label},e{k.els.label},{skeleton(k.env, memo)},"
            f"{skeleton(k.kaddr, memo)},{fmt_time(k.time, memo)})")


def _render_closure(v, memo):
    return f"clos({v.var},e{v.body.label},{skeleton(v.env, memo)})"


def _render_delayed(v, memo):
    return f"~{skeleton(v.addr, memo)}"


def _render_env(env, memo):
    return "{" + ",".join([f"{x}:{skeleton(a, memo)}"
                           for x, a in sorted(env.items())]) + "}"


# Addresses.  A concrete address, like every leaf, renders in the table.

def _render_bind_addr(a, memo):
    return f"{a.var}@{fmt_time(a.ctx, memo)}"


def _render_kont_addr(a, memo):
    return f"k{a.label}@{fmt_time(a.time, memo)}"


def _render_val_addr(a, memo):
    slot = "f" if a.slot == FN_SLOT else "a"
    return f"{slot}{a.label}@{fmt_time(a.time, memo)}"


_RENDER = {
    EvC: _render_ev, CoC: _render_co, ApC: _render_ap,
    StuckC: lambda c, memo: f"stuck({c.reason},l{c.label})",
    ArK: _render_ar, FnK: _render_fn, IfK: _render_if,
    Halt: lambda k, memo: "halt",
    Closure: _render_closure, DelayedAddr: _render_delayed, Env: _render_env,
    IntVal: lambda v, memo: str(v.z),
    BoolVal: lambda v, memo: "#t" if v.b else "#f",
    PrimVal: lambda v, memo: v.name,
    AbstractInt: lambda v, memo: "Z",
    BindAddr: _render_bind_addr, KontAddr: _render_kont_addr,
    ValAddr: _render_val_addr, ConcreteAddr: lambda a, memo: f"@{a.n}",
    Var: _render_expr, Lit: _render_expr, Lam: _render_expr,
    App: _render_expr, If: _render_expr,
}

# Every term prints as its skeleton, so its text is written once, in the
# table above.
Term.__repr__ = skeleton
