"""Shared test machinery.

The big-step evaluator here is the independent oracle: a direct
environment-passing interpreter with no store, no addresses, no
continuations.  It was written against the language definition alone and is
frozen; every machine engine is measured against it, never the other way
around.
"""

from __future__ import annotations

import random
from pathlib import Path

from flowladder.domains import AbstractInt, BoolVal, Closure, IntVal, PrimVal
from flowladder.syntax import App, Expr, If, Lam, Lit, Var, parse

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


# ------------------------------------------------------------ big-step oracle

class OracleClosure:
    __slots__ = ("var", "body", "env")

    def __init__(self, var, body, env):
        self.var = var
        self.body = body
        self.env = env

    def __repr__(self):
        return f"<oracle-closure {self.var}>"


class OracleStuck(Exception):
    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class OracleFuelOut(Exception):
    pass


def oracle_eval(e: Expr, fuel: int = 200_000):
    """Evaluate a closed program directly.  Returns an int, a bool, a
    primitive name string, or an OracleClosure.  Raises OracleStuck on a type
    error and OracleFuelOut when the fuel runs dry."""
    counter = [fuel]

    def ev(node, env):
        if counter[0] <= 0:
            raise OracleFuelOut()
        counter[0] -= 1
        if isinstance(node, Var):
            try:
                return env[node.name]
            except KeyError:
                raise OracleStuck("unbound-variable") from None
        if isinstance(node, Lit):
            return node.value
        if isinstance(node, Lam):
            return OracleClosure(node.var, node.body, env)
        if isinstance(node, App):
            f = ev(node.fn, env)
            a = ev(node.arg, env)
            return apply(f, a)
        if isinstance(node, If):
            g = ev(node.guard, env)
            if g is True:
                return ev(node.then, env)
            if g is False:
                return ev(node.els, env)
            raise OracleStuck("if-non-boolean")
        raise TypeError(node)

    def apply(f, a):
        if isinstance(f, OracleClosure):
            env2 = dict(f.env)
            env2[f.var] = a
            return ev(f.body, env2)
        if f == "add1":
            if type(a) is int:
                return a + 1
            raise OracleStuck("primitive-type-error")
        if f == "sub1":
            if type(a) is int:
                return a - 1
            raise OracleStuck("primitive-type-error")
        if f == "zero?":
            if type(a) is int:
                return a == 0
            raise OracleStuck("primitive-type-error")
        raise OracleStuck("apply-non-function")

    return ev(e, {})


def oracle_matches_machine(ov, mv) -> bool:
    """Does a machine value denote the same thing as an oracle value?
    Closures compare by binder and body label (addresses are erased)."""
    if type(ov) is bool:
        return type(mv) is BoolVal and mv.b is ov
    if type(ov) is int:
        return type(mv) is IntVal and mv.z == ov
    if type(ov) is str:
        return type(mv) is PrimVal and mv.name == ov
    if isinstance(ov, OracleClosure):
        return (
            type(mv) is Closure
            and mv.var == ov.var
            and mv.body.label == ov.body.label
        )
    return False


def abstract_covers(ov, machine_values) -> bool:
    """Is the oracle's value abstracted by some member of a machine value
    set?  Integers may be covered by the abstract integer."""
    for mv in machine_values:
        if oracle_matches_machine(ov, mv):
            return True
        if type(ov) is int and type(mv) is AbstractInt:
            return True
    return False


# ------------------------------------------------------------------- corpus

def load_corpus() -> list[tuple[str, str, Expr]]:
    """All shipped corpus programs as (name, source, parsed) triples."""
    out = []
    for path in sorted(CORPUS_DIR.glob("*.scm")):
        src = path.read_text()
        out.append((path.stem, src, parse(src)))
    if not out:
        raise AssertionError(f"corpus missing at {CORPUS_DIR}")
    return out


def load_bench(name: str) -> Expr:
    return parse((BENCH_DIR / name).read_text())


# ------------------------------------------------- random program generation

_VARPOOL = ("a", "b", "c", "d", "g", "h", "m", "p", "q", "r", "s", "w", "y", "z")


def random_source(rng: random.Random, budget: int = 18, scope: tuple = ()) -> str:
    """A random closed program as source text.  Budget roughly bounds the
    node count.  Not guaranteed to terminate concretely; abstract engines do
    not care."""
    if budget <= 1:
        kinds = []
        if scope:
            kinds.extend(["var"] * 4)
        kinds.extend(["int", "bool"])
        kind = rng.choice(kinds)
        if kind == "var":
            return rng.choice(scope)
        if kind == "int":
            return str(rng.randrange(-2, 4))
        return rng.choice(("#t", "#f"))
    kind = rng.choice(("lam", "app", "app", "if", "prim", "leaf", "leaf"))
    if kind == "leaf":
        return random_source(rng, 1, scope)
    if kind == "lam":
        v = rng.choice(_VARPOOL)
        body = random_source(rng, budget - 2, scope + (v,))
        return f"(lambda ({v}) {body})"
    if kind == "app":
        lhs = budget // 2
        f = random_source(rng, lhs, scope)
        a = random_source(rng, budget - 1 - lhs, scope)
        return f"({f} {a})"
    if kind == "if":
        third = (budget - 1) // 3
        g = random_source(rng, third, scope)
        t = random_source(rng, third, scope)
        e = random_source(rng, budget - 1 - 2 * third, scope)
        return f"(if {g} {t} {e})"
    op = rng.choice(("add1", "sub1", "zero?"))
    arg = random_source(rng, budget - 2, scope)
    return f"({op} {arg})"


def random_program(rng: random.Random, budget: int = 18) -> Expr:
    return parse(random_source(rng, budget))


# ------------------------------------------- machine-refinement comparison

def value_leq(v, w, store):
    """v refines w at the given store.  w may be a delayed address."""
    from flowladder.domains import DelayedAddr
    if isinstance(w, DelayedAddr):
        vs = store.get(w.addr)
        return vs is not None and v in vs
    return v == w


def kont_leq(k, k2, store):
    from flowladder.domains import ArK, FnK, Halt, IfK
    if type(k) is not type(k2):
        return False
    if isinstance(k, Halt):
        return True
    if isinstance(k, ArK):
        return k == k2
    if isinstance(k, FnK):
        if (k.kaddr, k.label, k.time) != (k2.kaddr, k2.label, k2.time):
            return False
        # value-carrying frame refines an address-carrying one
        vs = store.get(k2.fv)
        if vs is not None and k.fv in vs:
            return True
        return k.fv == k2.fv
    if isinstance(k, IfK):
        return k == k2
    return False


def ctx_leq(c, c2, store):
    """A value-carrying context refines an address-carrying one when every
    value slot is a member of the store cell the address names."""
    from flowladder.domains import ApC, CoC, EvC, StuckC
    if type(c) is not type(c2):
        return False
    if isinstance(c, EvC):
        return (c.expr, c.env, c.time) == (c2.expr, c2.env, c2.time) and \
            kont_leq(c.kont, c2.kont, store)
    if isinstance(c, CoC):
        return kont_leq(c.kont, c2.kont, store) and value_leq(c.val, c2.val, store)
    if isinstance(c, ApC):
        if (c.fn, c.label, c.time) != (c2.fn, c2.label, c2.time):
            return False
        if not kont_leq(c.kont, c2.kont, store):
            return False
        vs = store.get(c2.arg)
        if vs is not None and c.arg in vs:
            return True
        return c.arg == c2.arg
    if isinstance(c, StuckC):
        return c == c2
    return False


def store_leq(a, b):
    """Every cell of a is included in the same cell of b, comparing stored
    continuations up to the value/address refinement against b itself."""
    for addr, vals in a.items():
        target = b.get(addr)
        if target is None:
            return False
        for v in vals:
            if v in target:
                continue
            if not any(kont_leq(v, w, b) for w in target):
                return False
    return True
