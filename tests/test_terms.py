"""The Term base: equality and hashes written from a class's fields, and
one printed form per term."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import flowladder
from flowladder.domains import (
    ARG_SLOT,
    EMPTY_ENV,
    HALT,
    STUCK_APPLY,
    AbstractInt,
    ApC,
    ArK,
    BindAddr,
    BoolVal,
    Closure,
    CoC,
    ConcreteAddr,
    DelayedAddr,
    Env,
    EvC,
    FnK,
    Halt,
    IfK,
    IntVal,
    KontAddr,
    PrimVal,
    StuckC,
    ValAddr,
    skeleton,
)
from flowladder.engine import Config, run
from flowladder.syntax import Lit, Term, Var, parse
from tests.support import load_corpus

SRC = Path(flowladder.__file__).resolve().parent


def _subclasses(cls):
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub} | _subclasses(sub)
    return out


def _examples():
    """One term of every Term class, built from fresh fields on each call."""
    e = parse("((lambda (x) (if x 1 2)) #t)")
    lam, arg = e.fn, e.arg
    t = tuple([0])
    addr = BindAddr("x", t)
    env = Env({"x": addr})
    kaddr = KontAddr(0, t)
    return [
        Var("x", 3), Lit(True, 6), lam, e, lam.body,
        addr, kaddr, ValAddr(0, t, ARG_SLOT), ConcreteAddr(3),
        IntVal(3), BoolVal(True), PrimVal("add1"), AbstractInt(),
        Closure("x", lam.body, env), DelayedAddr(addr), env, Halt(),
        ArK(arg, env, kaddr, 0, t), FnK(addr, kaddr, 0, t),
        IfK(lam.body.then, lam.body.els, env, kaddr, t),
        EvC(e, env, HALT, ()), CoC(HALT, IntVal(3)),
        ApC(Closure("x", lam.body, env), addr, kaddr, 0, t),
        StuckC(STUCK_APPLY, 0),
    ]


def test_every_term_class_equal_from_equal_fields():
    a, b = _examples(), _examples()
    assert {type(x) for x in a} == _subclasses(Term)
    for x, y in zip(a, b):
        assert x is not y
        assert x == y and hash(x) == hash(y), type(x).__name__


def _terms_under(roots):
    """Every term reachable from ``roots`` through term fields, tuples
    and environments."""
    seen, work = {}, list(roots)
    while work:
        x = work.pop()
        if isinstance(x, tuple):
            work.extend(x)
        elif isinstance(x, Term) and id(x) not in seen:
            seen[id(x)] = x
            if isinstance(x, Env):
                work.extend(a for _, a in x.items())
            else:
                work.extend(getattr(x, f) for f in type(x).__slots__)
    return list(seen.values())


def test_hashes_are_below_2_to_the_30():
    # below 2 ** 30 CPython holds an int in one digit, 28 bytes where a
    # full-width hash takes 36, and a run keeps one per term
    terms = _examples()
    env = EMPTY_ENV
    for i in range(100):
        env = env.extend(f"v{i % 7}", BindAddr(f"v{i}", (i,)))
        terms.append(env)
    for _, _, e in load_corpus():
        r = run(Config(stage="imperative-prealloc", k=1), e)
        terms += _terms_under(r.nodes)
    assert Env in {type(t) for t in terms}
    for t in terms:
        assert 0 <= hash(t) < 2 ** 30, t


def test_terms_of_different_types_differ():
    pairs = [
        (IntVal(1), BoolVal(True)),
        (IntVal(3), ConcreteAddr(3)),
        (Lit(True, 0), Lit(1, 0)),
        (KontAddr(3, ()), ValAddr(3, (), 0)),
    ]
    for x, y in pairs:
        assert x != y and y != x, (x, y)
        assert len({x, y}) == 2, (x, y)


_PRINT_HASHES = """
from flowladder.domains import EMPTY_ENV, ArK, BindAddr, Closure, EvC, KontAddr
from flowladder.syntax import parse

e = parse("((lambda (x) x) (lambda (y) y))")
env = EMPTY_ENV.extend("x", BindAddr("x", (0,)))
kont = ArK(e.arg, env, KontAddr(0, ()), 0, ())
print(hash(EvC(e.fn.body, env, kont, (0,))), hash(Closure("y", e.arg.body, env)),
      hash(e.fn))
"""


def test_hashes_repeat_under_one_seed():
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC.parent))
    outs = [subprocess.run([sys.executable, "-c", _PRINT_HASHES], env=env,
                           capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    assert outs[0] and outs[0] == outs[1]


def _classes_writing(*methods) -> set[str]:
    """The package's classes whose body defines or assigns one of
    ``methods``."""
    writers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                elif isinstance(item, ast.Assign):
                    names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                else:
                    continue
                if set(methods) & set(names):
                    writers.add(node.name)
    return writers


def test_only_the_store_and_lit_write_equality():
    assert _classes_writing("__eq__", "__hash__") == {"Store", "Lit"}


def test_every_term_prints_as_its_skeleton():
    shown = set()
    for t in _examples():
        assert repr(t) == skeleton(t), type(t).__name__
        shown.add(type(t))
    assert shown == _subclasses(Term)


def test_only_the_store_and_the_records_write_their_printed_form():
    assert _classes_writing("__repr__") == {
        "Store", "KCfaPolicy", "ConcretePolicy", "ConcreteOutcome"}
