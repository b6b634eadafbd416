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
from flowladder.syntax import Lit, Term, Var, parse

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


def test_only_the_term_base_and_three_exceptions_write_equality():
    assert _classes_writing("__eq__", "__hash__") == {
        "Term", "Store", "Lit"}


# the compound terms and addresses, which print as their label skeleton
_PRINTED_BY_SKELETON = {BindAddr, KontAddr, ValAddr, DelayedAddr, Env,
                        ArK, FnK, IfK, EvC, CoC, ApC}


def test_compound_terms_and_addresses_print_as_their_skeleton():
    shown = set()
    for t in _examples():
        if type(t) in _PRINTED_BY_SKELETON:
            assert repr(t) == skeleton(t), type(t).__name__
            shown.add(type(t))
    assert shown == _PRINTED_BY_SKELETON


def test_only_leaves_and_records_write_their_printed_form():
    leaves = {"IntVal", "BoolVal", "PrimVal", "AbstractInt", "Halt",
              "StuckC", "ConcreteAddr"}
    syntax = {"Var", "Lit", "Lam", "App", "If"}
    records = {"Closure", "Store", "KCfaPolicy", "ConcretePolicy",
               "ConcreteOutcome"}
    assert _classes_writing("__repr__") == leaves | syntax | records
