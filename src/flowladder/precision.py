"""Singleton-variable probe: which binders could be inlined, per stage.

A binder is a singleton when every store cell carrying its name holds
exactly one value and that value is inlinable: a program constant (an
integer or boolean literal, or a primitive op) or a closed function.
The abstract integer is excluded since it stands for many concrete
values.  Binding addresses do not record which lambda wrote them, so
binders sharing a variable name share one verdict; the rule is uniform
across stages, which is what the cross-stage comparison needs.
"""

from __future__ import annotations

import json

from .domains import (
    BindAddr,
    BoolVal,
    Closure,
    IntVal,
    PrimVal,
)
from .engine import STAGES, Config, run
from .syntax import Expr, Lam, children, free_vars

# stages whose result carries one widened store; the unwidened explorer
# has a store per state and no single fixpoint store to probe
STORE_STAGES = STAGES[1:]


def binders(e: Expr) -> tuple:
    """Every lambda's (variable, label), in program order."""
    out = []

    def walk(n):
        if isinstance(n, Lam):
            out.append((n.var, n.label))
        for c in children(n):
            walk(c)

    walk(e)
    return tuple(out)


def is_inlinable(v) -> bool:
    if isinstance(v, (IntVal, BoolVal, PrimVal)):
        return True
    if isinstance(v, Closure):
        return free_vars(v.body) <= frozenset((v.var,))
    return False


def singleton_vars(r) -> frozenset:
    """Set of (variable, label) pairs naming the singleton binders of
    ``r.program`` under ``r``'s final store.

    A binder that was never applied has no bound cell and is not
    reported: there is nothing to inline.
    """
    if r.store is None:
        raise ValueError(f"stage {r.stage!r} has no widened store to probe")
    cells = {}
    for a, vs in r.store.items():
        if isinstance(a, BindAddr):
            cells.setdefault(a.var, []).append(vs)
    out = set()
    for var, label in binders(r.program):
        sets = cells.get(var)
        if not sets:
            continue
        if all(len(vs) == 1 and is_inlinable(next(iter(vs))) for vs in sets):
            out.add((var, label))
    return frozenset(out)


def _singleton_sets(e, stages, k):
    if not stages:
        raise ValueError("need at least one stage")
    return [singleton_vars(run(Config(stage=s, k=k), e)) for s in stages]


def _disagreements(sets):
    union = frozenset().union(*sets)
    common = sets[0]
    for s in sets[1:]:
        common &= s
    return tuple(sorted(union - common))


def precision_equal(e: Expr, stages=STORE_STAGES, k: int = 0):
    """Run every stage on e and compare their singleton sets.

    Returns (equal, disagreements) where disagreements is the sorted
    tuple of (variable, label) pairs that some stages report and others
    do not.  A single-stage list is trivially equal.
    """
    disagreements = _disagreements(_singleton_sets(e, stages, k))
    return (not disagreements, disagreements)


def precision_report(e: Expr, stages=STORE_STAGES, k: int = 0) -> str:
    """JSON report of the singleton set per stage plus the comparison."""
    sets = _singleton_sets(e, stages, k)
    disagreements = _disagreements(sets)
    return json.dumps(
        {
            "k": k,
            "stages": {
                s: [[var, label] for var, label in sorted(got)]
                for s, got in zip(stages, sets)
            },
            "equal": not disagreements,
            "disagreements": [[var, label] for var, label in disagreements],
        },
        sort_keys=True,
        indent=1,
    )
