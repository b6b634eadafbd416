"""Lazy non-determinism."""

import pytest

from flowladder.domains import (
    AnalysisBugError,
    BindAddr,
    BoolVal,
    CoC,
    Closure,
    DelayedAddr,
    EMPTY_ENV,
    EMPTY_STORE,
    EvC,
    HALT,
    IfK,
    IntVal,
    KontAddr,
    StuckC,
    STUCK_IF,
    kcfa_policy,
)
from flowladder.syntax import node_count, parse
from flowladder.deltas import run_logged, step_with_deltas
from flowladder.lazy import force, step_lazy
from flowladder.naive import explore, step_state
from flowladder.widening import analyze_baseline

from tests.reference import store_has_delayed
from tests.support import ctx_leq, store_leq


P0 = kcfa_policy(0)
A = BindAddr("g", ())


def test_force_plain_value():
    assert force(EMPTY_STORE, IntVal(5)) == frozenset({IntVal(5)})


def test_force_closure_is_singleton():
    clo = Closure("x", parse("(lambda (x) x)").body, EMPTY_ENV)
    assert force(EMPTY_STORE, clo) == frozenset({clo})


def test_force_delayed_dereferences():
    s = EMPTY_STORE.join(A, (IntVal(1), IntVal(2)))
    assert force(s, DelayedAddr(A)) == frozenset({IntVal(1), IntVal(2)})


def test_force_dangling_is_engine_bug():
    with pytest.raises(AnalysisBugError):
        force(EMPTY_STORE, DelayedAddr(A))


def test_variable_reference_yields_one_successor():
    a = BindAddr("x", ())
    store = EMPTY_STORE.join(a, (IntVal(1), IntVal(2), IntVal(3)))
    env = EMPTY_ENV.extend("x", a)
    c = EvC(parse("x"), env, HALT, ())
    succs = step_lazy(c, store, P0)
    assert succs == [(CoC(HALT, DelayedAddr(a)), [])]


def test_if_forces_and_branches_on_present_booleans():
    prog = parse("(if #t 1 2)")
    guard_if = prog
    ka = KontAddr(0, ())
    store = EMPTY_STORE.join(A, (BoolVal(True), BoolVal(False))).join(ka, (HALT,))
    c = CoC(IfK(guard_if.then, guard_if.els, EMPTY_ENV, ka, ()), DelayedAddr(A))
    succs = step_lazy(c, store, P0)
    exprs = sorted(s.expr.label for s, _ in succs)
    assert exprs == sorted((guard_if.then.label, guard_if.els.label))


def test_if_mixed_guard_branches_without_stuck():
    prog = parse("(if #t 1 2)")
    ka = KontAddr(0, ())
    store = EMPTY_STORE.join(A, (BoolVal(True), IntVal(7))).join(ka, (HALT,))
    c = CoC(IfK(prog.then, prog.els, EMPTY_ENV, ka, ()), DelayedAddr(A))
    succs = step_lazy(c, store, P0)
    assert [s.expr.label for s, _ in succs] == [prog.then.label]
    assert not any(isinstance(s, StuckC) for s, _ in succs)


def test_if_bool_free_guard_is_stuck():
    prog = parse("(if #t 1 2)")
    ka = KontAddr(0, ())
    store = EMPTY_STORE.join(A, (IntVal(7),)).join(ka, (HALT,))
    c = CoC(IfK(prog.then, prog.els, EMPTY_ENV, ka, ()), DelayedAddr(A))
    succs = step_lazy(c, store, P0)
    assert succs == [(StuckC(STUCK_IF, prog.then.label), [])]


def test_store_never_holds_delayed_values(corpus):
    for name, src, e in corpus:
        trace = []
        run_logged(e, step_lazy, P0, trace=trace)
        for _, _, store in trace:
            assert not store_has_delayed(store), name


def test_never_more_contexts_than_deltas(corpus):
    for name, src, e in corpus:
        lz = run_logged(e, step_lazy, P0)
        dr = run_logged(e, step_with_deltas, P0)
        assert len(lz.contexts) <= len(dr.contexts), name


def test_diamond_collapse_on_fanout(corpus):
    table = {name: e for name, src, e in corpus}
    e = table["23_fanout"]
    lz = run_logged(e, step_lazy, P0)
    br = analyze_baseline(e, P0)
    assert len(lz.contexts) < len(br.contexts)


def test_final_values_are_forced():
    run = run_logged(parse("((lambda (x) x) 5)"), step_lazy, P0)
    assert run.values == frozenset({IntVal(5)})
    assert not any(isinstance(v, DelayedAddr) for v in run.values)


def test_simulates_every_naive_step(corpus):
    # one-step soundness at the final lazy store: a naive step from a state
    # some lazy context refines is matched by a lazy step from that context
    for name, src, e in corpus:
        if node_count(e) > 25:
            continue
        naive = explore(e, P0)
        lz = run_logged(e, step_lazy, P0)
        final = lz.store
        lazy_succs = {c: step_lazy(c, final, P0) for c in lz.contexts}
        for (c, store) in naive.contexts:
            if not store_leq(store, final):
                continue
            hosts = [ch for ch in lz.contexts if ctx_leq(c, ch, final)]
            for (c2, store2) in step_state((c, store), P0):
                if not store_leq(store2, final):
                    continue
                for ch in hosts:
                    assert any(
                        ctx_leq(c2, ch2, final) for ch2, _ in lazy_succs[ch]
                    ), (name, c, c2, ch)


def test_oracle_coverage(corpus):
    from tests.support import abstract_covers, oracle_eval
    for name, src, e in corpus:
        run = run_logged(e, step_lazy, P0)
        assert abstract_covers(oracle_eval(e), run.values), name
