"""Abstract compilation."""

import random

import pytest

from flowladder.domains import (
    AnalysisBugError,
    ApC,
    ArK,
    BindAddr,
    Closure,
    CoC,
    DelayedAddr,
    EMPTY_ENV,
    EMPTY_STORE,
    EvC,
    HALT,
    IfK,
    IntVal,
    KontAddr,
    kcfa_policy,
)
from flowladder.syntax import node_count, parse
from flowladder.compiled import (
    CompiledExpr,
    compile_expr,
    inject_compiled,
    step_compiled,
)
from flowladder.deltas import replay, run_logged
from flowladder.lazy import step_lazy

from tests.reference import explore_states, label_table, refine, stutter_check
from tests.support import abstract_covers, load_corpus, oracle_eval, random_program


P0 = kcfa_policy(0)


def test_compiled_tree_mirrors_source_labels():
    e = parse("((lambda (x) (if (zero? x) 1 x)) 0)")
    table = label_table(compile_expr(e, P0))
    assert set(table) == set(label_table(e))
    for lbl, ce in table.items():
        assert ce.label == lbl
        assert ce.source is label_table(e)[lbl] or ce.source == label_table(e)[lbl]


def test_equality_is_by_label():
    e = parse("((lambda (x) x) 5)")
    c1 = compile_expr(e, P0)
    c2 = compile_expr(e, P0)
    assert c1 == c2
    assert hash(c1) == hash(c2)
    assert c1 != c2.fn


def test_equality_goes_by_source_node():
    # two lambda bodies at the same label in different programs
    ids = [parse("(lambda (x) x)").body, parse("(lambda (x) 5)").body]
    compiled = [compile_expr(parse(s), P0).body
                for s in ("(lambda (x) x)", "(lambda (x) 5)")]
    for bodies in (ids, compiled):
        c1, c5 = (Closure("x", b, EMPTY_ENV) for b in bodies)
        assert bodies[0].label == bodies[1].label
        assert c1 != c5
        assert len({CoC(HALT, c1), CoC(HALT, c5)}) == 2


def test_literal_corridor():
    ce = compile_expr(parse("5"), P0)
    log = []
    ctx = ce.run(EMPTY_ENV, log, HALT, ())
    assert ctx == CoC(HALT, IntVal(5))
    assert log == []


def test_variable_corridor_emits_delayed_address():
    a = BindAddr("x", ())
    env = EMPTY_ENV.extend("x", a)
    ce = compile_expr(parse("x"), P0)
    log = []
    ctx = ce.run(env, log, HALT, ())
    assert ctx == CoC(HALT, DelayedAddr(a))
    assert log == []


def test_application_corridor_logs_exactly_the_kont_write():
    # compile(App(Var f, Var y)) invoked: one log entry, lands in co<ar...>
    e = parse("((lambda (f) (lambda (y) (f y))) 0)")
    app = e.fn.body.body
    af = BindAddr("f", ())
    ay = BindAddr("y", ())
    env = EMPTY_ENV.extend("f", af).extend("y", ay)
    ce = compile_expr(app, P0)
    log = []
    ctx = ce.run(env, log, HALT, ())
    assert len(log) == 1
    ka, konts = log[0]
    assert ka == KontAddr(app.label, ())
    assert konts == frozenset({HALT})
    assert isinstance(ctx, CoC)
    assert isinstance(ctx.kont, ArK)
    assert ctx.val == DelayedAddr(af)


def test_step_refuses_ev_contexts():
    e = parse("5")
    with pytest.raises(AnalysisBugError):
        step_compiled(EvC(e, EMPTY_ENV, HALT, ()), EMPTY_STORE, P0)


def test_no_ev_contexts_reachable(corpus):
    for name, src, e in corpus:
        run = run_logged(e, step_compiled, P0, inject=inject_compiled)
        assert not any(isinstance(c, EvC) for c in run.contexts), name
        assert run.status == "fixpoint", name


def test_oracle_coverage_and_determinism(corpus):
    for name, src, e in corpus:
        t1, t2 = [], []
        r1 = run_logged(e, step_compiled, P0, inject=inject_compiled, trace=t1)
        r2 = run_logged(e, step_compiled, P0, inject=inject_compiled, trace=t2)
        assert abstract_covers(oracle_eval(e), r1.values), name
        assert r1.contexts == r2.contexts, name
        assert t1[-1][2] == t2[-1][2], name
        assert r1.edges == r2.edges, name


def test_never_more_contexts_than_lazy(corpus):
    for name, src, e in corpus:
        cr = run_logged(e, step_compiled, P0, inject=inject_compiled)
        lz = run_logged(e, step_lazy, P0)
        assert len(cr.contexts) <= len(lz.contexts), name


def test_strictly_fewer_states_on_corridor_heavy_programs(corpus):
    table = {name: e for name, src, e in corpus}
    for name in ("23_fanout", "22_church_mult", "26_corridor"):
        cr = run_logged(table[name], step_compiled, P0, inject=inject_compiled)
        lz = run_logged(table[name], step_lazy, P0)
        assert len(cr.contexts) < len(lz.contexts), name


def test_unwidened_nonev_sets_match_lazy(corpus):
    # reachable non-ev states of the two machines coincide under the
    # expression swap, committing nothing (ev states excluded outright)
    for name, src, e in corpus:
        table = label_table(compile_expr(e, P0))
        gl = explore_states(e, step_lazy, P0)
        gc = explore_states(e, step_compiled, P0, inject=inject_compiled)
        lazy_nonev = {refine(st, table) for st in gl.states
                      if not isinstance(st[0], EvC)}
        assert lazy_nonev == set(gc.states), name


def test_stutter_check_passes_on_small_corpus(corpus):
    for name, src, e in corpus:
        if node_count(e) > 40:
            continue
        rep = stutter_check(e, P0)
        assert rep.ok, (name, rep.reason)


def test_state_budget_stops_both_explorations():
    # 22_church_mult closes at 281 lazy and 158 compiled states
    name, src, e = [c for c in load_corpus() if c[0] == "22_church_mult"][0]
    for stepper, kw in ((step_lazy, {}), (step_compiled, {"inject": inject_compiled})):
        g = explore_states(e, stepper, P0, max_states=40, **kw)
        assert g.status == "state-budget-exceeded", stepper
        assert 40 < len(g.states) < 158, stepper
    rep = stutter_check(e, P0, max_states=40)
    assert not rep.ok
    assert rep.reason == "state budget exceeded"


def test_identity_application_contracts_with_matching_endpoint():
    e = parse("((lambda (x) x) 5)")
    rep = stutter_check(e, P0)
    assert rep.ok
    assert rep.compiled_states < rep.lazy_states
    table = label_table(compile_expr(e, P0))
    gl = explore_states(e, step_lazy, P0)
    gc = explore_states(e, step_compiled, P0, inject=inject_compiled)
    lazy_halts = {
        refine((c, s), table) for (c, s) in gl.states
        if isinstance(c, CoC) and not isinstance(c.val, DelayedAddr)
        and type(c.kont).__name__ == "Halt"
    }
    compiled_halts = {
        st for st in gc.states
        if isinstance(st[0], CoC) and type(st[0].kont).__name__ == "Halt"
        and not isinstance(st[0].val, DelayedAddr)
    }
    assert lazy_halts == compiled_halts


def _harvest_ev_states(programs, limit_nodes=25):
    configs = []
    for name, src, e in programs:
        if node_count(e) > limit_nodes:
            continue
        gl = explore_states(e, step_lazy, P0)
        for (c, s) in gl.states:
            if isinstance(c, EvC):
                configs.append((e, c, s))
    return configs


def test_compile_commit_square(corpus):
    # invoking the compiled expression on sigma equals stepping the ev state
    # once and committing the successor, as (context, store) pairs
    checked = 0
    for e, c, store in _harvest_ev_states(corpus):
        table = label_table(compile_expr(e, P0))
        (c2, xi), = step_lazy(c, store, P0, "abstract")
        s2, _ = replay(xi, store)
        assert refine((c, store), table) == refine((c2, s2), table)
        checked += 1
    assert checked > 300
