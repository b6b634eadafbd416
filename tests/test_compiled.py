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
from flowladder.syntax import label_table, node_count, parse
from flowladder.compiled import (
    CompiledExpr,
    compile_expr,
    compiled_nodes,
    inject_compiled,
    step_compiled,
    store_to_compiled,
    stutter_check,
    to_compiled,
)
from flowladder.deltas import explore_states, replay, run_logged
from flowladder.lazy import step_lazy

from tests.support import abstract_covers, load_corpus, oracle_eval, random_program


P0 = kcfa_policy(0)


def test_compiled_tree_mirrors_source_labels():
    e = parse("((lambda (x) (if (zero? x) 1 x)) 0)")
    table = compiled_nodes(compile_expr(e, P0))
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
    ctx = ce.run(EMPTY_STORE, EMPTY_ENV, log, HALT, ())
    assert ctx == CoC(HALT, IntVal(5))
    assert log == []


def test_variable_corridor_emits_delayed_address():
    a = BindAddr("x", ())
    env = EMPTY_ENV.extend("x", a)
    ce = compile_expr(parse("x"), P0)
    log = []
    ctx = ce.run(EMPTY_STORE.join(a, (IntVal(1),)), env, log, HALT, ())
    assert ctx == CoC(HALT, DelayedAddr(a))
    assert log == []


def test_application_corridor_logs_exactly_the_kont_write():
    # compile(App(Var f, Var y)) invoked: one log entry, lands in co<ar...>
    e = parse("((lambda (f) (lambda (y) (f y))) 0)")
    app = e.fn.body.body
    af = BindAddr("f", ())
    ay = BindAddr("y", ())
    env = EMPTY_ENV.extend("f", af).extend("y", ay)
    store = EMPTY_STORE.join(af, (IntVal(0),)).join(ay, (IntVal(1),))
    ce = compile_expr(app, P0)
    log = []
    ctx = ce.run(store, env, log, HALT, ())
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
        r1 = run_logged(e, step_compiled, P0, inject=inject_compiled)
        r2 = run_logged(e, step_compiled, P0, inject=inject_compiled)
        assert abstract_covers(oracle_eval(e), r1.values), name
        assert r1.contexts == r2.contexts, name
        assert r1.chain == r2.chain, name
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
        table = compiled_nodes(compile_expr(e, P0))
        gl = explore_states(e, step_lazy, P0)
        gc = explore_states(e, step_compiled, P0, inject=inject_compiled)
        lazy_nonev = {
            (to_compiled(c, table), store_to_compiled(s, table))
            for (c, s) in gl.states if not isinstance(c, EvC)
        }
        assert lazy_nonev == set(gc.states), name


def test_stutter_check_passes_on_small_corpus(corpus):
    for name, src, e in corpus:
        if node_count(e) > 40:
            continue
        rep = stutter_check(e, P0)
        assert rep.ok, (name, rep.reason)


def test_identity_application_contracts_with_matching_endpoint():
    e = parse("((lambda (x) x) 5)")
    rep = stutter_check(e, P0)
    assert rep.ok
    assert rep.compiled_states < rep.lazy_states
    table = compiled_nodes(compile_expr(e, P0))
    gl = explore_states(e, step_lazy, P0)
    gc = explore_states(e, step_compiled, P0, inject=inject_compiled)
    lazy_halts = {
        (to_compiled(c, table), store_to_compiled(s, table))
        for (c, s) in gl.states
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
        table = compiled_nodes(compile_expr(e, P0))
        cstore = store_to_compiled(store, table)
        log_a = []
        ctx_a = table[c.expr.label].run(
            cstore, c.env, log_a, to_compiled(c.kont, table), c.time)
        state_a = (ctx_a, replay(log_a, cstore)[0])

        (c2, xi), = step_lazy(c, store, P0, "abstract")
        s2, _ = replay(xi, store)
        if isinstance(c2, EvC):
            cs2 = store_to_compiled(s2, table)
            log_b = []
            ctx_b = table[c2.expr.label].run(
                cs2, c2.env, log_b, to_compiled(c2.kont, table), c2.time)
            state_b = (ctx_b, replay(log_b, cs2)[0])
        else:
            state_b = (to_compiled(c2, table), store_to_compiled(s2, table))
        assert state_a == state_b
        checked += 1
    assert checked > 300
