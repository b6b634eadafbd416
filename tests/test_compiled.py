"""Abstract compilation."""

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
from flowladder.engine import Config, run
from flowladder.syntax import node_count, parse
from flowladder.compiled import corridor, inject_compiled, step_compiled
from flowladder.deltas import replay, run_logged
from flowladder.lazy import step_lazy

from tests.reference import explore_states, label_table, refine, stutter_check
from tests.support import abstract_covers, load_corpus, oracle_eval


P0 = kcfa_policy(0)


def test_equality_goes_by_source_node():
    # two lambda bodies at the same label in different programs
    bodies = [parse("(lambda (x) x)").body, parse("(lambda (x) 5)").body]
    c1, c5 = (Closure("x", b, EMPTY_ENV) for b in bodies)
    assert bodies[0].label == bodies[1].label
    assert c1 != c5
    assert len({CoC(HALT, c1), CoC(HALT, c5)}) == 2


def test_literal_corridor():
    log = []
    ctx = corridor(parse("5"), EMPTY_ENV, log, HALT, (), P0)
    assert ctx == CoC(HALT, IntVal(5))
    assert log == []


def test_variable_corridor_emits_delayed_address():
    a = BindAddr("x", ())
    env = EMPTY_ENV.extend("x", a)
    log = []
    ctx = corridor(parse("x"), env, log, HALT, (), P0)
    assert ctx == CoC(HALT, DelayedAddr(a))
    assert log == []


def test_application_corridor_logs_exactly_the_kont_write():
    # the corridor of App(Var f, Var y): one log entry, lands in co<ar...>
    e = parse("((lambda (f) (lambda (y) (f y))) 0)")
    app = e.fn.body.body
    af = BindAddr("f", ())
    ay = BindAddr("y", ())
    env = EMPTY_ENV.extend("f", af).extend("y", ay)
    log = []
    ctx = corridor(app, env, log, HALT, (), P0)
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


def _held_expressions(term):
    """The expressions a context or a storeable of the compiled machine
    holds: continuation operands and branches, and closure bodies."""
    if isinstance(term, CoC):
        return _held_expressions(term.kont) + _held_expressions(term.val)
    if isinstance(term, ApC):
        return _held_expressions(term.fn) + _held_expressions(term.kont)
    if isinstance(term, ArK):
        return [term.expr]
    if isinstance(term, IfK):
        return [term.then, term.els]
    if isinstance(term, Closure):
        return [term.body]
    return []


@pytest.mark.parametrize("stage",
                         ["compiled", "imperative", "imperative-prealloc"])
def test_machine_holds_the_parsed_nodes(corpus, stage):
    # one program tree: every expression in a context or a store value is
    # the parsed node at its label, not a copy of it
    held = 0
    for k in (0, 1):
        for name, src, e in corpus:
            table = label_table(e)
            r = run(Config(stage=stage, k=k), e)
            terms = list(r.contexts)
            for _, vs in r.store.items():
                terms.extend(vs)
            for t in terms:
                for x in _held_expressions(t):
                    assert table[x.label] is x, (name, k, t)
                    held += 1
    assert held > 1000


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
    # reachable non-ev states of the two machines coincide, committing
    # nothing (ev states excluded outright)
    for name, src, e in corpus:
        gl = explore_states(e, step_lazy, P0)
        gc = explore_states(e, step_compiled, P0, inject=inject_compiled)
        lazy_nonev = {st for st in gl.states if not isinstance(st[0], EvC)}
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
    gl = explore_states(e, step_lazy, P0)
    gc = explore_states(e, step_compiled, P0, inject=inject_compiled)
    lazy_halts = {
        refine((c, s), P0) for (c, s) in gl.states
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
    # running the expression's corridor on sigma equals stepping the ev
    # state once and committing the successor, as (context, store) pairs
    checked = 0
    for _, c, store in _harvest_ev_states(corpus):
        (c2, xi), = step_lazy(c, store, P0)
        s2, _ = replay(xi, store)
        assert refine((c, store), P0) == refine((c2, s2), P0)
        checked += 1
    assert checked > 300
