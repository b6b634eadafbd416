"""The unwidened machine: concrete runs against the big-step oracle, abstract
exploration of the raw state graph."""

import random

import pytest

from flowladder.domains import (
    ApC,
    ArK,
    BindAddr,
    Closure,
    CoC,
    EvC,
    FnK,
    Halt,
    IntVal,
    StuckC,
    STUCK_APPLY,
    STUCK_IF,
    STUCK_PRIM,
    STUCK_UNBOUND,
    ZINT,
    concrete_policy,
    kcfa_policy,
)
from flowladder.naive import evaluate_concrete, explore, inject, step_state
from flowladder.syntax import parse, unparse
from tests.support import (
    OracleFuelOut,
    OracleStuck,
    abstract_covers,
    oracle_eval,
    oracle_matches_machine,
    random_program,
)


def test_machine_trace_identity_application():
    # one full deterministic trace, shape by shape
    e = parse("((lambda (x) x) 5)")
    policy = concrete_policy()
    state = inject(e)
    trace = [state]
    while True:
        succs = step_state(state, policy)
        if not succs:
            break
        assert len(succs) == 1
        state = succs[0]
        trace.append(state)

    kinds = [type(c).__name__ for c, _ in trace]
    assert kinds == ["EvC", "EvC", "CoC", "EvC", "CoC", "ApC", "EvC", "CoC"]

    # the operator position evaluates before the operand
    assert trace[1][0].expr is e.fn
    assert isinstance(trace[2][0].val, Closure)
    assert trace[3][0].expr is e.arg
    assert isinstance(trace[4][0].kont, FnK)

    ap = trace[5][0]
    assert isinstance(ap, ApC) and ap.label == 0
    assert isinstance(ap.fn, Closure) and ap.arg == IntVal(5)
    assert isinstance(ap.kont, Halt)

    body = trace[6][0]
    assert isinstance(body, EvC) and body.expr is e.fn.body
    baddr = body.env.lookup("x")
    assert trace[6][1].deref(baddr) == frozenset({IntVal(5)})

    final = trace[7][0]
    assert isinstance(final, CoC) and isinstance(final.kont, Halt)
    assert final.val == IntVal(5)


def test_application_pushes_continuation_into_store():
    e = parse("(add1 1)")
    policy = concrete_policy()
    c0, s0 = inject(e)
    (c1, s1), = step_state((c0, s0), policy)
    assert isinstance(c1, EvC) and isinstance(c1.kont, ArK)
    ka = c1.kont.kaddr
    assert s1.deref(ka) == frozenset({c0.kont})
    assert len(s0) == 0  # the injected store is untouched


def test_concrete_matches_oracle_on_corpus(corpus):
    for name, _, e in corpus:
        ov = oracle_eval(e)
        out = evaluate_concrete(e)
        assert out.kind == "value", name
        assert oracle_matches_machine(ov, out.value), (name, ov, out.value)


def test_concrete_matches_oracle_on_random_programs():
    # random closed programs: values, stuckness (with matching reason), and
    # divergence must all agree with the oracle
    rng = random.Random(1234)
    for _ in range(400):
        e = random_program(rng, budget=rng.randrange(2, 24))
        out = evaluate_concrete(e, budget=400_000)
        if out.kind == "value":
            # the machine finished, so the oracle must too
            ov = oracle_eval(e, fuel=2_000_000)
            assert oracle_matches_machine(ov, out.value), unparse(e)
        elif out.kind == "stuck":
            with pytest.raises(OracleStuck) as ei:
                oracle_eval(e, fuel=2_000_000)
            assert ei.value.reason == out.reason, unparse(e)
        else:
            # >400k machine steps means well over 50k evaluation events
            with pytest.raises(OracleFuelOut):
                oracle_eval(e, fuel=50_000)


def test_concrete_is_deterministic():
    e = parse("((lambda (f) (f (f 2))) (lambda (x) (add1 x)))")
    a = evaluate_concrete(e)
    b = evaluate_concrete(e)
    assert a.kind == b.kind == "value"
    assert a.value == b.value and a.steps == b.steps


@pytest.mark.parametrize(
    "src,reason",
    [
        ("(add1 #t)", STUCK_PRIM),
        ("(zero? (lambda (x) x))", STUCK_PRIM),
        ("(5 1)", STUCK_APPLY),
        ("(#t 1)", STUCK_APPLY),
        ("(if 0 1 2)", STUCK_IF),
        ("(if (lambda (x) x) 1 2)", STUCK_IF),
        ("x", STUCK_UNBOUND),
        ("(add1 y)", STUCK_UNBOUND),
    ],
)
def test_concrete_stuck_reasons(src, reason):
    out = evaluate_concrete(parse(src))
    assert out.kind == "stuck" and out.reason == reason


def test_omega_exhausts_budget():
    omega = parse("((lambda (x) (x x)) (lambda (x) (x x)))")
    out = evaluate_concrete(omega, budget=5_000)
    assert out.kind == "nontermination" and out.steps == 5_000


def test_abstract_exploration_of_omega_is_finite():
    omega = parse("((lambda (x) (x x)) (lambda (x) (x x)))")
    for k in (0, 1):
        run = explore(omega, kcfa_policy(k))
        assert run.status == "fixpoint"
        assert run.values == frozenset()
        assert len(run.contexts) > 3


def test_abstract_exploration_covers_concrete(small_corpus):
    # soundness of the raw abstract graph on programs small enough to afford
    # per-state stores
    for name, _, e in small_corpus:
        ov = oracle_eval(e)
        run = explore(e, kcfa_policy(0))
        assert run.status == "fixpoint", name
        assert abstract_covers(ov, run.values), name


def test_monovariant_merge_pollutes_results():
    # both calls of id share one binding address at k=0, so the first
    # argument leaks into the second call's result
    e = parse("((lambda (id) ((lambda (u) (id 2)) (id 1))) (lambda (x) x))")
    run = explore(e, kcfa_policy(0))
    assert run.values == frozenset({IntVal(1), IntVal(2)})
    out = evaluate_concrete(e)
    assert out.value == IntVal(2)


def test_monovariant_binding_set_in_some_store():
    e = parse("((lambda (id) ((lambda (u) (id 2)) (id 1))) (lambda (x) x))")
    run = explore(e, kcfa_policy(0))
    both = frozenset({IntVal(1), IntVal(2)})
    xaddr = BindAddr("x", ())
    assert any(s.get(xaddr) == both for _, s in run.contexts)


def test_polyvariance_separates_the_calls():
    # at k=1 the two call sites get distinct binding contexts
    e = parse("((lambda (id) ((lambda (u) (id 2)) (id 1))) (lambda (x) x))")
    run = explore(e, kcfa_policy(1))
    assert run.values == frozenset({IntVal(2)})


def test_explore_shape_on_linear_program():
    e = parse("((lambda (x) x) 5)")
    run = explore(e, concrete_policy())
    assert run.status == "fixpoint"
    assert len(run.contexts) == 8
    assert len(run.edges) == 7
    gens = sorted(g for _, _, g in run.edges)
    assert gens == list(range(7))


def test_explore_reads_exactness_from_the_policy():
    e = parse("(add1 5)")
    assert explore(e, concrete_policy()).values == frozenset({IntVal(6)})
    assert explore(e, kcfa_policy(0)).values == frozenset({ZINT})


def test_explore_cap_check_stops_early():
    omega = parse("((lambda (x) (x x)) (lambda (x) (x x)))")

    def cap(n_states, generation):
        return "budget-exceeded" if generation >= 3 else None

    run = explore(omega, kcfa_policy(1), cap_check=cap)
    assert run.status == "budget-exceeded"
    assert run.generations == 3


def test_stuck_states_are_terminal_in_graph():
    e = parse("(add1 #t)")
    run = explore(e, concrete_policy())
    stucks = [c for c, _ in run.contexts if isinstance(c, StuckC)]
    assert len(stucks) == 1
    assert stucks[0].reason == STUCK_PRIM and stucks[0].label == 0
