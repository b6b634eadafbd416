"""Change-log store deltas."""

import random

from flowladder.domains import (
    AbstractInt,
    BindAddr,
    BoolVal,
    EMPTY_STORE,
    IntVal,
    ValAddr,
    kcfa_policy,
)
from flowladder.syntax import parse
from flowladder.deltas import replay, run_logged, step_with_deltas
from flowladder.frontier import run_frontier
from flowladder.widening import inject_context, step_context

from tests.reference import histories


P0 = kcfa_policy(0)
A = BindAddr("a", ())
B = BindAddr("b", ())


def test_replay_empty_log():
    s = EMPTY_STORE.join(A, (IntVal(1),))
    assert replay([], s) == (s, False)


def test_replay_fresh_write_changes():
    s2, changed = replay([(A, frozenset({IntVal(5)}))], EMPTY_STORE)
    assert changed
    assert s2.deref(A) == frozenset({IntVal(5)})


def test_replay_idempotent_join_reports_no_change():
    s = EMPTY_STORE.join(A, (IntVal(5),))
    s2, changed = replay([(A, frozenset({IntVal(5)}))], s)
    assert not changed
    assert s2 == s


def _random_config(rng):
    addrs = [A, B, BindAddr("c", ()), ValAddr(0, (), 0), ValAddr(1, (), 1)]
    vals = [IntVal(0), IntVal(1), IntVal(2), BoolVal(True), AbstractInt()]
    store = EMPTY_STORE
    for a in addrs:
        if rng.random() < 0.7:
            store = store.join(a, rng.sample(vals, rng.randint(1, 3)))
    log = []
    for _ in range(rng.randint(0, 6)):
        log.append((rng.choice(addrs), frozenset(rng.sample(vals, rng.randint(1, 3)))))
    return store, log


def test_changed_flag_means_change():
    rng = random.Random(1401)
    for _ in range(2000):
        store, log = _random_config(rng)
        s2, changed = replay(log, store)
        assert changed == (s2 != store)


def test_replay_is_order_independent():
    rng = random.Random(1402)
    for _ in range(1000):
        store, log = _random_config(rng)
        s2, changed = replay(log, store)
        shuffled = log[:]
        rng.shuffle(shuffled)
        s3, changed2 = replay(shuffled, store)
        assert s2 == s3
        assert changed == changed2


def test_replay_of_own_output_is_quiescent():
    rng = random.Random(1403)
    for _ in range(1000):
        store, log = _random_config(rng)
        s2, _ = replay(log, store)
        s3, changed = replay(log, s2)
        assert not changed
        assert s3 == s2


def test_log_value_sets_are_nonempty(corpus):
    for name, src, e in corpus[:12]:
        trace = []
        run_frontier(e, P0, trace=trace)
        for frontier, _, store in trace:
            for c in frontier:
                for _, log in step_with_deltas(c, store, P0):
                    for _, vs in log:
                        assert vs, name


def test_agrees_with_unlogged_step_on_corpus_configs(corpus):
    # read-for-read agreement: same successors, and replaying the combined
    # log reproduces the store the joining stepper built
    for name, src, e in corpus:
        trace = []
        run_frontier(e, P0, trace=trace)
        configs = set()
        for frontier, _, store in trace:
            for c in frontier:
                configs.add((c, store))
        for c, store in configs:
            plain_succs, store2 = step_context(c, store, P0)
            logged = step_with_deltas(c, store, P0)
            assert sorted(map(repr, (s for s, _ in logged))) == \
                sorted(map(repr, plain_succs)), (name, c)
            merged, changed = replay([w for _, log in logged for w in log], store)
            assert merged == store2, (name, c)
            assert changed == (store2 != store), (name, c)


def test_fixpoint_equals_frontier_exactly(corpus):
    for name, src, e in corpus:
        for k in (0, 1):
            pol = kcfa_policy(k)
            ft, dt = [], []
            fr = run_frontier(e, pol, trace=ft)
            dr = run_logged(e, step_with_deltas, pol, trace=dt)
            ft, dt = histories(ft), histories(dt)
            assert dr.contexts == fr.contexts, name
            assert dt[-1][2] == ft[-1][2], name
            assert dt[-1][0] == ft[-1][0], name
            assert dr.edges == fr.edges, name
            assert dr.generations == fr.generations, name
            assert dr.status == fr.status == "fixpoint", name


def test_literal_rule_logs_nothing():
    (succ, log), = step_with_deltas(inject_context(parse("5")), EMPTY_STORE, P0)
    assert log == []
