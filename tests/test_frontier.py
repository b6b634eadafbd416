"""Timestamped frontier iteration and its untimestamped reference."""

import pytest

from flowladder import frontier
from flowladder.domains import (
    AnalysisBugError,
    CoC,
    EMPTY_STORE,
    HALT,
    IntVal,
    kcfa_policy,
)
from flowladder.engine import RUNGS, STAGES
from flowladder.syntax import parse
from flowladder.frontier import run_frontier
from flowladder.widening import analyze_baseline, inject_context

from tests.reference import run_reference, stamps_to_stores, stores_to_stamps


P0 = kcfa_policy(0)

# every rung under the shared frontier driver, the imperative ones
# through their decoded trace
DRIVEN = {rung: RUNGS[rung][0] for rung in STAGES[STAGES.index("frontier"):]}


def plain_leq(a, b):
    return all(b.get(addr) is not None and vals <= b.get(addr) for addr, vals in a.items())


def test_inject_shape():
    trace = []
    run = run_frontier(parse("5"), P0, trace=trace)
    c0 = inject_context(parse("5"))
    assert run.initial == c0
    # generation 0 steps exactly the injected context, seen at stamp 0
    assert {(s, g) for s, _, g in run.edges if g == 0} == {(c0, 0)}
    seen, frontier, chain, t = trace[0]
    assert seen[c0] == (0,)
    assert chain == (EMPTY_STORE,)
    assert t == 0
    assert run.store is trace[-1][2][0]


def test_literal_step_keeps_clock():
    trace = []
    run_frontier(parse("5"), P0, trace=trace)
    seen, frontier, chain, t = trace[0]
    assert t == 0
    assert chain == (EMPTY_STORE,)
    assert frontier == (CoC(HALT, IntVal(5)),)
    assert seen[CoC(HALT, IntVal(5))] == (0,)


def test_empty_frontier_is_fixpoint():
    trace = []
    run = run_frontier(parse("5"), P0, trace=trace)
    assert run.status == "fixpoint"
    assert run.generations == len(trace) == 2
    assert trace[-1][1] == ()


def test_chain_invariants_every_generation(corpus):
    for rung, runner in DRIVEN.items():
        for name, src, e in corpus:
            trace = []
            run = runner(e, P0, trace=trace)
            assert run.status == "fixpoint", (rung, name)
            for seen, frontier, chain, t in trace:
                assert t == len(chain) - 1, (rung, name)
                for newer, older in zip(chain, chain[1:]):
                    assert plain_leq(older, newer), (rung, name)
                    assert older != newer, (rung, name)
                for c, stamps in seen.items():
                    assert all(s <= t for s in stamps), (rung, name)
                    assert list(stamps) == sorted(stamps, reverse=True), (rung, name)
                    assert len(set(stamps)) == len(stamps), (rung, name)


def test_subset_of_widened_with_a_strict_case(corpus):
    strict = []
    for name, src, e in corpus:
        fr = run_frontier(e, P0)
        br = analyze_baseline(e, P0)
        assert fr.contexts <= br.contexts, name
        if fr.contexts < br.contexts:
            strict.append(name)
    assert strict


def test_iteration_order_does_not_matter(corpus, monkeypatch):
    # a spy on drive hands each sweep its ids sorted by the run's key and
    # gives the successor lists back in drive's order: the order the
    # sweep steps in is the only order that reaches the store
    drive = frontier.drive
    key = None  # rebound by the loop below, read by the spy
    permuted = []

    def spied_drive(first, sweep, *args):
        def spied(order, ctxs, memo):
            if key is None:
                return sweep(order, ctxs, memo)
            mine = sorted(order, key=lambda i: key(ctxs[i]))
            permuted.append(mine != order)
            stepped, grew = sweep(mine, ctxs, memo)
            back = dict(zip(mine, stepped))
            return [back[i] for i in order], grew
        return drive(first, spied, *args)

    monkeypatch.setattr(frontier, "drive", spied_drive)
    orders = (None, lambda c: repr(c), lambda c: tuple(reversed(repr(c))))
    for rung, runner in DRIVEN.items():
        permuted.clear()
        for name, src, e in corpus:
            runs = []
            for key in orders:
                trace = []
                runs.append((runner(e, P0, trace=trace), trace[-1]))
            (r1, last1), others = runs[0], runs[1:]
            for other, last in others:
                assert r1.contexts == other.contexts, (rung, name)
                assert last1[2] == last[2], (rung, name)
                assert last1[0] == last[0], (rung, name)
                assert r1.edges == other.edges, (rung, name)
                assert r1.generations == other.generations, (rung, name)
        assert any(permuted), rung


def test_reference_lockstep_both_translations(corpus):
    for name, src, e in corpus:
        ft, rt = [], []
        fr = run_frontier(e, P0, trace=ft)
        run_reference(e, P0, trace=rt)
        assert len(ft) == len(rt), name
        for (seen, frontier, chain, t), (rseen, rfrontier, rchain) in zip(ft, rt):
            assert frontier == rfrontier, name
            assert tuple(chain) == tuple(rchain), name
            assert stamps_to_stores(seen, chain) == rseen, name
            assert stores_to_stamps(rseen, list(rchain)) == seen, name
        assert fr.store is ft[-1][2][0], name
        assert stamps_to_stores(ft[-1][0], ft[-1][2]) == run_reference(e, P0).seen, name


def test_omega_terminates():
    run = run_frontier(parse("((lambda (x) (x x)) (lambda (y) (y y)))"), P0)
    assert run.status == "fixpoint"
    assert run.contexts


def test_final_values_subset_of_widened(corpus):
    for name, src, e in corpus:
        fr = run_frontier(e, P0)
        br = analyze_baseline(e, P0)
        assert fr.values <= br.values, name


def test_traced_run_rejects_growth_without_a_clock_tick():
    # the sweep grows the store newest() returns but reports no growth:
    # the trace's snapshot catches it, and an untraced run reads nothing
    def run(trace):
        store = EMPTY_STORE

        def sweep(order, ctxs, memo):
            nonlocal store
            store = store.join("a", frozenset({IntVal(1)}))
            return [[] for _ in order], False

        return frontier.run_driven(parse("7"), ["X"], sweep, lambda: store,
                                   trace=trace)

    with pytest.raises(AnalysisBugError):
        run([])
    r = run(None)
    assert (r.status, r.generations) == ("fixpoint", 1)
    assert r.store.deref("a") == frozenset({IntVal(1)})


def test_drive_refuses_an_id_past_the_edge_key(monkeypatch):
    # an edge is keyed by src << ID_BITS | dst, so an id that does not fit
    # ID_MASK would give two edges one key; with the mask at 3, a chain of
    # four contexts runs and the fifth context is refused
    monkeypatch.setattr(frontier, "ID_MASK", 3)

    def chain(last):
        def sweep(order, ctxs, memo):
            return [[min(ctxs[i] + 1, last)] for i in order], False
        return sweep

    _, edges, _, _ = frontier.drive([0], chain(3))
    assert sorted(edges) == [0 << 32 | 1, 1 << 32 | 2, 2 << 32 | 3,
                             3 << 32 | 3]
    with pytest.raises(AnalysisBugError):
        frontier.drive([0], chain(4))


def test_cap_check_stops():
    e = parse("((lambda (x) (x x)) (lambda (y) (y y)))")
    run = run_frontier(e, P0, cap_check=lambda n, g: "space-cap" if g >= 1 else None)
    assert run.status == "space-cap"


def test_persistent_sweeps_never_fill_the_memo(corpus, monkeypatch):
    # frontier is the literal timestamp rung: nothing is replayed, and
    # drive hands every frontier context to its sweep.  The logged rungs
    # share the imperative sweep's step replay and do fill the memo
    memos = []
    drive = frontier.drive

    def spied_drive(first, sweep, *args):
        def spied(order, ctxs, memo):
            memos.append(memo)
            return sweep(order, ctxs, memo)
        return drive(first, spied, *args)

    monkeypatch.setattr(frontier, "drive", spied_drive)
    for name, src, e in corpus:
        memos.clear()
        run = run_frontier(e, P0)
        assert memos, name
        assert all(m is None for memo in memos for m in memo), name
        assert len(memos[-1]) == len(run.contexts), name
