"""Two-version value cells, transfer-function fixpoint, preallocation."""

import random
from collections import Counter

import pytest

from flowladder import imperative
from flowladder.domains import (
    AnalysisBugError,
    ApC,
    ArK,
    BindAddr,
    Closure,
    CoC,
    IfK,
    IntVal,
    concrete_policy,
    kcfa_policy,
)
from flowladder.syntax import Lam, App, If, parse
from flowladder.deltas import run_logged
from flowladder.compiled import step_compiled, inject_compiled
from flowladder.imperative import (
    HashValueStore,
    SnapshotView,
    UnsupportedPolicyError,
    decoder,
    join_at_cell,
    lookup,
    preallocate,
    run_imperative,
    run_machine,
    snapshot,
)
from tests.support import (
    abstract_covers,
    imperative_chain,
    imperative_history,
    load_bench,
    load_corpus,
    oracle_eval,
    OracleStuck,
)

P0 = kcfa_policy(0)
P1 = kcfa_policy(1)
A = BindAddr("a", ())

V = IntVal
U = frozenset({V(1)})
W = frozenset({V(2)})


def compiled_widened(e, pol, trace=None):
    return run_logged(e, step_compiled, pol, inject=inject_compiled, trace=trace)


def test_lookup_top_when_stamped_in_past():
    assert lookup([3, U, None], 5) == U


def test_lookup_skips_one_future_entry():
    assert lookup([7, U | W, U], 5) == U


def test_lookup_boundary_time_is_visible():
    assert lookup([0, U, None], 0) == U


def test_lookup_before_first_write_is_absent():
    assert lookup([7, U, None], 5) is None
    vs = HashValueStore()
    vs.cells[A] = [7, U, None]
    assert SnapshotView(vs, 5).get(A) is None
    with pytest.raises(AnalysisBugError):
        SnapshotView(vs, 5).deref(A)


def test_join_at_fresh_cell():
    # a first write is invisible to its own generation
    vs = HashValueStore()
    assert vs.join_at(A, frozenset({V(5)}), 3)
    assert vs.cells[A] == [4, frozenset({V(5)}), None]


def test_join_at_merges_into_future_entry():
    cell = [4, frozenset({V(5)}), None]
    assert join_at_cell(cell, frozenset({V(6)}), 3)
    assert cell == [4, frozenset({V(5), V(6)}), None]


def test_join_at_no_growth_is_no_change():
    cell = [2, frozenset({V(5)}), None]
    assert not join_at_cell(cell, frozenset({V(5)}), 3)
    assert cell == [2, frozenset({V(5)}), None]


def test_join_at_growth_pushes_future_entry():
    cell = [2, frozenset({V(5)}), None]
    assert join_at_cell(cell, frozenset({V(6)}), 3)
    assert cell == [4, frozenset({V(5), V(6)}), frozenset({V(5)})]
    # the write is invisible until the clock advances
    assert lookup(cell, 3) == frozenset({V(5)})
    assert lookup(cell, 4) == frozenset({V(5), V(6)})


def test_snapshot_never_shows_same_generation_fresh_writes():
    # a cell born and grown within one generation: the chain records only
    # the merged set, first visible one tick later
    vs = HashValueStore()
    vs.join_at(A, frozenset({V(1)}), 5)
    vs.join_at(A, frozenset({V(2)}), 5)
    assert snapshot(vs, 5).get(A) is None
    assert snapshot(vs, 6).deref(A) == frozenset({V(1), V(2)})


def test_snapshot_view_reads_at_fixed_time():
    vs = HashValueStore()
    vs.join_at(A, U, 0)
    vs.join_at(A, W, 1)
    assert SnapshotView(vs, 1).deref(A) == U
    assert SnapshotView(vs, 2).deref(A) == U | W
    assert SnapshotView(vs, 1).get(BindAddr("zz", ()), None) is None
    with pytest.raises(AnalysisBugError):
        SnapshotView(vs, 1).deref(BindAddr("zz", ()))


def test_snapshot_view_records_every_read():
    vs = HashValueStore()
    vs.join_at(A, U, 0)
    view = SnapshotView(vs, 1)
    absent = BindAddr("zz", ())
    view.deref(A)
    view.get(absent)
    view.get(A, None)
    assert view.reads == [A, absent, A]


def _laws_case(rng):
    vstore = HashValueStore()
    t = rng.randrange(3)
    for _ in range(rng.randrange(1, 8)):
        vs = frozenset(V(rng.randrange(4)) for _ in range(rng.randrange(1, 3)))
        cell = vstore.cells.get(A)
        before_t = None if cell is None else lookup(cell, t)
        before_t1 = None if cell is None else lookup(cell, t + 1)
        changed = vstore.join_at(A, vs, t)
        cell = vstore.cells[A]
        stamp, current, previous = cell
        assert stamp <= t + 1
        assert previous is None or previous < current
        assert lookup(cell, t) == before_t
        assert lookup(cell, t + 1) == (before_t1 or frozenset()) | vs
        assert changed == (lookup(cell, t + 1) != before_t1)
        assert not vstore.join_at(A, vs, t)
        t += rng.randrange(2)


def test_join_lookup_algebra_battery():
    rng = random.Random(1501)
    for _ in range(2000):
        _laws_case(rng)


def test_terminal_program_fixpoint_in_one_generation():
    r = run_imperative(parse("7"), P0)
    assert r.generations == 1
    assert r.status == "fixpoint"
    assert r.values == frozenset({V(7)})


def test_matches_compiled_widened_run():
    for pol in (P0, P1):
        for name, src, e in load_corpus():
            trace = []
            lr = compiled_widened(e, pol, trace)
            for pre in (False, True):
                it = []
                ir = run_imperative(e, pol, prealloc=pre, trace=it)
                assert ir.contexts == lr.contexts, (name, pre)
                assert imperative_history(it) == trace[-1][0], (name, pre)
                assert ir.edges == lr.edges, (name, pre)
                assert ir.generations == lr.generations, (name, pre)
                assert ir.status == lr.status, (name, pre)
                assert ir.initial == lr.initial, (name, pre)
                assert ir.store == lr.store, (name, pre)


def test_snapshot_chain_equals_store_chain():
    for pol in (P0, P1):
        for name, src, e in load_corpus():
            trace = []
            compiled_widened(e, pol, trace)
            for pre in (False, True):
                it = []
                run_imperative(e, pol, prealloc=pre, trace=it)
                assert imperative_chain(it) == trace[-1][2], (name, pre)


def test_live_cells_satisfy_invariants():
    # two versions per cell suffice even where a cell grows in three or
    # more generations, as some corpus cells do
    regrown = []
    for name, src, e in load_corpus():
        it = []
        _, vstore, _, t = run_machine(e, P0, trace=it)
        for cell in vstore.cells.values():
            assert type(cell) is list and len(cell) == 3, name
            stamp, current, previous = cell
            assert stamp <= t, name
            assert previous is None or previous < current, name
        chain = imperative_chain(it)
        if any(len({s.get(a) for s in chain} - {None}) > 2
               for a in vstore.addresses()):
            regrown.append(name)
    assert regrown


def test_seen_stamps_strictly_decreasing():
    for name, src, e in load_corpus():
        it = []
        t = run_machine(e, P0, trace=it)[3]
        for stamps in imperative_history(it).values():
            assert stamps[0] <= t
            assert all(a > b for a, b in zip(stamps, stamps[1:])), name


def test_no_poisoning_within_a_generation():
    # in-place writes during a sweep never move the snapshot the sweep
    # reads; the changed flag is exactly visible growth one tick later
    for name, src, e in load_corpus():
        tr = []
        run_imperative(e, P0, trace=tr)
        for gen, (t, frontier, before, after_t, after_t1, changed) in enumerate(tr):
            assert before == after_t, (name, gen)
            assert changed == (after_t1 != after_t), (name, gen)


def test_sweep_iterates_the_generation_snapshot_of_the_frontier():
    # every edge discovered during generation g originates from a context
    # that was on g's frontier when the sweep began; contexts enqueued
    # mid-sweep must wait for the next generation
    for name, src, e in load_corpus():
        tr = []
        ir = run_imperative(e, P0, trace=tr)
        if ir.status != "fixpoint":
            continue
        for s, d, g in ir.edges:
            assert s in tr[g][1], (name, g)


def _address_bound_k0(e):
    # at k=0 every address a program can mint: one binding per variable, one
    # continuation per application and conditional, two value cells per
    # application
    variables = set()
    apps = ifs = 0
    work = [e]
    while work:
        n = work.pop()
        if isinstance(n, Lam):
            variables.add(n.var)
            work.append(n.body)
        elif isinstance(n, App):
            apps += 1
            work.extend((n.fn, n.arg))
        elif isinstance(n, If):
            ifs += 1
            work.extend((n.guard, n.then, n.els))
    return len(variables) + apps + ifs + 2 * apps


def test_preallocate_reports_exact_layout():
    # the table starts empty and, after a run, reports exactly the addresses
    # the run allocated: the hash store's cells, within the k=0 bound
    for name, src, e in load_corpus():
        assert preallocate(P0).size == 0
        for pol in (P0, P1):
            hstore = run_machine(e, pol)[1]
            layout = run_machine(e, pol, prealloc=True)[2]
            minted = [layout.addr_of(i) for i in range(layout.size)]
            assert len(set(minted)) == layout.size, (name, pol)
            assert set(minted) == set(hstore.addresses()), (name, pol)
            if pol is P0:
                assert layout.size <= _address_bound_k0(e), name


def test_preallocate_is_a_bijection():
    for name, src, e in load_corpus():
        for pol in (P0, P1):
            layout = run_machine(e, pol, prealloc=True)[2]
            for i in range(layout.size):
                assert layout.ordinal_of(layout.addr_of(i)) == i, (name, pol)


def test_hash_run_addresses_all_within_layout():
    for name, src, e in load_corpus():
        for pol in (P0, P1):
            layout = run_machine(e, pol, prealloc=True)[2]
            vstore = run_machine(e, pol)[1]
            for a in vstore.addresses():
                assert layout.ordinal_of(a) < layout.size, (name, pol, a)


def test_dense_and_hash_stores_agree_cell_by_cell():
    for name, src, e in load_corpus()[:8]:
        hstore = run_machine(e, P0)[1]
        _, pstore, lay, _ = run_machine(e, P0, prealloc=True)
        decode = decoder(lay)

        def values(vs):
            return None if vs is None else frozenset(map(decode, vs))

        decoded = {}
        for i, (stamp, current, previous) in pstore.items():
            decoded[lay.addr_of(i)] = [stamp, values(current), values(previous)]
        assert decoded == hstore.cells, name


def _envs_of(obj):
    # every environment a decoded context holds, through its continuation
    # and its closure values
    if isinstance(obj, CoC):
        return _envs_of(obj.kont) + _envs_of(obj.val)
    if isinstance(obj, ApC):
        return _envs_of(obj.fn) + _envs_of(obj.kont)
    if isinstance(obj, (Closure, ArK, IfK)):
        return [obj.env]
    return []


def test_prealloc_decodes_each_context_once():
    # edge endpoints are the seen contexts themselves, not equal copies, and
    # each environment the contexts hold is the one Env for its value, so
    # contexts built from one raw env share its decoded Env
    for name, src, e in load_corpus():
        for pol in (P0, P1):
            r = run_machine(e, pol, prealloc=True)[0]
            canon = {c: c for c in r.contexts}
            for s, d, g in r.edges:
                assert canon[s] is s, (name, pol)
                assert canon[d] is d, (name, pol)
            assert canon[r.initial] is r.initial, (name, pol)
            shared = {}
            for c in r.contexts:
                for env in _envs_of(c):
                    assert shared.setdefault(env, env) is env, (name, pol)


def test_preallocate_rejects_unbounded_policies():
    with pytest.raises(UnsupportedPolicyError):
        preallocate(concrete_policy())
    with pytest.raises(UnsupportedPolicyError):
        run_imperative(parse("7"), concrete_policy(), prealloc=True)


def test_final_values_cover_oracle():
    for name, src, e in load_corpus():
        try:
            z = oracle_eval(e, fuel=200_000)
        except OracleStuck:
            continue
        for pre in (False, True):
            got = run_imperative(e, P0, prealloc=pre).values
            assert abstract_covers(z, got), (name, pre)


def _count_steps(monkeypatch):
    # step_compiled calls per context, through the name the sweep calls
    steps = Counter()

    def counted(c, view, pol, mode):
        steps[c] += 1
        return step_compiled(c, view, pol, mode)

    monkeypatch.setattr(imperative, "step_compiled", counted)
    return steps


def test_step_memo_is_exact_and_steps_little_on_the_bench(monkeypatch):
    # a context is stepped again only when a cell its last step read has
    # grown; everywhere else the sweep replays that step's successors
    bench = load_bench("church_dist.scm")
    ref = compiled_widened(bench, P0)
    steps = _count_steps(monkeypatch)
    for pre in (False, True):
        steps.clear()
        r = run_imperative(bench, P0, prealloc=pre)
        assert r.contexts == ref.contexts, pre
        assert r.edges == ref.edges, pre
        assert r.store == ref.store, pre
        assert r.generations == ref.generations, pre
        assert r.status == ref.status == "fixpoint", pre
        assert sum(steps.values()) <= 2 * len(r.contexts), pre


def test_step_memo_replays_and_invalidates_on_the_corpus(monkeypatch):
    steps = _count_steps(monkeypatch)
    replayed = restepped = 0
    for name, src, e in load_corpus():
        for pre in (False, True):
            steps.clear()
            tr = []
            run_imperative(e, P0, prealloc=pre, trace=tr)
            visits = sum(len(frontier) for _, frontier, *_ in tr)
            replayed += visits - sum(steps.values())
            restepped += sum(n > 1 for n in steps.values())
    assert replayed > 0
    assert restepped > 0


def test_cap_check_stops_at_generation_boundary():
    name, src, e = [c for c in load_corpus() if c[0] == "22_church_mult"][0]
    r = run_imperative(e, P0, cap_check=lambda n, g: "time-cap" if g >= 2 else None)
    assert r.status == "time-cap"
    assert r.generations == 2
