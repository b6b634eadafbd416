"""Value cells, transfer-function fixpoint, preallocation."""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

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


def test_join_at_fresh_cell():
    # a first write is stamped one tick after the sweep that made it
    vs = HashValueStore()
    assert vs.join_at(A, frozenset({V(5)}), 3)
    assert vs.cells[A] == [4, frozenset({V(5)})]


def test_join_at_merges_into_future_entry():
    # a cell grown earlier in the same replay keeps its stamp
    cell = [4, frozenset({V(5)})]
    assert join_at_cell(cell, frozenset({V(6)}), 3)
    assert cell == [4, frozenset({V(5), V(6)})]


def test_join_at_no_growth_is_no_change():
    cell = [2, frozenset({V(5)})]
    assert not join_at_cell(cell, frozenset({V(5)}), 3)
    assert cell == [2, frozenset({V(5)})]


def test_join_at_growth_pushes_future_entry():
    cell = [2, frozenset({V(5)})]
    assert join_at_cell(cell, frozenset({V(6)}), 3)
    assert cell == [4, frozenset({V(5), V(6)})]


def test_snapshot_never_shows_same_generation_fresh_writes(monkeypatch):
    # every step of a sweep sees the cells the sweep started with, because
    # the sweep joins its writes only after its last step
    tr, seen = [], []

    def spy(c, view, pol, mode):
        cells = view._fetch.__self__
        seen.append((len(tr), {a: vs for a, (_, vs) in cells.items()}))
        return step_compiled(c, view, pol, mode)

    monkeypatch.setattr(imperative, "step_compiled", spy)
    for name, src, e in load_corpus():
        tr.clear()
        seen.clear()
        run_imperative(e, P0, trace=tr)
        for gen, cells in seen:
            assert cells == tr[gen][2].to_dict(), (name, gen)


def test_snapshot_view_reads_at_fixed_time():
    # the view has no clock: it reads the cells as they are, and the sweep
    # keeps them fixed by joining its writes after its last step
    vs = HashValueStore()
    vs.join_at(A, U, 0)
    view = SnapshotView(vs)
    assert view.deref(A) == U
    vs.join_at(A, W, 1)
    assert view.deref(A) == U | W
    assert snapshot(vs).deref(A) == U | W
    assert view.get(BindAddr("zz", ()), None) is None
    with pytest.raises(AnalysisBugError):
        view.deref(BindAddr("zz", ()))


def test_snapshot_view_records_every_read():
    vs = HashValueStore()
    vs.join_at(A, U, 0)
    view = SnapshotView(vs)
    absent = BindAddr("zz", ())
    view.deref(A)
    view.get(absent)
    view.get(A, None)
    assert view.reads == [A, absent, A]


def _laws_case(rng):
    # one version per cell: a join grows the values by exactly vs, reports
    # growth exactly when the set grew, stamps the cell t+1 when it grew
    # and leaves the stamp alone when it did not; a repeat changes nothing
    vstore = HashValueStore()
    t = rng.randrange(3)
    for _ in range(rng.randrange(1, 8)):
        vs = frozenset(V(rng.randrange(4)) for _ in range(rng.randrange(1, 3)))
        old = vstore.cells.get(A)
        stamp0, before = (None, frozenset()) if old is None else old
        changed = vstore.join_at(A, vs, t)
        cell = vstore.cells[A]
        assert type(cell) is list and len(cell) == 2
        stamp, values = cell
        assert values == before | vs
        assert changed == (values != before)
        assert stamp == (t + 1 if changed else stamp0)
        assert not vstore.join_at(A, vs, t)
        assert vstore.cells[A] == [stamp, values]
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
    # one version per cell suffices even where a cell grows in three or
    # more generations, as some corpus cells do
    regrown = []
    for name, src, e in load_corpus():
        it = []
        _, vstore, _, t = run_machine(e, P0, trace=it)
        for cell in vstore.cells.values():
            assert type(cell) is list and len(cell) == 2, name
            assert cell[0] <= t, name
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
    # the changed flag is exactly the growth the sweep's writes made
    for name, src, e in load_corpus():
        tr = []
        run_imperative(e, P0, trace=tr)
        for gen, (t, frontier, before, after, changed) in enumerate(tr):
            assert changed == (after != before), (name, gen)


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
        decoded = {}
        for i, (stamp, vs) in pstore.items():
            decoded[lay.addr_of(i)] = [stamp, frozenset(map(decode, vs))]
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


_COUNT_BENCH_STEPS = """
import json
from flowladder import imperative
from flowladder.domains import kcfa_policy
from tests.support import load_bench

step = imperative.step_compiled
calls = [0]

def counted(*args):
    calls[0] += 1
    return step(*args)

imperative.step_compiled = counted
bench = load_bench("church_dist.scm")
counts = []
for pre in (False, True):
    calls[0] = 0
    imperative.run_imperative(bench, kcfa_policy(0), prealloc=pre)
    counts.append(calls[0])
print(json.dumps(counts))
"""


def test_bench_step_count_does_not_depend_on_the_hash_seed():
    # no cell changes during a sweep, so whether a context is stepped again
    # does not depend on where in its sweep it stands: both rungs make the
    # same number of steps whatever the hash seed orders the frontier by
    root = Path(__file__).resolve().parent.parent
    counts = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join((str(root / "src"), str(root))))
        out = subprocess.run([sys.executable, "-c", _COUNT_BENCH_STEPS],
                             env=env, cwd=root, capture_output=True,
                             text=True, check=True).stdout
        counts += json.loads(out)
    assert len(set(counts)) == 1, counts


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
