"""Value cells, transfer-function fixpoint, preallocation."""

import gc
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
    FN_SLOT,
    IfK,
    IntVal,
    KontAddr,
    concrete_policy,
    kcfa_policy,
    Store,
)
from flowladder.engine import Config, run
from flowladder.syntax import Lam, App, If, parse
from flowladder.deltas import inject_plain, run_logged, step_with_deltas
from flowladder.frontier import SnapshotView
from flowladder.compiled import step_compiled, inject_compiled
from flowladder.lazy import step_lazy
from flowladder.imperative import (
    HashValueStore,
    UnsupportedPolicyError,
    decoder,
    preallocate,
    run_imperative,
    run_machine,
    snapshot,
)
from tests.support import (
    abstract_covers,
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


# the logged rungs' steppers and injections, which run_logged sweeps with
# the imperative rungs' step replay
LOGGED = {
    "deltas": (step_with_deltas, inject_plain),
    "lazy": (step_lazy, inject_plain),
    "compiled": (step_compiled, inject_compiled),
}


def compiled_widened(e, pol, trace=None):
    return run_logged(e, step_compiled, pol, inject=inject_compiled, trace=trace)


def _stores_before(tr):
    # the store each generation's sweep started from: the trace holds the
    # store chain after each generation
    return [tr[0][2][-1]] + [chain[0] for _, _, chain, _ in tr[:-1]]


def _assert_same_trace(tr, ref, label):
    # entry by entry: the seen stamps, the frontier as a set, the store
    # chain and the clock
    assert len(tr) == len(ref), label
    for gen, (entry, want) in enumerate(zip(tr, ref)):
        (seen, frontier, chain, t), (wseen, wfrontier, wchain, wt) = entry, want
        assert seen == wseen, (label, gen)
        assert len(frontier) == len(wfrontier), (label, gen)
        assert set(frontier) == set(wfrontier), (label, gen)
        assert chain == wchain, (label, gen)
        assert t == wt, (label, gen)


def test_join_at_fresh_cell():
    # a first write makes the cell the written set
    vs = HashValueStore()
    assert vs.join_at(A, frozenset({V(5)}))
    assert vs.cells[A] == frozenset({V(5)})


def test_join_at_grows_by_exactly_the_write():
    vs = HashValueStore()
    vs.join_at(A, frozenset({V(5)}))
    assert vs.join_at(A, frozenset({V(5), V(6)}))
    assert vs.cells[A] == frozenset({V(5), V(6)})


def test_join_at_no_growth_is_no_change():
    vs = HashValueStore()
    vs.join_at(A, frozenset({V(5), V(6)}))
    cell = vs.cells[A]
    assert not vs.join_at(A, frozenset({V(5)}))
    assert vs.cells[A] is cell


def test_join_at_repeat_changes_nothing():
    # on both stores: a repeated write reports no growth and leaves the
    # cell as the first write left it
    layout = preallocate(P0)
    layout.store.cells.append(None)
    for store, a in ((HashValueStore(), A), (layout.store, 0)):
        assert store.join_at(a, U)
        assert store.join_at(a, W)
        cell = store.cells[a]
        assert cell == U | W
        assert not store.join_at(a, W)
        assert store.cells[a] is cell


def test_snapshot_never_shows_same_generation_fresh_writes(monkeypatch):
    # every step of a sweep sees the cells the sweep started with, because
    # the sweep joins its writes only after its last step
    tr, seen = [], []

    def spy(c, view, pol):
        seen.append((len(tr), dict(view._fetch.__self__)))
        return step_compiled(c, view, pol)

    monkeypatch.setattr(imperative, "step_compiled", spy)
    for name, src, e in load_corpus():
        tr.clear()
        seen.clear()
        run_imperative(e, P0, trace=tr)
        before = _stores_before(tr)
        for gen, cells in seen:
            assert cells == before[gen].to_dict(), (name, gen)


def test_snapshot_view_reads_at_fixed_time():
    # the view has no clock: it reads the cells as they are, and the sweep
    # keeps them fixed by joining its writes after its last step
    vs = HashValueStore()
    vs.join_at(A, U)
    view = SnapshotView(vs.cells)
    assert view.deref(A) == U
    vs.join_at(A, W)
    assert view.deref(A) == U | W
    assert snapshot(vs).deref(A) == U | W
    assert view.get(BindAddr("zz", ()), None) is None
    with pytest.raises(AnalysisBugError):
        view.deref(BindAddr("zz", ()))


def test_snapshot_view_records_every_read():
    vs = HashValueStore()
    vs.join_at(A, U)
    view = SnapshotView(vs.cells)
    absent = BindAddr("zz", ())
    view.deref(A)
    view.get(absent)
    view.get(A, None)
    assert view.reads == [A, absent, A]


def _laws_case(rng):
    # a cell is its value set: a join grows it by exactly vs and reports
    # growth exactly when the set grew; a repeat changes nothing
    vstore = HashValueStore()
    for _ in range(rng.randrange(1, 8)):
        vs = frozenset(V(rng.randrange(4)) for _ in range(rng.randrange(1, 3)))
        before = vstore.cells.get(A, frozenset())
        changed = vstore.join_at(A, vs)
        values = vstore.cells[A]
        assert type(values) is frozenset
        assert values == before | vs
        assert changed == (values != before)
        assert not vstore.join_at(A, vs)
        assert vstore.cells[A] is values


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
                _assert_same_trace(it, trace, (name, pre))
                assert ir.edges == lr.edges, (name, pre)
                assert ir.generations == lr.generations, (name, pre)
                assert ir.status == lr.status, (name, pre)
                assert ir.initial == lr.initial, (name, pre)
                assert ir.store == lr.store, (name, pre)


def test_snapshot_chain_equals_store_chain():
    # the value cells' snapshots replay the persistent store chain, and
    # the last one is the result's store
    for pol in (P0, P1):
        for name, src, e in load_corpus():
            trace = []
            compiled_widened(e, pol, trace)
            for pre in (False, True):
                it = []
                ir = run_imperative(e, pol, prealloc=pre, trace=it)
                _assert_same_trace(it, trace, (name, pre))
                assert it[-1][2][0] == ir.store, (name, pre)


def test_live_cells_satisfy_invariants():
    # one version per cell suffices even where a cell grows in three or
    # more generations, as some corpus cells do
    regrown = []
    for name, src, e in load_corpus():
        it = []
        vstore = run_machine(e, P0, trace=it)[1]
        chain = it[-1][2]
        for a, cell in vstore.items():
            assert type(cell) is frozenset and cell, name
            assert cell == chain[0].get(a), name
        if any(len({s.get(a) for s in chain} - {None}) > 2
               for a, _ in vstore.items()):
            regrown.append(name)
    assert regrown


def test_seen_stamps_strictly_decreasing():
    for name, src, e in load_corpus():
        it = []
        run_imperative(e, P0, trace=it)
        seen, _, _, t = it[-1]
        for stamps in seen.values():
            assert stamps[0] <= t
            assert all(a > b for a, b in zip(stamps, stamps[1:])), name


def test_no_poisoning_within_a_generation():
    # the sweep's writes only grow cells, and the clock advances exactly
    # when they grew one
    for name, src, e in load_corpus():
        tr = []
        run_imperative(e, P0, trace=tr)
        t0 = 0
        for gen, (before, (_, _, chain, t)) in enumerate(
                zip(_stores_before(tr), tr)):
            after = chain[0]
            for a, vs in before.items():
                assert vs <= after.get(a), (name, gen)
            assert (t != t0) == (after != before), (name, gen)
            t0 = t


def test_sweep_iterates_the_generation_snapshot_of_the_frontier():
    # every edge discovered during generation g originates from a context
    # that was on g's frontier when the sweep began; contexts enqueued
    # mid-sweep must wait for the next generation
    for name, src, e in load_corpus():
        tr = []
        ir = run_imperative(e, P0, trace=tr)
        if ir.status != "fixpoint":
            continue
        # generation 0 sweeps the injected context, and generation g + 1
        # the frontier generation g left
        swept = [{ir.initial}] + [set(frontier) for _, frontier, _, _ in tr]
        for s, d, g in ir.edges:
            assert s in swept[g], (name, g)


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
            assert set(minted) == {a for a, _ in hstore.items()}, (name, pol)
            if pol is P0:
                assert layout.size <= _address_bound_k0(e), name


def _allocate_again(layout, a):
    """The ordinal the table's allocation hands out for the address ``a``
    that it minted before: a binding's context is its call site prepended
    to the time, truncated to k."""
    if isinstance(a, BindAddr):
        return layout.bind_addr(a.var, a.ctx[0] if a.ctx else 0, a.ctx[1:])
    if isinstance(a, KontAddr):
        return layout.kont_addr(a.label, a.time)
    alloc = layout.fnval_addr if a.slot == FN_SLOT else layout.argval_addr
    return alloc(a.label, a.time)


def test_preallocate_is_a_bijection():
    for name, src, e in load_corpus():
        for pol in (P0, P1):
            layout = run_machine(e, pol, prealloc=True)[2]
            size = layout.size
            for i in range(size):
                assert _allocate_again(layout, layout.addr_of(i)) == i, (name, pol)
            assert layout.size == size, (name, pol)


def test_hash_run_addresses_all_within_layout():
    for name, src, e in load_corpus():
        for pol in (P0, P1):
            layout = run_machine(e, pol, prealloc=True)[2]
            vstore = run_machine(e, pol)[1]
            minted = {layout.addr_of(i) for i in range(layout.size)}
            for a, _ in vstore.items():
                assert a in minted, (name, pol, a)


def test_dense_and_hash_stores_agree_cell_by_cell():
    for name, src, e in load_corpus()[:8]:
        hstore = run_machine(e, P0)[1]
        _, pstore, lay = run_machine(e, P0, prealloc=True)
        decode = decoder(lay)
        decoded = {}
        for i, vs in pstore.items():
            decoded[lay.addr_of(i)] = frozenset(map(decode, vs))
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


def test_no_driven_rung_leaves_cyclic_garbage():
    # a run is freed by reference counting alone: with the collector
    # paused, it leaves nothing for the collector to find, the decoder's
    # memo under preallocation included
    bench = load_bench("church_dist.scm")
    for stage in ("compiled", "imperative", "imperative-prealloc"):
        gc.collect()
        gc.disable()
        try:
            r = run(Config(stage=stage), bench)
            del r
            assert gc.collect() == 0, stage
        finally:
            gc.enable()


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

    def counted(c, view, pol):
        steps[c] += 1
        return step_compiled(c, view, pol)

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
        assert sum(steps.values()) == 1607, pre


_COUNT_BENCH_STEPS = """
import json
from flowladder import imperative
from flowladder.deltas import run_logged
from flowladder.domains import kcfa_policy
from tests.support import load_bench
from tests.test_imperative import LOGGED

calls = [0]

def counted(step):
    def stepper(*args):
        calls[0] += 1
        return step(*args)
    return stepper

imperative.step_compiled = counted(imperative.step_compiled)
bench = load_bench("church_dist.scm")
runs = {
    "imperative": lambda pol: imperative.run_imperative(bench, pol),
    "imperative-prealloc": lambda pol: imperative.run_imperative(
        bench, pol, prealloc=True),
}
for rung, (step, inject) in LOGGED.items():
    runs[rung] = lambda pol, step=step, inject=inject: run_logged(
        bench, counted(step), pol, inject=inject)
counts = {}
for k, rungs in ((0, runs), (1, ("compiled", "imperative"))):
    for rung in rungs:
        calls[0] = 0
        runs[rung](kcfa_policy(k))
        counts[f"{rung} k={k}"] = calls[0]
print(json.dumps(counts))
"""


def test_bench_step_count_does_not_depend_on_the_hash_seed():
    # no cell changes during a sweep, so whether a context is stepped again
    # does not depend on where in its sweep it stands: every replaying rung
    # makes the same number of steps whatever the hash seed orders the
    # frontier by, and the logged compiled rung as many as the imperative
    # ones, which step the same contexts against the same cells
    root = Path(__file__).resolve().parent.parent
    procs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join((str(root / "src"), str(root))))
        procs.append(subprocess.Popen([sys.executable, "-c", _COUNT_BENCH_STEPS],
                                      env=env, cwd=root, text=True,
                                      stdout=subprocess.PIPE))
    counts = []
    for proc in procs:
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0
        counts.append(json.loads(out))
    assert counts[0] == counts[1], counts
    assert counts[0] == {
        "deltas k=0": 2674, "lazy k=0": 2557, "compiled k=0": 1607,
        "imperative k=0": 1607, "imperative-prealloc k=0": 1607,
        "compiled k=1": 40737, "imperative k=1": 40737}, counts[0]


def test_step_memo_replays_and_invalidates_on_the_corpus(monkeypatch):
    steps = _count_steps(monkeypatch)
    replayed = restepped = 0
    for name, src, e in load_corpus():
        for pre in (False, True):
            steps.clear()
            tr = []
            run_imperative(e, P0, prealloc=pre, trace=tr)
            # the injected context, then every frontier a generation left
            visits = 1 + sum(len(frontier) for _, frontier, _, _ in tr)
            replayed += visits - sum(steps.values())
            restepped += sum(n > 1 for n in steps.values())
    assert replayed > 0
    assert restepped > 0


def test_no_restep_is_needless(monkeypatch):
    # a context is stepped again only once a cell its previous step read
    # has grown: some address that step read holds another value in the
    # store the new step's sweep started from than in the old one's.  The
    # logged rungs share the imperative rungs' sweep
    tr, steps = [], []

    def spying(stepper):
        def spy(c, view, pol):
            out = stepper(c, view, pol)
            reads = view.reads
            if isinstance(pol, imperative.AddressTable):
                reads = map(pol.addr_of, reads)
            steps.append((c, len(tr), frozenset(reads)))
            return out
        return spy

    monkeypatch.setattr(imperative, "step_compiled", spying(step_compiled))
    runs = {
        "imperative": lambda e, pol: run_imperative(e, pol, trace=tr),
        "imperative-prealloc": lambda e, pol: run_imperative(
            e, pol, prealloc=True, trace=tr),
    }
    for rung, (stepper, inject) in LOGGED.items():
        runs[rung] = lambda e, pol, spy=spying(stepper), inject=inject: \
            run_logged(e, spy, pol, inject=inject, trace=tr)
    restepped = Counter()
    for pol in (P0, P1):
        for name, src, e in load_corpus():
            for rung, run in runs.items():
                tr.clear()
                steps.clear()
                run(e, pol)
                before = _stores_before(tr)
                last = {}
                for c, gen, reads in steps:
                    if c in last:
                        gen0, reads0 = last[c]
                        assert any(before[gen0].get(a) != before[gen].get(a)
                                   for a in reads0), (name, pol, rung, gen)
                        restepped[rung] += 1
                    last[c] = (gen, reads)
    assert set(restepped) == set(runs), restepped


def _shrinking_reads_step(c, view, pol):
    # X reads b only until a has a value, and loops to itself; Y0 -> Y1 ->
    # Y2 writes b two generations after X's reads shrank, and leads back
    # to X
    if c == "X":
        if view.get("a") is None:
            view.get("b")
            return [("X", [("a", U)])]
        return [("X", [])]
    if c == "Y2":
        return [("X", [("b", U)])]
    return [("Y" + str(int(c[1]) + 1), [])]


def test_a_stale_filing_leaves_a_newer_memo(monkeypatch):
    # X's first step read a and b; a grew, so X stepped again and read a
    # alone.  When b grows later, the filing of X's first step under b no
    # longer names X's memo, so X comes round unstepped, on the imperative
    # sweep and on the logged one
    steps = Counter()

    def step(c, view, pol):
        steps[c] += 1
        return _shrinking_reads_step(c, view, pol)

    def inject(e, pol):
        return ["X", "Y0"], []

    monkeypatch.setattr(imperative, "step_compiled", step)
    monkeypatch.setattr(imperative, "inject_compiled", inject)
    tr = []
    r, vstore, _ = run_machine(parse("7"), P0, trace=tr)
    assert r.status == "fixpoint"
    assert dict(vstore.items()) == {"a": U, "b": U}
    assert (r.generations, tr[-1][3]) == (4, 2)
    assert steps == {"X": 2, "Y0": 1, "Y1": 1, "Y2": 1}

    steps.clear()
    tr = []
    r = run_logged(parse("7"), step, P0, inject=inject, trace=tr)
    assert r.status == "fixpoint"
    assert r.store == Store({"a": U, "b": U})
    assert (r.generations, tr[-1][3]) == (4, 2)
    assert steps == {"X": 2, "Y0": 1, "Y1": 1, "Y2": 1}


def test_cap_check_stops_at_generation_boundary():
    name, src, e = [c for c in load_corpus() if c[0] == "22_church_mult"][0]
    r = run_imperative(e, P0, cap_check=lambda n, g: "time-cap" if g >= 2 else None)
    assert r.status == "time-cap"
    assert r.generations == 2
