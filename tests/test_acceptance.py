"""Acceptance gate: seven shipping criteria, one test per criterion.

Run with -v for the per-criterion pass/fail lines; each test also prints
a PASS line carrying the measured numbers when it succeeds.  Tolerances
are stated inline next to each assert.
"""

import random
import time

from flowladder.compiled import compile_expr, inject_compiled, step_compiled
from flowladder.deltas import replay, run_logged, step_with_deltas
from flowladder.domains import EvC, kcfa_policy
from flowladder.engine import STAGES, Config, export_graph, run
from flowladder.frontier import run_frontier
from flowladder.imperative import run_imperative
from flowladder.lazy import step_lazy
from flowladder.precision import singleton_vars
from flowladder.syntax import free_vars, node_count
from flowladder.widening import analyze_baseline, step_context

from tests.reference import (
    explore_states,
    label_table,
    refine,
    run_reference,
    stamps_to_stores,
    stores_to_stamps,
    stutter_check,
)
from tests.support import (
    abstract_covers,
    load_bench,
    oracle_eval,
    random_program,
)
from tests.test_deltas import _random_config
from tests.test_imperative import _assert_same_trace, _laws_case

P0 = kcfa_policy(0)
P1 = kcfa_policy(1)

LADDER = ("frontier", "deltas", "lazy", "compiled", "imperative",
          "imperative-prealloc")
TIMING_FIELDS = ("wall_time_s", "states_per_sec", "peak_mem_bytes")


def test_criterion_1_oracle_soundness(corpus):
    # tolerance: zero violations, corpus of >= 30 closed programs of
    # <= 60 nodes, under 60 seconds wall clock
    t0 = time.perf_counter()
    assert len(corpus) >= 30
    oracle = {}
    for name, src, e in corpus:
        assert not free_vars(e), name
        assert node_count(e) <= 60, name
        oracle[name] = oracle_eval(e, fuel=2_000_000)
    checked = 0
    for stage in STAGES:
        for name, src, e in corpus:
            r = run(Config(stage=stage), e)
            assert r.status == "fixpoint", (stage, name)
            assert abstract_covers(oracle[name], r.values), (stage, name)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 1 PASS: {len(corpus)} programs x {len(STAGES)} stages "
          f"= {checked} runs cover the oracle, {elapsed:.1f}s")


def test_criterion_2_complete_abstraction_equalities(corpus):
    # tolerance: exact equality, full corpus
    for name, src, e in corpus:
        # (a) timestamped frontier vs the store-per-state reference,
        # translated in both directions, per generation and at the end
        ft, rt = [], []
        fr = run_frontier(e, P0, trace=ft)
        rr = run_reference(e, P0, trace=rt)
        assert len(ft) == len(rt), name
        for (seen, frontier, chain, t), (rseen, rfront, rchain) in zip(ft, rt):
            assert frontier == rfront, name
            assert tuple(chain) == tuple(rchain), name
            assert stamps_to_stores(seen, chain) == rseen, name
            assert stores_to_stamps(rseen, list(rchain)) == seen, name
        fseen, fchain = ft[-1][0], ft[-1][2]
        assert stamps_to_stores(fseen, fchain) == rr.seen, name
        assert stores_to_stamps(rr.seen, list(rr.chain)) == fseen, name

        # (b) log-and-replay fixpoint equals the frontier fixpoint
        dt = []
        dr = run_logged(e, step_with_deltas, P0, trace=dt)
        assert dr.contexts == fr.contexts, name
        assert dt[-1][2] == fchain, name
        assert dt[-1][0] == fseen, name
        assert dr.edges == fr.edges, name
        assert dr.store == fr.store, name

        # (c) imperative transfer-function iteration equals the
        # compiled-widened run, with and without preallocation
        ct = []
        cw = run_logged(e, step_compiled, P0, inject=inject_compiled, trace=ct)
        for pre in (False, True):
            it = []
            ir = run_imperative(e, P0, prealloc=pre, trace=it)
            assert ir.contexts == cw.contexts, (name, pre)
            assert ir.edges == cw.edges, (name, pre)
            assert ir.generations == cw.generations, (name, pre)
            assert ir.status == cw.status, (name, pre)
            assert ir.store == cw.store, (name, pre)
            # (d) the value cells' snapshots replay the store chain
            # exactly, generation by generation, along with the seen
            # stamps, the frontier and the clock
            _assert_same_trace(it, ct, (name, pre))
            assert len(it[-1][2]) == it[-1][3] + 1, (name, pre)
    print(f"criterion 2 PASS: (a)-(d) exact on {len(corpus)} programs")


def _battery_replay(n):
    rng = random.Random(3101)
    for _ in range(n):
        store, log = _random_config(rng)
        s2, changed = replay(log, store)
        assert changed == (s2 != store)
        s3, again = replay(log, s2)
        assert not again and s3 == s2
    return n


def _battery_step_vs_logged(corpus, n):
    cases = []
    for name, src, e in corpus:
        for pol in (P0, P1):
            trace = []
            run_frontier(e, pol, trace=trace)
            seen = set()
            for _, frontier, chain, _ in trace:
                for c in frontier:
                    if (c, chain[0]) not in seen:
                        seen.add((c, chain[0]))
                        cases.append((c, chain[0], pol))
    rng = random.Random(3102)
    while len(cases) < n:
        e = random_program(rng, budget=14)
        trace = []
        run_frontier(e, P0, trace=trace)
        seen = set()
        for _, frontier, chain, _ in trace:
            for c in frontier:
                if (c, chain[0]) not in seen:
                    seen.add((c, chain[0]))
                    cases.append((c, chain[0], P0))
    for c, store, pol in cases:
        plain_succs, joined = step_context(c, store, pol)
        logged = step_with_deltas(c, store, pol, "abstract")
        assert sorted(map(repr, (s for s, _ in logged))) == \
            sorted(map(repr, plain_succs)), c
        merged, changed = replay([w for _, log in logged for w in log], store)
        assert merged == joined, c
        assert changed == (joined != store), c
    return len(cases)


def _battery_compile_commit(corpus, n):
    cases = []
    for name, src, e in corpus:
        if node_count(e) > 25:
            continue
        g = explore_states(e, step_lazy, P0)
        cases.extend((e, c, s) for (c, s) in g.states if isinstance(c, EvC))
    rng = random.Random(3103)
    while len(cases) < n:
        e = random_program(rng, budget=14)
        g = explore_states(e, step_lazy, P0)
        cases.extend((e, c, s) for (c, s) in g.states if isinstance(c, EvC))
    tables = {}
    for e, c, store in cases:
        table = tables.get(e)
        if table is None:
            table = tables[e] = label_table(compile_expr(e, P0))
        (c2, xi), = step_lazy(c, store, P0, "abstract")
        s2, _ = replay(xi, store)
        assert refine((c, store), table) == refine((c2, s2), table), (c, c2)
    return len(cases)


def _battery_cell_algebra(n):
    rng = random.Random(3104)
    for _ in range(n):
        _laws_case(rng)
    return n


def test_criterion_3_per_step_batteries(corpus):
    # tolerance: zero failures, at least 10^4 random cases per battery
    n = 10_000
    counts = (
        _battery_replay(n),
        _battery_step_vs_logged(corpus, n),
        _battery_compile_commit(corpus, n),
        _battery_cell_algebra(n),
    )
    assert all(c >= n for c in counts)
    print("criterion 3 PASS: replay={} step-vs-logged={} "
          "compile-commit={} cell-algebra={} cases".format(*counts))


def test_criterion_4_stuttering_correspondence(corpus):
    # tolerance: zero violations on every corpus program of <= 40 nodes
    checked = 0
    for name, src, e in corpus:
        if node_count(e) > 40:
            continue
        rep = stutter_check(e, P0)
        assert rep.ok, (name, rep.reason)
        checked += 1
    assert checked >= 30
    print(f"criterion 4 PASS: stuttering correspondence on {checked} programs")


def test_criterion_5_transition_elimination_and_speedup(corpus):
    # shape: strictly fewer reachable states baseline -> lazy -> compiled
    # and no ev contexts in the compiled graphs; speed: monotone wall
    # clock down the ladder (5% jitter allowance per rung) with the
    # preallocated endpoint at least 10x the baseline; under 5 minutes
    t0 = time.perf_counter()
    table = {name: e for name, src, e in corpus}
    for name in ("23_fanout", "22_church_mult"):
        e = table[name]
        w = len(analyze_baseline(e, P0).contexts)
        l = len(run_logged(e, step_lazy, P0).contexts)
        cr = run_logged(e, step_compiled, P0, inject=inject_compiled)
        c = len(cr.contexts)
        assert w > l > c, (name, w, l, c)
        assert not any(isinstance(ctx, EvC) for ctx in cr.contexts), name

    bench = load_bench("church_dist.scm")
    rungs = (
        ("widened", lambda: analyze_baseline(bench, P0)),
        ("frontier", lambda: run_frontier(bench, P0)),
        ("deltas", lambda: run_logged(bench, step_with_deltas, P0)),
        ("lazy", lambda: run_logged(bench, step_lazy, P0)),
        ("compiled", lambda: run_logged(bench, step_compiled, P0,
                                        inject=inject_compiled)),
        ("imperative", lambda: run_imperative(bench, P0)),
        ("imperative-prealloc", lambda: run_imperative(bench, P0,
                                                       prealloc=True)),
    )
    times = []
    for name, thunk in rungs:
        best = min(_timed(thunk) for _ in range(3))
        times.append((name, best))
    for (a, ta), (b, tb) in zip(times, times[1:]):
        assert tb <= ta * 1.05, f"{b} ({tb:.3f}s) slower than {a} ({ta:.3f}s)"
    base, endpoint = times[0][1], times[-1][1]
    assert endpoint * 10 < base, f"only {base / endpoint:.1f}x"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    ladder = " ".join(f"{n}={t:.2f}s" for n, t in times)
    print(f"criterion 5 PASS: {base / endpoint:.1f}x endpoint speedup; "
          f"{ladder}; total {elapsed:.0f}s")


def _timed(thunk):
    t0 = time.perf_counter()
    thunk()
    return time.perf_counter() - t0


def test_criterion_6_precision_preservation(corpus):
    # tolerance: identical singleton sets across the six-optimized-stage
    # ladder on every program; the resweeping baseline is allowed only
    # its known subset-side difference, which is asserted, not ignored
    baseline_strict = set()
    for name, src, e in corpus:
        sets = [singleton_vars(run(Config(stage=s), e)) for s in LADDER]
        assert all(s == sets[0] for s in sets[1:]), (name, sets)
        w = singleton_vars(run(Config(stage="widened"), e))
        assert w <= sets[0], (name, w - sets[0])
        if w != sets[0]:
            baseline_strict.add(name)
    assert baseline_strict == {"17_mono_two_types", "22_church_mult"}
    print(f"criterion 6 PASS: singleton sets identical across "
          f"{len(LADDER)} ladder stages on {len(corpus)} programs; baseline "
          f"loses precision only on {sorted(baseline_strict)}")


def test_criterion_7_determinism(corpus):
    # tolerance: byte-identical graph and metrics exports across two
    # fresh runs of every stage on every program, timing fields excluded
    pairs = 0
    for name, src, e in corpus:
        for stage in STAGES:
            a = run(Config(stage=stage), e)
            b = run(Config(stage=stage), e)
            assert export_graph(a, "dot") == export_graph(b, "dot"), \
                (name, stage)
            assert export_graph(a, "json") == export_graph(b, "json"), \
                (name, stage)
            ma, mb = a.metrics(), b.metrics()
            for f in TIMING_FIELDS:
                ma.pop(f), mb.pop(f)
            assert ma == mb, (name, stage)
            pairs += 1
    print(f"criterion 7 PASS: {pairs} stage/program pairs byte-identical")
