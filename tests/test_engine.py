"""Unified driver, graph export, cross-stage comparison."""

import gc
import hashlib
from array import array
import json
import random
import re
import tracemalloc
import types
from pathlib import Path

import pytest

from flowladder.cli import LADDER_STAGES, _verdict_violations
from flowladder.deltas import run_logged, step_with_deltas
from flowladder.domains import (
    ID_BITS,
    ID_MASK,
    ApC,
    CoC,
    EvC,
    IntVal,
    Store,
    StuckC,
    concrete_policy,
    kcfa_policy,
)
from flowladder.frontier import run_frontier
from flowladder.imperative import run_imperative
from flowladder.widening import analyze_baseline
from flowladder.syntax import App, Lam, parse, unparse
from flowladder.engine import (
    DEFAULT_SPACE_CAP,
    STAGES,
    Config,
    ConfigError,
    compare_stages,
    export_graph,
    rss_bytes,
    run,
)
from tests.support import (
    abstract_covers,
    load_bench,
    load_corpus,
    oracle_eval,
    OracleFuelOut,
    OracleStuck,
    random_program,
)

ABSTRACT_STAGES = STAGES[1:]


def corpus_program(name):
    return [c for c in load_corpus() if c[0] == name][0][2]


def test_config_rejects_invalid_combinations():
    with pytest.raises(ConfigError):
        Config(stage="interpretive-dance")
    with pytest.raises(ConfigError):
        Config(stage="widened", mode="concrete")
    with pytest.raises(ConfigError):
        Config(k=-1)
    with pytest.raises(ConfigError):
        Config(k="one")
    with pytest.raises(ConfigError):  # a bool is an int, but not a k
        Config(k=True)
    with pytest.raises(ConfigError):
        Config(time_cap=0)
    with pytest.raises(ConfigError):
        Config(time_cap=float("nan"))
    with pytest.raises(ConfigError):
        Config(space_cap=float("nan"))
    Config(stage="naive", mode="concrete")


def test_concrete_naive_runs_the_program():
    r = run(Config(stage="naive", mode="concrete"), parse("((lambda (x) x) 5)"))
    assert r.status == "fixpoint"
    assert r.values == frozenset({IntVal(5)})
    finals = [c for c, s in r.contexts
              if type(c).__name__ == "CoC" and type(c.kont).__name__ == "Halt"]
    assert len(finals) == 1


# counts up forever: concretely it never halts
COUNTING_LOOP = ("(((lambda (u) (lambda (n) ((u u) (add1 n))))"
                 " (lambda (u) (lambda (n) ((u u) (add1 n))))) 0)")

RUNNERS_PAST_NAIVE = {
    "analyze_baseline": analyze_baseline,
    "run_frontier": run_frontier,
    "run_logged": lambda e, pol, mode, **kw: run_logged(
        e, step_with_deltas, pol, mode, **kw),
    "run_imperative": run_imperative,
}


@pytest.mark.parametrize("name", sorted(RUNNERS_PAST_NAIVE))
@pytest.mark.parametrize("policy, mode", [
    (kcfa_policy(0), "concrete"), (concrete_policy(), "abstract")])
def test_runners_past_naive_refuse_a_concrete_run(name, policy, mode):
    def never(n_states, generation):
        raise AssertionError(f"{name} stepped before refusing the run")

    runner = RUNNERS_PAST_NAIVE[name]
    with pytest.raises(ValueError, match=re.escape(
            'Config(stage="naive", mode="concrete")')):
        runner(parse(COUNTING_LOOP), policy, mode, cap_check=never)


def test_every_stage_reaches_fixpoint_and_covers_oracle():
    e = parse("((lambda (x) (if (zero? x) 1 2)) 0)")
    z = oracle_eval(e, fuel=10_000)
    for stage in STAGES:
        r = run(Config(stage=stage), e)
        assert r.status == "fixpoint", stage
        assert abstract_covers(z, r.values), stage
        assert len(r.edges) <= len(r.contexts) ** 2


def test_metrics_record_schema():
    before = rss_bytes()
    r = run(Config(stage="deltas"), corpus_program("23_fanout"))
    m = r.metrics()
    assert set(m) == {"stage", "k", "states", "transitions", "generations",
                      "wall_time_s", "peak_mem_bytes", "states_per_sec",
                      "status"}
    assert m["states"] == len(r.contexts)
    assert m["transitions"] == len(r.edges)
    # the peak resident set size sampled during the run
    assert m["peak_mem_bytes"] >= before > 0
    assert m["states_per_sec"] == pytest.approx(m["transitions"] / m["wall_time_s"])


def test_edge_endpoints_are_reachable_contexts():
    e = corpus_program("22_church_mult")
    for stage in STAGES:
        r = run(Config(stage=stage), e)
        for s, d, g in r.edges:
            assert s in r.contexts and d in r.contexts, stage
            # the widened baseline tags edges found on its settling sweep
            # with the final generation number
            assert 0 <= g <= r.generations, stage


@pytest.mark.parametrize("k", [0, 1])
def test_result_sets_are_derived_from_the_tables(corpus, k):
    # a result holds the driver's tables; its sets are read from them
    for stage in STAGES:
        for name, src, e in corpus:
            r = run(Config(stage=stage, k=k), e)
            nodes, where = r.nodes, (stage, name)
            assert len(set(nodes)) == len(nodes), where
            assert nodes[0] == r.initial, where
            assert r.contexts == frozenset(nodes), where
            assert r.edges == {(nodes[key >> ID_BITS], nodes[key & ID_MASK], g)
                               for key, g in zip(*r.edge_arrays)}, where
            m = r.metrics()
            assert m["states"] == len(r.contexts), where
            assert m["transitions"] == len(r.edges), where
            assert r.contexts is r.contexts and r.edges is r.edges, where


@pytest.mark.parametrize("stage", ["imperative-prealloc", "deltas"])
def test_export_and_metrics_hash_no_context(stage, monkeypatch):
    # the exports and the metrics read the result's tables: they hash no
    # context, and leave its sets unbuilt
    r = run(Config(stage=stage), load_bench("church_dist.scm"))
    calls = []
    for cls in (EvC, CoC, ApC, StuckC):
        def counted(self, h=cls.__hash__):
            calls.append(self)
            return h(self)
        monkeypatch.setattr(cls, "__hash__", counted)
    hash(r.initial)
    assert len(calls) == 1
    calls.clear()
    export_graph(r, "dot")
    export_graph(r, "json")
    r.metrics()
    assert not calls
    assert r._contexts is None and r._edges is None


def _stores_reached(root) -> int:
    """How many Store objects root reaches through gc.get_referents, not
    counting what classes, modules and functions reach."""
    skip = (type, types.ModuleType, types.FunctionType)
    seen, work, n = set(), [root], 0
    while work:
        obj = work.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        n += type(obj) is Store
        work.extend(gc.get_referents(obj))
    return n


def test_each_result_holds_one_store(corpus):
    # a timestamped rung keeps only its newest store; the store history
    # is rebuilt from a trace when one is asked for
    for stage in ABSTRACT_STAGES:
        for name, src, e in corpus:
            r = run(Config(stage=stage), e)
            assert _stores_reached(r) == 1, (stage, name)


def test_a_result_holds_its_edges_in_two_arrays(corpus):
    # each edge is a machine word in each of two parallel arrays, which
    # hold no Python object; the run's dict of edges is not kept
    for stage in STAGES:
        for name, src, e in corpus:
            r = run(Config(stage=stage), e)
            keys, gens = r.edge_arrays
            where = (stage, name)
            assert type(keys) is array and keys.typecode == "Q", where
            assert type(gens) is array and gens.typecode == "I", where
            assert len(keys) == len(gens) == len(r.edges), where
            assert set(gc.get_referents(keys, gens)) <= {array}, where
            assert not any(type(x) is dict for x in gc.get_referents(r))


def test_a_result_store_holds_one_object_per_value_set(corpus):
    for stage in ABSTRACT_STAGES:
        for name, src, e in corpus:
            r = run(Config(stage=stage), e)
            kept = {}
            for a, vs in r.store.items():
                assert kept.setdefault(vs, vs) is vs, (stage, name, a)


def test_a_finished_bench_run_keeps_under_600_kib():
    # what a run leaves alive once it is done: 747 KiB on CPython 3.11
    # while the store held one frozenset per cell, the edges a dict and
    # every term a 36-byte hash, and 523 KiB (558 on 3.10) since
    e = load_bench("church_dist.scm")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        r = run(Config(stage="imperative-prealloc"), e)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert r.status == "fixpoint"
    assert kept <= 600 << 10, kept


def test_time_cap_yields_partial_result():
    e = corpus_program("22_church_mult")
    r = run(Config(stage="widened", time_cap=1e-9), e)
    assert r.status == "time-cap"
    r = run(Config(stage="imperative", time_cap=1e-9), e)
    assert r.status == "time-cap"


def test_space_cap_yields_partial_result():
    e = corpus_program("22_church_mult")
    for stage in ("frontier", "imperative-prealloc"):
        for cap in (1, rss_bytes() // 2):
            r = run(Config(stage=stage, space_cap=cap), e)
            assert r.status == "space-cap", (stage, cap)
            assert r.peak_mem_bytes > cap, (stage, cap)
        r = run(Config(stage=stage, space_cap=rss_bytes() + (256 << 20)), e)
        assert r.status == "fixpoint", stage


def test_time_cap_ends_a_k2_bench_run_with_partial_results():
    # at k=2 the bench has 60.5M possible addresses; minted on first use,
    # the run steps from its first generation, stays small, and stops at
    # the time cap with the states it reached
    r = run(Config(stage="imperative-prealloc", k=2, time_cap=2.0),
            load_bench("church_dist.scm"))
    assert r.status == "time-cap"
    assert r.generations > 0 and r.contexts
    assert r.peak_mem_bytes < DEFAULT_SPACE_CAP
    assert json.loads(export_graph(r, "json"))["initial"] is not None
    assert export_graph(r, "dot").count("->") == len(r.edges) > 0


def test_k1_bench_reaches_its_fixpoint_within_a_minute():
    # re-stepping every context each time the store grows took about 100 s
    e = load_bench("church_dist.scm")
    r = run(Config(stage="imperative-prealloc", k=1, time_cap=60), e)
    assert r.status == "fixpoint"
    assert len(r.contexts) == 19_548
    assert abstract_covers(oracle_eval(e), r.values)


def test_run_leaves_tracemalloc_as_it_found_it():
    e = corpus_program("22_church_mult")
    assert not tracemalloc.is_tracing()
    run(Config(stage="deltas"), e)
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        ballast = bytearray(8 << 20)
        del ballast
        _, peak = tracemalloc.get_traced_memory()
        run(Config(stage="deltas"), e)
        assert tracemalloc.is_tracing()
        assert tracemalloc.get_traced_memory()[1] >= peak >= 8 << 20
    finally:
        tracemalloc.stop()


def _export_peak_over_text(r, fmt):
    """The traced peak of one export of ``r`` above its start, over the
    length of its text.  The export must leave tracemalloc off as it found
    it and, with the collector paused, nothing for ``gc.collect()``."""
    assert not tracemalloc.is_tracing()
    gc.collect()
    gc.disable()
    try:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            text = export_graph(r, fmt)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        ratio = peak / len(text)
        del text
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert not tracemalloc.is_tracing()
    return ratio


@pytest.mark.parametrize("stage", ["imperative-prealloc", "deltas"])
def test_dot_export_holds_its_text_once(stage):
    # the DOT export once held its lines, their join and the join with its
    # last newline at once, 4.0-4.3 times the text on these runs
    r = run(Config(stage=stage), load_bench("church_dist.scm"))
    assert _export_peak_over_text(r, "dot") <= 3


@pytest.mark.parametrize("stage", ["imperative-prealloc", "deltas"])
def test_json_export_holds_its_text_once(stage):
    # the JSON export once built a dict per node and per edge and ran
    # json's pure-Python indenting encoder over them, 7.9-9.1 times the
    # text on these runs
    r = run(Config(stage=stage), load_bench("church_dist.scm"))
    assert _export_peak_over_text(r, "json") <= 3


def _bench_row(name):
    """The bench's row ``name`` behind the bench's 14 definitions, with
    the row as the result: the program one row of the benchmark's draws
    analyzes."""
    node = load_bench("church_dist.scm")
    binds = []
    while isinstance(node, App) and isinstance(node.fn, Lam):
        binds.append((node.fn.var, unparse(node.arg)))
        node = node.fn.body
    text = name
    for var, arg in reversed(binds[:14] + [b for b in binds if b[0] == name]):
        text = f"((lambda ({var}) {text}) {arg})"
    return parse(text)


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_a_draw_export_holds_its_text_once(fmt):
    # a draw's export, some 700 DOT lines, once fitted in one chunk of
    # 1,024 lines, each line alive beside the chunk: 2.46-2.59 times the
    # text; in chunks of 64 lines it is 2.03
    r = run(Config(stage="deltas"), _bench_row("r1"))
    assert _export_peak_over_text(r, fmt) <= 2.2


def test_single_node_graph():
    r = run(Config(stage="compiled"), parse("7"))
    dot = export_graph(r, "dot")
    assert dot.startswith("digraph")
    assert dot.count("->") == 0
    assert dot.count("fillcolor") == 1


def test_exports_are_deterministic_across_fresh_runs():
    for name in ("23_fanout", "22_church_mult"):
        e = corpus_program(name)
        for stage in ("naive", "widened", "lazy", "compiled", "imperative"):
            a = run(Config(stage=stage), e)
            b = run(Config(stage=stage), e)
            assert export_graph(a, "dot") == export_graph(b, "dot"), (name, stage)
            assert export_graph(a, "json") == export_graph(b, "json"), (name, stage)


DIGESTS_PATH = Path(__file__).with_name("export_digests.json")
# bench stages cheap enough at k=0 for a unit test
DIGEST_BENCH_STAGES = ("deltas", "compiled", "imperative-prealloc")


def export_digests():
    """SHA-256 of the DOT and of the JSON export, keyed "program stage k=K":
    every corpus program under every stage at k=0 and k=1, and the bench at
    k=0 under ``DIGEST_BENCH_STAGES``.  The naive runs cover the tie-break
    by repr between contexts with equal skeletons."""
    runs = [(name, e, stage, k) for name, _, e in load_corpus()
            for k in (0, 1) for stage in STAGES]
    bench = load_bench("church_dist.scm")
    runs += [("church_dist", bench, stage, 0) for stage in DIGEST_BENCH_STAGES]
    out = {}
    for name, e, stage, k in runs:
        r = run(Config(stage=stage, k=k), e)
        assert r.status == "fixpoint", (name, stage, k)
        out[f"{name} {stage} k={k}"] = [
            hashlib.sha256(export_graph(r, fmt).encode()).hexdigest()
            for fmt in ("dot", "json")]
    return out


def test_exports_match_pinned_digests():
    # re-pin after a deliberate change to the export format with
    # ``PYTHONPATH=src python3 -m tests.test_engine``
    want = json.loads(DIGESTS_PATH.read_text())
    got = export_digests()
    assert got.keys() == want.keys()
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"{len(changed)} exports changed, first {changed[:5]}"


def test_dot_labels_escape_quotes_and_backslashes():
    # atoms may hold '"' and '\\', so variable names, and the labels that
    # name them, can too; DOT must get them escaped, and every label must
    # read back as the JSON export's
    e = parse('((lambda (a"b) ((lambda (c\\d) (a"b c\\d)) a"b))'
              ' (lambda (x) x))')
    label_re = re.compile(r'label="((?:[^"\\]|\\.)*)", fillcolor')
    for stage in STAGES:
        r = run(Config(stage=stage), e)
        dot = export_graph(r, "dot")
        labels = [m[1] for m in label_re.finditer(dot)]
        nodes = json.loads(export_graph(r, "json"))["nodes"]
        assert len(labels) == len(nodes) == dot.count("fillcolor"), stage
        assert [re.sub(r"\\(.)", r"\1", s) for s in labels] \
            == [n["label"] for n in nodes], stage
        assert 'a\\"b' in dot and "c\\\\d" in dot, stage
        assert any('"' in n["label"] and "\\" in n["label"]
                   for n in nodes), stage


def test_export_rejects_an_unknown_format():
    r = run(Config(stage="lazy"), corpus_program("23_fanout"))
    with pytest.raises(ValueError):
        export_graph(r, "gif")


def _out_degrees(graph_json):
    data = json.loads(graph_json)
    shapes = {n["id"]: n["shape"] for n in data["nodes"]}
    succs = {}
    for edge in data["edges"]:
        succs.setdefault(edge["src"], []).append(edge["dst"])
    return shapes, succs


def test_fanout_happens_early_in_baseline_late_in_lazy():
    # a multi-valued variable reference splits the baseline graph at the
    # lookup itself, so some ev node has out-degree >= 2; with delayed
    # lookups every ev node is deterministic and the split waits for a
    # forcing point (a co or ap node)
    e = corpus_program("23_fanout")
    shapes, succs = _out_degrees(export_graph(run(Config(stage="widened"), e), "json"))
    assert any(len(ds) >= 2 and shapes[src] == "ev" for src, ds in succs.items())
    shapes, succs = _out_degrees(export_graph(run(Config(stage="lazy"), e), "json"))
    for src, ds in succs.items():
        if len(ds) >= 2:
            assert shapes[src] in ("co", "ap")


def test_compiled_graph_has_no_ev_nodes():
    for name in ("23_fanout", "22_church_mult"):
        for stage in ("compiled", "imperative", "imperative-prealloc"):
            g = export_graph(run(Config(stage=stage), corpus_program(name)), "json")
            shapes = {n["shape"] for n in json.loads(g)["nodes"]}
            assert "ev" not in shapes, (name, stage)


def test_verdict_classes_down_the_ladder():
    e = corpus_program("23_fanout")
    cmp = compare_stages(e, list(STAGES[1:]))
    got = {(a, b): v for a, b, v in cmp.verdicts}
    assert got[("widened", "frontier")] in ("equal", "subset")
    assert got[("frontier", "deltas")] == "equal"
    assert got[("deltas", "lazy")].startswith("sound")
    assert got[("lazy", "compiled")].startswith("sound")
    assert got[("compiled", "imperative")] == "equal"
    assert got[("imperative", "imperative-prealloc")] == "equal"
    assert len(cmp.rows) == 7


def test_frontier_can_be_a_strict_subset_of_widened():
    e = corpus_program("22_church_mult")
    cmp = compare_stages(e, ["widened", "frontier"])
    assert cmp.verdicts == [("widened", "frontier", "subset")]


def test_generated_programs_meet_the_verdict_table():
    # the relations ``flowladder check`` demands, on programs no corpus
    # holds; every rung must also cover the oracle's value when it has one
    rng = random.Random(15)
    for n in range(300):
        e = random_program(rng, budget=rng.randrange(2, 20))
        try:
            ov, ends = oracle_eval(e, fuel=10_000), True
        except (OracleStuck, OracleFuelOut):
            ov, ends = None, False
        for k in (0, 1):
            where = (n, k, unparse(e))
            cmp = compare_stages(e, list(LADDER_STAGES), k=k)
            assert _verdict_violations(cmp) == [], where
            for r in cmp.results:
                assert r.status == "fixpoint", (r.stage,) + where
                if ends:
                    assert abstract_covers(ov, r.values), (r.stage,) + where


def test_compare_stages_needs_two():
    with pytest.raises(ValueError):
        compare_stages(parse("7"), ["widened"])


if __name__ == "__main__":
    with open(DIGESTS_PATH, "w") as f:
        json.dump(export_digests(), f, indent=0, sort_keys=True)
        f.write("\n")
