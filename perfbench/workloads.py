"""Workloads of the flowladder benchmark: their inputs, their operation and
the correctness check every operation must pass.

An operation is what one user request costs through the public entry
points.  On the ``analyze`` workloads it is what ``flowladder analyze
--dot`` does: parse, ``run(Config(stage, k))``, ``export_graph(r, "dot")``.
On ``corpus-check`` it is what ``flowladder check`` does for one file:
parse, ``compare_stages`` over the ladder from ``widened``, and the
verdict relations.

Inputs are made from the seed alone.  The ``*-draw`` workloads draw rows of
``bench/church_dist.scm`` (36 ``rN`` rows over 14 shared definitions): the
seed shuffles the 36 rows ``rows`` times and cuts every shuffle into groups
of ``rows``, giving a pool of 36 programs in which every row appears
``rows`` times.  A run cycles through the pool, so its median is taken over
many draws and every row weighs the same; one fixed draw per run would make
the figures depend on which rows the seed happened to pick.  Both draw
workloads take one row per draw: a 4-row draw at k=1 costs 2.5 s or 4 s
depending on the rows, so with several rows per draw the rows the seed
grouped, not the program, would set the spread between seeds.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLE_PATH = ROOT / "tests" / "support.py"
BENCH_PATH = ROOT / "bench" / "church_dist.scm"
CORPUS_DIR = ROOT / "corpus"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

ORACLE_MODULE = "flowladder_bench_oracle"
DEFAULT_SEED = 1
BENCH_DEFS = 14
BENCH_ROWS = 36

LADDER = ("widened", "frontier", "deltas", "lazy", "compiled", "imperative",
          "imperative-prealloc")

# The README's relations between adjacent rungs of the ladder.  Kept here,
# not imported from the CLI, so a change to the CLI cannot loosen the check.
RELATIONS = {
    ("widened", "frontier"): ("equal", "subset"),
    ("frontier", "deltas"): ("equal",),
    ("deltas", "lazy"): ("equal", "sound, <= states"),
    ("lazy", "compiled"): ("equal", "sound, <= states"),
    ("compiled", "imperative"): ("equal",),
    ("imperative", "imperative-prealloc"): ("equal",),
}

# The rung that agrees state for state with each measured stage; the
# expected state counts are checked against it when they are written.
REFERENCE_RUNG = {"imperative-prealloc": "compiled", "deltas": "frontier"}


class Workload:
    __slots__ = ("name", "kind", "stage", "k", "rows")

    def __init__(self, name, kind, stage, k, rows):
        self.name = name
        self.kind = kind              # "analyze" or "check"
        self.stage = stage            # None for "check": the whole ladder
        self.k = k
        self.rows = rows              # rows per draw; None for fixed inputs

    def stages(self):
        return (self.stage,) if self.stage else LADDER


# BENCHMARK.json lists all but church-k0.  Its operation takes about ten
# seconds, so a run holds two of them, and its figures spread by 18-19%
# between ten runs even after calibration; ``--report`` still prints it and
# its layer counts.
WORKLOADS = {w.name: w for w in (
    Workload("church-k0", "analyze", "imperative-prealloc", 0, None),
    Workload("church-k1-draw", "analyze", "imperative-prealloc", 1, 1),
    Workload("persistent-k0-draw", "analyze", "deltas", 0, 1),
    Workload("corpus-check", "check", None, 0, None),
)}


class Program:
    """One input: a key naming it in the expected file, its source text and
    its parsed node count."""

    __slots__ = ("key", "src", "nodes")

    def __init__(self, key, src, nodes=0):
        self.key = key
        self.src = src
        self.nodes = nodes


# ------------------------------------------------------------------ set-up

def import_flowladder():
    """Import flowladder from the checkout's sources and the test suite's
    big-step oracle, dropping any earlier import first so that each call
    pays the whole import again."""
    for name in list(sys.modules):
        if name == "flowladder" or name.startswith("flowladder.") \
                or name == ORACLE_MODULE:
            del sys.modules[name]
    if not (SRC / "flowladder" / "__init__.py").is_file():
        raise FileNotFoundError(f"flowladder sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    fl = importlib.import_module("flowladder")
    for sub in ("compiled", "deltas", "domains", "engine", "frontier",
                "imperative", "lazy", "syntax", "widening"):
        importlib.import_module(f"flowladder.{sub}")
    spec = importlib.util.spec_from_file_location(ORACLE_MODULE, ORACLE_PATH)
    oracle = importlib.util.module_from_spec(spec)
    sys.modules[ORACLE_MODULE] = oracle
    spec.loader.exec_module(oracle)
    return fl, oracle


def bench_bindings(fl, src):
    """Split the bench into its 14 definitions and 36 rows, each a
    (name, source) pair, in binding order."""
    App, Lam = fl.syntax.App, fl.syntax.Lam
    node = fl.parse(src)
    binds = []
    while isinstance(node, App) and isinstance(node.fn, Lam):
        binds.append((node.fn.var, fl.unparse(node.arg)))
        node = node.fn.body
    defs, rows = binds[:BENCH_DEFS], binds[BENCH_DEFS:]
    if len(rows) != BENCH_ROWS or not all(v.startswith("r") for v, _ in rows):
        raise ValueError(f"{BENCH_PATH} no longer has {BENCH_ROWS} rows "
                         f"after {BENCH_DEFS} definitions")
    return defs, rows


def draw_pool(name, seed, rows):
    """Row-index tuples of the seeded draws: ``rows`` shuffles of the 36
    rows, each cut into groups of ``rows``."""
    if BENCH_ROWS % rows:
        raise ValueError(f"{rows} rows per draw do not divide {BENCH_ROWS}")
    rng = random.Random(f"{name}/{seed}")
    pool = []
    for _ in range(rows):
        order = list(range(BENCH_ROWS))
        rng.shuffle(order)
        pool.extend(tuple(sorted(order[i:i + rows]))
                    for i in range(0, BENCH_ROWS, rows))
    return pool


def draw_program(defs, rows, chosen):
    """The definitions, the chosen rows in bench order, and the first chosen
    row as the result, as the bench returns its first row."""
    binds = defs + [rows[i] for i in chosen]
    text = rows[chosen[0]][0]
    for var, arg in reversed(binds):
        text = f"((lambda ({var}) {text}) {arg})"
    return Program("+".join(rows[i][0] for i in chosen), text)


def make_inputs(fl, wl, seed):
    """The workload's input pool for this seed, in the order a run uses it."""
    if wl.kind == "check":
        progs = [Program(p.stem, p.read_text())
                 for p in sorted(CORPUS_DIR.glob("*.scm"))]
        if not progs:
            raise FileNotFoundError(f"no corpus programs in {CORPUS_DIR}")
        random.Random(f"{wl.name}/{seed}").shuffle(progs)
        return progs
    src = BENCH_PATH.read_text()
    if wl.rows is None:
        return [Program(BENCH_PATH.stem, src)]
    defs, rows = bench_bindings(fl, src)
    return [draw_program(defs, rows, chosen)
            for chosen in draw_pool(wl.name, seed, wl.rows)]


def load_expected(wl):
    with open(EXPECTED_PATH) as f:
        return json.load(f)["workloads"][wl.name]["states"]


class Bench:
    """Everything one set-up produces: the imported modules, the inputs and
    the expected results."""

    __slots__ = ("wl", "fl", "oracle", "inputs", "expected", "_oracle_values")

    def __init__(self, wl, seed):
        self.wl = wl
        self.fl, self.oracle = import_flowladder()
        self.inputs = make_inputs(self.fl, wl, seed)
        for p in self.inputs:
            e = self.fl.parse(p.src)
            if self.fl.free_vars(e):
                raise ValueError(f"input {p.key} is not closed")
            p.nodes = self.fl.node_count(e)
        self.expected = load_expected(wl)
        self._oracle_values = {}

    # ------------------------------------------------------- the operation

    def op(self, prog):
        """One request.  Functions are looked up on their modules at call
        time, so the layer pass sees every call through its wrappers."""
        engine = self.fl.engine
        e = self.fl.syntax.parse(prog.src)
        if self.wl.kind == "analyze":
            r = engine.run(engine.Config(stage=self.wl.stage, k=self.wl.k), e)
            engine.export_graph(r, "dot")
            return [r], []
        cmp = engine.compare_stages(e, list(LADDER), k=self.wl.k)
        bad = [f"{a} vs {b}: {v!r}" for a, b, v in cmp.verdicts
               if v not in RELATIONS[(a, b)]]
        return cmp.results, bad

    # ----------------------------------------------------------- the check

    def oracle_value(self, prog):
        if prog.key not in self._oracle_values:
            e = self.fl.parse(prog.src)
            self._oracle_values[prog.key] = self.oracle.oracle_eval(
                e, fuel=2_000_000)
        return self._oracle_values[prog.key]

    def problems(self, prog, results, bad_verdicts):
        """Why an operation's output is wrong; empty when it is right."""
        out = list(bad_verdicts)
        want = self.expected.get(prog.key)
        ov = self.oracle_value(prog)
        for r in results:
            where = f"{prog.key} {r.stage} k={r.k}"
            if r.status != "fixpoint":
                out.append(f"{where}: status {r.status}")
            if not self.oracle.abstract_covers(ov, r.values):
                out.append(f"{where}: final values miss the oracle's {ov!r}")
            n = want.get(r.stage) if isinstance(want, dict) else want
            if n is not None and len(r.contexts) != n:
                out.append(f"{where}: {len(r.contexts)} states, "
                           f"expected {n}")
        return out


# --------------------------------------------------- the expected results

def direct_run(fl, stage, e, k):
    """Call the stage's engine directly, as ``run()`` does but without the
    cap checks, tracemalloc and result packaging it adds."""
    pol = fl.domains.kcfa_policy(k)
    if stage == "widened":
        return fl.widening.analyze_baseline(e, pol, "abstract")
    if stage == "frontier":
        return fl.frontier.run_frontier(e, pol, "abstract")
    if stage in ("deltas", "lazy", "compiled"):
        stepper = {"deltas": fl.deltas.step_with_deltas,
                   "lazy": fl.lazy.step_lazy,
                   "compiled": fl.compiled.step_compiled}[stage]
        kw = {"inject": fl.compiled.inject_compiled} \
            if stage == "compiled" else {}
        return fl.deltas.run_logged(e, stepper, pol, "abstract", **kw)
    return fl.imperative.run_imperative(
        e, pol, "abstract", prealloc=(stage == "imperative-prealloc"))


def write_expected():
    """Record the state counts of the default seed's inputs.  Each count of
    a measured stage is checked against the rung that agrees with it state
    for state before it is written."""
    fl, _ = import_flowladder()
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for wl in WORKLOADS.values():
        states = {}
        for prog in make_inputs(fl, wl, DEFAULT_SEED):
            e = fl.parse(prog.src)
            if wl.kind == "check":
                cmp = fl.compare_stages(e, list(LADDER), k=wl.k)
                states[prog.key] = {r.stage: len(r.contexts)
                                    for r in cmp.results}
                continue
            n = len(direct_run(fl, wl.stage, e, wl.k).contexts)
            ref = REFERENCE_RUNG[wl.stage]
            n_ref = len(direct_run(fl, ref, e, wl.k).contexts)
            if n != n_ref:
                raise AssertionError(f"{wl.name} {prog.key}: {wl.stage} has "
                                     f"{n} states, {ref} has {n_ref}")
            states[prog.key] = n
            print(f"{wl.name} {prog.key}: {n} states", file=sys.stderr)
        out["workloads"][wl.name] = {
            "stage": wl.stage or ",".join(LADDER), "k": wl.k,
            "rows_per_draw": wl.rows, "states": dict(sorted(states.items())),
        }
    with open(EXPECTED_PATH, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
