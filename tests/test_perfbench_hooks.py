"""The benchmark's hooks into flowladder still hold.  ``perfbench/layers.py``
replaces flowladder attributes by name, and ``perfbench/workloads.py`` calls
the rungs' runners directly, positionally; renaming one of those callables
or dropping one of their positional slots must fail here rather than in a
benchmark run."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowladder
from flowladder.engine import Config, run
from flowladder.syntax import parse
from tests.support import load_corpus

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_perfbench(name):
    """Load ``perfbench/<name>.py`` by path, leaving sys.modules alone."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_trace_installs_and_restores_every_wrapper():
    trace = load_perfbench("layers").LayerTrace(flowladder)
    trace.install()
    try:
        wrapped = list(trace._undo)
        assert wrapped
        for owner, name, old in wrapped:
            assert owner.__dict__[name] is not old, name
        e = parse("((lambda (x) x) 5)")
        r = run(Config(stage="imperative-prealloc"), e)
        assert trace.n["imperative.layout_calls"] == 1
        assert trace.n["imperative.join_calls"] > 0
        # an untraced run snapshots its value cells once, for its result
        assert trace.n["imperative.snapshot_calls"] == 1
        assert trace.n["compiled.step_calls"] > 0
        # the benchmark exports through the engine module's attribute
        flowladder.engine.export_graph(r, "dot")
        assert trace.n["engine.export_calls"] == 1
        # the hash store's join_at is wrapped too, and the two stores make
        # the same writes, each counted once
        joins = trace.n["imperative.join_calls"]
        run(Config(stage="imperative"), e)
        assert trace.n["imperative.join_calls"] == 2 * joins
        assert trace.n["imperative.snapshot_calls"] == 2
        # every rung calls its stepper or injection through the name its
        # wrapper replaced, so each rung moves its own counter
        for stage, counter in (("deltas", "deltas.step_calls"),
                               ("widened", "widening.baseline_step_calls"),
                               ("frontier", "frontier.step_calls"),
                               ("lazy", "lazy.step_calls"),
                               ("compiled", "compiled.inject_calls")):
            before = trace.n[counter]
            run(Config(stage=stage), e)
            assert trace.n[counter] > before, stage
        assert trace.n["deltas.replay_calls"] > 0
        # only preallocation lays out its addresses
        assert trace.n["imperative.layout_calls"] == 1
    finally:
        trace.restore()
    for owner, name, old in wrapped:
        assert owner.__dict__[name] is old, name


@pytest.mark.parametrize("k", [0, 1])
def test_direct_runs_match_the_engine_on_every_rung(k):
    # workloads.import_flowladder would drop the flowladder modules this
    # test compares against, so the direct runs go through this import
    workloads = load_perfbench("workloads")
    e = [p for name, _, p in load_corpus() if name == "24_u_countdown"][0]
    for stage in workloads.LADDER:
        direct = workloads.direct_run(flowladder, stage, e, k)
        assert direct.contexts == run(Config(stage=stage, k=k), e).contexts, \
            stage


def layer_pass(workload):
    """The last line of the benchmark's layer pass on ``workload``, run in
    a fresh process, which must end well with every operation correct."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload",
         workload, "--seed", "1", "--trace", "1"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.splitlines()[-1])
    assert last["correct"] is True, last
    assert last["failed"] == 0, last
    return last


def test_layer_pass_runs_correctly():
    # the benchmark's own layer pass on its smallest workload: a wrapper
    # the engine no longer calls through shows here as failed operations
    layer_pass("corpus-check")


def test_persistent_layer_pass_counts_its_replays():
    # the persistent workload's replays go through ``deltas.replay`` by
    # name, and the cells they grow are counted from its change flag
    metrics = layer_pass("persistent-k0-draw")["metrics"]
    for name in ("deltas.step_calls", "deltas.replay_calls",
                 "deltas.replay_changed"):
        assert metrics[name]["value"] > 0, name
