"""The benchmark's layer wrappers still find, and put back, the callables
they wrap.  ``perfbench/layers.py`` replaces flowladder attributes by name,
so renaming one of them must fail here rather than in a benchmark run."""

import importlib.util
from pathlib import Path

import flowladder
from flowladder.engine import Config, run
from flowladder.syntax import parse

LAYERS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_trace_installs_and_restores_every_wrapper():
    trace = load_layers().LayerTrace(flowladder)
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
        # an untraced run snapshots its value cells once, to package
        assert trace.n["imperative.snapshot_calls"] == 1
        assert trace.n["compiled.step_calls"] > 0
        # the benchmark exports through the engine module's attribute
        flowladder.engine.export_graph(r, "dot")
        assert trace.n["engine.export_calls"] == 1
        # the hash store's join_at is wrapped too
        joins = trace.n["imperative.join_calls"]
        run(Config(stage="imperative"), e)
        assert trace.n["imperative.join_calls"] > joins
        assert trace.n["imperative.snapshot_calls"] == 2
        run(Config(stage="deltas"), e)
        assert trace.n["deltas.step_calls"] > 0
        assert trace.n["deltas.replay_calls"] > 0
    finally:
        trace.restore()
    for owner, name, old in wrapped:
        assert owner.__dict__[name] is old, name
