"""Command-line interface: flags, exit codes, outputs."""

import csv
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from flowladder import cli, engine
from flowladder.cli import CSV_COLUMNS, _factor, main
from flowladder.engine import Config, export_graph, run
from flowladder.syntax import parse


@pytest.fixture
def id5(tmp_path):
    p = tmp_path / "id5.scm"
    p.write_text("((lambda (x) x) 5)\n")
    return str(p)


@pytest.fixture
def church():
    from tests.support import CORPUS_DIR
    return str(CORPUS_DIR / "22_church_mult.scm")


def test_analyze_writes_metrics_json(id5, tmp_path, capsys):
    out = tmp_path / "m.json"
    code = main(["analyze", id5, "--stage", "compiled", "--k", "0",
                 "--json", str(out)])
    assert code == 0
    line = capsys.readouterr().out
    assert "stage=compiled" in line
    assert "status=fixpoint" in line
    data = json.loads(out.read_text())
    assert set(data) == set(CSV_COLUMNS)
    assert data["states"] == 4


def test_analyze_writes_dot(id5, tmp_path):
    out = tmp_path / "g.dot"
    assert main(["analyze", id5, "--dot", str(out)]) == 0
    assert out.read_text().startswith("digraph")


def test_analyze_dot_writes_the_export_as_it_is_produced(tmp_path, capsys):
    # the bench's graph runs to more than one chunk of lines
    from tests.support import BENCH_DIR
    prog = str(BENCH_DIR / "church_dist.scm")
    out = tmp_path / "g.dot"
    assert main(["analyze", prog, "--dot", str(out)]) == 0
    want = export_graph(run(Config(), parse(Path(prog).read_text())), "dot")
    assert want.count("\n") > 2 * engine._CHUNK_LINES
    assert out.read_text() == want and want.endswith("}\n")
    capsys.readouterr()
    assert main(["analyze", prog, "--dot", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_analyze_dot_leaves_the_result_sets_unbuilt(tmp_path, monkeypatch):
    # the export and the states line read the result's tables
    results = []

    def kept_run(cfg, e):
        results.append(run(cfg, e))
        return results[-1]

    monkeypatch.setattr(cli, "run", kept_run)
    from tests.support import BENCH_DIR
    out = tmp_path / "g.dot"
    assert main(["analyze", str(BENCH_DIR / "church_dist.scm"),
                 "--dot", str(out)]) == 0
    [r] = results
    assert out.read_text().count(" -> ") == len(r.edge_table) > 0
    assert r._contexts is None and r._edges is None


def test_analyze_concrete_prints_final_value(id5, capsys):
    assert main(["analyze", id5, "--stage", "naive", "--concrete"]) == 0
    assert "value: 5" in capsys.readouterr().out


def test_analyze_concrete_prints_how_a_run_ended(tmp_path, capsys):
    # a stuck run names its reason and a capped one only its status; no
    # run without a value prints a value line
    stuck = tmp_path / "stuck.scm"
    stuck.write_text("(5 5)\n")
    assert main(["analyze", str(stuck), "--stage", "naive",
                 "--concrete"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["stuck: apply-non-function"]
    omega = tmp_path / "omega.scm"
    omega.write_text("((lambda (x) (x x)) (lambda (x) (x x)))\n")
    assert main(["analyze", str(omega), "--stage", "naive", "--concrete",
                 "--time-cap", "0.2"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and "status=time-cap" in out[0]


def test_analyze_concrete_prints_a_closure_as_exports_label_it(capsys):
    # a closure value prints as its skeleton: binder, body label, environment
    from tests.support import CORPUS_DIR
    for name, line in (("04_identity_closure", "value: clos(y,e4,{})"),
                       ("30_closure_result", "value: clos(a,e6,{pick:@1})")):
        path = str(CORPUS_DIR / f"{name}.scm")
        assert main(["analyze", path, "--stage", "naive", "--concrete"]) == 0
        assert line in capsys.readouterr().out.splitlines(), name


def test_free_variable_is_a_parse_error(tmp_path, capsys):
    p = tmp_path / "open.scm"
    p.write_text("(lambda (x) (x y))\n")
    assert main(["analyze", str(p)]) == 1
    err = capsys.readouterr().err
    assert "free variable" in err and "y" in err


def test_unreadable_and_unparsable_files(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.scm")]) == 1
    p = tmp_path / "bad.scm"
    p.write_text("((lambda (x)\n")
    assert main(["analyze", str(p)]) == 1
    assert "parse error" in capsys.readouterr().err


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    p = tmp_path / "latin.scm"
    p.write_bytes(b"((lambda (x) x) \xff)\n")
    for argv in (["analyze", str(p)], ["ladder", str(p)],
                 ["check", str(tmp_path)]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {p}: "), argv
        assert err.count("\n") == 1 and "Traceback" not in err, argv


def test_invalid_flag_combinations_exit_3(id5, capsys):
    assert main(["analyze", id5, "--stage", "bogus"]) == 3
    assert main(["analyze", id5, "--k", "-1"]) == 3
    assert main(["analyze", id5, "--stage", "widened", "--concrete"]) == 3
    assert main(["analyze", id5, "--time-cap", "nan"]) == 3
    capsys.readouterr()
    with pytest.raises(SystemExit) as ex:
        main(["analyze", id5, "--bad-flag"])
    assert ex.value.code == 3
    with pytest.raises(SystemExit) as ex:
        main([])
    assert ex.value.code == 3


def test_analyze_cap_exits_2(church, capsys):
    assert main(["analyze", church, "--stage", "widened",
                 "--time-cap", "1e-9"]) == 2
    assert "status=time-cap" in capsys.readouterr().out
    assert main(["analyze", church, "--mem-cap", "1"]) == 2
    assert "status=space-cap" in capsys.readouterr().out
    from tests.support import BENCH_DIR
    bench = str(BENCH_DIR / "church_dist.scm")
    assert main(["analyze", bench, "--k", "2", "--time-cap", "2"]) == 2
    assert "status=time-cap" in capsys.readouterr().out


def test_ladder_runs_the_full_ladder(church, capsys):
    assert main(["ladder", church]) == 0
    out = capsys.readouterr().out
    for stage in cli.LADDER_STAGES:
        assert stage in out
    rows = list(csv.reader(out[out.index("stage,"):].splitlines()))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + len(cli.LADDER_STAGES)
    states = [int(r[2]) for r in rows[1:]]
    assert states == sorted(states, reverse=True)


def test_ladder_single_stage_has_factor_one(id5, capsys):
    assert main(["ladder", id5, "--stages", "widened"]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("widened")][0]
    assert line.rstrip().endswith("1.00")


def test_ladder_rejects_unknown_stage(id5):
    assert main(["ladder", id5, "--stages", "widened,nope"]) == 3


def test_ladder_rejects_an_empty_stage_list(id5, capsys):
    # an empty list names one empty stage, not the default ladder
    assert main(["ladder", id5, "--stages", ""]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_ladder_csv_file(church, tmp_path, capsys):
    out = tmp_path / "ladder.csv"
    assert main(["ladder", church, "--csv", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == list(CSV_COLUMNS)
    assert {r[0] for r in rows[1:]} == set(cli.LADDER_STAGES)
    assert "stage," not in capsys.readouterr().out


@pytest.mark.parametrize("argv, where", [
    (["analyze", "--dot"], "missing"),
    (["analyze", "--json"], "directory"),
    (["ladder", "--stages", "widened", "--csv"], "missing"),
], ids=["dot", "json", "csv"])
def test_unwritable_output_path_exits_3(id5, tmp_path, capsys, argv, where):
    path = str(tmp_path / "no" / "x" if where == "missing" else tmp_path)
    assert main([argv[0], id5, *argv[1:], path]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_ladder_cap_exits_2(church, capsys):
    assert main(["ladder", church, "--time-cap", "1e-9"]) == 2


def test_factor_flags_cap_bounds():
    ok = {"wall_time_s": 10.0, "status": "fixpoint"}
    fast = {"wall_time_s": 2.0, "status": "fixpoint"}
    capped_base = {"wall_time_s": 10.0, "status": "time-cap"}
    capped_row = {"wall_time_s": 2.0, "status": "space-cap"}
    assert _factor(ok, fast) == "5.00"
    assert _factor(capped_base, fast) == ">=5.00"
    assert _factor(ok, capped_row) == "<=5.00"
    assert _factor(capped_base, capped_row) == "?"
    assert _factor(ok, {"wall_time_s": 0.0, "status": "fixpoint"}) == "?"


def test_check_passes_the_shipped_corpus(capsys):
    assert main(["check", "corpus"]) == 0
    assert "all stage verdicts hold" in capsys.readouterr().out


def test_check_empty_directory_warns(tmp_path, capsys):
    assert main(["check", str(tmp_path)]) == 0
    assert "warning" in capsys.readouterr().err


def test_check_rejects_non_directory(tmp_path):
    assert main(["check", str(tmp_path / "nope")]) == 3


def test_check_propagates_parse_errors(tmp_path):
    (tmp_path / "bad.scm").write_text("((((\n")
    assert main(["check", str(tmp_path)]) == 1


def test_deep_program_ends_in_a_result_or_a_cap(tmp_path, capsys):
    # nested 3,000 deep: the default stage reaches its fixpoint, and the
    # ladder's quadratic widened rung stops at the time cap
    p = tmp_path / "deep.scm"
    p.write_text("((lambda (x) " + "(add1 " * 3000 + "x" + ")" * 3000
                 + ") 5)\n")
    assert main(["analyze", str(p)]) == 0
    assert "status=fixpoint" in capsys.readouterr().out
    for argv in (["ladder", str(p)], ["check", str(tmp_path)]):
        assert main(argv + ["--time-cap", "0.3"]) == 2, argv
        assert "Traceback" not in capsys.readouterr().err, argv


@pytest.mark.parametrize("stage", ["imperative-prealloc", "compiled"])
def test_deep_program_reaches_its_fixpoint(tmp_path, capsys, stage):
    # nested 900 deep; no pass over the program recurses on its tree
    p = tmp_path / "deep.scm"
    p.write_text("((lambda (x) " + "(add1 " * 900 + "x" + ")" * 900
                 + ") 5)\n")
    argv = ["analyze", str(p)]
    if stage != "imperative-prealloc":  # the default stage
        argv += ["--stage", stage]
    assert main(argv) == 0
    assert "status=fixpoint" in capsys.readouterr().out


def test_check_cap_exits_2(tmp_path, capsys):
    (tmp_path / "p.scm").write_text("((lambda (x) x) 5)\n")
    assert main(["check", str(tmp_path), "--time-cap", "1e-12"]) == 2
    assert "cap exceeded" in capsys.readouterr().err


def test_check_catches_a_broken_stage(tmp_path, capsys, monkeypatch):
    # kill the lazy stepper outright: its run finds no successors, its
    # final values vanish, and the deltas vs lazy verdict diverges
    import flowladder.engine as engine
    monkeypatch.setattr(engine, "step_lazy", lambda *a, **kw: [])
    (tmp_path / "big.scm").write_text("((lambda (f) (f 1)) (lambda (x) x))\n")
    (tmp_path / "small.scm").write_text("((lambda (x) x) 5)\n")
    assert main(["check", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "check failed on 2 of 2 programs" in err
    assert "minimized counterexample (4 nodes): small.scm" in err
    assert "((lambda (x) x) 5)" in err
    assert "diverged" in err


def test_check_reports_smallest_failure_only(tmp_path, capsys, monkeypatch):
    fake = SimpleNamespace(
        rows=[{"stage": "frontier", "status": "fixpoint"}],
        verdicts=[("frontier", "deltas", "diverged")],
    )
    monkeypatch.setattr(cli, "compare_stages", lambda *a, **kw: fake)
    (tmp_path / "a_large.scm").write_text(
        "((lambda (f) (f 1)) (lambda (x) x))\n")
    (tmp_path / "z_small.scm").write_text("5\n")
    assert main(["check", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "z_small.scm" in err
    assert "a_large.scm" not in err
