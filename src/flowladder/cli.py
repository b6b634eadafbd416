"""Command-line front end: analyze one program, time the ladder, check a corpus.

Exit codes: 0 success, 1 program does not parse (free variables included),
2 a cap was exceeded, 3 bad flags or an output path that cannot be
written, 4 a cross-stage check failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .domains import StuckC
from .engine import (
    DEFAULT_SPACE_CAP,
    DEFAULT_TIME_CAP,
    STAGES,
    Config,
    ConfigError,
    compare_stages,
    dot_chunks,
    run,
)
from .syntax import ParseError, free_vars, node_count, parse

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CAP = 2
EXIT_FLAGS = 3
EXIT_CHECK = 4

CSV_COLUMNS = ("stage", "k", "states", "transitions", "generations",
               "wall_time_s", "peak_mem_bytes", "states_per_sec", "status")

LADDER_STAGES = STAGES[1:]

# what the theorems promise for each adjacent pair of the full ladder
_EXPECTED_VERDICTS = {
    ("widened", "frontier"): ("equal", "subset"),
    ("frontier", "deltas"): ("equal",),
    ("deltas", "lazy"): ("equal", "sound, <= states"),
    ("lazy", "compiled"): ("equal", "sound, <= states"),
    ("compiled", "imperative"): ("equal",),
    ("imperative", "imperative-prealloc"): ("equal",),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; 2 is taken by cap overruns here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_FLAGS, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="flowladder",
                description="Staged abstract-machine analyzer for ISWIM.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--k", type=int, default=0,
                        help="call-site history length (default 0)")
        sp.add_argument("--time-cap", type=float, default=DEFAULT_TIME_CAP,
                        help="seconds before a run is cut off")
        sp.add_argument("--mem-cap", type=int, default=DEFAULT_SPACE_CAP,
                        help="resident bytes (process RSS) before a run is "
                             "cut off")

    a = sub.add_parser("analyze", help="run one stage on one program")
    a.add_argument("program", help="path to an ISWIM source file")
    a.add_argument("--stage", default="imperative-prealloc",
                   help=f"one of: {', '.join(STAGES)}")
    a.add_argument("--concrete", action="store_true",
                   help="run the concrete machine (naive stage only)")
    a.add_argument("--dot", metavar="PATH",
                   help="write the reachable-state graph as Graphviz dot")
    a.add_argument("--json", metavar="PATH", help="write metrics as JSON")
    common(a)

    l = sub.add_parser("ladder", help="run stages in sequence and compare")
    l.add_argument("program", help="path to an ISWIM source file")
    l.add_argument("--stages", default=",".join(LADDER_STAGES),
                   help="comma-separated stage list (default: full ladder "
                        "from widened)")
    l.add_argument("--csv", metavar="PATH",
                   help="write the metrics table as CSV (default: stdout)")
    common(l)

    c = sub.add_parser("check", help="verify stage agreement over a corpus")
    c.add_argument("corpus", help="directory of .scm programs")
    common(c)
    return p


def _load_program(path: str):
    """Returns (exit_code, expr). Free variables are a parse failure: the
    machines only run closed programs."""
    try:
        src = Path(path).read_text()
    except OSError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return EXIT_PARSE, None
    except UnicodeDecodeError as ex:
        print(f"parse error: {path}: {ex}", file=sys.stderr)
        return EXIT_PARSE, None
    try:
        e = parse(src)
    except ParseError as ex:
        print(f"parse error: {path}: {ex}", file=sys.stderr)
        return EXIT_PARSE, None
    free = free_vars(e)
    if free:
        names = ", ".join(sorted(free))
        print(f"parse error: {path}: free variable: {names}", file=sys.stderr)
        return EXIT_PARSE, None
    return EXIT_OK, e


def _write(path, chunks) -> bool:
    """Write an output file from an iterable of text chunks, as they come,
    or say why it cannot be written and fail."""
    try:
        with open(path, "w") as f:
            f.writelines(chunks)
    except OSError as ex:
        print(f"error: {path}: {ex.strerror or ex}", file=sys.stderr)
        return False
    return True


def _config(stage, args, mode="abstract"):
    return Config(stage=stage, k=args.k, mode=mode,
                  time_cap=args.time_cap, space_cap=args.mem_cap)


def _capped(status: str) -> bool:
    return status.endswith("-cap")


def cmd_analyze(args) -> int:
    code, e = _load_program(args.program)
    if code:
        return code
    mode = "concrete" if args.concrete else "abstract"
    try:
        cfg = _config(args.stage, args, mode)
    except ConfigError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_FLAGS
    r = run(cfg, e)
    if args.dot and not _write(args.dot, dot_chunks(r)):
        return EXIT_FLAGS
    if args.json and not _write(args.json, (json.dumps(
            r.metrics(), sort_keys=True, indent=1), "\n")):
        return EXIT_FLAGS
    print(f"stage={r.stage} states={len(r.nodes)} "
          f"time={r.wall_time_s:.3f}s status={r.status}")
    if args.concrete and not _capped(r.status):
        if r.values:
            print("value:", " ".join(sorted(map(repr, r.values))))
        for c, _ in r.nodes:
            if isinstance(c, StuckC):
                print(f"stuck: {c.reason}")
    return EXIT_CAP if _capped(r.status) else EXIT_OK


def _factor(base, row) -> str:
    """Speedup of row over the first rung; a capped baseline only gives a
    lower bound on its own time, so the quotient is flagged as one."""
    if row["wall_time_s"] <= 0:
        return "?"
    f = base["wall_time_s"] / row["wall_time_s"]
    base_cap, row_cap = _capped(base["status"]), _capped(row["status"])
    if base_cap and row_cap:
        return "?"
    if base_cap:
        return f">={f:.2f}"
    if row_cap:
        return f"<={f:.2f}"
    return f"{f:.2f}"


def _csv_text(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(CSV_COLUMNS)
    for m in rows:
        w.writerow([m[c] for c in CSV_COLUMNS])
    return buf.getvalue()


def cmd_ladder(args) -> int:
    code, e = _load_program(args.program)
    if code:
        return code
    try:
        cfgs = [_config(s, args) for s in args.stages.split(",")]
    except ConfigError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_FLAGS
    rows = [run(c, e).metrics() for c in cfgs]
    base = rows[0]

    head = (f"{'stage':<22}{'states':>8}{'trans':>9}{'gens':>6}"
            f"{'time_s':>10}{'status':>10}{'speedup':>9}")
    print(head)
    for m in rows:
        print(f"{m['stage']:<22}{m['states']:>8}{m['transitions']:>9}"
              f"{m['generations']:>6}{m['wall_time_s']:>10.3f}"
              f"{m['status']:>10}{_factor(base, m):>9}")

    text = _csv_text(rows)
    if not args.csv:
        print(text, end="")
    elif not _write(args.csv, (text,)):
        return EXIT_FLAGS
    return EXIT_CAP if any(_capped(m["status"]) for m in rows) else EXIT_OK


def _verdict_violations(cmp) -> list:
    out = []
    for a, b, verdict in cmp.verdicts:
        allowed = _EXPECTED_VERDICTS.get((a, b))
        if allowed is None:
            allowed = ("equal", "subset", "sound, <= states", "sound")
        if verdict not in allowed:
            out.append(f"{a} vs {b}: got {verdict!r}, expected one of {allowed}")
    return out


def cmd_check(args) -> int:
    root = Path(args.corpus)
    if not root.is_dir():
        print(f"error: {args.corpus} is not a directory", file=sys.stderr)
        return EXIT_FLAGS
    paths = sorted(root.glob("*.scm"))
    if not paths:
        print(f"warning: no .scm programs in {args.corpus}", file=sys.stderr)
        return EXIT_OK
    try:
        _config(LADDER_STAGES[0], args)
    except ConfigError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_FLAGS

    failures = []
    for path in paths:
        code, e = _load_program(str(path))
        if code:
            return code
        cmp = compare_stages(e, list(LADDER_STAGES), k=args.k,
                             time_cap=args.time_cap, space_cap=args.mem_cap)
        capped = [m["stage"] for m in cmp.rows if _capped(m["status"])]
        if capped:
            print(f"cap exceeded on {path.name} at: {', '.join(capped)}",
                  file=sys.stderr)
            return EXIT_CAP
        bad = _verdict_violations(cmp)
        if bad:
            failures.append((node_count(e), path, bad))

    if not failures:
        print(f"checked {len(paths)} programs: all stage verdicts hold")
        return EXIT_OK
    failures.sort(key=lambda f: (f[0], f[1].name))
    size, path, bad = failures[0]
    print(f"check failed on {len(failures)} of {len(paths)} programs",
          file=sys.stderr)
    print(f"minimized counterexample ({size} nodes): {path.name}",
          file=sys.stderr)
    print(path.read_text().rstrip(), file=sys.stderr)
    for line in bad:
        print(f"  {line}", file=sys.stderr)
    return EXIT_CHECK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"analyze": cmd_analyze, "ladder": cmd_ladder,
               "check": cmd_check}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
