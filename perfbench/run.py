"""The flowladder benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]
    python3 perfbench/run.py --check-repeat [--seed N]
    python3 perfbench/run.py --write-expected

One run measures one workload (see ``workloads.py``) in one process: one
client, one operation at a time, no threads.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` runs three things, kept apart:

* set-up, repeated ``SETUPS`` times (import, input generation, reading and
  parsing, loading the expected results);
* the timing pass: operations back to back, cycling through the input
  pool, for ``--seconds`` seconds but at least once through the pool and
  at least two operations, nothing traced by the benchmark.  A whole cycle
  gives every seed nearly the same mix of inputs.  ``run()`` starts
  tracemalloc itself, and users pay for that, so it stays in;
* the memory pass, one cycle through the pool: the benchmark starts
  tracemalloc, and before every operation collects garbage, as a fresh
  ``flowladder analyze`` process would start clean, and calls
  ``reset_peak()``;
  ``peak_mem_mib`` is the median over operations of the traced peak above
  what was traced when the operation started.

``--trace 1`` runs the layer pass, one cycle through the input pool three
times: untraced (only ``run()`` timed), calling the engines directly, and
with every layer wrapped (``layers.py``).  It reports the layer metrics,
the engine overhead of ``run()`` and the tracing overhead.  The counts
repeat exactly from run to run; ``domains.eq_calls`` and
``domains.addr_eq_calls`` move by well under 1% with ``PYTHONHASHSEED``,
because addresses hash variable names and string hashes are salted.

Wall times on a shared machine drift by half within a minute, with the
load its neighbours put on it.  So every set-up and every timed operation
is bracketed by bursts of a fixed calibration loop (``Calibration``) and
reported in reference seconds: its wall time times ``REF_CHUNK_S`` over
the mean chunk time of the bursts around it, that is, its time on a
machine on which a chunk takes ``REF_CHUNK_S``.  ``analysis_norm_s`` and
``setup_s`` are the medians of those; the wall-clock medians
(``analysis_s``, the set-up's) and the tail of the wall times are printed
on the ``info`` line.

Every operation in every pass is checked (``Bench.problems``).  One that
raises, ends short of a fixpoint or fails the check counts as failed.

``--report`` runs every workload with both traces in child processes and
prints the end-to-end table and then the layer table.  ``--check-repeat``
runs the layer pass three times per workload, twice under one
``PYTHONHASHSEED`` and once under another, and says which counts repeat
exactly.  ``--write-expected`` records the default seed's state counts in
``expected.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback

import layers
import workloads
from workloads import DEFAULT_SEED, WORKLOADS, Bench

SETUPS = 7
MIN_TIMED_OPS = 2
CALIBRATION_SHARE = 1.0
WARM_UP_S = 0.5
# a calibration chunk on a quiet 2-core Intel Xeon VM, Python 3.11
REF_CHUNK_S = 0.007
HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = {
    "analysis_norm_s": "s",
    "peak_mem_mib": "MiB",
    "ok_share": "share",
    "setup_s": "s",
}


class Tally:
    """Operations attempted and failed in a run, with the first few
    reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def op(self, bench, prog):
        """One operation: (wall seconds, outcome).  Nothing is checked yet,
        so the time and any trace cover the operation alone."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            outcome = bench.op(prog)
        except Exception:
            outcome = f"{prog.key}: {traceback.format_exc()}"
        return time.perf_counter() - t0, outcome

    def check(self, bench, prog, outcome):
        if isinstance(outcome, str):
            problems = [outcome]
        else:
            try:
                problems = bench.problems(prog, *outcome)
            except Exception:
                problems = [f"{prog.key}: check raised "
                            f"{traceback.format_exc()}"]
        if problems:
            self.failed += 1
            self.reasons.extend(problems[:3 - len(self.reasons)])


def set_up(wl, seed, cal=None):
    """Set up SETUPS times; the last Bench is the one measured.  Returns it
    with the set-up times, and their ratios to ``cal`` if given."""
    times, ratios = [], []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        bench = Bench(wl, seed)
        times.append(time.perf_counter() - t0)
        if cal is not None:
            ratios.append(cal.ratio(times[-1]))
    return bench, times, ratios


class Calibration:
    """Fixed work independent of flowladder: lookups scattered over a table
    of a few MiB with small frozenset builds, the kind of work the engines
    do, and a plain integer loop.  A shared machine's speed drifts by half
    within a minute.  A burst of chunks runs after every timed piece of
    work, and the work's time is divided by the mean chunk time of the
    bursts just before and after it; that quotient drifts far less than the
    time itself."""

    def __init__(self):
        rng = random.Random(0)
        # int keys and values: the garbage collector does not track the table
        self.table = {rng.getrandbits(48): i for i in range(200_000)}
        self.keys = rng.sample(sorted(self.table), 3000)
        self.last = self.burst(WARM_UP_S)

    def chunk(self):
        t0 = time.perf_counter()
        table, acc = self.table, 0
        for key in self.keys:
            acc += len(frozenset((table[key] & 15, acc & 7)))
        for i in range(60_000):
            acc += i & 3
        return time.perf_counter() - t0

    def burst(self, seconds):
        """Median chunk time over at least one chunk and ``seconds``."""
        times = [self.chunk()]
        while sum(times) < seconds:
            times.append(self.chunk())
        return statistics.median(times)

    def ratio(self, work_s):
        """work_s in chunk times of the bursts around the work."""
        after = self.burst(CALIBRATION_SHARE * work_s)
        out = work_s / ((self.last + after) / 2)
        self.last = after
        return out


def timing_pass(bench, seconds, tally, cal):
    """Operation times and their ratios to the calibration chunks."""
    samples, ratios = [], []
    inputs = bench.inputs
    gc.collect()
    end = time.perf_counter() + seconds
    while len(samples) < max(MIN_TIMED_OPS, len(inputs)) \
            or time.perf_counter() < end:
        prog = inputs[len(samples) % len(inputs)]
        elapsed, outcome = tally.op(bench, prog)
        samples.append(elapsed)
        ratios.append(cal.ratio(elapsed))
        tally.check(bench, prog, outcome)
    return samples, ratios


def memory_pass(bench, tally):
    peaks = []
    tracemalloc.start()
    try:
        for prog in bench.inputs:
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, outcome = tally.op(bench, prog)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
            tally.check(bench, prog, outcome)
    finally:
        tracemalloc.stop()
    return peaks


def tail(samples):
    """The highest percentile with at least ten samples beyond it, by
    nearest rank: (percentile, value), or None below twenty samples."""
    n = len(samples)
    if n < 20:
        return None
    p = 100 * (n - 10) // n
    rank = -(-p * n // 100)
    return p, sorted(samples)[rank - 1]


def layer_pass(bench, tally):
    """Untraced, direct and wrapped passes over the input pool."""
    fl, wl = bench.fl, bench.wl
    progs = bench.inputs
    s = {}

    t0 = time.perf_counter()
    for prog in progs:
        fl.parse(prog.src)
    s["syntax.parse_s"] = time.perf_counter() - t0

    def wrapped_pass(trace):
        """Each input once under ``trace``; checked after the wrappers are
        gone, so the check adds nothing to the counts."""
        gc.collect()
        try:
            runs = [(prog, *tally.op(bench, prog)) for prog in progs]
        finally:
            trace.restore()
        for prog, _, outcome in runs:
            tally.check(bench, prog, outcome)
        return sum(elapsed for _, elapsed, _ in runs)

    untraced = layers.LayerTrace(fl)
    untraced.time_runs()
    s["trace.untraced_s"] = wrapped_pass(untraced)

    direct = 0.0
    for prog in progs:
        e = fl.parse(prog.src)
        for stage in wl.stages():
            t0 = time.perf_counter()
            workloads.direct_run(fl, stage, e, wl.k)
            direct += time.perf_counter() - t0
    s["engine.run_overhead_s"] = untraced.s["engine.run_s"] - direct

    traced = layers.LayerTrace(fl)
    traced.install()
    s["trace.traced_s"] = wrapped_pass(traced)

    traced.s.update(s)
    traced.n["syntax.nodes"] = sum(p.nodes for p in progs)
    return layers.layer_metrics(traced.n, traced.s)


def measure(args):
    wl = WORKLOADS[args.workload]
    cal = None if args.trace else Calibration()
    bench, setups, setup_ratios = set_up(wl, args.seed, cal)
    tally = Tally()
    info = {"workload": wl.name, "seed": args.seed,
            "inputs": len(bench.inputs)}
    if args.trace:
        values = layer_pass(bench, tally)
        units = {name: unit for name, (unit, _) in layers.METRICS.items()}
        info["ratio_bases"] = layers.RATIOS
    else:
        samples, ratios = timing_pass(bench, args.seconds, tally, cal)
        peaks = memory_pass(bench, tally)
        values = {
            "analysis_norm_s": statistics.median(ratios) * REF_CHUNK_S,
            "peak_mem_mib": statistics.median(peaks),
            "ok_share": 1 - tally.failed / tally.attempted,
            "setup_s": statistics.median(setup_ratios) * REF_CHUNK_S,
        }
        units = END_TO_END
        info.update(analysis_s=statistics.median(samples),
                    wall_setup_s=statistics.median(setups),
                    timed_ops=len(samples), memory_ops=len(peaks),
                    failed_share=tally.failed / tally.attempted,
                    total_s=sum(samples))
        t = tail(samples)
        if t:
            info["analysis_tail_s"] = {"percentile": t[0], "value": t[1],
                                       "samples": len(samples)}
    for reason in tally.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0


# -------------------------------------------------------- child processes

def child(workload, seed, seconds, trace, hashseed=None):
    """Run one measurement in a fresh interpreter; returns (info, result)."""
    env = dict(os.environ)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    info = next((json.loads(l[5:]) for l in lines if l.startswith("info ")),
                {})
    return info, json.loads(lines[-1])


def report(args):
    rows = {}
    for name in WORKLOADS:
        rows[name] = (child(name, args.seed, args.seconds, 0),
                      child(name, args.seed, args.seconds, 1))
    head = "".join(f"{f'{m} [{u}]':>22}" for m, u in END_TO_END.items())
    print(f"{'workload':<20}{head}{'failed_share':>14}{'tail':>28}")
    for name, ((info, res), _) in rows.items():
        cells = "".join(f"{res['metrics'][m]['value']:>22.6g}"
                        for m in END_TO_END)
        t = info.get("analysis_tail_s")
        tail_text = (f"p{t['percentile']} {t['value']:.4g} s "
                     f"(n={t['samples']})") if t else "too few ops"
        print(f"{name:<20}{cells}{info['failed_share']:>14.3g}"
              f"{tail_text:>28}")
    print()
    print(f"{'layer metric':<30}{'unit':>7}"
          + "".join(f"{n:>20}" for n in WORKLOADS))
    for metric, (unit, _) in layers.METRICS.items():
        cells = "".join(f"{rows[n][1][1]['metrics'][metric]['value']:>20.6g}"
                        for n in WORKLOADS)
        print(f"{metric:<30}{unit:>7}{cells}")
    for ratio, (num, base) in layers.RATIOS.items():
        print(f"{ratio} = {num} / {base}")
    return 0


def check_repeat(args):
    """Layer counts must repeat exactly: across two runs, and across two
    PYTHONHASHSEED values."""
    counts = [m for m, (unit, _) in layers.METRICS.items() if unit == "count"]
    ok = True
    for name in WORKLOADS:
        runs = [child(name, args.seed, 1, 1, hashseed=h)[1]["metrics"]
                for h in (0, 0, 1)]
        for label, pair in (("two runs", runs[:2]),
                            ("two hash seeds", runs[1:])):
            differ = [f"{m} {pair[0][m]['value']} vs {pair[1][m]['value']}"
                      for m in counts
                      if pair[0][m]["value"] != pair[1][m]["value"]]
            ok = ok and not differ
            print(f"{name}, {label}: "
                  + ("; ".join(differ) if differ else "all counts repeat"))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--report", action="store_true")
    mode.add_argument("--check-repeat", action="store_true")
    mode.add_argument("--write-expected", action="store_true")
    args = p.parse_args(argv)
    if args.report:
        return report(args)
    if args.check_repeat:
        return check_repeat(args)
    if args.write_expected:
        workloads.write_expected()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    try:
        return measure(args)
    except FileNotFoundError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
