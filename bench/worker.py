"""Workload process of the benchmark: runs `pnc` invocations in rounds.

Started by run.py in a fresh interpreter with the checkout's src/ on
PYTHONPATH.  It imports pncsync.cli once, runs the warm-up calls, then
runs rounds of the workload until --seconds have passed (at least
MIN_ROUNDS), and writes worker.json into --workdir: per round the wall
and CPU time and each invocation's argv, output file and error, plus the
peak resident memory of this process.  Outputs are checked by run.py
after this process has ended, so checking costs no time or memory here.

With --trace 1, even rounds run untraced and odd rounds traced; the
traced rounds also carry the per-layer metrics from spans.Tracer and the
difference between the two kinds of round is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import time
import traceback

import spans
import workloads

MIN_ROUNDS = {0: 3, 1: 4}


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def call(cli, inv: workloads.Invocation, seed: int, out: str) -> str | None:
    """Run one `pnc` invocation; return None on success or the error text."""
    argv = inv.argv() + ["--seed", str(seed), "--out", out]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        return f"SystemExit({exc.code})"
    except Exception:  # a failing invocation is counted, the run goes on
        return traceback.format_exc()
    return None if code == 0 else f"exit code {code}"


def run_invocations(cli, invs, seed, outdir, tracer=None, first_id=0):
    """Run invocations into an existing outdir; return one record per invocation."""
    records = []
    for i, inv in enumerate(invs):
        out = os.path.join(outdir, f"{i:02d}_{inv.command}.out")
        if tracer is not None:
            tracer.invocation = first_id + i
        records.append({"case": inv.case, "seed": seed, "out": out,
                        "error": call(cli, inv, seed, out)})
    return records


def run(workload: str, seed: int, seconds: float, trace: int, workdir: str,
        min_rounds: int | None = None, select=None) -> dict:
    """Warm up, then run rounds for `seconds`; `select` maps each round's
    invocation list to the list actually run (smoke tests use a shrunken one)."""
    from pncsync import cli

    warmdir = os.path.join(workdir, "warmup")
    os.makedirs(warmdir, exist_ok=True)
    warm = run_invocations(cli, workloads.warmup_invocations(workload), seed, warmdir)
    tracer = spans.Tracer() if trace else None
    min_rounds = MIN_ROUNDS[trace] if min_rounds is None else min_rounds
    rounds = []
    start = time.perf_counter()
    rnd = 0
    while rnd < min_rounds or time.perf_counter() - start < seconds:
        traced = bool(trace) and rnd % 2 == 1
        rseed = workloads.round_seed(seed, rnd)
        invs = workloads.round_invocations(workload, rseed)
        if select is not None:
            invs = select(invs)
        outdir = os.path.join(workdir, f"round{rnd:03d}")
        os.makedirs(outdir, exist_ok=True)
        if traced:
            tracer.install()
        try:
            cpu0, t0 = _cpu_s(), time.perf_counter()
            records = run_invocations(cli, invs, rseed, outdir, tracer, rnd * 1000)
            wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        finally:
            if traced:
                tracer.uninstall()
        entry = {"round": rnd, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                 "invocations": records}
        if traced:
            if rnd == 1:
                tracer.dump(os.path.join(workdir, "spans.csv"))
            entry["layers"], entry["calls"] = tracer.summarise()
        rounds.append(entry)
        rnd += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"workload": workload, "seed": seed, "trace": trace,
            "warmup": warm, "rounds": rounds, "peak_rss_mb": peak_kb / 1024.0,
            "threads": _threads()}


def _threads():
    """Threads of this process, native ones included (None off Linux)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    result = run(args.workload, args.seed, args.seconds, args.trace, args.workdir)
    with open(os.path.join(args.workdir, "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
