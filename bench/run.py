"""Benchmark of the pncsync `pnc` commands.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a pncsync checkout; it uses the sources in src/
and needs nothing built or installed.  Workloads are defined in
workloads.py.  One run:

1. with --trace 0, measures set-up: the median of SETUP_PROBES fresh
   interpreters that each import pncsync.cli, build the parser, validate
   a config and run the cheapest command (`pnc chain --nodes 3`);
2. starts worker.py, which runs warm-up calls and then rounds of the
   workload's invocations for S seconds;
3. checks every output file against bench/reference (checks.py);
4. prints a provenance line and, as the last line, the result:
   {"correct", "attempted", "failed", "metrics"}.

End-to-end metrics (--trace 0): setup_s, wall_s (median round time),
peak_rss_mb (peak resident memory of the worker) and pass_frac
(1 - failed/attempted).  Per-layer metrics (--trace 1) come from the
traced rounds, as medians over rounds; see spans.py.  Everything a run
leaves is under .bench_work/<workload>-seed<n>-trace<t>/ in the checkout:
record.json (provenance, metrics, problems, sha256 of every output),
worker.json, spans.csv of the first traced round, and the output files
when a check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
SETUP_CODE = "from pncsync.cli import main; main(['chain', '--nodes', '3', '--out', {out!r}])"
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}


def child_env() -> dict:
    """Environment of the probes and the worker: src/ on the path, one thread.

    numpy and scipy each start an OpenBLAS pool of nproc threads; the
    program does no BLAS-sized work, and one thread keeps the load of a
    run at one busy thread.
    """
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env, workdir, probes=SETUP_PROBES) -> float:
    """Median wall time of `probes` fresh `pnc` processes, after one unmeasured."""
    out = os.path.join(workdir, "setup_probe.out")
    cmd = [sys.executable, "-c", SETUP_CODE.format(out=out)]
    times = []
    for _ in range(probes + 1):  # the first one also writes the bytecode caches
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


def _caches() -> list:
    out = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            level, kind, size = ((idx / f).read_text().strip() for f in ("level", "type", "size"))
            out.append(f"L{level} {kind} {size}")
    except OSError:
        pass
    return out


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int, env: dict) -> dict:
    return {
        "workload": workload, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "caches": _caches(), "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "thread_env": {k: env.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(), "src_sha256": _src_sha256(),
    }


def check_outputs(result: dict, reference: dict):
    """(attempted, failed, problems, sha256 by output) over every invocation."""
    cases = {inv.case: inv for inv in workloads.reference_cases(result["workload"])}
    attempted = failed = 0
    problems, digests = [], {}
    mi_outputs = defaultdict(list)
    for rec in result["warmup"]:
        attempted += 1
        if rec["error"]:
            failed += 1
            problems.append(f"warm-up {rec['case']}: {rec['error']}")
    for rnd in result["rounds"]:
        for rec in rnd["invocations"]:
            attempted += 1
            inv = cases[rec["case"]]
            found = [rec["error"]] if rec["error"] else checks.check(
                inv, rec["seed"], rec["out"], reference)
            if found:
                failed += 1
                problems += [f"round {rnd['round']} {rec['case']} seed {rec['seed']}: {p}"
                             for p in found]
            elif inv.command == "mi":
                mi_outputs[inv.case].append(rec["out"])
            if os.path.isfile(rec["out"]):
                digests[os.path.relpath(rec["out"], ROOT)] = checks.sha256(rec["out"])
    for case, outs in mi_outputs.items():
        found = checks.check_mi_pooled(outs, reference["cases"][case])
        if found:
            failed += len(outs)
            problems += [f"{case}: {p}" for p in found]
    return attempted, failed, problems, digests


def e2e_metrics(result: dict, setup_s: float, attempted: int, failed: int) -> dict:
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(r["wall_s"] for r in result["rounds"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_frac": 1.0 - failed / attempted,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def layer_metrics(result: dict):
    """(per-layer metrics, problems) from the traced and untraced rounds."""
    traced = [r for r in result["rounds"] if r["traced"]]
    plain = [r for r in result["rounds"] if not r["traced"]]
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in spans.FUNCTION_METRICS + spans.LAYER_METRICS + ("trace.spans",)}
    values["process.cpu_s"] = statistics.median(r["cpu_s"] for r in traced)
    values["process.cpu_util"] = statistics.median(r["cpu_s"] / r["wall_s"] for r in traced)
    values["trace.overhead_frac"] = (statistics.median(r["wall_s"] for r in traced)
                                     / statistics.median(r["wall_s"] for r in plain) - 1.0)
    problems = [f"traced run: {fn} recorded no calls"
                for fn in workloads.REQUIRED[result["workload"]]
                if sum(r["calls"].get(fn, 0) for r in traced) == 0]
    metrics = {k: {"value": values[k], "unit": spans.unit(k)} for k in spans.per_layer_names()}
    return metrics, problems


def main() -> int:
    ap = argparse.ArgumentParser(description="pncsync benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "pncsync" / "cli.py").is_file():
        print(f"error: no pncsync sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()
    setup_s = None if args.trace else measure_setup(env, workdir)
    subprocess.run([sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--workdir", str(workdir)],
                   env=env, check=True,
                   timeout=max(10.0, TIME_LIMIT_S - (time.perf_counter() - t_start)))
    with open(workdir / "worker.json", encoding="utf-8") as fh:
        result = json.load(fh)

    attempted, failed, problems, digests = check_outputs(
        result, checks.load_reference(args.workload))
    if args.trace:
        metrics, trace_problems = layer_metrics(result)
        problems += trace_problems
    else:
        metrics = e2e_metrics(result, setup_s, attempted, failed)
    prov = provenance(args.workload, args.seed, env)
    prov["worker_threads"] = result["threads"]
    record = {"provenance": prov, "metrics": metrics, "problems": problems,
              "rounds": [{k: r[k] for k in ("round", "traced", "wall_s", "cpu_s")}
                         for r in result["rounds"]],
              "sha256": digests}
    with open(workdir / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if not problems:  # outputs are kept only when they show a problem
        for sub in workdir.iterdir():
            if sub.is_dir():
                shutil.rmtree(sub)
    print(json.dumps({"provenance": prov, "record": str((workdir / "record.json").relative_to(ROOT))}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
