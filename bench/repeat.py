"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/repeat.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

For each workload, runs `bench/run.py` once per seed, one run at a time,
and reports per end-to-end metric the median, the quartiles of
statistics.quantiles(n=4) and the spread (q3 - q1) / median, next to the
metric's bound in BENCHMARK.json.  With --trace 1 it reports the median of
each per-layer metric instead.  --out writes the summary into a JSON file
under "end_to_end" or "per_layer", keeping the other section.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            res = run_once(workload, seed, args.seconds, args.trace)
            if not res["correct"] or res["failed"]:
                raise RuntimeError(f"{workload} seed {seed}: incorrect result {res}")
            runs.append({k: v["value"] for k, v in res["metrics"].items()})
            shown = ("trace.overhead_frac",) if args.trace else tuple(runs[-1])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={runs[-1][k]:.6g}" for k in shown), flush=True)
        names = runs[0].keys()
        if args.trace:
            summary[workload] = {k: statistics.median(r[k] for r in runs) for k in names}
            continue
        summary[workload] = {k: summarise([r[k] for r in runs]) for k in names}
        for k, s in summary[workload].items():
            flag = "" if s["spread"] <= bounds[k] / 3 else "  <-- above bound/3"
            print(f"  {k:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}  bound {bounds[k]}{flag}", flush=True)
    if args.out:
        out = Path(args.out)
        merged = json.loads(out.read_text()) if out.exists() else {}
        merged["per_layer" if args.trace else "end_to_end"] = {
            "seeds": args.seeds, "run_seconds": args.seconds, "workloads": summary}
        out.write_text(json.dumps(merged, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
