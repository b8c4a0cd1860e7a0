"""Write the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 bench/make_reference.py [workload ...]

Runs every case of each workload with the code in src/ and writes
bench/reference/<workload>.json.  Monte-Carlo cases run once per
reference seed: BER points keep the pooled error count and the
dispersion of the per-seed counts over the binomial variance, MI points
the mean and the across-seed standard deviation, from which
checks.mi_tolerance makes the tolerance.  Penalty and chain cases run
once.  The references in the repository were made by the commit that
added the benchmark; make them again only when a change of the
program's output is intended.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import checks
import workloads
from worker import call

REF_SEEDS = tuple(range(900_001, 900_017))


def _run(cli, inv, seed, tmp):
    out = os.path.join(tmp, "out")
    err = call(cli, inv, seed, out)
    if err:
        raise RuntimeError(f"{inv.case} seed {seed}: {err}")
    return out


def ber_reference(cli, inv, tmp):
    runs = [checks.read_table(_run(cli, inv, s, tmp))[0] for s in REF_SEEDS]
    points, dispersion = [], 1.0
    for i in range(len(runs[0])):
        bits = {int(r[i]["num_bits"]) for r in runs}
        if len(bits) != 1:
            raise RuntimeError(f"{inv.case}: num_bits differs across seeds: {bits}")
        n = bits.pop()
        errs = [int(r[i]["num_errors"]) for r in runs]
        pooled = sum(errs) / (n * len(errs))
        if pooled > 0:
            binom_var = pooled * (1.0 - pooled) / n
            dispersion = max(dispersion, statistics.variance([k / n for k in errs]) / binom_var)
        points.append({"snr_db": float(runs[0][i]["snr_db"]), "bits": n,
                       "errors": sum(errs), "pooled_bits": n * len(errs)})
    return {"points": points, "dispersion": dispersion}


def mi_reference(cli, inv, tmp):
    runs = [checks.read_table(_run(cli, inv, s, tmp))[0] for s in REF_SEEDS]
    points = []
    for i in range(len(runs[0])):
        vals = [float(r[i]["mi_bits_per_dim"]) for r in runs]
        points.append({"snr_db": float(runs[0][i]["snr_db"]),
                       "samples": int(runs[0][i]["num_samples"]),
                       "mean": statistics.fmean(vals), "sd": statistics.stdev(vals)})
    return {"points": points, "runs": len(runs)}


def penalty_reference(cli, inv, tmp):
    rows, footer = checks.read_table(_run(cli, inv, REF_SEEDS[0], tmp))
    counts = {}
    for r in rows:
        counts[r["curve"]] = counts.get(r["curve"], 0) + 1
    return {"rows": counts, "footer": {k: float(v) for k, v in footer.items()}}


def chain_reference(cli, inv, tmp):
    return {"sha256": checks.sha256(_run(cli, inv, REF_SEEDS[0], tmp))}


MAKERS = {"ber": ber_reference, "mi": mi_reference, "penalty": penalty_reference,
          "chain": chain_reference}


def _commit(root):
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv) -> int:
    from pncsync import cli

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    for workload in argv or sorted(workloads.WORKLOADS):
        tmp = os.path.join(root, ".bench_work", "reference")
        os.makedirs(tmp, exist_ok=True)
        cases = {inv.case: MAKERS[inv.command](cli, inv, tmp)
                 for inv in workloads.reference_cases(workload)}
        ref = {"workload": workload, "commit": _commit(root), "seeds": list(REF_SEEDS),
               "cases": cases}
        path = os.path.join(checks.REFERENCE_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}: {len(cases)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
