"""Output checks of the benchmark, against references made by the seed commit.

Each `pnc` output file is checked on its own; a file that fails any check
counts its invocation as failed.

ber      rows on the requested SNR grid, num_bits as in the reference,
         ber = num_errors/num_bits, and each point against the pooled
         reference with a two-sample binomial z-test.  Offsets are drawn
         per frame, so errors cluster in frames and a count varies more
         than a binomial count; the test variance is scaled by the
         dispersion the reference measured across its seeds.
mi       rows on the grid, num_samples as in the reference, each point in
         [0, 1] and within a tolerance of the reference mean that was
         measured across the reference seeds.
penalty  both curves and the footer against closed forms computed here
         (the average linear phase penalty is 3 - 8/pi; the time penalty
         from the raised-cosine SINR), and the footer also against the
         reference.
chain    the plan text exactly, by its sha256.

Files are read by column and key names, so columns or comment lines that
a later version adds do not fail a check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np
from scipy.special import zeta

import workloads

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

BER_Z_MAX = 6.0          # two-sided normal tail about 2e-9 per point
MI_TOL_SIGMAS = 8.0      # per-point tolerance in across-seed standard deviations
# At high SNR a point's estimate is 1 bit bar rare badly received samples,
# so 16 reference seeds can miss its tail; one such sample moves a point
# by far less than this floor.
MI_TOL_FLOOR = 0.01
MI_POOLED_Z_MAX = 6.0
FLOAT_REL = 1e-9         # closed forms and deterministic values
SNR_ABS = 1e-9


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def read_table(path):
    """(rows as dicts, footer {key: text}) of a '#'-commented CSV file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    footer = {}
    for line in lines:
        if line.startswith("#") and " = " in line:
            key, val = line[1:].split(" = ", 1)
            footer[key.strip()] = val.strip()
    body = [line for line in lines if line and not line.startswith("#")]
    return list(csv.DictReader(body)), footer


def _close(a, b, rel=FLOAT_REL, abs_=1e-12):
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def _grid_problems(inv, rows):
    want = inv.grid_points()
    if len(rows) != len(want):
        return [f"{len(rows)} rows, expected {len(want)}"]
    return [f"row {i}: snr {r['snr_db']} != {w}" for i, (r, w) in enumerate(zip(rows, want))
            if abs(float(r["snr_db"]) - w) > SNR_ABS]


def ber_z(k, n, ref_k, ref_n, dispersion):
    """Two-sample binomial z statistic, variance scaled by dispersion."""
    pooled = (k + ref_k) / (n + ref_n)
    if pooled in (0.0, 1.0):
        return 0.0
    var = dispersion * pooled * (1.0 - pooled) * (1.0 / n + 1.0 / ref_n)
    return abs(k / n - ref_k / ref_n) / math.sqrt(var)


def check_ber(inv, seed, path, ref):
    rows, _ = read_table(path)
    problems = _grid_problems(inv, rows)
    if problems:
        return problems
    for i, (row, pt) in enumerate(zip(rows, ref["points"])):
        n, k = int(row["num_bits"]), int(row["num_errors"])
        if n != pt["bits"]:
            problems.append(f"row {i}: num_bits {n} != {pt['bits']}")
            continue
        if not 0 <= k <= n or float(row["ber"]) != k / n:
            problems.append(f"row {i}: ber {row['ber']} != {k}/{n}")
            continue
        if "seed" in row and int(row["seed"]) != seed:
            problems.append(f"row {i}: seed {row['seed']} != {seed}")
        z = ber_z(k, n, pt["errors"], pt["pooled_bits"], ref["dispersion"])
        if z > BER_Z_MAX:
            problems.append(f"row {i}: ber {k}/{n} vs reference {pt['errors']}/"
                            f"{pt['pooled_bits']}: z = {z:.2f} > {BER_Z_MAX}")
    return problems


def mi_tolerance(sd, ref_runs):
    return MI_TOL_SIGMAS * sd * math.sqrt(1.0 + 1.0 / ref_runs) + MI_TOL_FLOOR


def check_mi(inv, seed, path, ref):
    rows, _ = read_table(path)
    problems = _grid_problems(inv, rows)
    if problems:
        return problems
    for i, (row, pt) in enumerate(zip(rows, ref["points"])):
        n, mi = int(row["num_samples"]), float(row["mi_bits_per_dim"])
        if n != pt["samples"]:
            problems.append(f"row {i}: num_samples {n} != {pt['samples']}")
        elif not 0.0 <= mi <= 1.0:
            problems.append(f"row {i}: mi {mi} outside [0, 1]")
        elif abs(mi - pt["mean"]) > mi_tolerance(pt["sd"], ref["runs"]):
            problems.append(f"row {i}: mi {mi} vs reference {pt['mean']} "
                            f"+- {mi_tolerance(pt['sd'], ref['runs']):.3g}")
    return problems


def check_mi_pooled(paths, ref):
    """Problems of the mean MI over all points and all runs of one case.

    Points and runs have independent RNG streams, so the pooled mean has a
    much smaller spread than one point, and this catches a shift of the
    whole curve that the per-point tolerance lets through.
    """
    pts = ref["points"]
    diffs = [float(r["mi_bits_per_dim"]) - pt["mean"]
             for path in paths for r, pt in zip(read_table(path)[0], pts)]
    var = sum(pt["sd"] ** 2 for pt in pts) / len(pts) ** 2 * (1 / len(paths) + 1 / ref["runs"])
    if var == 0.0:
        return []
    z = abs(sum(diffs) / len(diffs)) / math.sqrt(var)
    if z > MI_POOLED_Z_MAX:
        return [f"mean MI over {len(paths)} runs is {sum(diffs) / len(diffs):+.4g} off the "
                f"reference: z = {z:.2f} > {MI_POOLED_Z_MAX}"]
    return []


# Constants run_penalty uses: reference SNR and the ISI truncation window.
PENALTY_SNR0_DB = 10.0
PENALTY_TRUNCATION = 16
_SING_TOL = 1e-9


def _phase_penalty_db(theta):
    t = abs(theta)
    return 10.0 * math.log10((1.0 - math.cos(t)) ** 2 + (1.0 - math.sin(t)) ** 2)


def _sir_traditional_db(alpha=4.0):
    """Closed form of the 1-D SIR series by Hurwitz zeta sums."""
    total = (2.0 * zeta(alpha, 0.5) + zeta(alpha, 0.75) + zeta(alpha, 1.25)) / 4.0 ** alpha
    return -10.0 * math.log10(total)


def _raised_cosine(x, b):
    """Raised cosine at x = t/T, with the limits at its removable singularities."""
    x = np.asarray(x, dtype=float)
    zero = np.abs(x) < _SING_TOL
    sing = (np.abs(np.abs(x) - 1.0 / (2 * b)) < _SING_TOL) if b > 0 else np.zeros_like(zero)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.sin(np.pi * x) * np.cos(np.pi * b * x) / (np.pi * x * (1.0 - (2 * b * x) ** 2))
    p = np.where(zero, 1.0, p)
    if b > 0:
        p = np.where(sing, np.pi / 4 * np.sinc(1.0 / (2 * b)), p)
    return p


def _sinr(dts, b):
    """(signal power, ISI variance) of mid-offset sampling at offsets dts."""
    L = PENALTY_TRUNCATION
    lags = np.concatenate([np.arange(-L, 0), np.arange(1, L + 1)])[None, :]
    half = np.asarray(dts, dtype=float)[:, None] / 2
    isi = np.sum(_raised_cosine(lags + half, b) ** 2 + _raised_cosine(lags - half, b) ** 2,
                 axis=1)
    return _raised_cosine(half[:, 0], b) ** 2, isi


def _time_penalty_db(dts, b):
    noise = 10.0 ** (-PENALTY_SNR0_DB / 10.0)
    sig, isi = _sinr(dts, b)
    return 10.0 * np.log10(sig) - 10.0 * np.log10((isi + noise) / noise)


def penalty_oracle(rolloff):
    """Footer values of `pnc penalty --rolloff b`, computed independently."""
    noise = 10.0 ** (-PENALTY_SNR0_DB / 10.0)
    taus = np.linspace(-0.5, 0.5, 1001)
    sig, isi = _sinr(taus, rolloff)
    avg_phase = 10.0 * math.log10(3.0 - 8.0 / math.pi)
    return {
        "avg_phase_penalty_db": avg_phase,
        "worst_phase_penalty_db": _phase_penalty_db(math.pi / 4),
        "avg_sinr_penalty_db": 10.0 * math.log10(np.trapezoid(sig / (isi + noise), taus))
                               - PENALTY_SNR0_DB,
        "worst_sinr_penalty_db": float(np.min(_time_penalty_db(np.linspace(0.0, 0.5, 1001),
                                                               rolloff))),
        "sir_1d_traditional_db": _sir_traditional_db(),
        "sir_1d_pnc_db": 15.3,
        "sir_1d_pnc_minus_avg_phase_db": 15.3 + avg_phase,
    }


def check_penalty(inv, seed, path, ref):
    rows, footer = read_table(path)
    rolloff = float(dict(inv.options)["--rolloff"])
    problems = []
    for curve, count in ref["rows"].items():
        got = [r for r in rows if r["curve"] == curve]
        if len(got) != count:
            problems.append(f"{len(got)} {curve} rows, expected {count}")
            continue
        params = [float(r["parameter"]) for r in got]
        values = [float(r["penalty_db"]) for r in got]
        if curve == "phase":
            want = [_phase_penalty_db(t) for t in params]
        else:
            want = [float(v) for v in _time_penalty_db(params, rolloff)]
        problems += [f"{curve} row {i}: penalty {v} at {p} != closed form {w}"
                     for i, (p, v, w) in enumerate(zip(params, values, want))
                     if not _close(v, w, rel=1e-9, abs_=1e-9)]
    oracle = penalty_oracle(rolloff)
    for key, want in oracle.items():
        if key not in footer:
            problems.append(f"footer {key} missing")
            continue
        v = float(footer[key])
        # the program integrates the phase average by quadrature to 1e-10 and
        # truncates the SIR series at terms below 1e-12
        rel = 1e-7 if key in ("avg_phase_penalty_db", "sir_1d_traditional_db",
                              "sir_1d_pnc_minus_avg_phase_db") else 1e-9
        if not _close(v, want, rel=rel):
            problems.append(f"footer {key} = {v} != closed form {want}")
        elif not _close(v, ref["footer"][key], rel=rel):
            problems.append(f"footer {key} = {v} != reference {ref['footer'][key]}")
    return problems


def check_chain(inv, seed, path, ref):
    digest = sha256(path)
    return [] if digest == ref["sha256"] else [f"plan sha256 {digest} != {ref['sha256']}"]


CHECKS = {"ber": check_ber, "mi": check_mi, "penalty": check_penalty, "chain": check_chain}


def check(inv: workloads.Invocation, seed: int, path: str, reference: dict) -> list[str]:
    """Problems found in one output file; empty when it is correct."""
    ref = reference["cases"].get(inv.case)
    if ref is None:
        return [f"no reference for case {inv.case!r}"]
    if not os.path.isfile(path):
        return ["no output file"]
    try:
        return CHECKS[inv.command](inv, seed, path, ref)
    except (KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]
