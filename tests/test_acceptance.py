"""End-to-end reference checks, one test per acceptance criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
summary lines.  The Monte-Carlo criteria use the sample sizes stated in
their docstrings and a fixed master seed, so the whole module is
deterministic.
"""

import math
import time

import numpy as np
import pytest

from pncsync import analysis
from pncsync.analysis import SinrContext
from pncsync.detection import build_hypotheses
from pncsync.harness import (
    ExperimentConfig,
    run_ber,
    run_chain,
    run_mi,
    run_penalty,
)
from pncsync.impairments import PulseShape
from pncsync.mapping import CLASS_BITS, S1, S3
from pncsync.chain import ChainConfig, effective_detection_errors, make_plan, partition_groups
from scipy.special import erfc

from oracles import (cluster_z_score, horizontal_gap_db, max_horizontal_gap_db,
                     min_interclass_distance_sq, phase_ml_error_moments, pnc_xor_of_levels,
                     time_ber)

SEED = 1234567


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    return ok


def _ber_curve(scenario, grid, bits, offset=None, seed=SEED):
    cfg = ExperimentConfig(command="ber", scenario=scenario, snr_grid_db=grid,
                           samples_per_point=bits, offset_range=offset,
                           master_seed=seed)
    res = run_ber(cfg)
    return np.array([r.snr_db for r in res]), np.array([r.ber for r in res])


@pytest.fixture(scope="module")
def ber_curves():
    t0 = time.time()
    curves = {
        "perfect": _ber_curve("perfect", tuple(np.arange(0.0, 15.1, 0.5)), 1_000_000),
        "time02": _ber_curve("time_unsync", tuple(np.arange(7.0, 9.01, 0.25)),
                             1_000_000, offset=0.2),
        "time05": _ber_curve("time_unsync", tuple(np.arange(3.0, 6.01, 0.5)),
                             1_000_000, offset=0.5),
        "phase": _ber_curve("phase_unsync", tuple(np.arange(11.0, 15.01, 0.5)),
                            1_000_000),
    }
    curves["elapsed"] = time.time() - t0
    return curves


@pytest.fixture(scope="module")
def mi_curves():
    t0 = time.time()
    grid = tuple(float(s) for s in range(0, 15))

    def curve(scenario, offset=None):
        cfg = ExperimentConfig(command="mi", scenario=scenario, snr_grid_db=grid,
                               samples_per_point=100_000, offset_range=offset,
                               master_seed=SEED)
        est = run_mi(cfg)
        return np.array(grid), np.array([e.mi_bits_per_dim for e in est])

    out = {
        "perfect": curve("perfect"),
        "phase": curve("phase_unsync"),
        "time05": curve("time_unsync", offset=0.5),
        "elapsed": time.time() - t0,
    }
    return out


def test_criterion_01_exhaustive_xor_mapping_table():
    # the program's class-major layout: each (s1, s3) pair sits exactly once,
    # in class s1 ^ s3, and the class bits are the paper's demap of its level
    t0 = time.time()
    levels = build_hypotheses(0.0)
    pairs = [(int(S1[c, j]), int(S3[c, j])) for c in range(4) for j in range(4)]
    ok = sorted(pairs) == [(s1, s3) for s1 in range(4) for s3 in range(4)]
    for k, (s1, s3) in enumerate(pairs):
        c, j = divmod(k, 4)
        source_xor = ((s1 >> 1) ^ (s3 >> 1), (s1 & 1) ^ (s3 & 1))
        ok &= c == s1 ^ s3
        ok &= tuple(CLASS_BITS[c].tolist()) == pnc_xor_of_levels(levels[c, j]) == source_xor
    dt = time.time() - t0
    ok &= dt < 1.0
    assert _report(1, ok, f"all 16 pairs sit once in the class of their exact xor in {dt:.3f}s")


def test_criterion_02_average_phase_penalty():
    t0 = time.time()
    val = analysis.avg_phase_penalty_db()
    dt = time.time() - t0
    ok = abs(val - (-3.4)) <= 0.05 and dt < 1.0
    assert _report(2, ok, f"avg phase penalty {val:.4f} dB (target -3.4 +- 0.05) in {dt:.3f}s")


def test_criterion_03_phase_penalty_endpoint():
    val = analysis.phase_penalty_db(math.pi / 4)
    ok = val <= -7.0 and abs(val - (-7.66)) <= 0.01
    assert _report(3, ok, f"penalty at pi/4 = {val:.4f} dB (<= -7.0 and -7.66 +- 0.01)")


def test_criterion_04_traditional_1d_sir():
    t0 = time.time()
    val = analysis.sir_1d_traditional_db(4.0)
    dt = time.time() - t0
    ok = abs(val - 8.5) <= 0.05 and dt < 1.0
    assert _report(4, ok, f"1-D traditional SIR {val:.4f} dB (target 8.5 +- 0.05) in {dt:.3f}s")


def test_criterion_05_time_offset_penalty_reference_values():
    t0 = time.time()
    ctx = SinrContext(snr0_db=10.0, rolloff=0.5, truncation_symbols=16)
    worst = analysis.worst_sinr_penalty_db(ctx)
    avg = analysis.avg_sinr_penalty_db(ctx)
    dt = time.time() - t0
    ok_worst = abs(worst - (-2.2)) <= 0.3
    ok_avg = abs(avg - (-1.57)) <= 0.1
    ok = ok_worst and ok_avg and dt < 10.0
    detail = (f"worst {worst:.3f} dB (target -2.2 +- 0.3: {'ok' if ok_worst else 'MISS'}), "
              f"avg {avg:.3f} dB (target -1.57 +- 0.1: {'ok' if ok_avg else 'MISS'}) "
              f"in {dt:.1f}s")
    _report(5, ok, detail)
    assert ok, ("the stated penalty formula evaluates to worst/avg = "
                f"{worst:.3f}/{avg:.3f} dB; the published -2.2/-1.57 dB pair is not "
                "reachable from it at any consistent scaling (see decisions ledger)")


def test_criterion_06_perfect_sync_ber_oracle():
    t0 = time.time()

    def theory(snr_db):
        s = 10.0 ** (-snr_db / 20.0)
        q = lambda x: 0.5 * erfc(x / math.sqrt(2.0))
        return 1.5 * q(1.0 / s) - 0.5 * q(3.0 / s)

    ok = True
    details = []
    for inv_sigma in (2.0, 3.0):
        snr = 20.0 * math.log10(inv_sigma)
        cfg = ExperimentConfig(command="ber", scenario="perfect", snr_grid_db=(snr,),
                               samples_per_point=1_000_000, master_seed=SEED)
        r = run_ber(cfg)[0]
        want = theory(snr)
        tol = 3.0 * math.sqrt(want * (1.0 - want) / r.num_bits)
        ok &= abs(r.ber - want) < tol
        details.append(f"1/sigma={inv_sigma:g}: mc={r.ber:.3e} vs oracle={want:.3e}")
    dt = time.time() - t0
    ok &= dt < 30.0
    assert _report(6, ok, "; ".join(details) + f" (3-sigma binomial, {dt:.1f}s)")


def test_criterion_07_ber_curve_reproduction(ber_curves):
    sp, bp = ber_curves["perfect"]
    s2, b2 = ber_curves["time02"]
    s5, b5 = ber_curves["time05"]
    sf, bf = ber_curves["phase"]

    gap02 = horizontal_gap_db(sp, bp, s2, b2, 1e-2, log_scale=True)
    # the full-range loss is read at BER 1e-1, the highest decade fully
    # inside the simulated range (threshold detection floors near 5e-3,
    # so the gap is only stable above that)
    gap05 = horizontal_gap_db(sp, bp, s5, b5, 1e-1, log_scale=True)
    gapph = horizontal_gap_db(sp, bp, sf, bf, 3e-3, log_scale=True)

    ok02 = gap02 <= 0.3
    ok05 = abs(gap05 - 1.0) <= 0.5
    okph = gapph >= 3.0
    dt = ber_curves["elapsed"]
    ok = ok02 and ok05 and okph and dt < 300.0
    assert _report(
        7, ok,
        f"time[-0.2T,0.2T] gap at 1e-2: {gap02:.3f} dB (<= 0.3: {'ok' if ok02 else 'MISS'}); "
        f"time[-T/2,T/2] gap at 1e-1: {gap05:.3f} dB (1.0 +- 0.5: {'ok' if ok05 else 'MISS'}); "
        f"phase gap at 3e-3: {gapph:.2f} dB (>= 3: {'ok' if okph else 'MISS'}) "
        f"({dt:.0f}s at 1e6 bits/point)")


def test_criterion_07_phase_curve_matches_the_quadrature_oracle(ber_curves):
    """The phase curve at 11 and 15 dB against `oracles.phase_ml_error_moments`.

    1e6 bits are 500 frames of 1000 symbols, each frame with its own offset,
    so the errors cluster; z uses their exact variance (`cluster_z_score`).
    Bound, fixed before the first run: |z| <= 4 at each point.
    """
    snrs, bers = ber_curves["phase"]
    frames, symbols = 500, 1000
    ok, details = True, []
    for snr in (11.0, 15.0):
        ber = float(bers[snrs == snr][0])
        w, m1, m2 = phase_ml_error_moments(snr)
        z = cluster_z_score(round(ber * 2 * frames * symbols), frames, symbols, w, m1, m2)
        ok &= abs(z) <= 4.0
        details.append(f"{snr:g} dB: mc={ber:.4e} vs oracle={np.sum(w * m1) / 2:.4e}, "
                       f"z={z:+.2f}")
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 07 phase oracle: " + "; ".join(details)
          + " (|z| <= 4)")
    assert ok


def test_criterion_07_time_curves_match_the_inversion_oracle(ber_curves):
    """The time curves at x = 0.2, 8 dB and x = 0.5, 5 dB against `oracles.time_ber`.

    1e6 bits are 500 frames of 1000 symbols in each of 2 dimensions, one
    offset per frame, so z uses the cluster variance
    F (E_dt[2n p (1 - p)] + Var_dt(2n p)) (`cluster_z_score` with one bit
    per draw).  It omits the correlation that shared ISI neighbours put
    between the errors of nearby samples.  Bound, fixed before the first
    run: |z| <= 4 at each point.
    """
    frames, bits_per_frame = 500, 2000
    ok, details = True, []
    for key, x, snr in (("time02", 0.2, 8.0), ("time05", 0.5, 5.0)):
        snrs, bers = ber_curves[key]
        ber = float(bers[snrs == snr][0])
        w, p = time_ber(snr, x, PulseShape(0.5, 16))
        z = cluster_z_score(round(ber * frames * bits_per_frame), frames, bits_per_frame,
                            w, p, p)
        ok &= abs(z) <= 4.0
        details.append(f"x={x:g} {snr:g} dB: mc={ber:.4e} vs oracle={np.sum(w * p):.4e}, "
                       f"z={z:+.2f}")
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 07 time oracle: " + "; ".join(details)
          + " (|z| <= 4)")
    assert ok


def test_criterion_08_mi_curve_reproduction(mi_curves):
    sp, vp = mi_curves["perfect"]
    sf, vf = mi_curves["phase"]
    st5, vt5 = mi_curves["time05"]

    gap_t = max_horizontal_gap_db(sp, vp, st5, vt5, 0.0, 7.0)
    gap_p = max_horizontal_gap_db(sp, vp, sf, vf, 0.0, 7.0)
    high = vp[sp > 12.0]
    ok_t = gap_t <= 0.7
    ok_p = gap_p <= 2.2
    ok_h = np.all(np.abs(high - 1.0) <= 0.01)
    dt = mi_curves["elapsed"]
    ok = ok_t and ok_p and bool(ok_h) and dt < 600.0
    assert _report(
        8, ok,
        f"time x=0.5 max gap on [0,7]: {gap_t:.3f} dB (<= 0.7: {'ok' if ok_t else 'MISS'}); "
        f"phase max gap: {gap_p:.3f} dB (<= 2.2: {'ok' if ok_p else 'MISS'}); "
        f"perfect above 12 dB: {high.min():.4f} (within 0.01 of 1: {'ok' if ok_h else 'MISS'}) "
        f"({dt:.0f}s at 1e5 samples/point)")


def test_criterion_09_min_distance_cross_check():
    worst = 0.0
    for theta in np.linspace(0.0, math.pi / 4, 100, endpoint=False):
        hyp = build_hypotheses(float(theta))
        brute = min_interclass_distance_sq(hyp)
        closed = analysis.min_distance_sq(float(theta))
        worst = max(worst, abs(brute - closed))
    ok = worst < 1e-9
    assert _report(9, ok, f"enumerated vs closed-form min distance, max |diff| = {worst:.2e}")


def test_criterion_10_chain_arithmetic():
    ok = True
    for n in range(3, 201):
        plan = make_plan(ChainConfig(n, 1.0, 1000.0, (0.1, 0.02, 0.001)))
        ok &= plan.num_groups == (n - 1) // 2
        ok &= plan.ts == (n - 2) * 1.0
        ok &= plan.accumulated_errors == tuple(plan.num_groups * e
                                               for e in (0.1, 0.02, 0.001))
    for n in range(3, 51):
        plan = make_plan(ChainConfig(n, 1.0, 1000.0, (0.1, 0.02, 0.001)))
        for relay in range(2, n + 1, 2):
            ok &= effective_detection_errors(plan, relay) == (0.1, 0.02, 0.001)
    ok &= len(partition_groups(200)) == 99
    assert _report(10, ok, "M, ts, accumulated errors exact on N in [3,200]; "
                           "local errors independent of N and relay (N <= 50)")


def test_criterion_11_byte_identical_reruns(tmp_path):
    ok = True
    details = []

    def rerun(name, cfg_kwargs, runner):
        nonlocal ok
        outs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{name}-{tag}.out"
            runner(ExperimentConfig(output_path=str(path), **cfg_kwargs))
            outs.append(path.read_bytes())
        same = outs[0] == outs[1]
        ok &= same
        details.append(f"{name}:{'ok' if same else 'DIFF'}")

    rerun("ber", dict(command="ber", scenario="phase_unsync", snr_grid_db=(6.0, 8.0),
                      samples_per_point=20_000, master_seed=31, workers=2), run_ber)
    rerun("mi", dict(command="mi", scenario="time_unsync", offset_range=0.3,
                     snr_grid_db=(4.0,), samples_per_point=5_000, master_seed=32,
                     workers=2), run_mi)
    rerun("penalty", dict(command="penalty", master_seed=33), run_penalty)
    rerun("chain", dict(command="chain", chain_nodes=7, master_seed=34), run_chain)
    assert _report(11, ok, "byte-identical reruns: " + ", ".join(details))
