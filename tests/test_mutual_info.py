import math

import numpy as np
import pytest

from pncsync.detection import build_hypotheses
from pncsync.harness import ExperimentConfig, MiEstimate, run_mi
from pncsync.impairments import PulseShape
from pncsync.mutual_info import PHASE_OFFSETS, mi_given_theta, mi_phase_unsync, mi_time_unsync

PULSE, FRAME = PulseShape(), 1000  # the config defaults


def quadrature_mi_bits_per_dim(snr_db, theta, ngrid=801, span=6.0):
    """Independent oracle: direct 2-D tensor-grid integration of I(X; r)."""
    s2 = 10.0 ** (-snr_db / 10.0)
    pts = build_hypotheses(theta)
    lim = 2 * math.sqrt(2) + span * math.sqrt(s2)
    u = np.linspace(-lim, lim, ngrid)
    du = u[1] - u[0]
    uu, vv = np.meshgrid(u, u, indexing="ij")
    r = uu + 1j * vv
    lik = np.array([
        np.mean([np.exp(-np.abs(r - p) ** 2 / (2 * s2)) for p in pts[c]], axis=0)
        for c in range(4)
    ]) / (2 * math.pi * s2)
    mix = lik.mean(axis=0)
    total = 0.0
    for c in range(4):
        w = lik[c] > 0
        total += 0.25 * float(np.sum(lik[c][w] * np.log2(lik[c][w] / mix[w]))) * du * du
    return 0.5 * total


# frozen oracle outputs (801 and 1201 grids agree to 5 decimals)
FROZEN_QUAD = {0.0: 0.32525, 5.0: 0.80311, 7.0: 0.93075}
FROZEN_QUAD_PI8_5DB = 0.71226


def test_quadrature_oracle_reproduces_frozen_values():
    for snr, want in FROZEN_QUAD.items():
        assert quadrature_mi_bits_per_dim(snr, 0.0) == pytest.approx(want, abs=2e-4)
    assert quadrature_mi_bits_per_dim(5.0, math.pi / 8) == pytest.approx(
        FROZEN_QUAD_PI8_5DB, abs=2e-4)


def test_mi_given_theta_matches_quadrature_oracle():
    rng = np.random.default_rng(101)
    for snr, want in FROZEN_QUAD.items():
        got = mi_given_theta(snr, 0.0, 150_000, rng)
        assert got == pytest.approx(want, abs=0.01)
    got = mi_given_theta(5.0, math.pi / 8, 150_000, rng)
    assert got == pytest.approx(FROZEN_QUAD_PI8_5DB, abs=0.01)


def test_mi_saturates_at_high_snr():
    rng = np.random.default_rng(7)
    assert mi_given_theta(40.0, 0.0, 20_000, rng) == pytest.approx(1.0, abs=1e-6)


def test_mi_vanishes_at_low_snr():
    rng = np.random.default_rng(8)
    assert mi_given_theta(-30.0, 0.0, 50_000, rng) == pytest.approx(0.0, abs=0.01)


def test_mi_symmetric_in_offset_sign():
    n = 100_000
    for theta in (math.pi / 16, math.pi / 8, 3 * math.pi / 16):
        a = mi_given_theta(5.0, theta, n, np.random.default_rng(11))
        b = mi_given_theta(5.0, -theta, n, np.random.default_rng(12))
        # ~3 combined standard errors at this sample size
        assert abs(a - b) < 0.01


def test_phase_offset_grid_is_midpoint_rule():
    g = PHASE_OFFSETS
    assert len(g) == 20 and not g.flags.writeable
    assert g[0] == pytest.approx(0.5 / 20 * math.pi / 4)
    assert g[-1] == pytest.approx(19.5 / 20 * math.pi / 4)
    assert g[-1] < math.pi / 4


def test_phase_average_lies_between_grid_extremes():
    n = 60_000
    snr = 4.0
    avg = mi_phase_unsync(snr, n, np.random.default_rng(21))
    per = [mi_given_theta(snr, t, 3_000, np.random.default_rng(22))
           for t in PHASE_OFFSETS]
    assert min(per) - 0.02 <= avg <= max(per) + 0.02


def test_phase_grid_20_vs_40_agree():
    snr = 5.0
    a = mi_phase_unsync(snr, 400_000, np.random.default_rng(31))
    # the same midpoint rule on twice the points, same total budget
    rng = np.random.default_rng(32)
    b = np.mean([mi_given_theta(snr, t, 400_000 // 40, rng)
                 for t in (np.arange(40) + 0.5) / 40 * (math.pi / 4)])
    assert abs(a - b) < 0.01


def test_time_unsync_zero_range_equals_perfect():
    snr = 5.0
    n = 100_000
    t0 = mi_time_unsync(snr, 0.0, n, np.random.default_rng(41), PULSE, FRAME)
    assert t0 == pytest.approx(FROZEN_QUAD[5.0], abs=0.01)


def test_time_unsync_loss_grows_with_range():
    snr = 5.0
    n = 100_000
    t2 = mi_time_unsync(snr, 0.2, n, np.random.default_rng(51), PULSE, FRAME)
    t5 = mi_time_unsync(snr, 0.5, n, np.random.default_rng(52), PULSE, FRAME)
    assert t5 < t2 + 0.01


def test_time_unsync_validates_range():
    with pytest.raises(ValueError):
        mi_time_unsync(5.0, 0.6, 1000, np.random.default_rng(0), PULSE, FRAME)


def test_mi_estimate_bounds_enforced():
    with pytest.raises(ValueError):
        MiEstimate(0.0, "perfect", 1.5, 10, 1)


def _mi_curve(scenario, grid, samples, seed, **kw):
    return run_mi(ExperimentConfig(command="mi", scenario=scenario, snr_grid_db=grid,
                                   samples_per_point=samples, master_seed=seed, **kw))


def test_mi_curve_deterministic_and_bounded():
    grid = (0.0, 4.0, 8.0)
    a = _mi_curve("perfect", grid, 20_000, seed=77)
    b = _mi_curve("perfect", grid, 20_000, seed=77)
    assert a == b
    assert all(0.0 <= e.mi_bits_per_dim <= 1.0 for e in a)
    assert [e.snr_db for e in a] == list(grid)


def test_mi_curve_monotone_in_snr_statistically():
    est = _mi_curve("perfect", tuple(range(0, 13, 2)), 50_000, seed=5)
    vals = [e.mi_bits_per_dim for e in est]
    # allow 3-sigma jitter (~0.005 at this sample size)
    assert all(b >= a - 0.01 for a, b in zip(vals, vals[1:]))


def test_mi_curve_scenarios_and_labels():
    t = _mi_curve("time_unsync", (5.0,), 2_000, seed=1, offset_range=0.5)
    assert t[0].scenario == "time_unsync_x0.5"
    # without a range, time_unsync uses the full [-T/2, T/2]
    assert _mi_curve("time_unsync", (5.0,), 2_000, seed=1) == t
    p = _mi_curve("phase_unsync", (5.0,), 2_000, seed=1)
    assert p[0].scenario == "phase_unsync"
    with pytest.raises(ValueError):
        _mi_curve("phase_unsync", (5.0,), 2_000, seed=1, offset_range=0.2)
    with pytest.raises(ValueError):
        _mi_curve("nope", (5.0,), 2_000, seed=1)


def test_mi_estimator_standard_error_shrinks_with_samples():
    # batch spread at n vs 4n: standard error should drop by about half
    snr = 5.0

    def spread(n, seed0):
        vals = [mi_given_theta(snr, 0.0, n, np.random.default_rng(seed0 + i))
                for i in range(8)]
        return float(np.std(vals))

    s_small = spread(4_000, 100)
    s_big = spread(16_000, 200)
    assert s_big < s_small
