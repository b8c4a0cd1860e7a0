import math
import sys

import numpy as np
import pytest

from pncsync.detection import logsumexp
from pncsync.harness import ExperimentConfig, MiEstimate, run_mi
from pncsync.impairments import PulseShape, isi_taps
from pncsync.mutual_info import (PHASE_OFFSETS, _window_isi_atoms, mi_given_theta,
                                 mi_phase_unsync, mi_time_unsync)
from oracles import isi_atoms_by_enumeration, quadrature_mi_bits_per_dim

PULSE, FRAME = PulseShape(), 1000  # the config defaults


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


def test_time_unsync_at_40db_is_finite_and_at_most_one():
    # the log-weights move the max-shift of every row, and at 40 dB a row's
    # exponents span about 1e4 to 1e5.  Where the two bits' densities do not
    # overlap, a sample adds log 2 / log 2 up to rounding, so the mean can sit
    # one ulp above 1 (run_mi clips it); more than that is an error
    got = mi_time_unsync(40.0, 0.5, 3000, np.random.default_rng(0), PULSE, FRAME)
    assert math.isfinite(got)
    assert 0.0 <= got <= 1.0 + 2 * sys.float_info.epsilon


# Outputs of the enumeration kernel (2^k equally likely window patterns)
# that the weighted atoms replaced, for pulses truncated inside the window.
FROZEN_NARROW_TIME05 = {1: (0.2977547859519298, 0.8856849401977807, 1.0),
                        2: (0.26258075350035176, 0.8735328149007955, 1.0)}


@pytest.mark.parametrize("trunc", sorted(FROZEN_NARROW_TIME05))
def test_time_unsync_mi_with_truncation_inside_the_window(trunc):
    # a truncation of 1 leaves 2 window taps, not 4: the others are 0
    cfg = ExperimentConfig(command="mi", scenario="time_unsync", offset_range=0.5,
                           truncation=trunc, snr_grid_db=(0.0, 10.0, 40.0),
                           samples_per_point=2000, master_seed=3)
    got = [e.mi_bits_per_dim for e in run_mi(cfg)]
    np.testing.assert_allclose(got, FROZEN_NARROW_TIME05[trunc], rtol=0, atol=1e-15)


# The 81 weighted atoms against the 2^8 sign patterns they regroup.
ATOM_CASES = [(dt, b, trunc) for dt in (0.0, 0.1, -0.1, 0.37, -0.37, 0.5, -0.5)
              for b in (0.0, 0.25, 0.5, 1.0) for trunc in (1, 2, 8, 16)]


def _atoms_both_ways(dt, rolloff, trunc):
    lags, te, tl = isi_taps(dt, PulseShape(rolloff, trunc))
    return te[trunc], _window_isi_atoms(te, lags), isi_atoms_by_enumeration(te, tl, lags)


def test_window_atom_weights_count_the_256_sign_patterns():
    lags, te, _ = isi_taps(0.3, PULSE)
    atoms, log_w, _ = _window_isi_atoms(te, lags)
    assert atoms.shape == log_w.shape == (81,)
    assert float(np.sum(np.exp(log_w))) == 256.0
    assert sorted(np.rint(np.exp(log_w)).astype(int).tolist()) \
        == [1] * 16 + [2] * 32 + [4] * 24 + [8] * 8 + [16]


@pytest.mark.parametrize("dt, rolloff, trunc", ATOM_CASES)
def test_window_atoms_are_the_enumerated_multiset(dt, rolloff, trunc):
    _, (atoms, log_w, tail_var), (want, want_tail) = _atoms_both_ways(dt, rolloff, trunc)
    got = np.sort(np.repeat(atoms, np.rint(np.exp(log_w)).astype(int)))
    # a truncation of 1 has 2^4 patterns: each stands for 2^4 of the 256,
    # whose signs on the taps past the truncation do not matter
    want = np.sort(np.tile(want, 256 // want.size))
    assert got.shape == want.shape == (256,)
    # the same sums of the same taps, added in another order
    np.testing.assert_allclose(got, want, rtol=0, atol=4 * np.spacing(np.abs(want).max()))
    assert tail_var == want_tail


@pytest.mark.parametrize("dt, rolloff, trunc", ATOM_CASES)
def test_window_atoms_give_the_enumerated_log_densities(dt, rolloff, trunc):
    level, (atoms, log_w, tail_var), (enum, _) = _atoms_both_ways(dt, rolloff, trunc)
    rng = np.random.default_rng(17)
    for snr in (0.0, 10.0, 40.0):
        sd = 0.5 * 10.0 ** (-snr / 20.0)
        veff = sd * sd + tail_var
        r = (rng.choice([-level, 0.0, level], 300) + rng.choice(enum, 300)
             + sd * rng.standard_normal(300))

        def log_densities(atoms, log_w):
            # log p(r | xor bit 0) (levels +-level) and log p(r | bit 1) (level 0),
            # each a mixture over the sign patterns, as mi_time_unsync forms them
            e0 = np.concatenate([log_w - (r[:, None] - atoms - lv) ** 2 / (2 * veff)
                                 for lv in (level, -level)], axis=1)
            e1 = log_w - (r[:, None] - atoms) ** 2 / (2 * veff)
            patterns = float(np.sum(np.exp(log_w)))
            return (logsumexp(e0, axis=1) - math.log(2 * patterns),
                    logsumexp(e1, axis=1) - math.log(patterns))

        for got, want in zip(log_densities(atoms, log_w),
                             log_densities(enum, np.zeros(enum.size))):
            # relative, with a floor of 1e-13 for the values near 0 (bit 1 at dt = 0)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


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
