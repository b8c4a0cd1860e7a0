import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pncsync.mutual_info as mutual_info
from pncsync.detection import build_hypotheses
from pncsync.harness import ExperimentConfig, run_mi, scenario_label
from pncsync.impairments import PulseShape, isi_taps, time_offset_frames
from pncsync.mutual_info import (PHASE_OFFSETS, _class_log_densities, _log_ratio,
                                 _time_log_densities, _window_isi_atoms, mi_given_theta,
                                 mi_phase_unsync, mi_time_unsync)
from oracles import (class_log_densities_by_logsumexp, isi_atoms_by_enumeration,
                     mi_offsets_by_logsumexp, quadrature_mi_bits_per_dim,
                     time_log_densities_by_logsumexp, time_mi)

PULSE, FRAME = PulseShape(), 1000  # the config defaults


# frozen oracle outputs (801 and 1201 grids agree to 5 decimals)
FROZEN_QUAD = {0.0: 0.32525, 5.0: 0.80311, 7.0: 0.93075}
FROZEN_QUAD_PI8_5DB = 0.71226


def test_quadrature_oracle_reproduces_frozen_values():
    for snr, want in FROZEN_QUAD.items():
        assert quadrature_mi_bits_per_dim(snr, 0.0) == pytest.approx(want, abs=2e-4)
    assert quadrature_mi_bits_per_dim(5.0, math.pi / 8) == pytest.approx(
        FROZEN_QUAD_PI8_5DB, abs=2e-4)


# |z| bound of the Monte-Carlo MI against its oracles, fixed before the run
Z_MAX = 4.0


def test_mi_given_theta_matches_quadrature_oracle():
    # 20 independent batches of 7500 samples: their spread gives the standard error
    rng = np.random.default_rng(101)
    for snr, theta in [(0.0, 0.0), (5.0, 0.0), (7.0, 0.0), (5.0, math.pi / 8)]:
        means = [mi_given_theta(snr, theta, 7_500, rng) for _ in range(20)]
        se = float(np.std(means, ddof=1)) / math.sqrt(len(means))
        z = (float(np.mean(means)) - quadrature_mi_bits_per_dim(snr, theta)) / se
        assert abs(z) <= Z_MAX, (snr, theta, z)


def test_phase_mi_matches_quadrature_oracle():
    # the grid average against the oracle's average over the same grid (a 301-point
    # grid is within 1e-12 of the 801-point one here); 20 batches of 20,000 samples
    rng = np.random.default_rng(102)
    for snr in (0.0, 5.0, 9.0):
        means = [mi_phase_unsync(snr, 20_000, rng) for _ in range(20)]
        se = float(np.std(means, ddof=1)) / math.sqrt(len(means))
        want = float(np.mean([quadrature_mi_bits_per_dim(snr, t, ngrid=301)
                              for t in PHASE_OFFSETS]))
        z = (float(np.mean(means)) - want) / se
        assert abs(z) <= Z_MAX, (snr, z)


def test_time_mi_oracle_reproduces_frozen_values():
    # x = 0.5, roll-off 0.5, L = 16; 32 nodes and 8192 points move them below 1e-6
    for snr, want in ((0.0, 0.281412), (5.0, 0.708479)):
        assert time_mi(snr, 0.5, PULSE) == pytest.approx(want, abs=1e-6)
        assert time_mi(snr, 0.5, PULSE, nodes=32, points=8192) == pytest.approx(want, abs=1e-6)


def test_time_mi_matches_inversion_oracle():
    # 20 independent batches of 50 frames of 200 samples, each frame its own offset
    for snr in (0.0, 5.0):
        means = [mi_time_unsync(snr, 0.5, 10_000,
                                np.random.default_rng(np.random.SeedSequence(103, spawn_key=(b,))),
                                PULSE, 200) for b in range(20)]
        se = float(np.std(means, ddof=1)) / math.sqrt(len(means))
        z = (float(np.mean(means)) - time_mi(snr, 0.5, PULSE)) / se
        assert abs(z) <= Z_MAX, (snr, z)


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
    # each sample adds log2(p(r|x) / (p(r|0) + p(r|1))) + 1, whose first term
    # is never above 0 in floating point, so no seed gives even one ulp above 1
    for seed in range(4):
        got = mi_time_unsync(40.0, 0.5, 3000, np.random.default_rng(seed), PULSE, FRAME)
        assert math.isfinite(got)
        assert 0.0 <= got <= 1.0


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
    got = [mi for _, mi, _ in run_mi(cfg)]
    np.testing.assert_allclose(got, FROZEN_NARROW_TIME05[trunc], rtol=0, atol=1e-15)


# The 81 weighted atoms against the 2^8 sign patterns they regroup.
ATOM_CASES = [(dt, b, trunc) for dt in (0.0, 0.1, -0.1, 0.37, -0.37, 0.5, -0.5)
              for b in (0.0, 0.25, 0.5, 1.0) for trunc in (1, 2, 8, 16)]


def _time_densities(r, level, atoms, weights, veff):
    """`_time_log_densities` with a buffer for the current block size."""
    buf = np.empty(2 * atoms.size * mutual_info._TIME_BLOCK)
    return _time_log_densities(r, level, atoms, weights, veff, buf)


def _atoms_both_ways(dt, rolloff, trunc):
    lags, (te,), (tl,) = isi_taps((dt,), PulseShape(rolloff, trunc))
    return te[trunc], _window_isi_atoms(te, lags), isi_atoms_by_enumeration(te, tl, lags)


def test_window_atom_weights_count_the_256_sign_patterns():
    lags, (te,), _ = isi_taps((0.3,), PULSE)
    atoms, weights, _ = _window_isi_atoms(te, lags)
    assert atoms.shape == weights.shape == (81,)
    assert float(np.sum(weights)) == 256.0
    assert sorted(weights.astype(int).tolist()) == [1] * 16 + [2] * 32 + [4] * 24 + [8] * 8 + [16]


@pytest.mark.parametrize("dt, rolloff, trunc", ATOM_CASES)
def test_window_atoms_are_the_enumerated_multiset(dt, rolloff, trunc):
    _, (atoms, weights, tail_var), (want, want_tail) = _atoms_both_ways(dt, rolloff, trunc)
    got = np.sort(np.repeat(atoms, weights.astype(int)))
    # a truncation of 1 has 2^4 patterns: each stands for 2^4 of the 256,
    # whose signs on the taps past the truncation do not matter
    want = np.sort(np.tile(want, 256 // want.size))
    assert got.shape == want.shape == (256,)
    # the same sums of the same taps, added in another order
    np.testing.assert_allclose(got, want, rtol=0, atol=4 * np.spacing(np.abs(want).max()))
    assert tail_var == want_tail


@pytest.mark.parametrize("dt, rolloff, trunc", ATOM_CASES)
def test_window_atoms_give_the_enumerated_log_densities(dt, rolloff, trunc):
    # the kernel of mi_time_unsync on the 81 weighted atoms against the
    # log-sum-exp densities of the 2^8 sign patterns, one atom each
    level, (atoms, weights, tail_var), (enum, _) = _atoms_both_ways(dt, rolloff, trunc)
    rng = np.random.default_rng(17)
    for snr in (0.0, 10.0, 40.0):
        sd = 0.5 * 10.0 ** (-snr / 20.0)
        veff = sd * sd + tail_var
        r = (rng.choice([-level, 0.0, level], 300) + rng.choice(enum, 300)
             + sd * rng.standard_normal(300))
        got = _time_densities(r, level, atoms, weights, veff)
        want = time_log_densities_by_logsumexp(r, level, enum, np.zeros(enum.size), veff)
        for g, w in zip(got, want):
            # relative, with a floor of 1e-13 for the values near 0 (bit 1 at dt = 0)
            np.testing.assert_allclose(g - math.log(256.0), w, rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------------
# the kernels against the max-shifted log-sum-exp formulation of tests/oracles.py

SNRS_DB = st.one_of(st.floats(-20.0, 60.0), st.sampled_from([-300.0, 300.0]))


def _assert_log_close(got, want):
    assert np.all(np.isfinite(got)) and np.all(np.isfinite(want))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(snr=SNRS_DB,
       theta=st.one_of(st.sampled_from([0.0, -math.pi / 4]),
                       st.floats(-math.pi / 4, math.pi / 4, exclude_max=True)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(snr=300.0, theta=0.0, seed=0)
@example(snr=-300.0, theta=-math.pi / 4, seed=1)
def test_class_log_densities_match_the_logsumexp_oracle(snr, theta, seed):
    pts = build_hypotheses((theta,))[0]
    s2 = 10.0 ** (-snr / 10.0)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, 16, 300)
    r = pts.reshape(-1)[idx] + math.sqrt(s2) * (rng.standard_normal(300)
                                               + 1j * rng.standard_normal(300))
    want = class_log_densities_by_logsumexp(r, pts, s2)
    got = _class_log_densities(r.real[None], r.imag[None], pts.reshape(1, 16), 0.5 / s2,
                               np.empty(32 * r.size))
    _assert_log_close(got[:, 0], want)
    # and the per-sample log p(r | x) - log p(r) built on them
    ratio = _log_ratio(r.real[None], r.imag[None], idx[None] >> 2, pts.reshape(1, 16),
                       0.5 / s2, np.empty(32 * r.size))[0]
    top = want.max(axis=0)
    _assert_log_close(ratio, want[idx >> 2, np.arange(r.size)]
                      - (top + np.log(np.sum(np.exp(want - top), axis=0))))


@settings(max_examples=60, deadline=None)
@given(snr=SNRS_DB, dt=st.floats(-0.5, 0.5), rolloff=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
       trunc=st.sampled_from([1, 2, 16]), seed=st.integers(0, 2 ** 32 - 1))
@example(snr=300.0, dt=0.0, rolloff=0.5, trunc=16, seed=0)
@example(snr=300.0, dt=0.5, rolloff=0.0, trunc=1, seed=1)
@example(snr=-300.0, dt=-0.5, rolloff=1.0, trunc=2, seed=2)
def test_time_log_densities_match_the_logsumexp_oracle(snr, dt, rolloff, trunc, seed):
    lags, (te,), _ = isi_taps((dt,), PulseShape(rolloff, trunc))
    level = te[trunc]
    atoms, weights, tail_var = _window_isi_atoms(te, lags)
    sd = 0.5 * 10.0 ** (-snr / 20.0)
    veff = sd * sd + tail_var
    rng = np.random.default_rng(seed)
    r = (rng.choice([-level, 0.0, level], 300) + rng.choice(atoms, 300, p=weights / 256.0)
         + sd * rng.standard_normal(300))
    got = _time_densities(r, level, atoms, weights, veff)
    want = time_log_densities_by_logsumexp(r, level, atoms, np.log(weights), veff)
    for g, w in zip(got, want):
        _assert_log_close(g - math.log(256.0), w)


# ---------------------------------------------------------------------------
# draw order: the documented draws, and blocks that change no draw and no bit


@pytest.mark.parametrize("per", [13, 29, 64, 150])  # below, at and above the chunk
def test_phase_grid_keeps_the_draws_of_the_logsumexp_estimator(monkeypatch, per):
    monkeypatch.setattr(mutual_info, "_CHUNK", 64 * 20 + 7)  # 64 samples of each offset
    monkeypatch.setattr(mutual_info, "_BLOCK", 40)
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    got = mi_phase_unsync(3.0, per * 20, a)
    want = float(np.mean(mi_offsets_by_logsumexp(3.0, tuple(PHASE_OFFSETS.tolist()), per, b,
                                                 chunk=64 * 20 + 7)))
    assert got == pytest.approx(want, rel=0, abs=1e-14)
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("per", [13, 29, 64, 150])
def test_mi_given_theta_keeps_the_draws_of_the_logsumexp_estimator(monkeypatch, per):
    monkeypatch.setattr(mutual_info, "_CHUNK", 64)
    monkeypatch.setattr(mutual_info, "_BLOCK", 40)
    a, b = np.random.default_rng(6), np.random.default_rng(6)
    got = mi_given_theta(3.0, 0.4, per, a)
    want = mi_offsets_by_logsumexp(3.0, (0.4,), per, b, chunk=64)[0]
    assert got == pytest.approx(want, rel=0, abs=1e-14)
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("frame", [37, 100, 1000])
def test_time_mi_blocks_change_no_bit_and_no_draw(monkeypatch, frame):
    # frames that are not multiples of the block, against one block per frame
    def run(block):
        monkeypatch.setattr(mutual_info, "_TIME_BLOCK", block)
        rng = np.random.default_rng(8)
        return mi_time_unsync(6.0, 0.5, 3 * frame, rng, PULSE, frame), rng
    whole, rng_whole = run(frame)
    got, rng = run(13)
    assert got == whole
    assert rng.bit_generator.state == rng_whole.bit_generator.state
    # three frames of the synthesis draw everything mi_time_unsync draws
    ref = np.random.default_rng(8)
    for _ in range(3):
        time_offset_frames(1, 1, frame, 0.5, PULSE, 0.5 * 10.0 ** (-6.0 / 20.0), ref)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n", [37, 100, 1000])
def test_time_log_densities_are_the_same_bits_in_any_block(monkeypatch, n):
    lags, (te,), _ = isi_taps((0.37,), PULSE)
    atoms, weights, tail_var = _window_isi_atoms(te, lags)
    r = 0.7 * np.random.default_rng(1).standard_normal(n)
    got = []
    for block in (n, 13):
        monkeypatch.setattr(mutual_info, "_TIME_BLOCK", block)
        got.append(_time_densities(r, te[16], atoms, weights, 0.1 + tail_var))
    for whole, blocked in zip(*got):
        assert whole.tobytes() == blocked.tobytes()


def test_log_ratios_are_the_same_bits_in_any_grouping():
    # 3 offsets x 50 samples scored at once, against each offset alone and in pieces
    pts = build_hypotheses(tuple(PHASE_OFFSETS[:3].tolist())).reshape(3, 16)
    rng = np.random.default_rng(2)
    idx = rng.integers(0, 16, (3, 50))
    re = np.take_along_axis(pts.real, idx, axis=1) + 0.4 * rng.standard_normal((3, 50))
    im = np.take_along_axis(pts.imag, idx, axis=1) + 0.4 * rng.standard_normal((3, 50))
    buf = np.empty(32 * re.size)
    whole = _log_ratio(re, im, idx >> 2, pts, 3.0, buf)
    for g in range(3):
        for a, b in ((0, 50), (0, 7), (7, 50)):
            alone = _log_ratio(re[g:g + 1, a:b], im[g:g + 1, a:b], idx[g:g + 1, a:b] >> 2,
                               pts[g:g + 1], 3.0, buf)
            assert alone.tobytes() == whole[g:g + 1, a:b].tobytes()


# ---------------------------------------------------------------------------
# memory stays O(block) whatever the budget


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_time_mi_memory_is_bounded_by_the_block():
    # one 20,000-sample frame: the frame's samples and densities, not its exponents
    peak = _peak_mb(lambda: mi_time_unsync(5.0, 0.5, 20_000, np.random.default_rng(0),
                                           PULSE, 20_000))
    assert peak <= 4.0


def test_phase_mi_memory_is_bounded_by_the_block():
    peak = _peak_mb(lambda: mi_phase_unsync(5.0, 200_000, np.random.default_rng(0)))
    assert peak <= 4.6


def test_time_unsync_validates_range():
    with pytest.raises(ValueError):
        mi_time_unsync(5.0, 0.6, 1000, np.random.default_rng(0), PULSE, FRAME)


def _mi_curve(scenario, grid, samples, seed, **kw):
    return run_mi(ExperimentConfig(command="mi", scenario=scenario, snr_grid_db=grid,
                                   samples_per_point=samples, master_seed=seed, **kw))


def test_mi_curve_deterministic_and_bounded():
    grid = (0.0, 4.0, 8.0)
    a = _mi_curve("perfect", grid, 20_000, seed=77)
    b = _mi_curve("perfect", grid, 20_000, seed=77)
    assert a == b
    assert all(0.0 <= mi <= 1.0 for _, mi, _ in a)
    assert [snr for snr, _, _ in a] == list(grid)


def test_mi_curve_monotone_in_snr_statistically():
    est = _mi_curve("perfect", tuple(range(0, 13, 2)), 50_000, seed=5)
    vals = [mi for _, mi, _ in est]
    # allow 3-sigma jitter (~0.005 at this sample size)
    assert all(b >= a - 0.01 for a, b in zip(vals, vals[1:]))


def test_mi_curve_scenarios_and_labels():
    t = _mi_curve("time_unsync", (5.0,), 2_000, seed=1, offset_range=0.5)
    assert scenario_label(ExperimentConfig(scenario="time_unsync", offset_range=0.5)) == \
        "time_unsync_x0.5"
    # without a range, time_unsync uses the full [-T/2, T/2]
    assert _mi_curve("time_unsync", (5.0,), 2_000, seed=1) == t
    assert _mi_curve("phase_unsync", (5.0,), 2_000, seed=1) != t
    assert scenario_label(ExperimentConfig(scenario="phase_unsync")) == "phase_unsync"
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
