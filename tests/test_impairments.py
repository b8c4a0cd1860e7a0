import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pncsync.impairments import (
    PulseShape,
    SyncOffsets,
    draw_phase_offset,
    draw_time_offset,
    fold_phase,
    isi_taps,
    mid_offset_frame,
    qpsk_pair_frame,
    raised_cosine,
    rotate_symbol,
    sample_with_time_offset,
    superpose_phase_offset,
    time_offset_frame,
)
from pncsync.mapping import BitPair, SuperposedLevel, pnc_xor_of_levels

QPSK = [complex(a, b) for a in (-1, 1) for b in (-1, 1)]


# ---------------------------------------------------------------------------
# phase folding


def test_fold_phase_known_values():
    assert fold_phase(0.0) == (0.0, 0)
    folded, k = fold_phase(math.pi / 2)
    assert abs(folded) < 1e-15 and k == 1
    folded, k = fold_phase(3 * math.pi / 8)
    assert folded == pytest.approx(-math.pi / 8, abs=1e-15)
    assert k == 1


def test_fold_phase_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            fold_phase(bad)


@given(st.floats(-50.0, 50.0))
def test_fold_phase_range_and_reconstruction(theta):
    folded, k = fold_phase(theta)
    assert -math.pi / 4 <= folded < math.pi / 4
    # folded + k*pi/2 == theta (mod 2*pi)
    diff = (theta - folded - k * math.pi / 2) / (2 * math.pi)
    assert abs(diff - round(diff)) < 1e-12


def test_rotate_symbol_known_values():
    assert rotate_symbol(1 + 1j, 0) == 1 + 1j
    assert rotate_symbol(1 + 1j, 1) == -1 + 1j
    assert rotate_symbol(-1 - 1j, 2) == 1 + 1j
    with pytest.raises(ValueError):
        rotate_symbol(1 + 1j, 4)


def test_rotate_symbol_stays_on_constellation():
    for s in QPSK:
        for k in range(4):
            assert rotate_symbol(s, k) in QPSK


@given(st.floats(-20.0, 20.0), st.sampled_from(QPSK), st.sampled_from(QPSK))
def test_detection_equivalence_under_folding(theta, s1, s3):
    # rotating s3 by the folded-out quadrants reproduces the raw superposition
    folded, k = fold_phase(theta)
    raw = superpose_phase_offset(s1, s3, theta)
    red = superpose_phase_offset(s1, rotate_symbol(s3, k), folded)
    assert abs(raw - red) < 1e-12


def test_superpose_known_values():
    assert superpose_phase_offset(1 + 1j, 1 + 1j, 0.0) == 2 + 2j
    assert superpose_phase_offset(1 + 1j, -1 - 1j, 0.0) == 0
    val = superpose_phase_offset(1 + 1j, 1 + 1j, math.pi / 4)
    assert val == pytest.approx(1 + 1j * (1 + math.sqrt(2)), abs=1e-12)


# ---------------------------------------------------------------------------
# raised cosine


def test_raised_cosine_center_and_nyquist_zeros():
    for beta in (0.0, 0.25, 0.5, 1.0):
        assert raised_cosine(0.0, 1.0, beta) == 1.0
        for k in range(1, 11):
            assert abs(raised_cosine(k * 1.0, 1.0, beta)) < 1e-12
            assert abs(raised_cosine(-k * 1.0, 1.0, beta)) < 1e-12


def test_raised_cosine_singularity_beta_half():
    # t = T/(2*beta) = T for beta = 0.5 is both the singular point and a
    # Nyquist zero; the exact hit and the two-sided limit agree on 0
    exact = raised_cosine(1.0, 1.0, 0.5)
    lo = raised_cosine(1.0 - 1e-6, 1.0, 0.5)
    hi = raised_cosine(1.0 + 1e-6, 1.0, 0.5)
    assert abs(exact) < 1e-12
    assert abs(lo) < 1e-5 and abs(hi) < 1e-5
    assert abs((lo + hi) / 2 - exact) < 1e-8


def test_raised_cosine_singularity_beta_one():
    # beta = 1: singular point t = T/2, limit (pi/4)*sinc(1/2) = 1/2
    assert raised_cosine(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert raised_cosine(0.5 + 1e-7, 1.0, 1.0) == pytest.approx(0.5, abs=1e-5)


def test_raised_cosine_scales_with_symbol_duration():
    assert raised_cosine(0.5, 2.0, 0.5) == pytest.approx(raised_cosine(0.25, 1.0, 0.5))


def test_raised_cosine_validation():
    with pytest.raises(ValueError):
        raised_cosine(0.1, -1.0, 0.5)
    with pytest.raises(ValueError):
        raised_cosine(0.1, 1.0, 1.5)


# ---------------------------------------------------------------------------
# offsets


def test_sync_offsets_validation():
    with pytest.raises(ValueError):
        SyncOffsets(time_offset_frac=0.6)
    with pytest.raises(ValueError):
        SyncOffsets(symbol_duration=0.0)
    # one impairment class per scenario
    with pytest.raises(ValueError):
        SyncOffsets(delta_theta=0.1, time_offset_frac=0.2)
    SyncOffsets(delta_theta=0.1, delta_omega=0.01)
    SyncOffsets(time_offset_frac=0.3)


def test_phase_ramp_folds_per_symbol():
    off = SyncOffsets(delta_theta=0.2, delta_omega=0.3)
    for k in (0, 1, 7, 123):
        expect = fold_phase(0.2 + k * 0.3)[0]
        assert off.phase_at(k) == pytest.approx(expect, abs=1e-15)
        assert -math.pi / 4 <= off.phase_at(k) < math.pi / 4


# ---------------------------------------------------------------------------
# mid-offset sampling


def _waveform_oracle(a1, a3, k, dt, beta, span=40):
    """Direct pulse-train synthesis sampled at t = k*T + dt/2.

    Independent of the tap/convolution path: sums every pulse of both
    trains (a much wider window than the implementation truncates to)
    evaluated at the sampling instant.
    """
    t = k + dt / 2
    total = 0.0
    for l in range(max(0, k - span), min(len(a1), k + span + 1)):
        total += a1[l] * raised_cosine(t - l, 1.0, beta)
        total += a3[l] * raised_cosine(t - l - dt, 1.0, beta)
    return 0.5 * total


def test_sample_zero_offset_is_exact():
    rng = np.random.default_rng(3)
    a1 = rng.integers(0, 2, 101) * 2 - 1
    a3 = rng.integers(0, 2, 101) * 2 - 1
    off = SyncOffsets(time_offset_frac=0.0)
    pulse = PulseShape(0.5, 16)
    for k in (20, 50, 80):
        want = (a1[k] + a3[k]) / 2
        assert sample_with_time_offset(a1, a3, k, off, pulse) == pytest.approx(want, abs=1e-12)


def test_sample_matches_waveform_synthesis_oracle():
    rng = np.random.default_rng(11)
    a1 = rng.integers(0, 2, 120) * 2 - 1
    a3 = rng.integers(0, 2, 120) * 2 - 1
    for dt in (0.5, 0.25, -0.375):
        off = SyncOffsets(time_offset_frac=dt)
        for k in (40, 60):
            # default window: agreement limited by the 1/t^3 tail truncation
            got16 = sample_with_time_offset(a1, a3, k, off, PulseShape(0.5, 16))
            want = _waveform_oracle(a1, a3, k, dt, 0.5)
            assert got16 == pytest.approx(want, abs=3e-4)
            # matching windows: agreement to float precision
            got40 = sample_with_time_offset(a1, a3, k, off, PulseShape(0.5, 40))
            assert got40 == pytest.approx(want, abs=1e-12)


def test_all_ones_sample_frozen_value():
    # computed from the synthesis oracle at dt = 0.5, beta = 0.5, L = 16;
    # the infinite-window value is exactly 1 by the folded-spectrum identity
    a = np.ones(64)
    off = SyncOffsets(time_offset_frac=0.5)
    got = sample_with_time_offset(a, a, 32, off, PulseShape(0.5, 16))
    assert got == pytest.approx(1.000022483215605, abs=1e-12)


def test_sample_truncation_converges():
    a = np.ones(160)
    off = SyncOffsets(time_offset_frac=0.5)
    k = 80
    vals = {L: sample_with_time_offset(a, a, k, off, PulseShape(0.5, L))
            for L in (4, 8, 16, 32)}
    assert abs(vals[4] - vals[8]) > abs(vals[8] - vals[16]) > abs(vals[16] - vals[32])
    # tails decay as 1/t^3; the all-ones residual at L=16 sits near 2e-5
    assert abs(vals[16] - vals[32]) < 1e-4


def test_sample_window_bounds_checked():
    a = np.ones(20)
    off = SyncOffsets(time_offset_frac=0.1)
    pulse = PulseShape(0.5, 16)
    with pytest.raises(IndexError):
        sample_with_time_offset(a, a, 2, off, pulse)
    with pytest.raises(IndexError):
        sample_with_time_offset(a, a, 18, off, pulse)


def test_frame_sampler_matches_scalar_op():
    rng = np.random.default_rng(5)
    a1 = rng.integers(0, 2, 80) * 2 - 1
    a3 = rng.integers(0, 2, 80) * 2 - 1
    pulse = PulseShape(0.5, 16)
    off = SyncOffsets(time_offset_frac=0.3)
    frame = mid_offset_frame(a1, a3, 0.3, pulse)
    for k in (16, 40, 63):
        assert frame[k] == pytest.approx(
            sample_with_time_offset(a1, a3, k, off, pulse), abs=1e-12)


def test_isi_taps_center_is_signal_tap():
    pulse = PulseShape(0.5, 16)
    lags, te, tl = isi_taps(0.4, pulse)
    assert lags[16] == 0
    assert te[16] == pytest.approx(raised_cosine(0.2, 1.0, 0.5))
    assert tl[16] == pytest.approx(raised_cosine(-0.2, 1.0, 0.5))


# ---------------------------------------------------------------------------
# per-frame synthesis used by the BER and MI runners

PULSE = PulseShape(0.5, 16)


def test_offset_draws_stay_in_range_and_follow_the_stream():
    rng, ref = np.random.default_rng(61), np.random.default_rng(61)
    for _ in range(200):
        theta = draw_phase_offset(rng)
        assert -math.pi / 4 <= theta < math.pi / 4
        assert theta == fold_phase(float(ref.uniform(-math.pi / 4, math.pi / 4)))[0]
        dt = draw_time_offset(0.3, rng)
        assert -0.3 <= dt <= 0.3 and dt == float(ref.uniform(-0.3, 0.3))
    # a zero range draws nothing from the stream
    assert draw_time_offset(0.0, rng) == 0.0
    assert rng.random() == ref.random()


def test_frames_follow_the_documented_draw_order():
    n, sd, theta, dt = 50, 0.4, 0.3, 0.25
    rng = np.random.default_rng(62)
    r, xi, xq = qpsk_pair_frame(n, theta, sd, rng)
    rt, xt = time_offset_frame(n, dt, sd, PULSE, rng)

    ref = np.random.default_rng(62)
    i1, q1, i3, q3 = (ref.integers(0, 2, n) for _ in range(4))
    s1 = (2 * i1 - 1) + 1j * (2 * q1 - 1)
    s3 = (2 * i3 - 1) + 1j * (2 * q3 - 1)
    noise = ref.standard_normal(n) + 1j * ref.standard_normal(n)
    assert np.allclose(r, s1 + s3 * np.exp(1j * theta) + sd * noise, rtol=0, atol=1e-12)
    assert np.array_equal(xi, i1 ^ i3) and np.array_equal(xq, q1 ^ q3)
    a1 = ref.integers(0, 2, n + 32) * 2 - 1
    a3 = ref.integers(0, 2, n + 32) * 2 - 1
    want = [sample_with_time_offset(a1, a3, k, SyncOffsets(time_offset_frac=dt), PULSE)
            for k in range(16, 16 + n)] + sd * ref.standard_normal(n)
    assert np.allclose(rt, want, rtol=0, atol=1e-12)
    assert np.array_equal(xt, a1[16:16 + n] != a3[16:16 + n])


def test_noiseless_frames_carry_the_true_xor():
    # theta = 0: levels {-2, 0, 2} per dimension, demapped by the relay rule
    r, xi, xq = qpsk_pair_frame(400, 0.0, 0.0, np.random.default_rng(63))
    for v, bi, bq in zip(r, xi, xq):
        level = SuperposedLevel(int(v.real), int(v.imag))
        assert complex(level.i_level, level.q_level) == v
        assert pnc_xor_of_levels(level) == BitPair(int(bi), int(bq))
    # dt = 0: levels {-1, 0, 1}, and level 0 exactly where the trains differ
    rt, xt = time_offset_frame(400, 0.0, 0.0, PULSE, np.random.default_rng(64))
    levels = np.rint(rt)
    assert set(levels.tolist()) == {-1.0, 0.0, 1.0}
    assert np.allclose(rt, levels, rtol=0, atol=1e-12)
    assert np.array_equal(xt, (levels == 0).astype(np.int8))


@pytest.mark.parametrize("frame", ["qpsk", "time"])
def test_frame_noise_statistics(frame):
    # same stream with and without noise: the difference is the added noise
    n = 100_000
    sd = 10.0 ** (-6.0 / 20.0)  # the per-dimension sd of the runners at 6 dB

    def synth(s):
        rng = np.random.default_rng(65)
        if frame == "qpsk":
            return qpsk_pair_frame(n, 0.2, s, rng)[0]
        return time_offset_frame(n, 0.3, s, PULSE, rng)[0]

    noise = synth(sd) - synth(0.0)
    dims = (noise.real, noise.imag) if frame == "qpsk" else (noise,)
    for d in dims:
        assert abs(d.mean()) < 4.0 * sd / math.sqrt(n)
        # relative sd of a sample variance is sqrt(2/n) ~ 0.0045
        assert d.var() == pytest.approx(sd * sd, rel=0.02)
    if frame == "qpsk":
        assert abs(np.corrcoef(noise.real, noise.imag)[0, 1]) < 4.0 / math.sqrt(n)
