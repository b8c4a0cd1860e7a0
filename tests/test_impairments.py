import cmath
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pncsync.detection import build_hypotheses
from pncsync.impairments import (
    PulseShape,
    _mid_offset_taps,
    fold_phase,
    isi_taps,
    mid_offset_frame,
    raised_cosine,
    superposed_frames,
    time_offset_frames,
)
from oracles import pnc_xor_of_levels

QPSK = [complex(a, b) for a in (-1, 1) for b in (-1, 1)]


def taps_at(dt, pulse):
    """(lags, taps_early, taps_late) of one offset, the taps 1-D."""
    lags, te, tl = isi_taps((dt,), pulse)
    return lags, te[0], tl[0]


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


@pytest.mark.parametrize("theta, want", [
    (math.nextafter(math.pi / 4, 0), (math.nextafter(math.pi / 4, 0), 0)),
    (math.pi / 4, (-math.pi / 4, 1)),
    (-math.pi / 4, (-math.pi / 4, 0)),
], ids=["below_pi/4", "pi/4", "-pi/4"])
def test_fold_phase_at_the_quadrant_edges(theta, want):
    assert fold_phase(theta) == want


def test_fold_phase_range_next_to_every_quadrant_edge():
    # the 13 floats around each edge pi/4 + m*pi/2 within [-50, 50], which the
    # hypothesis draws above practically never hit
    for m in range(-32, 31):
        theta = math.pi / 4 + m * math.pi / 2
        for _ in range(6):
            theta = math.nextafter(theta, -math.inf)
        for _ in range(13):
            folded, k = fold_phase(theta)
            assert -math.pi / 4 <= folded < math.pi / 4, theta
            diff = (theta - folded - k * math.pi / 2) / (2 * math.pi)
            assert abs(diff - round(diff)) < 1e-12
            theta = math.nextafter(theta, math.inf)


@given(st.floats(-20.0, 20.0), st.sampled_from(QPSK), st.sampled_from(QPSK))
def test_detection_equivalence_under_folding(theta, s1, s3):
    # rotating s3 by the folded-out quadrants reproduces the raw superposition
    folded, k = fold_phase(theta)
    raw = s1 + s3 * cmath.exp(1j * theta)
    red = s1 + s3 * 1j ** k * cmath.exp(1j * folded)
    assert abs(raw - red) < 1e-12


def test_superpose_known_values():
    # pair j of class c is (s1, s3) = (j, j ^ c) in the class-major layout
    at_zero, at_quarter = build_hypotheses((0.0, -math.pi / 4))
    assert at_zero[0, 3] == 2 + 2j  # (1+j) + (1+j)
    assert at_zero[3, 3] == 0       # (1+j) + (-1-j)
    val = at_quarter[0, 3]          # (1+j) + (1+j) e^{-j pi/4}
    assert val == pytest.approx((1 + math.sqrt(2)) + 1j, abs=1e-12)


# ---------------------------------------------------------------------------
# raised cosine


def test_raised_cosine_center_and_nyquist_zeros():
    k = np.arange(1.0, 11.0)
    for beta in (0.0, 0.25, 0.5, 1.0):
        assert raised_cosine(np.array([0.0]), beta)[0] == 1.0
        assert np.all(np.abs(raised_cosine(np.concatenate([k, -k]), beta)) < 1e-12)


def test_raised_cosine_singularity_beta_half():
    # t = T/(2*beta) = T for beta = 0.5 is both the singular point and a
    # Nyquist zero; the exact hit and the two-sided limit agree on 0
    exact, lo, hi = raised_cosine(np.array([1.0, 1.0 - 1e-6, 1.0 + 1e-6]), 0.5)
    assert abs(exact) < 1e-12
    assert abs(lo) < 1e-5 and abs(hi) < 1e-5
    assert abs((lo + hi) / 2 - exact) < 1e-8


def test_raised_cosine_singularity_beta_one():
    # beta = 1: singular point t = T/2, limit (pi/4)*sinc(1/2) = 1/2
    exact, near = raised_cosine(np.array([0.5, 0.5 + 1e-7]), 1.0)
    assert exact == pytest.approx(0.5, abs=1e-12)
    assert near == pytest.approx(0.5, abs=1e-5)


def test_raised_cosine_validation():
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            raised_cosine(np.array([0.1]), bad)


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
        p1, p3 = raised_cosine(np.array([t - l, t - l - dt]), beta)
        total += a1[l] * p1
        total += a3[l] * p3
    return 0.5 * total


def _frame(a1, a3, dt, pulse):
    """Mid-offset samples of a frame through the runners' path: taps, then frame."""
    _, te, tl = taps_at(dt, pulse)
    return mid_offset_frame(a1, a3, te, tl)


def test_sample_zero_offset_is_exact():
    rng = np.random.default_rng(3)
    a1 = rng.integers(0, 2, 101) * 2 - 1
    a3 = rng.integers(0, 2, 101) * 2 - 1
    frame = _frame(a1, a3, 0.0, PulseShape(0.5, 16))
    for k in (20, 50, 80):
        want = (a1[k] + a3[k]) / 2
        assert frame[k] == pytest.approx(want, abs=1e-12)


def test_sample_matches_waveform_synthesis_oracle():
    rng = np.random.default_rng(11)
    a1 = rng.integers(0, 2, 120) * 2 - 1
    a3 = rng.integers(0, 2, 120) * 2 - 1
    for dt in (0.5, 0.25, -0.375):
        frame16 = _frame(a1, a3, dt, PulseShape(0.5, 16))
        frame40 = _frame(a1, a3, dt, PulseShape(0.5, 40))
        for k in (40, 60):
            # default window: agreement limited by the 1/t^3 tail truncation
            want = _waveform_oracle(a1, a3, k, dt, 0.5)
            assert frame16[k] == pytest.approx(want, abs=3e-4)
            # matching windows: agreement to float precision
            assert frame40[k] == pytest.approx(want, abs=1e-12)


def test_all_ones_sample_frozen_value():
    # computed from the synthesis oracle at dt = 0.5, beta = 0.5, L = 16;
    # the infinite-window value is exactly 1 by the folded-spectrum identity
    a = np.ones(64)
    got = _frame(a, a, 0.5, PulseShape(0.5, 16))[32]
    assert got == pytest.approx(1.000022483215605, abs=1e-12)


def test_sample_truncation_converges():
    a = np.ones(160)
    k = 80
    vals = {L: _frame(a, a, 0.5, PulseShape(0.5, L))[k] for L in (4, 8, 16, 32)}
    assert abs(vals[4] - vals[8]) > abs(vals[8] - vals[16]) > abs(vals[16] - vals[32])
    # tails decay as 1/t^3; the all-ones residual at L=16 sits near 2e-5
    assert abs(vals[16] - vals[32]) < 1e-4


def test_sample_window_bounds_checked():
    # near the frame edges the ISI window runs past the trains; those
    # symbols count as zero, which is the oracle's sum clipped to the frame
    rng = np.random.default_rng(7)
    a1 = rng.integers(0, 2, 40) * 2 - 1
    a3 = rng.integers(0, 2, 40) * 2 - 1
    pulse = PulseShape(0.5, 16)
    frame = _frame(a1, a3, 0.1, pulse)
    assert frame.shape == (40,)
    for k in (0, 2, 18, 37, 39):
        assert frame[k] == pytest.approx(_waveform_oracle(a1, a3, k, 0.1, 0.5, span=16),
                                         abs=1e-12)
    _, te, tl = taps_at(0.1, pulse)
    with pytest.raises(ValueError):
        mid_offset_frame(a1, a3[:-1], te, tl)


def test_frame_sampler_matches_scalar_op():
    # the scalar op is the oracle's per-sample sum; with span equal to the
    # truncation window both sum the same pulses, so they agree to float precision
    rng = np.random.default_rng(5)
    a1 = rng.integers(0, 2, 80) * 2 - 1
    a3 = rng.integers(0, 2, 80) * 2 - 1
    frame = _frame(a1, a3, 0.3, PulseShape(0.5, 16))
    for k in (16, 40, 63):
        assert frame[k] == pytest.approx(_waveform_oracle(a1, a3, k, 0.3, 0.5, span=16),
                                         abs=1e-12)


@pytest.mark.parametrize("L", (1, 3, 16))
def test_short_trains_are_rejected(L):
    # trains of at most 2L symbols are rejected; the shortest accepted one,
    # 2L+1 symbols, gives one sample per symbol, the oracle's sum clipped to the train
    pulse = PulseShape(0.5, L)
    _, te, tl = taps_at(0.1, pulse)
    rng = np.random.default_rng(L)
    for n in range(1, 2 * L + 1):
        a = rng.integers(0, 2, n) * 2 - 1
        with pytest.raises(ValueError, match=f"longer than 2L = {2 * L} symbols, got {n}"):
            mid_offset_frame(a, a, te, tl)
    n = 2 * L + 1
    a1 = rng.integers(0, 2, n) * 2 - 1
    a3 = rng.integers(0, 2, n) * 2 - 1
    for dt in (0.1, -0.37, 0.5):
        frame = _frame(a1, a3, dt, pulse)
        assert frame.shape == (n,), dt
        want = [_waveform_oracle(a1, a3, k, dt, 0.5, span=L) for k in range(n)]
        np.testing.assert_allclose(frame, want, rtol=0, atol=1e-12)


def test_isi_taps_center_is_signal_tap():
    pulse = PulseShape(0.5, 16)
    lags, te, tl = taps_at(0.4, pulse)
    assert lags[16] == 0
    assert [te[16], tl[16]] == pytest.approx(raised_cosine(np.array([0.2, -0.2]), 0.5))


def _bench_rolloffs():
    """The roll-off grid of the benchmark's penalty workload (bench/workloads.py)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.ROLLOFFS


# every dt in [-0.5, 0.5] in steps of 1/128, plus both zeros and an irregular set
TAP_OFFSETS = sorted(set(np.linspace(-0.5, 0.5, 129).tolist())
                     | {0.0, 0.3, -0.3, 0.123456789, -0.4999, 1e-12}) + [-0.0]


@pytest.mark.parametrize("rolloff", (0.0,) + _bench_rolloffs())
def test_raised_cosine_one_piece_matches_the_masked_path_bit_for_bit(rolloff):
    # an array with no input within 1e-9 of a removable singularity is
    # evaluated in one piece, one with such an input through the masks;
    # every regular entry must get the same bits either way
    sing = [0.0] + ([1.0 / (2 * rolloff)] if rolloff > 0 else [])
    limits = [1.0] + ([(math.pi / 4) * np.sinc(1.0 / (2 * rolloff))] if rolloff > 0 else [])
    inside = (0.0, 5e-10, -5e-10, 9.9e-10, -9.9e-10)
    outside = (1.01e-9, -1.01e-9, 2e-9, -2e-9, 1e-6, -1e-6)
    near = np.array([sign * s + d for s in sing for sign in (1, -1) for d in inside])
    want_near = np.repeat(limits, 2 * len(inside))
    grid = (np.arange(-12, 13)[:, None] + np.array(TAP_OFFSETS) / 2).ravel()
    regular = np.concatenate([grid, [sign * s + d for s in sing for sign in (1, -1)
                                     for d in outside]])
    regular = regular[np.all(np.abs(np.abs(regular)[:, None] - sing) >= 1e-9, axis=1)]
    assert regular.size > 3000

    one_piece = raised_cosine(regular, rolloff)
    masked = raised_cosine(np.concatenate([regular, near]), rolloff)
    assert np.array_equal(masked[:regular.size].view(np.uint64), one_piece.view(np.uint64))
    assert np.array_equal(masked[regular.size:], want_near)
    for i in range(0, regular.size, 97):  # one-offset calls take the same path
        assert raised_cosine(regular[i:i + 1], rolloff)[0] == one_piece[i]


@pytest.mark.parametrize("rolloff", (0.0,) + _bench_rolloffs())
def test_isi_taps_late_is_early_reversed_bit_for_bit(rolloff):
    # isi_taps returns the late taps as the early taps reversed, which holds
    # because the pulse is even bit for bit: check both against the pulse
    # evaluated at lags -+ dt/2 directly (the atom-merging shortcut of the
    # time-offset MI rests on the same identity)
    assert 0.5 in TAP_OFFSETS and -0.5 in TAP_OFFSETS
    for L in (1, 16, 40):
        pulse = PulseShape(rolloff, L)
        lags, taps_early, taps_late = isi_taps(tuple(TAP_OFFSETS), pulse)
        centre = raised_cosine(np.array(TAP_OFFSETS) / 2, rolloff)  # the runners' p(dt/2)
        for dt, te, tl, p in zip(TAP_OFFSETS, taps_early, taps_late, centre):
            want_te = raised_cosine(lags + dt / 2, rolloff)
            want_tl = raised_cosine(lags - dt / 2, rolloff)
            assert np.array_equal(te.view(np.uint64), want_te.view(np.uint64)), (L, dt)
            assert np.array_equal(tl.view(np.uint64), want_tl.view(np.uint64)), (L, dt)
            assert te[L] == p, (L, dt)


def test_isi_taps_are_read_only():
    # taps_late is a view of taps_early: no caller may write through either
    _, te, tl = isi_taps((0.3, -0.1), PulseShape())
    assert not te.flags.writeable and not tl.flags.writeable
    with pytest.raises(ValueError):
        tl[0] = 1.0


@pytest.mark.parametrize("rolloff", (0.0, 0.35, 1.0))
def test_tap_grid_rows_are_the_scalar_taps_bit_for_bit(rolloff):
    # the offset grids of the closed-form analysis go through the
    # broadcasting helper; each of its rows is one isi_taps call
    grid = np.array(TAP_OFFSETS)
    for L in (1, 16):
        pulse = PulseShape(rolloff, L)
        lags, te, tl = _mid_offset_taps(grid, pulse)
        assert te.shape == tl.shape == (len(grid), 2 * L + 1)
        for row, dt in enumerate(TAP_OFFSETS):
            want_lags, want_te, want_tl = taps_at(dt, pulse)
            assert np.array_equal(lags, want_lags)
            assert np.array_equal(te[row].view(np.uint64), want_te.view(np.uint64)), (L, dt)
            assert np.array_equal(tl[row].view(np.uint64), want_tl.view(np.uint64)), (L, dt)
        # a tuple of offsets gives the same rows through isi_taps
        lags_t, te_t, tl_t = isi_taps(tuple(TAP_OFFSETS), pulse)
        assert np.array_equal(lags_t, lags)
        assert np.array_equal(te_t.view(np.uint64), te.view(np.uint64))
        assert np.array_equal(tl_t.view(np.uint64), tl.view(np.uint64))
    # but not an array or a scalar: its calls are keyed by their (hashable) arguments
    with pytest.raises(TypeError):
        isi_taps(grid[:2], PulseShape())
    with pytest.raises(TypeError):
        isi_taps(0.1, PulseShape())


# ---------------------------------------------------------------------------
# block synthesis used by the BER and MI runners

PULSE = PulseShape(0.5, 16)


def test_superposition_rows_are_the_one_offset_calls_bit_for_bit():
    thetas = (0.0, -math.pi / 4, math.nextafter(math.pi / 4, 0.0), 0.3, -1e-300, 5e-324)
    rows = build_hypotheses(thetas)
    assert rows.shape == (len(thetas), 4, 4)
    for row, theta in zip(rows, thetas):
        want = build_hypotheses((theta,))[0]
        assert np.array_equal(row.view(np.uint64), want.view(np.uint64)), theta


def test_offset_draws_stay_in_range_and_follow_the_stream():
    rng, ref = np.random.default_rng(61), np.random.default_rng(61)
    taps, _, _ = time_offset_frames(200, 1, 40, 0.3, PULSE, 0.1, rng)
    dt = ref.uniform(-0.3, 0.3, 200)
    assert np.all(np.abs(dt) <= 0.3)
    assert np.array_equal(taps, _mid_offset_taps(dt, PULSE)[1])
    # a zero range draws nothing from the stream: the trains come first
    rng, ref = np.random.default_rng(61), np.random.default_rng(61)
    taps, _, x = time_offset_frames(3, 2, 40, 0.0, PULSE, 0.1, rng)
    assert np.array_equal(taps, np.tile(isi_taps((0.0,), PULSE)[1], (3, 1)))
    a = ref.integers(0, 2, (3, 2, 2, 72), dtype=np.int32)
    assert np.array_equal(x, a[:, :, 0, 16:56] != a[:, :, 1, 16:56])
    # the phase batch folds every uniform draw; a reachable draw folds to itself
    for theta in np.random.default_rng(62).uniform(-math.pi / 4, math.pi / 4, 2000).tolist():
        assert fold_phase(theta) == (theta, 0)


def test_frames_follow_the_documented_draw_order():
    frames, n, sd, thetas, x = 3, 50, 0.4, (0.3, -0.7, 0.0), 0.25
    points = build_hypotheses(thetas)
    rng = np.random.default_rng(62)
    r, bits = superposed_frames(points, n, sd, rng)
    taps, rt, xt = time_offset_frames(frames, 2, n, x, PULSE, sd, rng)

    ref = np.random.default_rng(62)
    idx = ref.integers(0, 16, (frames, n), dtype=np.uint8)
    noise = ref.standard_normal((2, frames, n))
    c, j = idx >> 2, idx & 3  # xor class and pair, s1 = QPSK[j], s3 = QPSK[j ^ c]
    s1, s3 = np.array(QPSK)[j], np.array(QPSK)[j ^ c]
    rot = np.exp(1j * np.array(thetas))[:, None]
    assert np.allclose(r, s1 + s3 * rot + sd * (noise[0] + 1j * noise[1]), rtol=0, atol=1e-12)
    assert np.array_equal(bits, np.stack([c >> 1, c & 1], axis=-1))
    dt = ref.uniform(-x, x, frames)
    a = ref.integers(0, 2, (frames, 2, 2, n + 32), dtype=np.int32) * 2 - 1
    noise = ref.standard_normal((frames, 2, n))
    centre = raised_cosine(dt / 2, 0.5)
    for f in range(frames):
        assert taps[f][16] == centre[f]
        for d in range(2):
            a1, a3 = a[f, d]
            want = [_waveform_oracle(a1, a3, k, dt[f], 0.5, span=16)
                    for k in range(16, 16 + n)] + sd * noise[f, d]
            assert np.allclose(rt[f, d], want, rtol=0, atol=1e-12)
            assert np.array_equal(xt[f, d], a1[16:16 + n] != a3[16:16 + n])


def test_one_time_frame_is_the_per_frame_draw_bit_for_bit():
    # the MI draws one frame of one dimension at a time: offset, then two
    # trains of n + 2L symbols, then n noise values, as it always has
    for x, n in ((0.5, 1000), (0.0, 37), (0.3, 100)):
        rng, ref = np.random.default_rng(66), np.random.default_rng(66)
        for _ in range(3):
            taps, r, xbit = time_offset_frames(1, 1, n, x, PULSE, 0.3, rng)
            dt = float(ref.uniform(-x, x)) if x > 0 else 0.0
            _, te, tl = taps_at(dt, PULSE)
            a1 = ref.integers(0, 2, n + 32) * 2 - 1
            a3 = ref.integers(0, 2, n + 32) * 2 - 1
            want = mid_offset_frame(a1, a3, te, tl)[16:16 + n] + 0.3 * ref.standard_normal(n)
            assert np.array_equal(taps[0].view(np.uint64), te.view(np.uint64))
            assert np.array_equal(r[0, 0].view(np.uint64), want.view(np.uint64))
            assert np.array_equal(xbit[0, 0], a1[16:16 + n] != a3[16:16 + n])


def test_noiseless_frames_carry_the_true_xor():
    # theta = 0: levels {-2, 0, 2} per dimension, demapped by the relay rule
    r, bits = superposed_frames(build_hypotheses((0.0,)), 400, 0.0, np.random.default_rng(63))
    for v, (bi, bq) in zip(r[0], bits[0]):
        assert pnc_xor_of_levels(v) == (bi, bq)
    # dt = 0: levels {-1, 0, 1}, and level 0 exactly where the trains differ
    _, rt, xt = time_offset_frames(2, 2, 400, 0.0, PULSE, 0.0, np.random.default_rng(64))
    levels = np.rint(rt)
    assert set(levels.ravel().tolist()) == {-1.0, 0.0, 1.0}
    assert np.allclose(rt, levels, rtol=0, atol=1e-12)
    assert np.array_equal(xt, levels == 0)


@pytest.mark.parametrize("frame", ["qpsk", "time"])
def test_frame_noise_statistics(frame):
    # same stream with and without noise: the difference is the added noise
    n = 50_000
    sd = 10.0 ** (-6.0 / 20.0)  # the per-dimension sd of the runners at 6 dB

    def synth(s):
        rng = np.random.default_rng(65)
        if frame == "qpsk":
            return superposed_frames(build_hypotheses((0.2, -0.1)), n, s, rng)[0]
        return time_offset_frames(2, 1, n, 0.3, PULSE, s, rng)[1]

    noise = (synth(sd) - synth(0.0)).ravel()
    dims = (noise.real, noise.imag) if frame == "qpsk" else (noise,)
    for d in dims:
        assert abs(d.mean()) < 4.0 * sd / math.sqrt(d.size)
        # relative sd of a sample variance is sqrt(2/n) ~ 0.0045
        assert d.var() == pytest.approx(sd * sd, rel=0.02)
    if frame == "qpsk":
        assert abs(np.corrcoef(noise.real, noise.imag)[0, 1]) < 4.0 / math.sqrt(noise.size)
