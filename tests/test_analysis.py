import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pncsync import analysis
from pncsync.analysis import (
    SinrContext,
    avg_phase_penalty_db,
    avg_sinr_penalty_db,
    emit_penalty_curves,
    isi_variance,
    min_distance_sq,
    phase_penalty_db,
    sinr_linear,
    sinr_penalty_db,
    sir_1d_traditional_db,
    worst_sinr_penalty_db,
)
from pncsync.impairments import _mid_offset_taps, isi_taps
from test_impairments import _bench_rolloffs

CTX = SinrContext(snr0_db=10.0, rolloff=0.5, truncation_symbols=16)


# ---------------------------------------------------------------------------
# phase penalty


def test_min_distance_endpoints():
    assert min_distance_sq(0.0) == pytest.approx(4.0, abs=1e-15)
    assert min_distance_sq(math.pi / 4) == pytest.approx(0.6862915010152, abs=1e-12)
    assert min_distance_sq(-math.pi / 8) == min_distance_sq(math.pi / 8)
    with pytest.raises(ValueError):
        min_distance_sq(math.pi / 2)


def test_phase_penalty_values():
    assert phase_penalty_db(0.0) == 0.0
    assert phase_penalty_db(math.pi / 4) == pytest.approx(-7.65551370676, abs=1e-9)
    assert phase_penalty_db(math.pi / 4) <= -7.0
    assert phase_penalty_db(-math.pi / 4) == phase_penalty_db(math.pi / 4)


def test_avg_phase_penalty_against_closed_form():
    # antiderivative of 3 - 2cos - 2sin is 3t - 2sin + 2cos, so the average
    # linear bound over the folded range is (4/pi)(3pi/4 - 2) = 3 - 8/pi
    closed = 3.0 - 8.0 / math.pi
    assert closed == pytest.approx(0.4535209105296, abs=1e-12)
    avg_db = avg_phase_penalty_db()
    assert 10 ** (avg_db / 10) == pytest.approx(closed, abs=1e-9)
    assert avg_db == pytest.approx(-3.434026840873, abs=1e-9)
    assert -3.5 < avg_db < -3.3
    t = np.linspace(0.0, math.pi / 4, 100_001)  # the linear bound, integrated numerically
    linear = (1.0 - np.cos(t)) ** 2 + (1.0 - np.sin(t)) ** 2
    assert np.trapezoid(linear, t) * 4.0 / math.pi == pytest.approx(closed, abs=1e-9)


# ---------------------------------------------------------------------------
# 1-D SIR series


def _sir_partial_db(alpha, terms):
    """The 1-D SIR series of sir_1d_traditional_db cut after `terms` terms."""
    total = sum(2.0 / (2 + 4 * l) ** alpha + 1.0 / (3 + 4 * l) ** alpha
                + 1.0 / (5 + 4 * l) ** alpha for l in range(terms))
    return 10.0 * math.log10(1.0 / total)


def test_sir_values():
    assert sir_1d_traditional_db(4.0) == pytest.approx(8.49204320, abs=1e-6)
    # leading term only: 2/16 + 1/81 + 1/625
    assert _sir_partial_db(4.0, 1) == pytest.approx(8.57154955, abs=1e-6)
    # large alpha: the 2/2^alpha term dominates, SIR -> 2^(alpha-1)
    assert sir_1d_traditional_db(20.0) == pytest.approx(
        10 * math.log10(2 ** 19), abs=0.01)


def test_sir_truncation_stable_after_100_terms():
    a = _sir_partial_db(4.0, 100)
    b = sir_1d_traditional_db(4.0)
    assert abs(a - b) < 1e-3


def test_sir_rejects_divergent_alpha():
    with pytest.raises(ValueError):
        sir_1d_traditional_db(1.0)
    with pytest.raises(ValueError):
        sir_1d_traditional_db(0.5)


# ---------------------------------------------------------------------------
# ISI variance and SINR penalty


def test_isi_variance_zero_offset():
    assert isi_variance(np.array([0.0]), CTX)[0] == pytest.approx(0.0, abs=1e-24)


def test_isi_variance_frozen_values():
    got = isi_variance(np.array([0.5, 0.2]), CTX)
    assert got == pytest.approx([0.17562429102885, 0.02621805510502], abs=1e-12)


def test_isi_variance_matches_monte_carlo():
    # expectation of the squared unscaled tail sum over random +-1 symbols
    rng = np.random.default_rng(2024)
    dt = 0.5
    L = CTX.truncation_symbols
    lags = np.concatenate([np.arange(-L, 0), np.arange(1, L + 1)])
    pe = analysis.raised_cosine(lags + dt / 2, CTX.rolloff)
    pl = analysis.raised_cosine(lags - dt / 2, CTX.rolloff)
    n, block = 1_000_000, 100_000  # rows drawn a block at a time to bound memory
    total = 0.0
    for _ in range(n // block):
        s1 = rng.integers(0, 2, (block, lags.size)) * 2 - 1
        s3 = rng.integers(0, 2, (block, lags.size)) * 2 - 1
        total += float(np.sum((s1 @ pe + s3 @ pl) ** 2))
    assert isi_variance(np.array([dt]), CTX)[0] == pytest.approx(total / n, rel=0.01)


@given(st.floats(0.0, 0.5))
def test_isi_variance_is_even(x):
    minus, plus = isi_variance(np.array([-x, x]), CTX)
    assert minus == pytest.approx(plus, abs=1e-15)


def test_sinr_penalty_zero_offset_is_exactly_zero():
    assert sinr_penalty_db(np.array([0.0]), CTX)[0] == 0.0


def test_sinr_penalty_frozen_values():
    # values follow from the stated formula: signal p(dt/2)^2 against
    # (isi + noise)/noise at snr0 = 10 dB, rolloff 0.5
    got = sinr_penalty_db(np.array([0.5, 0.2]), CTX)
    assert got == pytest.approx([-5.442391090587, -1.174870361245], abs=1e-9)
    assert worst_sinr_penalty_db(CTX) == pytest.approx(-5.442391090587, abs=1e-6)


def test_sinr_penalty_is_even():
    x = np.array([0.1, 0.25, 0.5])
    assert sinr_penalty_db(-x, CTX) == pytest.approx(sinr_penalty_db(x, CTX), abs=1e-15)


def test_avg_sinr_penalty_frozen_value():
    assert avg_sinr_penalty_db(CTX) == pytest.approx(-1.76695, abs=1e-3)


def test_avg_sinr_quadrature_grids_agree():
    a = _array_avg(CTX, 101)
    b = avg_sinr_penalty_db(CTX)  # 1001 points
    assert abs(a - b) < 0.01


def test_avg_sinr_noise_dominated_limit():
    # with enormous noise the ISI is negligible and the average reduces to
    # the mean squared signal attenuation, 10*log10(int p(t/2)^2 dt)
    ctx = SinrContext(snr0_db=-60.0, rolloff=0.5, truncation_symbols=16)
    want = 10 * math.log10(0.9261980779591634)
    assert avg_sinr_penalty_db(ctx) == pytest.approx(want, abs=1e-3)


# ---------------------------------------------------------------------------
# curve emission


def test_curves_shape_and_endpoints():
    (pname, phase), (tname, timec) = emit_penalty_curves(CTX)
    assert (pname, tname) == ("phase", "time")
    assert len(phase) == len(timec) == 101
    assert phase[0][0] == -math.pi / 4 and phase[-1][0] == math.pi / 4
    assert phase[0][1] == pytest.approx(phase_penalty_db(-math.pi / 4))
    assert phase[-1][1] == pytest.approx(phase_penalty_db(math.pi / 4))
    assert timec[0][0] == -0.5 and timec[-1][0] == 0.5
    mid = timec[len(timec) // 2]
    assert mid[0] == pytest.approx(0.0) and mid[1] == 0.0
    for points in (phase, timec):
        xs = [p for p, _ in points]
        assert all(b > a for a, b in zip(xs, xs[1:]))
        assert all(math.isfinite(v) for _, v in points)


def test_phase_curve_monotone_on_positive_half():
    (_, phase), _ = emit_penalty_curves(CTX)
    finer = [(float(t), phase_penalty_db(float(t)))
             for t in np.linspace(-math.pi / 4, math.pi / 4, 201)]
    for points in (phase, finer):
        vals = [v for p, v in points if p >= 0]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# offset grids as arrays: bit for bit the scalar formulas, one offset at a time
#
# The oracles are the scalar loops the grid code replaced: one one-offset
# isi_taps call, two 1-D np.sum calls and math.log10 per offset.


def _oracle_isi_variance(dt, ctx):
    lags, te, tl = isi_taps((dt,), ctx.pulse())
    tails = lags != 0
    return float(np.sum(te[0, tails] ** 2) + np.sum(tl[0, tails] ** 2))


def _pulse_at(t, rolloff):
    return float(analysis.raised_cosine(np.array([t]), rolloff)[0])


def _oracle_sinr_linear(dt, ctx):
    p = _pulse_at(dt / 2, ctx.rolloff)
    return p * p / (_oracle_isi_variance(dt, ctx) + ctx.noise_var())


def _oracle_sinr_penalty_db(dt, ctx):
    p = _pulse_at(dt / 2, ctx.rolloff)
    s_n = ctx.noise_var()
    return (10.0 * math.log10(p * p)
            - 10.0 * math.log10((_oracle_isi_variance(dt, ctx) + s_n) / s_n))


def _oracle_avg(ctx, num_points):
    taus = np.linspace(-0.5, 0.5, num_points)
    vals = np.array([_oracle_sinr_linear(t, ctx) for t in taus])
    return 10.0 * math.log10(np.trapezoid(vals, taus)) - ctx.snr0_db


def _oracle_worst(ctx, num_points):
    return min(_oracle_sinr_penalty_db(t, ctx) for t in np.linspace(0.0, 0.5, num_points))


def _oracle_time_curve(ctx, num_points):
    return tuple((float(t), _oracle_sinr_penalty_db(float(t), ctx))
                 for t in np.linspace(-0.5, 0.5, num_points))


# the sweeps of avg_/worst_sinr_penalty_db and the time curve of
# emit_penalty_curves on any grid size, built from the public array calls


def _array_avg(ctx, num_points):
    taus = np.linspace(-0.5, 0.5, num_points)
    return 10.0 * math.log10(np.trapezoid(sinr_linear(taus, ctx), taus)) - ctx.snr0_db


def _array_worst(ctx, num_points):
    return min(sinr_penalty_db(np.linspace(0.0, 0.5, num_points), ctx).tolist())


def _array_time_curve(ctx, num_points):
    taus = np.linspace(-0.5, 0.5, num_points)
    return list(zip(taus.tolist(), sinr_penalty_db(taus, ctx).tolist()))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


GRIDS = (np.linspace(-0.5, 0.5, 1001), np.linspace(0.0, 0.5, 1001))
# the array call covers the whole grid; the scalar oracle (about 0.1 ms a
# call) checks every 50th offset, which lands in each block of rows
CHECKED = list(range(0, 1001, 50))
ALL_ROLLOFFS = (0.0,) + _bench_rolloffs()


def _assert_grid_matches(fn, oracle, ctx, grid):
    got = fn(grid, ctx)
    assert isinstance(got, np.ndarray) and got.shape == grid.shape
    for i in CHECKED:
        assert _bits(got[i]) == _bits(oracle(float(grid[i]), ctx)), (fn.__name__, ctx, grid[i])


@pytest.mark.parametrize("rolloff", ALL_ROLLOFFS)
def test_isi_variance_array_is_the_scalar_call_bit_for_bit(rolloff):
    for L in (1, 8, 16, 40):
        ctx = SinrContext(10.0, rolloff, L)
        for grid in GRIDS:
            _assert_grid_matches(isi_variance, _oracle_isi_variance, ctx, grid)
        # the centre column of each penalty grid's taps is p(dt/2), bit for bit
        for grid in GRIDS + (np.linspace(-0.5, 0.5, 101),):
            lags, te, tl = _mid_offset_taps(grid, ctx.pulse())
            p = analysis.raised_cosine(grid / 2, rolloff)
            assert _bits(te[:, lags == 0][:, 0]).tolist() == _bits(p).tolist()
            assert _bits(tl[:, lags == 0][:, 0]).tolist() == _bits(p).tolist()


@pytest.mark.parametrize("rolloff", ALL_ROLLOFFS)
def test_sinr_arrays_are_the_scalar_calls_bit_for_bit(rolloff):
    # every roll-off at the default truncation; the other truncations at
    # the roll-off edges and the default
    for L in (1, 8, 16, 40) if rolloff in (0.0, 0.5, 1.0) else (16,):
        ctx = SinrContext(10.0, rolloff, L)
        for grid in GRIDS:
            _assert_grid_matches(sinr_linear, _oracle_sinr_linear, ctx, grid)
            _assert_grid_matches(sinr_penalty_db, _oracle_sinr_penalty_db, ctx, grid)


def _per_row_isi_variance(dt, ctx):
    """isi_variance by one 1-D np.add.reduce per offset, on the program's tap grid."""
    lags, te, tl = _mid_offset_taps(dt, ctx.pulse())
    tails = lags != 0
    return np.array([np.add.reduce(e[tails] ** 2) + np.add.reduce(l[tails] ** 2)
                     for e, l in zip(te, tl)])


def _assert_every_offset_is_the_per_row_reduce(dt, ctx):
    got = isi_variance(dt, ctx)
    want = _per_row_isi_variance(dt, ctx)
    assert got.shape == dt.shape
    differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert differ.size == 0, (ctx, differ.size, dt[differ[:3]])


# the three grids of `pnc penalty` in one call: 2,103 offsets
PENALTY_GRIDS = np.concatenate([np.linspace(-0.5, 0.5, 1001), np.linspace(0.0, 0.5, 1001),
                                np.linspace(-0.5, 0.5, 101)])


@pytest.mark.parametrize("rolloff", (0.0, 0.25, 0.5, 1.0))
@pytest.mark.parametrize("L", (1, 16, 40))
def test_isi_variance_is_the_per_row_reduce_at_every_offset(rolloff, L):
    # grids up to twice the largest the program passes
    ctx = SinrContext(10.0, rolloff, L)
    for n in (0, 1, 2, 1023, 1024, 1025):
        _assert_every_offset_is_the_per_row_reduce(np.linspace(-0.5, 0.5, n), ctx)
    _assert_every_offset_is_the_per_row_reduce(PENALTY_GRIDS, ctx)


@given(st.lists(st.floats(-0.5, 0.5), max_size=40), st.sampled_from((1, 16, 40)),
       st.sampled_from(ALL_ROLLOFFS))
def test_isi_variance_is_the_per_row_reduce_on_any_offsets(dt, L, rolloff):
    _assert_every_offset_is_the_per_row_reduce(np.array(dt, dtype=float),
                                               SinrContext(10.0, rolloff, L))


def test_isi_variance_array_checks_every_offset():
    with pytest.raises(ValueError, match="0.6"):
        isi_variance(np.array([0.0, 0.2, -0.6]), CTX)
    assert isi_variance(np.array([]), CTX).shape == (0,)


@pytest.mark.parametrize("ctx", [CTX, SinrContext(10.0, 0.35, 8), SinrContext(3.0, 0.0, 1)],
                         ids=["default", "r035_t8", "r0_t1"])
@pytest.mark.parametrize("num_points", (2, 101, 1001))
def test_penalty_sweeps_match_the_scalar_loops_bit_for_bit(ctx, num_points):
    avg, worst = _array_avg(ctx, num_points), _array_worst(ctx, num_points)
    assert _bits(avg) == _bits(_oracle_avg(ctx, num_points))
    assert _bits(worst) == _bits(_oracle_worst(ctx, num_points))
    timec = _array_time_curve(ctx, num_points)
    want = _oracle_time_curve(ctx, num_points)
    assert [tuple(map(_bits, pt)) for pt in timec] == [tuple(map(_bits, pt)) for pt in want]
    # the public sweeps are these at their fixed grid sizes
    if num_points == 1001:
        assert _bits(avg_sinr_penalty_db(ctx)) == _bits(avg)
        assert _bits(worst_sinr_penalty_db(ctx)) == _bits(worst)
    if num_points == 101:
        _, (name, got) = emit_penalty_curves(ctx)
        assert name == "time"
        assert [tuple(map(_bits, pt)) for pt in got] == [tuple(map(_bits, pt)) for pt in want]
        assert all(type(v) is float for pt in got for v in pt)
