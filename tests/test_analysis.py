import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pncsync import analysis
from pncsync.analysis import (
    PenaltyCurve,
    SinrContext,
    avg_phase_penalty_db,
    avg_phase_penalty_linear_closed_form,
    avg_sinr_penalty_db,
    emit_penalty_curves,
    isi_variance,
    min_distance_sq,
    phase_penalty_db,
    sinr_penalty_db,
    sir_1d_traditional_db,
    worst_sinr_penalty_db,
)

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
    closed = avg_phase_penalty_linear_closed_form()
    assert closed == pytest.approx(0.4535209105296, abs=1e-12)
    quad_db = avg_phase_penalty_db()
    assert 10 ** (quad_db / 10) == pytest.approx(closed, abs=1e-9)
    assert quad_db == pytest.approx(-3.434026840873, abs=1e-9)
    assert -3.5 < quad_db < -3.3


# ---------------------------------------------------------------------------
# 1-D SIR series


def test_sir_values():
    assert sir_1d_traditional_db(4.0) == pytest.approx(8.49204320, abs=1e-6)
    # leading term only: 2/16 + 1/81 + 1/625
    assert sir_1d_traditional_db(4.0, max_terms=1) == pytest.approx(8.57154955, abs=1e-6)
    # large alpha: the 2/2^alpha term dominates, SIR -> 2^(alpha-1)
    assert sir_1d_traditional_db(20.0) == pytest.approx(
        10 * math.log10(2 ** 19), abs=0.01)


def test_sir_truncation_stable_after_100_terms():
    a = sir_1d_traditional_db(4.0, max_terms=100)
    b = sir_1d_traditional_db(4.0, max_terms=100_000)
    assert abs(a - b) < 1e-3


def test_sir_rejects_divergent_alpha():
    with pytest.raises(ValueError):
        sir_1d_traditional_db(1.0)
    with pytest.raises(ValueError):
        sir_1d_traditional_db(0.5)


# ---------------------------------------------------------------------------
# ISI variance and SINR penalty


def test_isi_variance_zero_offset():
    assert isi_variance(0.0, CTX) == pytest.approx(0.0, abs=1e-24)


def test_isi_variance_frozen_values():
    assert isi_variance(0.5, CTX) == pytest.approx(0.17562429102885, abs=1e-12)
    assert isi_variance(0.2, CTX) == pytest.approx(0.02621805510502, abs=1e-12)


def test_isi_variance_matches_monte_carlo():
    # expectation of the squared unscaled tail sum over random +-1 symbols
    rng = np.random.default_rng(2024)
    dt = 0.5
    L = CTX.truncation_symbols
    lags = np.concatenate([np.arange(-L, 0), np.arange(1, L + 1)])
    pe = analysis.raised_cosine(lags + dt / 2, CTX.rolloff)
    pl = analysis.raised_cosine(lags - dt / 2, CTX.rolloff)
    n = 1_000_000
    s1 = rng.integers(0, 2, (n, lags.size)) * 2 - 1
    s3 = rng.integers(0, 2, (n, lags.size)) * 2 - 1
    mc = float(np.mean((s1 @ pe + s3 @ pl) ** 2))
    assert isi_variance(dt, CTX) == pytest.approx(mc, rel=0.01)


@given(st.floats(0.0, 0.5))
def test_isi_variance_is_even(x):
    assert isi_variance(-x, CTX) == pytest.approx(isi_variance(x, CTX), abs=1e-15)


def test_sinr_penalty_zero_offset_is_exactly_zero():
    assert sinr_penalty_db(0.0, CTX) == 0.0


def test_sinr_penalty_frozen_values():
    # values follow from the stated formula: signal p(dt/2)^2 against
    # (isi + noise)/noise at snr0 = 10 dB, rolloff 0.5
    assert sinr_penalty_db(0.5, CTX) == pytest.approx(-5.442391090587, abs=1e-9)
    assert sinr_penalty_db(0.2, CTX) == pytest.approx(-1.174870361245, abs=1e-9)
    assert worst_sinr_penalty_db(CTX) == pytest.approx(-5.442391090587, abs=1e-6)


def test_sinr_penalty_is_even():
    for x in (0.1, 0.25, 0.5):
        assert sinr_penalty_db(-x, CTX) == pytest.approx(sinr_penalty_db(x, CTX), abs=1e-15)


def test_avg_sinr_penalty_frozen_value():
    assert avg_sinr_penalty_db(CTX) == pytest.approx(-1.76695, abs=1e-3)


def test_avg_sinr_quadrature_grids_agree():
    a = avg_sinr_penalty_db(CTX, num_points=101)
    b = avg_sinr_penalty_db(CTX, num_points=1001)
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
    phase, timec = emit_penalty_curves(CTX)
    assert phase.parameter_name == "theta_rad"
    assert timec.parameter_name == "dt_over_T"
    assert phase.points[0][1] == pytest.approx(phase_penalty_db(-math.pi / 4))
    assert phase.points[-1][1] == pytest.approx(phase_penalty_db(math.pi / 4))
    mid = timec.points[len(timec.points) // 2]
    assert mid[0] == pytest.approx(0.0) and mid[1] == 0.0


def test_phase_curve_monotone_on_positive_half():
    phase, _ = emit_penalty_curves(CTX, theta_points=201)
    pos = [(p, v) for p, v in phase.points if p >= 0]
    vals = [v for _, v in pos]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_penalty_curve_validation():
    with pytest.raises(ValueError):
        PenaltyCurve("x", ((0.0, 1.0), (0.0, 2.0)))
    with pytest.raises(ValueError):
        PenaltyCurve("x", ((0.0, math.inf),))
