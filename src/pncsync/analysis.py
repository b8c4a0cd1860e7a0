"""Closed-form penalty analysis for the two synchronization error classes.

Phase offset: the smallest squared distance between superposed points of
different xor classes shrinks from 4 at zero offset to about 0.686 at
|theta| = pi/4, and the matching power-penalty bound follows from scaling
a perfectly synchronized reference system down to the same distance.

Time offset: mid-offset sampling attenuates the desired amplitude to
p(dt/2) and leaks neighbor symbols through the raised-cosine tails; the
penalty compares the resulting SINR against the reference SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .impairments import PulseShape, _mid_offset_taps, raised_cosine

# 1-D chain SIR of the PNC schedule, carried as an input constant for the
# scheme comparison footer (not recomputed here).
PNC_1D_SIR_DB = 15.3

SNR0_DB = 10.0  # reference SNR of the time-offset penalty (pnc penalty)

_SIR_MAX_TERMS = 100_000  # cap on the terms of the 1-D SIR series
_SINR_GRID_POINTS = 1001  # offsets of the average and worst SINR penalty sweeps
_CURVE_POINTS = 101  # points of each tabulated penalty curve


@dataclass(frozen=True)
class SinrContext:
    """Reference SNR and pulse parameters for the time-offset penalty."""

    snr0_db: float = SNR0_DB
    rolloff: float = 0.5
    truncation_symbols: int = 16

    def __post_init__(self):
        if not math.isfinite(self.snr0_db):
            raise ValueError("snr0_db must be finite")
        self.pulse()  # rolloff in [0, 1] and truncation >= 1

    def pulse(self) -> PulseShape:
        return PulseShape(self.rolloff, self.truncation_symbols)

    def noise_var(self) -> float:
        return 10.0 ** (-self.snr0_db / 10.0)


def min_distance_sq(theta: float) -> float:
    """Smallest squared inter-class distance: 4(1-cos t)^2 + 4(1-sin t)^2.

    Valid for folded offsets; negative values use |theta| by symmetry.
    """
    t = abs(theta)
    if t > math.pi / 4 + 1e-12:
        raise ValueError(f"theta must be folded into [-pi/4, pi/4], got {theta}")
    return 4.0 * (1.0 - math.cos(t)) ** 2 + 4.0 * (1.0 - math.sin(t)) ** 2


def phase_penalty_db(theta: float) -> float:
    """Power-penalty upper bound for one phase offset: 10 log10(d^2/4)."""
    return 10.0 * math.log10(min_distance_sq(theta) / 4.0)


# Mean of the even linear bound (1-cos t)^2 + (1-sin t)^2 over t in [0, pi/4]:
# (4/pi)(3 pi/4 - 2) = 3 - 8/pi, correctly rounded.  Not 3 - 8/math.pi, which is 3 ulp
# low: the rounding of math.pi moves 8/pi by 1.8 ulp of the result, the division 1 more.
_AVG_PHASE_PENALTY_LINEAR = 0.45352091052967464


def avg_phase_penalty_db() -> float:
    """Average penalty bound, phase offset uniform over [-pi/4, pi/4]: 10 log10(3 - 8/pi)."""
    return 10.0 * math.log10(_AVG_PHASE_PENALTY_LINEAR)


def sir_1d_traditional_db(alpha: float) -> float:
    """SIR of the traditional 1-D transmission schedule with path-loss alpha.

    Interferers sit at normalized distances (2+4l), (3+4l), (5+4l), the
    first with multiplicity two; the series is truncated once a term drops
    below 1e-12 or after _SIR_MAX_TERMS terms.
    """
    if alpha <= 1:
        raise ValueError(f"series diverges for alpha <= 1, got {alpha}")
    total = 0.0
    for l in range(_SIR_MAX_TERMS):
        term = (2.0 / (2 + 4 * l) ** alpha
                + 1.0 / (3 + 4 * l) ** alpha
                + 1.0 / (5 + 4 * l) ** alpha)
        total += term
        if term < 1e-12:
            break
    return 10.0 * math.log10(1.0 / total)


def isi_variance(dt_frac, ctx: SinrContext):
    """Variance of the mid-offset ISI for i.i.d. equiprobable +-1 symbols.

    Independence kills every cross term, leaving the sum of squared pulse
    tails of both trains:  sum_{0 < |l| <= L} p(l + dt/2)^2 + p(l - dt/2)^2
    (unit tap amplitudes; any common amplitude scaling cancels in the SINR
    ratio).

    dt_frac is a 1-D array of offsets, taken in one tap grid (the program
    passes at most _SINR_GRID_POINTS).  Each offset's squared tails are
    summed by one reduce over the last axis of a C-contiguous copy: such
    a reduce runs numpy's pairwise sum on each row, which is exactly the
    1-D call.  The boolean-masked tails are not C-contiguous, and a
    reduce over them adds in another order and moves the last bit of
    many rows; the copy is what keeps each element the bits of its
    one-offset call.
    """
    dt = np.asarray(dt_frac, dtype=float)
    bad = dt[np.abs(dt) > 0.5]
    if bad.size:
        raise ValueError(f"|dt_frac| must be <= 0.5, got {bad[0]}")
    lags, te, tl = _mid_offset_taps(dt, ctx.pulse())
    tails = lags != 0
    early = np.ascontiguousarray(te[:, tails])
    late = np.ascontiguousarray(tl[:, tails])
    early *= early
    late *= late
    return np.add.reduce(early, axis=1) + np.add.reduce(late, axis=1)


def sinr_linear(dt_frac, ctx: SinrContext):
    """Linear SINR p(dt/2)^2 / (isi_variance + noise_var) of a 1-D array of offsets."""
    p = raised_cosine(np.asarray(dt_frac) / 2, ctx.rolloff)
    return p * p / (isi_variance(dt_frac, ctx) + ctx.noise_var())


def sinr_penalty_db(dt_frac, ctx: SinrContext):
    """SINR penalty vs the reference SNR: signal loss plus ISI noise raise.

    Takes a 1-D array of offsets.  The logarithms are math.log10 per
    element, not np.log10, whose SIMD kernel differs from the C library's
    in the last bit of some values; so each element has the bits of its
    one-offset call.
    """
    p = raised_cosine(np.asarray(dt_frac) / 2, ctx.rolloff)
    s_n = ctx.noise_var()
    raise_ = (isi_variance(dt_frac, ctx) + s_n) / s_n
    return np.array([10.0 * math.log10(a) - 10.0 * math.log10(b)
                     for a, b in zip((p * p).tolist(), raise_.tolist())])


def avg_sinr_penalty_db(ctx: SinrContext) -> float:
    """Average SINR penalty for a time offset uniform over [-T/2, T/2].

    SINR is averaged on the linear scale over dt/T in [-0.5, 0.5]
    (trapezoid on _SINR_GRID_POINTS), then converted to dB and referenced
    to snr0_db; averaging dB values would not be physically meaningful.
    """
    taus = np.linspace(-0.5, 0.5, _SINR_GRID_POINTS)
    mean = np.trapezoid(sinr_linear(taus, ctx), taus)  # interval has unit width
    return 10.0 * math.log10(mean) - ctx.snr0_db


def worst_sinr_penalty_db(ctx: SinrContext) -> float:
    """Most negative SINR penalty over dt/T in [-0.5, 0.5] (grid minimum)."""
    taus = np.linspace(0.0, 0.5, _SINR_GRID_POINTS)  # even in dt
    return min(sinr_penalty_db(taus, ctx).tolist())


def emit_penalty_curves(ctx: SinrContext) -> list:
    """The phase and time penalty curves: [("phase", points), ("time", points)].

    Each curve is _CURVE_POINTS (parameter, penalty_db) pairs: theta in
    [-pi/4, pi/4] rad, dt/T in [-0.5, 0.5].
    """
    thetas = np.linspace(-math.pi / 4, math.pi / 4, _CURVE_POINTS).tolist()
    taus = np.linspace(-0.5, 0.5, _CURVE_POINTS)
    return [("phase", [(t, phase_penalty_db(t)) for t in thetas]),
            ("time", list(zip(taus.tolist(), sinr_penalty_db(taus, ctx).tolist())))]
