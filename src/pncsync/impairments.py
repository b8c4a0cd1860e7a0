"""Received-signal impairments at the relay.

Two impairment classes are modeled, each on its own (they are analyzed and
simulated separately, never jointly):

  * residual carrier phase offset between the two arriving signals,
    folded into [-pi/4, pi/4) by quadrant symmetry of QPSK;
  * symbol-time offset between the two arriving pulse trains, with
    raised-cosine pulses and the receiver sampling midway between the two
    symbol centers.

Time is in symbol periods throughout, and `_mid_offset_taps` is the one
source of the mid-offset taps: `isi_taps` for one offset per frame, the
closed-form analysis for whole offset grids.

The per-frame channel synthesis of the Monte-Carlo runners lives here too:
the offset draws and the noisy received frames, each drawn from an
explicit RNG stream in a fixed order so runs are reproducible.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

QUARTER = math.pi / 2
_SING_TOL = 1e-9  # exact-hit window around removable singularities, in symbol periods


@dataclass(frozen=True)
class PulseShape:
    """Raised-cosine pulse: roll-off and ISI truncation window (symbols per side)."""

    rolloff: float = 0.5
    truncation_symbols: int = 16

    def __post_init__(self):
        if not 0.0 <= self.rolloff <= 1.0:
            raise ValueError(f"rolloff must be in [0, 1], got {self.rolloff}")
        if self.truncation_symbols < 1:
            raise ValueError(f"truncation must be >= 1, got {self.truncation_symbols}")


def fold_phase(theta: float) -> tuple[float, int]:
    """Reduce a phase to [-pi/4, pi/4) plus a quadrant count k in {0,1,2,3}.

    theta = folded + k*pi/2 (mod 2*pi).  Rotating one QPSK symbol by k
    quadrants (multiplying it by 1j**k) undoes the reduction, so detection
    may always assume a folded offset.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    folded = math.remainder(theta, QUARTER)  # exactly theta - k*QUARTER, in [-pi/4, pi/4]
    folded = -folded if folded == math.pi / 4 else folded  # the range is half-open
    return folded, round((theta - folded) / QUARTER) % 4


def superpose_phase_offset(s1: complex, s3: complex, theta: float) -> complex:
    """Noiseless superposition s1 + s3*e^{j*theta} at the relay."""
    return s1 + s3 * cmath.exp(1j * theta)


def raised_cosine(t, rolloff: float = 0.5):
    """Raised-cosine pulse p(t) = sin(pi t) cos(pi b t) / (pi t (1 - 4 b^2 t^2)).

    t is in symbol periods.  Normalized so p(0) = 1; p(k) = 0 for nonzero
    integer k.  The removable singularities at t = 0 and |t| = 1/(2b) are
    evaluated by their limits when t falls within 1e-9 of them.  Accepts
    scalars or arrays.
    """
    if not 0.0 <= rolloff <= 1.0:
        raise ValueError(f"rolloff must be in [0, 1], got {rolloff}")
    x = np.asarray(t, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)

    ax = np.abs(x)
    zero = ax < _SING_TOL
    if rolloff > 0.0:
        sing = np.abs(ax - 1.0 / (2 * rolloff)) < _SING_TOL
    else:
        sing = np.zeros_like(zero)
    if zero.any() or sing.any():
        out = np.empty_like(x)
        ok = ~(zero | sing)
        out[ok] = _raised_cosine_formula(x[ok], rolloff)
        out[zero] = 1.0
        if rolloff > 0.0:
            out[sing] = (np.pi / 4) * np.sinc(1.0 / (2 * rolloff))
    else:
        # elementwise, so the same bits as evaluating the entries one by one
        out = _raised_cosine_formula(x, rolloff)
    return float(out[0]) if scalar else out


def _raised_cosine_formula(x, rolloff: float):
    """p(x) by its closed form, for inputs away from the removable singularities."""
    return (np.sin(np.pi * x) * np.cos(np.pi * rolloff * x)
            / ((np.pi * x) * (1.0 - (2 * rolloff * x) ** 2)))


def _mid_offset_taps(dt_frac, pulse: PulseShape):
    """`isi_taps` for a scalar or a 1-D array of offsets (one row of taps per offset).

    Broadcasts `lags + dt/2` to shape dt.shape + (2L+1,) and evaluates the
    pulse elementwise, so each row is bit-identical to the scalar taps.
    The pulse is even bit for bit, so the late taps p(lags - dt/2) are the
    early taps reversed along the lag axis: a view of the same read-only
    array.
    """
    L = pulse.truncation_symbols
    lags = np.arange(-L, L + 1)
    half = np.asarray(dt_frac, dtype=float)[..., None] / 2
    taps_early = raised_cosine(lags + half, pulse.rolloff)
    taps_early.setflags(write=False)
    return lags, taps_early, taps_early[..., ::-1]


def isi_taps(dt_frac: float, pulse: PulseShape):
    """Pulse taps seen by the mid-offset sampler, one vector per train.

    dt_frac is one time offset in symbol periods (a scalar; offset grids go
    through `_mid_offset_taps`).  Returns (lags, taps_early, taps_late)
    where lags = -L..L and the sample of symbol k picks up
    a_early[k-j]*taps_early[j] + a_late[k-j]*taps_late[j].  The early
    train is shifted +dt/2 from the sampling comb, the late train -dt/2,
    so the centre taps taps_early[L] = taps_late[L] = p(dt/2) carry the
    desired symbols and, the pulse being even, taps_late is taps_early
    reversed (a read-only view of it).
    """
    return _mid_offset_taps(float(dt_frac), pulse)


def mid_offset_frame(a1, a3, taps_early, taps_late) -> np.ndarray:
    """Mid-offset samples of a whole frame from `isi_taps` taps (zero-padded edges).

    Returns one sample per symbol.  The trains must be longer than 2L
    symbols (2L+1 taps): on shorter ones mode="same" would return one
    sample per tap instead.
    """
    if np.shape(a1) != np.shape(a3):
        raise ValueError("trains must have equal length")
    if len(a1) <= len(taps_early) - 1:
        raise ValueError(f"trains must be longer than 2L = {len(taps_early) - 1} "
                         f"symbols, got {len(a1)}")
    return 0.5 * (np.convolve(a1, taps_early, mode="same")
                  + np.convolve(a3, taps_late, mode="same"))


# ---------------------------------------------------------------------------
# per-frame channel synthesis (draw order is part of the RNG stream contract)


def draw_phase_offset(rng: np.random.Generator) -> float:
    """One frame's phase offset: uniform over [-pi/4, pi/4], folded."""
    return fold_phase(float(rng.uniform(-math.pi / 4, math.pi / 4)))[0]


def draw_time_offset(half_range: float, rng: np.random.Generator) -> float:
    """One frame's time offset dt, in symbols: uniform over [-x, x]; x = 0 draws nothing."""
    return float(rng.uniform(-half_range, half_range)) if half_range > 0 else 0.0


def qpsk_pair_frame(n: int, theta: float, sd: float, rng: np.random.Generator):
    """n noisy samples r = s1 + s3 e^{j theta} + noise: (r, xor_i, xor_q).

    Draws the bits i1, q1, i3, q3, then the I and Q noise, each N(0, sd^2).
    """
    i1, q1, i3, q3 = (rng.integers(0, 2, n) for _ in range(4))
    r = ((2 * i1 - 1) + 1j * (2 * q1 - 1)) \
        + ((2 * i3 - 1) + 1j * (2 * q3 - 1)) * np.exp(1j * theta)
    r = r + sd * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return r, i1 ^ i3, q1 ^ q3


def time_offset_frame(n: int, taps_early, taps_late, sd: float, rng: np.random.Generator):
    """n noisy mid-offset samples of one real dimension: (r, true xor bits).

    Given the frame's `isi_taps` taps, draws two +-1 trains of n + 2L
    symbols (L = truncation window), then N(0, sd^2) noise on the middle n.
    """
    L = len(taps_early) // 2
    a1 = rng.integers(0, 2, n + 2 * L) * 2 - 1
    a3 = rng.integers(0, 2, n + 2 * L) * 2 - 1
    r = mid_offset_frame(a1, a3, taps_early, taps_late)[L:L + n]
    r = r + sd * rng.standard_normal(n)
    return r, (a1[L:L + n] != a3[L:L + n]).astype(np.int8)
