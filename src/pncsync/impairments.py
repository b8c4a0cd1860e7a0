"""Received-signal impairments at the relay.

Two impairment classes are modeled, each on its own (they are analyzed and
simulated separately, never jointly):

  * residual carrier phase/frequency offset between the two arriving
    signals, folded into a single per-symbol phase in [-pi/4, pi/4) by
    quadrant symmetry of QPSK;
  * symbol-time offset between the two arriving pulse trains, with
    raised-cosine pulses and the receiver sampling midway between the two
    symbol centers.

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
_SING_TOL = 1e-9  # exact-hit window around removable singularities, in units of T


@dataclass(frozen=True)
class SyncOffsets:
    """Impairment triple: phase offset, per-symbol frequency offset, time offset.

    delta_theta       carrier phase offset, radians
    delta_omega       frequency offset expressed as radians per symbol
    time_offset_frac  symbol-time offset as a fraction of T, in [-0.5, 0.5]
    symbol_duration   T, seconds
    """

    delta_theta: float = 0.0
    delta_omega: float = 0.0
    time_offset_frac: float = 0.0
    symbol_duration: float = 1.0

    def __post_init__(self):
        if not abs(self.time_offset_frac) <= 0.5:
            raise ValueError(f"time_offset_frac must be in [-0.5, 0.5], got {self.time_offset_frac}")
        if self.symbol_duration <= 0:
            raise ValueError("symbol_duration must be positive")
        # one impairment class per scenario
        if self.time_offset_frac != 0.0 and (self.delta_theta != 0.0 or self.delta_omega != 0.0):
            raise ValueError("phase/frequency offset and time offset are modeled separately; "
                             "set one class of offsets per scenario")

    def phase_at(self, k: int) -> float:
        """Folded effective phase for symbol k: fold(delta_theta + k*delta_omega)."""
        return fold_phase(self.delta_theta + k * self.delta_omega)[0]


@dataclass(frozen=True)
class PulseShape:
    """Raised-cosine pulse: roll-off and ISI truncation window (symbols per side)."""

    rolloff: float = 0.5
    truncation_symbols: int = 16

    def __post_init__(self):
        if not 0.0 <= self.rolloff <= 1.0:
            raise ValueError(f"rolloff must be in [0, 1], got {self.rolloff}")
        if self.truncation_symbols < 1:
            raise ValueError("truncation_symbols must be >= 1")


def fold_phase(theta: float) -> tuple[float, int]:
    """Reduce a phase to [-pi/4, pi/4) plus a quadrant count k in {0,1,2,3}.

    theta = folded + k*pi/2 (mod 2*pi).  Rotating one QPSK symbol by k
    quadrants undoes the reduction, so detection may always assume a
    folded offset.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    k = math.floor((theta + math.pi / 4) / QUARTER)
    folded = theta - k * QUARTER
    return folded, k % 4


def rotate_symbol(sym: complex, quadrant: int) -> complex:
    """Rotate a QPSK point by quadrant*pi/2 (multiply by 1j**quadrant, exact)."""
    if quadrant not in (0, 1, 2, 3):
        raise ValueError(f"quadrant must be in 0..3, got {quadrant}")
    return sym * (1j ** quadrant)


def superpose_phase_offset(s1: complex, s3: complex, theta: float) -> complex:
    """Noiseless superposition s1 + s3*e^{j*theta} at the relay."""
    return s1 + s3 * cmath.exp(1j * theta)


def raised_cosine(t, T: float = 1.0, rolloff: float = 0.5):
    """Raised-cosine pulse p(t) = sin(pi t/T) cos(pi b t/T) / (pi t/T (1 - 4 b^2 t^2/T^2)).

    Normalized so p(0) = 1; p(kT) = 0 for nonzero integer k.  The removable
    singularities at t = 0 and |t| = T/(2b) are evaluated by their limits
    when t falls within 1e-9*T of them.  Accepts scalars or arrays.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if not 0.0 <= rolloff <= 1.0:
        raise ValueError(f"rolloff must be in [0, 1], got {rolloff}")
    x = np.asarray(t, dtype=float) / T
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)

    zero = np.abs(x) < _SING_TOL
    if rolloff > 0.0:
        sing = np.abs(np.abs(x) - 1.0 / (2 * rolloff)) < _SING_TOL
    else:
        sing = np.zeros_like(x, dtype=bool)
    ok = ~(zero | sing)

    xo = x[ok]
    out[ok] = (np.sin(np.pi * xo) * np.cos(np.pi * rolloff * xo)
               / ((np.pi * xo) * (1.0 - (2 * rolloff * xo) ** 2)))
    out[zero] = 1.0
    if rolloff > 0.0:
        out[sing] = (np.pi / 4) * np.sinc(1.0 / (2 * rolloff))
    return float(out[0]) if scalar else out


def isi_taps(dt_frac: float, pulse: PulseShape, T: float = 1.0):
    """Pulse taps seen by the mid-offset sampler, one vector per train.

    Returns (lags, taps_early, taps_late) where lags = -L..L and the sample
    of symbol k picks up a_early[k-j]*taps_early[j] + a_late[k-j]*taps_late[j].
    The early train is shifted +dt/2 from the sampling comb, the late train
    -dt/2.
    """
    L = pulse.truncation_symbols
    lags = np.arange(-L, L + 1)
    taps_early = raised_cosine((lags + dt_frac / 2) * T, T, pulse.rolloff)
    taps_late = raised_cosine((lags - dt_frac / 2) * T, T, pulse.rolloff)
    return lags, taps_early, taps_late


def sample_with_time_offset(a1, a3, k: int, offsets: SyncOffsets, pulse: PulseShape) -> float:
    """Mid-offset sample of symbol k for two misaligned +-1 pulse trains.

    Implements the matched-filter output sampled halfway between the two
    trains' symbol centers:

        r[k] = (a1[k]+a3[k]) p(dt/2)/2
               + 1/2 sum_{l != k, |l-k| <= L} a1[l] p((k-l)T + dt/2)
                                            + a3[l] p((k-l)T - dt/2)

    Sequences must cover the full ISI window [k-L, k+L].
    """
    a1 = np.asarray(a1, dtype=float)
    a3 = np.asarray(a3, dtype=float)
    L = pulse.truncation_symbols
    if k - L < 0 or k + L >= len(a1) or k + L >= len(a3):
        raise IndexError(f"ISI window [{k - L}, {k + L}] exceeds sequence bounds "
                         f"(len {len(a1)}, {len(a3)})")
    T = offsets.symbol_duration
    _, te, tl = isi_taps(offsets.time_offset_frac, pulse, T)
    # taps are indexed by lag j = k - l, so reverse the symbol slice
    seg1 = a1[k - L: k + L + 1][::-1]
    seg3 = a3[k - L: k + L + 1][::-1]
    return 0.5 * float(seg1 @ te + seg3 @ tl)


def mid_offset_frame(a1, a3, dt_frac: float, pulse: PulseShape) -> np.ndarray:
    """Vectorized mid-offset samples for a whole frame (zero-padded edges)."""
    a1 = np.asarray(a1, dtype=float)
    a3 = np.asarray(a3, dtype=float)
    if a1.shape != a3.shape:
        raise ValueError("trains must have equal length")
    _, te, tl = isi_taps(dt_frac, pulse)
    return 0.5 * (np.convolve(a1, te, mode="same") + np.convolve(a3, tl, mode="same"))


# ---------------------------------------------------------------------------
# per-frame channel synthesis (draw order is part of the RNG stream contract)


def draw_phase_offset(rng: np.random.Generator) -> float:
    """One frame's phase offset: uniform over [-pi/4, pi/4], folded."""
    return fold_phase(float(rng.uniform(-math.pi / 4, math.pi / 4)))[0]


def draw_time_offset(half_range: float, rng: np.random.Generator) -> float:
    """One frame's time offset dt/T: uniform over [-x, x]; x = 0 draws nothing."""
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


def time_offset_frame(n: int, dt_frac: float, sd: float, pulse: PulseShape,
                      rng: np.random.Generator):
    """n noisy mid-offset samples of one real dimension: (r, true xor bits).

    Draws two +-1 trains of n + 2L symbols (L = truncation window), then
    N(0, sd^2) noise on the middle n samples.
    """
    L = pulse.truncation_symbols
    a1 = rng.integers(0, 2, n + 2 * L) * 2 - 1
    a3 = rng.integers(0, 2, n + 2 * L) * 2 - 1
    r = mid_offset_frame(a1, a3, dt_frac, pulse)[L:L + n]
    r = r + sd * rng.standard_normal(n)
    return r, (a1[L:L + n] != a3[L:L + n]).astype(np.int8)
