"""Received-signal impairments at the relay.

Two impairment classes are modeled, each on its own (they are analyzed and
simulated separately, never jointly):

  * residual carrier phase offset between the two arriving signals,
    folded into [-pi/4, pi/4) by quadrant symmetry of QPSK;
  * symbol-time offset between the two arriving pulse trains, with
    raised-cosine pulses and the receiver sampling midway between the two
    symbol centers.

Time is in symbol periods throughout, and `_mid_offset_taps` is the one
source of the mid-offset taps: `isi_taps` for the offsets of a block of
frames, the closed-form analysis for whole offset grids.

The channel synthesis of the Monte-Carlo runners lives here too: noisy
received samples for a block of frames per call, the superposed QPSK
pairs of given per-frame constellations (`superposed_frames`) and the
mid-offset samples of random time offsets (`time_offset_frames`).  Each
draws its arrays from an explicit RNG stream in a fixed order (the draw
contract in `harness`), so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mapping import POINT_BITS

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


def raised_cosine(t, rolloff: float = 0.5):
    """Raised-cosine pulse p(t) = sin(pi t) cos(pi b t) / (pi t (1 - 4 b^2 t^2)).

    t is in symbol periods.  Normalized so p(0) = 1; p(k) = 0 for nonzero
    integer k.  The removable singularities at t = 0 and |t| = 1/(2b) are
    evaluated by their limits when t falls within 1e-9 of them.  t is an
    array, evaluated elementwise.
    """
    if not 0.0 <= rolloff <= 1.0:
        raise ValueError(f"rolloff must be in [0, 1], got {rolloff}")
    x = np.asarray(t, dtype=float)
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
    return out


def _raised_cosine_formula(x, rolloff: float):
    """p(x) by its closed form, for inputs away from the removable singularities."""
    return (np.sin(np.pi * x) * np.cos(np.pi * rolloff * x)
            / ((np.pi * x) * (1.0 - (2 * rolloff * x) ** 2)))


def _mid_offset_taps(dt_frac, pulse: PulseShape):
    """`isi_taps` for a 1-D array of offsets (one row of taps per offset).

    Broadcasts `lags + dt/2` to shape (len(dt), 2L+1) and evaluates the
    pulse elementwise, so each row has the bits of its one-offset call.
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


def isi_taps(dt_frac, pulse: PulseShape):
    """Pulse taps seen by the mid-offset sampler, one row per offset and train.

    dt_frac is a tuple of F time offsets in symbol periods; each row of
    taps has the bits of its one-offset call.  Anything else is refused:
    the benchmark's tracer keys these calls by their hashable arguments,
    and the analysis takes its offset grids through `_mid_offset_taps`.
    Returns (lags, taps_early, taps_late) where lags = -L..L, the taps
    are (F, 2L+1), and the sample of symbol k of frame f picks up
    a_early[k-j]*taps_early[f, j] + a_late[k-j]*taps_late[f, j].  The
    early train is shifted +dt/2 from the sampling comb, the late train
    -dt/2, so the centre taps taps_early[:, L] = taps_late[:, L] = p(dt/2)
    carry the desired symbols and, the pulse being even, taps_late is
    taps_early reversed (a read-only view of it).
    """
    if not isinstance(dt_frac, tuple):
        raise TypeError(f"dt_frac must be a tuple of offsets, got {type(dt_frac).__name__}")
    return _mid_offset_taps(np.array(dt_frac, dtype=float), pulse)


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
# channel synthesis of the Monte-Carlo runners, a block of frames per call
# (draw order is part of the RNG stream contract)


def superposed_frames(points: np.ndarray, n: int, sd: float, rng: np.random.Generator):
    """n noisy relay samples per frame of r = s1 + s3 e^{j theta} + noise.

    points is the (F, 4, 4) array of `build_hypotheses`, one constellation
    per frame.  Draws the (F, n) uint8 indices of the sent pairs into each
    frame's points, in the class-major layout of `mapping`, then the I
    and Q noise (2, F, n), each N(0, sd^2).  Returns (r, xor bits):
    complex (F, n) and int8 (F, n, 2).
    """
    frames = len(points)
    idx = rng.integers(0, 16, (frames, n), dtype=np.uint8)
    noise = rng.standard_normal((2, frames, n))
    noise *= sd
    r = np.take_along_axis(points.reshape(frames, 16), idx, axis=1)
    r.real += noise[0]
    r.imag += noise[1]
    return r, np.take(POINT_BITS, idx, axis=0)


def time_offset_frames(frames: int, dims: int, n: int, half_range: float, pulse: PulseShape,
                       sd: float, rng: np.random.Generator):
    """n noisy mid-offset samples per real dimension of `frames` frames.

    Draws the frame offsets dt uniform over [-x, x] symbols, shape
    (frames,) (x = 0 draws nothing), then the +-1 trains of every
    dimension of every frame, (frames, dims, 2, n + 2L) as int32, then
    N(0, sd^2) noise (frames, dims, n).  L is the truncation window; the
    dims of a frame share its offset and its `isi_taps` taps.  Returns
    (taps_early, r, xor bits): the (frames, 2L+1) taps, and (frames,
    dims, n) samples and bool bits.
    """
    L = pulse.truncation_symbols
    dt = rng.uniform(-half_range, half_range, frames) if half_range > 0 else np.zeros(frames)
    _, taps_early, taps_late = isi_taps(tuple(dt.tolist()), pulse)
    a = rng.integers(0, 2, (frames, dims, 2, n + 2 * L), dtype=np.int32)
    a <<= 1
    a -= 1
    noise = rng.standard_normal((frames, dims, n))
    r = np.empty((frames, dims, n))
    for f in range(frames):
        for d in range(dims):
            r[f, d] = mid_offset_frame(a[f, d, 0], a[f, d, 1],
                                       taps_early[f], taps_late[f])[L:L + n]
    noise *= sd
    r += noise
    return taps_early, r, a[:, :, 0, L:L + n] != a[:, :, 1, L:L + n]
