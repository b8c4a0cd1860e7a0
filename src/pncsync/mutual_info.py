"""Monte-Carlo mutual information of the xor symbol at the relay.

All estimates are I(X; r)/2 in bits per real dimension, where X is the
4-ary xor class.  With a phase offset the I and Q dimensions couple, so
the information is computed jointly in 2-D and halved.  With a time
offset (phase perfect) the dimensions decouple and the per-dimension
binary xor information is computed directly from the scalar mid-offset
sample, the nearest neighbors' ISI marginalized as 81 distinct values
weighted by multiplicity.  Gaussian mixtures are evaluated in the log
domain by the shared max-shifted kernel `detection.logsumexp`, so
high-SNR runs do not underflow.
"""

from __future__ import annotations

import math
import numpy as np

from .detection import build_hypotheses, logsumexp
from .impairments import PulseShape, time_offset_frames

PHASE_GRID_POINTS = 20
# Midpoint grid (k+1/2)/n * pi/4 of the phase_unsync average.  The constellation
# ensemble is symmetric in the sign of the offset, so the positive half
# represents the full [-pi/4, pi/4] uniform distribution.
PHASE_OFFSETS = (np.arange(PHASE_GRID_POINTS) + 0.5) / PHASE_GRID_POINTS * (math.pi / 4)
PHASE_OFFSETS.setflags(write=False)
_LOG2 = math.log(2.0)
_CHUNK = 1 << 16
_ENUM_WINDOW = 2  # neighbors per side whose ISI the time-offset MI enumerates exactly
_ISI_PATTERNS = 2 ** (4 * _ENUM_WINDOW)  # equally likely sign patterns of those neighbors
_WINDOW_LAGS = np.r_[-_ENUM_WINDOW:0, 1:_ENUM_WINDOW + 1]
# one row per distinct window ISI value: (a + a')/2 of each tap-sharing pair, in {-1, 0, 1}
_ISI_COEF = np.indices((3,) * 2 * _ENUM_WINDOW).reshape(2 * _ENUM_WINDOW, -1).T - 1.0
_ISI_LOG_W = np.count_nonzero(_ISI_COEF == 0, axis=1) * _LOG2  # log-multiplicity of each row


def mi_given_theta(snr_db: float, theta: float, num_samples: int,
                   rng: np.random.Generator) -> float:
    """Estimate I(X; r)/2 at one folded phase offset, bits per dimension.

    Draws (s1, s3) uniformly, forms r = s1 + s3 e^{j theta} + noise and
    averages log2 p(r|X) / p(r) over num_samples draws; p(r|x) is the
    equal-weight mixture over the four points of class x.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    flat = build_hypotheses(theta).reshape(-1)
    s2 = 10.0 ** (-snr_db / 10.0)
    sd = math.sqrt(s2)
    total = 0.0
    left = num_samples
    while left > 0:
        n = min(left, _CHUNK)
        idx = rng.integers(0, 16, n)
        cls = idx >> 2  # the xor class, in the class-major layout of `mapping`
        r = flat[idx] + sd * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        # class-major (16, n): the per-class sums run over whole rows, in the
        # same order as along a short last axis; the 16-term sum is pairwise,
        # so it keeps the contiguous (n, 16) layout
        e = -np.abs(r[None, :] - flat[:, None]) ** 2 / (2.0 * s2)
        num = logsumexp(e.reshape(4, 4, n), axis=1)[cls, np.arange(n)]
        den = logsumexp(np.ascontiguousarray(e.T), axis=1)
        total += float(np.sum(num - den)) / _LOG2 + n * 2.0
        left -= n
    return 0.5 * total / num_samples


def mi_phase_unsync(snr_db: float, num_samples: int, rng: np.random.Generator) -> float:
    """Average of mi_given_theta over PHASE_OFFSETS.

    num_samples is the total budget, split evenly across the grid.
    """
    per = max(1, num_samples // PHASE_GRID_POINTS)
    vals = [mi_given_theta(snr_db, t, per, rng) for t in PHASE_OFFSETS]
    return float(np.mean(vals))


def _window_isi_atoms(taps_early, lags):
    """The ISI of the |lag| <= _ENUM_WINDOW neighbors as weighted atoms.

    Neighbor j of the early train and -j of the late one share the tap
    h_j = taps_early[j] (0 past the truncation; the late taps are the early
    ones reversed) and add (a + a')/2 * h_j: -h_j, 0, 0 or +h_j.  Returns
    (atoms, log_w, tail_var): the distinct ISI values, the log of how many
    of the _ISI_PATTERNS sign patterns give each, and the tail variance.
    """
    h = np.pad(taps_early, _ENUM_WINDOW)[lags[-1] + _ENUM_WINDOW + _WINDOW_LAGS]
    tail = taps_early[np.abs(lags) > _ENUM_WINDOW] ** 2
    return _ISI_COEF @ h, _ISI_LOG_W, 0.25 * float(np.sum(tail) + np.sum(tail[::-1]))


def mi_time_unsync(snr_db: float, dt_half_range: float, num_samples: int,
                   rng: np.random.Generator, pulse: PulseShape, frame_len: int) -> float:
    """Per-dimension xor information with a random symbol-time offset.

    Per frame the offset is drawn uniform over [-x, x] symbols, a +-1
    frame is synthesized through the mid-offset sampler, and the
    information of the current xor bit given the scalar sample is
    accumulated.  Neighbor bits are channel randomness, not known: the
    conditional densities mix the ISI of the |lag| <= _ENUM_WINDOW
    neighbors exactly, as weighted atoms, with the truncated tail folded
    into the noise variance.  num_samples rounds up to whole frames.
    """
    if not 0.0 <= dt_half_range <= 0.5:
        raise ValueError(f"dt_half_range must be in [0, 0.5], got {dt_half_range}")
    sd_half = 0.5 * 10.0 ** (-snr_db / 20.0)  # half-amplitude convention
    nframes = max(1, math.ceil(num_samples / frame_len))
    lags = np.arange(-pulse.truncation_symbols, pulse.truncation_symbols + 1)
    total = 0.0
    for _ in range(nframes):
        taps, r, xbit = time_offset_frames(1, 1, frame_len, dt_half_range, pulse, sd_half, rng)
        te, r, xbit = taps[0], r[0, 0], xbit[0, 0]

        level = te[pulse.truncation_symbols]  # p(dt/2); per-dim levels 0 and +-2*(level/2)
        atoms, log_w, tail_var = _window_isi_atoms(te, lags)
        veff = sd_half * sd_half + tail_var
        d = r[:, None] - atoms[None, :]
        # exponents log_w - (d -+ level)^2 / (2 veff) of both bit-0 levels, side by side
        e0 = np.empty((frame_len, 2, atoms.size))
        np.subtract(d, level, out=e0[:, 0])
        np.add(d, level, out=e0[:, 1])
        for e in (e0, d):
            np.square(e, out=e)
            e /= 2.0 * veff
            np.subtract(log_w, e, out=e)
        log_b0 = logsumexp(e0.reshape(frame_len, -1), axis=1) - math.log(2 * _ISI_PATTERNS)
        log_b1 = logsumexp(d, axis=1) - math.log(_ISI_PATTERNS)
        log_x = np.where(xbit == 0, log_b0, log_b1)
        log_mix = logsumexp(np.stack([log_b0, log_b1], axis=1), axis=1) - _LOG2
        total += float(np.sum(log_x - log_mix)) / _LOG2
    return total / (nframes * frame_len)

