"""Monte-Carlo mutual information of the xor symbol at the relay.

All estimates are I(X; r)/2 in bits per real dimension, where X is the
4-ary xor class.  With a phase offset the I and Q dimensions couple, so
the information is computed jointly in 2-D and halved.  With a time
offset (phase perfect) the dimensions decouple and the per-dimension
binary xor information is computed directly from the scalar mid-offset
sample, the nearest neighbors' ISI marginalized as 81 distinct values
weighted by multiplicity.

The samples come from the BER synthesizers of `impairments`:
`superposed_frames` for the 2-D estimators, with one frame per phase
offset, and `time_offset_frames` for the time offset.  Every Gaussian
mixture is scored by `detection._log_mixture`, the kernel of the ML
detector too, which shifts it by its nearest point so its log never
meets 0 or an overflow at any SNR.  The draws and the scoring run in
chunks and blocks of a few hundred to a few tens of thousands of
samples through one reused buffer, so memory stays bounded whatever the
budget.
"""

from __future__ import annotations

import math
import numpy as np

from .detection import _PAIR_W, _log_mixture, build_hypotheses
from .impairments import PulseShape, superposed_frames, time_offset_frames

PHASE_GRID_POINTS = 20
# Midpoint grid (k+1/2)/n * pi/4 of the phase_unsync average.  The constellation
# ensemble is symmetric in the sign of the offset, so the positive half
# represents the full [-pi/4, pi/4] uniform distribution.
PHASE_OFFSETS = (np.arange(PHASE_GRID_POINTS) + 0.5) / PHASE_GRID_POINTS * (math.pi / 4)
PHASE_OFFSETS.setflags(write=False)
_LOG2 = math.log(2.0)
_CHUNK = 1 << 14  # samples per draw of the 2-D MI, across offsets (part of the RNG stream)
_BLOCK = 2048  # samples per scoring block of the 2-D MI
_TIME_BLOCK = 512  # samples per (81, .) scoring block of the time MI
_ENUM_WINDOW = 2  # neighbors per side whose ISI the time-offset MI enumerates exactly
_WINDOW_LAGS = np.r_[-_ENUM_WINDOW:0, 1:_ENUM_WINDOW + 1]
# one row per distinct window ISI value: (a + a')/2 of each tap-sharing pair, in {-1, 0, 1}
_ISI_COEF = np.indices((3,) * 2 * _ENUM_WINDOW).reshape(2 * _ENUM_WINDOW, -1).T - 1.0
# how many of the 2^(4 * _ENUM_WINDOW) equally likely sign patterns give each row
_ISI_W = 2.0 ** np.count_nonzero(_ISI_COEF == 0, axis=1)


def mi_given_theta(snr_db: float, theta: float, num_samples: int,
                   rng: np.random.Generator) -> float:
    """Estimate I(X; r)/2 at one folded phase offset, bits per dimension.

    Draws (s1, s3) uniformly, forms r = s1 + s3 e^{j theta} + noise and
    averages log2 p(r|X) / p(r) over num_samples draws; p(r|x) is the
    equal-weight mixture over the four points of class x.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    return _mi_offsets(snr_db, (theta,), num_samples, rng)[0]


def mi_phase_unsync(snr_db: float, num_samples: int, rng: np.random.Generator) -> float:
    """Average of mi_given_theta over PHASE_OFFSETS.

    num_samples is the total budget, split evenly across the grid.  The
    20 offsets are the frames of each `superposed_frames` draw (see
    `_mi_offsets`) and score together.
    """
    per = max(1, num_samples // PHASE_GRID_POINTS)
    return float(np.mean(_mi_offsets(snr_db, tuple(PHASE_OFFSETS.tolist()), per, rng)))


def _mi_offsets(snr_db, thetas, per, rng):
    """mi_given_theta(snr_db, theta, per, rng) of each theta, as a list.

    The offsets are the frames of one `superposed_frames` call per chunk
    of at most _CHUNK samples across offsets (at least one per offset),
    so each chunk draws the (G, n) pair indices, then the (2, G, n) I and
    Q noise.  Each chunk is scored in ceil(G n / _BLOCK) blocks of
    near-equal column counts, adds one sum per offset and is freed
    before the next draw.
    """
    points = build_hypotheses(thetas)
    pts = points.reshape(len(thetas), 16)
    s2 = 10.0 ** (-snr_db / 10.0)
    chunk = max(1, _CHUNK // len(thetas))
    # a block has at most ceil(_BLOCK / G) columns, and no more than the chunk
    buf = np.empty(32 * len(thetas) * min(-(-_BLOCK // len(thetas)), per))
    sums = [0.0] * len(thetas)
    for start in range(0, per, chunk):
        n = min(chunk, per - start)
        r, idx = superposed_frames(points, n, math.sqrt(s2), rng)
        cls = idx >> 2  # the xor class, in the class-major layout of `mapping`
        terms = np.empty((len(thetas), n))
        blocks = -(-len(thetas) * n // _BLOCK)
        for k in range(blocks):
            b = slice(k * n // blocks, (k + 1) * n // blocks)
            terms[:, b] = _log_ratio(r.real[:, b], r.imag[:, b], cls[:, b], pts, 0.5 / s2, buf)
        for g, t in enumerate(terms):
            sums[g] += float(np.sum(t)) / _LOG2 + n * 2.0
        del r, idx, cls, terms
    return [0.5 * s / per for s in sums]


def _class_log_densities(re, im, pts, scale, buf):
    """log sum_j exp(-scale |r - p_cj|^2) of each xor class c, shape (4,) + re.shape.

    re, im are (G, n) samples of G offsets whose points are the rows of
    the (G, 16) class-major pts; scale is 1 / (2 sigma^2).  Each class is
    shifted by its own nearest point.  buf holds at least 32 re.size
    floats for the squared distances.
    """
    size = 16 * re.size
    d2, dq = buf[:2 * size].reshape((2, 16) + re.shape)
    for d, x, p in ((d2, re, pts.real), (dq, im, pts.imag)):
        np.copyto(d, x)
        d -= p.T[:, :, None]
        np.square(d, out=d)
    d2 += dq
    return _log_mixture(d2.reshape(4, 4, -1), _PAIR_W, scale).reshape((4,) + re.shape)


def _log_ratio(re, im, cls, pts, scale, buf):
    """log p(r | x) - log p(r) of samples r of class x, by a 4-way log-sum-exp."""
    lc = _class_log_densities(re, im, pts, scale, buf)
    top = np.maximum(np.maximum(lc[0], lc[1]), np.maximum(lc[2], lc[3]))
    lc -= top
    total = np.exp(lc[0])
    for c in range(1, 4):
        total += np.exp(lc[c])
    return np.take_along_axis(lc, cls[None], axis=0)[0] - np.log(total)


def _window_isi_atoms(taps_early, lags):
    """The ISI of the |lag| <= _ENUM_WINDOW neighbors as weighted atoms.

    Neighbor j of the early train and -j of the late one share the tap
    h_j = taps_early[j] (0 past the truncation; the late taps are the early
    ones reversed) and add (a + a')/2 * h_j: -h_j, 0, 0 or +h_j.  Returns
    (atoms, weights, tail_var): the distinct ISI values, how many of the
    2^(4 * _ENUM_WINDOW) sign patterns give each, and the tail variance.
    """
    h = np.pad(taps_early, _ENUM_WINDOW)[lags[-1] + _ENUM_WINDOW + _WINDOW_LAGS]
    tail = taps_early[np.abs(lags) > _ENUM_WINDOW] ** 2
    return _ISI_COEF @ h, _ISI_W, 0.25 * float(np.sum(tail) + np.sum(tail[::-1]))


def _time_log_densities(r, level, atoms, weights, veff, buf):
    """(log_b0, log_b1): log(P p(r | xor bit)) per sample of 1-D r, P = weights.sum().

    Bit 0 sits at the levels -+level and bit 1 at 0, each spread by the
    ISI atoms (weights_k of the P sign patterns give atoms_k) and
    N(0, veff).  The differences r - atoms_k fill an atom-major
    (K, _TIME_BLOCK) block, which is shifted by -+level for bit 0.  buf
    holds at least 2 K _TIME_BLOCK floats.
    """
    k = atoms.size
    scale = 0.5 / veff
    lf = np.empty((3, r.size))
    for a in range(0, r.size, _TIME_BLOCK):
        rs = r[a:a + _TIME_BLOCK]
        cols = slice(a, a + rs.size)
        d, e = buf[:2 * k * rs.size].reshape(2, k, rs.size)
        np.copyto(d, rs)
        d -= atoms[:, None]
        np.subtract(d, level, out=e)
        _log_mixture(np.square(e, out=e), weights, scale, lf[0, cols])
        np.add(d, level, out=e)
        _log_mixture(np.square(e, out=e), weights, scale, lf[1, cols])
        _log_mixture(np.square(d, out=d), weights, scale, lf[2, cols])
    return np.logaddexp(lf[0], lf[1]) - _LOG2, lf[2]


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

    Each sample adds log2 p(r | x) / (p(r | 0) + p(r | 1)) + 1, whose
    first term is never above 0 in floating point, so the estimate never
    exceeds 1 bit.
    """
    if not 0.0 <= dt_half_range <= 0.5:
        raise ValueError(f"dt_half_range must be in [0, 0.5], got {dt_half_range}")
    sd_half = 0.5 * 10.0 ** (-snr_db / 20.0)  # half-amplitude convention
    nframes = max(1, math.ceil(num_samples / frame_len))
    lags = np.arange(-pulse.truncation_symbols, pulse.truncation_symbols + 1)
    buf = np.empty(2 * _ISI_W.size * _TIME_BLOCK)
    total = 0.0
    for _ in range(nframes):
        taps, r, xbit = time_offset_frames(1, 1, frame_len, dt_half_range, pulse, sd_half, rng)
        te, r, xbit = taps[0], r[0, 0], xbit[0, 0]

        level = te[pulse.truncation_symbols]  # p(dt/2); per-dim levels 0 and +-2*(level/2)
        atoms, weights, tail_var = _window_isi_atoms(te, lags)
        log_b0, log_b1 = _time_log_densities(r, level, atoms, weights,
                                             sd_half * sd_half + tail_var, buf)
        log_x = np.where(xbit, log_b1, log_b0)
        total += float(np.sum(log_x - np.logaddexp(log_b0, log_b1))) / _LOG2 + frame_len
    return total / (nframes * frame_len)
