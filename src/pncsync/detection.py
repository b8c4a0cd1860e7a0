"""Relay-side detectors for the xor of the two source symbols, and
`_log_mixture`, the Gaussian-mixture kernel of ML detection and of the
mutual-information estimators (`mutual_info`).

Perfect sync and time-offset scenarios use the per-dimension midpoint
threshold rule.  The phase-offset scenario uses ML detection of the xor
class over the 16-point superposed constellation: the four generating
pairs of each class form a Gaussian mixture, and the exact per-class
likelihood (sum over the four points, not max-log) is maximized.

The ML detector screens before it sums.  A class score is `_log_mixture`
of the class's four negated exponents at scale 1.  Negation and scale 1
are exact, so the kernel's nearest shift is lo, the class's largest
exponent, to the bit, and the score is fl(log S + lo) with S, the sum of
exp(a - lo) over the four points, in [1, 4].  The score therefore lies
in [lo, lo + log 4 + rounding].  The lower end is exact: log S >= 0, and
adding a non-negative number to lo never rounds below lo.  The upper end
allows 1e-9 + 2^-50 (|lo| + 2), which covers the few ulp of log S and
the half ulp of the final add at any |lo|.  Where one class's lo exceeds
every other class's upper end, its score is strictly the largest and it
is the decision; only the other symbols (a few percent at the SNRs of
the BER curves) get the full scores, with the same first-maximum tie
rule.  The decisions are therefore those of the full-score argmax.
"""

from __future__ import annotations

import cmath
import math
import numpy as np

from .mapping import CLASS_BITS, S1, S3, qpsk_modulate

# class index c = 2*x_i + x_q, lexicographic in (x_i, x_q)
NUM_CLASSES = 4
PAIRS_PER_CLASS = 4
_CHUNK = 4096  # symbols per block of ml_xor_bits
# log 4 + 1e-9 + 2^-50 * 2: a class score's upper end above lo, bar 2^-50 |lo|
_SCORE_SLACK = math.log(4.0) + 1e-9 + 2.0 ** -49
_PAIR_W = np.ones(PAIRS_PER_CLASS)  # the four equally likely pairs of an xor class


def build_hypotheses(thetas: tuple) -> np.ndarray:
    """The 16 superposed points s1 + s3*e^{j*theta} of each offset, grouped by xor class.

    thetas is a tuple of F offsets, each already folded into
    [-pi/4, pi/4).  Returns a read-only (F, 4, 4) array, one constellation
    per offset in the class-major layout of `mapping`: entry (f, c, j) is
    the point of pair j of xor class c.  e^{j*theta} comes from cmath, so
    each constellation has the bits of its one-offset call.
    """
    for t in thetas:
        if not -math.pi / 4 <= t < math.pi / 4:
            raise ValueError(f"theta must be folded into [-pi/4, pi/4), got {t}")
    sym = np.array([qpsk_modulate(pair) for pair in range(4)])
    rot = np.array([cmath.exp(1j * t) for t in thetas]).reshape(-1, 1, 1)
    pts = sym[S1] + sym[S3] * rot
    pts.setflags(write=False)
    return pts


def _log_mixture(d2, weights, scale, out=None):
    """log sum_k weights_k exp(-scale d2_k) along axis -2 of squared distances d2.

    The one Gaussian-mixture kernel of the package.  Overwrites d2.  Each
    column is shifted by its nearest point, whose term is exp(0) = 1, so
    the sum is at least the smallest weight (>= 1) at any scale; the
    weighted sum adds the points in order, so a column has the same bits
    whatever block it falls in.
    """
    near = d2.min(axis=-2)
    d2 -= near[..., None, :]
    d2 *= -scale
    np.exp(d2, out=d2)
    out = np.log(np.einsum("k,...kb->...b", weights, d2), out=out)
    near *= scale
    out -= near
    return out


def threshold_bits(samples, scale) -> np.ndarray:
    """Midpoint threshold per dimension: bit 0 if |sample| > scale, else 1.

    scale is half the level spacing: the noiseless levels are 0 and
    +-2*scale (scale = 1 for perfect sync, p(dt/2)/2 for mid-offset
    sampling).  An array of scales broadcasts against the samples, for
    example one scale per frame.
    """
    if np.any(np.asarray(scale) <= 0):
        raise ValueError("scale must be positive")
    return (np.abs(np.asarray(samples, dtype=float)) <= scale).astype(np.int8)


def ml_xor_bits(samples, points: np.ndarray, noise_var: float) -> np.ndarray:
    """ML xor decision for an array of complex samples; returns (N, 2) bits.

    points is the (F, 4, 4) array of `build_hypotheses`, one
    constellation for each of F equal frames of the N samples (frame f
    holds samples f*N/F to (f+1)*N/F - 1).  Picks the first class
    (lexicographic in (x_i, x_q)) among the maxima of the exact class
    scores log sum_j exp(a[c, j]), a = -|r - p_cj|^2 / (2 sigma^2), and
    computes those scores only where the largest exponent per class,
    lo_c, leaves the decision open.  See the module docstring for why
    the screen is exact.
    """
    if not noise_var > 0:
        raise ValueError(f"noise_var must be > 0, got {noise_var}")
    r = np.asarray(samples, dtype=complex)
    if r.size % len(points):
        raise ValueError(f"{r.size} samples do not split into {len(points)} equal frames")
    r = r.reshape(len(points), -1)
    # whole frames of at most _CHUNK symbols at a time (one frame if longer):
    # the exponents take 128 bytes per symbol, so memory stays bounded
    step = max(1, _CHUNK // max(1, r.shape[1]))
    return np.concatenate([_ml_frames(r[f:f + step], points[f:f + step], noise_var)
                           for f in range(0, len(points), step)])


def _class_lo(d, noise_var):
    """Each class's largest exponent -d^2 / (2 sigma^2) of (4, 4, m) distances d.

    x -> fl(fl(x x) / (-2 sigma^2)) is monotone: the smallest distance gives it, bit for bit.
    """
    return d.min(axis=1) ** 2 / (-2.0 * noise_var)


def _ml_frames(r, points, noise_var):
    """`ml_xor_bits` of the (F, n) samples r of frames with (F, 4, 4) points."""
    pts = np.ascontiguousarray(points.transpose(1, 2, 0)[..., None])  # (4, 4, F, 1)
    d = np.empty((NUM_CLASSES, PAIRS_PER_CLASS) + r.shape)
    diff = np.empty((PAIRS_PER_CLASS,) + r.shape, dtype=complex)
    for c in range(NUM_CLASSES):
        np.abs(np.subtract(r, pts[c], out=diff), out=d[c])
    d = d.reshape(NUM_CLASSES, PAIRS_PER_CLASS, -1)
    lo = _class_lo(d, noise_var)
    # classes whose score can reach the best lo: their upper end, lo + log 4
    # + 1e-9 + 2^-50 (|lo| + 2) with |lo| = -lo, is at least that lo
    rival = lo * (1.0 - 2.0 ** -50) + _SCORE_SLACK >= lo.max(axis=0)
    # a decided column has one rival c: bits c >> 1 = c in (2, 3), c & 1 = c in (1, 3)
    bits = np.stack([rival[2] | rival[3], rival[1] | rival[3]], axis=1).view(np.int8)
    undecided = np.flatnonzero(rival.sum(axis=0) > 1)
    if undecided.size:
        # -a = d^2 / (2 sigma^2) bit for bit, so the kernel's shift is -lo exactly
        scores = _log_mixture(d[:, :, undecided] ** 2 / (2.0 * noise_var), _PAIR_W, 1.0)
        bits[undecided] = CLASS_BITS[scores.argmax(axis=0)]
    return bits
