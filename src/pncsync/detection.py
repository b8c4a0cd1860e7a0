"""Relay-side detectors for the xor of the two source symbols.

Perfect sync and time-offset scenarios use the per-dimension midpoint
threshold rule.  The phase-offset scenario uses ML detection of the xor
class over the 16-point superposed constellation: the four generating
pairs of each class form a Gaussian mixture, and the exact per-class
likelihood (sum over the four points, not max-log) is maximized.

`logsumexp` is the one log-domain mixture kernel of the package; the
mutual-information estimators use it too.
"""

from __future__ import annotations

import math
import numpy as np

from .impairments import superpose_phase_offset
from .mapping import ALL_BIT_PAIRS, qpsk_modulate

# class index c = 2*x_i + x_q, lexicographic in (x_i, x_q)
NUM_CLASSES = 4
PAIRS_PER_CLASS = 4


# Class-order index tables of build_hypotheses: entry (c, j) is the j-th
# generating pair (b1, b3) of xor class c, as indices into ALL_BIT_PAIRS
# (index 2*i + q, so the index of b1 ^ b3 is the xor of the indices).
_S1 = np.tile(np.arange(PAIRS_PER_CLASS), (NUM_CLASSES, 1))
_S3 = _S1 ^ np.arange(NUM_CLASSES)[:, None]


def build_hypotheses(theta: float) -> np.ndarray:
    """The 16 superposed points s1 + s3*e^{j*theta}, grouped by xor class.

    Row c of the read-only (4, 4) array holds the four points whose
    generating pair satisfies (i1^i3, q1^q3) == (c >> 1, c & 1), in
    s1-major enumeration order.  theta must already be folded into
    [-pi/4, pi/4).
    """
    if not -math.pi / 4 <= theta < math.pi / 4:
        raise ValueError(f"theta must be folded into [-pi/4, pi/4), got {theta}")
    sym = np.array([qpsk_modulate(b).as_complex() for b in ALL_BIT_PAIRS])
    pts = superpose_phase_offset(sym[_S1], sym[_S3], theta)
    pts.setflags(write=False)
    return pts


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along one axis, shifted by the maximum.

    The max-shifted log1p form of Blanchard, Higham & Higham, "Accurately
    computing the log-sum-exp and softmax functions" (IMA J. Numer. Anal.
    2021): the m terms equal to the maximum leave the sum, the rest are
    summed as s, and the result is log1p(s/m) + log(m) + max.  The
    operations and their order are those of scipy.special.logsumexp
    (scipy 1.17) without weights, so the outputs agree bit for bit.

    Precondition: real floating input with a finite maximum in every row
    along axis (no NaN, no row that is all -inf).
    """
    amax = a.max(axis=axis, keepdims=True)
    top = a == amax
    m = top.sum(axis=axis, keepdims=True, dtype=a.dtype)
    e = np.where(top, -np.inf, a)
    e -= amax
    np.exp(e, out=e)
    s = e.sum(axis=axis, keepdims=True)
    s = np.where(s == 0, s, s / m)
    out = np.log1p(s)
    out += np.log(m)
    out += amax
    return out.squeeze(axis)


def threshold_bits(samples, scale: float) -> np.ndarray:
    """Midpoint threshold per dimension: bit 0 if |sample| > scale, else 1.

    scale is half the level spacing: the noiseless levels are 0 and
    +-2*scale (scale = 1 for perfect sync, p(dt/2)/2 for mid-offset
    sampling).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    return (np.abs(np.asarray(samples, dtype=float)) <= scale).astype(np.int8)


def ml_class_scores(samples, points: np.ndarray, noise_var: float) -> np.ndarray:
    """Per-class log-likelihood (up to a common constant) for complex samples.

    score[n, c] = logsumexp_j( -|r_n - p_cj|^2 / (2 sigma^2) ), evaluated by
    `logsumexp`, the kernel the mutual-information estimators share; equal
    priors over the 16 pairs make the class prior a common constant.

    The distances are laid out class-major, (4, 4, N), so each reduction
    over the four points of a class runs across whole rows of N samples;
    the four terms add in the same order as along a short last axis, so
    the scores are the same bits.  Returns the (N, 4) transposed view.
    """
    r = np.atleast_1d(np.asarray(samples, dtype=complex))
    d2 = np.abs(r[None, :] - points.reshape(-1, 1)) ** 2
    d2 = d2.reshape(NUM_CLASSES, PAIRS_PER_CLASS, r.size)
    if noise_var == 0:
        # degenerate: likelihood concentrates on the nearest point
        return -d2.min(axis=1).T
    return logsumexp(-d2 / (2.0 * noise_var), axis=1).T


def ml_xor_bits(samples, points: np.ndarray, noise_var: float) -> np.ndarray:
    """ML xor decision for an array of complex samples; returns (N, 2) bits.

    Ties break toward the smallest class index (lexicographic in
    (x_i, x_q)), which argmax provides by taking the first maximum.
    """
    sc = ml_class_scores(samples, points, noise_var)
    c = np.argmax(sc, axis=1)
    return np.stack([c >> 1, c & 1], axis=1).astype(np.int8)
