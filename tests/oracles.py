"""Test-only references: the paper's relay demap table and the scalar
enumeration of the 16 superposed points, the full ML class scores, the
brute-force minimum distance (criterion 09), the 2^8 sign patterns of the
time-offset MI's window ISI, the max-shifted log-sum-exp densities of the
MI kernels and the 2-D MI estimator on hand-made draws, the 2-D grid
integrals of the phase-offset MI and ML BER, the characteristic-function
inversions of the time-offset BER and MI, and the horizontal SNR gaps read off
BER and MI curves (criteria 07 and 08)."""

import cmath
import itertools
import math

import numpy as np
from scipy.special import logsumexp, ndtr

from pncsync.detection import NUM_CLASSES, PAIRS_PER_CLASS, build_hypotheses
from pncsync.impairments import isi_taps
from pncsync.mutual_info import _ENUM_WINDOW

# the paper's relay demap, per dimension: the sources agree (level +-2) -> bit 0,
# they differ (level 0) -> bit 1; any other level is no noiseless superposition
_DEMAP = {-2: 0, 0: 1, 2: 0}


def pnc_xor_of_levels(level: complex) -> tuple[int, int]:
    """The xor bits (x_i, x_q) the relay demaps a noiseless superposed level to."""
    return _DEMAP[level.real], _DEMAP[level.imag]


def hypotheses_by_enumeration(theta: float) -> np.ndarray:
    """The 16 points s1 + s3*e^{j*theta} by xor class, one scalar pair at a time.

    Bits (i, q) map to the amplitudes (2i - 1, 2q - 1).  Row c holds the
    points of the pairs with (i1^i3, q1^q3) == (c >> 1, c & 1), in s1-major
    order: the reference for `build_hypotheses`.
    """
    pts = np.zeros((NUM_CLASSES, PAIRS_PER_CLASS), dtype=complex)
    count = [0] * NUM_CLASSES
    for i1, q1, i3, q3 in itertools.product((0, 1), repeat=4):
        c = 2 * (i1 ^ i3) + (q1 ^ q3)
        s1, s3 = complex(2 * i1 - 1, 2 * q1 - 1), complex(2 * i3 - 1, 2 * q3 - 1)
        pts[c, count[c]] = s1 + s3 * cmath.exp(1j * theta)
        count[c] += 1
    return pts


def ml_class_scores(samples, points: np.ndarray, noise_var: float) -> np.ndarray:
    """Per-class log-likelihood (up to a common constant) for complex samples.

    score[n, c] = logsumexp_j( -|r_n - p_cj|^2 / (2 sigma^2) ), evaluated by
    `scipy.special.logsumexp`; equal priors over the 16 pairs make the class
    prior a common constant.  The first-maximum argmax of these scores is
    the decision `detection.ml_xor_bits` must return.

    The distances are laid out class-major, (4, 4, N), so each reduction
    over the four points of a class runs across whole rows of N samples;
    the four terms add in the same order as along a short last axis, so
    the scores are the same bits.  Returns the (N, 4) transposed view.
    """
    r = np.atleast_1d(np.asarray(samples, dtype=complex))
    d2 = np.abs(r[None, :] - points.reshape(-1, 1)) ** 2
    d2 = d2.reshape(NUM_CLASSES, PAIRS_PER_CLASS, r.size)
    return logsumexp(-d2 / (2.0 * noise_var), axis=1).T


def ml_classes(samples, points, noise_var) -> np.ndarray:
    """The full-score ML class of each sample: first maximum of `ml_class_scores`."""
    return np.argmax(ml_class_scores(samples, points, noise_var), axis=1)


def min_interclass_distance_sq(points) -> float:
    """Brute-force smallest squared distance between points of different classes.

    points is the (4, 4) array of `build_hypotheses`, one row per xor class.
    """
    best = math.inf
    for ca in range(NUM_CLASSES):
        for cb in range(ca + 1, NUM_CLASSES):
            d = np.abs(points[ca][:, None] - points[cb][None, :]) ** 2
            best = min(best, float(d.min()))
    return best


def isi_atoms_by_enumeration(taps_early, taps_late, lags):
    """Every sign pattern of the window neighbors of both trains, one by one.

    The window is the |lag| <= `mutual_info._ENUM_WINDOW` neighbors that
    lie inside the truncation.  Returns (atoms, tail_var): the 2^k equally
    likely ISI values of the k window taps (1/2 amplitude convention; 2^8
    unless the truncation is narrower than the window) and the variance of
    the truncated remainder: the reference for
    `mutual_info._window_isi_atoms`, which merges the patterns that give
    the same value.
    """
    wsel = (np.abs(lags) <= _ENUM_WINDOW) & (lags != 0)
    tsel = np.abs(lags) > _ENUM_WINDOW
    wtaps = np.concatenate([taps_early[wsel], taps_late[wsel]])
    k = wtaps.size
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * k)).T.reshape(-1, k)
    atoms = 0.5 * (signs @ wtaps)
    tail_var = 0.25 * float(np.sum(taps_early[tsel] ** 2) + np.sum(taps_late[tsel] ** 2))
    return atoms, tail_var


def quadrature_mi_bits_per_dim(snr_db, theta, ngrid=801, span=6.0):
    """I(X; r)/2 at one phase offset by direct 2-D tensor-grid integration."""
    s2 = 10.0 ** (-snr_db / 10.0)
    pts = build_hypotheses((theta,))[0]
    lim = 2 * math.sqrt(2) + span * math.sqrt(s2)
    u = np.linspace(-lim, lim, ngrid)
    du = u[1] - u[0]
    uu, vv = np.meshgrid(u, u, indexing="ij")
    r = uu + 1j * vv
    lik = np.array([
        np.mean([np.exp(-np.abs(r - p) ** 2 / (2 * s2)) for p in pts[c]], axis=0)
        for c in range(4)
    ]) / (2 * math.pi * s2)
    mix = lik.mean(axis=0)
    total = 0.0
    for c in range(4):
        w = lik[c] > 0
        total += 0.25 * float(np.sum(lik[c][w] * np.log2(lik[c][w] / mix[w]))) * du * du
    return 0.5 * total


def class_log_densities_by_logsumexp(r, points, noise_var) -> np.ndarray:
    """log sum_j exp(-|r - p_cj|^2 / (2 sigma^2)) per xor class, shape (4, n).

    points is one (4, 4) constellation of `build_hypotheses`.  The
    per-class log-densities of `mutual_info.mi_given_theta` up to the common
    constant log(4 * 2 pi sigma^2), by the max-shifted log-sum-exp
    (`scipy.special.logsumexp`) the estimator used before its kernel was
    rewritten.
    """
    r = np.atleast_1d(np.asarray(r, dtype=complex))
    e = -np.abs(r[None, :] - points.reshape(-1, 1)) ** 2 / (2.0 * noise_var)
    return logsumexp(e.reshape(NUM_CLASSES, PAIRS_PER_CLASS, r.size), axis=1)


def time_log_densities_by_logsumexp(r, level, atoms, log_w, veff):
    """(log p(r | xor 0), log p(r | xor 1)) of the time-offset MI, per sample.

    Bit 0 sits at the levels +-level and bit 1 at 0, each spread by the
    ISI atoms (log-weights log_w, normalized by their total) and
    N(0, veff): the densities as `mutual_info.mi_time_unsync` formed them
    with the max-shifted log-sum-exp (`scipy.special.logsumexp`) before
    its kernel was rewritten.
    """
    d = np.asarray(r, dtype=float)[:, None] - atoms[None, :]
    e0 = np.concatenate([log_w - (d - lv) ** 2 / (2 * veff) for lv in (level, -level)], axis=1)
    e1 = log_w - d ** 2 / (2 * veff)
    log_patterns = math.log(float(np.sum(np.exp(log_w))))
    return (logsumexp(e0, axis=1) - math.log(2.0) - log_patterns,
            logsumexp(e1, axis=1) - log_patterns)


def mi_offsets_by_logsumexp(snr_db, thetas, per, rng, chunk=1 << 14):
    """`mutual_info._mi_offsets`: I(X; r)/2 at each offset of a tuple, as a list.

    The G offsets draw together as documented, in chunks of
    max(1, chunk // G) samples per offset: per chunk the (G, n) uint8
    pair indices into each offset's 16 class-major points, then the
    (2, G, n) I and Q noise.  Drawn here by hand, not by
    `superposed_frames`.  Each offset averages log2 p(r | x) / p(r),
    both densities by `scipy.special.logsumexp` (over a class's 4
    exponents and over all 16): the reference for the kernel's values
    and for the draw order.
    """
    pts = build_hypotheses(tuple(thetas)).reshape(len(thetas), 16)
    s2 = 10.0 ** (-snr_db / 10.0)
    cols = max(1, chunk // len(thetas))
    totals = [0.0] * len(thetas)
    for start in range(0, per, cols):
        n = min(cols, per - start)
        idx = rng.integers(0, 16, (len(thetas), n), dtype=np.uint8)
        noise = rng.standard_normal((2, len(thetas), n))
        for g, p in enumerate(pts):
            r = p[idx[g]] + math.sqrt(s2) * (noise[0, g] + 1j * noise[1, g])
            e = -np.abs(r[None, :] - p[:, None]) ** 2 / (2.0 * s2)
            num = logsumexp(e.reshape(NUM_CLASSES, PAIRS_PER_CLASS, n), axis=1)[idx[g] >> 2,
                                                                               np.arange(n)]
            totals[g] += float(np.sum(num - logsumexp(e, axis=0))) / math.log(2.0) + 2.0 * n
    return [0.5 * t / per for t in totals]


_WRONG_BITS = np.array([0, 1, 1, 2])  # popcount of the xor of two class indices


def phase_ml_error_moments(snr_db, nodes=12, h=0.02):
    """Wrong xor bits of the phase-offset ML detector, by deterministic integration.

    The offset theta is uniform over [-pi/4, pi/4], and the error rate is
    even in theta (conjugation maps the constellation at theta onto the one
    at -theta and keeps every xor class), so theta runs over `nodes`
    Gauss-Legendre nodes on [0, pi/4].  At each node, the centre of every
    h-sided cell of a square grid covering the 16 points (from
    `hypotheses_by_enumeration`) and 7 noise sd around them gets its
    full-score ML class (`ml_classes`).  Negating r negates both symbols
    and keeps the xor, so only the upper half of the grid is classified and
    the lower half is its mirror image.  Each point p of class c_p puts
    the exact Gaussian mass of N(p, sigma^2 I) on each cell, a product of
    normal-CDF differences per axis, so the mean of a weight table over
    the cells is one mx @ W @ my product per point.

    Returns (w, m1, m2): the node weights (sum 1), and per node the mean
    and mean square of the number k of wrong xor bits of one symbol.  The
    BER is sum(w * m1) / 2.  Mass beyond the grid (under 1e-11) counts as
    correct.
    """
    s2 = 10.0 ** (-snr_db / 10.0)
    sd = math.sqrt(s2)
    x, wt = np.polynomial.legendre.leggauss(nodes)
    thetas = math.pi / 8 * (x + 1.0)
    n = math.ceil((2 * math.sqrt(2) + 7.0 * sd) / h)
    edges = h * np.arange(-n, n + 1)
    centres = edges[:-1] + h / 2
    top = centres[n:]  # y > 0; the grid is symmetric about 0
    m1, m2 = np.zeros(nodes), np.zeros(nodes)
    for i, theta in enumerate(thetas):
        pts = hypotheses_by_enumeration(float(theta))
        upper = np.concatenate([
            ml_classes((centres[:, None] + 1j * top[None, j:j + 64]).ravel(),
                       pts, s2).reshape(2 * n, -1)
            for j in range(0, n, 64)], axis=1)  # 64 rows at a time bound the memory
        cls = np.concatenate([upper[::-1, ::-1], upper], axis=1)  # [ix, iy]
        for c in range(NUM_CLASSES):
            wrong = _WRONG_BITS[cls ^ c]
            for p in pts[c]:
                mx = np.diff(ndtr((edges - p.real) / sd))
                my = np.diff(ndtr((edges - p.imag) / sd))
                m1[i] += mx @ wrong @ my
                m2[i] += mx @ (wrong * wrong) @ my
    return wt / 2.0, m1 / 16.0, m2 / 16.0


def cluster_z_score(errors, frames, symbols_per_frame, w, m1, m2) -> float:
    """z of an error total over frames that each draw their own offset.

    Given the offset, a frame's count sums `symbols_per_frame` independent
    symbols, each with k wrong bits of moments (m1, m2); the offset varies
    between frames.  So the exact variance of the total is
    F * (E[n Var(k | theta)] + Var(n E[k | theta])), with E over the
    weights w (`phase_ml_error_moments`).
    """
    n = symbols_per_frame
    mean = n * np.sum(w * m1)
    var = np.sum(w * n * (m2 - m1 ** 2)) + np.sum(w * (n * m1) ** 2) - mean ** 2
    return float((errors - frames * mean) / math.sqrt(frames * var))


def time_ber(snr_db, half_range, pulse, nodes=16):
    """Xor BER of the time-offset threshold detector, by characteristic-function inversion.

    Given the offset dt, a mid-offset sample is (a1 + a3)/2 * p + Z, with
    p = p(dt/2) and Z the ISI of the 2 x 2L non-centre taps of
    `isi_taps` (each adding +-h/2 with equal odds) plus N(0, s^2) noise,
    s = 10^(-snr/20) / 2.  Z has the characteristic function
    phi(w) = exp(-s^2 w^2 / 2) prod_j cos(h_j w / 2), which is real and
    even, and the detector decides xor 1 where |r| <= p/2, so
    BER(dt) = 1.5 P(Z > p/2) - 0.5 P(Z > 3p/2).  P(Z > a) comes from the
    Gil-Pelaez inversion (Biometrika 1951), by the trapezoid rule of
    Davies (1973) at the nodes w_k = (k + 1/2) 2 pi / T:
    P(Z > a) = 1/2 - sum_k phi(w_k) sin(w_k a) / (pi (k + 1/2)), exact up
    to the mass of Z beyond T/2 - a (T = 64, far past |Z| here) and the
    tail of phi dropped past exp(-s^2 w^2 / 2) < 1e-20.  The BER is even
    in dt, so dt runs over `nodes` Gauss-Legendre nodes on [0, x]; x = 0
    is the single node dt = 0.

    Returns (w, p): node weights (sum 1) and the BER at each node.
    """
    s = 10.0 ** (-snr_db / 20.0) / 2.0
    if half_range > 0:
        x, wt = np.polynomial.legendre.leggauss(nodes)
        dts, w = half_range / 2 * (x + 1.0), wt / 2.0
    else:
        dts, w = np.zeros(1), np.ones(1)
    period = 64.0
    step = 2 * math.pi / period
    w_max = math.sqrt(2 * 46.0) / s  # where exp(-s^2 w^2 / 2) = e^-46, about 1e-20
    omega = (np.arange(math.ceil(w_max / step)) + 0.5) * step
    L = pulse.truncation_symbols
    p = np.empty(dts.size)
    _, taps_early, taps_late = isi_taps(tuple(dts.tolist()), pulse)
    for i, (te, tl) in enumerate(zip(taps_early, taps_late)):
        isi = np.concatenate([np.delete(te, L), np.delete(tl, L)])
        phi = np.exp(-0.5 * (s * omega) ** 2) * np.prod(np.cos(0.5 * np.outer(omega, isi)),
                                                        axis=1)
        level = te[L]

        def tail(a):
            return 0.5 - float(np.sum(phi * np.sin(omega * a) / (omega * period / 2)))

        p[i] = 1.5 * tail(level / 2) - 0.5 * tail(1.5 * level)
    return w, p


def time_mi(snr_db, half_range, pulse, nodes=16, points=4096, period=16.0):
    """Per-dimension xor information of the time-offset channel, by inversion.

    Given the offset dt, a mid-offset sample is (a1 + a3)/2 * p + Z, with
    p = p(dt/2) and Z the ISI of the 2 x 2L non-centre taps of `isi_taps`
    plus N(0, s^2) noise, s = 10^(-snr/20) / 2, whose characteristic
    function phi(w) = exp(-s^2 w^2 / 2) prod_j cos(h_j w / 2) is the one
    `time_ber` inverts.  The density of Z on [-T/2, T/2] is the Fourier
    series f(z) = (1 + 2 sum_k phi(w_k) cos(w_k z)) / T, w_k = 2 pi k / T
    (T = `period`, far past |Z| here; the series stops where
    exp(-s^2 w^2 / 2) < 1e-20).  Then p(r | xor 0) = (f(r - p) + f(r + p))/2
    and p(r | xor 1) = f(r), and I(dt) = (1/2) sum_x int p(r | x)
    log2(p(r | x) / p(r)) dr is a midpoint sum on `points` r values.  I is
    even in dt, so dt runs over `nodes` Gauss-Legendre nodes on [0, x].
    This is the information of the true channel, sample by sample; it
    shares nothing with `mutual_info` (whose window-plus-Gaussian-tail
    densities are a mismatched decoder of the same channel).
    """
    s = 10.0 ** (-snr_db / 20.0) / 2.0
    x, wt = np.polynomial.legendre.leggauss(nodes)
    _, te, tl = isi_taps(tuple((half_range / 2 * (x + 1.0)).tolist()), pulse)
    step = 2 * math.pi / period
    omega = np.arange(1, math.ceil(math.sqrt(2 * 46.0) / s / step) + 1) * step
    L = pulse.truncation_symbols
    isi = np.concatenate([np.delete(te, L, axis=1), np.delete(tl, L, axis=1)], axis=1)
    phi = (np.exp(-0.5 * (s * omega) ** 2)
           * np.prod(np.cos(0.5 * omega[None, :, None] * isi[:, None, :]), axis=2))
    r = (np.arange(points) + 0.5) * (period / points) - period / 2
    waves = np.cos(np.outer(omega, r))
    f1 = (1.0 + 2.0 * phi @ waves) / period  # f(r); f(r - p) + f(r + p) pairs the cosines
    f0 = (1.0 + 2.0 * (phi * np.cos(omega * te[:, L, None])) @ waves) / period
    mix = 0.5 * (f0 + f1)
    info = np.zeros(nodes)
    for fx in (f0, f1):
        ok = (fx > 0) & (mix > 0)  # the series' rounding-level ripple far out is dropped
        ratio = np.where(ok, fx, 1.0) / np.where(ok, mix, 1.0)
        info += 0.5 * np.sum(np.where(ok, fx * np.log2(ratio), 0.0), axis=1) * (period / points)
    return float(np.sum(wt / 2.0 * info))


def snr_at_level(snrs, values, level, log_scale=False):
    """SNR at which a curve crosses a target ordinate (linear interpolation).

    log_scale interpolates in log10 of the ordinate (use for BER curves).
    Returns nan when the curve never brackets the level.
    """
    s = np.asarray(snrs, dtype=float)
    v = np.asarray(values, dtype=float)
    if log_scale:
        good = v > 0
        s, v = s[good], np.log10(v[good])
        level = math.log10(level)
    for i in range(len(s) - 1):
        lo, hi = v[i], v[i + 1]
        if lo == hi:
            continue
        if (lo - level) * (hi - level) <= 0:
            return float(s[i] + (s[i + 1] - s[i]) * (level - lo) / (hi - lo))
    return math.nan


def horizontal_gap_db(ref_snrs, ref_values, test_snrs, test_values, level,
                      log_scale=False) -> float:
    """SNR gap between two curves at one ordinate: test crossing - ref crossing."""
    return (snr_at_level(test_snrs, test_values, level, log_scale)
            - snr_at_level(ref_snrs, ref_values, level, log_scale))


def max_horizontal_gap_db(ref_snrs, ref_values, test_snrs, test_values,
                          snr_lo, snr_hi) -> float:
    """Largest SNR gap of an increasing test curve to the reference curve.

    For each test point inside [snr_lo, snr_hi] whose ordinate falls inside
    the reference range, interpolate the reference SNR at that ordinate and
    take the worst (test - ref) difference.  The reference is monotonized
    (running maximum) so Monte-Carlo jitter cannot break the interpolation.
    """
    rs = np.asarray(ref_snrs, dtype=float)
    rv = np.maximum.accumulate(np.asarray(ref_values, dtype=float))
    worst = -math.inf
    for s, v in zip(test_snrs, test_values):
        if not snr_lo <= s <= snr_hi:
            continue
        if not rv[0] <= v <= rv[-1]:
            continue
        worst = max(worst, s - float(np.interp(v, rv, rs)))
    return worst
