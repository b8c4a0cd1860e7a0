"""Test-only references: the scalar enumeration of the 16 superposed points,
the brute-force minimum distance (criterion 09), the 2^8 sign patterns of
the time-offset MI's window ISI, the 2-D grid integral of the phase-offset
MI, and the horizontal SNR gaps read off BER and MI curves (criteria 07
and 08)."""

import math

import numpy as np

from pncsync.detection import NUM_CLASSES, PAIRS_PER_CLASS, build_hypotheses
from pncsync.impairments import superpose_phase_offset
from pncsync.mapping import ALL_BIT_PAIRS, qpsk_modulate
from pncsync.mutual_info import _ENUM_WINDOW


def hypotheses_by_enumeration(theta: float) -> np.ndarray:
    """The 16 points s1 + s3*e^{j*theta} by xor class, one scalar pair at a time.

    Row c holds the points of the pairs with (i1^i3, q1^q3) == (c >> 1, c & 1),
    in s1-major order: the reference for `build_hypotheses`.
    """
    pts = np.zeros((NUM_CLASSES, PAIRS_PER_CLASS), dtype=complex)
    count = [0] * NUM_CLASSES
    for b1 in ALL_BIT_PAIRS:
        for b3 in ALL_BIT_PAIRS:
            c = 2 * (b1.i_bit ^ b3.i_bit) + (b1.q_bit ^ b3.q_bit)
            pts[c, count[c]] = superpose_phase_offset(
                qpsk_modulate(b1).as_complex(), qpsk_modulate(b3).as_complex(), theta)
            count[c] += 1
    return pts


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
    pts = build_hypotheses(theta)
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
