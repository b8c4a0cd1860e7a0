import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.special import logsumexp as scipy_logsumexp  # oracle of the mixture kernel

from pncsync.detection import (_PAIR_W, _SCORE_SLACK, _log_mixture, build_hypotheses,
                               ml_xor_bits, threshold_bits)
from pncsync.mapping import qpsk_modulate
from pncsync.mutual_info import _ISI_W
from pncsync import analysis
from oracles import (hypotheses_by_enumeration, min_interclass_distance_sq, ml_class_scores,
                     ml_classes)


def hyp_at(theta):
    """The (4, 4) constellation of one offset."""
    return build_hypotheses((theta,))[0]


def ml_pair(sample, hyp, noise_var) -> tuple:
    """ML xor decision for one complex sample, as a bit pair (x_i, x_q)."""
    return tuple(ml_xor_bits(np.array([sample]), hyp[None], noise_var)[0].tolist())


# the offsets where the constellation degenerates or the folded range ends
THETA_EDGES = st.sampled_from([0.0, -math.pi / 4, math.nextafter(math.pi / 4, 0.0)])


def test_hypotheses_cardinality_any_theta():
    for theta in (-0.7, -0.2, 0.0, 0.3, 0.78):
        hyp = build_hypotheses((theta,))
        assert hyp.shape == (1, 4, 4) and hyp.dtype == complex
        assert not hyp.flags.writeable


@given(st.floats(-math.pi / 4, math.pi / 4, exclude_max=True))
@example(-math.pi / 4)
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(math.nextafter(math.pi / 4, 0.0))
def test_hypotheses_match_the_scalar_enumeration_bit_for_bit(theta):
    got = hyp_at(theta)
    want = hypotheses_by_enumeration(theta)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@given(st.lists(st.one_of(THETA_EDGES, st.floats(-math.pi / 4, math.pi / 4, exclude_max=True)),
                min_size=1, max_size=8))
def test_hypotheses_of_a_tuple_are_the_one_offset_calls_bit_for_bit(thetas):
    got = build_hypotheses(tuple(thetas))
    assert got.shape == (len(thetas), 4, 4) and not got.flags.writeable
    for row, theta in zip(got, thetas):
        assert np.array_equal(row.view(np.uint64), hyp_at(theta).view(np.uint64))


def test_hypotheses_reject_unfolded_theta():
    with pytest.raises(ValueError):
        build_hypotheses((math.pi / 4,))
    with pytest.raises(ValueError):
        build_hypotheses((-math.pi / 2,))
    with pytest.raises(ValueError):
        build_hypotheses((0.0, math.pi / 4))
    with pytest.raises(TypeError):
        build_hypotheses(0.0)  # a tuple of offsets only


def test_hypotheses_at_zero_offset_match_level_lattice():
    hyp = hyp_at(0.0)
    # class (0,1): I level +-2, Q level 0
    c01 = hyp[1]
    assert sorted(np.round(c01.real).astype(int)) == [-2, -2, 2, 2]
    assert np.allclose(c01.imag, 0.0, atol=1e-12)
    # class (1,1): all four generating pairs collapse on the origin
    assert np.allclose(hyp[3], 0.0, atol=1e-12)
    # class (0,0): the four corners
    corners = {(-2, -2), (-2, 2), (2, -2), (2, 2)}
    got = {(int(round(p.real)), int(round(p.imag))) for p in hyp[0]}
    assert got == corners


def test_threshold_known_decisions():
    assert threshold_bits([1.9, -2.1], 1.0).tolist() == [0, 0]
    assert threshold_bits([0.3, -0.2], 1.0).tolist() == [1, 1]
    assert threshold_bits([0.6, 1.2], 0.5).tolist() == [0, 0]
    assert threshold_bits([1.0, -1.0], 1.0).tolist() == [1, 1]  # boundary decides 1
    with pytest.raises(ValueError):
        threshold_bits([0.0], 0.0)
    with pytest.raises(ValueError):
        threshold_bits([[0.0], [0.0]], np.array([[1.0], [0.0]]))


def test_threshold_with_a_scale_per_frame_is_the_per_frame_calls():
    rng = np.random.default_rng(8)
    r = rng.normal(0.0, 1.0, (5, 2, 300))
    scale = rng.uniform(0.2, 1.0, 5)
    got = threshold_bits(r, scale[:, None, None])
    assert got.dtype == np.int8 and got.shape == r.shape
    for f in range(5):
        assert np.array_equal(got[f], threshold_bits(r[f], scale[f]))


def test_ml_known_decisions():
    hyp = hyp_at(0.0)
    assert ml_pair(2.0 + 0.0j, hyp, 0.25) == (0, 1)
    # likelihood concentration: observation placed on a constellation point
    hyp8 = hyp_at(math.pi / 8)
    p = hyp8[2][1]
    assert ml_pair(p, hyp8, 1e-4) == (1, 0)


def test_ml_matches_threshold_at_zero_offset():
    # exact-mixture ML and the midpoint threshold differ only inside an
    # O(sigma^2) band around the boundary, so a small variance pins the
    # argmax equivalence on a dense grid
    hyp = hyp_at(0.0)
    noise_var = 0.01
    grid = np.linspace(-4.0, 4.0, 100)
    uu, vv = np.meshgrid(grid, grid)
    r = (uu + 1j * vv).ravel()
    ml = ml_xor_bits(r, hyp[None], noise_var)
    thr_i = threshold_bits(r.real, 1.0)
    thr_q = threshold_bits(r.imag, 1.0)
    assert np.array_equal(ml[:, 0], thr_i)
    assert np.array_equal(ml[:, 1], thr_q)


def test_ml_zero_variance_falls_back_to_nearest_point():
    # the smallest variances decide by the nearest point; 0 itself is refused
    hyp = hyp_at(0.1)
    for c in range(4):
        for p in hyp[c]:
            assert ml_pair(p, hyp, 1e-300) == (c >> 1, c & 1)


def test_ml_rejects_a_negative_or_nan_variance():
    hyp = hyp_at(0.0)
    for bad in (-1e-9, 0.0, math.nan):
        with pytest.raises(ValueError):
            ml_xor_bits(np.ones(1, complex), hyp[None], bad)


def boundary_samples(points, noise_var, rng):
    """Samples where the ML decision is close: on and around the midpoint of
    every pair of points of different classes.

    Each midpoint is taken as is, moved along the pair's axis by a few ulp,
    and moved along it so far that the two points' exponents differ by up
    to 4 (the screen's log-4 window lies inside), plus noise-sized scatter
    around the 16 points.
    """
    flat = points.reshape(-1)
    cls = np.repeat(np.arange(4), 4)
    i, j = np.nonzero(cls[:, None] < cls[None, :])
    mid, axis = (flat[i] + flat[j]) / 2, flat[j] - flat[i]
    ulps = np.array([-4, -1, 1, 4])[:, None] * 2.0 ** -53 * axis
    margin = rng.uniform(-4.0, 4.0, (8, axis.size)) * (noise_var / abs(axis) ** 2) * axis
    sd = math.sqrt(noise_var)
    near = flat[rng.integers(0, 16, 200)] + sd * (rng.standard_normal(200)
                                                 + 1j * rng.standard_normal(200))
    return np.concatenate([mid, (mid + ulps).ravel(), (mid + margin).ravel(), near])


def assert_bits_are_the_full_score_argmax(r, points, noise_var, got=None):
    c = ml_classes(r, points, noise_var)
    want = np.stack([c >> 1, c & 1], axis=1)
    got = ml_xor_bits(r, points[None], noise_var) if got is None else got
    assert got.dtype == np.int8 and got.shape == (r.size, 2)
    differ = np.flatnonzero((got != want).any(axis=1))
    assert differ.size == 0, (f"{differ.size} of {r.size} decisions differ, first at "
                              f"r={r[differ[0]]!r}: {got[differ[0]]} vs {want[differ[0]]}")


@given(st.lists(st.one_of(THETA_EDGES, st.floats(-math.pi / 4, math.pi / 4, exclude_max=True)),
                min_size=1, max_size=7),
       st.floats(-300.0, 1.0).map(lambda x: 10.0 ** x),
       st.integers(0, 2**32 - 1))
@example([0.0], 0.25, 3)
@example([0.0], 1.0, 3)
@example([-math.pi / 4], 0.05, 3)
@example([math.nextafter(math.pi / 4, 0.0)], 10.0, 3)
@example([0.0], 1e-300, 3)
@example([0.0, -math.pi / 4, math.nextafter(math.pi / 4, 0.0), 0.3, 0.0, -0.2, 0.7], 0.05, 3)
def test_ml_bits_are_the_full_score_argmax(thetas, noise_var, seed):
    # one call over frames of mixed offsets, each with its own points; a frame
    # holds 1448 samples, two frames to a 4096-symbol block of ml_xor_bits
    rng = np.random.default_rng(seed)
    pts = build_hypotheses(tuple(thetas))
    r = [boundary_samples(p, noise_var, rng) for p in pts]
    got = ml_xor_bits(np.concatenate(r), pts, noise_var)
    assert got.dtype == np.int8 and got.shape == (sum(x.size for x in r), 2)
    for frame, bits, p in zip(r, np.split(got, len(r)), pts):
        assert_bits_are_the_full_score_argmax(frame, p, noise_var, bits)
    if len(thetas) == 1:
        assert np.array_equal(ml_xor_bits(r[0], pts[:1], noise_var), got)


def test_ml_frames_must_split_the_samples_evenly():
    with pytest.raises(ValueError, match="equal frames"):
        ml_xor_bits(np.zeros(5, complex), build_hypotheses((0.0, 0.1)), 1.0)
    assert ml_xor_bits(np.zeros(0, complex), build_hypotheses((0.1,)), 1.0).shape == (0, 2)


@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("scale", [1e7, 1e8, 3e8])
def test_ml_bits_are_the_full_score_argmax_at_huge_scores(theta, scale):
    # far from the constellation every exponent is about -|r|^2 / (2 sigma^2),
    # 1e13 to 1e16 here, where one ulp of a score exceeds the screen's 1e-9
    rng = np.random.default_rng(5)
    pts = hyp_at(theta)
    r = scale * np.exp(2j * math.pi * rng.uniform(size=4000))
    r[:400] = scale * 1j  # on the imaginary axis, where points share distances
    r[400:800] = scale
    assert_bits_are_the_full_score_argmax(r, pts, 4.0)


def test_noiseless_correctness_over_theta_grid():
    for theta in np.linspace(-math.pi / 4, math.pi / 4, 21)[:-1]:
        hyp = hyp_at(float(theta))
        for b1 in range(4):
            for b3 in range(4):
                r = qpsk_modulate(b1) + qpsk_modulate(b3) * np.exp(1j * theta)
                assert ml_pair(r, hyp, 1e-6) == ((b1 ^ b3) >> 1, (b1 ^ b3) & 1)


def test_min_distance_matches_closed_form():
    for theta in np.linspace(0.0, math.pi / 4, 100, endpoint=False):
        hyp = hyp_at(float(theta))
        assert min_interclass_distance_sq(hyp) == pytest.approx(
            analysis.min_distance_sq(float(theta)), abs=1e-9)


def test_ml_tie_breaks_lexicographically():
    # the origin at zero offset is equidistant from classes (0,1) and (1,0);
    # ML still resolves deterministically to the smallest class index among
    # the maxima, and the winner here is the origin's own class (1,1)
    hyp = hyp_at(0.0)
    a = ml_pair(0j, hyp, 0.5)
    b = ml_pair(0j, hyp, 0.5)
    assert a == b == (1, 1)


@given(st.floats(-math.pi / 4, math.pi / 4, exclude_max=True),
       st.floats(-4, 4), st.floats(-4, 4))
def test_ml_decision_is_deterministic(theta, x, y):
    hyp = hyp_at(theta)
    r = complex(x, y)
    assert ml_pair(r, hyp, 0.3) == ml_pair(r, hyp, 0.3)


# ---------------------------------------------------------------------------
# the oracle's class scores: scipy.special.logsumexp in the class-major layout


def assert_scores_match_scipy(theta, noise_var, rng):
    """ml_class_scores against scipy on the sample-major (n, 4, 4) exponents.

    Samples sit on the 16 points and around them; at theta = 0 several
    points coincide, so rows have 2 or 4 equal maxima.
    """
    hyp = hyp_at(theta)
    flat = hyp.reshape(-1)
    sd = math.sqrt(noise_var)
    r = np.concatenate([flat, flat[rng.integers(0, 16, 500)]
                        + sd * (rng.standard_normal(500) + 1j * rng.standard_normal(500))])
    d2 = np.abs(r[:, None, None] - hyp[None, :, :]) ** 2
    got = ml_class_scores(r, hyp, noise_var)
    assert got.shape == (r.size, 4)
    want = scipy_logsumexp(-d2 / (2.0 * noise_var), axis=2)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@given(st.floats(-math.pi / 4, math.pi / 4, exclude_max=True),
       st.floats(-5.0, 1.0).map(lambda x: 10.0 ** x),
       st.integers(0, 2**32 - 1))
@example(0.0, 1e-5, 7)
@example(0.3, 1e-5, 7)
def test_ml_class_scores_bits_match_scipy_at_any_offset_and_variance(theta, noise_var, seed):
    assert_scores_match_scipy(theta, noise_var, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# the mixture kernel: the screen's bracket, and scipy's log-sum-exp


def exponent_magnitudes(kind, scale, n, rng):
    """(4, 4, n) magnitudes |a| of class-major exponents, with forced ties.

    ties2 / ties4 make the two / four largest exponents of every class
    equal, all_equal makes the 16 of a column equal, near_ulp moves them
    a few ulp apart, and classes gives every class the same largest one.
    """
    u = scale * rng.exponential(1.0, (4, 4, n))
    if kind == "ties2":
        u[:, :2] = u.min(axis=1, keepdims=True)
    elif kind == "ties4":
        u[:] = u.min(axis=1, keepdims=True)
    elif kind == "all_equal":
        u[:] = u[:1, :1]
    elif kind == "near_ulp":
        u[:] = u[:1, :1] * (1.0 + rng.integers(-4, 5, (4, 4, n)) * 2.0 ** -52)
    elif kind == "classes":
        u -= u.min(axis=1, keepdims=True) - u.min(axis=(0, 1))
    return u


EXPONENT_KINDS = st.sampled_from(["plain", "ties2", "ties4", "all_equal", "near_ulp", "classes"])
EXPONENT_SCALES = st.sampled_from([1e-3, 1.0, 30.0, 1e3, 1e8, 1e13, 1e16])


@given(EXPONENT_KINDS, EXPONENT_SCALES, st.floats(-300.0, 1.0).map(lambda x: 10.0 ** x),
       st.integers(0, 2**32 - 1))
@example("all_equal", 1e16, 1e-300, 1)
@example("ties4", 1e16, 1.0, 2)
@example("near_ulp", 1e13, 1e-300, 3)
@example("classes", 1.0, 10.0, 4)
def test_class_scores_lie_in_the_screens_bracket(kind, scale, noise_var, seed):
    # the premise of the ML screen: each class score of the kernel is at
    # least the class's largest exponent lo, exactly, and at most its upper
    # end lo (1 - 2^-50) + _SCORE_SLACK; exponents formed as the detector
    # forms them, -d2 / (2 sigma^2), from squared distances d2
    u = exponent_magnitudes(kind, scale, 64, np.random.default_rng(seed))
    a = u * (2.0 * noise_var)
    a /= -2.0 * noise_var
    assert np.all(np.isfinite(a))
    lo = a.max(axis=1)
    score = _log_mixture(-a, _PAIR_W, 1.0)
    assert score.shape == lo.shape
    assert np.all(lo <= score)
    assert np.all(score <= lo * (1.0 - 2.0 ** -50) + _SCORE_SLACK)


def assert_close_to_scipy(d2, weights, scale):
    """_log_mixture of d2 against scipy's weighted log-sum-exp, to 1e-13.

    The kernel drops the terms below half an ulp of its nearest term's 1,
    where scipy's log1p keeps them, so near a value of 0 the bound is
    absolute.
    """
    want = scipy_logsumexp(-scale * d2, axis=-2, b=weights[:, None])
    got = _log_mixture(d2.copy(), weights, scale)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


@given(EXPONENT_KINDS, EXPONENT_SCALES, st.floats(-300.0, 1.0).map(lambda x: 10.0 ** x),
       st.integers(0, 2**32 - 1))
@example("all_equal", 1e16, 1e-300, 1)
@example("near_ulp", 1e3, 1e-300, 3)
def test_log_mixture_matches_scipy_on_the_ml_and_mi_shapes(kind, scale, noise_var, seed):
    rng = np.random.default_rng(seed)
    u = exponent_magnitudes(kind, scale, 64, rng)
    # ML: the negated exponents at scale 1
    assert_close_to_scipy(u, _PAIR_W, 1.0)
    # 2-D MI: squared distances (4, 4, n) at scale 1 / (2 sigma^2)
    assert_close_to_scipy(u * (2.0 * noise_var), _PAIR_W, 0.5 / noise_var)
    # time MI: the 81 weighted ISI atoms, (81, n) at scale 1 / (2 veff)
    d2 = np.concatenate([u.reshape(16, -1)] * 6)[:_ISI_W.size] * (2.0 * noise_var)
    assert_close_to_scipy(d2, _ISI_W, 0.5 / noise_var)
