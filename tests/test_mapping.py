import numpy as np
import pytest
from hypothesis import given, strategies as st

from pncsync.detection import build_hypotheses
from pncsync.mapping import CLASS_BITS, POINT_BITS, S1, S3, qpsk_modulate
from oracles import pnc_xor_of_levels

pairs = st.integers(0, 3)  # bit pair (i, q) as its index 2i + q


def test_modulate_known_points():
    assert qpsk_modulate(3) == 1 + 1j
    assert qpsk_modulate(0) == -1 - 1j
    assert qpsk_modulate(1) == -1 + 1j
    assert qpsk_modulate(2) == 1 - 1j


def test_modulate_is_bijective():
    images = {qpsk_modulate(p) for p in range(4)}
    assert len(images) == 4


def test_xor_demap_known_levels():
    assert pnc_xor_of_levels(2 + 0j) == (0, 1)
    assert pnc_xor_of_levels(-2 - 2j) == (0, 0)
    assert pnc_xor_of_levels(0j) == (1, 1)


def test_level_validation():
    # every noiseless superposition lies on {-2, 0, 2} per dimension
    levels = build_hypotheses((0.0,))[0]
    assert set(levels.real.ravel().tolist()) == set(levels.imag.ravel().tolist()) == {-2, 0, 2}
    with pytest.raises(KeyError):
        pnc_xor_of_levels(1 + 0j)


def test_bitpair_validation():
    for bad in (4, -1):
        with pytest.raises(ValueError, match="0..3"):
            qpsk_modulate(bad)


def test_layout_tables():
    assert S1.shape == S3.shape == (4, 4)
    assert np.array_equal(S1, np.tile(np.arange(4), (4, 1)))  # s1-major within a class
    assert np.array_equal(CLASS_BITS, [[0, 0], [0, 1], [1, 0], [1, 1]])
    assert np.array_equal(POINT_BITS, np.repeat(CLASS_BITS, 4, axis=0))
    assert POINT_BITS.dtype == CLASS_BITS.dtype == np.int8
    for table in (S1, S3, CLASS_BITS, POINT_BITS):
        assert not table.flags.writeable


def test_demap_equals_xor_for_all_16_pairs():
    # the whole mapping table, both dimensions, exhaustively, in the layout's order
    levels = build_hypotheses((0.0,))[0]
    for c in range(4):
        for j in range(4):
            s1, s3 = S1[c, j], S3[c, j]
            assert levels[c, j] == qpsk_modulate(s1) + qpsk_modulate(s3)
            assert pnc_xor_of_levels(levels[c, j]) == ((s1 ^ s3) >> 1, (s1 ^ s3) & 1)
            assert POINT_BITS[4 * c + j].tolist() == CLASS_BITS[c].tolist()


@given(pairs, pairs)
def test_round_trip_through_relay(x, y):
    xi, xq = pnc_xor_of_levels(qpsk_modulate(x) + qpsk_modulate(y))
    # an end node xors the relay's broadcast with its own bits
    assert (2 * xi + xq) ^ x == y


@given(pairs, pairs)
def test_xor_is_involutive(c, j):
    # pair j of class c: s3 = s1 ^ c, so xor with c takes s3 back to s1
    assert S3[c, j] == S1[c, j] ^ c
    assert S3[c, j] ^ c == S1[c, j]
