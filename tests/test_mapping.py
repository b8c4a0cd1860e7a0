import pytest
from hypothesis import given, strategies as st

from pncsync.mapping import (ALL_BIT_PAIRS, BitPair, QpskSymbol, SuperposedLevel,
                             pnc_xor_of_levels, qpsk_modulate, superpose_symbols)

bit_pairs = st.builds(BitPair, st.integers(0, 1), st.integers(0, 1))


def test_modulate_known_points():
    assert qpsk_modulate(BitPair(1, 1)) == QpskSymbol(1, 1)
    assert qpsk_modulate(BitPair(0, 0)) == QpskSymbol(-1, -1)
    assert qpsk_modulate(BitPair(0, 1)) == QpskSymbol(-1, 1)


def test_modulate_is_bijective():
    images = {qpsk_modulate(b) for b in ALL_BIT_PAIRS}
    assert len(images) == 4


def test_xor_demap_known_levels():
    assert pnc_xor_of_levels(SuperposedLevel(2, 0)) == BitPair(0, 1)
    assert pnc_xor_of_levels(SuperposedLevel(-2, -2)) == BitPair(0, 0)
    assert pnc_xor_of_levels(SuperposedLevel(0, 0)) == BitPair(1, 1)


def test_level_validation():
    with pytest.raises(ValueError):
        SuperposedLevel(1, 0)
    with pytest.raises(ValueError):
        SuperposedLevel(0, -4)


def test_bitpair_validation():
    with pytest.raises(ValueError):
        BitPair(2, 0)
    with pytest.raises(ValueError):
        BitPair(0, -1)


def test_demap_equals_xor_for_all_16_pairs():
    # the whole mapping table, both dimensions, exhaustively
    for s1 in ALL_BIT_PAIRS:
        for s3 in ALL_BIT_PAIRS:
            level = superpose_symbols(qpsk_modulate(s1), qpsk_modulate(s3))
            assert pnc_xor_of_levels(level) == s1 ^ s3


@given(bit_pairs, bit_pairs)
def test_round_trip_through_relay(x, y):
    level = superpose_symbols(qpsk_modulate(x), qpsk_modulate(y))
    # an end node xors the relay's broadcast with its own bits
    assert pnc_xor_of_levels(level) ^ x == y


@given(bit_pairs, bit_pairs)
def test_xor_is_involutive(x, y):
    assert (x ^ y) ^ y == x
