"""QPSK mapping at the end nodes and the xor demap at the relay.

Amplitudes are +-1 per real dimension (unit power per dimension per node),
so the noiseless superposition of two symbols lives on {-2, 0, +2} per
dimension.  The relay never recovers the individual symbols; it maps the
superposed level directly to the xor of the two source bits.
"""

from __future__ import annotations

from dataclasses import dataclass

_LEVELS = (-2, 0, 2)


@dataclass(frozen=True)
class BitPair:
    """One QPSK symbol's worth of data: in-phase bit and quadrature bit."""

    i_bit: int
    q_bit: int

    def __post_init__(self):
        for b in (self.i_bit, self.q_bit):
            if b not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {(self.i_bit, self.q_bit)}")

    def __xor__(self, other: "BitPair") -> "BitPair":
        return BitPair(self.i_bit ^ other.i_bit, self.q_bit ^ other.q_bit)


@dataclass(frozen=True)
class QpskSymbol:
    """Amplitude pair (a, b), each in {-1, +1}."""

    a: int
    b: int

    def __post_init__(self):
        for v in (self.a, self.b):
            if v not in (-1, 1):
                raise ValueError(f"amplitudes must be -1 or +1, got {(self.a, self.b)}")

    def as_complex(self) -> complex:
        return complex(self.a, self.b)


@dataclass(frozen=True)
class SuperposedLevel:
    """Noiseless sum of two QPSK symbols, {-2, 0, +2} per dimension."""

    i_level: int
    q_level: int

    def __post_init__(self):
        for v in (self.i_level, self.q_level):
            if v not in _LEVELS:
                raise ValueError(f"levels must be in {_LEVELS}, got {(self.i_level, self.q_level)}")


ALL_BIT_PAIRS = tuple(BitPair(i, q) for i in (0, 1) for q in (0, 1))


def qpsk_modulate(bits: BitPair) -> QpskSymbol:
    """Map a bit pair to amplitudes: a = 2*i_bit - 1, b = 2*q_bit - 1."""
    return QpskSymbol(2 * bits.i_bit - 1, 2 * bits.q_bit - 1)


def superpose_symbols(s1: QpskSymbol, s3: QpskSymbol) -> SuperposedLevel:
    """Noiseless sum of two symbols at the relay (perfect sync)."""
    return SuperposedLevel(s1.a + s3.a, s1.b + s3.b)


def pnc_xor_of_levels(level: SuperposedLevel) -> BitPair:
    """Relay demap: level +-2 -> bit 0, level 0 -> bit 1, per dimension.

    For every generating pair this equals the xor of the two source bits:
    the sources agree (sum +-2) exactly when their bits are equal.
    """
    return BitPair(int(level.i_level == 0), int(level.q_level == 0))
