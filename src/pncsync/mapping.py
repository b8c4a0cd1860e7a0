"""QPSK map and the class-major layout of the 16 pairs.

Amplitudes are +-1 per real dimension (unit power per dimension per node),
so the noiseless superposition of two symbols lives on {-2, 0, +2} per
dimension.  The relay never recovers the individual symbols; it maps the
superposed level directly to the xor of the two source bits: level +-2
(the sources agree) to bit 0, level 0 to bit 1.

A bit pair (i, q) has index 2i + q, so the index of the xor of two pairs
is the xor of their indices.  Every Monte-Carlo path lays the 16 source
pairs (s1, s3) out class-major: index 4c + j is pair j of xor class c,
with s1 = S1[c, j] = j and s3 = S3[c, j] = j ^ c, and class c carries the
xor bits CLASS_BITS[c] = (c >> 1, c & 1).
"""

from __future__ import annotations

import numpy as np

S1 = np.tile(np.arange(4), (4, 1))
S3 = S1 ^ np.arange(4)[:, None]
CLASS_BITS = np.array([[c >> 1, c & 1] for c in range(4)], dtype=np.int8)
POINT_BITS = CLASS_BITS.repeat(4, axis=0)  # xor bits of the pair at index 4c + j
for _table in (S1, S3, CLASS_BITS, POINT_BITS):
    _table.setflags(write=False)


def qpsk_modulate(pair: int) -> complex:
    """The QPSK symbol a + jb of bit pair 2i + q: a = 2i - 1, b = 2q - 1."""
    if pair not in range(4):
        raise ValueError(f"bit pair index must be 0..3, got {pair!r}")
    return complex(2 * (pair >> 1) - 1, 2 * (pair & 1) - 1)
