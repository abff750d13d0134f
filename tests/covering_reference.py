"""The threshold search as it stood before it bisected the lattice index:
bisection of the bit patterns of nonnegative floats from 0 to 1e300, for
every law. On a lattice law ``calibration._smallest_covering_q`` must return
what this returns, wherever the level does not lie within the law's rounding.
"""

import struct


def reference_smallest_covering_q(cover, level: float) -> float:
    """The smallest float q >= 0 with cover(q) >= level, by bisection of the
    bit patterns of nonnegative floats, which sort as the floats do."""
    if cover(0.0) >= level:
        return 0.0

    def as_float(bits: int) -> float:
        return struct.unpack("<d", struct.pack("<q", bits))[0]

    lo, hi = 0, struct.unpack("<q", struct.pack("<d", 1e300))[0]
    if not cover(as_float(hi)) >= level:
        raise ValueError(f"the null law does not reach coverage {level}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if cover(as_float(mid)) >= level else (mid, hi)
    return as_float(hi)
