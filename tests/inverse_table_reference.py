"""The inverse lattice law the long way, from one full-length rfft.

``reference_block_sum_cdf`` is the law as it stood before it was read from
its band-limited spectrum: the full CDF table of a sum of k null scores,
built by one rfft, square-and-multiply on every bin, an irfft and a
clamped cumulative sum. Every threshold ``calibrate_threshold`` finds must
be the one this table gives.

``reference_band`` is the band read from that full-length rfft: every bin
above eps^(1/k), with its value. ``Inverse.band``, which evaluates P only
at the bins below the bound its total variation gives, must keep the same
bins and values.
"""

import math

import numpy as np
from scipy.fft import next_fast_len

from wmseg.schemes import INVERSE_BAND_EPS, INVERSE_STEP


def reference_pmf(vocab_size: int) -> np.ndarray:
    """Mass function of one null score rounded up onto the lattice of step h."""
    steps, v1 = round(1.0 / INVERSE_STEP), vocab_size - 1
    y = 1.0 - np.arange(steps + 1) * INVERSE_STEP
    below = np.floor(y * v1)  # grid points i <= below have g <= y
    tail = (v1 * (v1 + 1) - below * (below + 1)) / (2 * v1) - y * (v1 - below)
    return np.diff(2.0 * tail / vocab_size, prepend=0.0)


def reference_spectrum(vocab_size: int, k: int) -> tuple[int, np.ndarray]:
    """The rfft length L >= k/h + 1 and the rfft of the mass function on it."""
    fft_len = next_fast_len(round(k / INVERSE_STEP) + 1, real=True)
    return fft_len, np.fft.rfft(reference_pmf(vocab_size), fft_len)


def reference_band(vocab_size: int, k: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(L, bins, values): the bins f >= 1 of the full rfft with |P(f)| above
    ``INVERSE_BAND_EPS ** (1/k)``, and P at those bins."""
    fft_len, power = reference_spectrum(vocab_size, k)
    bins = np.flatnonzero(np.abs(power[1:]) > INVERSE_BAND_EPS ** (1.0 / k)) + 1
    return fft_len, bins, power[bins]


def reference_block_sum_cdf(vocab_size: int, k: int):
    """q -> P(sum of k null scores, each rounded up onto the lattice of step
    h, is at most q), read from a table of its values at 0, h, ..., k."""
    size = round(k / INVERSE_STEP) + 1
    fft_len, power = reference_spectrum(vocab_size, k)
    spectrum = power.copy()
    for bit in bin(k)[3:]:  # the bits of k below its leading 1
        spectrum *= spectrum
        if bit == "1":
            spectrum *= power
    table = np.fft.irfft(spectrum, fft_len)[:size]
    np.minimum(np.cumsum(np.maximum(table, 0.0, out=table), out=table), 1.0, out=table)

    def cdf(q: float) -> float:
        j = math.floor(q / INVERSE_STEP)  # lattice points at or below q
        return float(table[min(j, size - 1)]) if j >= 0 else 0.0

    return cdf
