"""Exact calibration of the block-sum screening threshold.

The screening stage keeps a block when its score sum exceeds a threshold
chosen so that, on a fully unwatermarked stream, the maximum block sum
exceeds it with probability at most alpha. Null scores are i.i.d., so with
m blocks of which the last holds r <= b tokens, the maximum has the CDF
F_b(q)^(m-1) F_r(q), where F_k is the scheme's CDF of a sum of k null
scores. The threshold is the smallest q at which that CDF reaches
1 - alpha. ``calibrate_threshold`` returns it as a ``ThresholdCert`` with
its calibration inputs, computed when a stream is segmented; the segmenter
screens with it and its trace records it. The laws F_k are the last
section of this module (``block_sum_cdf``), their one reader. Bisection
reads them only at the points it probes, with no table: on the index j of
the points j·h of the scheme's lattice (red_green's integers, inverse's
step 2^-11) up to b, at most log2(b/h) + 1 probes, and on the bit patterns
of nonnegative floats for gumbel's continuous law. The inverse law is summed
from its spectrum and lies within 1e-13 of the exact CDF, so it resolves no
level within about m·1e-13 of 1 over m blocks: ``calibrate_threshold``
refuses an inverse alpha below m·``INVERSE_ALPHA_FLOOR`` = m·1e-12 and names
that floor. The Monte Carlo draws of ``simulate_max_block_sums`` are the
reference the exact laws are tested on.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len
from scipy.special import bdtr, gammainc

from .schemes import SchemeSpec

_CHUNK_BUDGET = 4_000_000  # draws per simulation chunk, keeps memory flat

# Defaults of calibrate_threshold, shared with the experiment plan.
DEFAULT_ALPHA = 0.05
DEFAULT_MC_REPS = 10_000


class CertMismatch(ValueError):
    """Raised when a certificate is applied to a stream it was not built for."""


@dataclass(frozen=True)
class ThresholdCert:
    """A calibrated screening threshold plus the inputs that produced it.

    ``q`` is the (1 - alpha)-quantile of the maximum block sum over
    ceil(n / block_len) blocks of i.i.d. null scores, solved on the scheme's
    null law (``block_sum_cdf``): exactly for gumbel and red_green; for
    inverse, whose law rounds scores up, at or above the exact one by at
    most block_len·2^-11.
    """

    q: float
    alpha: float
    n: int
    block_len: int
    scheme_id: str
    scheme_params: dict

    def to_json(self) -> dict:
        """The certificate, with a copy of its ``SchemeSpec`` JSON object as ``scheme``."""
        return {"q": self.q, "alpha": self.alpha, "n": self.n, "b": self.block_len,
                "scheme": dict(self.scheme_params)}

    @functools.cached_property
    def null_mean(self) -> float:
        """The null mean of the scheme in ``scheme_params``, read once per
        certificate: a series with another null mean has another null law."""
        return SchemeSpec.from_json(self.scheme_params).null_mean


def block_starts(n: int, block_len: int) -> np.ndarray:
    """0-based start offsets of consecutive blocks; the last may be short."""
    return np.arange(0, n, block_len)


def simulate_max_block_sums(
    scheme, n: int, block_len: int, reps: int, rng: np.random.Generator
) -> np.ndarray:
    """Maximum block sum of n i.i.d. null scores, repeated reps times.

    Calibration does not draw; this is the Monte Carlo reference that the
    exact laws are tested against."""
    starts = block_starts(n, block_len)
    rows_per_chunk = max(1, _CHUNK_BUDGET // n)
    maxima = np.empty(reps, dtype=float)
    done = 0
    while done < reps:
        rows = min(rows_per_chunk, reps - done)
        draws = scheme.null_scores(rng, (rows, n))
        sums = np.add.reduceat(draws, starts, axis=1)
        maxima[done : done + rows] = sums.max(axis=1)
        done += rows
    return maxima


def calibrate_threshold(
    scheme: SchemeSpec,
    n: int,
    block_len: int,
    alpha: float = DEFAULT_ALPHA,
    mc_reps: int = DEFAULT_MC_REPS,
    seed: int = 0,
) -> ThresholdCert:
    """Calibrate the screening threshold from the scheme's exact null law,
    ``block_sum_cdf``. ``mc_reps`` and ``seed`` do not change q; they are
    accepted for callers that still pass them.

    An inverse alpha below m·``INVERSE_ALPHA_FLOOR`` for m = ceil(n /
    block_len) blocks raises ValueError. The inverse law lies within 1e-13
    of the exact CDF (``_inverse_law``), so the cover F_b^(m-1) F_r solved
    on it lies within about m·1e-13 of the exact one; at ten times that, its
    rounding moves the level by at most a tenth of alpha. Gumbel's and
    red_green's closed forms are not floored here.
    """
    # type() rather than isinstance(): bool is an int subclass, not a length.
    if type(n) is not int or type(block_len) is not int:
        raise ValueError(f"n and block length must be integers, not {n!r} and {block_len!r}")
    if not 1 <= block_len <= n:
        raise ValueError("block length must lie in [1, n]")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    blocks = math.ceil(n / block_len)
    floor = blocks * INVERSE_ALPHA_FLOOR
    if scheme.scheme_id == "inverse" and alpha < floor:
        raise ValueError(
            f"alpha {alpha!r} lies below {floor:.3g}, the least level the inverse law "
            f"resolves over {blocks} blocks ({INVERSE_ALPHA_FLOOR:g} per block)")
    last_len = n - (blocks - 1) * block_len
    full = block_sum_cdf(scheme, block_len)
    last = None if last_len == block_len else block_sum_cdf(scheme, last_len)

    def cover(x: float) -> float:  # reads F_b once per probe
        f = full(x)
        return f ** (blocks - 1) * (f if last is None else last(x))

    q = _smallest_covering_q(cover, 1.0 - alpha, LATTICE[scheme.scheme_id], block_len)
    return ThresholdCert(q, alpha, n, block_len, scheme.scheme_id, scheme.to_json())


def _smallest_covering_q(cover, level: float, step: float | None, top: int) -> float:
    """The smallest q >= 0 with cover(q) >= level, by bisection of an index.

    ``cover`` is the CDF of a nonnegative maximum: nondecreasing and
    right-continuous. A law on the lattice of step ``step`` (red_green,
    inverse) steps only at its points j·step and is 1 from ``top``, the
    block length, on, so bisecting j in [0, top/step] reads each point at
    most once. For a continuous law (gumbel, ``step`` None) it bisects the
    bit patterns of nonnegative floats up to 1e300, which sort as the floats
    do, and lands on the exact float in 63 steps.

    The inverse lattice law is summed from a truncated spectrum, so it is
    nondecreasing only to within rounding: it may fall by about 1e-15
    between neighbouring lattice points. Bisection still returns a q with
    cover(q) >= level whose neighbour below falls short. That q is the
    smallest one, and does not depend on the points the search reads,
    unless level lies within about 1e-15 of cover below q, which
    ``calibrate_threshold``'s floor on alpha keeps it from. On the tests'
    grid of n, b and alpha >= 1e-6 the lattice and float searches agree to
    the bit.
    """
    if step is None:  # floats by their bit patterns
        point = lambda bits: struct.unpack("<d", struct.pack("<q", bits))[0]
        hi = struct.unpack("<q", struct.pack("<d", 1e300))[0]
    else:
        point, hi = (lambda j: j * step), round(top / step)
    if cover(0.0) >= level:
        return 0.0
    if step is None and not cover(point(hi)) >= level:
        raise ValueError(f"the null law does not reach coverage {level}")
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if cover(point(mid)) >= level else (mid, hi)
    return point(hi)


# ---------------------------------------------------------------------------
# Exact null laws of a block sum
# ---------------------------------------------------------------------------

# Lattice step h onto which the inverse law rounds each null score up.
INVERSE_STEP = 2.0 ** -11
# The inverse law drops the spectrum bins of a block sum below this.
INVERSE_BAND_EPS = 1e-16
# The least alpha per block that calibrate_threshold certifies on the inverse
# law: ten times its 1e-13 bound on the error of F (``_inverse_law``).
INVERSE_ALPHA_FLOOR = 1e-12


def block_sum_cdf(scheme: SchemeSpec, k: int):
    """The CDF q -> P(sum of k i.i.d. null scores <= q) of one float q, from
    the fields that fix it: none for gumbel, V for inverse, |G|/V for red_green."""
    return _LAWS[scheme.scheme_id](scheme, k)


def _gumbel_law(scheme: SchemeSpec, k: int):
    """CDF of the Gamma(k, 1) sum of k null scores."""
    return lambda q: float(gammainc(k, q)) if q > 0 else 0.0


def _red_green_law(scheme: SchemeSpec, k: int):
    """CDF of the Binomial(k, |G|/V) count of green tokens in k null
    positions. The count is clamped to k, where ``bdtr`` returns nan."""
    p = scheme.null_mean
    return lambda q: float(bdtr(min(math.floor(q), k), k, p)) if q >= 0 else 0.0


@functools.lru_cache(maxsize=16)
def _inverse_pmf(vocab_size: int) -> tuple[np.ndarray, float]:
    """The read-only mass function p of one null score rounded up onto the
    lattice 0, h, ..., 1, and its total variation, which bounds |P(theta)|
    away from theta = 0; both as in ``_inverse_law``."""
    steps, v1 = round(1.0 / INVERSE_STEP), vocab_size - 1
    y = 1.0 - np.arange(steps + 1) * INVERSE_STEP
    below = np.floor(y * v1)  # grid points i <= below have g <= y
    tail = (v1 * (v1 + 1) - below * (below + 1)) / (2 * v1) - y * (v1 - below)
    pmf = np.diff(2.0 * tail / vocab_size, prepend=0.0)
    pmf.flags.writeable = False
    return pmf, float(np.abs(np.diff(pmf, prepend=0.0, append=0.0)).sum())


def band(vocab_size: int, k: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(L, bins, P[bins]): the spectrum length L a sum of k null scores
    needs, the bins f in [1, L/2] of P = rfft(pmf, L) with |P(f)| >
    eps^(1/k), and P at those bins. Every such bin lies in 1..top by the
    bound in ``_inverse_law``; P at 1..top is a slice of the rfft of
    length L, or direct sums (``_spectrum_at``) where those cost less: about
    len(p) units per bin against 6.5 per point of the rfft. Measured on a
    2-vCPU host at V = 2, 3, 20 and 1000 and k = 8 to 32, the direct sums
    won at top·len(p) <= 6.37 L and the rfft at >= 6.88 L (k of 12 to 16).
    """
    pmf, variation = _inverse_pmf(vocab_size)
    fft_len = next_fast_len(round(k / INVERSE_STEP) + 1, real=True)
    thr = INVERSE_BAND_EPS ** (1.0 / k)
    # The last bin where variation / (2 sin(pi f/L)) can exceed thr, plus
    # one for rounding: all of them when that bound never drops to thr.
    reach = math.asin(min(variation / (2 * thr), 1.0))
    top = min(math.floor(fft_len * reach / math.pi) + 1, fft_len // 2)
    # Direct sums cost about len(p) per bin, the rfft about 6.5 per point.
    if top * pmf.size < 6.5 * fft_len:
        values = _spectrum_at(pmf, np.arange(1, top + 1), fft_len)
    else:
        values = np.fft.rfft(pmf, fft_len)[1 : top + 1]
    inside = np.flatnonzero(np.abs(values) > thr)
    return fft_len, inside + 1, values[inside]


def _inverse_law(scheme: SchemeSpec, k: int):
    """CDF of the sum of k null scores, each first rounded *up* onto the
    lattice of step h = ``INVERSE_STEP``, as a function of one float q.

    A score's CDF is P(1 - |U - g| <= x) = 2 T(1 - x) / V, where
    T(y) = sum_g max(g - y, 0) over the grid g = i/(V-1) is piecewise
    linear in y. The rounded sum is the k-fold convolution of that mass
    function p on 1/h + 1 points. Its spectrum P = rfft(p) is taken on
    the first 5-smooth length L of at least k/h + 1, the values 0, h,
    ..., k a sum can take (a shorter circular convolution would wrap the
    top ones onto the bottom). P^k is the spectrum of the sum, and it is
    band-limited: at V = 1000 and k = 127 only 65 of its 131073 bins
    exceed 1e-16. So only the bins f with |P(f)| > thr = eps^(1/k), eps
    = ``INVERSE_BAND_EPS``, are raised to the k-th power (square-and-
    multiply over the bits of k), giving S(f), and the CDF at lattice
    point j is summed from them directly, with no table:

        F(j) = [S(0)(j+1) + 2 Re sum_f A_f (w^(f(j+1)) - 1)] / L,
        A_f = S(f) / (2i sin(pi f/L) e^(i pi f/L)),  w = e^(2 pi i/L),

    the Nyquist bin's A halved, and S(0) = (sum p)^k. The phases f(j+1)
    are reduced mod L in integer arithmetic; A_f is never divided by the
    cancelling w^f - 1. A dropped bin has |S(f)| <= eps, so all of them
    together move F by at most eps (ln L + 1), about 1.3e-15 at k = 127. F is
    clipped to [0, 1] and is exactly 1 from j = k/h on, where every sum
    lies. Rounding up never lowers a sum, so this CDF lies at or below
    the exact one and a threshold solved on it covers at least 1 -
    alpha; each sum grows by less than k·h, so that threshold exceeds
    the exact one by at most b·h for blocks of b tokens (0.0625 at b =
    128). Floating-point rounding moves F by under 1e-13 and lets it
    fall by under 1e-14 between neighbouring lattice points (tested up
    to k = 300 in ``test_calibration.py``, on this function at sampled
    lattice points and at the points a calibration reads). That 1e-13 is
    what ``INVERSE_ALPHA_FLOOR`` is ten times: a level within m·1e-13 of 1
    over m blocks is not resolved, and calibration refuses it.

    The band lies below one bin, ``top``, that a bound gives (``band``).
    Summation by parts gives (1 - e^(-i theta)) P(theta) = sum_j (p_j -
    p_(j-1)) e^(-i j theta) with p zero past both ends, so |P(theta)|
    <= TV / (2 sin(theta/2)) on (0, pi], where TV = ``variation`` is the
    total variation of p (2h at V = 2, 4h at V = 1000). Every band bin
    f thus has sin(pi f/L) < TV / (2 thr) and lies in 1..top, top about
    L TV / (2 pi thr): 109 bins at V = 1000 and k = 127, 64 of them kept.
    When top len(p) < 6.5 L (k above about 13), P is summed directly at
    1..top (``_spectrum_at``), in real arithmetic: two short nested sums,
    the inner one two BLAS products kept small enough to run on the
    calling thread, that stay within 5.7e-16 of the rfft. Otherwise the
    rfft of length L costs less, and P is sliced from it.

    Each call of the returned CDF sums F(j) anew: calibration bisects
    the lattice index and reads each point once.
    """
    top = round(k / INVERSE_STEP)  # the lattice index of the largest sum, k
    fft_len, bins, base = band(scheme.vocab_size, k)
    spectrum = base.copy()
    for bit in bin(k)[3:]:  # the bits of k below its leading 1
        spectrum *= spectrum
        if bit == "1":
            spectrum *= base
    half = np.pi * bins / fft_len
    coef = spectrum / (2j * np.sin(half) * np.exp(1j * half))
    coef[2 * bins == fft_len] /= 2  # the Nyquist bin has no mirror image
    mass, offset = _inverse_pmf(scheme.vocab_size)[0].sum() ** k, coef.sum()

    def cdf(q: float) -> float:
        j = math.floor(q / INVERSE_STEP)  # the last lattice point <= q
        if not 0 <= j < top:
            return 1.0 if j >= top else 0.0
        # F(j) from the sum of A_f w^(f(j+1)) over the kept bins
        sums = coef @ np.exp((2j * np.pi / fft_len) * (bins * (j + 1) % fft_len))
        f = float(mass * (j + 1) + 2.0 * (sums - offset).real) / fft_len
        return min(max(f, 0.0), 1.0)

    return cdf


def _spectrum_at(pmf: np.ndarray, bins: np.ndarray, fft_len: int) -> np.ndarray:
    """``np.fft.rfft(pmf, fft_len)[bins]`` by direct sums in real arithmetic.

    With j = aB + c and B = isqrt(len(pmf)) + 1, e^(-2 pi i f j/L) =
    e^(-2 pi i f aB/L) e^(-2 pi i f c/L), so each bin takes about 2B
    cosines and sines instead of len(pmf); the phases are reduced mod L in
    integer arithmetic. The sum runs over c and then over a: one pass over
    all aB + c terms drifts up to 2.5e-15 from the rfft. The inner sums are
    two real BLAS products, cos1 @ grid.T and sin1 @ grid.T, and the outer
    ones four short ``einsum`` reductions, combined as (c2 re - s2 im) +
    i (s2 re + c2 im). The cosines enter the product less 1, with the row
    sums of the grid added back: OpenBLAS's product of the full cosines
    rounded by up to 9 units in the last place, all one way, and drifted
    1.0e-15 from the rfft at V = 3 and k = 300. Split so, the sums drift at
    most 5.7e-16 from the rfft, and 3.3e-16 from a long-double sum, over V
    in {2, 3, 20, 100, 1000} and k from 1 to 1000; the rfft itself is off
    by up to 4.1e-16.

    The bins go through the products at most ``_BINS_PER_PRODUCT`` at a
    time, which keeps each product on the calling thread. A threaded
    product costs more than these sums: on a shared 2-vCPU host, one
    product over all 669 bins of k = 1000 made the band take 12-16 ms with
    OPENBLAS_NUM_THREADS unset, against 1.6 ms with it set to 1. In parts,
    the band takes 1.3-1.4 ms either way.
    """
    width = math.isqrt(pmf.size) + 1
    grid = np.zeros(-(-pmf.size // width) * width)
    grid[: pmf.size] = pmf
    grid = grid.reshape(-1, width)  # grid[a, c] = pmf[a * width + c]
    return np.concatenate([_spectrum_part(grid, bins[lo : lo + _BINS_PER_PRODUCT], fft_len)
                           for lo in range(0, bins.size, _BINS_PER_PRODUCT)])


# Bins per pair of BLAS products in _spectrum_part: 120 bins by the 45 x 46
# grid are 248400 multiply-adds, under the 2^18 below which OpenBLAS (as
# built by default) keeps a product on the calling thread.
_BINS_PER_PRODUCT = 120


def _spectrum_part(grid: np.ndarray, bins: np.ndarray, fft_len: int) -> np.ndarray:
    """P at ``bins`` from ``_spectrum_at``'s grid, in real arithmetic."""
    def twiddle(steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        phase = (-2 * np.pi / fft_len) * (np.outer(bins, steps) % fft_len)
        return np.cos(phase), np.sin(phase)

    # The inner sums over c, per (f, a). Less 1, the cosines are at most
    # 1 - cos(2 pi f B/L), so the product rounds small terms, not ones near 1.
    cos1, sin1 = twiddle(np.arange(grid.shape[1]))
    cos1 -= 1.0
    re, im = cos1 @ grid.T + grid.sum(axis=1), sin1 @ grid.T
    cos2, sin2 = twiddle(np.arange(grid.shape[0]) * grid.shape[1])

    def dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("fa,fa->f", x, y)

    return (dot(cos2, re) - dot(sin2, im)) + 1j * (dot(sin2, re) + dot(cos2, im))


_LAWS = {"gumbel": _gumbel_law, "inverse": _inverse_law, "red_green": _red_green_law}
# The step h of the lattice j·h where a scheme's block sums lie; None if continuous.
LATTICE = {"gumbel": None, "inverse": INVERSE_STEP, "red_green": 1.0}
