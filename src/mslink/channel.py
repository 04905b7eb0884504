"""Link impairments: FIR multipath, complex gain, CFO, delay, AWGN.

Everything is seeded and deterministic.  The carrier frequency offset is
normalized to cycles per FFT-length block of the fixed frame format
(FrameLayout.fft_len = 2048 symbols), so the per-sample phase increment is
2 pi eps / (2048 * sps).

A channel pass has one path: the input lands in the output at the delay
(where an in-place pass already holds it), then each stage runs in place
over that body, the FIR, the CFO ramp and the gain in turn, and last the
AWGN is drawn and added chunk by chunk.  A pass runs on its calling thread
alone, starts no thread and shares nothing with another.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import check_count, check_out
from .txchain import BasebandSignal, FrameLayout

CFO_BLOCK = FrameLayout.fft_len  # symbols per normalization block
# The FIR output is made this many samples at a time, or as many as its
# taps when they are more: np.convolve's block temporary (32 KiB) is reused
# from the allocator on every call, where a frame-sized one is handed back
# to the kernel and faulted in again later.
FIR_BLOCK = 2048
# The noise is drawn NOISE_CHUNK values at a time into one float64 array
# (96 KiB) per pass, reused for every chunk, so a pass holds that array or
# one FIR block besides its output, within 256 KiB.
NOISE_CHUNK = 12288


@dataclass(frozen=True)
class ChannelConfig:
    """snr_db is the Es/N0 of a transmitter of incident power ref_power: the
    noise is charged against that fixed budget, never against the power of
    the samples sent, so a metasurface's reflection loss costs SNR."""

    snr_db: float = math.inf          # Es/N0 referenced to 1 sps
    cfo_normalized: float = 0.0       # cycles per 2048-symbol block, |eps|<0.5
    timing_offset: int = 0            # integer sample delay
    complex_gain: complex = 1.0 + 0.0j
    fir_taps: tuple = (1.0 + 0.0j,)
    seed: int = 0
    ref_power: float = 1.0            # incident power the SNR refers to

    def __post_init__(self):
        if not abs(self.cfo_normalized) < 0.5:   # NaN fails too
            raise ValueError("|cfo_normalized| must be finite and < 0.5")
        if not cmath.isfinite(self.complex_gain):
            raise ValueError("complex_gain must be finite")
        check_count("timing_offset", self.timing_offset, 0)
        if len(self.fir_taps) == 0:
            raise ValueError("fir_taps must be non-empty")
        if not all(cmath.isfinite(t) for t in self.fir_taps):
            raise ValueError("fir_taps must be finite")
        if not (isinstance(self.ref_power, numbers.Real)
                and math.isfinite(self.ref_power) and self.ref_power > 0):
            raise ValueError("ref_power must be finite and > 0")
        noise_variance(self.snr_db, self.ref_power, 1)
        check_count("seed", self.seed, 0)


def noise_variance(snr_db: float, ref_power: float, sps: int) -> float:
    """Complex noise variance per sample, sps * ref_power / 10^(snr_db / 10),
    at an Es/N0 of snr_db dB: 0 at +inf.  A variance that float64 cannot
    hold (NaN, inf, or a power of 10 past its range) is an error opening
    with `snr_db`."""
    try:   # math.pow raises, as float ** does, where numpy scalars warn
        var = sps * (ref_power / math.pow(10.0, snr_db / 10.0))
    except ArithmeticError:
        var = math.nan
    if not math.isfinite(var):
        per_sample = "" if sps == 1 else f"{sps} * "
        raise ValueError(f"snr_db must be +inf or give a finite noise "
                         f"variance {per_sample}ref_power / 10^(snr_db / 10)")
    return var


def cfo_phasors(c: complex, index: np.ndarray, sps: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """np.exp(c * index / (CFO_BLOCK * sps)) for a purely imaginary c (a CFO
    phase ramp), built as cos(theta) + j sin(theta) with theta = (c.imag *
    index) * (1 / (CFO_BLOCK * sps)), into `out` when it is given (a
    contiguous complex array of index's shape), else into a fresh array.

    That is the expression's own arithmetic, without its complex exp and
    complex division: numpy divides a complex by a real divisor by
    multiplying with the divisor's reciprocal, the exponent's real part is
    +-0, and exp(+-0 + j theta) is (cos theta, sin theta).  The two agree bit
    for bit at every index >= 1, and at index 0 (where both are 1) up to the
    sign of the zero imaginary part; tests/test_channel.py checks this on the
    host, whose float64 sin and cos must match its complex exp.  theta is
    built in out's imaginary part, so the call allocates nothing else."""
    out = check_out(out, index.shape, complex)
    theta = out.imag
    np.multiply(c.imag, index, out=theta)
    theta *= 1.0 / (CFO_BLOCK * sps)
    np.cos(theta, out=out.real)
    np.sin(theta, out=theta)
    return out


@functools.lru_cache(maxsize=2)
def _cfo_ramp(eps: float, sps: int, n: int) -> np.ndarray:
    """e^{j 2 pi eps m / (2048 sps)} for m < n, bit for bit
    `np.exp(2j * np.pi * eps * m / (CFO_BLOCK * sps))` (see cfo_phasors).
    Built once per (eps, sps, length) and shared, so read-only; one entry
    holds 16 bytes per sample, so only the last two are kept.  Building it
    holds the ramp and the sample index, and no complex temporary."""
    ramp = cfo_phasors(2j * np.pi * eps, np.arange(n, dtype=float), sps)
    ramp.flags.writeable = False
    return ramp


def _is_body_of(x: np.ndarray, out: np.ndarray, d: int) -> bool:
    """Whether x is exactly out[d:d + x.size]: the same memory, element for
    element, as the transmitter writes when it synthesizes into the receive
    buffer at the channel delay."""
    body = out[d:d + x.size]
    return (x.dtype == body.dtype and x.shape == body.shape
            and x.strides == body.strides
            and x.ctypes.data == body.ctypes.data)


def _fir(body: np.ndarray, m: int, taps: np.ndarray) -> None:
    """body = h * x in place, x = body[:m] and body m + len(taps) - 1
    samples long.  The outputs are made forward, max(FIR_BLOCK, len(taps))
    at a time, each block by np.convolve of its inputs behind the k =
    len(taps) - 1 before them, kept in a copy as the block before overwrites
    them.  A block starts only at an input, so the last is as long as the
    taps: np.convolve swaps an input shorter than the taps with them and
    sums in another order, so every block's input is as long as the taps,
    or x is shorter than them and is convolved whole, as the closed form
    convolves it."""
    k = taps.size - 1
    step = max(FIR_BLOCK, taps.size)
    hist = body[:0].copy()
    for s in range(0, m, step):
        e = s + step if s + step < m else body.size
        src = np.concatenate((hist, body[s:min(e, m)]))
        lead, hist = hist.size, body[e - k:e].copy()
        body[s:e] = np.convolve(src, taps)[lead:lead + e - s]


def _add_noise(y, cfg, sps):
    """y += w, w the pass's AWGN: standard normals of default_rng(cfg.seed),
    all real parts, then all imaginary parts (the generator's stream in the
    order of the one-shot rng.normal(size=(2, len(y))) draw), drawn
    NOISE_CHUNK at a time into one array and each scaled by sqrt(var / 2),
    var = noise_variance(cfg.snr_db, cfg.ref_power, sps): a scaled standard
    draw is rng.normal's own arithmetic.  At snr_db = inf nothing is
    drawn."""
    if cfg.snr_db == math.inf:
        return
    scale = np.sqrt(noise_variance(cfg.snr_db, cfg.ref_power, sps) / 2.0)
    rng = np.random.default_rng(cfg.seed)
    draw = np.empty(min(NOISE_CHUNK, y.size))
    for part in (y.real, y.imag):
        for i in range(0, part.size, NOISE_CHUNK):
            chunk = part[i:i + NOISE_CHUNK]
            w = draw[:chunk.size]
            rng.standard_normal(out=w)
            w *= scale
            chunk += w


def apply_channel(sig: BasebandSignal, cfg: ChannelConfig,
                  out: np.ndarray | None = None) -> BasebandSignal:
    """y[n] = e^{j 2 pi eps (n-d)/(2048 sps)} g (h * x)[n-d] + w[n].

    w has variance sps * ref_power / 10^(snr_db / 10) per sample, whatever
    the power of x (see ChannelConfig).  Es/N0 thus holds per *symbol*: at
    sps > 1 the per-sample variance is sps times larger and the receiver's
    integrate-and-dump recovers the processing gain, keeping comparisons
    across sps fair.

    y is written into `out` when it is given (a contiguous complex array of
    d + len(x) + len(h) - 1 samples), else into a fresh array.  `out` may
    hold x itself exactly at the delay, x being out[d:d + len(x)], and the
    pass then skips the copy of x there that starts every other pass; any
    other overlap of `out` and x is an error, since numpy's assignment
    with a dtype cast is not safe for overlapping arrays.

    From the body y[d:] on, each stage runs in place over it and is skipped
    when it is an exact identity (unit tap, zero CFO, unit gain): the FIR
    block by block (see _fir), then the CFO ramp and the gain each as one
    product over the whole body, the closed form's own arithmetic (ramp
    first: complex products round differently with the operands swapped).
    Then w is added chunk by chunk (see _add_noise).
    """
    x = np.asarray(sig.samples)
    sps = sig.samples_per_symbol
    taps = np.asarray(cfg.fir_taps, dtype=complex)
    d, m = cfg.timing_offset, x.size
    # One output buffer at its final length.  np.empty, not np.zeros: the
    # copy and the stages write the whole body, so only the delay prefix
    # needs zeroing
    y = check_out(out, (d + m + taps.size - 1,), complex)
    if not np.shares_memory(y, x):
        y[d:d + m] = x
    elif not _is_body_of(x, y, d):
        raise ValueError("out must not share memory with the input "
                         "samples, except as out[d:d + len(x)]")
    y[:d] = 0.0
    body = y[d:]
    if m == 0:   # h * x of no samples: len(h) - 1 zeros
        body[:] = 0.0
    else:
        if taps.size > 1 or taps[0] != 1.0:
            _fir(body, m, taps)
        if cfg.cfo_normalized != 0.0:
            ramp = _cfo_ramp(cfg.cfo_normalized, sps, body.size)
            np.multiply(ramp, body, out=body)
        if cfg.complex_gain != 1.0:
            body *= cfg.complex_gain
    _add_noise(y, cfg, sps)
    return BasebandSignal(samples=y, sample_rate=sig.sample_rate,
                          samples_per_symbol=sps)
