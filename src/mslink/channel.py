"""Link impairments: FIR multipath, complex gain, CFO, delay, AWGN.

Everything is seeded and deterministic.  The carrier frequency offset is
normalized to cycles per FFT-length block of the fixed frame format
(FrameLayout.fft_len = 2048 symbols), so the per-sample phase increment is
2 pi eps / (2048 * sps).
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .txchain import BasebandSignal, FrameLayout

CFO_BLOCK = FrameLayout.fft_len  # symbols per normalization block
# Noise and the FIR output are made this many values at a time: a fixed
# chunk is reused from the allocator on every call, where a frame-sized
# temporary is handed back to the kernel and faulted in again later.
NOISE_CHUNK = 8192


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
        if self.timing_offset < 0:
            raise ValueError("timing_offset must be >= 0")
        if len(self.fir_taps) == 0:
            raise ValueError("fir_taps must be non-empty")
        if not all(cmath.isfinite(t) for t in self.fir_taps):
            raise ValueError("fir_taps must be finite")
        if not (math.isfinite(self.snr_db) or self.snr_db == math.inf):
            raise ValueError("snr_db must be finite or +inf")
        if not (isinstance(self.ref_power, numbers.Real)
                and math.isfinite(self.ref_power) and self.ref_power > 0):
            raise ValueError("ref_power must be finite and > 0")


def _noise_variance(snr_db: float, signal_power: float) -> float:
    """Complex noise variance for a given Es/N0 in dB."""
    if snr_db == math.inf:
        return 0.0
    return signal_power / 10.0 ** (snr_db / 10.0)


def cfo_phasors(c: complex, index: np.ndarray, sps: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """np.exp(c * index / (CFO_BLOCK * sps)) for a purely imaginary c (a CFO
    phase ramp), built as cos(theta) + j sin(theta) with theta = (c.imag *
    index) * (1 / (CFO_BLOCK * sps)), into `out` when it is given (a complex
    array of index's length), else into a fresh array.

    That is the expression's own arithmetic, without its complex exp and
    complex division: numpy divides a complex by a real divisor by
    multiplying with the divisor's reciprocal, the exponent's real part is
    +-0, and exp(+-0 + j theta) is (cos theta, sin theta).  The two agree bit
    for bit at every index >= 1, and at index 0 (where both are 1) up to the
    sign of the zero imaginary part; tests/test_channel.py checks this on the
    host, whose float64 sin and cos must match its complex exp.  theta is
    built in out's imaginary part, so the call allocates nothing else."""
    out = np.empty(index.shape, dtype=complex) if out is None else out
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


def apply_channel(sig: BasebandSignal, cfg: ChannelConfig,
                  out: np.ndarray | None = None) -> BasebandSignal:
    """y[n] = e^{j 2 pi eps (n-d)/(2048 sps)} g (h * x)[n-d] + w[n].

    w has variance sps * ref_power / 10^(snr_db / 10) per sample, whatever
    the power of x (see ChannelConfig).  Es/N0 thus holds per *symbol*: at
    sps > 1 the per-sample variance is sps times larger and the receiver's
    integrate-and-dump recovers the processing gain, keeping comparisons
    across sps fair.

    y is written into `out` when it is given (complex, d + len(x) + len(h) - 1
    samples), else into a fresh array.  `out` may hold x itself exactly at
    the delay, x being out[d:d + len(x)], and the channel then runs in
    place; any other overlap of `out` and x is an error.
    """
    x = np.asarray(sig.samples)
    sps = sig.samples_per_symbol
    taps = np.asarray(cfg.fir_taps, dtype=complex)
    d = cfg.timing_offset
    n = d + x.size + taps.size - 1
    # One output buffer at its final length; every stage that is an exact
    # identity (unit tap, zero CFO, unit gain) is skipped.
    # np.empty, not np.zeros: only the delay prefix needs zeroing, and the
    # zeroed allocation measured slower on the stream workload
    if out is None:
        y = np.empty(n, dtype=complex)
        in_place = False
    elif out.shape != (n,) or out.dtype != complex:
        raise ValueError(f"out must hold {n} complex128 samples, "
                         f"got shape {out.shape} of {out.dtype}")
    else:
        y = out
        in_place = np.shares_memory(out, x)
        if in_place and not _is_body_of(x, out, d):
            raise ValueError("out must not share memory with the input "
                             "samples, except as out[d:d + len(x)]")
    y[:d] = 0.0
    body = y[d:]
    if taps.size == 1 and taps[0] == 1.0:
        if not in_place:
            body[:] = x
    else:
        # last block first, so x may be body's prefix: each block reads only
        # inputs below the blocks written before it
        k = taps.size - 1
        for s in reversed(range(0, body.size, NOISE_CHUNK)):
            a, e = max(0, s - k), s + NOISE_CHUNK
            body[s:e] = np.convolve(x[a:e], taps)[s - a:e - a]
    if cfg.cfo_normalized != 0.0:
        ramp = _cfo_ramp(cfg.cfo_normalized, sps, body.size)
        # ramp first: complex products round differently with the operands
        # swapped, and this is the order numpy evaluates `y * ramp` in when
        # it reuses the ramp's buffer, as it does at frame sizes
        np.multiply(ramp, body, out=body)
    if cfg.complex_gain != 1.0:
        body *= cfg.complex_gain
    if cfg.snr_db != math.inf:
        var = sps * _noise_variance(cfg.snr_db, cfg.ref_power)
        rng = np.random.default_rng(cfg.seed)
        scale = np.sqrt(var / 2.0)
        # all real parts, then all imaginary parts: the generator's stream
        # in the order of the one-shot rng.normal(size=(2, y.size)) draw.
        # Each chunk is drawn into one array allocated per call, not per
        # module, so calls on separate threads share nothing; a scaled
        # standard draw is rng.normal's own arithmetic, so the sums match
        draw = np.empty(min(NOISE_CHUNK, y.size))
        for part in (y.real, y.imag):
            for i in range(0, part.size, NOISE_CHUNK):
                chunk = part[i:i + NOISE_CHUNK]
                w = draw[:chunk.size]
                rng.standard_normal(out=w)
                w *= scale
                chunk += w
    return BasebandSignal(samples=y, sample_rate=sig.sample_rate,
                          samples_per_symbol=sps)
