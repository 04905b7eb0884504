"""Link impairments: FIR multipath, complex gain, CFO, delay, AWGN.

Everything is seeded and deterministic.  The carrier frequency offset is
normalized to cycles per FFT-length block of the fixed frame format
(FrameLayout.fft_len = 2048 symbols), so the per-sample phase increment is
2 pi eps / (2048 * sps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .txchain import BasebandSignal, FrameLayout

CFO_BLOCK = FrameLayout.fft_len  # symbols per normalization block


@dataclass(frozen=True)
class ChannelConfig:
    snr_db: float = math.inf          # Es/N0 referenced to 1 sps
    cfo_normalized: float = 0.0       # cycles per 2048-symbol block, |eps|<0.5
    timing_offset: int = 0            # integer sample delay
    complex_gain: complex = 1.0 + 0.0j
    fir_taps: tuple = (1.0 + 0.0j,)
    seed: int = 0
    ref_power: float | None = None    # noise reference; None = measure input

    def __post_init__(self):
        if abs(self.cfo_normalized) >= 0.5:
            raise ValueError("|cfo_normalized| must be < 0.5")
        if self.timing_offset < 0:
            raise ValueError("timing_offset must be >= 0")
        if len(self.fir_taps) == 0:
            raise ValueError("fir_taps must be non-empty")
        if not (math.isfinite(self.snr_db) or self.snr_db == math.inf):
            raise ValueError("snr_db must be finite or +inf")


def noise_variance(snr_db: float, signal_power: float) -> float:
    """Complex noise variance for a given Es/N0 in dB."""
    if snr_db == math.inf:
        return 0.0
    return signal_power / 10.0 ** (snr_db / 10.0)


def apply_channel(sig: BasebandSignal, cfg: ChannelConfig) -> BasebandSignal:
    """y[n] = e^{j 2 pi eps (n-d)/(2048 sps)} g (h * x)[n-d] + w[n].

    Noise is sized so that Es/N0 holds per *symbol*: at sps > 1 the per-sample
    variance is sps times larger and the receiver's integrate-and-dump
    recovers the processing gain, keeping comparisons across sps fair.
    """
    x = np.asarray(sig.samples)
    sps = sig.samples_per_symbol
    taps = np.asarray(cfg.fir_taps, dtype=complex)
    d = cfg.timing_offset
    # One output buffer at its final length; every stage that is an exact
    # identity (unit tap, zero CFO, unit gain) is skipped.
    # np.empty, not np.zeros: only the delay prefix needs zeroing, and the
    # zeroed allocation measured slower on the stream workload
    y = np.empty(d + x.size + taps.size - 1, dtype=complex)
    y[:d] = 0.0
    body = y[d:]
    if taps.size == 1 and taps[0] == 1.0:
        body[:] = x
    else:
        body[:] = np.convolve(x, taps)
    if cfg.cfo_normalized != 0.0:
        m = np.arange(body.size)
        ramp = np.exp(2j * np.pi * cfg.cfo_normalized * m / (CFO_BLOCK * sps))
        # ramp first: complex products round differently with the operands
        # swapped, and this is the order numpy evaluates `y * ramp` in when
        # it reuses the ramp's buffer, as it does at frame sizes
        np.multiply(ramp, body, out=body)
    if cfg.complex_gain != 1.0:
        body *= cfg.complex_gain
    if cfg.snr_db != math.inf:
        p_ref = cfg.ref_power
        if p_ref is None:
            p_ref = float(np.mean(np.abs(x) ** 2)) if x.size else 0.0
        var = sps * noise_variance(cfg.snr_db, p_ref)
        rng = np.random.default_rng(cfg.seed)
        w = rng.normal(scale=np.sqrt(var / 2.0), size=(2, y.size))
        y.real += w[0]
        y.imag += w[1]
    return BasebandSignal(samples=y, sample_rate=sig.sample_rate,
                          samples_per_symbol=sps)
