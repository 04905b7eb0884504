"""Receive chain: frame sync, CP-based CFO estimation, LS/ZF SC-FDE, demod.

The receiver is conventional and mode-agnostic: it correlates against an
ideal-QPSK sync replica, estimates the channel from the known pilot mapped
onto ideal QPSK points, and slices against ideal QPSK decision regions.  Any
per-point distortion of a hardware constellation therefore survives
equalization and shows up as EVM/BER degradation, which is exactly the
impairment under study.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .channel import CFO_BLOCK, cfo_phasors
from .errors import (DegeneratePilotError, FramingError,
                     SingularChannelError, SyncNotFoundError, check_out)
from .txchain import (BasebandSignal, FrameLayout, build_pilot_sequence,
                      build_sync_sequence, demap_symbols, ideal_qpsk)

SYNC_THRESHOLD = 0.5  # fraction of the power-normalized ideal peak
# frame_sync's FFT block is the next power of two at or above this many
# sync-replica lengths: 4096 points at sps 1, 32768 at sps 8, of which at
# least 7/8 are new lags (the rest overlap the next block)
SYNC_BLOCK_REPLICAS = 8
# Quadrant slicer: a symbol this close to an axis, relative to
# (1 + max(|re|, |im|))^2, is decided by the distance argmin, because there
# the rounded distances to the two neighbouring points may tie or swap.
# The slicer first screens a whole block against the bound at the block's
# largest coordinate, which no symbol's own bound exceeds, and applies the
# per-symbol test only to a block that fails the screen.
AXIS_TOLERANCE = 1e-9
# The slicer decides this many symbols per pass, so its temporaries stay
# ~32 KB however many symbols one call decides.
SLICER_BLOCK = FrameLayout.fft_len
# Above sps 1, derotate_and_dump builds the symbol-rate ramp this many
# symbols at a time, in one 64 KB temporary.
RAMP_BLOCK = 4096
# decision-directed passes of the phase loop per equalized block
PHASE_LOOP_PASSES = 3

_QPSK_POINTS = ideal_qpsk().points


def _sign_quadrant_table() -> np.ndarray:
    """Ideal-QPSK index by the sign bits of (re, im) read as one uint16,
    the code a complex128 symbol's float64 pair gives under np.signbit."""
    signs = np.array([[False, False], [False, True], [True, False],
                      [True, True]])
    codes = signs.view(np.uint16).ravel()   # byte order of this host
    table = np.zeros(codes.max() + 1, dtype=np.intp)
    table[codes] = [0, 3, 1, 2]
    return table


_SIGN_QUADRANT = _sign_quadrant_table()


@dataclass(frozen=True)
class SyncResult:
    frame_start: int
    peak_metric: float
    margin: float   # peak_metric over the detection threshold, >= 1


@dataclass(frozen=True)
class RxDiagnostics:
    """What receive_frame found, in the order it found it: the sample the
    frame starts at, the sync peak over the detection threshold
    (SyncResult.margin), the CFO estimate, the channel estimate ĥ (the
    2048-bin array the frame equalized with, not a copy), the equalized data
    symbols, and the (9, 3) unit factors phase_loop applied to them.

    The EVM (`evm_percent`) and the SNR estimate read off it
    (`snr_estimate_db`) are derived when first read: the EVM is computed
    from `equalized_symbols` as they are at first read, against their
    minimum-distance ideal-QPSK decisions, and kept, so a frame whose EVM
    is never read never computes it."""

    frame_start: int
    sync_margin: float
    cfo_estimate: float
    channel_estimate: np.ndarray = field(repr=False)
    equalized_symbols: np.ndarray = field(repr=False)
    phase_rotations: np.ndarray = field(repr=False)

    @functools.cached_property
    def _evm(self) -> float:
        """RMS decision error over the RMS ideal-point magnitude."""
        eq = self.equalized_symbols
        err = eq - _QPSK_POINTS[nearest_symbol_indices(eq)]
        return float(np.sqrt(np.mean(np.abs(err) ** 2)
                             / np.mean(np.abs(_QPSK_POINTS) ** 2)))

    @property
    def evm_percent(self) -> float:
        return 100.0 * self._evm

    @property
    def snr_estimate_db(self) -> float:
        return math.inf if self._evm == 0.0 else -20.0 * math.log10(self._evm)


_SCRATCH = threading.local()   # this thread's reused frame arrays, by name


def scratch(name: str, n: int, dtype=complex) -> np.ndarray:
    """This thread's array `name`, of n elements of dtype: reused while the
    thread asks for that size and dtype, so a frame does not allocate or
    fault it in afresh; when either changes, the old array is freed before
    the new one is allocated.  The caller overwrites it before reading."""
    a = getattr(_SCRATCH, name, None)
    if a is None or a.size != n or a.dtype != dtype:
        a = vars(_SCRATCH)[name] = None   # free the old array before the new
        a = vars(_SCRATCH)[name] = np.empty(n, dtype=dtype)
    return a


def frame_sync(rx: BasebandSignal, search_window=None) -> SyncResult:
    """Locate the frame start by cross-correlating against the sync replica:
    the sync chips on ideal-QPSK P1/P3 (180 degrees apart), held for
    `rx.samples_per_symbol` samples each.  The replica, its norm and its
    spectrum at each FFT length are built once per samples per symbol.

    search_window is a (start, stop) range of candidate frame-start indices;
    default is every feasible start.  The correlation runs in overlap-save
    FFT blocks of at most next_pow2(SYNC_BLOCK_REPLICAS * L) points, L the
    replica's length, so its temporaries stay bounded however wide the
    window (see _correlation_blocks).  Raises SyncNotFoundError when no peak
    reaches the detection threshold, and on a silent or non-finite segment.
    """
    samples = np.asarray(rx.samples)
    sps = rx.samples_per_symbol
    rep, rep_norm = _sync_replica(sps)
    L = rep.size
    max_start = samples.size - L
    if max_start < 0:
        raise SyncNotFoundError("signal shorter than sync replica")
    w0, w1 = search_window if search_window is not None else (0, max_start + 1)
    w0 = max(0, int(w0))
    w1 = min(max_start + 1, int(w1))
    if w1 <= w0:
        raise SyncNotFoundError("empty search window")
    seg = samples[w0 : w1 - 1 + L]
    # the first largest |correlation| of each block, then the first largest
    # of those: np.argmax's pick (the first maximum, or the first NaN) over
    # the whole window
    starts, peaks = [], []
    for lag, corr in _correlation_blocks(seg, sps, w1 - w0):
        i = int(np.argmax(corr))
        starts.append(lag + i)
        peaks.append(corr[i])
    b = int(np.argmax(peaks))
    k, peak = starts[b], float(peaks[b])
    p_hat = float(np.mean(np.abs(seg) ** 2))
    threshold = SYNC_THRESHOLD * math.sqrt(L * p_hat) * rep_norm
    # silence has a zero peak and a zero threshold, and NaN compares false
    if not (peak > 0.0 and peak >= threshold):
        raise SyncNotFoundError(
            f"correlation peak {peak:.3g} below threshold {threshold:.3g}")
    # a segment whose power underflows has a zero threshold
    return SyncResult(w0 + k, peak, peak / threshold if threshold else math.inf)


@functools.lru_cache(maxsize=8)
def _sync_replica(sps: int) -> tuple:
    """The sync replica at sps samples per symbol, and its norm.  Built once
    per sps and shared, so the replica is read-only."""
    rep = np.repeat(np.where(build_sync_sequence() > 0, _QPSK_POINTS[0],
                             _QPSK_POINTS[2]), sps)
    rep.flags.writeable = False
    return rep, float(np.linalg.norm(rep))


@functools.lru_cache(maxsize=16)
def _sync_reference(sps: int, nfft: int) -> np.ndarray:
    """conj(FFT_nfft(replica)), the spectrum every correlation block is
    multiplied by.  Built once per (sps, nfft) and shared, so read-only."""
    ref = np.conj(np.fft.fft(_sync_replica(sps)[0], nfft))
    ref.flags.writeable = False
    return ref


def _correlation_blocks(seg, sps: int, n_lags):
    """|linear cross-correlation| of seg against rep, the sync replica at
    sps samples per symbol, at lags 0..n_lags-1 (seg holds n_lags +
    len(rep) - 1 samples), as (first lag, magnitudes) blocks in lag order.

    Overlap-save (Oppenheim & Schafer, Discrete-Time Signal Processing,
    3rd ed., 8.7.3): a block is the circular correlation of nfft samples
    from its first lag on, whose first nfft - len(rep) + 1 lags never wrap,
    so they are the linear ones.  nfft is next_pow2(SYNC_BLOCK_REPLICAS *
    len(rep)), or next_pow2(len(seg)) when that is smaller: then the
    segment fits one block, and the single FFT is the whole correlation.
    """
    L = _sync_replica(sps)[0].size
    nfft = 1 << (min(SYNC_BLOCK_REPLICAS * L, seg.size) - 1).bit_length()
    step = nfft - L + 1
    ref = _sync_reference(sps, nfft)
    for lag in range(0, n_lags, step):
        spec = np.fft.fft(seg[lag : lag + nfft], nfft)
        spec *= ref
        corr = np.fft.ifft(spec, out=spec)[: min(step, n_lags - lag)]
        yield lag, np.abs(corr)


def estimate_cfo_cp(samples, sps: int = 1) -> float:
    """CP-based ML carrier-offset estimate, in cycles per 2048-symbol block.

    Correlates every cyclic prefix with the matching subframe tail and takes
    the angle of the accumulated product.  Sums over all complete subframes
    present in the (frame-aligned) input, so longer observations tighten the
    estimate.  Valid for |eps| < 0.5.
    """
    r = np.asarray(samples)
    lay = FrameLayout
    N = lay.fft_len * sps
    cp = lay.cp_len * sps
    if lay.sync_len * sps + cp + N > r.size:
        raise ValueError("input too short: no complete subframe")
    # the CP starts increase through the subframes of one frame and on into
    # the next, so the first incomplete subframe ends the sum
    starts = ((f * lay.frame_len + lay.sync_len + j * lay.subframe_len) * sps
              for f in itertools.count() for j in range(lay.n_subframes))
    acc = 0.0 + 0.0j
    for cp0 in starts:
        cp1 = cp0 + cp
        if cp1 + N > r.size:
            break
        acc += np.vdot(r[cp0:cp1], r[cp0 + N : cp1 + N])
    # acc = sum conj(r[n]) r[n+N] carries phase +2 pi eps
    return float(np.angle(acc) / (2.0 * np.pi))


def correct_cfo(samples, eps: float, sps: int = 1) -> np.ndarray:
    """Remove the estimated carrier-offset phase ramp."""
    r = np.asarray(samples)
    n = np.arange(r.size)
    ramp = np.exp(-2j * np.pi * eps * n / (CFO_BLOCK * sps))
    # ramp first at every length: `r * ramp` swaps its operands when numpy
    # reuses the ramp's buffer, and swapped complex products can round
    # differently, so a prefix would not match a shorter call
    return np.multiply(ramp, r, out=ramp)


def integrate_and_dump(samples, sps: int) -> np.ndarray:
    """Average each sps-sample symbol span down to one symbol."""
    r = np.asarray(samples)
    if r.size % sps:
        raise ValueError("sample count not divisible by sps")
    return r.reshape(-1, sps).mean(axis=1)


@functools.lru_cache(maxsize=8)
def _ramp_index(sps: int, n_symbols: int) -> np.ndarray:
    """sps * arange(n_symbols), the first sample of each symbol, as exact
    float64 integers.  Built once per (sps, length) and shared, so
    read-only."""
    n = sps * np.arange(n_symbols, dtype=float)
    n.flags.writeable = False
    return n


def derotate_and_dump(samples, eps: float, sps: int = 1,
                      out: np.ndarray | None = None) -> np.ndarray:
    """integrate_and_dump(correct_cfo(samples, eps, sps), sps), with the ramp
    folded into the dump so that it is evaluated at the symbol rate:

        sym[k] = e^{j w sps k} (1/sps) sum_m r[sps k + m] e^{j w m},
        w = -2 pi eps / (CFO_BLOCK sps).

    That is len/sps + sps exponentials instead of len, and no corrected copy
    at the sample rate.  The symbol-rate ramp is cos + j sin (cfo_phasors),
    bit for bit the exponential it replaces at every symbol but the first,
    a sync chip, whose factor 1 may differ in the sign of its zero
    imaginary part.  The symbols are written into `out` when it is given (a
    contiguous complex array of len/sps), else into a fresh array.  At sps 1
    the ramp is built in the symbols' array and multiplied by the samples
    there; at sps > 1 it is built RAMP_BLOCK symbols at a time into one
    temporary and multiplied into the dumped symbols block by block.
    """
    r = np.asarray(samples)
    if r.size % sps:
        raise ValueError("sample count not divisible by sps")
    n = _ramp_index(sps, r.size // sps)
    out = check_out(out, n.shape, complex)
    c = -2j * np.pi * eps
    # operands in the order of `ramp * r` and `(r @ dump) * ramp`: swapped
    # complex products can round differently (see correct_cfo)
    if sps == 1:
        cfo_phasors(c, n, sps, out=out)
        return np.multiply(out, r, out=out)
    dump = np.exp(c * np.arange(sps) / (CFO_BLOCK * sps)) / sps
    np.matmul(r.reshape(-1, sps), dump, out=out)
    ramp = np.empty(min(RAMP_BLOCK, n.size), dtype=complex)
    for a in range(0, n.size, RAMP_BLOCK):
        block = out[a:a + RAMP_BLOCK]
        cfo_phasors(c, n[a:a + RAMP_BLOCK], sps, out=ramp[:block.size])
        np.multiply(block, ramp[:block.size], out=block)
    return out


def ls_channel_estimate(y_pilot_freq, x_pilot_freq) -> np.ndarray:
    """Per-bin least squares: h[k] = Y[k] / X[k]."""
    y = np.asarray(y_pilot_freq, dtype=complex)
    x = np.asarray(x_pilot_freq, dtype=complex)
    if y.shape != x.shape:
        raise ValueError("pilot spectra length mismatch")
    if np.any(np.abs(x) < 1e-12):
        raise DegeneratePilotError("pilot spectrum has a zero bin")
    return y / x


def ls_channel_estimate_taps(y_pilot_freq, n_taps: int) -> np.ndarray:
    """Least squares constrained to a short impulse response, fitted to the
    received spectrum of the frame's fixed pilot.

    Solves min_h ||Y - diag(X) F h||^2 over length-n_taps h, X the pilot's
    spectrum, via the normal equations (pilot autocorrelation Toeplitz
    system), then returns the full frequency response FFT(h).  Cuts
    estimation noise by ~N/n_taps versus the per-bin divide, at the cost of
    assuming delay spread <= n_taps symbols.
    """
    y = np.asarray(y_pilot_freq, dtype=complex)
    x = _pilot_spectrum()
    if y.shape != x.shape:
        raise ValueError("pilot spectra length mismatch")
    n = x.size
    if not 1 <= n_taps <= n:
        raise ValueError("n_taps out of range")
    b = np.fft.ifft(np.conj(x) * y)[:n_taps]
    taps = np.linalg.solve(_pilot_gram(n_taps), b)
    return np.fft.fft(taps, n)


@functools.lru_cache(maxsize=8)
def _pilot_gram(n_taps: int) -> np.ndarray:
    """The n_taps x n_taps Toeplitz matrix of the pilot spectrum's circular
    autocorrelation.  Built once per n_taps and shared, so read-only."""
    x = _pilot_spectrum()
    ac = np.fft.ifft(np.abs(x) ** 2)
    lags = np.arange(n_taps)
    gram = ac[(lags[:, None] - lags[None, :]) % x.size]
    gram.flags.writeable = False
    return gram


def zf_equalize(y_block, h) -> np.ndarray:
    """Zero-forcing SC-FDE: IFFT( FFT(y)/h ) along the last axis, so a stack
    of blocks is equalized with one estimate.  CP must already be removed.
    Both the division and the inverse transform run in place in the array
    the forward transform returns."""
    h = np.asarray(h, dtype=complex)
    if np.any(np.abs(h) < 1e-12):
        raise SingularChannelError("channel estimate has a zero bin")
    y = np.asarray(y_block, dtype=complex)
    if y.shape[-1:] != h.shape:
        raise ValueError("block/estimate length mismatch")
    out = np.fft.fft(y)
    out /= h
    return np.fft.ifft(out, out=out)


def nearest_symbol_indices(symbols, out: np.ndarray | None = None
                           ) -> np.ndarray:
    """Minimum-distance ideal-QPSK decisions; ties go to the lower point
    index.

    The decision is the quadrant, read from the sign bits of re and im,
    SLICER_BLOCK symbols at a time; symbols within AXIS_TOLERANCE of an axis
    (and any non-finite ones) take the distance argmin, so the result is
    always the argmin's, ties included.  The decisions are written into
    `out` when it is given (a contiguous intp array of the symbols' shape),
    else into a fresh array.
    """
    s = np.asarray(symbols)
    out = check_out(out, s.shape, np.intp)
    flat, dec = s.reshape(-1), out.reshape(-1)
    for i in range(0, flat.size, SLICER_BLOCK):
        _slice_quadrants(flat[i:i + SLICER_BLOCK], dec[i:i + SLICER_BLOCK])
    return out


def _slice_quadrants(s, out) -> None:
    s = np.ascontiguousarray(s, dtype=complex)
    v = s.view(np.float64)            # re, im interleaved
    # the sign bits of each (re, im) pair, read as one uint16 code; -0.0 and
    # a negative NaN set a sign bit without being below zero, but -0.0 lies
    # on an axis and a NaN fails the bound, so both are decided again below
    codes = np.signbit(v).view(np.uint16)
    _SIGN_QUADRANT.take(codes, out=out, mode="clip")
    a = np.abs(v)
    # the screen in Python floats: a product overflows to inf, where a power
    # would raise, and a NaN fails the comparison
    top = 1.0 + float(np.maximum.reduce(a))
    if float(np.minimum.reduce(a)) > AXIS_TOLERANCE * (top * top):
        return
    with np.errstate(over="ignore", invalid="ignore"):
        re, im = a[0::2], a[1::2]
        scale = 1.0 + np.maximum(re, im)
        near = ~(np.minimum(re, im) > AXIS_TOLERANCE * scale * scale)
        out[near] = _argmin_distance(s[near], _QPSK_POINTS)


def _argmin_distance(symbols, pts) -> np.ndarray:
    d = np.abs(symbols[:, None] - pts[None, :])
    return np.argmin(d, axis=1)


@functools.cache
def _pilot_spectrum() -> np.ndarray:
    """FFT of the pilot on the ideal QPSK points.  Built once and shared,
    so read-only."""
    x = np.fft.fft(_QPSK_POINTS[build_pilot_sequence()])
    x.flags.writeable = False
    return x


def phase_loop(eq_blocks) -> np.ndarray:
    """Decision-directed removal of the residual common phase left by
    CFO-estimate jitter (it grows with distance from the pilot subframe),
    in place in each equalized block of eq_blocks.  Each block takes
    PHASE_LOOP_PASSES passes, because one pass under-corrects a large
    rotation: slicer errors near the decision boundary pull the estimate
    short.  Returns the (blocks, PHASE_LOOP_PASSES) unit factors applied,
    in the order applied; a pass whose correlation with its decisions is
    zero applies nothing and records 1."""
    rotations = np.ones((len(eq_blocks), PHASE_LOOP_PASSES), dtype=complex)
    for eq, factors in zip(eq_blocks, rotations):
        for i in range(PHASE_LOOP_PASSES):
            rot = np.vdot(_QPSK_POINTS[nearest_symbol_indices(eq)], eq)
            mag = abs(rot)
            if mag > 0:
                factors[i] = np.conj(rot) / mag
                eq *= factors[i]
    return rotations


def receive_frame(rx: BasebandSignal, search_window=None, *, est_taps: int):
    """Full receiver: sync -> CFO -> dump -> CP removal -> LS -> ZF -> phase
    loop -> demod.

    Returns (payload_bits, RxDiagnostics), the diagnostics holding each
    estimate the frame made, so that replaying its frame start, CFO
    estimate, channel estimate and phase factors through derotate_and_dump,
    zf_equalize and the factors (in the order applied) rebuilds its
    equalized symbols bit for bit.  The channel is estimated once,
    from the frame's fixed pilot (build_pilot_sequence), and that estimate
    is reused for all nine data subframes; the pilot's spectrum and its
    Gram matrix are built once per process, as is the sync replica.
    est_taps, which every caller names, bounds the assumed channel delay
    spread for the LS fit, in symbols.  The symbol-rate work runs in two of
    the calling thread's scratch arrays (see scratch): `symbols`, the
    dumped frame (22 500 complex, 0.36 MB), and `decided`, the final slicer
    decisions (18 432 intp, 0.15 MB), the same at any sps.  So threads may
    receive at once, and the bits and the equalized symbols returned are
    always fresh arrays, never scratch.
    Raises SyncNotFoundError as frame_sync does, FramingError when the
    frame found runs past the end of the samples, and SingularChannelError
    when the channel estimate has a zero bin.
    """
    sps = rx.samples_per_symbol
    lay = FrameLayout
    sync = frame_sync(rx, search_window)
    start = sync.frame_start
    n_frame = lay.frame_len * sps
    if start + n_frame > rx.samples.size:
        raise FramingError(f"starts at sample {start} and runs past the end")
    frame = np.asarray(rx.samples)[start : start + n_frame]

    eps = estimate_cfo_cp(frame, sps)
    symbols = derotate_and_dump(frame, eps, sps,
                                out=scratch("symbols", lay.frame_len))

    # the ten subframe bodies without their CPs, pilot first
    bodies = symbols[lay.sync_len:].reshape(
        lay.n_subframes, lay.subframe_len)[:, lay.cp_len:]
    h = ls_channel_estimate_taps(np.fft.fft(bodies[0]), est_taps)
    # fresh, never a buffer: the equalized symbols are returned in the
    # diagnostics
    eq_blocks = zf_equalize(bodies[1:], h)
    rotations = phase_loop(eq_blocks)
    equalized = eq_blocks.reshape(-1)
    decided = nearest_symbol_indices(
        equalized, out=scratch("decided", equalized.size, np.intp))
    return demap_symbols(decided), RxDiagnostics(
        start, sync.margin, eps, h, equalized, rotations)
