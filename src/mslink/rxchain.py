"""Receive chain: frame sync, CP-based CFO estimation, LS/ZF SC-FDE, demod.

The receiver is conventional and mode-agnostic: it correlates against an
ideal-QPSK sync replica, estimates the channel from the known pilot mapped
onto ideal QPSK points, and slices against ideal QPSK decision regions.  Any
per-point distortion of a hardware constellation therefore survives
equalization and shows up as EVM/BER degradation, which is exactly the
impairment under study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import CFO_BLOCK
from .errors import (DegeneratePilotError, SingularChannelError,
                     SyncNotFoundError)
from .txchain import (DEFAULT_PILOT_SEED, BasebandSignal, Constellation,
                      FrameLayout, build_pilot_sequence, build_sync_sequence,
                      demap_symbols, ideal_qpsk)

SYNC_THRESHOLD = 0.5  # fraction of the power-normalized ideal peak
# Quadrant slicer: a symbol this close to an axis, relative to
# (1 + max(|re|, |im|))^2, is decided by the distance argmin, because there
# the rounded distances to the two neighbouring points may tie or swap.
AXIS_TOLERANCE = 1e-9

_QPSK_POINTS = ideal_qpsk().points
# ideal-QPSK index by quadrant code 2*(re < 0) + (im < 0)
_QUADRANT_INDEX = np.array([0, 3, 1, 2], dtype=np.intp)


@dataclass(frozen=True)
class SyncResult:
    frame_start: int
    peak_metric: float
    threshold_passed: bool


@dataclass(frozen=True)
class RxDiagnostics:
    cfo_estimate: float
    evm_percent: float
    snr_estimate_db: float
    equalized_symbols: np.ndarray = field(repr=False)


def sync_replica(sync_chips, sps: int = 1) -> np.ndarray:
    """Modulated sync waveform: chips ride on ideal-QPSK P1/P3 (180 degrees
    apart)."""
    sym = np.where(np.asarray(sync_chips) > 0, _QPSK_POINTS[0], _QPSK_POINTS[2])
    return np.repeat(sym, sps)


def frame_sync(rx: BasebandSignal, sync_ref, search_window=None) -> SyncResult:
    """Locate the frame start by cross-correlating against the sync replica.

    search_window is a (start, stop) range of candidate frame-start indices;
    default is every feasible start.  Raises SyncNotFoundError when no peak
    reaches the detection threshold.
    """
    samples = np.asarray(rx.samples)
    rep = sync_replica(sync_ref, sps=rx.samples_per_symbol)
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
    # circular cross-correlation over a power-of-two length >= the segment:
    # the first w1 - w0 lags never wrap, so they are the linear ones
    nfft = 1 << (seg.size - 1).bit_length()
    spec = np.fft.fft(seg, nfft) * np.conj(np.fft.fft(rep, nfft))
    corr = np.abs(np.fft.ifft(spec)[: w1 - w0])
    k = int(np.argmax(corr))
    peak = float(corr[k])
    p_hat = float(np.mean(np.abs(seg) ** 2))
    ideal_peak = math.sqrt(L * p_hat) * float(np.linalg.norm(rep))
    passed = peak >= SYNC_THRESHOLD * ideal_peak
    if not passed:
        raise SyncNotFoundError(
            f"correlation peak {peak:.3g} below threshold "
            f"{SYNC_THRESHOLD * ideal_peak:.3g}"
        )
    return SyncResult(frame_start=w0 + k, peak_metric=peak,
                      threshold_passed=passed)


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
    acc = 0.0 + 0.0j
    frame = 0
    found = False
    while True:
        base = frame * lay.frame_len * sps
        any_this_frame = False
        for j in range(lay.n_subframes):
            cp0 = base + (lay.sync_len + j * lay.subframe_len) * sps
            cp1 = cp0 + lay.cp_len * sps
            if cp1 + N > r.size:
                continue
            acc += np.vdot(r[cp0:cp1], r[cp0 + N : cp1 + N])
            any_this_frame = found = True
        if not any_this_frame:
            break
        frame += 1
    if not found:
        raise ValueError("input too short: no complete subframe")
    # acc = sum conj(r[n]) r[n+N] carries phase +2 pi eps
    return float(np.angle(acc) / (2.0 * np.pi))


def correct_cfo(samples, eps: float, sps: int = 1) -> np.ndarray:
    """Remove the estimated carrier-offset phase ramp."""
    r = np.asarray(samples)
    n = np.arange(r.size)
    return r * np.exp(-2j * np.pi * eps * n / (CFO_BLOCK * sps))


def integrate_and_dump(samples, sps: int) -> np.ndarray:
    """Average each sps-sample symbol span down to one symbol."""
    r = np.asarray(samples)
    if r.size % sps:
        raise ValueError("sample count not divisible by sps")
    return r.reshape(-1, sps).mean(axis=1)


def derotate_and_dump(samples, eps: float, sps: int = 1) -> np.ndarray:
    """integrate_and_dump(correct_cfo(samples, eps, sps), sps), with the ramp
    folded into the dump so that it is evaluated at the symbol rate:

        sym[k] = e^{j w sps k} (1/sps) sum_m r[sps k + m] e^{j w m},
        w = -2 pi eps / (CFO_BLOCK sps).

    That is len/sps + sps exponentials instead of len, and no corrected copy
    at the sample rate.
    """
    r = np.asarray(samples)
    if r.size % sps:
        raise ValueError("sample count not divisible by sps")
    n = sps * np.arange(r.size // sps)
    ramp = np.exp(-2j * np.pi * eps * n / (CFO_BLOCK * sps))
    if sps == 1:
        return ramp * r
    m = np.arange(sps)
    dump = np.exp(-2j * np.pi * eps * m / (CFO_BLOCK * sps)) / sps
    return (r.reshape(-1, sps) @ dump) * ramp


def ls_channel_estimate(y_pilot_freq, x_pilot_freq) -> np.ndarray:
    """Per-bin least squares: h[k] = Y[k] / X[k]."""
    y = np.asarray(y_pilot_freq, dtype=complex)
    x = np.asarray(x_pilot_freq, dtype=complex)
    if y.shape != x.shape:
        raise ValueError("pilot spectra length mismatch")
    if np.any(np.abs(x) < 1e-12):
        raise DegeneratePilotError("pilot spectrum has a zero bin")
    return y / x


def ls_channel_estimate_taps(y_pilot_freq, x_pilot_freq,
                             n_taps: int = 8) -> np.ndarray:
    """Least squares constrained to a short impulse response.

    Solves min_h ||Y - diag(X) F h||^2 over length-n_taps h via the normal
    equations (pilot autocorrelation Toeplitz system), then returns the full
    frequency response FFT(h).  Cuts estimation noise by ~N/n_taps versus the
    per-bin divide, at the cost of assuming delay spread <= n_taps symbols.
    """
    y = np.asarray(y_pilot_freq, dtype=complex)
    x = np.asarray(x_pilot_freq, dtype=complex)
    if y.shape != x.shape:
        raise ValueError("pilot spectra length mismatch")
    n = x.size
    if not 1 <= n_taps <= n:
        raise ValueError("n_taps out of range")
    b = np.fft.ifft(np.conj(x) * y)[:n_taps]
    ac = np.fft.ifft(np.abs(x) ** 2)
    lags = np.arange(n_taps)
    gram = ac[(lags[:, None] - lags[None, :]) % n]
    taps = np.linalg.solve(gram, b)
    return np.fft.fft(taps, n)


def zf_equalize(y_block, h) -> np.ndarray:
    """Zero-forcing SC-FDE: IFFT( FFT(y)/h ) along the last axis, so a stack
    of blocks is equalized with one estimate.  CP must already be removed."""
    h = np.asarray(h, dtype=complex)
    if np.any(np.abs(h) < 1e-12):
        raise SingularChannelError("channel estimate has a zero bin")
    y = np.asarray(y_block, dtype=complex)
    if y.shape[-1:] != h.shape:
        raise ValueError("block/estimate length mismatch")
    return np.fft.ifft(np.fft.fft(y) / h)


def nearest_symbol_indices(symbols, constellation: Constellation | None = None
                           ) -> np.ndarray:
    """Minimum-distance decisions; ties go to the lower point index.

    For the ideal QPSK points the decision is the quadrant, read from the
    signs of re and im; symbols within AXIS_TOLERANCE of an axis (and any
    non-finite ones) take the distance argmin, so the result is always the
    argmin's, ties included.
    """
    s = np.asarray(symbols)
    pts = _QPSK_POINTS if constellation is None else constellation.points
    if not np.array_equal(pts, _QPSK_POINTS):
        return _argmin_distance(s, pts)
    re, im = s.real, s.imag
    idx = _QUADRANT_INDEX[2 * (re < 0) + (im < 0)]
    a, b = np.abs(re), np.abs(im)
    scale = 1.0 + np.maximum(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        near = ~(np.minimum(a, b) > AXIS_TOLERANCE * scale * scale)
    if near.any():
        idx[near] = _argmin_distance(s[near], pts)
    return idx


def _argmin_distance(symbols, pts) -> np.ndarray:
    d = np.abs(symbols[:, None] - pts[None, :])
    return np.argmin(d, axis=1)


def demodulate(symbols, constellation: Constellation | None = None
               ) -> np.ndarray:
    """Hard QPSK decisions -> recovered bits."""
    return demap_symbols(nearest_symbol_indices(symbols, constellation))


def measure_snr(equalized, reference_indices,
                constellation: Constellation | None = None) -> float:
    """10 log10( mean|ref|^2 / mean|equalized - ref|^2 ), +inf when exact."""
    eq = np.asarray(equalized)
    if eq.size == 0:
        raise ValueError("empty input")
    ref = (constellation or ideal_qpsk()).points[np.asarray(reference_indices)]
    if ref.shape != eq.shape:
        raise ValueError("length mismatch")
    err = float(np.mean(np.abs(eq - ref) ** 2))
    sig = float(np.mean(np.abs(ref) ** 2))
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(sig / err)


def receive_frame(rx: BasebandSignal, pilot_seed: int = DEFAULT_PILOT_SEED,
                  search_window=None, est_taps: int = 8):
    """Full receiver: sync -> CFO -> dump -> CP removal -> LS -> ZF -> demod.

    Returns (payload_bits, RxDiagnostics).  The single pilot estimate is
    reused for all nine data subframes.  est_taps bounds the assumed channel
    delay spread for the LS fit.
    """
    sps = rx.samples_per_symbol
    lay = FrameLayout
    sync = frame_sync(rx, build_sync_sequence(), search_window)
    n_frame = lay.frame_len * sps
    start = sync.frame_start
    if start + n_frame > rx.samples.size:
        raise ValueError("signal does not contain a complete frame")
    frame = np.asarray(rx.samples)[start : start + n_frame]

    eps = estimate_cfo_cp(frame, sps)
    symbols = derotate_and_dump(frame, eps, sps)

    ideal = ideal_qpsk()
    x_pilot = np.fft.fft(ideal.points[build_pilot_sequence(pilot_seed)])
    # the ten subframe bodies without their CPs, pilot first
    bodies = symbols[lay.sync_len:].reshape(
        lay.n_subframes, lay.subframe_len)[:, lay.cp_len:]
    h = ls_channel_estimate_taps(np.fft.fft(bodies[0]), x_pilot, est_taps)
    eq_blocks = zf_equalize(bodies[1:], h)
    for eq in eq_blocks:
        # decision-directed removal of the residual common phase left by
        # CFO-estimate jitter (grows with distance from the pilot subframe).
        # Iterated because a single pass under-corrects large rotations:
        # slicer errors near the decision boundary pull the estimate short.
        for _ in range(3):
            dec = nearest_symbol_indices(eq, ideal)
            rot = np.vdot(ideal.points[dec], eq)
            if abs(rot) > 0:
                eq *= np.conj(rot) / abs(rot)
    equalized = eq_blocks.ravel()

    decided = nearest_symbol_indices(equalized, ideal)
    bits = demap_symbols(decided)
    err = equalized - ideal.points[decided]
    evm = float(np.sqrt(np.mean(np.abs(err) ** 2) /
                        np.mean(np.abs(ideal.points) ** 2)))
    snr_est = math.inf if evm == 0.0 else -20.0 * math.log10(evm)
    diag = RxDiagnostics(cfo_estimate=eps, evm_percent=100.0 * evm,
                         snr_estimate_db=snr_est, equalized_symbols=equalized)
    return bits, diag


def dump_symbols_csv(symbols, path) -> None:
    """Equalized-symbol dump consumed by external constellation plotting."""
    with open(path, "w") as fh:
        fh.write("re,im\n")
        for s in np.asarray(symbols):
            fh.write(f"{s.real!r},{s.imag!r}\n")
