"""Experiment engine: Monte-Carlo BER sweeps, architecture and activation
comparisons, file transport over the simulated link."""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig, apply_channel, noise_variance
from .circuit import (DEFAULT_TARGET_PHASES, GammaLUT, default_gamma_lut,
                      select_control_voltages)
from .errors import (FramingError, InterpolationError, PartialReceiveError,
                     SingularChannelError, SyncNotFoundError, check_count)
from .iqfile import StreamHeader, read_iq, write_iq
from .rxchain import receive_frame, scratch
from .surface import ArrayConfig, aggregate_reflection
from .txchain import (SYMBOL_RATE, BasebandSignal, Constellation,
                      FrameLayout, build_frame, ideal_qpsk)

SEED_POINT_STRIDE = 2 ** 20   # per-SNR-point seed offset
DEFAULT_TARGET_BER = 1e-4     # where compare reads the gap
_NOISE_SEED_OFFSET = 2 ** 40  # decorrelates payload and noise streams
# The LS span of a stream's channel estimate, in symbols.  A stream header
# carries no channel, so its receiver assumes a delay spread of at most 8
# symbols, where run_frame spans the configured channel; a longer channel
# is not detected (ROADMAP item 12).
STREAM_EST_TAPS = 8
# The largest samples per symbol a config may set.  Each symbol is one held
# reflection that integrate-and-dump averages back down, so sps only sets
# how finely a delay or a channel tap falls within a symbol; 64 steps is
# eight times the finest the link is run at, and its frame is already 1.44 M
# samples (23 MB).  An sps of 10**6 would ask run_frame for 360 GB.
MAX_SPS = 64


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "conventional"            # 'conventional' | 'metasurface'
    # the claim's grid: both modes' curves cross DEFAULT_TARGET_BER inside
    # it, and its first point is above the sps-8 sync cliff (~7 dB)
    snr_list: tuple = (10.0, 12.0, 14.0, 16.0, 18.0)
    frames_per_point: int = 100
    base_seed: int = 0
    sps: int | None = None                # None: 1 conventional, 8 metasurface
    constellation: Constellation | None = None
    array: ArrayConfig = ArrayConfig()
    cfo_normalized: float = 0.0
    timing_offset: int = 0
    complex_gain: complex = 1.0 + 0.0j
    fir_taps: tuple = (1.0 + 0.0j,)
    layout = FrameLayout                  # the fixed frame format; not a field

    def __post_init__(self):
        if not isinstance(self.array, ArrayConfig):
            raise TypeError(f"array must be an ArrayConfig, "
                            f"got {type(self.array).__name__}")
        if not isinstance(self.constellation, (Constellation, type(None))):
            raise TypeError(f"constellation must be a Constellation or None, "
                            f"got {type(self.constellation).__name__}")
        # above the stride, frame f of point p reuses the payload and noise
        # seeds of frame f - SEED_POINT_STRIDE of point p + 1
        check_count("frames_per_point", self.frames_per_point, 1,
                    SEED_POINT_STRIDE)
        check_count("base_seed", self.base_seed, 0)
        check_count("sps", self.resolved_sps(), 1, MAX_SPS)
        # the delay is leading silence the frame's receive buffer holds and
        # its sync search scans; past one frame it is mostly silence
        check_count("timing_offset", self.timing_offset, 0,
                    FrameLayout.frame_len * self.resolved_sps())
        if self.mode not in ("conventional", "metasurface"):
            raise ValueError(f"mode must be 'conventional' or 'metasurface', "
                             f"got {self.mode!r}")
        if len(self.snr_list) == 0:
            raise ValueError("snr_list must be non-empty")
        _channel(self, math.inf, 0)   # the channel fields' own checks
        # a bare channel may pass nothing; a link that does decodes nothing
        if self.complex_gain == 0:
            raise ValueError("complex_gain must be nonzero")
        if not any(self.fir_taps):
            raise ValueError("fir_taps must not all be zero")
        # each SNR must give the frames' channel a finite per-sample noise
        # variance, at the incident power the channel defaults to
        for snr in self.snr_list:
            try:
                noise_variance(snr, ChannelConfig.ref_power,
                               self.resolved_sps())
            except ValueError as exc:
                raise ValueError(f"snr_list value {snr!r}: {exc}") from None
        if self.resolved_est_taps() > FrameLayout.fft_len:
            sps = self.resolved_sps()
            raise ValueError(
                f"fir_taps must span at most {FrameLayout.fft_len} symbols "
                f"({(FrameLayout.fft_len - 1) * sps + 1} taps at sps {sps}), "
                f"got {len(self.fir_taps)} taps")

    def resolved_sps(self) -> int:
        if self.sps is not None:
            return self.sps
        return 8 if self.mode == "metasurface" else 1

    def resolved_est_taps(self) -> int:
        """LS estimator length: the simulated channel's symbol-spaced delay
        spread."""
        sps = self.resolved_sps()
        return max(1, -(-(len(self.fir_taps) - 1) // sps) + 1)

    def resolved_constellation(self) -> Constellation:
        """The configured constellation; else ideal QPSK (conventional) or
        the stock surface's (metasurface), each built once.  The stock
        table is looked up on every call, its points only once per table."""
        if self.constellation is not None:
            return self.constellation
        if self.mode == "conventional":
            return ideal_qpsk()
        return _stock_surface(default_gamma_lut())


@functools.lru_cache(maxsize=4)
def _stock_surface(lut: GammaLUT) -> Constellation:
    """surface_constellation at the default target phases, once per table
    (a GammaLUT hashes by identity)."""
    return surface_constellation(lut, DEFAULT_TARGET_PHASES)


def surface_constellation(lut: GammaLUT, target_phases) -> Constellation:
    """The surface driven at the LUT voltages nearest the four target phases.

    The points are the table's raw reflection values at those voltages:
    ohmic loss is charged against the fixed incident-power budget the SNR
    axis is referenced to."""
    _, gammas = select_control_voltages(lut, target_phases)
    return Constellation(gammas)


@dataclass(frozen=True)
class BerRecord:
    """Errors counted over one SNR point.  `sync_failures` counts the frames
    the receiver could not decode, each counted as fully errored: those
    whose sync never cleared the detection threshold (SyncNotFoundError)
    and those whose channel estimate has a zero bin (SingularChannelError),
    as a noiseless surface with no active cell gives."""

    snr_db: float
    bits_simulated: int
    bit_errors: int
    ber: float
    sync_failures: int = 0


def theoretical_qpsk_ber(ebn0_db: float) -> float:
    """Closed-form QPSK (Gray) bit error rate Q(sqrt(2 Eb/N0)): 0.5 at
    -inf dB, and 0 at +inf and wherever Eb/N0 overflows float64."""
    try:
        return 0.5 * math.erfc(math.sqrt(10.0 ** (ebn0_db / 10.0)))
    except OverflowError:
        return 0.0


def _frame_samples(payload, cfg: ExperimentConfig,
                   constellation: Constellation, out) -> BasebandSignal:
    """The samples of the frame carrying `payload`, written into `out`, or
    into a fresh array when `out` is None."""
    from .txchain import synthesize_baseband

    indices = build_frame(payload)
    points = constellation.points
    if cfg.mode == "metasurface":
        # the array response is elementwise, so applying it to the four
        # points gives the very samples it would give applied to each
        # sample; with no active cell the four values coincide
        points = aggregate_reflection(points, cfg.array)
    return synthesize_baseband(indices, points, cfg.resolved_sps(), out=out)


def transmit_frame(cfg: ExperimentConfig, seed, out=None) -> tuple:
    """One frame of random payload, drawn from `default_rng(seed)` (a seed or
    a Generator), as the transmitter emits it: returns (payload, signal).
    The samples are written into `out` when it is given (frame_len * sps
    complex samples), else into a fresh array; the payload is always a
    fresh array."""
    payload = np.random.default_rng(seed).integers(
        0, 2, FrameLayout.payload_bits)
    sig = _frame_samples(payload, cfg, cfg.resolved_constellation(), out)
    return payload, sig


def _channel(cfg: ExperimentConfig, snr_db: float, seed: int) -> ChannelConfig:
    return ChannelConfig(
        snr_db=snr_db,
        cfo_normalized=cfg.cfo_normalized,
        timing_offset=cfg.timing_offset,
        complex_gain=cfg.complex_gain,
        fir_taps=cfg.fir_taps,
        seed=int(seed) + _NOISE_SEED_OFFSET,
    )


def run_frame(cfg: ExperimentConfig, snr_db: float, seed: int):
    """One frame through the link; returns (payload, recovered|None, diag|None).

    recovered and diag are None when the receiver cannot decode the frame:
    its sync fails, or its channel estimate has a zero bin.  The frame runs
    in its thread's reused arrays, which the results never alias, so any
    threads may run frames, of one config or of several, at once.  The
    transmitter writes the frame straight into the thread's scratch array
    `rx` (rxchain.scratch) at the channel delay, and the channel runs in
    place there, drawing and adding the frame's noise on the calling
    thread after its stages."""
    d = cfg.timing_offset
    sps = cfg.resolved_sps()
    n_tx = FrameLayout.frame_len * sps
    buf = scratch("rx", n_tx + d + len(cfg.fir_taps) - 1)
    ch = _channel(cfg, snr_db, seed)
    payload, sig = transmit_frame(cfg, seed, buf[d:d + n_tx])
    rx = apply_channel(sig, ch, out=buf)
    window = (0, d + sig.samples_per_symbol * (len(cfg.fir_taps) + 2))
    try:
        bits, diag = receive_frame(rx, search_window=window,
                                   est_taps=cfg.resolved_est_taps())
    except (SyncNotFoundError, SingularChannelError):
        return payload, None, None
    return payload, bits, diag


def measure_link_snr(cfg: ExperimentConfig, snr_db: float, seed: int) -> float:
    """Received SNR in dB: signal power over noise power at the receiver
    input, measured on one frame by differencing paired noisy/noiseless
    channel passes (identical channel, identical seed).  The noise is
    charged against a unit-power transmitter, so a frame that arrives with
    less power (reflection loss, inactive cells) reads below snr_db.  It is
    -inf when no signal arrives (every cell off, a zero static reflection),
    whatever the noise, and else inf when no noise is left in the samples:
    at snr_db = inf, and where the noise is below the samples' rounding."""
    _, sig = transmit_frame(cfg, seed)
    noisy = apply_channel(sig, _channel(cfg, snr_db, seed))
    clean = apply_channel(sig, _channel(cfg, math.inf, seed))
    noise = noisy.samples - clean.samples
    p_sig = float(np.mean(np.abs(clean.samples) ** 2))
    p_noise = float(np.mean(np.abs(noise) ** 2))
    if p_sig == 0.0:
        return -math.inf
    if p_noise == 0.0:
        return math.inf
    return 10.0 * math.log10(p_sig / p_noise)


def run_ber_sweep(cfg: ExperimentConfig) -> list[BerRecord]:
    """Monte-Carlo BER per SNR point; deterministic for a fixed base_seed.

    Frames the receiver cannot decode (see BerRecord) are counted as fully
    errored and flagged in the record."""
    records = []
    for p, snr in enumerate(cfg.snr_list):
        errors = 0
        failures = 0
        for f in range(cfg.frames_per_point):
            seed = int(cfg.base_seed) + p * SEED_POINT_STRIDE + f
            payload, bits, diag = run_frame(cfg, snr, seed)
            if bits is None:
                errors += payload.size
                failures += 1
            else:
                errors += int(np.count_nonzero(bits != payload))
            del payload, bits, diag   # before the next frame's are made
        n_bits = cfg.frames_per_point * FrameLayout.payload_bits
        records.append(BerRecord(snr_db=float(snr), bits_simulated=n_bits,
                                 bit_errors=errors, ber=errors / n_bits,
                                 sync_failures=failures))
    return records


def snr_at_ber(records: list[BerRecord], target_ber: float) -> float:
    """SNR (dB) where the measured curve crosses target_ber, by log-linear
    interpolation.  Zero-error points are floored at 1/(2*bits) for the log."""
    pts = sorted(records, key=lambda r: r.snr_db)
    ber = [max(r.ber, 0.5 / r.bits_simulated) for r in pts]
    for i in range(len(pts) - 1):
        hi, lo = ber[i], ber[i + 1]
        if hi >= target_ber >= lo:
            if hi == lo:
                return pts[i].snr_db
            t = (math.log10(target_ber) - math.log10(hi)) / (
                math.log10(lo) - math.log10(hi))
            return pts[i].snr_db + t * (pts[i + 1].snr_db - pts[i].snr_db)
    raise InterpolationError(
        f"target BER {target_ber:g} not bracketed by measured curve")


def check_target_ber(target_ber: float) -> None:
    """Reject a target BER outside (0, 0.5), which no BER curve crosses."""
    if not 0.0 < target_ber < 0.5:
        raise ValueError(f"target_ber must be in (0, 0.5), got {target_ber!r}")


def snr_gap(curves, target_ber: float) -> tuple[float, float, float]:
    """The SNR (dB) the second of two `(name, records)` curves needs over
    the first at target_ber, and the two crossings: (gap, first, second).
    One InterpolationError names every curve that misses the target."""
    crossings, missed = [], []
    for name, records in curves:
        try:
            crossings.append(snr_at_ber(records, target_ber))
        except InterpolationError:
            missed.append(name)
    if missed:
        raise InterpolationError(
            f"target BER {target_ber:g} not bracketed by the measured "
            f"{' and '.join(missed)} {'curves' if missed[1:] else 'curve'}")
    first, second = crossings
    return second - first, first, second


def compare_architectures(cfg_a: ExperimentConfig, cfg_b: ExperimentConfig,
                          target_ber: float = DEFAULT_TARGET_BER):
    """Run both sweeps and report cfg_b's extra SNR (dB) at the target BER.
    The target and the grids are checked before any frame runs; a curve
    that misses the target is named by its mode."""
    check_target_ber(target_ber)
    if tuple(cfg_a.snr_list) != tuple(cfg_b.snr_list):
        raise ValueError("configs must share the SNR grid")
    rec_a = run_ber_sweep(cfg_a)
    rec_b = run_ber_sweep(cfg_b)
    gap, _, _ = snr_gap(((cfg_a.mode, rec_a), (cfg_b.mode, rec_b)),
                        target_ber)
    return rec_a, rec_b, gap


def write_ber_csv(records: list[BerRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write("snr_db,bits,errors,ber\n")
        for r in records:
            fh.write(f"{r.snr_db!r},{r.bits_simulated},{r.bit_errors},{r.ber!r}\n")
            if r.sync_failures:
                fh.write(f"# sync_failures={r.sync_failures} at snr_db={r.snr_db!r}\n")


def transmit_file(path, cfg: ExperimentConfig, iq_path, header_path=None
                  ) -> StreamHeader:
    """Frame a file's bits (zero-padded tail) and write the IQ stream.

    The file is read and unpacked one frame of bytes at a time into one
    reused payload row, and each frame is synthesized straight into its
    slice of one stream array, so the call holds the stream (16 B per
    sample) and one frame's working arrays."""
    per_frame = FrameLayout.payload_bits
    sps = cfg.resolved_sps()
    constellation = cfg.resolved_constellation()
    n_tx = FrameLayout.frame_len * sps
    with open(path, "rb") as fh:
        n_bytes = os.fstat(fh.fileno()).st_size
        n_frames = -(-8 * n_bytes // per_frame)
        samples = np.empty(n_frames * n_tx, dtype=complex)
        data = np.empty(per_frame // 8, dtype=np.uint8)
        payload = np.empty(per_frame, dtype=np.uint8)
        for i in range(n_frames):
            k = min(data.size, n_bytes - i * data.size)
            if fh.readinto(data[:k]) != k:
                raise ValueError(f"{path}: changed size while being read")
            payload[:8 * k] = np.unpackbits(data[:k])
            payload[8 * k:] = 0
            _frame_samples(payload, cfg, constellation,
                           samples[i * n_tx:(i + 1) * n_tx])
    write_iq(iq_path, samples)
    header = StreamHeader(SYMBOL_RATE * sps, sps, n_frames,
                          n_frames * per_frame - 8 * n_bytes)
    if header_path is not None:
        header.write(header_path)
    return header


def receive_stream(samples, header: StreamHeader) -> np.ndarray:
    """Recover the payload bytes of a multi-frame stream, as one uint8 array
    without the header's pad bits.  The header alone gives the sample rate
    and the samples per symbol.

    Frame 0 is searched over the first frame length of start positions
    (fewer when the stream is shorter than two frames), which frame_sync
    correlates in FFT blocks of bounded size.  Later frames are expected at
    a fixed stride from the start it finds (the channel model has no clock
    drift), each searched over a small window that absorbs
    correlation-peak jitter.  Every frame is decoded by receive_frame in the
    thread's scratch arrays, as run_frame's are; each frame's bits are
    packed into its 4 608 bytes of the array returned as the frame is
    decoded, and its bits and diagnostics are dropped before the next frame
    is decoded.  A frame that fails sync (as an all-zero stream does), that
    runs past the end of the stream, or whose channel estimate has a zero
    bin raises PartialReceiveError naming it."""
    sps = header.samples_per_symbol
    sig = BasebandSignal(samples, header.sample_rate_hz, sps)
    stride = FrameLayout.frame_len * sps
    per_frame = FrameLayout.payload_bits // 8
    out = np.empty(header.frames * per_frame, dtype=np.uint8)
    window = (0, min(stride, max(1, samples.size - stride + 1)))
    for i in range(header.frames):
        try:
            bits, diag = receive_frame(sig, search_window=window,
                                       est_taps=STREAM_EST_TAPS)
        except (SyncNotFoundError, FramingError, SingularChannelError) as exc:
            raise PartialReceiveError(i, str(exc)) from exc
        if i == 0:
            start = diag.frame_start
        out[i * per_frame:(i + 1) * per_frame] = np.packbits(bits)
        del bits, diag   # before the next frame's are made
        expect = start + (i + 1) * stride
        window = (max(0, expect - 2 * sps), expect + 2 * sps + 1)
    return out[:out.size - header.pad_bits // 8]


def receive_file(iq_path, header, out_path) -> int:
    """Demodulate an IQ stream back into the original file; returns the byte
    count written.  `header` is a StreamHeader or a path to one."""
    if not isinstance(header, StreamHeader):
        header = StreamHeader.read(header)
    samples = read_iq(iq_path)
    expected = (header.frames * FrameLayout.frame_len
                * header.samples_per_symbol)
    if samples.size < expected:
        raise ValueError(f"{iq_path}: stream has {samples.size} samples, "
                         f"header implies >= {expected}")
    payload = receive_stream(samples, header)
    with open(out_path, "wb") as fh:
        fh.write(payload)
    return payload.size
