"""Experiment engine: Monte-Carlo BER sweeps, architecture and activation
comparisons, file transport over the simulated link."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelConfig, apply_channel
from .circuit import (DEFAULT_TARGET_PHASES, GammaLUT, default_gamma_lut,
                      select_control_voltages)
from .errors import (InterpolationError, PartialReceiveError,
                     SyncNotFoundError)
from .iqfile import StreamHeader, read_iq, write_iq
from .rxchain import receive_frame
from .surface import ArrayConfig, aggregate_reflection
from .txchain import (DEFAULT_PILOT_SEED, SYMBOL_RATE, BasebandSignal,
                      Constellation, FrameLayout, build_frame, ideal_qpsk,
                      metasurface_constellation)

SEED_POINT_STRIDE = 2 ** 20   # per-SNR-point seed offset
_NOISE_SEED_OFFSET = 2 ** 40  # decorrelates payload and noise streams


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "conventional"            # 'conventional' | 'metasurface'
    snr_list: tuple = (2.0, 4.0, 6.0, 8.0, 10.0)
    frames_per_point: int = 100
    base_seed: int = 0
    sps: int | None = None                # None: 1 conventional, 8 metasurface
    constellation: Constellation | None = None
    array: ArrayConfig = field(default_factory=ArrayConfig)
    cfo_normalized: float = 0.0
    timing_offset: int = 0
    complex_gain: complex = 1.0 + 0.0j
    fir_taps: tuple = (1.0 + 0.0j,)
    pilot_seed: int = DEFAULT_PILOT_SEED
    est_taps: int | None = None           # None: match the simulated channel
    layout = FrameLayout                  # the fixed frame format; not a field

    def __post_init__(self):
        if self.mode not in ("conventional", "metasurface"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if len(self.snr_list) == 0:
            raise ValueError("SNR list must be non-empty")
        if not 1 <= self.frames_per_point <= SEED_POINT_STRIDE:
            # above the stride, frame f of point p reuses the payload and
            # noise seeds of frame f - SEED_POINT_STRIDE of point p + 1
            raise ValueError(
                f"frames_per_point must be in 1..{SEED_POINT_STRIDE}")

    def resolved_sps(self) -> int:
        if self.sps is not None:
            return self.sps
        return 8 if self.mode == "metasurface" else 1

    def resolved_est_taps(self) -> int:
        """LS estimator length: the simulated channel's symbol-spaced delay
        spread unless explicitly overridden."""
        if self.est_taps is not None:
            return self.est_taps
        sps = self.resolved_sps()
        return max(1, -(-(len(self.fir_taps) - 1) // sps) + 1)

    def resolved_constellation(self) -> Constellation:
        if self.constellation is not None:
            return self.constellation
        if self.mode == "conventional":
            return ideal_qpsk()
        return surface_constellation(default_gamma_lut(), DEFAULT_TARGET_PHASES)


def surface_constellation(lut: GammaLUT, target_phases) -> Constellation:
    """The surface driven at the LUT voltages nearest the four target phases.

    The points are the raw reflection values: ohmic loss is charged against
    the fixed incident-power budget the SNR axis is referenced to."""
    volts, _ = select_control_voltages(lut, target_phases)
    return metasurface_constellation(lut, volts, normalize=False)


@dataclass(frozen=True)
class BerRecord:
    snr_db: float
    bits_simulated: int
    bit_errors: int
    ber: float
    sync_failures: int = 0


def theoretical_qpsk_ber(ebn0_db: float) -> float:
    """Closed-form QPSK (Gray) bit error rate Q(sqrt(2 Eb/N0))."""
    if ebn0_db == math.inf:
        return 0.0
    if ebn0_db == -math.inf:
        return 0.5
    return 0.5 * math.erfc(math.sqrt(10.0 ** (ebn0_db / 10.0)))


def _transmit_samples(frame, constellation, cfg: ExperimentConfig,
                      sps: int) -> BasebandSignal:
    from .txchain import synthesize_baseband

    sig = synthesize_baseband(frame, constellation, sps)
    if cfg.mode == "metasurface":
        sig = BasebandSignal(
            samples=aggregate_reflection(sig.samples, cfg.array),
            sample_rate=sig.sample_rate,
            samples_per_symbol=sps,
        )
    return sig


def transmit_frame(cfg: ExperimentConfig, seed) -> tuple:
    """One frame of random payload, drawn from `default_rng(seed)` (a seed or
    a Generator), as the transmitter emits it: returns (payload, signal)."""
    payload = np.random.default_rng(seed).integers(
        0, 2, FrameLayout.payload_bits)
    frame = build_frame(payload, cfg.pilot_seed)
    sig = _transmit_samples(frame, cfg.resolved_constellation(), cfg,
                            cfg.resolved_sps())
    return payload, sig


def _channel(cfg: ExperimentConfig, snr_db: float, seed: int) -> ChannelConfig:
    return ChannelConfig(
        snr_db=snr_db,
        cfo_normalized=cfg.cfo_normalized,
        timing_offset=cfg.timing_offset,
        complex_gain=cfg.complex_gain,
        fir_taps=cfg.fir_taps,
        seed=seed + _NOISE_SEED_OFFSET,
        ref_power=1.0,  # SNR referenced to unit incident power (a fixed
                        # transmit budget), so reflection loss costs SNR
    )


def run_frame(cfg: ExperimentConfig, snr_db: float, seed: int):
    """One frame through the link; returns (payload, recovered|None, diag|None)."""
    payload, sig = transmit_frame(cfg, seed)
    rx = apply_channel(sig, _channel(cfg, snr_db, seed))
    window = (0, cfg.timing_offset
              + sig.samples_per_symbol * (len(cfg.fir_taps) + 2))
    try:
        bits, diag = receive_frame(rx, cfg.pilot_seed, search_window=window,
                                   est_taps=cfg.resolved_est_taps())
    except SyncNotFoundError:
        return payload, None, None
    return payload, bits, diag


def measure_link_snr(cfg: ExperimentConfig, snr_db: float, seed: int) -> float:
    """Received SNR in dB: signal power over noise power at the receiver
    input, measured on one frame by differencing paired noisy/noiseless
    channel passes (identical channel, identical seed)."""
    _, sig = transmit_frame(cfg, seed)
    noisy = apply_channel(sig, _channel(cfg, snr_db, seed))
    clean = apply_channel(sig, _channel(cfg, math.inf, seed))
    noise = noisy.samples - clean.samples
    p_sig = float(np.mean(np.abs(clean.samples) ** 2))
    p_noise = float(np.mean(np.abs(noise) ** 2))
    return 10.0 * math.log10(p_sig / p_noise)


def run_ber_sweep(cfg: ExperimentConfig) -> list[BerRecord]:
    """Monte-Carlo BER per SNR point; deterministic for a fixed base_seed.

    Frames whose sync never clears the detection threshold are counted as
    fully errored and flagged in the record."""
    records = []
    for p, snr in enumerate(cfg.snr_list):
        errors = 0
        failures = 0
        for f in range(cfg.frames_per_point):
            seed = cfg.base_seed + p * SEED_POINT_STRIDE + f
            payload, bits, _ = run_frame(cfg, snr, seed)
            if bits is None:
                errors += payload.size
                failures += 1
            else:
                errors += int(np.count_nonzero(bits != payload))
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


def compare_architectures(cfg_a: ExperimentConfig, cfg_b: ExperimentConfig,
                          target_ber: float = 1e-4):
    """Run both sweeps and report cfg_b's extra SNR (dB) at the target BER."""
    if tuple(cfg_a.snr_list) != tuple(cfg_b.snr_list):
        raise ValueError("configs must share the SNR grid")
    rec_a = run_ber_sweep(cfg_a)
    rec_b = run_ber_sweep(cfg_b)
    gap = snr_at_ber(rec_b, target_ber) - snr_at_ber(rec_a, target_ber)
    return rec_a, rec_b, gap


def write_ber_csv(records: list[BerRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write("snr_db,bits,errors,ber\n")
        for r in records:
            fh.write(f"{r.snr_db!r},{r.bits_simulated},{r.bit_errors},{r.ber!r}\n")
            if r.sync_failures:
                fh.write(f"# sync_failures={r.sync_failures} at snr_db={r.snr_db!r}\n")


def bits_from_file(path) -> np.ndarray:
    """File bytes -> bit array, most significant bit first."""
    data = np.fromfile(path, dtype=np.uint8)
    return np.unpackbits(data)


def bits_to_bytes(bits) -> bytes:
    b = np.asarray(bits, dtype=np.uint8)
    if b.size % 8:
        raise ValueError("bit count not a multiple of 8")
    return np.packbits(b).tobytes()


def transmit_file(path, cfg: ExperimentConfig, iq_path, header_path=None
                  ) -> StreamHeader:
    """Frame a file's bits (zero-padded tail) and write the IQ stream."""
    bits = bits_from_file(path)
    per_frame = FrameLayout.payload_bits
    n_frames = max(1, -(-bits.size // per_frame)) if bits.size else 0
    pad = n_frames * per_frame - bits.size
    bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    sps = cfg.resolved_sps()
    constellation = cfg.resolved_constellation()
    chunks = []
    for i in range(n_frames):
        frame = build_frame(bits[i * per_frame:(i + 1) * per_frame],
                            cfg.pilot_seed)
        chunks.append(_transmit_samples(frame, constellation, cfg, sps).samples)
    samples = np.concatenate(chunks) if chunks else np.zeros(0, dtype=complex)
    write_iq(iq_path, samples)
    header = StreamHeader(sample_rate_hz=SYMBOL_RATE * sps,
                          samples_per_symbol=sps, frames=n_frames,
                          pad_bits=pad, pilot_seed=cfg.pilot_seed)
    if header_path is not None:
        header.write(header_path)
    return header


def receive_stream(sig: BasebandSignal, header: StreamHeader,
                   search_span: int | None = None) -> np.ndarray:
    """Recover the concatenated payload bits of a multi-frame stream.

    The first frame is searched over [0, search_span); later frames are
    expected at a fixed stride from it (the channel model has no clock
    drift), with a small window to absorb correlation-peak jitter."""
    from .rxchain import frame_sync
    from .txchain import build_sync_sequence

    sps = header.samples_per_symbol
    stride = FrameLayout.frame_len * sps
    if header.frames == 0:
        return np.zeros(0, dtype=int)
    if search_span is None:
        search_span = min(stride, max(1, sig.samples.size - stride + 1))
    try:
        start = frame_sync(sig, build_sync_sequence(),
                           (0, search_span)).frame_start
    except SyncNotFoundError as exc:
        raise PartialReceiveError(0, str(exc)) from exc
    out = []
    for i in range(header.frames):
        expect = start + i * stride
        window = (max(0, expect - 2 * sps), expect + 2 * sps + 1)
        try:
            bits, _ = receive_frame(sig, header.pilot_seed,
                                    search_window=window)
        except SyncNotFoundError as exc:
            raise PartialReceiveError(i, str(exc)) from exc
        out.append(bits)
    return np.concatenate(out)


def receive_file(iq_path, header, out_path) -> int:
    """Demodulate an IQ stream back into the original file; returns the byte
    count written.  `header` is a StreamHeader or a path to one."""
    if not isinstance(header, StreamHeader):
        header = StreamHeader.read(header)
    samples = read_iq(iq_path)
    expected = (header.frames * FrameLayout.frame_len
                * header.samples_per_symbol)
    if samples.size < expected:
        raise ValueError(
            f"stream has {samples.size} samples, header implies >= {expected}")
    if not (0 <= header.pad_bits < FrameLayout.payload_bits):
        raise ValueError(f"inconsistent pad_bits {header.pad_bits}")
    sig = BasebandSignal(samples=samples,
                         sample_rate=header.sample_rate_hz,
                         samples_per_symbol=header.samples_per_symbol)
    bits = receive_stream(sig, header)
    if header.pad_bits:
        bits = bits[:-header.pad_bits]
    payload = bits_to_bytes(bits)
    with open(out_path, "wb") as fh:
        fh.write(payload)
    return len(payload)
