"""Transmit chain: bit mapping, frame assembly, waveform synthesis.

The frame format is fixed, and FrameLayout states it once for transmitter,
channel and receiver (symbols): 420 sync chips, then 10 subframes of
160-symbol cyclic prefix + 2048-symbol body (subframe 0 is the pilot, 1..9
carry data), 22500 symbols per frame, 36864 payload bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuit import GammaLUT
from .errors import AliasingError, FramingError

SYMBOL_RATE = 1.25e6  # symbols per second

# bit pair -> constellation index, P1='00', P2='01', P3='11', P4='10'
_PAIR_TO_INDEX = np.array([0, 1, 3, 2])  # indexed by 2*b0 + b1
_INDEX_TO_BITS = np.array([[0, 0], [0, 1], [1, 1], [1, 0]])

_BARKER = {
    3: np.array([1, 1, -1]),
    4: np.array([1, 1, -1, 1]),
    5: np.array([1, 1, 1, -1, 1]),
    7: np.array([1, 1, 1, -1, -1, 1, -1]),
}

DEFAULT_PILOT_SEED = 1


@dataclass(frozen=True)
class Constellation:
    """Four complex symbol points; index k carries the bits of P(k+1)."""

    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        if pts.shape != (4,):
            raise ValueError("constellation needs exactly four points")
        if len({complex(p) for p in pts}) != 4:
            raise ValueError("constellation points must be distinct")
        object.__setattr__(self, "points", pts)

    @property
    def mean_power(self) -> float:
        return float(np.mean(np.abs(self.points) ** 2))


def ideal_qpsk() -> Constellation:
    """Unit-circle QPSK at 45/135/225/315 degrees."""
    return Constellation(np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(4))))


def impaired_qpsk(phase_span_deg: float, magnitudes=None) -> Constellation:
    """Synthetic hardware-limited constellation: points at 0, s/3, 2s/3, s
    degrees with optional per-point magnitudes (taken literally, so sub-unity
    magnitudes model reflection loss).  phase_span_deg=270 with unit
    magnitudes recovers ideal QPSK geometry up to a common rotation."""
    phases = np.radians(phase_span_deg * np.arange(4) / 3.0)
    mags = np.ones(4) if magnitudes is None else np.asarray(magnitudes, float)
    return Constellation(mags * np.exp(1j * phases))


def metasurface_constellation(lut: GammaLUT, voltages,
                              normalize: bool = True) -> Constellation:
    """Constellation realized by driving the surface at four bias voltages,
    normalized to unit mean power by default.

    With normalize=False the points are the raw reflection coefficients:
    their sub-unity magnitudes carry the cell's ohmic loss, so against a
    fixed incident-power budget the surface radiates less than an ideal
    modulator would (the convention the experiment harness uses)."""
    v = np.asarray(voltages, dtype=float)
    if v.size != 4:
        raise ValueError("exactly four voltages expected")
    lo, hi = lut.voltages[0], lut.voltages[-1]
    if np.any(v < lo) or np.any(v > hi):
        raise ValueError(f"voltage outside LUT range [{lo}, {hi}]")
    pts = np.interp(v, lut.voltages, lut.gammas.real) + 1j * np.interp(
        v, lut.voltages, lut.gammas.imag
    )
    if normalize:
        pts = pts / np.sqrt(np.mean(np.abs(pts) ** 2))
    return Constellation(pts)


class FrameLayout:
    """The SC-FDE frame format, in symbols.  Its values are constants: the
    sync word, the single pilot and the CFO normalization all assume them."""

    __slots__ = ()
    sync_len = 420                # Barker 3 x 4 x 5 x 7 chips
    fft_len = 2048
    cp_len = 160
    n_subframes = 10              # subframe 0 is the pilot
    data_subframes = n_subframes - 1
    subframe_len = fft_len + cp_len
    frame_len = sync_len + n_subframes * subframe_len
    payload_bits = 2 * fft_len * data_subframes


def map_bits_to_symbols(bits) -> np.ndarray:
    """Bit pairs -> constellation indices (00->P1, 01->P2, 11->P3, 10->P4)."""
    b = np.asarray(bits, dtype=int).ravel()
    if b.size % 2:
        raise FramingError(f"odd bit count {b.size}")
    if b.size and (b.min() < 0 or b.max() > 1):
        raise ValueError("bits must be 0/1")
    return _PAIR_TO_INDEX[2 * b[0::2] + b[1::2]]


def demap_symbols(indices) -> np.ndarray:
    """Inverse of map_bits_to_symbols."""
    return _INDEX_TO_BITS[np.asarray(indices, dtype=int)].ravel()


def build_sync_sequence() -> np.ndarray:
    """Length-420 extended Barker chips: Barker-3 x 4 x 5 x 7 Kronecker
    product, +-1 valued."""
    seq = np.array([1])
    for n in (3, 4, 5, 7):
        seq = np.kron(seq, _BARKER[n])
    return seq


def build_pilot_sequence(seed: int = DEFAULT_PILOT_SEED,
                         length: int = FrameLayout.fft_len) -> np.ndarray:
    """Deterministic pilot symbol indices for a seed.

    A seeded quadratic-phase (chirp) sequence quantized to the four QPSK
    states: near-flat magnitude spectrum, so every FFT bin stays well away
    from zero and the per-bin LS/ZF division is safe.  The default seed keeps
    the minimum bin above 0.1x the mean bin magnitude.
    """
    rng = np.random.default_rng(seed)
    root = 2 * int(rng.integers(0, length // 2)) + 1
    shift = int(rng.integers(0, length))
    n = np.arange(length)
    chirp = np.exp(-1j * np.pi * root * n * n / length)
    idx = np.round((np.angle(chirp) - np.pi / 4) / (np.pi / 2)).astype(int) % 4
    return np.roll(idx, shift)


@dataclass(frozen=True)
class Frame:
    """One physical frame before cyclic-prefix insertion."""

    sync: np.ndarray = field(repr=False)       # 420 chips in {+1, -1}
    pilot: np.ndarray = field(repr=False)      # 2048 symbol indices
    data: np.ndarray = field(repr=False)       # (9, 2048) symbol indices
    payload_bits: np.ndarray = field(repr=False)

    def symbol_indices(self) -> np.ndarray:
        """Serialize to 22500 symbol indices with per-subframe CP.

        Sync chips ride on the two 180-degree-apart points P1/P3
        (+1 -> P1, -1 -> P3)."""
        bodies = np.vstack([self.pilot, self.data])
        subframes = np.hstack([bodies[:, -FrameLayout.cp_len:], bodies])
        return np.concatenate([np.where(self.sync > 0, 0, 2),
                               subframes.ravel()])


def build_frame(payload_bits, pilot_seed: int = DEFAULT_PILOT_SEED) -> Frame:
    bits = np.asarray(payload_bits, dtype=int).ravel()
    if bits.size != FrameLayout.payload_bits:
        raise FramingError(f"payload must be exactly "
                           f"{FrameLayout.payload_bits} bits, got {bits.size}")
    data = map_bits_to_symbols(bits).reshape(FrameLayout.data_subframes,
                                             FrameLayout.fft_len)
    return Frame(
        sync=build_sync_sequence(),
        pilot=build_pilot_sequence(pilot_seed),
        data=data,
        payload_bits=bits,
    )


@dataclass(frozen=True)
class BasebandSignal:
    samples: np.ndarray = field(repr=False)
    sample_rate: float = SYMBOL_RATE
    samples_per_symbol: int = 1


def _as_indices(frame_or_indices) -> np.ndarray:
    if isinstance(frame_or_indices, Frame):
        return frame_or_indices.symbol_indices()
    return np.asarray(frame_or_indices, dtype=int)


def synthesize_baseband(frame, constellation: Constellation, sps: int = 1,
                        sample_rate: float | None = None) -> BasebandSignal:
    """Rectangular-pulse baseband: each symbol value held for sps samples."""
    if sps < 1:
        raise ValueError("sps must be >= 1")
    idx = _as_indices(frame)
    samples = np.repeat(constellation.points[idx], sps)
    rate = SYMBOL_RATE * sps if sample_rate is None else sample_rate
    return BasebandSignal(samples=samples, sample_rate=rate,
                          samples_per_symbol=sps)


def synthesize_passband(frame, constellation: Constellation,
                        carrier_freq: float, sample_rate: float,
                        sps: int = 1, amplitude: float = 1.0,
                        phase0: float = 0.0) -> np.ndarray:
    """Real passband samples Re{Gamma(t) * A exp(j(2 pi fc t + phi0))}.

    The carrier is a desk-scale stand-in; the mixing identity is frequency
    scale invariant."""
    if sample_rate <= 4.0 * carrier_freq:
        raise AliasingError(
            f"need sample_rate > 4*carrier ({sample_rate:g} <= {4 * carrier_freq:g})"
        )
    bb = synthesize_baseband(frame, constellation, sps).samples
    n = np.arange(bb.size)
    carrier = amplitude * np.exp(
        1j * (2.0 * np.pi * carrier_freq * n / sample_rate + phase0)
    )
    return np.real(bb * carrier)
