"""Transmit chain: bit mapping, frame assembly, waveform synthesis.

The frame format is fixed, and FrameLayout states it once for transmitter,
channel and receiver (symbols): 420 sync chips, then 10 subframes of
160-symbol cyclic prefix + 2048-symbol body (subframe 0 is the pilot, 1..9
carry data), 22500 symbols per frame, 36864 payload bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import AliasingError, FramingError, check_count, check_out

SYMBOL_RATE = 1.25e6  # symbols per second

# constellation index -> bit pair, P1='00', P2='01', P3='11', P4='10'
_INDEX_TO_BITS = np.array([[0, 0], [0, 1], [1, 1], [1, 0]])

_BARKER = {
    3: np.array([1, 1, -1]),
    4: np.array([1, 1, -1, 1]),
    5: np.array([1, 1, 1, -1, 1]),
    7: np.array([1, 1, 1, -1, -1, 1, -1]),
}

_PILOT_SEED = 1  # draws the pilot chirp's root and shift


@dataclass(frozen=True)
class Constellation:
    """Four finite, distinct complex symbol points; index k carries the bits
    of P(k+1).  The points are stored as a read-only copy, and
    constellations compare and hash by value, the points by their
    contents."""

    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.array(self.points, dtype=complex)   # always a new array
        if pts.shape != (4,):
            raise ValueError("constellation needs exactly four points")
        if not np.all(np.isfinite(pts)):
            raise ValueError(f"constellation points must be finite, "
                             f"got {', '.join(map(str, pts.tolist()))}")
        if len({complex(p) for p in pts}) != 4:
            raise ValueError("constellation points must be distinct")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.points.tobytes() == other.points.tobytes()

    def __hash__(self):
        return hash(self.points.tobytes())

    @property
    def mean_power(self) -> float:
        return float(np.mean(np.abs(self.points) ** 2))


@functools.cache
def ideal_qpsk() -> Constellation:
    """Unit-circle QPSK at 45/135/225/315 degrees.  Built once and shared; a
    Constellation is immutable."""
    return Constellation(np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(4))))


def impaired_qpsk(phase_span_deg: float, magnitudes=None) -> Constellation:
    """Synthetic hardware-limited constellation: points at 0, s/3, 2s/3, s
    degrees with optional per-point magnitudes (taken literally, so sub-unity
    magnitudes model reflection loss).  phase_span_deg=270 with unit
    magnitudes recovers ideal QPSK geometry up to a common rotation."""
    phases = np.radians(phase_span_deg * np.arange(4) / 3.0)
    mags = np.ones(4) if magnitudes is None else np.asarray(magnitudes, float)
    # an infinite magnitude times 1 + 0j is NaN in its imaginary part, a
    # point Constellation rejects; numpy need not warn of it first
    with np.errstate(invalid="ignore"):
        points = mags * np.exp(1j * phases)
    return Constellation(points)


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
    first = b[0::2]
    # the Gray map in integer arithmetic: index = 2 b0 + (b0 xor b1)
    out = np.bitwise_xor(first, b[1::2])
    out += first
    out += first
    return out


def demap_symbols(indices) -> np.ndarray:
    """Inverse of map_bits_to_symbols."""
    return np.take(_INDEX_TO_BITS, np.asarray(indices, dtype=int),
                   axis=0).ravel()


@functools.cache
def build_sync_sequence() -> np.ndarray:
    """Length-420 extended Barker chips: Barker-3 x 4 x 5 x 7 Kronecker
    product, +-1 valued.  Built once and shared, so read-only."""
    seq = np.array([1])
    for n in (3, 4, 5, 7):
        seq = np.kron(seq, _BARKER[n])
    seq.flags.writeable = False
    return seq


@functools.cache
def build_pilot_sequence() -> np.ndarray:
    """The frame's pilot symbol indices, one subframe body long.

    A quadratic-phase (chirp) sequence quantized to the four QPSK states,
    its root and cyclic shift drawn from a fixed seed: near-flat magnitude
    spectrum, so every FFT bin stays well away from zero and the per-bin
    LS/ZF division is safe (the minimum bin is above 0.1x the mean bin
    magnitude).  Built once and shared, so read-only.
    """
    length = FrameLayout.fft_len
    rng = np.random.default_rng(_PILOT_SEED)
    root = 2 * int(rng.integers(0, length // 2)) + 1
    shift = int(rng.integers(0, length))
    n = np.arange(length)
    chirp = np.exp(-1j * np.pi * root * n * n / length)
    idx = np.round((np.angle(chirp) - np.pi / 4) / (np.pi / 2)).astype(int) % 4
    idx = np.roll(idx, shift)
    idx.flags.writeable = False
    return idx


@functools.cache
def _frame_head() -> np.ndarray:
    """The symbol indices every frame opens with: the sync chips, then the
    pilot subframe, its cyclic prefix first.  Built once and shared, so
    read-only."""
    lay = FrameLayout
    head = np.empty(lay.sync_len + lay.subframe_len, dtype=int)
    head[:lay.sync_len] = np.where(build_sync_sequence() > 0, 0, 2)
    pilot = head[lay.sync_len:]
    pilot[lay.cp_len:] = build_pilot_sequence()
    pilot[:lay.cp_len] = pilot[-lay.cp_len:]
    head.flags.writeable = False
    return head


def build_frame(payload_bits) -> np.ndarray:
    """The 22500 symbol indices of the frame carrying `payload_bits`: the
    sync chips, then the pilot (build_pilot_sequence) and the nine data
    subframes, each with its cyclic prefix.  The sync chips and the pilot
    subframe are the same in every frame, built once (_frame_head) and
    copied; only the data subframes are built per frame.

    Sync chips ride on the two 180-degree-apart points P1/P3
    (+1 -> P1, -1 -> P3)."""
    lay = FrameLayout
    bits = np.asarray(payload_bits, dtype=int).ravel()
    if bits.size != lay.payload_bits:
        raise FramingError(f"payload must be exactly "
                           f"{lay.payload_bits} bits, got {bits.size}")
    head = _frame_head()
    out = np.empty(lay.frame_len, dtype=int)
    out[:head.size] = head
    data = out[head.size:].reshape(lay.data_subframes, lay.subframe_len)
    bodies = data[:, lay.cp_len:]
    bodies[:] = map_bits_to_symbols(bits).reshape(lay.data_subframes,
                                                  lay.fft_len)
    data[:, :lay.cp_len] = bodies[:, -lay.cp_len:]
    return out


@dataclass(frozen=True)
class BasebandSignal:
    samples: np.ndarray = field(repr=False)
    sample_rate: float = SYMBOL_RATE
    samples_per_symbol: int = 1


def synthesize_baseband(indices, constellation, sps: int = 1,
                        out: np.ndarray | None = None) -> BasebandSignal:
    """Rectangular-pulse baseband: each symbol value held for sps samples.

    `constellation` is a Constellation or the four point values themselves,
    which, unlike a Constellation's, may coincide (a surface with no active
    cell radiates one value for every symbol).  The samples are written into
    `out` when it is given (a contiguous array of sps samples per symbol, of
    the points' dtype), else into a fresh array."""
    check_count("sps", sps, 1)
    points = (constellation.points if isinstance(constellation, Constellation)
              else np.asarray(constellation))
    idx = np.asarray(indices, dtype=int)
    n = points.size
    if idx.size and not (-n <= idx.min() and idx.max() < n):
        raise IndexError(f"symbol indices must lie in [{-n}, {n})")
    out = check_out(out, (idx.size * sps,), points.dtype)
    # each symbol's sps samples are one row of `held`, copied straight into
    # out; mode "raise" would take into a copy of out, and with the indices
    # checked above "wrap" resolves only the negative ones, as indexing does
    held = np.repeat(points, sps).reshape(n, sps)
    np.take(held, idx, axis=0, out=out.reshape(-1, sps), mode="wrap")
    return BasebandSignal(samples=out, sample_rate=SYMBOL_RATE * sps,
                          samples_per_symbol=sps)


def synthesize_passband(indices, constellation: Constellation,
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
    bb = synthesize_baseband(indices, constellation, sps).samples
    n = np.arange(bb.size)
    carrier = amplitude * np.exp(
        1j * (2.0 * np.pi * carrier_freq * n / sample_rate + phase0)
    )
    return np.real(bb * carrier)
