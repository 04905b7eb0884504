"""Link impairments: FIR multipath, complex gain, CFO, delay, AWGN.

Everything is seeded and deterministic.  The carrier frequency offset is
normalized to cycles per FFT-length block of the fixed frame format
(FrameLayout.fft_len = 2048 symbols), so the per-sample phase increment is
2 pi eps / (2048 * sps).

A channel pass's noise is drawn on a helper thread that belongs to the
calling thread (see NoiseDraw).  numpy's generator fills an array without
holding the GIL, so the caller filters, rotates and scales the samples, or
synthesizes the frame, while its helper draws; between the stages' blocks
it puts each chunk the helper has finished into the samples.  The helper
draws the same stream of the same generator, in the same order and with
the same arithmetic as one thread drawing inline, and each sample's stage
value and noise are summed in either order, so the samples are bit for
bit the same.  The helper calls the generator alone and no BLAS routine,
so pinning BLAS to one thread (see README) still leaves each calling
thread one BLAS thread.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import os
import queue
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import check_count, check_out
from .txchain import BasebandSignal, FrameLayout

CFO_BLOCK = FrameLayout.fft_len  # symbols per normalization block
# The FIR output is made this many samples at a time: np.convolve's block
# temporary (32 KiB) is reused from the allocator on every call, where a
# frame-sized one is handed back to the kernel and faulted in again later.
FIR_BLOCK = 2048
# Each calling thread's noise helper draws NOISE_CHUNK values at a time
# into a ring of NOISE_SLOTS such chunks of float64 (192 KiB), allocated
# with the helper and reused by every draw the thread starts.  The helper
# runs at most the ring ahead of the chunks the caller has landed.  Out of
# place the caller lands each chunk between the stages' blocks as soon as
# it is drawn, so the helper never waits on the stages; in place, and
# while run_frame synthesizes a frame before its pass, it waits once the
# ring is full.  A pass's first on its thread holds the ring and one FIR
# block besides its output, within 256 KiB.
NOISE_CHUNK = 12288
NOISE_SLOTS = 2
# numpy's complex multiply rounds a 1-element array differently from the
# same element inside a longer array (seen on AVX-512), so a pass never
# runs a block this short unless its whole body is: a shorter last block
# is folded into the one before it, and each product rounds as it does
# over the whole body.
SHORTEST_BLOCK = 16


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


def _draw(chunks, free, drawn, cancel, rng, n):
    """One draw on a noise helper: n real parts, then n imaginary parts, of
    rng's standard normals, drawn NOISE_CHUNK at a time into the free slots
    of the ring `chunks` and passed on in `drawn` in order.  Returns the
    draw's end mark: the exception it raised, else None, also when it was
    cancelled."""
    slot = None
    try:
        for _ in range(2):
            for i in range(0, n, NOISE_CHUNK):
                slot = free.get()
                if cancel.is_set():
                    return None
                rng.standard_normal(out=chunks[slot, :min(NOISE_CHUNK,
                                                          n - i)])
                drawn.put(slot)
                slot = None
    except BaseException as exc:
        return exc
    finally:
        if slot is not None:
            free.put(slot)
    return None


def _serve(chunks, jobs, free, drawn, cancel):
    """A noise helper thread: each job's chunks, then its end mark, until
    the job None."""
    for job in iter(jobs.get, None):
        drawn.put(_draw(chunks, free, drawn, cancel, *job))


class _Ring:
    """What a calling thread shares with its noise helper: the NOISE_SLOTS
    chunk buffers, the queue of draws to make, the slots free to draw into
    and the slots drawn (each draw's in order, then its end mark), and the
    flag that cancels a draw.  The helper holds these, not the ring, so the
    ring is freed with its calling thread's local, which stops the helper.
    `active` is the calling thread's draw not yet added or closed."""

    def __init__(self):
        self.chunks = np.empty((NOISE_SLOTS, NOISE_CHUNK))
        self.jobs, self.free, self.drawn = (queue.SimpleQueue()
                                            for _ in range(3))
        for slot in range(NOISE_SLOTS):
            self.free.put(slot)
        self.cancel = threading.Event()
        self.active = None
        threading.Thread(target=_serve, daemon=True, name="mslink-noise",
                         args=(self.chunks, self.jobs, self.free, self.drawn,
                               self.cancel)).start()
        weakref.finalize(self, self.jobs.put, None)


_THREAD = threading.local()   # this thread's noise ring, made on first use


def _forget_rings():
    """No helper thread survives a fork, so a forked child's threads each
    start a fresh ring and helper on their next draw."""
    global _THREAD
    _THREAD = threading.local()


if hasattr(os, "register_at_fork"):   # no fork, no hook on Windows
    os.register_at_fork(after_in_child=_forget_rings)


def _noise_key(cfg: ChannelConfig, sps: int, n: int) -> tuple:
    return cfg.seed, cfg.snr_db, cfg.ref_power, sps, n


class NoiseDraw:
    """The AWGN of one channel pass of n samples at sps, drawn on the
    calling thread's noise helper from the moment it is made: standard
    normals of default_rng(cfg.seed), all real parts, then all imaginary
    parts (the generator's stream in the order of the one-shot
    rng.normal(size=(2, n)) draw), each scaled by sqrt(var / 2), var =
    noise_variance(cfg.snr_db, cfg.ref_power, sps), as it lands in the
    samples: a scaled standard draw is rng.normal's own arithmetic.  At
    snr_db = inf nothing is drawn.

    The pass takes each chunk as the helper finishes it (land) and puts
    its stage values in (put); each lane, the real or imaginary part of a
    sample, gets whichever of its two values comes second added to the one
    already there.  Float addition commutes, so the landing order leaves
    every sample bit for bit the same.  add_to lands the rest, waiting for
    each chunk; close cancels the draw if it was not added, and it is a
    context manager that closes it on exit.  A draw belongs to the thread
    that made it, which has one draw at a time: making another closes the
    last."""

    def __init__(self, cfg: ChannelConfig, sps: int, n: int):
        self.key = _noise_key(cfg, sps, n)
        self._ring = None
        self._lanes = 0      # lanes landed: n real parts, then n imaginary
        self._held = None    # a drawn slot waiting for its stage values
        if cfg.snr_db == math.inf:
            return
        self._scale = np.sqrt(noise_variance(cfg.snr_db, cfg.ref_power,
                                             sps) / 2.0)
        ring = getattr(_THREAD, "ring", None)
        if ring is None:
            ring = _THREAD.ring = _Ring()
        if ring.active is not None:
            ring.active.close()
        # the generator is made here: the helper waits for the GIL at
        # every step it takes in Python while the caller holds it
        ring.jobs.put((np.random.default_rng(cfg.seed), n))
        ring.active = self
        self._ring = ring

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def land(self, y: np.ndarray, cursor: int, ahead: bool,
             wait: bool = False) -> None:
        """Put into y every chunk the helper has finished, in order: added
        to the lanes below `cursor`, whose stage values are in y, and
        written to those from it on, which put adds theirs to.  Unless
        `ahead`, a chunk that reaches past the cursor waits for it: in
        place, the lanes from the cursor on still hold the pass's input.
        With `wait`, waits for each chunk until every lane has landed.  A
        helper's exception is raised here."""
        ring = self._ring
        if ring is None:
            return
        if (ring.active is not self
                or getattr(_THREAD, "ring", None) is not ring):
            raise ValueError("the noise draw is closed or another thread's")
        n = y.size
        while self._lanes < 2 * n:
            slot = self._held
            if slot is None:
                try:
                    slot = ring.drawn.get(block=wait)
                except queue.Empty:
                    return
                if not isinstance(slot, int):   # the helper raised
                    ring.active = None
                    raise slot
            part, i = ((y.real, self._lanes) if self._lanes < n
                       else (y.imag, self._lanes - n))
            k = min(NOISE_CHUNK, n - i)
            if not ahead and i + k > cursor:
                self._held = slot
                return
            self._held = None
            w = ring.chunks[slot, :k]
            c = min(max(cursor - i, 0), k)
            np.multiply(w[c:], self._scale, out=part[i + c:i + k])
            w = w[:c]
            w *= self._scale
            part[i:i + c] += w
            ring.free.put(slot)
            self._lanes += k

    def put(self, y: np.ndarray, a: int, t: np.ndarray) -> None:
        """y[a:a + len(t)] = t, but added to the lanes whose noise has
        landed."""
        b, n = a + t.size, y.size
        re_end, im_end = min(self._lanes, n), max(self._lanes - n, 0)
        if im_end >= b:
            y[a:b] += t
        elif re_end <= a:
            y[a:b] = t
        else:
            for part, tp, end in ((y.real, t.real, re_end),
                                  (y.imag, t.imag, im_end)):
                c = min(max(end, a), b)
                part[a:c] += tp[:c - a]
                part[c:b] = tp[c - a:]

    def add_to(self, y: np.ndarray) -> None:
        """Land the rest of the draw in y, whose stage values are all in,
        waiting for each chunk.  A helper's exception is raised here."""
        ring = self._ring
        if ring is None:
            return
        self.land(y, y.size, False, wait=True)
        ring.active = None
        end = ring.drawn.get()
        if end is not None:
            raise end

    def close(self) -> None:
        """Cancel the draw unless it was added: the helper stops before its
        next chunk, and the chunks it drew are dropped."""
        ring = self._ring
        if ring is None or ring.active is not self:
            return
        ring.cancel.set()
        if self._held is not None:
            ring.free.put(self._held)
            self._held = None
        while isinstance(slot := ring.drawn.get(), int):
            ring.free.put(slot)
        ring.cancel.clear()
        ring.active = None


def _block_edges(size: int, ntaps: int) -> list:
    """The edges of the FIR_BLOCK-sample blocks a pass's stages run in,
    with a last block shorter than SHORTEST_BLOCK or than the ntaps FIR
    taps folded into the one before it.  The last block's FIR input is as
    long as the block, and np.convolve swaps an input shorter than the taps
    with them, which sums each output in another order than the whole
    convolution does."""
    edges = list(range(0, size, FIR_BLOCK))
    if len(edges) > 1 and size - edges[-1] < max(SHORTEST_BLOCK, ntaps):
        edges.pop()
    return edges + [size]


def _fir_block(x, taps, s, e, hist):
    """(h * x)[s:e], the same block np.convolve(x, taps) gives, read from
    x[s - k:e], k = len(taps) - 1, or, when `hist` is given, from hist, a
    copy of x[s - k:s], then x[s:e]; and a copy of x[e - k:e], the next
    block's hist."""
    k = taps.size - 1
    a = max(0, s - k)
    src = x[a:e] if hist is None else np.concatenate((hist, x[s:e]))
    return (np.convolve(src, taps)[s - a:e - a],
            src[max(0, e - k) - a:].copy())


def _run_stages(x, y, d, taps, cfg, sps, noise, in_place):
    """y[d:] = the FIR, CFO and gain stages of x, block by block, forward,
    with every chunk of `noise` that the helper has finished landed in y
    after each block's stages.  Every stage that is an exact identity (unit
    tap, zero CFO, unit gain) is skipped, and with all three there is
    nothing to interleave: x is copied, and no chunk lands."""
    fir = taps.size > 1 or taps[0] != 1.0
    body = y[d:]
    if not (fir or cfg.cfo_normalized != 0.0 or cfg.complex_gain != 1.0):
        if not in_place:
            body[:] = x
        return
    if cfg.cfo_normalized != 0.0:
        ramp = _cfo_ramp(cfg.cfo_normalized, sps, body.size)
    hist = None
    edges = _block_edges(body.size, taps.size)
    for s, e in zip(edges, edges[1:]):
        if fir:
            t, tail = _fir_block(x, taps, s, e, hist)
            if in_place:   # the block's write overwrites x[e - k:e]
                hist = tail
        elif in_place:
            t = body[s:e]
        else:
            t = x[s:e].astype(complex)
        if cfg.cfo_normalized != 0.0:
            # ramp first: complex products round differently with the
            # operands swapped, and this is the order numpy evaluates
            # `y * ramp` in when it reuses the ramp's buffer, as it does at
            # frame sizes
            np.multiply(ramp[s:e], t, out=t)
        if cfg.complex_gain != 1.0:
            t *= cfg.complex_gain
        noise.land(y, d + s, not in_place)
        if fir or not in_place:
            noise.put(y, d + s, t)
        del t   # a block's temporary goes before the next is made


def apply_channel(sig: BasebandSignal, cfg: ChannelConfig,
                  out: np.ndarray | None = None,
                  noise: NoiseDraw | None = None) -> BasebandSignal:
    """y[n] = e^{j 2 pi eps (n-d)/(2048 sps)} g (h * x)[n-d] + w[n].

    w has variance sps * ref_power / 10^(snr_db / 10) per sample, whatever
    the power of x (see ChannelConfig).  Es/N0 thus holds per *symbol*: at
    sps > 1 the per-sample variance is sps times larger and the receiver's
    integrate-and-dump recovers the processing gain, keeping comparisons
    across sps fair.

    y is written into `out` when it is given (a contiguous complex array of
    d + len(x) + len(h) - 1 samples), else into a fresh array.  `out` may
    hold x itself exactly at the delay, x being out[d:d + len(x)], and the
    channel then runs in place; any other overlap of `out` and x is an
    error.

    w is drawn on the calling thread's noise helper (NoiseDraw) while the
    stages run: the FIR, CFO and gain run forward over blocks of FIR_BLOCK
    samples, and between blocks every chunk the helper has finished lands
    in y.  Out of place a chunk lands at once, before its samples' stages
    if it comes first; in place only behind the stages, as the samples
    ahead still hold x.  A pass whose stages are all identities adds the
    draw after copying x.  The draw starts at entry, unless `noise` is
    given: a draw of this pass, NoiseDraw(cfg, sps, len(y)), that the
    caller started earlier to run more work under it; a draw made for
    another pass is refused.  The pass closes its draw, so a pass that
    raises cancels it.
    """
    x = np.asarray(sig.samples)
    sps = sig.samples_per_symbol
    taps = np.asarray(cfg.fir_taps, dtype=complex)
    d = cfg.timing_offset
    n = d + x.size + taps.size - 1
    if noise is None:
        noise = NoiseDraw(cfg, sps, n)
    elif noise.key != _noise_key(cfg, sps, n):
        raise ValueError("noise must be drawn for this channel pass")
    with noise:
        # One output buffer at its final length.  np.empty, not np.zeros:
        # only the delay prefix needs zeroing, and the zeroed allocation
        # measured slower on the stream workload
        y = check_out(out, (n,), complex)
        in_place = np.shares_memory(y, x)
        if in_place and not _is_body_of(x, y, d):
            raise ValueError("out must not share memory with the input "
                             "samples, except as out[d:d + len(x)]")
        y[:d] = 0.0
        _run_stages(x, y, d, taps, cfg, sps, noise, in_place)
        noise.add_to(y)
    return BasebandSignal(samples=y, sample_rate=sig.sample_rate,
                          samples_per_symbol=sps)
