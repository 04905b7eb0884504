import dataclasses
import itertools
import math
import re
import threading
import time

import numpy as np
import pytest

from mslink import channel
from mslink.channel import (CFO_BLOCK, FIR_BLOCK, NOISE_CHUNK, ChannelConfig,
                            NoiseDraw, _cfo_ramp, apply_channel, cfo_phasors,
                            noise_variance)
from mslink.rxchain import _ramp_index, derotate_and_dump
from mslink.txchain import BasebandSignal, FrameLayout


def _sig(samples, sps=1):
    return BasebandSignal(samples=np.asarray(samples, dtype=complex),
                          sample_rate=1.25e6 * sps, samples_per_symbol=sps)


def test_noise_variance_values():
    assert noise_variance(0.0, 1.0, 1) == 1.0
    assert noise_variance(3.0103, 1.0, 1) == pytest.approx(0.5, rel=1e-4)
    assert noise_variance(math.inf, 1.0, 1) == 0.0
    assert noise_variance(0.0, 2.0, 8) == 16.0


def test_clean_channel_is_identity():
    x = np.exp(1j * np.linspace(0, 5, 1000))
    y = apply_channel(_sig(x), ChannelConfig())
    np.testing.assert_array_equal(y.samples, x)


def test_pure_gain_scales_exactly():
    x = np.ones(64, dtype=complex)
    g = 0.5 - 1.5j
    y = apply_channel(_sig(x), ChannelConfig(complex_gain=g))
    np.testing.assert_allclose(y.samples[:64], g * x, rtol=0, atol=0)


def test_timing_offset_prepends_zeros():
    x = np.ones(16, dtype=complex)
    y = apply_channel(_sig(x), ChannelConfig(timing_offset=5))
    assert not np.any(y.samples[:5])
    np.testing.assert_allclose(y.samples[5:21], x)


def test_fir_taps_convolve():
    rng = np.random.default_rng(3)
    x = rng.normal(size=50) + 1j * rng.normal(size=50)
    taps = (1.0 + 0j, 0.4 - 0.1j, -0.2j)
    y = apply_channel(_sig(x), ChannelConfig(fir_taps=taps))
    np.testing.assert_allclose(y.samples, np.convolve(x, taps), atol=1e-15)


def test_cfo_phase_ramp():
    eps = 0.07
    x = np.ones(4096, dtype=complex)
    y = apply_channel(_sig(x), ChannelConfig(cfo_normalized=eps)).samples
    steps = np.angle(y[1:] * np.conj(y[:-1]))
    np.testing.assert_allclose(steps, 2 * np.pi * eps / 2048, atol=1e-12)


def test_cfo_ramp_spans_full_block_at_any_sps():
    assert CFO_BLOCK == FrameLayout.fft_len == 2048
    eps = 0.1
    for sps in (1, 8):
        x = np.ones(2048 * sps, dtype=complex)
        y = apply_channel(_sig(x, sps), ChannelConfig(cfo_normalized=eps))
        total = np.angle(y.samples[-1] / y.samples[0])
        expect = 2 * np.pi * eps * (x.size - 1) / (2048 * sps)
        assert total == pytest.approx(expect, abs=1e-9)


def test_noise_variance_measured_within_one_percent():
    x = np.ones(1_000_000, dtype=complex)
    y = apply_channel(_sig(x), ChannelConfig(snr_db=10.0, seed=11)).samples
    noise = y - x
    assert np.mean(np.abs(noise) ** 2) == pytest.approx(0.1, rel=0.01)


def test_measured_snr_tracks_configured():
    x = np.ones(1_000_000, dtype=complex)
    y = apply_channel(_sig(x), ChannelConfig(snr_db=10.0, seed=5)).samples
    noise = y - x
    snr = 10 * np.log10(np.mean(np.abs(x) ** 2) / np.mean(np.abs(noise) ** 2))
    assert snr == pytest.approx(10.0, abs=0.05)


def test_noise_whiteness():
    n = 1_000_000
    x = np.zeros(n, dtype=complex)
    cfg = ChannelConfig(snr_db=0.0, seed=17, ref_power=1.0)
    w = apply_channel(_sig(x), cfg).samples
    spec = np.fft.fft(w)
    acf = np.fft.ifft(np.abs(spec) ** 2) / n
    r0 = acf[0].real
    lags = np.abs(acf[1:200]) / r0
    assert np.all(lags <= 5.0 / math.sqrt(n))


def test_determinism():
    x = np.exp(1j * np.arange(256))
    cfg = ChannelConfig(snr_db=3.0, cfo_normalized=0.1, timing_offset=7,
                        fir_taps=(1.0, 0.2j), seed=9)
    a = apply_channel(_sig(x), cfg).samples
    b = apply_channel(_sig(x), cfg).samples
    np.testing.assert_array_equal(a, b)


def test_sps_scales_per_sample_noise():
    x1 = np.ones(200_000, dtype=complex)
    v = {}
    for sps in (1, 8):
        y = apply_channel(_sig(x1, sps),
                          ChannelConfig(snr_db=10.0, seed=2, ref_power=1.0))
        v[sps] = np.mean(np.abs(y.samples - x1) ** 2)
    assert v[8] / v[1] == pytest.approx(8.0, rel=0.02)


def test_default_noise_reference_is_unit_incident_power():
    assert ChannelConfig().ref_power == 1.0
    # the noise is charged against the unit budget, not the input's power:
    # a 0.5-amplitude input (power 0.25) at 10 dB gets noise power 0.1 per
    # symbol, not 0.025
    x = np.full(1_000_000, 0.5, dtype=complex)
    for sps, want in ((1, 0.1), (8, 0.8)):
        y = apply_channel(_sig(x, sps), ChannelConfig(snr_db=10.0, seed=6))
        noise = y.samples - x
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(want, rel=0.01)


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(cfo_normalized=0.5)
    # a delay or a seed that is not an integer >= 0 used to build, then fail
    # inside numpy without naming the setting (or, for True, run as 1)
    for key in ("timing_offset", "seed"):
        for bad in (-1, 1.5, True):
            with pytest.raises(ValueError, match=f"^{key} "):
                ChannelConfig(snr_db=10.0, **{key: bad})
    with pytest.raises(ValueError):
        ChannelConfig(fir_taps=())
    # an SNR whose noise variance float64 cannot form: 3083 and 1e308
    # overflowed 10^(snr/10) and -3240 and -1e308 divided by its underflow
    # to 0, each in the first frame; at -3100 the variance was inf
    for bad in (1e308, -1e308, 3083.0, -3100.0, -3240.0, math.nan,
                -math.inf):
        with pytest.raises(ValueError, match=r"^snr_db must be \+inf or "):
            ChannelConfig(snr_db=bad)
    # a NaN or infinite parameter would turn every sample into NaN
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="cfo_normalized"):
            ChannelConfig(cfo_normalized=bad)
        with pytest.raises(ValueError, match="complex_gain"):
            ChannelConfig(complex_gain=complex(bad, 0.0))
        with pytest.raises(ValueError, match="complex_gain"):
            ChannelConfig(complex_gain=complex(1.0, bad))
        with pytest.raises(ValueError, match="fir_taps"):
            ChannelConfig(fir_taps=(1.0, complex(0.0, bad)))
        with pytest.raises(ValueError, match="ref_power"):
            ChannelConfig(ref_power=bad)
    for bad in (0.0, -1.0, None):
        with pytest.raises(ValueError, match="ref_power"):
            ChannelConfig(ref_power=bad)
    ChannelConfig(ref_power=1e-30, cfo_normalized=-0.499, complex_gain=0.0,
                  fir_taps=(0.0, 1.0), timing_offset=np.int32(3),
                  seed=np.uint64(5))
    # the extreme SNRs whose variance float64 holds run to finite samples
    for snr_db in (3082.0, -3082.0):
        y = apply_channel(_sig(np.ones(64)), ChannelConfig(snr_db=snr_db))
        assert np.isfinite(y.samples).all()


def test_noise_variance_past_float64_per_sample_raises():
    # the per-sample variance is sps times the per-symbol one: at sps 8 and
    # -3080 dB it overflowed to inf, and the samples came back inf
    cfg = ChannelConfig(snr_db=-3080.0)
    with pytest.raises(ValueError, match=re.escape(
            "snr_db must be +inf or give a finite noise variance "
            "8 * ref_power / 10^(snr_db / 10)")):
        apply_channel(_sig(np.ones(64), sps=8), cfg)
    assert np.isfinite(apply_channel(_sig(np.ones(64)), cfg).samples).all()


def _closed_form_channel(x, sps, cfg):
    """The channel written as one expression per stage, every stage always
    applied, in the channel's order over the body: the FIR, the CFO ramp
    (ramp first in its product), the gain, then the delay's zero prefix and
    the noise.  The oracle for the fast path, which skips identity
    stages."""
    taps = np.asarray(cfg.fir_taps, dtype=complex)
    y = np.convolve(x, taps)
    m = np.arange(y.size)
    y = np.exp(2j * np.pi * cfg.cfo_normalized * m / (CFO_BLOCK * sps)) * y
    y = y * cfg.complex_gain
    y = np.concatenate([np.zeros(cfg.timing_offset, dtype=complex), y])
    if cfg.snr_db != math.inf:
        var = sps * (cfg.ref_power / 10.0 ** (cfg.snr_db / 10.0))
        rng = np.random.default_rng(cfg.seed)
        w = rng.normal(scale=np.sqrt(var / 2.0), size=(2, y.size))
        y = y + w[0] + 1j * w[1]
    return y


_GAINS = [1.0, 0.5 * np.exp(1j * np.pi / 4), -0.33 - 0.25j]


@pytest.mark.parametrize("sps", [1, 8])
@pytest.mark.parametrize("snr_db", [math.inf, 10.0])
@pytest.mark.parametrize("offset", [0, 37])
@pytest.mark.parametrize("taps", [(1.0,), (0.7,), (1.0, 0.3 - 0.2j)])
@pytest.mark.parametrize("gain", _GAINS)
@pytest.mark.parametrize("cfo", [0.0, 0.2])
@pytest.mark.parametrize("out", [None, "nan-buffer"])
def test_channel_bit_exact_against_closed_form(out, cfo, gain, taps, offset,
                                               snr_db, sps):
    rng = np.random.default_rng(21)
    sym = np.exp(1j * np.pi / 2 * rng.integers(0, 4, 20000 // sps)
                 + 1j * np.pi / 4)
    x = np.repeat(sym * rng.uniform(0.5, 1.0, sym.size), sps)
    x_before = x.copy()
    cfg = ChannelConfig(snr_db=snr_db, cfo_normalized=cfo,
                        timing_offset=offset, complex_gain=gain,
                        fir_taps=taps, seed=4)
    if out is not None:
        # NaN shows any sample left unwritten, the delay prefix included
        out = np.full(offset + x.size + len(taps) - 1, np.nan, dtype=complex)
    y = apply_channel(_sig(x, sps), cfg, out=out).samples
    want = _closed_form_channel(x_before, sps, cfg)
    assert y.tobytes() == want.tobytes()
    assert out is None or y is out
    np.testing.assert_array_equal(x, x_before)
    assert not np.shares_memory(y, x)


def test_fir_channel_holds_no_second_sample_array(allocation_peak):
    # the FIR runs FIR_BLOCK outputs at a time, so a stream-sized pass
    # allocates its output and block-sized temporaries only, besides the
    # thread's noise ring on its first noisy pass
    x = np.ones(90_000, dtype=complex)
    cfg = ChannelConfig(snr_db=30.0, timing_offset=500,
                        fir_taps=(1.0, 0.3 - 0.2j, 0.1 + 0.05j))
    n = 500 + x.size + 2
    assert allocation_peak(lambda: apply_channel(_sig(x), cfg)) <= (
        16 * n + 256 * 1024)


def test_apply_channel_rejects_bad_out():
    x = np.zeros(1000, dtype=complex)
    cfg = ChannelConfig(timing_offset=5, fir_taps=(1.0, 0.5))
    n = 1006
    for bad in (np.empty(n - 1, dtype=complex), np.empty(n + 1, dtype=complex),
                np.empty(n, dtype=np.complex64), np.empty(n),
                np.empty(2 * n, dtype=complex)[::2]):
        with pytest.raises(ValueError, match="out must hold 1006 complex128"):
            apply_channel(_sig(x), cfg, out=bad)


@pytest.mark.parametrize("sps", [1, 8])
@pytest.mark.parametrize("offset", [0, 37])
@pytest.mark.parametrize("taps", [(1.0,), (1.0, 0.3 - 0.2j, 0.1j)],
                         ids=["unit-tap", "3-tap"])
@pytest.mark.parametrize("gain", _GAINS)
@pytest.mark.parametrize("cfo", [0.0, 0.3, -0.3])
@pytest.mark.parametrize("ref_power", [1.0, 0.25])
def test_channel_in_place_at_the_delay_equals_closed_form(
        ref_power, cfo, gain, taps, offset, sps):
    # the input written into out at the delay, as run_frame's transmitter
    # writes it (at offset 0 with one tap, out is exactly the input's
    # memory); NaN elsewhere shows any sample left unwritten.  A budget
    # other than the unit default must scale the noise by ref_power alone
    rng = np.random.default_rng(22)
    sym = np.exp(1j * np.pi / 2 * rng.integers(0, 4, 20000 // sps)
                 + 1j * np.pi / 4)
    x = np.repeat(sym * rng.uniform(0.5, 1.0, sym.size), sps)
    cfg = ChannelConfig(snr_db=10.0, cfo_normalized=cfo,
                        timing_offset=offset, complex_gain=gain,
                        fir_taps=taps, seed=4, ref_power=ref_power)
    out = np.full(offset + x.size + len(taps) - 1, np.nan, dtype=complex)
    out[offset:offset + x.size] = x
    y = apply_channel(_sig(out[offset:offset + x.size], sps), cfg,
                      out=out).samples
    assert y is out
    assert y.tobytes() == _closed_form_channel(x, sps, cfg).tobytes()


def _channel_input(body, taps, seed):
    # random-amplitude QPSK of the length that gives a body of `body`
    # samples behind the delay
    rng = np.random.default_rng(seed)
    m = body - (len(taps) - 1)
    return (np.exp(1j * np.pi / 2 * rng.integers(0, 4, m) + 1j * np.pi / 4)
            * rng.uniform(0.5, 1.0, m))


def _pass(x, sps, cfg, in_place):
    """apply_channel's output bytes, out of place into a NaN buffer or in
    place with x written into the buffer at the delay."""
    d = cfg.timing_offset
    out = np.full(d + x.size + len(cfg.fir_taps) - 1, np.nan, dtype=complex)
    if in_place:
        out[d:d + x.size] = x
        x = out[d:d + x.size]
    y = apply_channel(_sig(x, sps), cfg, out=out).samples
    assert y is out
    return y.tobytes()


_THREE_TAPS = (1.0, 0.3 - 0.2j, 0.1j)
_TWENTY_TAPS = tuple(0.8 ** k * np.exp(1j * k) for k in range(20))


@pytest.mark.parametrize("sps", [1, 8])
@pytest.mark.parametrize("snr_db", [math.inf, 10.0])
@pytest.mark.parametrize("body, taps", [
    (9 * FIR_BLOCK + 1, (1.0,)), (9 * FIR_BLOCK + 1, _THREE_TAPS),
    (3 * NOISE_CHUNK + 5001, (1.0,)), (3 * NOISE_CHUNK + 5001, _THREE_TAPS),
    (9 * FIR_BLOCK + 19, _TWENTY_TAPS),
], ids=["blocks-plus-one-unit-tap", "blocks-plus-one-3-tap",
        "over-three-chunks-unit-tap", "over-three-chunks-3-tap",
        "input-of-whole-blocks-20-tap"])
@pytest.mark.parametrize("in_place", [False, True],
                         ids=["out-of-place", "in-place"])
def test_channel_block_bounds_equal_closed_form(in_place, body, taps,
                                                snr_db, sps):
    # the stages run FIR_BLOCK samples at a time.  numpy rounds a complex
    # product of a 1-element array differently from the same element in a
    # longer one, so a body of k * FIR_BLOCK + 1 samples must not end in a
    # 1-sample block; and np.convolve swaps an input shorter than the taps
    # with them, so an input of whole blocks must not leave a last block
    # (its FIR input as long as itself) shorter than the 20 taps.  Each
    # seed gives the last samples other values
    for seed in range(8):
        x = _channel_input(body, taps, seed)
        cfg = ChannelConfig(snr_db=snr_db, cfo_normalized=0.2,
                            timing_offset=37, complex_gain=0.6 - 0.45j,
                            fir_taps=taps, seed=seed)
        want = _closed_form_channel(x, sps, cfg).tobytes()
        assert _pass(x, sps, cfg, in_place) == want


@pytest.mark.parametrize("body", [100, 2049, 5000, 12289, 20000])
@pytest.mark.parametrize("in_place", [False, True],
                         ids=["out-of-place", "in-place"])
def test_bodies_of_any_size_equal_closed_form(in_place, body):
    # bodies below one frame too, each with and without CFO, with three
    # gains, one and three taps, with and without noise.  The last gain has
    # both parts negative: its product with a zero reads -0.0, as on the
    # run of zeros in x, which the channel must keep
    for cfo, gain, taps, snr_db in itertools.product(
            (0.0, 0.2), _GAINS, ((1.0,), _THREE_TAPS), (math.inf, 10.0)):
        x = _channel_input(body, taps, body)
        x[10:74] = 0.0
        cfg = ChannelConfig(snr_db=snr_db, cfo_normalized=cfo,
                            timing_offset=37, complex_gain=gain,
                            fir_taps=taps, seed=3)
        want = _closed_form_channel(x, 8, cfg).tobytes()
        assert _pass(x, 8, cfg, in_place) == want


@pytest.mark.parametrize("cfo", [0.0, 0.1])
@pytest.mark.parametrize("snr_db", [math.inf, 10.0])
@pytest.mark.parametrize("taps", [(1.0,), _THREE_TAPS],
                         ids=["unit-tap", "3-tap"])
def test_empty_input_gives_the_delay_and_fir_tail(taps, snr_db, cfo):
    # h * x of no samples is len(h) - 1 zeros behind the d zeros of the
    # delay, plus the noise; a multi-tap FIR raised numpy's "a cannot be
    # empty" (mslink transmit of an empty file writes such a stream)
    cfg = ChannelConfig(snr_db=snr_db, cfo_normalized=cfo, timing_offset=3,
                        fir_taps=taps, seed=8)
    n = 3 + len(taps) - 1
    y = apply_channel(_sig(np.zeros(0)), cfg).samples
    want = np.zeros(n, dtype=complex)
    if snr_db != math.inf:
        w = np.random.default_rng(8).normal(
            scale=np.sqrt(noise_variance(snr_db, 1.0, 1) / 2.0), size=(2, n))
        want.real += w[0]
        want.imag += w[1]
    assert y.tobytes() == want.tobytes()


_REAL_CONVOLVE = np.convolve


def _held_until(ready):
    """A wait of at most 10 s for ready() to hold."""
    deadline = time.monotonic() + 10.0
    while not ready() and time.monotonic() < deadline:
        time.sleep(1e-4)


@pytest.mark.parametrize("in_place", [False, True],
                         ids=["out-of-place", "in-place"])
@pytest.mark.parametrize("first", ["stages", "noise"])
def test_either_landing_order_gives_the_same_bytes(monkeypatch, first,
                                                   in_place):
    # noise is only ever added: out of place a chunk lands whenever it is
    # drawn, before its samples' stage values or after, and float addition
    # commutes; in place only behind the stages.  The helper's draws wait
    # until every stage value is in, or each FIR block waits for the helper
    # to fill its ring; land() records the lanes landed just before each
    # block's stage values go in
    body = 3 * NOISE_CHUNK + 5001
    taps = _THREE_TAPS
    x = _channel_input(body, taps, 5)
    cfg = ChannelConfig(snr_db=10.0, cfo_normalized=0.2, timing_offset=37,
                        complex_gain=0.6 - 0.45j, fir_taps=taps, seed=5)
    want = _pass(x, 8, cfg, in_place)
    assert want == _closed_form_channel(x, 8, cfg).tobytes()
    seen, stages_done = [], threading.Event()
    real_land = NoiseDraw.land

    def land(noise, y, cursor, wait=False):
        if wait:   # every stage value is in
            stages_done.set()
        real_land(noise, y, cursor, wait)
        if not wait:
            seen.append(noise._lanes)

    class DrawAfterTheStages:
        def __init__(self, seed):
            self.rng = _REAL_DEFAULT_RNG(seed)

        def standard_normal(self, out):
            _held_until(stages_done.is_set)
            return self.rng.standard_normal(out=out)

    def convolve_after_the_draw(*args):
        # the ring is full, or the draw has ended (its end mark queued)
        ring = channel._THREAD.ring
        noise, n = ring.active, ring.active.key[-1]
        _held_until(lambda: ring.drawn.qsize() >= 2 or noise._lanes == 2 * n)
        return _REAL_CONVOLVE(*args)

    with monkeypatch.context() as m:
        m.setattr(NoiseDraw, "land", land)
        if first == "stages":
            m.setattr(np.random, "default_rng", DrawAfterTheStages)
        else:
            m.setattr(np, "convolve", convolve_after_the_draw)
        assert _pass(x, 8, cfg, in_place) == want
    edges = [37 + e for e in channel._block_edges(body, len(taps))]
    blocks = list(zip(edges, edges[1:]))
    assert len(seen) == len(blocks)
    if first == "noise" and not in_place:
        # every block's real parts had their noise before their stages
        assert all(lanes >= b for (a, b), lanes in zip(blocks, seen))
    else:
        # no noise ahead of the block: in place, the samples there still
        # hold the input
        assert all(lanes <= a for (a, b), lanes in zip(blocks, seen))


def test_noise_and_stage_values_meet_inside_a_chunk_and_a_block(
        monkeypatch):
    # in place, the stages have written 5 000 samples when the helper has
    # drawn real chunk 0 alone: it reaches past the cursor, so it stays
    # queued and the samples from 5 000 on keep the input; once the stage
    # values are in to its end it lands, added to them
    gate = threading.Semaphore(0)

    class GatedGenerator:
        def __init__(self, seed):
            self.rng = _REAL_DEFAULT_RNG(seed)

        def standard_normal(self, out):
            gate.acquire(timeout=10.0)
            return self.rng.standard_normal(out=out)

    n = NOISE_CHUNK + 100
    cfg = ChannelConfig(snr_db=10.0, seed=6)
    x = _channel_input(n, (1.0,), 7)
    t = _channel_input(n, (1.0,), 6)
    monkeypatch.setattr(np.random, "default_rng", GatedGenerator)
    y = x.copy()
    with NoiseDraw(cfg, 1, n) as noise:
        y[:5000] = t[:5000]
        gate.release()
        ring = channel._THREAD.ring
        _held_until(lambda: ring.drawn.qsize() >= 1)
        noise.land(y, 5000)
        y[5000:NOISE_CHUNK - 1] = t[5000:NOISE_CHUNK - 1]
        noise.land(y, NOISE_CHUNK - 1)
        assert noise._lanes == 0 and ring.drawn.qsize() == 1
        assert y[:NOISE_CHUNK - 1].tobytes() == t[:NOISE_CHUNK - 1].tobytes()
        assert y[NOISE_CHUNK - 1:].tobytes() == x[NOISE_CHUNK - 1:].tobytes()
        y[NOISE_CHUNK - 1:] = t[NOISE_CHUNK - 1:]
        noise.land(y, NOISE_CHUNK)
        assert noise._lanes == NOISE_CHUNK
        for _ in range(3):
            gate.release()
        noise.land(y, n, wait=True)
    w = _REAL_DEFAULT_RNG(6).normal(
        scale=np.sqrt(noise_variance(10.0, 1.0, 1) / 2.0), size=(2, n))
    want = t.astype(complex)
    want.real += w[0]
    want.imag += w[1]
    assert y.tobytes() == want.tobytes()


def test_apply_channel_rejects_every_other_overlap():
    # the channel reads x after it starts writing y, so x may sit in out
    # only exactly at the delay
    d, m = 5, 1000
    cfg = ChannelConfig(timing_offset=d, fir_taps=(1.0, 0.5))
    n = d + m + 1
    base = np.zeros(3 * n, dtype=complex)
    out = base[:n]
    for x in (base[n - 3:n - 3 + m],         # partly inside out
              out[d - 1:d - 1 + m],          # one sample early
              out[d + 1:d + 1 + m],          # one sample late
              base[d:d + 2 * m:2],           # strided from out[d]
              out.view(float)[2 * d:2 * d + m]):  # a float view at out[d]
        with pytest.raises(ValueError, match="share memory"):
            apply_channel(BasebandSignal(samples=x), cfg, out=out)


@pytest.mark.parametrize("n", [
    0, 100, 3 * NOISE_CHUNK + 1, 2 * NOISE_CHUNK + NOISE_CHUNK // 2,
], ids=["empty", "below-one-chunk", "three-chunks-plus-one",
        "imag-starts-inside-a-chunk"])
def test_chunked_noise_equals_one_shot_draw(n):
    # noise is drawn NOISE_CHUNK values at a time, all real parts first; the
    # sum must be the one with a single (2, N) draw, byte for byte
    x = np.exp(1j * np.linspace(0, 5, n))
    cfg = ChannelConfig(snr_db=10.0, seed=4, ref_power=1.0)
    y = apply_channel(_sig(x), cfg).samples
    w = np.random.default_rng(4).normal(
        scale=np.sqrt(noise_variance(10.0, 1.0, 1) / 2.0), size=(2, n))
    want = x.copy()
    want.real += w[0]
    want.imag += w[1]
    assert y.tobytes() == want.tobytes()


class _FailingGenerator:
    """default_rng(seed) whose standard_normal raises on its third call,
    inside a draw of several chunks."""

    def __init__(self, seed):
        self.rng, self.calls = _REAL_DEFAULT_RNG(seed), 0

    def standard_normal(self, out):
        self.calls += 1
        if self.calls == 3:
            raise FloatingPointError("generator failed")
        return self.rng.standard_normal(out=out)


_REAL_DEFAULT_RNG = np.random.default_rng


def _noisy_pass(x, cfg):
    return apply_channel(_sig(x), cfg).samples.tobytes()


def test_a_helper_exception_is_raised_in_the_caller(monkeypatch,
                                                     in_fresh_thread):
    # the helper draws the noise; its exception reaches the pass that
    # reads the chunk, and the helper serves the thread's next pass
    x = np.exp(1j * np.linspace(0, 5, 3 * NOISE_CHUNK))
    cfg = ChannelConfig(snr_db=10.0, seed=4)
    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", _FailingGenerator)
        with pytest.raises(FloatingPointError, match="generator failed"):
            apply_channel(_sig(x), cfg)
    assert _noisy_pass(x, cfg) == in_fresh_thread(_noisy_pass, x, cfg)


def test_a_pass_that_raises_cancels_its_draw(in_fresh_thread):
    # the draw starts at entry; a pass that then rejects its `out` cancels
    # it, so the thread's next pass reads its own noise and no other's
    x = np.exp(1j * np.linspace(0, 5, 3 * NOISE_CHUNK))
    cfg = ChannelConfig(snr_db=10.0, seed=4)
    for bad in range(5):
        with pytest.raises(ValueError, match="out must hold"):
            apply_channel(_sig(x), cfg, out=np.empty(x.size - 1, complex))
    assert _noisy_pass(x, cfg) == in_fresh_thread(_noisy_pass, x, cfg)


def test_a_draw_fits_only_its_own_pass_and_thread(in_fresh_thread):
    x = np.ones(100, dtype=complex)
    cfg = ChannelConfig(snr_db=10.0, seed=4)
    want = _noisy_pass(x, cfg)
    with NoiseDraw(cfg, 1, x.size) as noise:
        # a draw made for another pass is refused, and this one still fits
        with pytest.raises(ValueError, match="drawn for this channel pass"):
            apply_channel(_sig(x), dataclasses.replace(cfg, seed=5),
                          noise=noise)
        assert apply_channel(_sig(x), cfg, noise=noise).samples.tobytes() == (
            want)
    with NoiseDraw(cfg, 1, x.size) as noise:
        # a draw belongs to the thread that made it
        with pytest.raises(ValueError, match="another thread's"):
            in_fresh_thread(apply_channel, _sig(x), cfg, noise=noise)
        NoiseDraw(cfg, 1, x.size)   # a thread's next draw closes this one
        with pytest.raises(ValueError, match="closed"):
            apply_channel(_sig(x), cfg, noise=noise)
    assert _noisy_pass(x, cfg) == want


def _cfo_config(cfo, **kw):
    return ChannelConfig(snr_db=10.0, cfo_normalized=cfo, timing_offset=11,
                         fir_taps=(1.0, 0.3 - 0.2j), seed=9, **kw)


def _frame_sized(n, sps):
    rng = np.random.default_rng(n)
    return np.repeat(np.exp(2j * np.pi * rng.uniform(size=n // sps)), sps)


@pytest.mark.parametrize("out", [None, "nan-buffer"])
def test_memoized_cfo_ramp_repeats_the_closed_form(out):
    _cfo_ramp.cache_clear()
    x = _frame_sized(20000, 8)
    cfg = _cfo_config(0.2)
    want = _closed_form_channel(x, 8, cfg)
    for _ in range(3):   # the first call builds the ramp, the rest reuse it
        buf = None if out is None else np.full(want.size, np.nan, complex)
        y = apply_channel(_sig(x, 8), cfg, out=buf).samples
        assert y.tobytes() == want.tobytes()
    info = _cfo_ramp.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_memoized_cfo_ramp_is_read_only_and_never_aliased():
    _cfo_ramp.cache_clear()
    x = _frame_sized(20000, 1)
    cfg = _cfo_config(-0.2)
    y = apply_channel(_sig(x), cfg).samples
    out = np.empty_like(y)
    assert apply_channel(_sig(x), cfg, out=out).samples is out
    ramp = _cfo_ramp(-0.2, 1, x.size + 1)
    assert _cfo_ramp.cache_info().misses == 1    # the ramp both calls used
    assert not ramp.flags.writeable
    with pytest.raises(ValueError):
        ramp[0] = 0.0
    assert not np.shares_memory(ramp, y)
    assert not np.shares_memory(ramp, out)
    np.testing.assert_array_equal(
        ramp, np.exp(2j * np.pi * -0.2 * np.arange(ramp.size) / CFO_BLOCK))


def test_each_eps_sps_and_length_gets_its_own_ramp():
    _cfo_ramp.cache_clear()
    x = _frame_sized(20000, 8)
    apply_channel(_sig(x, 8), _cfo_config(0.2))
    # a ramp taken from the wrong cache entry fails the closed form
    for cfo, sps, n in ((0.3, 8, x.size), (0.2, 4, x.size),
                        (0.2, 8, x.size - 8)):
        xs = x[:n]
        cfg = _cfo_config(cfo)
        y = apply_channel(_sig(xs, sps), cfg).samples
        assert y.tobytes() == _closed_form_channel(xs, sps, cfg).tobytes()
    assert _cfo_ramp.cache_info().misses == 4


def test_cfo_ramp_cache_stays_small():
    # one ramp holds 16 B per sample: 1.4 MB for the 3.5-frame stream at
    # sps 1, 2.9 MB for one metasurface frame
    _cfo_ramp.cache_clear()
    for eps in (0.1, 0.2, 0.3, 0.4):
        _cfo_ramp(eps, 8, 1000)
    info = _cfo_ramp.cache_info()
    assert info.maxsize <= 2 and info.currsize == info.maxsize
    # zero CFO bypasses the memo
    apply_channel(_sig(np.ones(100)), ChannelConfig(timing_offset=3))
    assert _cfo_ramp.cache_info().misses == 4


@pytest.mark.parametrize("n", [1000, 40_000], ids=["small", "large"])
@pytest.mark.parametrize("sps", [1, 8])
@pytest.mark.parametrize("eps", [0.2, -0.37])
def test_cfo_ramp_built_in_place_equals_the_expression(eps, sps, n):
    # 40 000 samples put the expression's complex temporaries above numpy's
    # 256 KiB threshold for reusing them, 1 000 keep them below it; the
    # ramp built in place must equal the expression either way
    _cfo_ramp.cache_clear()
    ramp = _cfo_ramp(eps, sps, n)
    want = np.exp(2j * np.pi * eps * np.arange(n) / (CFO_BLOCK * sps))
    assert ramp.tobytes() == want.tobytes()
    assert not ramp.flags.writeable


def test_cfo_ramp_build_holds_one_ramp_sized_array(allocation_peak):
    # the ramp (16 B per sample), the sample index it is built from (8 B)
    # and the ufunc's fixed-size cast buffer, and no complex temporary
    _cfo_ramp.cache_clear()
    n = 90_000
    assert allocation_peak(lambda: _cfo_ramp(0.2, 1, n)) <= (
        24 * n + 256 * 1024)


# --- the CFO ramps as cos + j sin ------------------------------------------------

_ORACLE_EPS = (0.0, -0.0, 1e-12, -1e-12, 0.05, -0.05, 0.3, -0.3, 0.4999,
               -0.4999, *np.random.default_rng(2026).uniform(-0.5, 0.5, 4))


@pytest.mark.parametrize("sps", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("eps", _ORACLE_EPS)
def test_cfo_ramps_equal_the_exponentials_they_replace(eps, sps):
    # Both ramps are built as cos + j sin of the exponent's phase.  They
    # must equal, bit for bit, the np.exp expressions they replace on this
    # host, so that a host whose float64 sin and cos differ from its complex
    # exp fails here rather than moving every result.
    n_symbols = FrameLayout.frame_len
    m = np.arange(n_symbols * sps)
    _cfo_ramp.cache_clear()
    want = np.exp(2j * np.pi * eps * m / (CFO_BLOCK * sps))
    assert _cfo_ramp(eps, sps, m.size).tobytes() == want.tobytes()

    # the receiver's ramp, on its index: the first sample of each symbol.
    # Its symbol 0 is exempt as to the sign of its zero imaginary part: that
    # symbol is a sync chip the receiver never reads, the factor is 1 either
    # way, and a factor 1 - 0j moves a product only where the sample has a
    # zero part
    n = sps * np.arange(n_symbols)
    want = np.exp(-2j * np.pi * eps * n / (CFO_BLOCK * sps))
    ramp = cfo_phasors(-2j * np.pi * eps, _ramp_index(sps, n_symbols), sps)
    assert ramp[1:].tobytes() == want[1:].tobytes()
    assert ramp[0] == 1.0 and want[0] == 1.0
    rng = np.random.default_rng(sps)
    x = rng.normal(size=n.size * sps) + 1j * rng.normal(size=n.size * sps)
    out = derotate_and_dump(x, eps, sps)
    # the dumped symbols, symbol 0 included: no sample here has a zero part
    if sps == 1:
        symbols = want * x
    else:
        dump = np.exp(-2j * np.pi * eps * np.arange(sps) / (CFO_BLOCK * sps))
        symbols = (x.reshape(-1, sps) @ (dump / sps)) * want
    assert out.tobytes() == symbols.tobytes()
