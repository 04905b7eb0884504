import math

import numpy as np
import pytest

from mslink.channel import (CFO_BLOCK, NOISE_CHUNK, ChannelConfig,
                            _cfo_ramp, _noise_variance, apply_channel,
                            cfo_phasors)
from mslink.rxchain import _ramp_index, derotate_and_dump
from mslink.txchain import BasebandSignal, FrameLayout


def _sig(samples, sps=1):
    return BasebandSignal(samples=np.asarray(samples, dtype=complex),
                          sample_rate=1.25e6 * sps, samples_per_symbol=sps)


def test_noise_variance_values():
    assert _noise_variance(0.0, 1.0) == 1.0
    assert _noise_variance(3.0103, 1.0) == pytest.approx(0.5, rel=1e-4)
    assert _noise_variance(math.inf, 1.0) == 0.0


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
    with pytest.raises(ValueError):
        ChannelConfig(timing_offset=-1)
    with pytest.raises(ValueError):
        ChannelConfig(fir_taps=())
    with pytest.raises(ValueError):
        ChannelConfig(snr_db=-math.inf)
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
                  fir_taps=(0.0, 1.0))


def _closed_form_channel(x, sps, cfg):
    """The channel written as one expression per stage, every stage always
    applied: the oracle for the fast path, which skips identity stages."""
    taps = np.asarray(cfg.fir_taps, dtype=complex)
    y = np.convolve(x, taps)
    d = cfg.timing_offset
    y = np.concatenate([np.zeros(d, dtype=complex), y])
    n = np.arange(y.size)
    y = y * np.exp(2j * np.pi * cfg.cfo_normalized * (n - d)
                   / (CFO_BLOCK * sps))
    y = y * cfg.complex_gain
    if cfg.snr_db != math.inf:
        var = sps * _noise_variance(cfg.snr_db, cfg.ref_power)
        rng = np.random.default_rng(cfg.seed)
        w = rng.normal(scale=np.sqrt(var / 2.0), size=(2, y.size))
        y = y + w[0] + 1j * w[1]
    return y


@pytest.mark.parametrize("sps", [1, 8])
@pytest.mark.parametrize("snr_db", [math.inf, 10.0])
@pytest.mark.parametrize("offset", [0, 37])
@pytest.mark.parametrize("taps", [(1.0,), (0.7,), (1.0, 0.3 - 0.2j)])
@pytest.mark.parametrize("gain", [1.0, 0.5 * np.exp(1j * np.pi / 4)])
@pytest.mark.parametrize("cfo", [0.0, 0.2])
@pytest.mark.parametrize("out", [None, "nan-buffer"])
def test_channel_bit_exact_against_closed_form(out, cfo, gain, taps, offset,
                                               snr_db, sps):
    # 20000 samples: frame-sized arrays (above numpy's 256 KiB threshold for
    # reusing temporaries), where the oracle's `y * ramp` is evaluated as
    # ramp * y; complex products round differently with the operands swapped
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
    # the FIR runs NOISE_CHUNK outputs at a time, so a stream-sized pass
    # allocates its output and block-sized temporaries only
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
                np.empty(n, dtype=np.complex64), np.empty(n)):
        with pytest.raises(ValueError, match="out must hold 1006 complex128"):
            apply_channel(_sig(x), cfg, out=bad)


@pytest.mark.parametrize("sps", [1, 8])
@pytest.mark.parametrize("offset", [0, 37])
@pytest.mark.parametrize("taps", [(1.0,), (1.0, 0.3 - 0.2j, 0.1j)],
                         ids=["unit-tap", "3-tap"])
@pytest.mark.parametrize("gain", [1.0, 0.5 * np.exp(1j * np.pi / 4)])
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
        scale=np.sqrt(_noise_variance(10.0, 1.0) / 2.0), size=(2, n))
    want = x.copy()
    want.real += w[0]
    want.imag += w[1]
    assert y.tobytes() == want.tobytes()


def _cfo_config(cfo, **kw):
    return ChannelConfig(snr_db=10.0, cfo_normalized=cfo, timing_offset=11,
                         fir_taps=(1.0, 0.3 - 0.2j), seed=9, **kw)


def _frame_sized(n, sps):
    # above numpy's 256 KiB threshold for reusing temporaries, as in
    # test_channel_bit_exact_against_closed_form
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
