import math

import numpy as np
import pytest

from mslink.channel import (CFO_BLOCK, ChannelConfig, apply_channel,
                            noise_variance)
from mslink.txchain import BasebandSignal, FrameLayout


def _sig(samples, sps=1):
    return BasebandSignal(samples=np.asarray(samples, dtype=complex),
                          sample_rate=1.25e6 * sps, samples_per_symbol=sps)


def test_noise_variance_values():
    assert noise_variance(0.0, 1.0) == 1.0
    assert noise_variance(3.0103, 1.0) == pytest.approx(0.5, rel=1e-4)
    assert noise_variance(math.inf, 1.0) == 0.0


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


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(cfo_normalized=0.5)
    with pytest.raises(ValueError):
        ChannelConfig(timing_offset=-1)
    with pytest.raises(ValueError):
        ChannelConfig(fir_taps=())
    with pytest.raises(ValueError):
        ChannelConfig(snr_db=-math.inf)


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
        p_ref = cfg.ref_power
        if p_ref is None:
            p_ref = float(np.mean(np.abs(x) ** 2)) if x.size else 0.0
        var = sps * noise_variance(cfg.snr_db, p_ref)
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
def test_channel_bit_exact_against_closed_form(cfo, gain, taps, offset,
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
    y = apply_channel(_sig(x, sps), cfg).samples
    np.testing.assert_array_equal(y, _closed_form_channel(x_before, sps, cfg))
    np.testing.assert_array_equal(x, x_before)
    assert not np.shares_memory(y, x)
