import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslink.channel import ChannelConfig, apply_channel
from mslink.errors import (DegeneratePilotError, SingularChannelError,
                           SyncNotFoundError)
from mslink.rxchain import (correct_cfo, demodulate, derotate_and_dump,
                            estimate_cfo_cp, frame_sync, integrate_and_dump,
                            ls_channel_estimate, ls_channel_estimate_taps,
                            measure_snr, nearest_symbol_indices,
                            receive_frame, zf_equalize)
from mslink.txchain import (FrameLayout, build_frame, build_sync_sequence,
                            ideal_qpsk, impaired_qpsk, synthesize_baseband)


def _frame_signal(seed=0, sps=1, pilot_seed=None):
    payload = np.random.default_rng(seed).integers(0, 2, 36864)
    kwargs = {} if pilot_seed is None else {"pilot_seed": pilot_seed}
    frame = build_frame(payload, **kwargs)
    return payload, synthesize_baseband(frame, ideal_qpsk(), sps)


# --- frame sync ----------------------------------------------------------------

def test_frame_sync_noiseless_at_zero():
    _, sig = _frame_signal()
    res = frame_sync(sig, build_sync_sequence())
    assert res.frame_start == 0
    assert res.threshold_passed


def test_frame_sync_finds_timing_offset():
    _, sig = _frame_signal()
    rx = apply_channel(sig, ChannelConfig(timing_offset=137))
    res = frame_sync(rx, build_sync_sequence(), search_window=(0, 400))
    assert res.frame_start == 137


def test_frame_sync_raises_on_noise_only():
    noise = np.random.default_rng(0).normal(size=(2, 4000))
    sig = type(_frame_signal()[1])(samples=noise[0] + 1j * noise[1],
                                   sample_rate=1.25e6, samples_per_symbol=1)
    with pytest.raises(SyncNotFoundError):
        frame_sync(sig, build_sync_sequence())


def test_frame_sync_detection_rate_at_zero_db():
    _, sig = _frame_signal(seed=1)
    rng = np.random.default_rng(123)
    hits = 0
    trials = 1000
    for t in range(trials):
        offset = int(rng.integers(0, 500))
        rx = apply_channel(sig, ChannelConfig(snr_db=0.0,
                                              timing_offset=offset,
                                              seed=t, ref_power=1.0))
        try:
            res = frame_sync(rx, build_sync_sequence(), (0, 600))
            hits += res.frame_start == offset
        except SyncNotFoundError:
            pass
    assert hits >= 0.99 * trials


# --- CFO estimation ------------------------------------------------------------

def test_cfo_estimate_zero_on_clean_frame():
    _, sig = _frame_signal()
    assert abs(estimate_cfo_cp(sig.samples)) < 1e-12


def test_cfo_estimate_exact_when_noiseless():
    _, sig = _frame_signal()
    rx = apply_channel(sig, ChannelConfig(cfo_normalized=0.05))
    assert estimate_cfo_cp(rx.samples) == pytest.approx(0.05, abs=1e-9)


def test_cfo_estimator_bias_at_high_snr():
    _, sig = _frame_signal(seed=2)
    for eps in (-0.3, -0.1, 0.1, 0.3):
        errors = []
        for t in range(100):
            rx = apply_channel(sig, ChannelConfig(snr_db=20.0,
                                                  cfo_normalized=eps,
                                                  seed=t, ref_power=1.0))
            errors.append(estimate_cfo_cp(rx.samples) - eps)
        assert abs(np.mean(errors)) < 1e-4


def test_correct_cfo_identities():
    x = np.exp(1j * np.linspace(0, 3, 500))
    np.testing.assert_array_equal(correct_cfo(x, 0.0), x)
    applied = x * np.exp(2j * np.pi * 0.2 * np.arange(x.size) / 2048)
    np.testing.assert_allclose(correct_cfo(applied, 0.2), x, atol=1e-12)
    np.testing.assert_allclose(correct_cfo(correct_cfo(x, 0.1), 0.1),
                               correct_cfo(x, 0.2), atol=1e-12)


def test_cfo_estimate_rejects_short_input():
    with pytest.raises(ValueError):
        estimate_cfo_cp(np.ones(100))


# --- channel estimation / equalization ------------------------------------------

def _pilot_spectrum(seed=0):
    rng = np.random.default_rng(seed)
    return np.fft.fft(ideal_qpsk().points[rng.integers(0, 4, 2048)])


def test_ls_estimate_flat_gain():
    x = _pilot_spectrum()
    g = 0.7 - 0.2j
    h = ls_channel_estimate(g * x, x)
    np.testing.assert_allclose(h, np.full(2048, g), atol=1e-12)


def test_ls_estimate_pure_rotation():
    x = _pilot_spectrum()
    rot = np.exp(1j * 0.6)
    h = ls_channel_estimate(rot * x, x)
    np.testing.assert_allclose(h, np.full(2048, rot), atol=1e-12)


def test_ls_estimate_three_tap_fir():
    rng = np.random.default_rng(4)
    sym = ideal_qpsk().points[rng.integers(0, 4, 2048)]
    taps = np.array([1.0, 0.5 - 0.3j, 0.2j])
    h_true = np.fft.fft(taps, 2048)
    y = np.fft.ifft(np.fft.fft(sym) * h_true)  # circular channel
    h = ls_channel_estimate(np.fft.fft(y), np.fft.fft(sym))
    np.testing.assert_allclose(h, h_true, atol=1e-9)


def test_ls_estimate_rejects_zero_bin():
    x = np.ones(2048, dtype=complex)
    x[100] = 0.0
    with pytest.raises(DegeneratePilotError):
        ls_channel_estimate(x.copy(), x)


def test_ls_taps_estimate_matches_short_channel():
    rng = np.random.default_rng(5)
    sym = ideal_qpsk().points[rng.integers(0, 4, 2048)]
    taps = np.array([1.0, -0.4 + 0.2j, 0.1, 0.05j])
    h_true = np.fft.fft(taps, 2048)
    y = np.fft.ifft(np.fft.fft(sym) * h_true)
    h = ls_channel_estimate_taps(np.fft.fft(y), np.fft.fft(sym), n_taps=8)
    np.testing.assert_allclose(h, h_true, atol=1e-9)


def test_zf_equalize_identity_with_flat_channel():
    rng = np.random.default_rng(6)
    y = rng.normal(size=2048) + 1j * rng.normal(size=2048)
    np.testing.assert_allclose(zf_equalize(y, np.ones(2048)), y, atol=1e-12)


def test_zf_equalize_inverts_fir_exactly():
    rng = np.random.default_rng(7)
    h = np.fft.fft(np.array([1.0, 0.3, -0.2j]), 2048)
    for shape in ((2048,), (9, 2048)):
        sym = ideal_qpsk().points[rng.integers(0, 4, shape)]
        y = np.fft.ifft(np.fft.fft(sym) * h)
        eq = zf_equalize(y, h)
        np.testing.assert_allclose(eq, sym, atol=1e-9)
    # a stack of blocks is equalized exactly as block by block
    np.testing.assert_array_equal(eq, [zf_equalize(row, h) for row in y])


def test_zf_equalize_preserves_noise_variance_with_flat_channel():
    rng = np.random.default_rng(8)
    w = rng.normal(size=2048) + 1j * rng.normal(size=2048)
    out = zf_equalize(w, np.ones(2048))
    assert np.var(out) == pytest.approx(np.var(w), rel=0.01)


def test_zf_equalize_rejects_singular_channel():
    h = np.ones(2048, dtype=complex)
    h[5] = 0.0
    with pytest.raises(SingularChannelError,
                       match="channel estimate has a zero bin"):
        zf_equalize(np.ones(2048, dtype=complex), h)


def test_integrate_and_dump():
    x = np.repeat(np.array([1 + 1j, -2j, 3.0]), 4)
    np.testing.assert_allclose(integrate_and_dump(x, 4),
                               [1 + 1j, -2j, 3.0])
    with pytest.raises(ValueError):
        integrate_and_dump(np.ones(10), 4)


@given(eps=st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True),
       sps=st.sampled_from([1, 2, 8]),
       n_symbols=st.integers(1, 22500),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_derotate_and_dump_matches_correct_then_dump(eps, sps, n_symbols,
                                                     seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n_symbols * sps) + 1j * rng.normal(size=n_symbols * sps)
    want = integrate_and_dump(correct_cfo(x, eps, sps), sps)
    np.testing.assert_allclose(derotate_and_dump(x, eps, sps), want,
                               rtol=0, atol=1e-12)


def test_derotate_and_dump_rejects_partial_symbol():
    with pytest.raises(ValueError):
        derotate_and_dump(np.ones(10), 0.1, 4)


# --- demodulation ----------------------------------------------------------------

def test_demodulate_exact_points():
    pts = ideal_qpsk().points
    bits = demodulate(pts)
    assert list(bits) == [0, 0, 0, 1, 1, 1, 1, 0]


def test_demodulate_scaled_point():
    assert list(demodulate([1.1 * ideal_qpsk().points[1]])) == [0, 1]


@given(st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False,
                                   allow_infinity=False), min_size=1,
                max_size=64))
@settings(max_examples=50, deadline=None)
def test_nearest_symbol_matches_brute_force(symbols):
    pts = ideal_qpsk().points
    got = nearest_symbol_indices(np.array(symbols))
    for s, k in zip(symbols, got):
        dists = [abs(s - p) for p in pts]
        # 1-ulp slack: the vectorized metric may round differently
        assert dists[k] <= min(dists) * (1 + 1e-12) + 1e-300


def test_nearest_symbol_tie_breaks_low():
    # the origin is equidistant from all four points; index 0 wins
    assert nearest_symbol_indices(np.array([0.0 + 0.0j]))[0] == 0


def _argmin_slicer(symbols):
    pts = ideal_qpsk().points
    return np.argmin(np.abs(symbols[:, None] - pts[None, :]), axis=1)


def test_quadrant_slicer_equals_argmin_at_the_edges():
    # each coordinate on an axis, 1 ulp either side of it, or elsewhere,
    # at magnitudes from subnormal to 1e8
    coords = set()
    for v in (0.0, 5e-324, 1e-300, 1e-9, 0.3, 1.0, 3.0, 1e8):
        for c in (v, -v):
            coords |= {c, np.nextafter(c, np.inf), np.nextafter(c, -np.inf)}
    c = np.array(sorted(coords))
    grid = (c[:, None] + 1j * c[None, :]).ravel()
    ring = 1e8 * np.exp(2j * np.pi * np.arange(64) / 64)
    symbols = np.concatenate([grid, ring, [1e8 + 1j, 1e8 - 1j, 1 + 1e8j,
                                           -1 + 1e8j, 0.0j]])
    np.testing.assert_array_equal(nearest_symbol_indices(symbols),
                                  _argmin_slicer(symbols))
    assert nearest_symbol_indices(symbols).dtype == np.intp


@given(st.lists(st.complex_numbers(max_magnitude=1e200, allow_nan=False,
                                   allow_infinity=False), min_size=1,
                max_size=64))
@settings(max_examples=200, deadline=None)
def test_quadrant_slicer_equals_argmin(symbols):
    s = np.array(symbols, dtype=complex)
    np.testing.assert_array_equal(nearest_symbol_indices(s),
                                  _argmin_slicer(s))


def test_slicer_keeps_argmin_for_other_constellations():
    pts = impaired_qpsk(200.0, [1.0, 0.9, 0.8, 0.7])
    rng = np.random.default_rng(3)
    s = rng.normal(size=500) + 1j * rng.normal(size=500)
    want = np.argmin(np.abs(s[:, None] - pts.points[None, :]), axis=1)
    np.testing.assert_array_equal(nearest_symbol_indices(s, pts), want)


# --- SNR measurement -------------------------------------------------------------

def test_measure_snr_exact_is_infinite():
    idx = np.array([0, 1, 2, 3])
    assert measure_snr(ideal_qpsk().points[idx], idx) == np.inf


def test_measure_snr_known_noise():
    rng = np.random.default_rng(9)
    idx = rng.integers(0, 4, 100_000)
    ref = ideal_qpsk().points[idx]
    noise = rng.normal(scale=np.sqrt(0.05), size=(2, idx.size))
    eq = ref + noise[0] + 1j * noise[1]
    assert measure_snr(eq, idx) == pytest.approx(10.0, abs=0.2)


def test_measure_snr_rejects_empty():
    with pytest.raises(ValueError):
        measure_snr(np.array([]), np.array([], dtype=int))


# --- full receiver ---------------------------------------------------------------

def test_receive_frame_clean_loopback():
    payload, sig = _frame_signal(seed=10)
    bits, diag = receive_frame(sig)
    np.testing.assert_array_equal(bits, payload)
    assert diag.evm_percent < 0.01


def test_receive_frame_absorbs_gain_and_rotation():
    payload, sig = _frame_signal(seed=11)
    g = 0.5 * np.exp(1j * np.pi / 4)
    rx = apply_channel(sig, ChannelConfig(complex_gain=g))
    bits, _ = receive_frame(rx)
    np.testing.assert_array_equal(bits, payload)


# eps, timing offset and FIR taps in samples, sps.  The sps=8 rows send a
# CFO through the oversampled receiver's symbol-rate derotation; their
# offsets are not whole symbols.  The ids keep the sps=1 rows' names.
_IDENTITY_CASES = [
    (0.0, 0, (1.0,), 1),
    (0.35, 11, (1.0,), 1),
    (-0.2, 300, (1.0, 0.4 - 0.2j, -0.1j), 1),
    (0.1, 64, (0.9 + 0.1j, 0.2), 1),
    (0.35, 11, (1.0,), 8),
    (-0.2, 300, (1.0, 0.4 - 0.2j, -0.1j), 8),
    (0.1, 61, (0.9 + 0.1j, 0.2), 8),
    (-0.45, 83, (0.8, 0.3j, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, -0.2), 8),
]


@pytest.mark.parametrize("eps,offset,taps,sps", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}-taps{i}"
                 + ("" if case[3] == 1 else f"-sps{case[3]}"))
    for i, case in enumerate(_IDENTITY_CASES)])
def test_receive_frame_noiseless_end_to_end_identity(eps, offset, taps, sps):
    payload, sig = _frame_signal(seed=12, sps=sps)
    rx = apply_channel(sig, ChannelConfig(cfo_normalized=eps,
                                          timing_offset=offset,
                                          fir_taps=taps))
    bits, _ = receive_frame(rx, search_window=(0, offset + 16))
    np.testing.assert_array_equal(bits, payload)


def test_receive_frame_oversampled_loopback():
    payload, sig = _frame_signal(seed=13, sps=8)
    bits, _ = receive_frame(sig)
    np.testing.assert_array_equal(bits, payload)


def test_receive_frame_custom_pilot_seed():
    payload, sig = _frame_signal(seed=14, pilot_seed=77)
    bits, _ = receive_frame(sig, pilot_seed=77)
    np.testing.assert_array_equal(bits, payload)
