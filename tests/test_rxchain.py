import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslink.channel import ChannelConfig, apply_channel
from mslink.errors import (DegeneratePilotError, SingularChannelError,
                           SyncNotFoundError)
from mslink.harness import (ExperimentConfig, _channel, run_frame,
                            transmit_frame)
from mslink.rxchain import (AXIS_TOLERANCE, PHASE_LOOP_PASSES, RAMP_BLOCK,
                            SLICER_BLOCK, SYNC_BLOCK_REPLICAS, SYNC_THRESHOLD,
                            RxDiagnostics,
                            _QPSK_POINTS, _argmin_distance,
                            _correlation_blocks, correct_cfo,
                            derotate_and_dump, estimate_cfo_cp, frame_sync,
                            integrate_and_dump, ls_channel_estimate,
                            ls_channel_estimate_taps, nearest_symbol_indices,
                            phase_loop, receive_frame, zf_equalize)
from mslink.txchain import (FrameLayout, build_frame, build_pilot_sequence,
                            build_sync_sequence, demap_symbols, ideal_qpsk,
                            synthesize_baseband)


def _frame_signal(seed=0, sps=1):
    payload = np.random.default_rng(seed).integers(0, 2, 36864)
    frame = build_frame(payload)
    return payload, synthesize_baseband(frame, ideal_qpsk(), sps)


# --- frame sync ----------------------------------------------------------------

def test_frame_sync_noiseless_at_zero():
    _, sig = _frame_signal()
    res = frame_sync(sig)
    assert res.frame_start == 0
    # unit-power symbols: the peak is the ideal one, the replica's energy,
    # so it clears the threshold by 1 / SYNC_THRESHOLD
    assert res.peak_metric == pytest.approx(420.0)
    assert res.margin == pytest.approx(1.0 / SYNC_THRESHOLD)
    # so faint that the segment's power, and with it the threshold,
    # underflows to 0, while the correlation peak does not
    faint = type(sig)(sig.samples * 2.0 ** -560, sig.sample_rate,
                      sig.samples_per_symbol)
    res = frame_sync(faint)
    assert (res.frame_start, res.margin) == (0, math.inf)


def test_frame_sync_finds_timing_offset():
    _, sig = _frame_signal()
    rx = apply_channel(sig, ChannelConfig(timing_offset=137))
    res = frame_sync(rx, search_window=(0, 400))
    assert res.frame_start == 137


def test_frame_sync_raises_on_noise_only():
    noise = np.random.default_rng(0).normal(size=(2, 4000))
    sig = type(_frame_signal()[1])(samples=noise[0] + 1j * noise[1],
                                   sample_rate=1.25e6, samples_per_symbol=1)
    with pytest.raises(SyncNotFoundError):
        frame_sync(sig)


@pytest.mark.parametrize("sps", [1, 8])
def test_frame_sync_raises_on_silence_and_nan(sps):
    # silence has a zero peak against a zero threshold; one NaN sample makes
    # every correlation lag NaN
    _, sig = _frame_signal(sps=sps)
    silent = type(sig)(samples=np.zeros_like(sig.samples),
                       sample_rate=sig.sample_rate, samples_per_symbol=sps)
    with pytest.raises(SyncNotFoundError, match="correlation peak 0 "):
        frame_sync(silent)
    samples = sig.samples.copy()
    samples[1000] = complex(np.nan, 0.0)
    nan = type(sig)(samples=samples, sample_rate=sig.sample_rate,
                    samples_per_symbol=sps)
    with pytest.raises(SyncNotFoundError, match="correlation peak nan "):
        frame_sync(nan)
    assert frame_sync(sig).frame_start == 0


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
            res = frame_sync(rx, (0, 600))
            hits += res.frame_start == offset
        except SyncNotFoundError:
            pass
    assert hits >= 0.99 * trials


# --- blockwise frame sync against the single FFT -------------------------------

def _sync_replica(sps):
    return np.repeat(np.where(build_sync_sequence() > 0, _QPSK_POINTS[0],
                              _QPSK_POINTS[2]), sps)


def _oracle_correlation(seg, rep, n_lags):
    """|cross-correlation| at lags 0..n_lags-1 from one circular FFT over a
    power-of-two length >= the segment: the reference the blocks must
    reproduce."""
    nfft = 1 << (seg.size - 1).bit_length()
    spec = np.fft.fft(seg, nfft) * np.conj(np.fft.fft(rep, nfft))
    return np.abs(np.fft.ifft(spec)[:n_lags])


def _oracle_sync(rx, w0, w1):
    """frame_sync's result for the window (w0, w1) from the single-FFT
    correlation: (frame_start, peak, margin), or None where it finds no
    sync."""
    rep = _sync_replica(rx.samples_per_symbol)
    seg = rx.samples[w0:w1 - 1 + rep.size]
    corr = _oracle_correlation(seg, rep, w1 - w0)
    k = int(np.argmax(corr))
    peak = float(corr[k])
    ideal = (math.sqrt(rep.size * float(np.mean(np.abs(seg) ** 2)))
             * float(np.linalg.norm(rep)))
    if not (peak > 0.0 and peak >= SYNC_THRESHOLD * ideal):
        return None
    return w0 + k, peak, peak / (SYNC_THRESHOLD * ideal)


def _sync_step(sps):
    """New lags per full correlation block."""
    L = FrameLayout.sync_len * sps
    return (1 << (SYNC_BLOCK_REPLICAS * L - 1).bit_length()) - L + 1


@functools.cache
def _sync_frame(sps):
    return _frame_signal(seed=4, sps=sps)[1]


W0 = 100   # the search window's first start


@pytest.mark.parametrize("sps", [1, 2, 8])
@pytest.mark.parametrize("snr_db", [-5.0, 0.0, 20.0, math.inf])
@pytest.mark.parametrize("blocks", ["one", "two", "two-and-a-part"])
@pytest.mark.parametrize("seam", [-1, 0, 1])
def test_frame_sync_blocks_equal_the_single_fft(sps, snr_db, blocks, seam):
    # the frame starts a lag before, on, or after the first block seam (the
    # last three lags of a one-block window); windows of one block, exactly
    # two, and two and a third
    step = _sync_step(sps)
    n_lags = {"one": step, "two": 2 * step,
              "two-and-a-part": 2 * step + step // 3}[blocks]
    lag = step + seam - (2 if blocks == "one" else 0)
    rx = apply_channel(_sync_frame(sps), ChannelConfig(
        snr_db=snr_db, timing_offset=W0 + lag, seed=sps))
    want = _oracle_sync(rx, W0, W0 + n_lags)
    if want is None:
        with pytest.raises(SyncNotFoundError):
            frame_sync(rx, (W0, W0 + n_lags))
        return
    got = frame_sync(rx, (W0, W0 + n_lags))
    assert got.frame_start == want[0]
    assert got.peak_metric == pytest.approx(want[1], rel=1e-12, abs=0)
    assert got.margin == pytest.approx(want[2], rel=1e-12, abs=0)
    assert got.margin >= 1.0
    if snr_db >= 0.0:
        assert got.frame_start == W0 + lag


@pytest.mark.parametrize("sps", [1, 2, 8])
@pytest.mark.parametrize("n_lags", [1, 500, "step", "step+1", "2step",
                                    "3step-7"])
def test_correlation_blocks_tile_the_window(sps, n_lags):
    # the blocks cover every lag once, in order; a window of one block is
    # the single FFT to the byte, and a wider one agrees with it to rounding
    step = _sync_step(sps)
    n_lags = {"step": step, "step+1": step + 1, "2step": 2 * step,
              "3step-7": 3 * step - 7}.get(n_lags, n_lags)
    rep = _sync_replica(sps)
    rng = np.random.default_rng(sps)
    re, im = rng.normal(size=(2, n_lags + rep.size - 1))
    seg = re + 1j * im
    blocks = list(_correlation_blocks(seg, sps, n_lags))
    assert [lag for lag, _ in blocks] == list(range(0, n_lags, step))
    got = np.concatenate([corr for _, corr in blocks])
    want = _oracle_correlation(seg, rep, n_lags)
    if n_lags <= step:
        assert len(blocks) == 1
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * want.max())


def test_a_stream_first_search_takes_seven_blocks():
    # blocks of 4096 points at sps 1 and 32768 at sps 8 (the replica is 420
    # and 3360 samples long); a frame length of starts, the first search of
    # a stream, takes seven of them at either rate
    assert (_sync_step(1), _sync_step(8)) == (4096 - 419, 32768 - 3359)
    for sps in (1, 8):
        rep = _sync_replica(sps)
        n = FrameLayout.frame_len * sps
        seg = np.ones(n + rep.size - 1, dtype=complex)
        assert len(list(_correlation_blocks(seg, sps, n))) == 7


def test_frame_sync_over_a_wide_window_allocates_a_few_blocks(
        allocation_peak):
    # 180 000 starts at sps 8: one FFT over the window would take 262 144
    # points (4.2 MB per complex array); the blocks take 32 768
    rx = apply_channel(_sync_frame(8), ChannelConfig(timing_offset=5000))
    assert frame_sync(rx, (0, 180_000)).frame_start == 5000
    assert allocation_peak(lambda: frame_sync(rx, (0, 180_000))) < 5e6


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


@pytest.mark.parametrize("n", [1000, 22500])
def test_correct_cfo_prefix_does_not_depend_on_length(n):
    # numpy evaluates `r * np.exp(...)` with its operands swapped once it
    # reuses the temporary's buffer (above 256 KiB), and swapped complex
    # products can round differently: the order must not follow the length
    rng = np.random.default_rng(3)
    x = rng.normal(size=45000) + 1j * rng.normal(size=45000)
    full = correct_cfo(x, 0.37)
    assert correct_cfo(x[:n], 0.37).tobytes() == full[:n].tobytes()


def test_cfo_estimate_rejects_short_input():
    with pytest.raises(ValueError):
        estimate_cfo_cp(np.ones(100))
    lay = FrameLayout
    for sps in (1, 8):
        # one sample short of the first complete subframe
        n = (lay.sync_len + lay.cp_len + lay.fft_len) * sps
        estimate_cfo_cp(np.ones(n), sps)
        with pytest.raises(ValueError, match="no complete subframe"):
            estimate_cfo_cp(np.ones(n - 1), sps)


def _cfo_sum_oracle(r, sps):
    # every complete subframe of every frame, in order, summed from 0j
    lay = FrameLayout
    N, cp = lay.fft_len * sps, lay.cp_len * sps
    acc = 0.0 + 0.0j
    for f in range(r.size // (lay.frame_len * sps) + 1):
        for j in range(lay.n_subframes):
            cp0 = (f * lay.frame_len + lay.sync_len + j * lay.subframe_len) * sps
            if cp0 + cp + N <= r.size:
                acc += np.vdot(r[cp0:cp0 + cp], r[cp0 + N:cp0 + cp + N])
    return float(np.angle(acc) / (2.0 * np.pi))


@pytest.mark.parametrize("sps", [1, 8])
@pytest.mark.parametrize("frames", [0.3, 1.0, 1.05, 1.9, 2.0])
def test_cfo_estimate_sums_every_complete_subframe(sps, frames):
    rng = np.random.default_rng(sps)
    n = int(frames * FrameLayout.frame_len * sps)
    r = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert estimate_cfo_cp(r, sps) == _cfo_sum_oracle(r, sps)


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
    # the fit is against the frame's own pilot on the ideal QPSK points
    sym = ideal_qpsk().points[build_pilot_sequence()]
    taps = np.array([1.0, -0.4 + 0.2j, 0.1, 0.05j])
    h_true = np.fft.fft(taps, 2048)
    y = np.fft.ifft(np.fft.fft(sym) * h_true)
    h = ls_channel_estimate_taps(np.fft.fft(y), n_taps=8)
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


def test_zf_equalize_into_out_equals_fresh():
    rng = np.random.default_rng(9)
    y = rng.normal(size=(9, 2208)) + 1j * rng.normal(size=(9, 2208))
    blocks = y[:, 160:]   # strided, as the receiver's CP-free bodies are
    h = np.fft.fft(np.array([1.0, 0.3, -0.2j]), 2048)
    # bit for bit the expression the in-place transforms replace
    assert (zf_equalize(blocks, h).tobytes()
            == np.fft.ifft(np.fft.fft(blocks) / h).tobytes())


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


@pytest.mark.parametrize("sps", [1, 8])
def test_derotate_and_dump_into_buffers_equals_fresh(sps):
    rng = np.random.default_rng(sps)
    x = rng.normal(size=22500 * sps) + 1j * rng.normal(size=22500 * sps)
    out = np.full(22500, np.nan, dtype=complex)
    got = derotate_and_dump(x, 0.37, sps, out=out)
    assert got is out
    assert out.tobytes() == derotate_and_dump(x, 0.37, sps).tobytes()
    # bit for bit the expressions the buffered ufuncs replace, operand
    # order included, across the ramp's blocks and the short last one
    n = sps * np.arange(22500)
    want_ramp = np.exp(-2j * np.pi * 0.37 * n / (2048 * sps))
    if sps == 1:
        want = want_ramp * x
    else:
        dump = np.exp(-2j * np.pi * 0.37 * np.arange(sps) / (2048 * sps))
        want = (x.reshape(-1, sps) @ (dump / sps)) * want_ramp
    assert out.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="out must hold 22500 complex128"):
        derotate_and_dump(x, 0.37, sps, out=np.empty(22499, dtype=complex))


def test_derotate_and_dump_builds_the_sps_1_ramp_in_out(allocation_peak):
    # the sps-1 ramp is built in the symbols' array: the same bytes as a
    # fresh call, and nothing ramp-sized allocated
    rng = np.random.default_rng(11)
    x = rng.normal(size=22500) + 1j * rng.normal(size=22500)
    out = np.full(22500, np.nan, dtype=complex)
    assert derotate_and_dump(x, 0.37, 1, out=out) is out
    assert out.tobytes() == derotate_and_dump(x, 0.37, 1).tobytes()
    assert allocation_peak(
        lambda: derotate_and_dump(x, 0.37, 1, out=out)) < 4096


def test_derotate_and_dump_above_sps_1_holds_one_ramp_block(allocation_peak):
    # above sps 1 the ramp is built RAMP_BLOCK symbols at a time in one
    # temporary, so a frame's dump allocates that block and no frame-sized
    # ramp
    rng = np.random.default_rng(12)
    x = rng.normal(size=180_000) + 1j * rng.normal(size=180_000)
    out = np.empty(22500, dtype=complex)
    derotate_and_dump(x, 0.37, 8, out=out)   # the ramp index, built once
    peak = allocation_peak(lambda: derotate_and_dump(x, 0.37, 8, out=out))
    assert 16 * RAMP_BLOCK <= peak < 16 * RAMP_BLOCK + 4096


def test_derotate_and_dump_rejects_partial_symbol():
    with pytest.raises(ValueError):
        derotate_and_dump(np.ones(10), 0.1, 4)


# --- demodulation ----------------------------------------------------------------

def test_demodulate_exact_points():
    pts = ideal_qpsk().points
    bits = demap_symbols(nearest_symbol_indices(pts))
    assert list(bits) == [0, 0, 0, 1, 1, 1, 1, 0]


def test_demodulate_scaled_point():
    s = np.array([1.1 * ideal_qpsk().points[1]])
    assert list(demap_symbols(nearest_symbol_indices(s))) == [0, 1]


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


def test_quadrant_slicer_equals_argmin_on_signed_zero_nan_and_inf():
    # the quadrant is read from the sign bits, which -0.0 and a negative NaN
    # set although neither is below zero; such symbols, and infinite ones,
    # must still get the argmin's decision
    specials = [0.0, -0.0, 5e-324, -5e-324, 0.7, -0.7, np.inf, -np.inf,
                np.nan, -np.nan]
    grid = np.empty((len(specials), len(specials)), dtype=complex)
    grid.real, grid.imag = np.c_[specials], np.r_[specials]
    grid = grid.ravel()
    for s in (grid, np.concatenate([grid, 0.3 - 0.2j * np.ones(3000)])):
        np.testing.assert_array_equal(nearest_symbol_indices(s),
                                      _argmin_slicer(s))
    # one non-finite symbol must not change the decisions of its block-mates
    rng = np.random.default_rng(4)
    s = rng.normal(size=3000) + 1j * rng.normal(size=3000)
    s[[5, 2100]] = [complex(np.nan, 1.0), complex(-np.inf, -0.0)]
    np.testing.assert_array_equal(nearest_symbol_indices(s),
                                  _argmin_slicer(s))


def test_quadrant_slicer_on_non_contiguous_input():
    rng = np.random.default_rng(8)
    base = rng.normal(size=(3, 5000)) + 1j * rng.normal(size=(3, 5000))
    base[0, 10] = -0.0 + 0.4j
    for s in (base[0, ::2], base[:, ::3], base.T, base[::-1, 1:],
              base.real, base.astype(np.complex64)):
        want = _argmin_slicer(np.asarray(s, dtype=complex).ravel())
        got = nearest_symbol_indices(s)
        assert got.shape == s.shape
        np.testing.assert_array_equal(got.ravel(), want)


def test_slicer_decides_a_frame_of_symbols_block_by_block():
    # a frame's 18 432 data symbols are decided SLICER_BLOCK at a time; put
    # symbols within AXIS_TOLERANCE of an axis on both sides of a block edge
    # and at the very end, where a block's argmin fallback must land; the
    # first three are decided otherwise by their quadrant
    rng = np.random.default_rng(11)
    n = 9 * 2048
    s = 0.8 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    tiny = 0.5 * AXIS_TOLERANCE
    for k, v in ((SLICER_BLOCK - 1, -1e-300 + 0.5j),
                 (SLICER_BLOCK, 0.5 - 1e-300j), (n - 1, -0.5 - 1e-300j),
                 (n - 2, -tiny - 0.4j)):
        s[k] = v
    pts = ideal_qpsk().points
    want = _argmin_distance(s, pts)
    np.testing.assert_array_equal(nearest_symbol_indices(s), want)
    out = np.full(n, -1, dtype=np.intp)
    assert nearest_symbol_indices(s, out=out) is out
    np.testing.assert_array_equal(out, want)
    intp = np.dtype(np.intp)
    with pytest.raises(ValueError, match=f"out must hold {n} {intp}"):
        nearest_symbol_indices(s, out=np.empty(n, dtype=np.int32))


# --- full receiver ---------------------------------------------------------------

def test_receive_frame_clean_loopback():
    payload, sig = _frame_signal(seed=10)
    bits, diag = receive_frame(sig, est_taps=8)
    np.testing.assert_array_equal(bits, payload)
    assert diag.evm_percent < 0.01


def test_receive_frame_absorbs_gain_and_rotation():
    payload, sig = _frame_signal(seed=11)
    g = 0.5 * np.exp(1j * np.pi / 4)
    rx = apply_channel(sig, ChannelConfig(complex_gain=g))
    bits, _ = receive_frame(rx, est_taps=8)
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
    bits, _ = receive_frame(rx, search_window=(0, offset + 16), est_taps=8)
    np.testing.assert_array_equal(bits, payload)


def _evm_ratio(eq) -> float:
    """The EVM by its defining expression: RMS error against the nearest
    ideal-QPSK points over their RMS magnitude."""
    pts = ideal_qpsk().points
    err = eq - pts[nearest_symbol_indices(eq)]
    return float(np.sqrt(np.mean(np.abs(err) ** 2)
                         / np.mean(np.abs(pts) ** 2)))


@pytest.mark.parametrize("sps", [1, 8])
def test_receive_frame_in_reused_buffers_equals_fresh(thread_scratch,
                                                      in_fresh_thread, sps):
    # this thread's buffers, left full of another frame's values and then of
    # values no frame writes, must not change a result or be returned; the
    # fresh side runs in a thread of its own, in newly allocated buffers
    for seed in (1, 2):
        _, sig = _frame_signal(seed=seed, sps=sps)
        rx = apply_channel(sig, ChannelConfig(
            snr_db=12.0, cfo_normalized=0.2, seed=seed,
            fir_taps=(1.0, 0.3 - 0.2j)))
        if seed == 2:
            buffers = thread_scratch()
            for buf in buffers.values():
                buf.fill(np.nan if buf.dtype.kind in "fc" else -7)
        bits, diag = receive_frame(rx, est_taps=8)
        want_bits, want = in_fresh_thread(receive_frame, rx, est_taps=8)
        assert diag.evm_percent == 100.0 * _evm_ratio(diag.equalized_symbols)
        assert bits.tobytes() == want_bits.tobytes()
        assert (diag.equalized_symbols.tobytes()
                == want.equalized_symbols.tobytes())
        assert ((diag.cfo_estimate, diag.evm_percent, diag.snr_estimate_db)
                == (want.cfo_estimate, want.evm_percent,
                    want.snr_estimate_db))
        assert (diag.channel_estimate.tobytes()
                == want.channel_estimate.tobytes())
        assert (diag.phase_rotations.tobytes()
                == want.phase_rotations.tobytes())
        assert diag.sync_margin == want.sync_margin
        buffers = thread_scratch()
        assert {"symbols", "decided"} <= set(buffers)
        for buf in buffers.values():
            for out in (bits, diag.equalized_symbols, diag.channel_estimate,
                        diag.phase_rotations):
                assert not np.shares_memory(out, buf)


@pytest.mark.parametrize("snr_db", [12.0, math.inf])
def test_evm_and_snr_estimate_are_derived_once_on_first_read(snr_db):
    _, sig = _frame_signal(seed=3)
    rx = apply_channel(sig, ChannelConfig(snr_db=snr_db, seed=3,
                                          cfo_normalized=0.1))
    _, diag = receive_frame(rx, est_taps=8)
    assert "_evm" not in vars(diag)   # nothing is computed until read
    evm = _evm_ratio(diag.equalized_symbols)
    snr = math.inf if evm == 0.0 else -20.0 * math.log10(evm)
    first = (diag.evm_percent, diag.snr_estimate_db)
    assert first == (100.0 * evm, snr)
    # read again, even after the symbols change, they are the first reading
    diag.equalized_symbols[:] = 0.0
    assert (diag.evm_percent, diag.snr_estimate_db) == first


def test_rx_diagnostics_says_when_the_evm_is_computed():
    doc = " ".join(RxDiagnostics.__doc__.split())
    assert ("the EVM is computed from `equalized_symbols` as they are at "
            "first read") in doc


def test_receive_buffers_hold_only_what_the_receiver_works_in(
        thread_scratch, in_fresh_thread):
    # a thread that only receives holds the dumped symbols and the
    # decisions, at any sps
    def names_after_frames():
        names = []
        for sps in (1, 8):
            receive_frame(_frame_signal(seed=1, sps=sps)[1], est_taps=8)
            names.append(set(thread_scratch()))
        return names

    assert in_fresh_thread(names_after_frames) == [{"symbols", "decided"}] * 2


# --- what the receiver estimated ----------------------------------------------

def _replay(samples, diag, sps):
    """diag's equalized symbols rebuilt from the estimates it holds: the
    frame at its start, derotated and dumped by the CFO estimate, its data
    bodies equalized by the channel estimate, then turned by each recorded
    phase factor in the order applied, less the unit factors that record a
    pass that applied nothing."""
    lay = FrameLayout
    frame = samples[diag.frame_start:diag.frame_start + lay.frame_len * sps]
    symbols = derotate_and_dump(frame, diag.cfo_estimate, sps)
    bodies = symbols[lay.sync_len:].reshape(
        lay.n_subframes, lay.subframe_len)[:, lay.cp_len:]
    eq = zf_equalize(bodies[1:], diag.channel_estimate)
    for block, factors in zip(eq, diag.phase_rotations):
        for factor in factors:
            if factor != 1:
                block *= factor
    return eq.reshape(-1)


@pytest.mark.parametrize("mode", ["conventional", "metasurface"])
@pytest.mark.parametrize("sps", [1, 8])
@pytest.mark.parametrize("snr_db", [8.0, 20.0, math.inf])
def test_the_diagnostics_replay_the_equalized_symbols(mode, sps, snr_db):
    # a CFO and a one-symbol echo; the frame is received as run_frame
    # received it
    cfg = ExperimentConfig(mode=mode, sps=sps, cfo_normalized=0.2,
                           fir_taps=(1.0, *[0.0] * (sps - 1), 0.3 - 0.2j))
    decoded = 0
    for seed in range(3):
        _, bits, diag = run_frame(cfg, snr_db, seed)
        if bits is None:
            continue
        decoded += 1
        _, sig = transmit_frame(cfg, seed)
        rx = apply_channel(sig, _channel(cfg, snr_db, seed))
        assert (_replay(rx.samples, diag, sps).tobytes()
                == diag.equalized_symbols.tobytes())
        assert diag.channel_estimate.shape == (FrameLayout.fft_len,)
        assert diag.phase_rotations.shape == (FrameLayout.n_subframes - 1,
                                              PHASE_LOOP_PASSES)
        assert np.all(np.abs(np.abs(diag.phase_rotations) - 1.0) <= 1e-15)
        assert diag.sync_margin >= 1.0
    assert decoded >= (1 if snr_db < 20.0 else 3)


def test_phase_loop_removes_a_common_turn_and_records_it():
    # a block turned by 0.3 rad, and a block of zeros, whose correlation
    # with its decisions is zero in every pass: it records 1 and stays 0
    rng = np.random.default_rng(5)
    sent = _QPSK_POINTS[rng.integers(0, 4, FrameLayout.fft_len)]
    blocks = np.stack([sent * np.exp(0.3j), np.zeros(FrameLayout.fft_len)])
    rotations = phase_loop(blocks)
    assert rotations.shape == (2, PHASE_LOOP_PASSES)
    assert rotations.dtype == complex
    assert np.all(rotations[1] == 1.0)
    assert not blocks[1].any()
    assert np.prod(rotations[0]) == pytest.approx(np.exp(-0.3j), abs=1e-15)
    np.testing.assert_allclose(blocks[0], sent, rtol=0, atol=1e-15)


def test_receive_frame_oversampled_loopback():
    payload, sig = _frame_signal(seed=13, sps=8)
    bits, _ = receive_frame(sig, est_taps=8)
    np.testing.assert_array_equal(bits, payload)
