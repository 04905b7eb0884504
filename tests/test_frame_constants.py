"""The parts every frame shares are built once per process: the sync replica
and its spectra, the pilot's spectrum and Gram matrix, the fixed head of the
frame and the constellations.  Each cache returns read-only arrays equal to
a fresh build, and threads that fill the caches at once get the results of a
sequential run."""

import concurrent.futures
import sys
import threading

import numpy as np
import pytest

from mslink import channel, harness, rxchain, txchain
from mslink.circuit import (DEFAULT_FREQUENCY, DEFAULT_TARGET_PHASES,
                            CircuitParams, VaractorModel, build_gamma_lut)
from mslink.harness import ExperimentConfig, run_frame, surface_constellation
from mslink.txchain import (FrameLayout, build_pilot_sequence,
                            build_sync_sequence)

_POINTS = np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(4)))


def _fresh_replica(sps):
    return np.repeat(np.where(build_sync_sequence() > 0, _POINTS[0],
                              _POINTS[2]), sps)


def _toeplitz_gram(x, n_taps):
    ac = np.fft.ifft(np.abs(x) ** 2)
    lags = np.arange(n_taps)
    return ac[(lags[:, None] - lags[None, :]) % x.size]


def _fresh_gram(n_taps):
    return _toeplitz_gram(np.fft.fft(_POINTS[build_pilot_sequence()]), n_taps)


def _fresh_frame_head():
    lay = FrameLayout
    pilot = build_pilot_sequence()
    return np.concatenate([np.where(build_sync_sequence() > 0, 0, 2),
                           pilot[-lay.cp_len:], pilot])


def _fresh_stock_surface():
    lut = build_gamma_lut(VaractorModel(), CircuitParams(), DEFAULT_FREQUENCY)
    return surface_constellation(lut, DEFAULT_TARGET_PHASES).points


# (cached, fresh): each cached array against one built from first principles
CACHES = {
    "sync replica sps 1": (lambda: rxchain._sync_replica(1)[0],
                           lambda: _fresh_replica(1)),
    "sync replica sps 8": (lambda: rxchain._sync_replica(8)[0],
                           lambda: _fresh_replica(8)),
    "sync reference": (lambda: rxchain._sync_reference(1, 4096),
                       lambda: np.conj(np.fft.fft(_fresh_replica(1), 4096))),
    "sync reference sps 8": (
        lambda: rxchain._sync_reference(8, 32768),
        lambda: np.conj(np.fft.fft(_fresh_replica(8), 32768))),
    "pilot spectrum": (rxchain._pilot_spectrum,
                       lambda: np.fft.fft(_POINTS[build_pilot_sequence()])),
    "pilot gram": (lambda: rxchain._pilot_gram(8), lambda: _fresh_gram(8)),
    "pilot gram 1 tap": (lambda: rxchain._pilot_gram(1),
                         lambda: _fresh_gram(1)),
    "ramp index": (lambda: rxchain._ramp_index(8, FrameLayout.frame_len),
                   lambda: 8.0 * np.arange(FrameLayout.frame_len)),
    "frame head": (txchain._frame_head, _fresh_frame_head),
    "ideal qpsk": (lambda: txchain.ideal_qpsk().points, lambda: _POINTS),
    "stock surface": (
        lambda: ExperimentConfig(mode="metasurface")
        .resolved_constellation().points, _fresh_stock_surface),
}


@pytest.mark.parametrize("name", CACHES)
def test_each_cache_is_read_only_and_equals_a_fresh_build(name):
    cached, fresh = CACHES[name]
    got, want = cached(), fresh()
    assert cached() is got                      # built once
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got.flat[0] = 0
    assert got.tobytes() == want.tobytes()


def test_sync_replica_norm_is_the_replicas():
    for sps in (1, 8):
        rep, norm = rxchain._sync_replica(sps)
        assert norm == float(np.linalg.norm(_fresh_replica(sps)))


def test_the_pilot_gram_serves_only_the_pilot_spectrum():
    # the fit is always against the frame's fixed pilot, whose Gram matrix
    # is taken from the cache, and equals a solve against a fresh build of
    # the pilot's spectrum and Gram matrix to the bit
    rng = np.random.default_rng(3)
    y = np.fft.fft(rng.normal(size=2048) + 1j * rng.normal(size=2048))
    x = np.fft.fft(_POINTS[build_pilot_sequence()])
    for n_taps in (1, 8):
        rxchain._pilot_gram(n_taps)
        hits = rxchain._pilot_gram.cache_info().hits
        h = rxchain.ls_channel_estimate_taps(y, n_taps)
        assert rxchain._pilot_gram.cache_info().hits == hits + 1
        b = np.fft.ifft(np.conj(x) * y)[:n_taps]
        taps = np.linalg.solve(_toeplitz_gram(x, n_taps), b)
        assert h.tobytes() == np.fft.fft(taps, 2048).tobytes()


def test_the_stock_surface_follows_the_table_it_is_given():
    lut = build_gamma_lut(VaractorModel(), CircuitParams(), DEFAULT_FREQUENCY)
    a = harness._stock_surface(lut)
    assert harness._stock_surface(lut) is a
    assert a == surface_constellation(lut, DEFAULT_TARGET_PHASES)


def _cache_functions():
    return (rxchain._sync_replica, rxchain._sync_reference,
            rxchain._pilot_spectrum, rxchain._pilot_gram,
            rxchain._ramp_index, txchain._frame_head, txchain.ideal_qpsk,
            harness._stock_surface, channel._cfo_ramp)


def _frame_bytes(frame) -> tuple:
    payload, bits, diag = frame
    return (payload.tobytes(), bits.tobytes(),
            diag.equalized_symbols.tobytes(), diag.cfo_estimate)


def test_threads_filling_the_caches_at_once_equal_a_sequential_run():
    # every cache starts empty, so the threads (more than the cores of a
    # small host) build its entries while the others may be reading them
    configs = (ExperimentConfig(cfo_normalized=0.1,
                                fir_taps=(1.0, 0.3 - 0.2j)),
               ExperimentConfig(mode="metasurface", cfo_normalized=-0.2))
    seeds = ((1, 2), (3, 4), (5, 6))
    barrier = threading.Barrier(len(seeds), timeout=60)

    def frames(thread_seeds):
        barrier.wait()
        return [_frame_bytes(run_frame(cfg, 12.0, s))
                for s in thread_seeds for cfg in configs]

    for cache in _cache_functions():
        cache.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(len(seeds)) as pool:
            at_once = list(pool.map(frames, seeds, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    sequential = [[_frame_bytes(run_frame(cfg, 12.0, s))
                   for s in ss for cfg in configs] for ss in seeds]
    assert at_once == sequential
