import concurrent.futures
import copy
import dataclasses
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import types
from pathlib import Path

import numpy as np
import pytest

import mslink
from mslink import harness, rxchain
from mslink.channel import ChannelConfig, apply_channel
from mslink.circuit import (DEFAULT_TARGET_PHASES, GammaLUT, default_gamma_lut,
                            select_control_voltages)
from mslink.cli import main
from mslink.config import gamma_lut_from_dict
from mslink.errors import InterpolationError, PartialReceiveError
from mslink.harness import (_NOISE_SEED_OFFSET, DEFAULT_TARGET_BER,
                            SEED_POINT_STRIDE, BerRecord, ExperimentConfig,
                            _channel, compare_architectures, measure_link_snr,
                            receive_file, run_ber_sweep, run_frame,
                            snr_at_ber, snr_gap, surface_constellation,
                            theoretical_qpsk_ber, transmit_file,
                            transmit_frame, write_ber_csv)
from mslink.iqfile import IQ_CHUNK, StreamHeader, read_iq, write_iq
from mslink.rxchain import receive_frame
from mslink.surface import ArrayConfig, aggregate_reflection
from mslink.txchain import (BasebandSignal, FrameLayout, build_frame,
                            ideal_qpsk, impaired_qpsk, synthesize_baseband)


def test_theoretical_qpsk_ber_limits():
    assert theoretical_qpsk_ber(math.inf) == 0.0
    assert theoretical_qpsk_ber(-math.inf) == 0.5
    assert theoretical_qpsk_ber(0.0) == pytest.approx(0.0786496, abs=1e-6)
    # past 3083 dB Eb/N0 overflows float64, and the rate is 0 there too
    for ebn0_db in (3083.0, 3100.0, 1e308):
        assert theoretical_qpsk_ber(ebn0_db) == 0.0
    assert theoretical_qpsk_ber(-1e308) == 0.5


@pytest.mark.parametrize("snr", [1e308, -1e308, 3083.0, 5000.0, -3100.0,
                                 -3240.0, np.float64(3083.0),
                                 np.float64(-3240.0)])
def test_an_snr_without_a_noise_variance_fails_at_build(snr):
    # it raised OverflowError or ZeroDivisionError in the first frame, or
    # (at -3100 dB) made every sample NaN and the frame a sync failure; a
    # numpy scalar warned first, which the test suite makes an error
    prefix = re.escape(f"snr_list value {snr!r}: snr_db ")
    with pytest.raises(ValueError, match=f"^{prefix}"):
        ExperimentConfig(snr_list=(10.0, snr))
    for f in (run_frame, measure_link_snr):
        with pytest.raises(ValueError, match="^snr_db "):
            f(ExperimentConfig(), snr, 0)
    ExperimentConfig(snr_list=(3082.0, -3082.0, math.inf))


def test_an_snr_is_checked_at_the_noise_variance_per_sample():
    # at sps 8 the per-sample variance is 8 times the per-symbol one, which
    # overflows from -3074 dB down; such a config used to build, and its
    # frames came back inf and failed sync
    meta = dict(mode="metasurface", frames_per_point=1)
    with pytest.raises(ValueError, match=re.escape(
            "snr_list value -3074.0: snr_db must be +inf or give a finite "
            "noise variance 8 * ref_power / 10^(snr_db / 10)")):
        ExperimentConfig(snr_list=(-3074.0,), **meta)
    ExperimentConfig(snr_list=(-3073.0,), **meta)
    ExperimentConfig(snr_list=(-3080.0,), sps=1, **meta)
    ExperimentConfig(snr_list=(-3080.0,))


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(mode="analog")
    with pytest.raises(ValueError):
        ExperimentConfig(snr_list=())
    with pytest.raises(ValueError):
        ExperimentConfig(frames_per_point=0)
    # the bounds of sps and of the LS estimator's span, which fir_taps sets
    # (tests/test_config_cli.py runs every bad channel value through a
    # config)
    longest = (1.0,) * FrameLayout.fft_len
    assert ExperimentConfig(mode="metasurface", sps=1,
                            fir_taps=longest).resolved_est_taps() == 2048
    # and counts and seeds that would build, then fail inside numpy at the
    # first frame; each message opens with the key of the last item
    for bad in ({"sps": 0}, {"mode": "metasurface", "sps": -8},
                {"mode": "metasurface", "sps": 1,
                 "fir_taps": longest + (1.0,)},
                {"sps": 2.5}, {"sps": True}, {"timing_offset": 1.5},
                {"frames_per_point": 2.0}, {"frames_per_point": 1.5},
                {"frames_per_point": True}, {"timing_offset": True},
                {"timing_offset": -1}, {"base_seed": 1.0},
                {"base_seed": 1.5}, {"base_seed": False}, {"base_seed": -1},
                # above 64 samples per symbol, and a delay past one frame
                # of samples at the config's sps
                {"sps": 65}, {"mode": "metasurface", "sps": 10 ** 6},
                {"timing_offset": 10 ** 9},
                {"timing_offset": FrameLayout.frame_len + 1},
                {"mode": "metasurface",
                 "timing_offset": 8 * FrameLayout.frame_len + 1}):
        with pytest.raises(ValueError, match=f"^{list(bad)[-1]} "):
            ExperimentConfig(**bad)
    # the bounds themselves build
    ExperimentConfig(sps=64, timing_offset=64 * FrameLayout.frame_len)
    # parts of the wrong type, which built and then failed in the first
    # frame with an AttributeError
    for bad in ({"mode": "metasurface", "array": None},
                {"mode": "metasurface", "array": "left-half"},
                {"constellation": ideal_qpsk().points},
                {"constellation": "qpsk"}):
        with pytest.raises(TypeError, match=f"^{list(bad)[-1]} must be "):
            ExperimentConfig(**bad)
    # numpy integers are integers
    ExperimentConfig(sps=np.int64(2), timing_offset=np.int32(3),
                     frames_per_point=np.int64(2), base_seed=np.uint8(0))


@pytest.mark.parametrize("channel, message", [
    ({"complex_gain": 0}, "complex_gain must be nonzero"),
    ({"complex_gain": -0.0j}, "complex_gain must be nonzero"),
    ({"fir_taps": (0.0,)}, "fir_taps must not all be zero"),
    ({"fir_taps": (0j, -0.0, 0.0)}, "fir_taps must not all be zero"),
])
def test_a_link_that_passes_no_signal_fails_at_build(channel, message):
    # every frame of such a link would be a silent sync failure; a bare
    # ChannelConfig may still pass nothing (tests/test_channel.py)
    with pytest.raises(ValueError) as exc:
        ExperimentConfig(**channel)
    assert str(exc.value) == message
    ExperimentConfig(complex_gain=1e-30, fir_taps=(0.0, 1e-30))


def test_frames_per_point_stays_within_the_seed_stride():
    # seeds are base + point * SEED_POINT_STRIDE + frame: one frame more
    # and the last frame of point 0 would replay frame 0 of point 1
    ExperimentConfig(frames_per_point=SEED_POINT_STRIDE)
    with pytest.raises(ValueError, match="frames_per_point"):
        ExperimentConfig(frames_per_point=SEED_POINT_STRIDE + 1)


def test_resolved_defaults():
    conv = ExperimentConfig()
    meta = ExperimentConfig(mode="metasurface")
    assert conv.resolved_sps() == 1
    assert meta.resolved_sps() == 8
    assert np.allclose(np.abs(conv.resolved_constellation().points), 1.0)
    assert meta.resolved_constellation().mean_power < 1.0


# --- surface constellation ----------------------------------------------------

def test_surface_constellation_from_ideal_lut():
    # 1.5 degrees per grid step: entries 0, 60, 120 and 180 sit at 45, 135,
    # 225 and 315 degrees
    k = np.arange(GammaLUT.voltages.size)
    lut = GammaLUT(np.exp(1j * np.radians(45.0 + 1.5 * k)))
    pts = surface_constellation(lut, lut.phases_deg[[0, 60, 120, 180]]).points
    np.testing.assert_allclose(pts, ideal_qpsk().points, atol=1e-12)


def test_surface_constellation_default_targets_distorted():
    c = surface_constellation(default_gamma_lut(), DEFAULT_TARGET_PHASES)
    pts = c.points
    mags = np.abs(pts)
    assert np.ptp(mags) > 0.05            # unequal magnitudes
    angles = np.sort(np.degrees(np.angle(pts)) % 360.0)
    gaps = np.diff(np.concatenate([angles, [angles[0] + 360.0]]))
    assert np.ptp(gaps) > 5.0             # not a square constellation
    assert c.mean_power < 1.0  # raw: a lossy cell reflects less than incident


@pytest.mark.parametrize("targets", [DEFAULT_TARGET_PHASES,
                                     (10.0, 60.0, 150.0, 240.0)])
@pytest.mark.parametrize("lut", [default_gamma_lut,
                                 lambda: gamma_lut_from_dict({"r_series": "3"})],
                         ids=["default", "r_series-3"])
def test_surface_constellation_points_are_the_lut_gammas(lut, targets):
    lut = lut()
    volts, _ = select_control_voltages(lut, targets)
    k = np.searchsorted(lut.voltages, volts)
    assert lut.voltages[k].tobytes() == volts.tobytes()
    assert (surface_constellation(lut, targets).points.tobytes()
            == lut.gammas[k].tobytes())


def test_noiseless_sweep_has_zero_errors():
    for mode in ("conventional", "metasurface"):
        cfg = ExperimentConfig(mode=mode, snr_list=(math.inf,),
                               frames_per_point=1)
        (rec,) = run_ber_sweep(cfg)
        assert rec.bit_errors == 0
        assert rec.ber == 0.0
        assert rec.bits_simulated == 36864


def test_sweep_determinism_and_conservation():
    cfg = ExperimentConfig(snr_list=(6.0, 8.0), frames_per_point=2,
                           base_seed=21)
    a = run_ber_sweep(cfg)
    b = run_ber_sweep(cfg)
    assert a == b
    assert sum(r.bits_simulated for r in a) == 2 * 2 * 36864
    for r in a:
        assert r.ber == r.bit_errors / r.bits_simulated


def test_snr_at_ber_interpolation():
    recs = [BerRecord(0.0, 10_000_000, 10_000, 1e-3),
            BerRecord(2.0, 10_000_000, 100, 1e-5)]
    assert snr_at_ber(recs, 1e-4) == pytest.approx(1.0)
    with pytest.raises(InterpolationError):
        snr_at_ber(recs, 1e-7)


def test_snr_gap_reads_both_crossings_or_names_each_miss():
    def curve(snr0, bers):
        return [BerRecord(snr0 + 2.0 * i, 10_000_000, round(b * 1e7), b)
                for i, b in enumerate(bers)]

    hit, late, miss = (curve(0.0, (1e-3, 1e-5)), curve(3.0, (1e-3, 1e-5)),
                       curve(0.0, (1e-2, 1e-3)))
    assert snr_gap((("a", hit), ("b", late)), 1e-4) == pytest.approx(
        (3.0, 1.0, 4.0))
    with pytest.raises(InterpolationError,
                       match="not bracketed by the measured b curve$"):
        snr_gap((("a", hit), ("b", miss)), 1e-4)
    with pytest.raises(InterpolationError,
                       match="not bracketed by the measured a and b curves$"):
        snr_gap((("a", miss), ("b", miss)), 1e-4)


def test_default_grid_brackets_the_conventional_crossing():
    # Eb/N0 = Es/N0 - 10 log10 2 for QPSK: the closed-form curve is above
    # the target at the grid's first point and below it at its second
    first, second = ExperimentConfig.snr_list[:2]
    ebn0 = [snr - 10.0 * math.log10(2.0) for snr in (first, second)]
    assert theoretical_qpsk_ber(ebn0[0]) > DEFAULT_TARGET_BER
    assert theoretical_qpsk_ber(ebn0[1]) < DEFAULT_TARGET_BER


def test_compare_identical_configs_zero_gap():
    cfg = ExperimentConfig(snr_list=(7.0, 9.0, 11.0), frames_per_point=2,
                           base_seed=0)
    rec_a, rec_b, gap = compare_architectures(cfg, cfg, target_ber=1e-3)
    assert rec_a == rec_b
    assert gap == 0.0


def test_compare_requires_shared_grid():
    a = ExperimentConfig(snr_list=(1.0,))
    b = ExperimentConfig(snr_list=(2.0,))
    with pytest.raises(ValueError):
        compare_architectures(a, b)


# a surface with every cell off and a zero static reflection sends nothing
_NO_SIGNAL = ExperimentConfig(mode="metasurface",
                              array=ArrayConfig(mask="0" * 128))


@pytest.mark.parametrize("snr_db, want, cfg", [
    # ideal QPSK, unit mean power
    (12.0, pytest.approx(12.0, abs=0.05), ExperimentConfig()),
    # no noise, and noise that vanishes in the samples' rounding
    (math.inf, math.inf, ExperimentConfig()),
    (400.0, math.inf, ExperimentConfig()),
    # no signal, with noise and without
    (10.0, -math.inf, _NO_SIGNAL), (math.inf, -math.inf, _NO_SIGNAL),
], ids=["12.0-want0", "inf-inf", "400.0-inf", "no-signal-10.0",
        "no-signal-inf"])
def test_measure_link_snr_tracks_configured_for_unit_power(snr_db, want, cfg):
    got = measure_link_snr(cfg, snr_db, seed=0)
    assert got == want


def test_half_activation_costs_six_db():
    full = ExperimentConfig(mode="metasurface", array=ArrayConfig(mask="full"))
    half = ExperimentConfig(mode="metasurface",
                            array=ArrayConfig(mask="left-half"))
    diff = measure_link_snr(full, 15.0, 3) - measure_link_snr(half, 15.0, 3)
    assert diff == pytest.approx(6.0206, abs=0.3)


@pytest.mark.parametrize("seed, want", [
    (np.uint8(0), 0), (np.int8(0), 0), (np.int64(0), 0), (np.int8(120), 120),
])
def test_a_numpy_integer_base_seed_sweeps_as_its_int(seed, want):
    # the seed arithmetic runs on Python ints, so it cannot overflow the
    # seed's own dtype
    kw = dict(frames_per_point=2, snr_list=(20.0, 30.0))
    assert (run_ber_sweep(ExperimentConfig(base_seed=seed, **kw))
            == run_ber_sweep(ExperimentConfig(base_seed=want, **kw)))


def test_run_frame_takes_a_numpy_integer_seed():
    cfg = ExperimentConfig()
    want = run_frame(cfg, 10.0, 3)
    got = run_frame(cfg, 10.0, np.uint8(3))
    assert _frame_bytes(got) == _frame_bytes(want)


def test_sync_failure_flagged_as_errored_frame():
    # pure-noise regime: SNR far below the detection floor
    cfg = ExperimentConfig(snr_list=(-40.0,), frames_per_point=1)
    (rec,) = run_ber_sweep(cfg)
    assert rec.sync_failures == 1
    assert rec.bit_errors == rec.bits_simulated


def test_undecodable_frames_count_as_failed_not_raised():
    # a surface with no active cell radiates the static reflection, here 0:
    # a noiseless frame is then silence, which fails sync, and the sweep
    # must count it as a failed frame
    cfg = ExperimentConfig(mode="metasurface", snr_list=(math.inf,),
                           frames_per_point=3,
                           array=ArrayConfig(mask="0" * 128))
    payload, bits, diag = run_frame(cfg, math.inf, 5)
    assert payload.size == 36864 and bits is None and diag is None
    (rec,) = run_ber_sweep(cfg)
    assert rec.sync_failures == 3
    assert rec.bit_errors == rec.bits_simulated == 3 * 36864


def test_configs_compare_and_hash_by_value():
    a = ExperimentConfig(mode="metasurface")
    b = ExperimentConfig(mode="metasurface")
    assert a == b and hash(a) == hash(b)
    assert dataclasses.replace(a) == a
    mask = np.zeros(128, dtype=bool)
    mask[::3] = True
    c = ExperimentConfig(mode="metasurface", array=ArrayConfig(mask=mask))
    d = ExperimentConfig(mode="metasurface",
                         array=ArrayConfig(mask=mask.reshape(8, 16)))
    assert c == d and hash(c) == hash(d)
    assert c != a
    assert ExperimentConfig(array=ArrayConfig(mask="left-half")) != \
        ExperimentConfig(array=ArrayConfig(mask="right-half"))
    assert ArrayConfig() != ArrayConfig(gamma_static=0.1)
    # a config that has run a frame compares and hashes as before
    run_frame(a, 12.0, 1)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, dataclasses.replace(a)}) == 1


def test_configs_with_a_constellation_compare_and_hash_by_value():
    a = ExperimentConfig(constellation=ideal_qpsk())
    b = ExperimentConfig(constellation=ideal_qpsk())
    assert a == b and hash(a) == hash(b)
    assert len({a, b, dataclasses.replace(a)}) == 1
    assert a != ExperimentConfig(constellation=impaired_qpsk(262.7))
    assert a != ExperimentConfig()


def test_array_mask_is_read_only_and_owned():
    mask = np.ones(128, dtype=bool)
    cfg = ArrayConfig(mask=mask)
    assert cfg.mask == "1" * 128   # a str, so no caller can change it
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.mask = "0" * 128
    mask[0] = False   # the caller's array stays its own
    assert cfg.mask == "1" * 128 and cfg.n_active == 128
    # a literal, its bit string and its array give one config
    bits = "1" * 8 + "0" * 8
    forms = ("left-half", bits * 8, np.array([c == "1" for c in bits] * 8))
    configs = [ArrayConfig(mask=m, gamma_static=0.1j) for m in forms]
    assert {c.mask for c in configs} == {bits * 8}
    assert configs[0] == configs[1] == configs[2]
    assert len({hash(c) for c in configs}) == 1


def test_write_ber_csv_format(tmp_path):
    path = tmp_path / "ber.csv"
    write_ber_csv([BerRecord(5.0, 100, 3, 0.03),
                   BerRecord(7.0, 100, 0, 0.0, sync_failures=1)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "snr_db,bits,errors,ber"
    assert lines[1].startswith("5.0,100,3,")
    assert any(line.startswith("# sync_failures=1") for line in lines)


# --- IQ files and headers ----------------------------------------------------------

def test_iq_file_roundtrip(tmp_path):
    path = tmp_path / "s.iq"
    x = np.array([1 + 2j, -0.5j, 3.25])
    write_iq(path, x)
    np.testing.assert_allclose(read_iq(path), x)
    # interleaved little-endian float32 layout
    raw = np.fromfile(path, dtype="<f4")
    np.testing.assert_allclose(raw, [1, 2, 0, -0.5, 3.25, 0])


@pytest.mark.parametrize("i,q", [(1.0, np.inf), (np.nan, 0.0),
                                 (-np.inf, np.nan)])
def test_read_iq_rejects_a_sample_that_is_not_finite(tmp_path, i, q):
    # it names the file, the sample and its true I and Q: complex arithmetic
    # on an infinite Q (I + 1j * Q) would turn a finite I into NaN
    path = tmp_path / "s.iq"
    raw = np.ones(2 * 100, dtype="<f4")
    raw[2 * 37:2 * 37 + 2] = i, q
    raw.tofile(path)
    want = f"{path}: sample 37 is not finite: I = {i}, Q = {q}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        read_iq(path)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_read_iq_equals_the_sum_of_i_and_j_q(tmp_path, seed):
    # the oracle is I + 1j * Q of the two float64 halves; read_iq widens
    # the float32 pairs in one cast instead.  The cast keeps every bit,
    # the sign of zero included: a -0.0 Q, or a -0.0 I beside a positive Q,
    # stays -0.0 where the sum gives +0.0 (assert_array_equal takes the two
    # zeros as equal, the bytes do not)
    rng = np.random.default_rng(seed)
    raw = (rng.standard_normal(2 * 5000)
           * 10.0 ** rng.integers(-30, 30, 2 * 5000)).astype("<f4")
    raw[rng.integers(0, raw.size, 50)] = -0.0
    raw[rng.integers(0, raw.size, 50)] = 0.0
    raw[:4] = -0.0, 1.0, 1.0, -0.0
    path = tmp_path / "s.iq"
    raw.tofile(path)
    got = read_iq(path)
    assert got.dtype == complex
    np.testing.assert_array_equal(
        got, raw[0::2].astype(np.float64) + 1j * raw[1::2].astype(np.float64))
    assert got.view(np.float64).tobytes() == raw.astype(np.float64).tobytes()


def test_read_iq_allocates_the_raw_floats_and_the_result_only(
        tmp_path, allocation_peak):
    # 16 bytes per sample of complex128 result, one chunk of float32 pairs
    # and a few small Python objects (array views, the open file), and no
    # sample-rate temporary besides
    n = 3 * IQ_CHUNK + 90_000
    path = tmp_path / "s.iq"
    np.random.default_rng(0).standard_normal(2 * n).astype("<f4").tofile(path)
    assert allocation_peak(lambda: read_iq(path)) <= (
        16 * n + 8 * IQ_CHUNK + 4096)


@pytest.mark.parametrize("n", [0, 1, IQ_CHUNK, IQ_CHUNK + 1,
                               3 * IQ_CHUNK - 5],
                         ids=["empty", "one", "one-chunk", "chunk-plus-one",
                              "several-chunks"])
def test_chunked_iq_io_equals_the_whole_stream_oracle(tmp_path, n):
    # write_iq's bytes are the interleaved float32 of the whole stream, and
    # read_iq gives back the float32 values widened, whatever the length
    # against the chunk
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = np.empty(2 * n, dtype="<f4")
    want[0::2], want[1::2] = x.real, x.imag
    path = tmp_path / "s.iq"
    write_iq(path, x)
    assert path.read_bytes() == want.tobytes()
    got = read_iq(path)
    assert got.dtype == complex and got.size == n
    assert got.view(np.float64).tobytes() == want.astype(np.float64).tobytes()


@pytest.mark.parametrize("kind", ["contiguous", "strided", "real",
                                  "complex64", "2-d"])
def test_write_iq_of_any_layout_equals_the_interleaved_oracle(tmp_path, kind):
    # contiguous complex128 samples are cast in place, any others copied a
    # chunk at a time; either way the bytes are the float32 I, Q pairs, the
    # signs of zeros, infinities and NaN kept
    n = 2 * IQ_CHUNK + 9
    rng = np.random.default_rng(5)
    base = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    base[:4] = (complex(-0.0, -0.0), complex(np.inf, -0.0),
                complex(np.nan, -np.inf), complex(0.0, -0.0))
    x = {"contiguous": base[:n], "strided": base[::2], "real": base.real,
         "complex64": base.astype(np.complex64),
         "2-d": base[:2 * (n // 2)].reshape(2, -1)[:, ::2]}[kind]
    flat = np.asarray(x).reshape(-1)
    want = np.empty(2 * flat.size, dtype="<f4")
    want[0::2], want[1::2] = flat.real, flat.imag
    path = tmp_path / "s.iq"
    write_iq(path, x)
    assert path.read_bytes() == want.tobytes()


def test_write_iq_copies_no_chunk_of_contiguous_samples(tmp_path,
                                                        allocation_peak):
    # the one float32 buffer of IQ_CHUNK pairs, the open file's write
    # buffer and a few small objects; a copied chunk would add 16 * IQ_CHUNK
    n = 3 * IQ_CHUNK + 5
    x = np.random.default_rng(0).standard_normal(2 * n).view(complex)
    path = tmp_path / "s.iq"
    assert allocation_peak(lambda: write_iq(path, x)) <= 8 * IQ_CHUNK + 16384


@pytest.mark.parametrize("k", [IQ_CHUNK, 2 * IQ_CHUNK + 17])
def test_read_iq_names_a_bad_sample_past_the_first_chunk(tmp_path, k):
    # the first sample that is not finite, by its index in the stream, with
    # its own I and Q, not a later one in its chunk or in the last chunk
    path = tmp_path / "s.iq"
    raw = np.ones(2 * (3 * IQ_CHUNK), dtype="<f4")
    raw[2 * k:2 * k + 2] = 0.5, np.inf
    raw[2 * k + 2] = np.nan
    raw[-1] = np.nan
    raw.tofile(path)
    want = f"{path}: sample {k} is not finite: I = 0.5, Q = inf"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        read_iq(path)


@pytest.mark.parametrize("n_floats", [1, 2 * IQ_CHUNK + 1])
def test_read_iq_rejects_an_odd_float_count(tmp_path, n_floats):
    path = tmp_path / "s.iq"
    np.ones(n_floats, dtype="<f4").tofile(path)
    want = (f"{path}: {4 * n_floats} bytes, not a whole number of 8-byte "
            f"I/Q pairs")
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        read_iq(path)


@pytest.mark.parametrize("extra", [1, 2, 3, 5])
def test_read_iq_rejects_bytes_past_the_last_pair(tmp_path, extra):
    # 1 to 3 trailing bytes used to be dropped without a word, while 4 to 7
    # were an odd float count: any size that is not whole I/Q pairs is one
    # error
    path = tmp_path / "s.iq"
    path.write_bytes(np.ones(2 * 100, dtype="<f4").tobytes() + b"\0" * extra)
    want = (f"{path}: {800 + extra} bytes, not a whole number of 8-byte "
            f"I/Q pairs")
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        read_iq(path)


def test_stream_header_roundtrip(tmp_path):
    path = tmp_path / "s.hdr"
    # numpy scalars are written as plain numbers too
    for real, num in ((float, int), (np.float64, np.int64)):
        hdr = StreamHeader(real(1.25e6), num(1), num(3), num(16))
        hdr.write(path)
        assert path.read_text() == ("sample_rate_hz = 1250000.0\n"
                                    "samples_per_symbol = 1\nframes = 3\n"
                                    "pad_bits = 16\n")
        assert StreamHeader.read(path) == hdr


def test_stream_header_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.hdr"
    path.write_text("frames = 1\n")
    with pytest.raises(ValueError, match="missing keys"):
        StreamHeader.read(path)


@pytest.mark.parametrize("line, message", [
    ("gain = 2", "unknown key 'gain'"),
    ("frames 3", "expected 'key = value'"),
    ("frames = 1", "repeated key 'frames'"),
    # the pilot is fixed: an older header's last line must be deleted
    ("pilot_seed = 1", "unknown key 'pilot_seed'"),
], ids=["unknown-key", "no-equals", "repeated-key", "pilot-seed-line"])
def test_stream_header_rejects_malformed_lines(tmp_path, line, message):
    path = tmp_path / "bad.hdr"
    StreamHeader(1.25e6, 1, 3, 16).write(path)
    with open(path, "a") as fh:
        fh.write(line + "\n")
    with pytest.raises(ValueError) as err:
        StreamHeader.read(path)
    assert str(err.value) == f"{path}:5: {message}"


@pytest.mark.parametrize("key, value, message", [
    # a value out of range names the line of the key its message opens
    # with, as in a config file
    ("samples_per_symbol", "0",
     "{path}:2: samples_per_symbol must be >= 1, got 0"),
    ("frames", "-1", "{path}:3: frames must be >= 0, got -1"),
    ("pad_bits", "-1", "{path}:4: pad_bits must be in 0..36863, got -1"),
    ("pad_bits", "36864",
     "{path}:4: pad_bits must be in 0..36863, got 36864"),
    ("sample_rate_hz", "0.0", "{path}:1: sample_rate_hz must be > 0, got 0.0"),
    ("sample_rate_hz", "nan", "{path}:1: sample_rate_hz must be > 0, got nan"),
    ("sample_rate_hz", "5.0", "{path}:1: sample_rate_hz must be 1250000.0 at "
     "samples_per_symbol 1, got 5.0"),
    # a value that does not parse names its line too
    ("frames", "three", "{path}:3: frames = 'three' is not a valid int"),
    ("sample_rate_hz", "fast",
     "{path}:1: sample_rate_hz = 'fast' is not a valid float"),
    # the message opens with pad_bits, so it names pad_bits' line
    ("frames", "0", "{path}:4: pad_bits must be 0 when frames is 0, got 16"),
    # the payload is a byte file: padding by a part of a byte is an error
    ("pad_bits", "17", "{path}:4: pad_bits must be a multiple of 8, got 17"),
], ids=["sps-zero", "frames-negative", "pad-negative", "pad-whole-frame",
        "rate-zero", "rate-nan", "rate-not-symbol-rate-times-sps",
        "frames-not-a-number", "rate-not-a-number", "pad-without-frames",
        "pad-part-of-a-byte"])
def test_stream_header_rejects_out_of_range_values(tmp_path, key, value,
                                                   message):
    path = tmp_path / "bad.hdr"
    StreamHeader(1.25e6, 1, 3, 16).write(path)
    lines = [f"{key} = {value}" if line.startswith(key + " ") else line
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        StreamHeader.read(path)
    assert str(err.value) == message.format(path=path)


def test_stream_header_counts_are_integers():
    # a header built in code, not read from a file: each used to build, then
    # fail at receive with a bare TypeError or a misleading sync failure
    good = {"sample_rate_hz": 1.25e6, "samples_per_symbol": 1, "frames": 3,
            "pad_bits": 16}
    for key, bad in (("samples_per_symbol", 2.5),
                     ("samples_per_symbol", True), ("frames", 1.5),
                     ("frames", True), ("frames", -1), ("pad_bits", 8.0),
                     ("pad_bits", True), ("pad_bits", -8)):
        with pytest.raises(ValueError, match=f"^{key} "):
            StreamHeader(**{**good, key: bad})
    hdr = StreamHeader(2.5e6, np.int64(2), np.int32(3), np.uint16(16))
    assert hdr == StreamHeader(2.5e6, 2, 3, 16)


def test_receive_file_rejects_a_zero_sps_header(tmp_path):
    src = tmp_path / "payload.bin"
    src.write_bytes(bytes(100))
    transmit_file(src, ExperimentConfig(), tmp_path / "s.iq",
                  tmp_path / "s.hdr")
    text = (tmp_path / "s.hdr").read_text()
    (tmp_path / "s.hdr").write_text(
        text.replace("samples_per_symbol = 1", "samples_per_symbol = 0"))
    with pytest.raises(ValueError, match="samples_per_symbol must be >= 1"):
        receive_file(tmp_path / "s.iq", tmp_path / "s.hdr",
                     tmp_path / "out.bin")


@pytest.mark.parametrize("mask", ["full", "left-half", "0" * 128],
                         ids=["full", "left-half", "all-off"])
@pytest.mark.parametrize("gamma_static", [0.0, 0.3 - 0.1j],
                         ids=["static-0", "static-lossy"])
def test_metasurface_samples_equal_per_sample_aggregation(mask, gamma_static):
    # the array response is applied to the four constellation points; the
    # samples must be those of applying it to every synthesized sample
    cfg = ExperimentConfig(mode="metasurface", array=ArrayConfig(
        mask=mask, gamma_static=gamma_static))
    payload, sig = transmit_frame(cfg, 3)
    raw = synthesize_baseband(build_frame(payload),
                              cfg.resolved_constellation(), 8)
    want = aggregate_reflection(raw.samples, cfg.array)
    assert sig.samples.tobytes() == want.tobytes()
    assert (sig.sample_rate, sig.samples_per_symbol) == (raw.sample_rate, 8)


# --- file transport -----------------------------------------------------------------

@pytest.mark.parametrize("mode", ["conventional", "metasurface"])
def test_transmit_file_equals_the_per_frame_recipe(tmp_path, mode):
    # 2.5 frames of file bits: the stream must be the float32 of each
    # frame's samples one after another, the tail frame zero-padded; half
    # the array is active, so the aggregation changes the points
    cfg = ExperimentConfig(mode=mode, array=ArrayConfig(
        mask="left-half", gamma_static=0.3 - 0.1j))
    src = tmp_path / "payload.bin"
    src.write_bytes(np.random.default_rng(8).integers(
        0, 256, 5 * 36864 // 16, dtype=np.uint8).tobytes())
    hdr = transmit_file(src, cfg, tmp_path / "s.iq")
    assert (hdr.frames, hdr.pad_bits) == (3, 36864 // 2)
    bits = np.concatenate([np.unpackbits(np.fromfile(src, dtype=np.uint8)),
                           np.zeros(hdr.pad_bits, dtype=np.uint8)])
    points = cfg.resolved_constellation().points
    if mode == "metasurface":
        points = aggregate_reflection(points, cfg.array)
    samples = np.concatenate([
        synthesize_baseband(build_frame(chunk), points,
                            cfg.resolved_sps()).samples
        for chunk in bits.reshape(3, 36864)])
    want = np.empty(2 * samples.size, dtype="<f4")
    want[0::2], want[1::2] = samples.real, samples.imag
    assert (tmp_path / "s.iq").read_bytes() == want.tobytes()


def test_transmit_exact_frame(tmp_path):
    src = tmp_path / "exact.bin"
    src.write_bytes(bytes(4608))  # exactly 36864 bits
    hdr = transmit_file(src, ExperimentConfig(), tmp_path / "s.iq")
    assert hdr.frames == 1
    assert hdr.pad_bits == 0
    assert read_iq(tmp_path / "s.iq").size == 22500


def test_transmit_empty_file(tmp_path):
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    hdr = transmit_file(src, ExperimentConfig(), tmp_path / "s.iq")
    assert hdr.frames == 0
    assert hdr.pad_bits == 0
    assert read_iq(tmp_path / "s.iq").size == 0


def test_file_loopback_roundtrip(tmp_path):
    src = tmp_path / "payload.bin"
    src.write_bytes(np.random.default_rng(0).integers(
        0, 256, 10_000, dtype=np.uint8).tobytes())
    hdr = transmit_file(src, ExperimentConfig(), tmp_path / "s.iq",
                        tmp_path / "s.hdr")
    n = receive_file(tmp_path / "s.iq", tmp_path / "s.hdr",
                     tmp_path / "out.bin")
    assert n == 10_000
    assert (tmp_path / "out.bin").read_bytes() == src.read_bytes()


@pytest.mark.parametrize("reader", ["read_iq", "transmit_file"])
def test_a_file_that_shrinks_while_read_is_an_error(tmp_path, monkeypatch,
                                                    reader):
    # both size their arrays from the file's size before reading it; a file
    # that then ends early must not leave a buffer's stale bytes in place
    path = tmp_path / "f.bin"
    np.ones(2 * 1000, dtype="<f4").tofile(path)
    size = path.stat().st_size
    monkeypatch.setattr(os, "fstat",
                        lambda fd: types.SimpleNamespace(st_size=size + 8))
    want = f"{path}: changed size while being read"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        if reader == "read_iq":
            read_iq(path)
        else:
            transmit_file(path, ExperimentConfig(), tmp_path / "s.iq")


# one frame's working arrays, which are symbol-rate in both modes, and one
# IQ chunk: what file transport may allocate beyond its stream-sized arrays
FRAME_MARGIN = 3 * 2 ** 20


@pytest.mark.parametrize("mode, frames", [("conventional", 20),
                                          ("metasurface", 4)])
def test_file_transport_holds_one_stream_copy(tmp_path, allocation_peak,
                                              mode, frames):
    # transmit_file holds the stream (16 B per sample) and one frame of
    # working arrays; receive_file holds the samples read, the payload
    # bytes and one frame of working arrays
    cfg = ExperimentConfig(mode=mode)
    src = tmp_path / "payload.bin"
    n_bytes = frames * FrameLayout.payload_bits // 8 - 100
    src.write_bytes(np.random.default_rng(frames).integers(
        0, 256, n_bytes, dtype=np.uint8).tobytes())
    n = frames * FrameLayout.frame_len * cfg.resolved_sps()
    iq, hdr, out = tmp_path / "s.iq", tmp_path / "s.hdr", tmp_path / "o.bin"
    assert allocation_peak(lambda: transmit_file(src, cfg, iq, hdr)) <= (
        16 * n + FRAME_MARGIN)
    assert allocation_peak(lambda: receive_file(iq, hdr, out)) <= (
        16 * n + frames * FrameLayout.payload_bits // 8 + FRAME_MARGIN)
    assert out.read_bytes() == src.read_bytes()


def test_receive_file_rejects_inconsistent_header(tmp_path):
    src = tmp_path / "payload.bin"
    src.write_bytes(bytes(100))
    hdr = transmit_file(src, ExperimentConfig(), tmp_path / "s.iq",
                        tmp_path / "s.hdr")
    bad = StreamHeader(hdr.sample_rate_hz, hdr.samples_per_symbol,
                       hdr.frames + 1, hdr.pad_bits)
    with pytest.raises(ValueError):
        receive_file(tmp_path / "s.iq", bad, tmp_path / "out.bin")


def test_pad_bits_that_are_not_whole_bytes_fail_before_any_frame(
        tmp_path, capsys, monkeypatch):
    # the payload is a byte file, so a header padding it by a part of a
    # byte is an error, raised before the stream is synced or decoded
    src = tmp_path / "payload.bin"
    src.write_bytes(bytes(100))
    hdr = transmit_file(src, ExperimentConfig(), tmp_path / "s.iq")
    bad = tmp_path / "s.hdr"
    hdr.write(bad)
    bad.write_text(bad.read_text().replace(f"pad_bits = {hdr.pad_bits}\n",
                                           f"pad_bits = {hdr.pad_bits + 1}\n"))
    out = tmp_path / "out.bin"

    def no_frame(*args, **kwargs):
        raise AssertionError("a frame was decoded")

    monkeypatch.setattr(rxchain, "frame_sync", no_frame)
    monkeypatch.setattr(harness, "receive_frame", no_frame)
    want = f"{bad}:4: pad_bits must be a multiple of 8, got {hdr.pad_bits + 1}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        receive_file(tmp_path / "s.iq", bad, out)
    assert main(["receive", str(tmp_path / "s.iq"), "--header", str(bad),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"mslink: error: {want}\n"
    assert not out.exists()


def test_receive_file_rejects_a_truncated_stream(tmp_path):
    # a stream shorter than its header's frames fails before any frame is
    # decoded, naming the IQ file
    src = tmp_path / "payload.bin"
    src.write_bytes(bytes(100))
    transmit_file(src, ExperimentConfig(), tmp_path / "s.iq",
                  tmp_path / "s.hdr")
    iq = tmp_path / "s.iq"
    iq.write_bytes(iq.read_bytes()[:8 * 20_000])
    want = f"{iq}: stream has 20000 samples, header implies >= 22500"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        receive_file(iq, tmp_path / "s.hdr", tmp_path / "out.bin")
    assert not (tmp_path / "out.bin").exists()


def _stream_file(tmp_path, frames: int, delay: int = 0, cut: int = 0):
    """A `frames`-frame stream of random bytes, delayed by `delay` samples
    and with its last `cut` samples cut off; returns (source, IQ, header)."""
    src, iq, hdr = (tmp_path / n for n in ("src.bin", "s.iq", "s.hdr"))
    src.write_bytes(np.random.default_rng(frames).integers(
        0, 256, frames * FrameLayout.payload_bits // 8 - 100,
        dtype=np.uint8).tobytes())
    transmit_file(src, ExperimentConfig(), iq, hdr)
    samples = np.concatenate([np.zeros(delay, dtype=complex), read_iq(iq)])
    write_iq(iq, samples[:samples.size - cut])
    return src, iq, hdr


def test_a_stream_syncs_each_frame_once(tmp_path, monkeypatch):
    # frame 0 is synced over the wide window by receive_frame itself, and
    # each later frame in its small window: one sync per frame
    src, iq, hdr = _stream_file(tmp_path, 3, delay=500)
    calls = []
    sync = rxchain.frame_sync

    def counted(rx, window):
        calls.append(window)
        return sync(rx, window)

    monkeypatch.setattr(rxchain, "frame_sync", counted)
    receive_file(iq, hdr, tmp_path / "out.bin")
    assert (tmp_path / "out.bin").read_bytes() == src.read_bytes()
    assert calls == [(0, 22_500), (23_000 - 2, 23_000 + 3),
                     (45_500 - 2, 45_500 + 3)]


def test_a_stream_holds_one_frame_of_results(tmp_path, allocation_peak):
    # each frame's bits and diagnostics are dropped before the next frame is
    # decoded, so a three-frame stream peaks within 64 KB of a one-frame
    # stream: its larger payload array and frame 0's wider sync window
    peaks = []
    for frames in (1, 3):
        _, iq, hdr = _stream_file(tmp_path, frames)
        samples, header = read_iq(iq), StreamHeader.read(hdr)
        harness.receive_stream(samples, header)   # warm
        peaks.append(allocation_peak(
            lambda: harness.receive_stream(samples, header)))
    assert peaks[1] <= peaks[0] + 64 * 1024


@pytest.mark.parametrize("cut", [100, 499])
def test_a_stream_cut_short_names_its_last_frame(tmp_path, capsys, cut):
    # the 500-sample delay lets the cut stream pass the length check, so it
    # is frame 1, found at sample 23 000, that runs past the end
    _, iq, hdr = _stream_file(tmp_path, 2, delay=500, cut=cut)
    out = tmp_path / "out.bin"
    with pytest.raises(PartialReceiveError) as exc:
        receive_file(iq, hdr, out)
    assert exc.value.frame_index == 1
    want = "frame 1: starts at sample 23000 and runs past the end"
    assert str(exc.value) == want
    assert main(["receive", str(iq), "--header", str(hdr),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"mslink: error: {want}\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("a", [0.6, 0.7, 0.8, 0.85])
def test_a_stream_over_a_long_channel_returns_its_bytes_or_raises(
        tmp_path, a, seed):
    # 12 taps a**k at unit energy outrun the stream's 8-symbol LS span
    # (harness.STREAM_EST_TAPS), and at a >= 0.8 frame 0's sync fails.  A
    # round trip must give back the file's bytes or raise
    # PartialReceiveError, never other bytes; at a <= 0.7 it decodes
    src, iq = tmp_path / "src.bin", tmp_path / "s.iq"
    data = np.random.default_rng(9000).integers(0, 256, 9000,
                                                dtype=np.uint8).tobytes()
    src.write_bytes(data)
    header = transmit_file(src, ExperimentConfig(), iq)
    taps = a ** np.arange(12)
    taps = tuple(complex(t) for t in taps / np.linalg.norm(taps))
    rx = apply_channel(BasebandSignal(read_iq(iq), header.sample_rate_hz, 1),
                       ChannelConfig(snr_db=20.0, fir_taps=taps, seed=seed))
    try:
        got = harness.receive_stream(rx.samples, header)
    except PartialReceiveError:
        assert a > 0.7
        return
    assert got.tobytes() == data


@pytest.mark.parametrize("mode", ["conventional", "metasurface"])
@pytest.mark.parametrize("channel", [
    {"timing_offset": 37}, {"fir_taps": (1.0, 0.3 - 0.2j, 0.1j)},
], ids=["offset", "3-tap"])
def test_run_frame_reports_the_sync_start(mode, channel):
    cfg = ExperimentConfig(mode=mode, **channel)
    _, bits, diag = run_frame(cfg, math.inf, 2)
    assert bits is not None
    assert diag.frame_start == cfg.timing_offset


def test_run_frame_reports_diagnostics():
    payload, bits, diag = run_frame(ExperimentConfig(), 15.0, seed=1)
    assert bits is not None
    assert diag.evm_percent > 0
    assert np.isfinite(diag.snr_estimate_db)
    assert diag.equalized_symbols.size == 9 * 2048


# --- per-thread frame scratch ------------------------------------------------------

def _poison(scratch):
    """Fill every scratch array with values no frame writes."""
    for buf in scratch.values():
        buf.fill(np.nan if buf.dtype.kind in "fc" else -7)


def _ids(scratch) -> dict:
    return {name: id(buf) for name, buf in scratch.items()}


def _frame_bytes(frame) -> tuple:
    """A run_frame result as bytes and floats, to compare bit for bit."""
    payload, bits, diag = frame
    return (payload.tobytes(), bits.tobytes(),
            diag.equalized_symbols.tobytes(), diag.cfo_estimate,
            diag.evm_percent)


def _results_survive_later_frames_and_alias_no_buffer(thread_scratch):
    # the thread holds the same arrays after a frame at any sps
    names = {"rx", "symbols", "decided"}
    for mode in ("conventional", "metasurface"):
        cfg = ExperimentConfig(mode=mode)
        payload, bits, diag = run_frame(cfg, 12.0, 3)
        first = (payload, bits, diag.equalized_symbols)
        kept = [a.tobytes() for a in first]
        run_frame(cfg, 12.0, 4)
        scratch = thread_scratch()
        _poison(scratch)
        assert [a.tobytes() for a in first] == kept
        assert set(scratch) == names
        for a in first:
            for name, buf in scratch.items():
                assert not np.shares_memory(a, buf), (mode, name)


def test_run_frame_results_survive_later_frames_and_alias_no_buffer(
        thread_scratch, in_fresh_thread):
    in_fresh_thread(_results_survive_later_frames_and_alias_no_buffer,
                    thread_scratch)


def test_each_thread_gets_its_own_buffers(thread_scratch, in_fresh_thread):
    cfg = ExperimentConfig(mode="metasurface", timing_offset=37)

    def scratch_after_a_frame():
        run_frame(cfg, 12.0, 1)
        return thread_scratch()

    mine = scratch_after_a_frame()
    other = in_fresh_thread(scratch_after_a_frame)
    assert set(mine) == set(other) == {"rx", "symbols", "decided"}
    for p in mine.values():
        for q in other.values():
            assert not np.shares_memory(p, q)
    # the received samples hold the frame, the delay and the FIR tail
    assert mine["rx"].size == other["rx"].size == 180_037
    # a frame of another length reallocates them; one of the same reuses
    run_frame(ExperimentConfig(mode="metasurface"), 12.0, 1)
    resized = thread_scratch()
    assert resized["rx"].size == 180_000
    half = ArrayConfig(mask="left-half")
    run_frame(ExperimentConfig(mode="metasurface", array=half), 12.0, 1)
    assert _ids(thread_scratch()) == _ids(resized)


def test_two_threads_never_share_a_scratch_array(thread_scratch):
    # both threads run frames of one config at once and keep their scratch
    # alive, so no array of one can be the freed memory of the other's
    cfg = ExperimentConfig()
    barrier = threading.Barrier(2, timeout=60)

    def frames(seed):
        barrier.wait()
        run_frame(cfg, 12.0, seed)
        scratch = thread_scratch()
        barrier.wait()
        return scratch

    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        a, b = pool.map(frames, (1, 2), timeout=120)
    assert set(a) == set(b) == {"rx", "symbols", "decided"}
    for p in a.values():
        for q in b.values():
            assert not np.shares_memory(p, q)


@pytest.mark.parametrize("mode", ["conventional", "metasurface"])
def test_threads_running_one_config_at_once_equal_a_sequential_run(mode):
    # three threads switching often, so that frames interleave inside
    # numpy's calls and between them
    cfg = ExperimentConfig(mode=mode, cfo_normalized=0.1,
                           fir_taps=(1.0, 0.3 - 0.2j))
    seeds = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
    barrier = threading.Barrier(len(seeds), timeout=60)

    def frames(thread_seeds):
        barrier.wait()
        return [_frame_bytes(run_frame(cfg, 12.0, s)) for s in thread_seeds]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(len(seeds)) as pool:
            at_once = list(pool.map(frames, seeds, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert at_once == [[_frame_bytes(run_frame(cfg, 12.0, s)) for s in ss]
                       for ss in seeds]


def test_a_config_holds_no_arrays_after_its_frames():
    # the scratch belongs to the thread, so a config is its fields alone,
    # and a copy of it shares nothing with it that a frame writes
    cfg = ExperimentConfig(mode="metasurface")
    run_frame(cfg, 12.0, 1)
    run_frame(copy.copy(cfg), 12.0, 2)
    assert set(vars(cfg)) == {f.name for f in dataclasses.fields(cfg)}
    assert not any(isinstance(v, np.ndarray) for v in vars(cfg).values())


# --- a frame's noise, drawn on its own thread -------------------------------

def test_a_frame_that_raises_draws_no_noise(monkeypatch, in_fresh_thread):
    # transmit_frame raises before the frame's channel pass, so the frame
    # draws no noise: the failures start no thread, and the thread's next
    # frame draws its own noise from the start, as a fresh thread's does
    cfg = ExperimentConfig(mode="metasurface")

    def fail(*args, **kwargs):
        raise RuntimeError("transmitter failed")

    with monkeypatch.context() as m:
        m.setattr(harness, "transmit_frame", fail)
        with pytest.raises(RuntimeError, match="transmitter failed"):
            run_frame(cfg, 12.0, 1)
        after_one = threading.active_count()
        threads = set(threading.enumerate())
        for seed in range(2, 51):
            with pytest.raises(RuntimeError, match="transmitter failed"):
                run_frame(cfg, 12.0, seed)
        # no thread was started; another test's finished thread may have
        # stopped meanwhile, so the set is the check
        assert set(threading.enumerate()) <= threads
        assert threading.active_count() <= after_one
    got = run_frame(cfg, 12.0, 7)
    assert _frame_bytes(got) == _frame_bytes(
        in_fresh_thread(run_frame, cfg, 12.0, 7))


def test_a_forked_child_draws_the_parents_frame():
    # the parent runs a frame before it forks; the child's frame of the
    # same seed, run on the forked state, returns the same bytes in time
    src = str(Path(mslink.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = textwrap.dedent("""
        import os, sys, time
        from mslink.harness import ExperimentConfig, run_frame

        def frame():
            cfg = ExperimentConfig(mode="metasurface")
            payload, bits, diag = run_frame(cfg, 12.0, 5)
            return [a.tobytes() for a in (payload, bits,
                                          diag.equalized_symbols)]

        want = frame()
        pid = os.fork()
        if pid == 0:
            os._exit(0 if frame() == want else 3)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                sys.exit(os.waitstatus_to_exitcode(status))
            time.sleep(0.01)
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        sys.exit(4)   # the child's frame did not return
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("channel", [
    {}, {"timing_offset": 37}, {"fir_taps": (1.0, 0.3 - 0.2j, 0.1j)},
    {"timing_offset": 37, "fir_taps": (1.0, 0.3 - 0.2j, 0.1j)},
], ids=["clean", "offset", "3-tap", "offset-3-tap"])
def test_warm_metasurface_config_holds_one_sample_rate_array(thread_scratch,
                                                             channel):
    # the transmitter writes into the received-samples array at the delay,
    # so the thread holds one 180 000-sample frame plus the channel's delay
    # and FIR tail, and the receiver's symbol-rate arrays: the dumped
    # symbols and the decisions
    cfg = ExperimentConfig(mode="metasurface", **channel)
    run_frame(cfg, 14.0, 0)
    run_frame(cfg, 14.0, 1)
    d, taps = cfg.timing_offset, len(cfg.fir_taps)
    receive = 16 * 22_500 + 8 * 18_432
    owned = [a for a in thread_scratch().values() if a.base is None]
    assert sum(a.nbytes for a in owned) == (
        16 * (180_000 + d + taps - 1) + receive)


def test_frames_at_any_sps_allocate_no_ramp(thread_scratch, in_fresh_thread):
    # the derotation ramp is built in the symbols' array at sps 1 and in one
    # block-sized temporary above it, so a thread's first frame at sps 8
    # adds no array to those its conventional frames hold
    def owned_after_frames(cfg):
        run_frame(cfg, 14.0, 0)
        run_frame(cfg, 14.0, 1)
        return {name: a.nbytes for name, a in thread_scratch().items()
                if a.base is None}

    def both_modes():
        return (owned_after_frames(ExperimentConfig()),
                owned_after_frames(ExperimentConfig(mode="metasurface")))

    conventional, metasurface = in_fresh_thread(both_modes)
    receive = {"symbols": 16 * 22_500, "decided": 8 * 18_432}
    assert conventional == {"rx": 16 * 22_500, **receive}
    assert metasurface == {"rx": 16 * 180_000, **receive}


def test_run_frame_channel_is_the_default_noise_reference():
    # run_frame's noise is charged against ChannelConfig's default reference,
    # the unit incident-power budget, so a metasurface frame, which reflects
    # less power than lights it, arrives below the configured SNR
    taps = (1.0 + 0.0j, 0.3 - 0.2j)
    cfg = ExperimentConfig(mode="metasurface", cfo_normalized=0.2,
                           timing_offset=37, complex_gain=0.8 - 0.4j,
                           fir_taps=taps)
    ch = _channel(cfg, 10.0, 3)
    default = ChannelConfig(snr_db=10.0, cfo_normalized=0.2, timing_offset=37,
                            complex_gain=0.8 - 0.4j, fir_taps=taps,
                            seed=3 + _NOISE_SEED_OFFSET)
    assert ch == default and ch.ref_power == 1.0
    _, sig = transmit_frame(cfg, 3)
    assert np.mean(np.abs(sig.samples) ** 2) < 0.9
    y = apply_channel(sig, ch).samples
    assert y.tobytes() == apply_channel(sig, default).samples.tobytes()
    clean = apply_channel(sig, dataclasses.replace(ch, snr_db=math.inf))
    noise = np.mean(np.abs(y - clean.samples) ** 2)
    assert noise == pytest.approx(8 * 0.1, rel=0.02)


def _unbuffered_frame(cfg, snr_db, seed):
    """run_frame's recipe with every array freshly allocated: run in a
    fresh thread, whose receive buffers are new too."""
    payload, sig = transmit_frame(cfg, seed)
    rx = apply_channel(sig, _channel(cfg, snr_db, seed))
    window = (0, cfg.timing_offset
              + sig.samples_per_symbol * (len(cfg.fir_taps) + 2))
    bits, diag = receive_frame(rx, search_window=window,
                               est_taps=cfg.resolved_est_taps())
    return payload, bits, diag


@pytest.mark.parametrize("channel", [
    {}, {"cfo_normalized": 0.3}, {"fir_taps": (1.0, 0.3 - 0.2j, 0.1j)},
    {"timing_offset": 37}, {"complex_gain": 0.5 + 0.5j},
    {"sps": 4, "cfo_normalized": -0.2},
], ids=["clean", "cfo", "3-tap", "offset", "gain", "sps4-cfo"])
@pytest.mark.parametrize("mode", ["conventional", "metasurface"])
def test_run_frame_equals_the_unbuffered_recipe(thread_scratch,
                                                in_fresh_thread, mode,
                                                channel):
    # the recipe builds every array afresh in a thread of its own; run_frame's
    # second and third frames run in this thread's warm scratch, the third
    # in scratch filled with values no frame writes, so any array read
    # before it is written shows
    cfg = ExperimentConfig(mode=mode, **channel)
    for seed in (5, 6, 7):
        if seed == 7:
            scratch = thread_scratch()
            _poison(scratch)
        got = run_frame(cfg, 12.0, seed)
        if seed == 7:   # the frame ran in the poisoned arrays
            assert _ids(thread_scratch()) == _ids(scratch)
        want = in_fresh_thread(_unbuffered_frame, cfg, 12.0, seed)
        assert _frame_bytes(got) == _frame_bytes(want)


def _warm_frame_peak(cfg, allocation_peak) -> int:
    """Allocation peak of a warm frame, in bytes."""
    run_frame(cfg, 14.0, 0)
    return allocation_peak(lambda: run_frame(cfg, 14.0, 1))


def test_warm_metasurface_frame_allocates_less_than_one_sample_array(
        allocation_peak):
    # a 180 000-sample array is 2.88 MB; the frame's fresh results (payload,
    # bits and equalized symbols, 0.88 MB) stay below 1.2 MB
    peak = _warm_frame_peak(ExperimentConfig(mode="metasurface"),
                            allocation_peak)
    assert peak < 16 * 180_000
    assert peak < 1.2e6


@pytest.mark.parametrize("mode", ["conventional", "metasurface"])
def test_a_sweep_holds_one_frame_of_results(allocation_peak, mode):
    # each frame's payload, bits and diagnostics are dropped before the next
    # frame runs, so a 2-point x 2-frame sweep peaks within 64 KB of the
    # largest warm run_frame of the same frames
    cfg = ExperimentConfig(mode=mode, snr_list=(12.0, 14.0),
                           frames_per_point=2)
    run_ber_sweep(cfg)   # warm
    frame = max(
        allocation_peak(lambda: run_frame(cfg, snr, p * SEED_POINT_STRIDE + f))
        for p, snr in enumerate(cfg.snr_list) for f in range(2))
    assert allocation_peak(lambda: run_ber_sweep(cfg)) <= frame + 64 * 1024


def test_warm_conventional_frame_allocates_little_beyond_its_results(
        allocation_peak):
    # the symbol-rate arrays run in buffers: what a warm frame allocates is
    # its fresh results (0.88 MB) and small per-block temporaries
    assert _warm_frame_peak(ExperimentConfig(), allocation_peak) < 1.2e6
