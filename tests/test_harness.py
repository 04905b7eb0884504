import math

import numpy as np
import pytest

from mslink.channel import ChannelConfig, apply_channel
from mslink.errors import InterpolationError
from mslink.harness import (SEED_POINT_STRIDE, BerRecord, ExperimentConfig,
                            bits_from_file, bits_to_bytes, compare_architectures,
                            measure_link_snr, receive_file, run_ber_sweep,
                            run_frame, snr_at_ber, theoretical_qpsk_ber,
                            transmit_file, write_ber_csv)
from mslink.iqfile import StreamHeader, read_iq, write_iq
from mslink.surface import ArrayConfig
from mslink.txchain import BasebandSignal


def test_theoretical_qpsk_ber_limits():
    assert theoretical_qpsk_ber(math.inf) == 0.0
    assert theoretical_qpsk_ber(-math.inf) == 0.5
    assert theoretical_qpsk_ber(0.0) == pytest.approx(0.0786496, abs=1e-6)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(mode="analog")
    with pytest.raises(ValueError):
        ExperimentConfig(snr_list=())
    with pytest.raises(ValueError):
        ExperimentConfig(frames_per_point=0)


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


def test_measure_link_snr_tracks_configured_for_unit_power():
    cfg = ExperimentConfig()  # ideal QPSK, unit mean power
    got = measure_link_snr(cfg, 12.0, seed=0)
    assert got == pytest.approx(12.0, abs=0.05)


def test_half_activation_costs_six_db():
    full = ExperimentConfig(mode="metasurface", array=ArrayConfig(mask="full"))
    half = ExperimentConfig(mode="metasurface",
                            array=ArrayConfig(mask="left-half"))
    diff = measure_link_snr(full, 15.0, 3) - measure_link_snr(half, 15.0, 3)
    assert diff == pytest.approx(6.0206, abs=0.3)


def test_sync_failure_flagged_as_errored_frame():
    # pure-noise regime: SNR far below the detection floor
    cfg = ExperimentConfig(snr_list=(-40.0,), frames_per_point=1)
    (rec,) = run_ber_sweep(cfg)
    assert rec.sync_failures == 1
    assert rec.bit_errors == rec.bits_simulated


def test_write_ber_csv_format(tmp_path):
    path = tmp_path / "ber.csv"
    write_ber_csv([BerRecord(5.0, 100, 3, 0.03),
                   BerRecord(7.0, 100, 0, 0.0, sync_failures=1)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "snr_db,bits,errors,ber"
    assert lines[1].startswith("5.0,100,3,")
    assert any(line.startswith("# sync_failures=1") for line in lines)


# --- bit/byte helpers -------------------------------------------------------------

def test_bits_roundtrip_msb_first(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(bytes([0b10110001, 0xFF, 0x00]))
    bits = bits_from_file(path)
    assert list(bits[:8]) == [1, 0, 1, 1, 0, 0, 0, 1]
    assert bits_to_bytes(bits) == bytes([0b10110001, 0xFF, 0x00])
    with pytest.raises(ValueError):
        bits_to_bytes([0, 1, 0])


# --- IQ files and headers ----------------------------------------------------------

def test_iq_file_roundtrip(tmp_path):
    path = tmp_path / "s.iq"
    x = np.array([1 + 2j, -0.5j, 3.25])
    write_iq(path, x)
    np.testing.assert_allclose(read_iq(path), x)
    # interleaved little-endian float32 layout
    raw = np.fromfile(path, dtype="<f4")
    np.testing.assert_allclose(raw, [1, 2, 0, -0.5, 3.25, 0])


def test_stream_header_roundtrip(tmp_path):
    path = tmp_path / "s.hdr"
    # numpy scalars are written as plain numbers too
    for real, num in ((float, int), (np.float64, np.int64)):
        hdr = StreamHeader(real(1.25e6), num(1), num(3), num(17), num(1))
        hdr.write(path)
        assert path.read_text() == ("sample_rate_hz = 1250000.0\n"
                                    "samples_per_symbol = 1\nframes = 3\n"
                                    "pad_bits = 17\npilot_seed = 1\n")
        assert StreamHeader.read(path) == hdr


def test_stream_header_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.hdr"
    path.write_text("frames = 1\n")
    with pytest.raises(ValueError, match="missing keys"):
        StreamHeader.read(path)


@pytest.mark.parametrize("line, message", [
    ("gain = 2", "unknown key 'gain'"),
    ("frames 3", "expected 'key = value'"),
], ids=["unknown-key", "no-equals"])
def test_stream_header_rejects_malformed_lines(tmp_path, line, message):
    path = tmp_path / "bad.hdr"
    StreamHeader(1.25e6, 1, 3, 17, 1).write(path)
    with open(path, "a") as fh:
        fh.write(line + "\n")
    with pytest.raises(ValueError) as err:
        StreamHeader.read(path)
    assert str(err.value) == f"{path}:6: {message}"


# --- file transport -----------------------------------------------------------------

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


def test_receive_file_rejects_inconsistent_header(tmp_path):
    src = tmp_path / "payload.bin"
    src.write_bytes(bytes(100))
    hdr = transmit_file(src, ExperimentConfig(), tmp_path / "s.iq",
                        tmp_path / "s.hdr")
    bad = StreamHeader(hdr.sample_rate_hz, hdr.samples_per_symbol,
                       hdr.frames + 1, hdr.pad_bits, hdr.pilot_seed)
    with pytest.raises(ValueError):
        receive_file(tmp_path / "s.iq", bad, tmp_path / "out.bin")


def test_run_frame_reports_diagnostics():
    payload, bits, diag = run_frame(ExperimentConfig(), 15.0, seed=1)
    assert bits is not None
    assert diag.evm_percent > 0
    assert np.isfinite(diag.snr_estimate_db)
    assert diag.equalized_symbols.size == 9 * 2048
