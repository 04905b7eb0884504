"""Acceptance suite: one test per primary deliverable criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -v -s` or in
captured output) and then asserts, so the criterion, the measured value, and
the tolerance are always recorded together.
"""

import math

import numpy as np

from mslink.channel import ChannelConfig, apply_channel
from mslink.circuit import (CircuitParams, VaractorModel, DEFAULT_FREQUENCY,
                            build_gamma_lut, default_gamma_lut)
from mslink.harness import (ExperimentConfig, measure_link_snr, receive_file,
                            run_ber_sweep, snr_at_ber, theoretical_qpsk_ber,
                            transmit_file)
from mslink.iqfile import read_iq, write_iq
from mslink.rxchain import estimate_cfo_cp
from mslink.surface import ArrayConfig
from mslink.txchain import (BasebandSignal, FrameLayout, SYMBOL_RATE,
                            build_frame, ideal_qpsk, impaired_qpsk,
                            synthesize_baseband, synthesize_passband)


def _line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_frame_constant_reproduction():
    lay = FrameLayout()
    payload = np.random.default_rng(0).integers(0, 2, lay.payload_bits)
    n_symbols = build_frame(payload).size
    rate = lay.payload_bits * SYMBOL_RATE / lay.frame_len
    ok = (n_symbols == 22500 and lay.payload_bits == 36864
          and rate == 2.048e6)
    _line("frame constants", ok,
          f"{n_symbols} symbols, {lay.payload_bits} bits, {rate / 1e6} Mbps")
    assert ok


def test_conventional_chain_matches_qpsk_oracle():
    # Eb/N0 grid in dB; Es/N0 = Eb/N0 + 3.01 dB for QPSK
    ebn0 = (2.0, 4.0, 6.0, 8.0, 10.0)
    frames = 30  # 1,105,920 bits per point
    cfg = ExperimentConfig(
        snr_list=tuple(e + 10 * math.log10(2) for e in ebn0),
        frames_per_point=frames, base_seed=0)
    records = run_ber_sweep(cfg)
    worst = 0.0
    for rec, eb in zip(records, ebn0):
        p = theoretical_qpsk_ber(eb)
        sigma = math.sqrt(p * (1 - p) / rec.bits_simulated)
        worst = max(worst, abs(rec.ber - p) / sigma)
    ok = worst <= 3.0 and all(r.bits_simulated >= 1_000_000 for r in records)
    _line("conventional chain vs closed-form QPSK", ok,
          f"worst deviation {worst:.2f} binomial sigma over Eb/N0 {ebn0}")
    assert ok


def test_half_activation_gap_and_symmetry():
    full = ExperimentConfig(mode="metasurface", array=ArrayConfig(mask="full"))
    half = ExperimentConfig(mode="metasurface",
                            array=ArrayConfig(mask="left-half"))
    gap = np.mean([measure_link_snr(full, 15.0, s)
                   - measure_link_snr(half, 15.0, s) for s in range(3)])
    grid = (18.0, 20.0)
    left = run_ber_sweep(ExperimentConfig(
        mode="metasurface", snr_list=grid, frames_per_point=3,
        array=ArrayConfig(mask="left-half")))
    right = run_ber_sweep(ExperimentConfig(
        mode="metasurface", snr_list=grid, frames_per_point=3,
        array=ArrayConfig(mask="right-half")))
    ok = abs(gap - 6.02) <= 0.3 and left == right
    _line("half-activation", ok,
          f"measured SNR gap {gap:.3f} dB (target 6.02 +- 0.3); "
          f"left/right curves identical: {left == right}")
    assert ok


def test_architecture_gap():
    grid = (10.0, 12.0, 14.0, 16.0, 18.0)
    conv = ExperimentConfig(snr_list=grid, frames_per_point=10, base_seed=0)
    meta = ExperimentConfig(mode="metasurface", snr_list=grid,
                            frames_per_point=10, base_seed=0)
    rec_c = run_ber_sweep(conv)
    rec_m = run_ber_sweep(meta)
    right = all(m.ber > c.ber or (m.ber == 0 and c.ber == 0)
                for m, c in zip(rec_m, rec_c))
    snr_c = snr_at_ber(rec_c, 1e-4)
    gap = snr_at_ber(rec_m, 1e-4) - snr_c

    # shrink the impairment: widen the span toward 270 degrees and blend the
    # magnitudes toward unity, with common random numbers throughout
    lut_mags = np.abs(meta.resolved_constellation().points)
    gaps = []
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        pts = impaired_qpsk(255.0 + 15.0 * t,
                            lut_mags + (1.0 - lut_mags) * t)
        cfg = ExperimentConfig(mode="metasurface", snr_list=grid,
                               frames_per_point=10, base_seed=0,
                               constellation=pts)
        gaps.append(snr_at_ber(run_ber_sweep(cfg), 1e-4) - snr_c)
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))

    ok = right and 2.0 <= gap <= 8.0 and monotone
    _line("architecture gap", ok,
          f"default gap {gap:.2f} dB (window 2..8); curve strictly right: "
          f"{right}; gaps over widening span {np.round(gaps, 2)} "
          f"strictly decreasing: {monotone}")
    assert ok


def test_cfo_estimator_rms():
    # three back-to-back frames (30 cyclic prefixes) per observation
    chunks = []
    for i in range(3):
        payload = np.random.default_rng(50 + i).integers(0, 2, 36864)
        chunks.append(synthesize_baseband(build_frame(payload),
                                          ideal_qpsk(), 1).samples)
    sig = BasebandSignal(samples=np.concatenate(chunks),
                         sample_rate=SYMBOL_RATE, samples_per_symbol=1)
    worst = 0.0
    for i, eps in enumerate((-0.3, -0.1, 0.1, 0.3)):
        sq = 0.0
        for t in range(100):
            rx = apply_channel(sig, ChannelConfig(
                snr_db=10.0, cfo_normalized=eps, seed=1000 * i + t,
                ref_power=1.0))
            sq += (estimate_cfo_cp(rx.samples) - eps) ** 2
        worst = max(worst, math.sqrt(sq / 100))
    ok = worst < 1e-3
    _line("CFO estimator", ok,
          f"worst RMS error {worst:.2e} over eps in +-{{0.1, 0.3}} "
          f"at SNR 10 dB (bound 1e-3)")
    assert ok


def test_end_to_end_file_roundtrip(tmp_path):
    src = tmp_path / "payload.bin"
    data = np.random.default_rng(42).integers(0, 256, 125_000,
                                              dtype=np.uint8)  # 1 Mbit
    src.write_bytes(data.tobytes())
    cfg = ExperimentConfig()
    hdr = transmit_file(src, cfg, tmp_path / "tx.iq", tmp_path / "tx.hdr")
    clean = read_iq(tmp_path / "tx.iq")
    rx = apply_channel(
        BasebandSignal(samples=clean, sample_rate=hdr.sample_rate_hz,
                       samples_per_symbol=hdr.samples_per_symbol),
        ChannelConfig(snr_db=30.0, cfo_normalized=0.05, timing_offset=500,
                      fir_taps=(1.0 + 0.0j, 0.3 - 0.2j, 0.1 + 0.05j),
                      seed=99, ref_power=1.0))
    write_iq(tmp_path / "rx.iq", rx.samples)
    receive_file(tmp_path / "rx.iq", tmp_path / "tx.hdr",
                 tmp_path / "out.bin")
    got = np.frombuffer((tmp_path / "out.bin").read_bytes(), dtype=np.uint8)
    errors = int(np.count_nonzero(np.unpackbits(data) != np.unpackbits(got)))
    ok = errors == 0
    _line("end-to-end robustness", ok,
          f"{errors} bit errors over 1 Mbit at SNR 30 dB, eps 0.05, "
          f"offset 500, 3-tap channel")
    assert ok


def test_passband_spectrum_property():
    # cyclic P1 P2 P3 P4 drive: the reflection sequence is one complex tone,
    # so the positive-frequency passband FFT must be the baseband spectrum
    # translated to the carrier bin
    idx = np.tile([0, 1, 2, 3], 256)
    pts = ideal_qpsk()
    fs, fc, phi, amp = 1.6e6, 1e5, 0.25, 1.5
    s = synthesize_passband(idx, pts, fc, fs, sps=1, amplitude=amp,
                            phase0=phi)
    n = idx.size
    kc = int(round(n * fc / fs))
    shifted = 0.5 * amp * np.exp(1j * phi) * np.roll(np.fft.fft(
        pts.points[idx]), kc)
    got = np.fft.fft(s)[: n // 2]
    expect = shifted[: n // 2]
    err = np.linalg.norm(got - expect) / np.linalg.norm(expect)
    ok = err < 1e-6
    _line("passband spectrum identity", ok,
          f"relative L2 error {err:.2e} (bound 1e-6)")
    assert ok


def test_circuit_invariants():
    passive = True
    for r in (0.0, 1.0, 6.0, 12.0, 50.0):
        lut = build_gamma_lut(VaractorModel(), CircuitParams(r_series=r),
                              DEFAULT_FREQUENCY)
        passive &= bool(np.all(lut.magnitudes <= 1.0 + 1e-12))
    lossless_lut = build_gamma_lut(VaractorModel(),
                                   CircuitParams(r_series=0.0),
                                   DEFAULT_FREQUENCY)
    lossless = bool(np.all(np.abs(lossless_lut.magnitudes - 1.0) <= 1e-9))
    span = default_gamma_lut().phase_span_deg()
    ok = passive and lossless and span >= 255.0
    _line("circuit invariants", ok,
          f"passivity {passive}, losslessness {lossless}, "
          f"default span {span:.1f} deg (>= 255)")
    assert ok
