"""Metamorphic relations of the receiver: changes to the received samples
whose effect on `receive_frame` is known exactly, so that they check it
without an oracle (Chen et al., "Metamorphic testing: a review of challenges
and opportunities", ACM Computing Surveys 51(1), 2018).

- Scale: on k·y, k a power of two, the receiver returns byte-identical bits,
  equalized symbols, CFO estimate, phase-loop factors and sync margin, and
  a channel estimate of exactly k times the bytes.  The scale is exact in
  floating point, and every stage is homogeneous in y: the sync threshold
  is relative to the segment's power, the CFO estimate is an angle, and the
  symbols are divided by a channel estimate that scales with y.
- Rotation: on j^m·y, a quarter turn, it returns the same bits and CFO
  estimate, and equalized symbols and phase-loop factors within 1e-15
  relative (norm-wise), and a channel estimate within 1e-15 of j^m times
  its own.  The turn is exact, but the transforms round the swapped parts
  apart.
- Timing offset: at SNR = inf, a channel delay of d samples moves the frame
  start the receiver finds by exactly d, and its bits, equalized symbols,
  CFO estimate, channel estimate and phase-loop factors are byte-identical.
  The delay prepends d zeros and leaves every later sample as it was, so
  only the sync search, whose window and FFT blocks now start d samples
  earlier, sees a difference.
- Gain: at a finite SNR, twice the channel's complex gain with four times
  the incident power the noise is charged against (`ref_power`) gives
  exactly twice the received samples, signal and noise alike, so the
  receiver returns byte-identical bits, equalized symbols, phase-loop
  factors and sync margin, and a channel estimate of exactly twice the
  bytes.  Doubling is exact in floating point, the noise scale
  sqrt(4 var / 2) is exactly twice sqrt(var / 2), and the rest is the
  scale relation.  It pins the scale the noise is drawn at.
- Mask: two activation masks of the metasurface with the same number of
  active cells give byte-identical transmit samples, bits, equalized
  symbols and CFO estimate.  The receiver sits at boresight, where every
  cell's reflection arrives in phase, so which cells are active cannot
  matter, only how many.

A frame that the receiver cannot decode fails the same way under both.
Each frame is drawn as `run_frame` makes it, and received as `run_frame`
receives it.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslink.channel import apply_channel
from mslink.errors import SingularChannelError, SyncNotFoundError
from mslink.harness import ExperimentConfig, _channel, transmit_frame
from mslink.rxchain import receive_frame
from mslink.surface import ArrayConfig
from mslink.txchain import BasebandSignal

frames = st.fixed_dictionaries({
    "mode": st.sampled_from(["conventional", "metasurface"]),
    "sps": st.sampled_from([1, 2, 4, 8]),
    # a unit first tap and echoes of at most 0.4 in each part: no spectral
    # null, so the channel estimate has no zero bin
    "fir_taps": st.lists(st.complex_numbers(max_magnitude=0.4),
                         max_size=2).map(lambda echoes: (1.0, *echoes)),
    "cfo_normalized": st.floats(-0.45, 0.45),
})
snrs = st.sampled_from([8.0, 20.0, math.inf])
seeds = st.integers(0, 2 ** 16)


def _received(fields, snr_db, seed):
    """The frame run_frame(cfg, snr_db, seed) receives, and its config."""
    cfg = ExperimentConfig(**fields)
    _, sig = transmit_frame(cfg, seed)
    return apply_channel(sig, _channel(cfg, snr_db, seed)), cfg


def _receive(rx, cfg, samples):
    """receive_frame on `samples` in place of rx's, called as run_frame
    calls it: (bits, equalized symbols, CFO estimate, frame start,
    diagnostics), or the type of the error that stops the frame."""
    sps = rx.samples_per_symbol
    window = (0, cfg.timing_offset + sps * (len(cfg.fir_taps) + 2))
    try:
        bits, diag = receive_frame(
            BasebandSignal(samples, rx.sample_rate, sps),
            search_window=window, est_taps=cfg.resolved_est_taps())
    except (SyncNotFoundError, SingularChannelError) as exc:
        return type(exc)
    return (bits, diag.equalized_symbols, diag.cfo_estimate,
            diag.frame_start, diag)


@settings(max_examples=30, deadline=None)
@given(fields=frames, snr_db=snrs, seed=seeds,
       k=st.sampled_from([0.125, 0.5, 2.0, 4.0]))
def test_a_power_of_two_scale_changes_nothing(fields, snr_db, seed, k):
    rx, cfg = _received(fields, snr_db, seed)
    want = _receive(rx, cfg, rx.samples)
    got = _receive(rx, cfg, k * rx.samples)
    if isinstance(want, type):
        assert got is want
        return
    bits, eq, eps, _, diag = got
    assert bits.tobytes() == want[0].tobytes()
    assert eq.tobytes() == want[1].tobytes()
    assert eps == want[2]
    assert (diag.channel_estimate.tobytes()
            == (k * want[4].channel_estimate).tobytes())
    assert diag.phase_rotations.tobytes() == want[4].phase_rotations.tobytes()
    assert diag.sync_margin == want[4].sync_margin


@settings(max_examples=30, deadline=None)
@given(fields=frames, snr_db=snrs, seed=seeds, m=st.integers(1, 3))
def test_a_quarter_turn_changes_no_decision(fields, snr_db, seed, m):
    rx, cfg = _received(fields, snr_db, seed)
    want = _receive(rx, cfg, rx.samples)
    got = _receive(rx, cfg, 1j ** m * rx.samples)
    if isinstance(want, type):
        assert got is want
        return
    bits, eq, eps, _, diag = got
    assert bits.tobytes() == want[0].tobytes()
    assert eps == want[2]
    assert np.linalg.norm(eq - want[1]) <= 1e-15 * np.linalg.norm(want[1])
    h, h_want = diag.channel_estimate, 1j ** m * want[4].channel_estimate
    assert np.linalg.norm(h - h_want) <= 1e-15 * np.linalg.norm(h_want)
    rot, rot_want = diag.phase_rotations, want[4].phase_rotations
    assert np.linalg.norm(rot - rot_want) <= 1e-15 * np.linalg.norm(rot_want)


@settings(max_examples=30, deadline=None)
@given(fields=frames, seed=seeds, d=st.integers(1, 600),
       gain=st.sampled_from([1.0, 0.5j, -0.3 + 0.6j]))
def test_a_timing_offset_moves_the_frame_start_and_nothing_else(fields, seed,
                                                                d, gain):
    fields = {**fields, "complex_gain": gain}
    rx, cfg = _received(fields, math.inf, seed)
    late, late_cfg = _received({**fields, "timing_offset": d}, math.inf, seed)
    assert late.samples[d:].tobytes() == rx.samples.tobytes()
    want = _receive(rx, cfg, rx.samples)
    got = _receive(late, late_cfg, late.samples)
    if isinstance(want, type):
        assert got is want
        return
    bits, eq, eps, start, diag = got
    assert start == want[3] + d
    assert bits.tobytes() == want[0].tobytes()
    assert eq.tobytes() == want[1].tobytes()
    assert eps == want[2]
    assert (diag.channel_estimate.tobytes()
            == want[4].channel_estimate.tobytes())
    assert diag.phase_rotations.tobytes() == want[4].phase_rotations.tobytes()


@settings(max_examples=20, deadline=None)
@given(fields=frames, sps=st.sampled_from([1, 8]),
       snr_db=st.sampled_from([8.0, 20.0]), seed=seeds,
       gain=st.sampled_from([1.0, 0.5j, -0.3 + 0.6j]))
def test_twice_the_gain_on_four_times_the_noise_budget_doubles_the_frame(
        fields, sps, snr_db, seed, gain):
    cfg = ExperimentConfig(**{**fields, "sps": sps, "complex_gain": gain})
    _, sig = transmit_frame(cfg, seed)
    ch = _channel(cfg, snr_db, seed)
    rx = apply_channel(sig, ch)
    louder = apply_channel(sig, dataclasses.replace(
        ch, complex_gain=2 * gain, ref_power=4 * ch.ref_power))
    assert louder.samples.tobytes() == (2 * rx.samples).tobytes()
    want = _receive(rx, cfg, rx.samples)
    got = _receive(louder, cfg, louder.samples)
    if isinstance(want, type):
        assert got is want
        return
    bits, eq, eps, start, diag = got
    assert bits.tobytes() == want[0].tobytes()
    assert eq.tobytes() == want[1].tobytes()
    assert (eps, start) == want[2:4]
    assert (diag.channel_estimate.tobytes()
            == (2 * want[4].channel_estimate).tobytes())
    assert diag.phase_rotations.tobytes() == want[4].phase_rotations.tobytes()
    assert diag.sync_margin == want[4].sync_margin


def _same_decode(got, want):
    """Whether two _receive results are byte for byte the same decode, or
    the same failure."""
    if isinstance(want, type) or isinstance(got, type):
        return got is want
    return (got[0].tobytes() == want[0].tobytes()
            and got[1].tobytes() == want[1].tobytes()
            and got[2] == want[2] and got[3] == want[3])


def _mask_frames(fields, masks, gamma_static, snr_db, seed):
    """Per mask: the transmitted samples and the decode of the received
    frame, the link otherwise as `fields` set it."""
    out = []
    for mask in masks:
        array = ArrayConfig(mask=mask, gamma_static=gamma_static)
        cfg = ExperimentConfig(**{**fields, "mode": "metasurface",
                                  "array": array})
        _, sig = transmit_frame(cfg, seed)
        rx = apply_channel(sig, _channel(cfg, snr_db, seed))
        out.append((sig.samples.tobytes(), _receive(rx, cfg, rx.samples)))
    return out


def _random_mask(n_active, rng):
    cells = np.zeros(ArrayConfig.n_total, dtype=bool)
    cells[rng.choice(cells.size, n_active, replace=False)] = True
    return cells


@pytest.mark.parametrize("gamma_static", [0.0, 0.3 - 0.1j])
def test_half_masks_differ_only_in_which_cells_are_active(gamma_static):
    masks = ["left-half", "right-half",
             _random_mask(64, np.random.default_rng(0))]
    fields = {"cfo_normalized": 0.2, "fir_taps": (1.0, 0.3 - 0.2j)}
    (tx, want), *others = _mask_frames(fields, masks, gamma_static, 12.0, 3)
    assert not isinstance(want, type)   # the frame decodes
    for other_tx, got in others:
        assert other_tx == tx
        assert _same_decode(got, want)


@settings(max_examples=20, deadline=None)
@given(fields=frames, snr_db=snrs, seed=seeds,
       n_active=st.integers(0, ArrayConfig.n_total),
       gamma_static=st.sampled_from([0.0, 0.3 - 0.1j, -0.5j]),
       mask_seed=st.integers(0, 2 ** 16))
def test_masks_with_as_many_active_cells_give_the_same_frame(
        fields, snr_db, seed, n_active, gamma_static, mask_seed):
    rng = np.random.default_rng(mask_seed)
    masks = [_random_mask(n_active, rng) for _ in range(2)]
    (tx, want), (other_tx, got) = _mask_frames(fields, masks, gamma_static,
                                               snr_db, seed)
    assert other_tx == tx
    assert _same_decode(got, want)
