"""Metamorphic relations of the receiver: changes to the received samples
whose effect on `receive_frame` is known exactly, so that they check it
without an oracle (Chen et al., "Metamorphic testing: a review of challenges
and opportunities", ACM Computing Surveys 51(1), 2018).

- Scale: on k·y, k a power of two, the receiver returns byte-identical bits,
  equalized symbols and CFO estimate.  The scale is exact in floating point,
  and every stage is homogeneous in y: the sync threshold is relative to
  the segment's power, the CFO estimate is an angle, and the symbols are
  divided by a channel estimate that scales with y.
- Rotation: on j^m·y, a quarter turn, it returns the same bits and CFO
  estimate, and equalized symbols within 1e-15 relative (norm-wise).  The
  turn is exact, but the transforms round the swapped parts apart.
- Timing offset: at SNR = inf, a channel delay of d samples moves the frame
  start the receiver finds by exactly d, and its bits, equalized symbols
  and CFO estimate are byte-identical.  The delay prepends d zeros and
  leaves every later sample as it was, so only the sync search, whose
  window and FFT blocks now start d samples earlier, sees a difference.

A frame that the receiver cannot decode fails the same way under both.
Each frame is drawn as `run_frame` makes it, and received as `run_frame`
receives it.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from mslink.channel import apply_channel
from mslink.errors import SingularChannelError, SyncNotFoundError
from mslink.harness import ExperimentConfig, _channel, transmit_frame
from mslink.rxchain import receive_frame
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
    calls it: (bits, equalized symbols, CFO estimate, frame start), or the
    type of the error that stops the frame."""
    sps = rx.samples_per_symbol
    window = (0, cfg.timing_offset + sps * (len(cfg.fir_taps) + 2))
    try:
        bits, diag = receive_frame(
            BasebandSignal(samples, rx.sample_rate, sps),
            search_window=window, est_taps=cfg.resolved_est_taps())
    except (SyncNotFoundError, SingularChannelError) as exc:
        return type(exc)
    return (bits, diag.equalized_symbols, diag.cfo_estimate,
            diag.frame_start)


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
    bits, eq, eps, _ = got
    assert bits.tobytes() == want[0].tobytes()
    assert eq.tobytes() == want[1].tobytes()
    assert eps == want[2]


@settings(max_examples=30, deadline=None)
@given(fields=frames, snr_db=snrs, seed=seeds, m=st.integers(1, 3))
def test_a_quarter_turn_changes_no_decision(fields, snr_db, seed, m):
    rx, cfg = _received(fields, snr_db, seed)
    want = _receive(rx, cfg, rx.samples)
    got = _receive(rx, cfg, 1j ** m * rx.samples)
    if isinstance(want, type):
        assert got is want
        return
    bits, eq, eps, _ = got
    assert bits.tobytes() == want[0].tobytes()
    assert eps == want[2]
    assert np.linalg.norm(eq - want[1]) <= 1e-15 * np.linalg.norm(want[1])


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
    bits, eq, eps, start = got
    assert start == want[3] + d
    assert bits.tobytes() == want[0].tobytes()
    assert eq.tobytes() == want[1].tobytes()
    assert eps == want[2]
