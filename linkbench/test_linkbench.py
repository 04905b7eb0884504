"""Tests of the benchmark itself:  PYTHONPATH=src python3 -m pytest linkbench"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import BINDINGS, SPANS, Tracer, time_metric  # noqa: E402


def _bindings():
    return {(mod, attr): getattr(importlib.import_module(mod), attr)
            for mod, attr, _, _ in BINDINGS}


def test_tracer_restores_every_binding(tmp_path):
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            during = _bindings()
            run.measure(workloads.make("stream_impaired", 0, tmp_path),
                        0, 0, tracer, min_ops=1)
            raise RuntimeError("leave the traced block by an exception")
    after = _bindings()
    for key, fn in before.items():
        assert during[key] is not fn and during[key].__wrapped__ is fn, key
        assert after[key] is fn, key
    assert tracer.calls["iqfile.write"] == 2 and tracer.calls["iqfile.read"] == 2


def test_traced_and_untraced_give_the_same_ber_hash():
    n = len(workloads.GRID) * workloads.CHECK_FRAMES
    plain = workloads.make("sweep_conventional", 7, None)
    ops = run.measure(plain, 0, 0, None, min_ops=n)[0]
    traced = workloads.make("sweep_conventional", 7, None)
    with Tracer() as tracer:
        traced_ops = run.measure(traced, 0, 0, tracer, min_ops=n)[0]
    assert tracer.calls["rxchain.slicer"] == 28 * n
    assert (workloads.ber_hash(plain.prefix_records(ops))
            == workloads.ber_hash(traced.prefix_records(traced_ops)))
    assert traced.check(traced_ops)["ok"]


def test_self_times_and_remainder_add_up_to_wall_time():
    wl = workloads.make("sweep_metasurface", 0, None)
    with Tracer() as tracer:
        seg = run.measure(wl, 0, 0, tracer, min_ops=3)
    assert not seg.errors
    m = run.per_layer(tracer, seg.ops, seg.durations)
    layers = sum(m[time_metric(span)][0] for span in SPANS)
    total = layers + m["trace.unattributed_ms"][0]
    assert m["circuit.lut_calls"][0] == 1.0
    assert abs(total - m["trace.wall_ms"][0]) <= 0.01 * m["trace.wall_ms"][0]


def test_normalize_scales_by_the_local_probe_speed():
    ref = hostspeed.REF_S
    durs = [0.01] * 30
    assert hostspeed.normalize(durs, [ref] * 30) == pytest.approx(durs)
    # a host twice as slow for the second half: the probe doubles with it
    slow = hostspeed.normalize([0.01] * 15 + [0.02] * 15,
                               [ref] * 15 + [2 * ref] * 15)
    assert slow[:10] == pytest.approx([0.01] * 10)
    assert slow[-10:] == pytest.approx([0.01] * 10)
