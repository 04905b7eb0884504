import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "frame_cost.py"


def test_frame_cost_reports_both_modes():
    out = subprocess.run([sys.executable, str(TOOL), "--frames", "2"],
                         check=True, capture_output=True, text=True,
                         timeout=120)
    lines = out.stdout.strip().splitlines()
    assert lines[0].startswith("per warm frame, 2 frames at 14 dB")
    res = json.loads(lines[-1])
    assert [r["mode"] for r in res["modes"]] == ["conventional",
                                                  "metasurface"]
    assert [r["sps"] for r in res["modes"]] == [1, 8]
    for r in res["modes"]:
        assert r["frames"] == 2
        assert r["minor_faults"] >= 0 and r["sys_ms"] >= 0
        assert 0 < r["alloc_peak_mb"] < 10 and r["wall_ms_p50"] > 0
    # the thread's scratch after each mode: one received frame at sps 1,
    # then at sps 8, plus the symbol-rate receive buffers, the same at any
    # sps: the dumped symbols and the decisions
    receive = 16 * 22_500 + 8 * 18_432
    assert [r["buffers_mb"] for r in res["modes"]] == [
        (16 * 22_500 + receive) / 1e6, (16 * 180_000 + receive) / 1e6]


def test_frame_cost_stream_mode_reports_round_trips():
    out = subprocess.run([sys.executable, str(TOOL), "--mode", "stream",
                          "--frames", "2"],
                         check=True, capture_output=True, text=True,
                         timeout=120)
    lines = out.stdout.strip().splitlines()
    assert lines[0].startswith("per warm stream round trip, 2 round trips")
    res = json.loads(lines[-1])
    assert res["frames"] == 2 and "snr_db" not in res
    (r,) = res["modes"]
    assert (r["mode"], r["sps"], r["frames"]) == ("stream", 1, 2)
    # no run_frame runs, so the thread's scratch is the receive buffers
    assert r["buffers_mb"] == (16 * 22_500 + 8 * 18_432) / 1e6
    assert r["minor_faults"] >= 0 and r["sys_ms"] >= 0
    assert 0 < r["alloc_peak_mb"] < 50 and r["wall_ms_p50"] > 0
