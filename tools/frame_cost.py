"""Cost of one warm `run_frame`, per mode: minor page faults, system time,
allocation peak, resident buffers and median wall time.

    python3 tools/frame_cost.py                  # 60 frames per mode at 14 dB
    python3 tools/frame_cost.py --frames 150 --snr 14 --mode conventional
    python3 tools/frame_cost.py --mode stream --frames 60

`--mode stream` measures file round trips instead: each operation is one
`Stream.op` of the benchmark's `stream_impaired` workload
(linkbench/workloads.py; `transmit_file`, `read_iq`, `apply_channel` on the
whole stream, `write_iq`, `receive_file`), run in a temporary directory, and
`--frames` counts round trips.  `--snr` does not apply to it.

BLAS threads are pinned to one, as the benchmark (linkbench/run.py) pins
them: a threaded BLAS spends several times the CPU on the receiver's small
matrix-vector products.  Each mode runs a few unmeasured frames first, so
its reused buffers and memoized tables are in place.  Faults and system
time come from `getrusage` over the timed frames; the allocation peak is
the largest `tracemalloc` peak of a frame, taken in a second pass, since
tracing slows every allocation.  The resident buffers (`buf MB`) are the
measuring thread's frame scratch (`mslink.rxchain.scratch`), read in every
mode: one `threading.local` of named arrays, each reused while the thread
asks for the same size and dtype, and freed before its replacement is
allocated when either changes.  `rx`, `run_frame`'s received samples, is
0.36 MB at sps 1 and 2.88 MB at sps 8; `symbols`, the receiver's dumped
frame, is 0.36 MB and `decided`, its slicer decisions, 0.15 MB at any sps.
No array holds the derotation ramp, built in `symbols` at sps 1 and in one
64 KB block above it, or the EVM, derived only when a frame's diagnostics
are read.  So `buf MB` reads 0.87 conventional and 3.39 metasurface.  A
stream round trip runs no `run_frame`, so its `buf MB` is `symbols` and
`decided`, 0.51; it syncs each of its frames once, inside `receive_frame`.
`threads` is the number of live threads after the timed frames: the
measuring thread alone, 1, since a channel pass draws its noise on the
thread that runs it and starts none; its 12 288-value chunk is a
temporary of the pass, in the allocation peak.
Caches are not counted: the channel's CFO ramp cache
(`mslink.channel._cfo_ramp`, 16 B per sample of the stream, 1.4 MB for
this one) also stays resident between round trips, and so do the frame
constants built once per process (the sync replicas and their spectra,
the pilot's Gram matrix, the frame head; about 0.2 MB over both modes and
the stream).  The process's heap layout, and with it the faults of a
stream round trip, can depend on the length of the checkout's path, so
check a change to the stream's arrays from several checkout paths.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MODES = ("conventional", "metasurface")
WARMUP = 3
ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--frames", type=int, default=60,
                    help="timed frames per mode (default 60)")
    ap.add_argument("--snr", type=float, default=14.0,
                    help="channel SNR in dB (default 14)")
    ap.add_argument("--mode", choices=MODES + ("both", "stream"),
                    default="both")
    args = ap.parse_args(argv)
    if args.frames < 1:
        ap.error("--frames must be >= 1")
    return args


def measure(op, n: int) -> dict:
    """Faults, system time, allocation peak and p50 of op(i) for the n
    operations after WARMUP unmeasured ones."""
    for i in range(WARMUP):
        op(i)
    ops = range(WARMUP, WARMUP + n)

    walls = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    for i in ops:
        t0 = time.perf_counter()
        op(i)
        walls.append(time.perf_counter() - t0)
    after = resource.getrusage(resource.RUSAGE_SELF)

    peak = 0
    tracemalloc.start()
    try:
        for i in ops:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            op(i)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()

    return {
        "minor_faults": (after.ru_minflt - before.ru_minflt) / n,
        "sys_ms": 1e3 * (after.ru_stime - before.ru_stime) / n,
        "alloc_peak_mb": peak / 1e6,
        "wall_ms_p50": 1e3 * statistics.median(walls),
    }


def buffers_mb() -> float:
    """MB held by this thread's frame scratch, whichever arrays it has
    allocated."""
    from mslink import rxchain

    return sum(a.nbytes for a in vars(rxchain._SCRATCH).values()) / 1e6


def frame_cost(mode: str, frames: int, snr_db: float) -> dict:
    from mslink.harness import ExperimentConfig, run_frame

    cfg = ExperimentConfig(mode=mode)
    cost = measure(lambda seed: run_frame(cfg, snr_db, seed), frames)
    return {"mode": mode, "sps": cfg.resolved_sps(), "frames": frames,
            **cost, "buffers_mb": buffers_mb(),
            "threads": threading.active_count()}


def stream_cost(round_trips: int) -> dict:
    sys.path.insert(0, str(ROOT / "linkbench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        stream = workloads.Stream(0, Path(tmp))

        def op(i):
            if not stream.op(i).ok:
                raise RuntimeError(f"stream round trip {i} failed")

        cost = measure(op, round_trips)
    return {"mode": "stream", "sps": stream.params["sps"],
            "frames": round_trips, **cost, "buffers_mb": buffers_mb(),
            "threads": threading.active_count()}


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:   # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    if args.mode == "stream":
        rows = [stream_cost(args.frames)]
        print(f"per warm stream round trip, {args.frames} round trips, "
              "BLAS threads pinned to 1")
    else:
        modes = MODES if args.mode == "both" else (args.mode,)
        rows = [frame_cost(mode, args.frames, args.snr) for mode in modes]
        print(f"per warm frame, {args.frames} frames at {args.snr:g} dB, "
              "BLAS threads pinned to 1")
    print(f"{'mode':<13}{'faults':>8}{'sys ms':>8}{'peak MB':>9}"
          f"{'buf MB':>8}{'p50 ms':>8}{'threads':>9}")
    for r in rows:
        print(f"{r['mode']:<13}{r['minor_faults']:>8.0f}{r['sys_ms']:>8.2f}"
              f"{r['alloc_peak_mb']:>9.2f}{r['buffers_mb']:>8.2f}"
              f"{r['wall_ms_p50']:>8.2f}{r['threads']:>9}")
    summary = {"frames": args.frames, "modes": rows}
    if args.mode != "stream":
        summary = {"snr_db": args.snr, **summary}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
