"""Link benchmark: end-to-end and per-layer timing of the mslink simulator.

    python3 linkbench/run.py --workload sweep_conventional --seed 0 \
        --seconds 30 --trace 0
    python3 linkbench/run.py --workload all        # every workload, in turn

One process, one caller, closed loop: each operation starts when the
previous one returns.  A fixed host-speed probe (hostspeed.py) is timed before
each operation, and the end-to-end times are reported in reference-host time,
so that the host's speed drift does not read as a change of the program.
With --trace 0 the run reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced segments and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object; the full result, with a run manifest, is written
to linkbench/results/BENCH_*.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("sweep_conventional", "sweep_metasurface", "stream_impaired")
SETUP_PROBES = 5          # fresh interpreters timed per run; median reported
TRACE_SEGMENTS = 4        # untraced and traced segments, alternating
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)  # child of the setup_s timing
    return ap.parse_args(argv)


def tail(durations):
    """(percentile, value, samples beyond): the highest ladder percentile
    with at least ten samples above it, by nearest rank."""
    xs = sorted(durations)
    n = len(xs)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= 10:
            break
    return pct, xs[rank - 1], n - rank


class Segment(NamedTuple):
    ops: list
    durations: list       # seconds per operation, wall clock
    probes: list          # seconds of the host-speed probe before each one
    elapsed: float        # seconds, loop start to end
    errors: list

    def host_normalized(self):
        """Seconds per operation in reference-host time."""
        import hostspeed

        return hostspeed.normalize(self.durations, self.probes)


def measure(wl, seconds, first_op, tracer=None, min_ops=0) -> Segment:
    """Closed loop for `seconds` (and at least min_ops operations)."""
    from hostspeed import probe
    from tracer import ROOT as ROOT_SPAN
    from workloads import Op

    ops, durs, probes, errors = [], [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    i = first_op
    while True:
        t0 = time.perf_counter()
        if t0 >= deadline and len(ops) >= min_ops:
            break
        probes.append(probe())
        t0 = time.perf_counter()
        try:
            if tracer is None:
                op = wl.op(i)
            else:
                op = tracer.span(ROOT_SPAN, wl.op, i)
        except Exception as exc:  # a failed operation, counted and reported
            op = Op(0, 0, False)
            errors.append(f"op {i}: {exc!r}")
        durs.append(time.perf_counter() - t0)
        ops.append(op)
        i += 1
    return Segment(ops, durs, probes, time.perf_counter() - start, errors)


def setup_time(workload, seed):
    """Median over fresh interpreters of: import mslink, build the workload
    config, run the first operation.  Each child prints the system-wide
    monotonic clock (CLOCK_MONOTONIC on Linux) when its first operation
    returns."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            check=True, capture_output=True, text=True, cwd=ROOT)
        samples.append(float(out.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(samples), samples


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                          "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or None


def manifest(args, wl):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": wl.params,
        "git_commit": git_commit(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def end_to_end(seg: Segment):
    """Throughput and latency in reference-host time; the raw wall-clock
    figures go to the detail."""
    frames = sum(op.frames for op in seg.ops if op.ok)
    bits = sum(op.payload_bits for op in seg.ops)
    norm = seg.host_normalized()
    pct, tail_s, beyond = tail(norm)
    metrics = {
        "frames_per_s": (frames / sum(norm), "1/s"),
        "payload_mbps": (bits / sum(norm) / 1e6, "Mbit/s"),
        "op_ms_p50": (1e3 * statistics.median(norm), "ms"),
    }
    # The tail is printed and stored but not gated: the slowest operations
    # are set by off-CPU stalls (I/O waits, preemption by other tenants)
    # that the host-speed probe cannot see.
    detail = {"ops": len(seg.durations), "op_ms_tail": 1e3 * tail_s,
              "tail_percentile": pct, "tail_samples_beyond": beyond,
              "probe_ms_median": 1e3 * statistics.median(seg.probes),
              "wall_frames_per_s": frames / seg.elapsed,
              "wall_op_ms_p50": 1e3 * statistics.median(seg.durations),
              "wall_op_ms_tail": 1e3 * tail(seg.durations)[1],
              # per operation, in order: for re-analysis of a run
              "wall_op_ms": [round(1e3 * d, 4) for d in seg.durations],
              "probe_ms": [round(1e3 * p, 4) for p in seg.probes]}
    return metrics, detail


def per_layer(tracer, traced_ops, traced_durs):
    from tracer import COUNTS, ROOT as ROOT_SPAN, SPANS, time_metric

    n = len(traced_ops)
    metrics = {}
    for span in SPANS:
        metrics[time_metric(span)] = (1e3 * tracer.self_s[span] / n, "ms")
        metrics[f"{span}_calls"] = (tracer.calls[span] / n, "count")
    for key in COUNTS:
        metrics[key] = (tracer.counts[key] / n, "B" if key.endswith("bytes")
                        else "count")
    metrics["harness.sync_failures"] = (
        sum(op.sync_failure for op in traced_ops) / n, "count")
    metrics["trace.unattributed_ms"] = (1e3 * tracer.self_s[ROOT_SPAN] / n,
                                        "ms")
    metrics["trace.wall_ms"] = (1e3 * sum(traced_durs) / n, "ms")
    return metrics


def run_workload(args):
    import workloads
    from tracer import Tracer

    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
        wl = workloads.make(args.workload, args.seed, Path(work))
        wl.op(0)  # first operation untimed: lazy imports, page cache

        if args.setup_probe:
            print(repr(time.monotonic()))
            return 0

        result = {"manifest": manifest(args, wl)}
        if args.trace == 0:
            setup_s, setup_samples = setup_time(args.workload, args.seed)
            seg = measure(wl, args.seconds, 0, min_ops=wl.check_ops)
            ops, errors = seg.ops, seg.errors
            metrics, detail = end_to_end(seg)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            detail["setup_samples_s"] = setup_samples
        else:
            ops, errors, segments = [], [], []
            tracer = Tracer()
            for k in range(TRACE_SEGMENTS):
                traced = k % 2 == 1
                with tracer if traced else contextlib.nullcontext():
                    seg = measure(wl, args.seconds / TRACE_SEGMENTS, len(ops),
                                  tracer if traced else None,
                                  wl.check_ops - len(ops))
                segments.append((traced, seg))
                ops += seg.ops
                errors += seg.errors

            def fps(traced):
                segs = [s for t, s in segments if t == traced]
                return (sum(op.frames for s in segs for op in s.ops if op.ok)
                        / sum(sum(s.host_normalized()) for s in segs))

            metrics = per_layer(
                tracer, [op for t, s in segments if t for op in s.ops],
                [d for t, s in segments if t for d in s.durations])
            metrics["trace_overhead_pct"] = (
                100.0 * (fps(False) / fps(True) - 1.0), "%")
            detail = {"ops": len(ops), "untraced_frames_per_s": fps(False),
                      "traced_frames_per_s": fps(True)}

        check = wl.check(ops)
    failed = sum(not op.ok or i < check["failed_prefix"]
                 for i, op in enumerate(ops))
    correct = check["ok"] and failed == 0
    detail["failed_share"] = failed / len(ops)
    detail["errors"] = errors[:10]
    result.update(check=check, detail=detail, correct=correct,
                  attempted=len(ops), failed=failed,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    out = RESULTS / (f"BENCH_{args.workload}_seed{args.seed}_trace"
                     f"{args.trace}_{stamp}_{os.getpid()}.json")
    out.write_text(json.dumps(result, indent=1, default=str) + "\n")

    for key, (value, unit) in metrics.items():
        print(f"{args.workload:20s} {key:38s} {value:14.6g} {unit}")
    print(f"{args.workload:20s} {'failed_share':38s} "
          f"{detail['failed_share']:14.6g} 1")
    if args.trace == 0:
        print(f"{args.workload:20s} {'op_ms_tail':38s} "
              f"{detail['op_ms_tail']:14.6g} ms")
        print(f"{args.workload:20s} op_ms_tail is p{detail['tail_percentile']:g}"
              f" over {detail['ops']} operations, "
              f"{detail['tail_samples_beyond']} beyond")
    for line in errors[:10]:
        print(f"error: {line}", file=sys.stderr)
    if not correct:
        print(f"correctness check FAILED: {json.dumps(check)}",
              file=sys.stderr)
    print(f"result: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


def run_all(args):
    """Every workload in its own process (peak RSS is per workload)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=True, capture_output=True, text=True, cwd=ROOT)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = val
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:   # before numpy loads its BLAS
        os.environ[var] = "1"
    if not (ROOT / "src" / "mslink").is_dir():
        sys.exit(f"no mslink sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
