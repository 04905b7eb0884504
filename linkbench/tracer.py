"""Per-layer tracing from outside the program.

The tracer rebinds public functions of the `mslink` modules in the namespace
their callers look them up in (for example `mslink.harness.apply_channel`,
which `run_frame` calls) and restores every binding on exit, so no file under
`src/` changes.  Helpers that `_transmit_samples` and `receive_stream` import
at call time are caught by patching the defining module
(`mslink.txchain.synthesize_baseband`, `mslink.rxchain.frame_sync`).

Each wrapper pushes a span on a stack.  A span's self time is its duration
minus the durations of the wrapped spans it encloses, so the self times of
all spans under one root add up to the root's duration.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np


def _channel_counts(args, result):
    n = result.samples.size
    return {"channel.samples": n, "channel.apply_computed_bytes": 16 * n}


def _cfo_correct_counts(args, result):
    return {"rxchain.cfo_correct_computed_bytes": 16 * result.size}


def _write_counts(args, result):
    return {"iqfile.bytes": 8 * np.asarray(args[1]).size}


def _read_counts(args, result):
    return {"iqfile.bytes": 8 * result.size}


# (module, attribute, span, count hook).  One row per binding: a function
# reached through two namespaces is rebound in both, under one span name.
BINDINGS = (
    ("mslink.harness", "run_frame", "harness.run_frame", None),
    ("mslink.harness", "transmit_file", "harness.transmit_file", None),
    ("mslink.harness", "receive_file", "harness.receive_file", None),
    ("mslink.harness", "receive_stream", "harness.receive_stream", None),
    ("mslink.harness", "default_gamma_lut", "circuit.lut", None),
    ("mslink.harness", "select_control_voltages", "circuit.select", None),
    ("mslink.harness", "aggregate_reflection", "surface.aggregate", None),
    ("mslink.harness", "build_frame", "txchain.build_frame", None),
    ("mslink.txchain", "synthesize_baseband", "txchain.synthesize", None),
    ("mslink.txchain", "build_pilot_sequence", "txchain.pilot_seq", None),
    ("mslink.rxchain", "build_pilot_sequence", "txchain.pilot_seq", None),
    ("mslink.txchain", "build_sync_sequence", "txchain.sync_seq", None),
    ("mslink.rxchain", "build_sync_sequence", "txchain.sync_seq", None),
    ("mslink.harness", "apply_channel", "channel.apply", _channel_counts),
    ("mslink.channel", "apply_channel", "channel.apply", _channel_counts),
    ("mslink.harness", "receive_frame", "rxchain.receive", None),
    ("mslink.rxchain", "frame_sync", "rxchain.sync", None),
    ("mslink.rxchain", "estimate_cfo_cp", "rxchain.cfo_est", None),
    ("mslink.rxchain", "correct_cfo", "rxchain.cfo_correct",
     _cfo_correct_counts),
    ("mslink.rxchain", "integrate_and_dump", "rxchain.int_dump", None),
    ("mslink.rxchain", "ls_channel_estimate", "rxchain.ls_est", None),
    ("mslink.rxchain", "ls_channel_estimate_taps", "rxchain.ls_est", None),
    ("mslink.rxchain", "zf_equalize", "rxchain.zf", None),
    ("mslink.rxchain", "nearest_symbol_indices", "rxchain.slicer", None),
    ("mslink.rxchain", "demap_symbols", "rxchain.demap", None),
    ("mslink.harness", "write_iq", "iqfile.write", _write_counts),
    ("mslink.iqfile", "write_iq", "iqfile.write", _write_counts),
    ("mslink.harness", "read_iq", "iqfile.read", _read_counts),
    ("mslink.iqfile", "read_iq", "iqfile.read", _read_counts),
)

# Spans that enclose other wrapped spans report self time as `<span>_self_ms`.
PARENT_SPANS = ("harness.run_frame", "harness.transmit_file",
                "harness.receive_file", "harness.receive_stream",
                "rxchain.receive")
SPANS = tuple(dict.fromkeys(row[2] for row in BINDINGS))
COUNTS = ("channel.samples", "channel.apply_computed_bytes",
          "rxchain.cfo_correct_computed_bytes", "iqfile.bytes")
ROOT = "bench.op"


def time_metric(span: str) -> str:
    return f"{span}_self_ms" if span in PARENT_SPANS else f"{span}_ms"


class Tracer:
    """Span stack with self-time and call accounting; a context manager that
    installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []          # child time accumulated per open span
        self._saved = []

    def span(self, name, fn, *args, count=None, **kwargs):
        """Run fn(*args, **kwargs) as a span called `name`."""
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            child = self._stack.pop()
            self.self_s[name] += dur - child
            self.calls[name] += 1
            if self._stack:
                self._stack[-1] += dur
        if count is not None:
            for key, n in count(args, result).items():
                self.counts[key] += n
        return result

    def _wrap(self, fn, name, count):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, count=count, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        for mod_name, attr, name, count in BINDINGS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, count))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)
        return False
