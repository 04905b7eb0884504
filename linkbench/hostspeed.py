"""Host-speed probe: a fixed kernel timed just before every operation.

On a shared host the speed of a core drifts by up to about 25 % over seconds
to minutes (other tenants' load; user time moves with wall time, so it is not
descheduling).  That drift, not the program, set most of the run-to-run
spread of the raw wall times.  The probe is a fixed mix of interpreter work
and small-array numpy calls, like the per-call overhead that dominates the
receiver; it does not touch `mslink`, so no change to the program moves it.

`normalize` rescales each operation's wall time by the probe times around it
to *reference-host* time: the time the operation would take on a host where
the probe takes `REF_S`.  A slower program shows in full; a slower host
shows only as far as the probe does not track it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Probe time on the host the benchmark was tuned on (2-vCPU Intel Xeon VM,
# Python 3.11, numpy 2.4); it only scales the reported figures.
REF_S = 0.43e-3
WINDOW = 5            # probes on each side of an operation in its local speed
_LOOP = 3000
_REPS = 40

_rng = np.random.default_rng(0)
_X = _rng.standard_normal(64) + 1j * _rng.standard_normal(64)
_Y = np.exp(1j * 0.01 * np.arange(64))
_POINTS = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / np.sqrt(2)


def _kernel() -> int:
    acc = 0
    for _ in range(_REPS):
        acc += int(np.abs(_X * _Y - _POINTS[acc % 4]).argmin())
    for v in range(_LOOP):
        acc += v * v % 7
    return acc


def probe() -> float:
    """Seconds the fixed kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def normalize(durations: list, probes: list) -> list:
    """Each duration times REF_S over the median of the probes within
    WINDOW operations of it."""
    out = []
    for i, d in enumerate(durations):
        local = statistics.median(probes[max(0, i - WINDOW):i + WINDOW + 1])
        out.append(d * REF_S / local)
    return out


_kernel()   # first call: numpy dispatch caches
