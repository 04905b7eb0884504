"""Benchmark workloads: each turns a seed into a fixed sequence of operations
on the public `mslink` API and checks every result.

An operation is one frame in the sweeps and one file round trip in the
stream.  Functions are looked up on their module at call time
(`harness.run_frame`, not a local name), so the tracer's rebinding reaches
the calls the benchmark makes itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mslink import channel, harness, iqfile
from mslink.errors import PartialReceiveError
from mslink.harness import SEED_POINT_STRIDE, BerRecord, ExperimentConfig
from mslink.txchain import BasebandSignal

GRID = (10.0, 12.0, 14.0, 16.0, 18.0)   # the test_architecture_gap grid
CHECK_FRAMES = 4          # frames per SNR point covered by the BER hash
MAX_FRAME_BER = 0.1       # a frame above this is a failure (random: 0.5)
REFERENCE = Path(__file__).with_name("reference.json")

# Stream: three full frames and half of a fourth, so the pad path runs,
# through the end-to-end robustness channel of the acceptance suite.
STREAM_BYTES = 3 * 4608 + 2304
STREAM_CHANNEL = dict(snr_db=30.0, cfo_normalized=0.05, timing_offset=500,
                      fir_taps=(1.0 + 0.0j, 0.3 - 0.2j, 0.1 + 0.05j),
                      ref_power=1.0)


@dataclass(frozen=True)
class Op:
    """Outcome of one operation."""

    frames: int
    payload_bits: int       # payload bits delivered (0 when failed)
    ok: bool
    sync_failure: bool = False
    record: tuple = ()      # sweep only: (point, frame, bits, errors, sync)


def ber_hash(records: list[BerRecord]) -> str:
    rows = [[r.snr_db, r.bits_simulated, r.bit_errors, r.sync_failures]
            for r in records]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class Sweep:
    """`run_frame` over GRID with the harness's own per-frame seeds.

    Operation i is frame i // len(GRID) at point i % len(GRID), so the first
    len(GRID) * CHECK_FRAMES operations are exactly the frames of
    `run_ber_sweep` with frames_per_point=CHECK_FRAMES."""

    def __init__(self, mode: str, seed: int):
        self.seed = seed
        self.cfg = ExperimentConfig(mode=mode, snr_list=GRID,
                                    frames_per_point=CHECK_FRAMES,
                                    base_seed=seed)
        self.check_ops = len(GRID) * CHECK_FRAMES
        self.params = {"mode": mode, "sps": self.cfg.resolved_sps(),
                       "snr_db": GRID, "check_frames": CHECK_FRAMES,
                       "payload_bits": self.cfg.layout.payload_bits}

    def op(self, i: int) -> Op:
        p, f = i % len(GRID), i // len(GRID)
        payload, bits, _ = harness.run_frame(
            self.cfg, GRID[p], self.seed + p * SEED_POINT_STRIDE + f)
        if bits is None:
            return Op(1, 0, False, True, (p, f, payload.size, payload.size, 1))
        errors = int(np.count_nonzero(bits != payload))
        ok = errors <= MAX_FRAME_BER * payload.size
        return Op(1, payload.size if ok else 0, ok, False,
                  (p, f, payload.size, errors, 0))

    def prefix_records(self, ops: list[Op]) -> list[BerRecord]:
        """BER records of the first CHECK_FRAMES frames of each point."""
        acc = {p: [0, 0, 0] for p in range(len(GRID))}
        for op in ops:
            if not op.record:       # the operation raised
                continue
            p, f, bits, errors, sync = op.record
            if f < CHECK_FRAMES:
                a = acc[p]
                a[0] += bits
                a[1] += errors
                a[2] += sync
        return [BerRecord(snr_db=GRID[p], bits_simulated=b, bit_errors=e,
                          ber=e / b if b else 0.0, sync_failures=s)
                for p, (b, e, s) in acc.items()]

    def check(self, ops: list[Op]) -> dict:
        """Hash the BER records of the checked prefix; compare with a fresh
        `run_ber_sweep` and, for the reference seed, the stored hash.  On a
        mismatch the first `failed_prefix` operations count as failed."""
        got = ber_hash(self.prefix_records(ops))
        again = ber_hash(harness.run_ber_sweep(self.cfg))
        ref = json.loads(REFERENCE.read_text())
        want = ref[self.cfg.mode] if self.seed == ref["seed"] else again
        ok = got == again == want
        return {"ok": ok, "ber_hash": got, "rerun_hash": again,
                "reference_hash": want if self.seed == ref["seed"] else None,
                "failed_prefix": 0 if ok else self.check_ops}


class Stream:
    """File round trips: `transmit_file`, `apply_channel` on the whole
    stream, `write_iq`, `receive_file`; the recovered file must be
    bit-exact."""

    check_ops = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cfg = ExperimentConfig()
        self.dir = Path(workdir)
        self.params = {"mode": self.cfg.mode, "sps": self.cfg.resolved_sps(),
                       "file_bytes": STREAM_BYTES, "channel": STREAM_CHANNEL}

    def op(self, i: int) -> Op:
        rng = np.random.default_rng([self.seed, i])
        data = rng.integers(0, 256, STREAM_BYTES, dtype=np.uint8).tobytes()
        src, tx, hdr_path, rx, out = (self.dir / n for n in (
            "src.bin", "tx.iq", "tx.hdr", "rx.iq", "out.bin"))
        src.write_bytes(data)
        hdr = harness.transmit_file(src, self.cfg, tx, hdr_path)
        sig = BasebandSignal(samples=iqfile.read_iq(tx),
                             sample_rate=hdr.sample_rate_hz,
                             samples_per_symbol=hdr.samples_per_symbol)
        ch = channel.ChannelConfig(seed=int(rng.integers(2 ** 63)),
                                   **STREAM_CHANNEL)
        iqfile.write_iq(rx, channel.apply_channel(sig, ch).samples)
        try:
            harness.receive_file(rx, hdr_path, out)
        except PartialReceiveError:
            return Op(hdr.frames, 0, False, True)
        ok = out.read_bytes() == data
        return Op(hdr.frames, 8 * len(data) if ok else 0, ok)

    def check(self, ops: list[Op]) -> dict:
        return {"ok": True, "failed_prefix": 0}


def make(name: str, seed: int, workdir: Path):
    if name == "sweep_conventional":
        return Sweep("conventional", seed)
    if name == "sweep_metasurface":
        return Sweep("metasurface", seed)
    if name == "stream_impaired":
        return Stream(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
