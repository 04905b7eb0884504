"""One SHA-256 over the link's fixed-seed results, so that a change which
should leave them bit-identical can be checked with one line of output.

    python3 tools/result_hash.py                        # the full grid
    python3 tools/result_hash.py --seeds 1 --snr inf    # a reduced grid
    python3 tools/result_hash.py --expect HEX           # check the digest

The hash covers, in this order:

- every `run_frame` output (payload, recovered bits, equalized symbols, and
  the CFO, EVM and SNR estimates) for both modes x nine channel and array
  configs x the SNR points x the seeds (default SNR 8, 16 and inf dB, seeds
  0 and 1);
- the IQ file and the header file `transmit_file` writes for a 2.5-frame
  file, in both modes, and the samples `read_iq` reads back from that IQ
  file and the bytes `receive_file` recovers from it;
- in both modes, `apply_channel` of that stream, out of place, through a
  noisy multipath channel with CFO and delay (the stream channel of the
  benchmark's `stream_impaired` workload, at a fixed seed), and the bytes
  `receive_file` recovers from the channel's output;
- the points of `surface_constellation` for the default LUT and targets.

Run it on two checkouts (copy the tool into the older one if it lacks it)
and compare the printed digests, or pass one checkout's digest to the
other's `--expect`: the digest is printed either way, and when it differs
from the expected one, both are named on standard error and the exit status
is 1.  BLAS threads are pinned to one, as the benchmark pins them; the
results do not depend on it.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import re
import struct
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MODES = ("conventional", "metasurface")
ROOT = Path(__file__).resolve().parent.parent
FILE_FRAMES = 2.5
STREAM_CHANNEL = dict(snr_db=30.0, cfo_normalized=0.05, timing_offset=500,
                      fir_taps=(1.0 + 0.0j, 0.3 - 0.2j, 0.1 + 0.05j), seed=7)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=2,
                    help="frame seeds 0..N-1 per grid point (default 2)")
    ap.add_argument("--snr", type=float, nargs="+",
                    default=[8.0, 16.0, math.inf],
                    help="SNR points in dB (default 8 16 inf)")
    ap.add_argument("--expect", type=str.lower, metavar="HEX",
                    help="the digest expected; exit 1 if it differs")
    args = ap.parse_args(argv)
    if args.seeds < 1:
        ap.error("--seeds must be >= 1")
    if args.expect is not None and not re.fullmatch("[0-9a-f]{64}",
                                                    args.expect):
        ap.error("--expect must be a SHA-256 digest, 64 hex digits")
    return args


def channel_configs() -> dict:
    """Config fields per named case; every case runs in both modes."""
    from mslink.surface import ArrayConfig

    taps = (1.0 + 0.0j, 0.3 - 0.2j, 0.1j)
    return {
        "clean": {},
        "cfo+0.3": {"cfo_normalized": 0.3},
        "cfo-0.3": {"cfo_normalized": -0.3},
        "3-tap": {"fir_taps": taps},
        "offset37": {"timing_offset": 37},
        "gain": {"complex_gain": 0.6 * complex(math.cos(1.1),
                                                math.sin(1.1))},
        "combined": {"cfo_normalized": 0.2, "fir_taps": taps,
                     "timing_offset": 37, "complex_gain": 0.8 - 0.4j},
        "left-half-lossy": {"array": ArrayConfig(mask="left-half",
                                                 gamma_static=0.3 - 0.1j)},
        "sps4": {"sps": 4},
    }


class Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def tag(self, text: str) -> None:
        self._h.update(text.encode() + b"\0")

    def array(self, a) -> None:
        self.tag(f"{a.dtype.str}{a.shape}")
        self._h.update(a.tobytes())

    def floats(self, *values) -> None:
        self._h.update(struct.pack(f"<{len(values)}d", *values))

    def data(self, raw: bytes) -> None:
        self.tag(str(len(raw)))
        self._h.update(raw)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def hash_frames(d: Digest, seeds: int, snrs) -> None:
    from mslink.harness import ExperimentConfig, run_frame

    for mode in MODES:
        for name, fields in channel_configs().items():
            cfg = ExperimentConfig(mode=mode, **fields)
            for snr in snrs:
                for seed in range(seeds):
                    d.tag(f"frame {mode} {name} {snr!r} {seed}")
                    payload, bits, diag = run_frame(cfg, snr, seed)
                    d.array(payload)
                    if bits is None:
                        d.tag("undecoded")
                        continue
                    d.array(bits)
                    d.array(diag.equalized_symbols)
                    d.floats(diag.cfo_estimate, diag.evm_percent,
                             diag.snr_estimate_db)


def hash_files(d: Digest) -> None:
    import numpy as np
    from mslink.channel import ChannelConfig, apply_channel
    from mslink.harness import ExperimentConfig, receive_file, transmit_file
    from mslink.iqfile import read_iq, write_iq
    from mslink.txchain import BasebandSignal, FrameLayout

    n_bytes = int(FILE_FRAMES * FrameLayout.payload_bits) // 8
    content = np.random.default_rng(0).integers(
        0, 256, n_bytes, dtype=np.uint8).tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "payload.bin"
        src.write_bytes(content)
        for mode in MODES:
            iq, hdr = Path(tmp) / f"{mode}.iq", Path(tmp) / f"{mode}.hdr"
            header = transmit_file(src, ExperimentConfig(mode=mode), iq, hdr)
            d.tag(f"file {mode}")
            d.data(iq.read_bytes())
            d.data(hdr.read_bytes())
            d.array(read_iq(iq))
            out = Path(tmp) / f"{mode}.out"
            receive_file(iq, hdr, out)
            d.data(out.read_bytes())
            sig = BasebandSignal(read_iq(iq), header.sample_rate_hz,
                                 header.samples_per_symbol)
            rx = apply_channel(sig, ChannelConfig(**STREAM_CHANNEL)).samples
            d.tag(f"stream channel {mode}")
            d.array(rx)
            write_iq(iq, rx)
            receive_file(iq, hdr, out)
            d.data(out.read_bytes())


def hash_constellation(d: Digest) -> None:
    from mslink.circuit import DEFAULT_TARGET_PHASES, default_gamma_lut
    from mslink.harness import surface_constellation

    d.tag("surface constellation")
    d.array(surface_constellation(default_gamma_lut(),
                                  DEFAULT_TARGET_PHASES).points)


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:   # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    d = Digest()
    hash_frames(d, args.seeds, args.snr)
    hash_files(d)
    hash_constellation(d)
    digest = d.hexdigest()
    print(digest)
    if args.expect is not None and digest != args.expect:
        print(f"result digest differs: expected {args.expect}, "
              f"got {digest}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
