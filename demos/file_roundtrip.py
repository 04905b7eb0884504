"""Send a file across an impaired channel and recover it bit-exactly.

Packs a payload into frames, writes the baseband IQ stream to disk,
pushes it through a channel with carrier offset, timing offset, a
3-tap multipath response, and 30 dB SNR, then runs the receiver and
compares the recovered bytes against the original.
"""

import tempfile
from pathlib import Path

import numpy as np

from mslink.channel import ChannelConfig, apply_channel
from mslink.harness import ExperimentConfig, receive_file, transmit_file
from mslink.iqfile import read_iq, write_iq
from mslink.txchain import BasebandSignal


def main():
    work = Path(tempfile.mkdtemp(prefix="mslink_demo_"))
    src = work / "payload.bin"
    data = np.random.default_rng(7).integers(0, 256, 50_000, dtype=np.uint8)
    src.write_bytes(data.tobytes())

    hdr = transmit_file(src, ExperimentConfig(), work / "tx.iq",
                        work / "tx.hdr")
    print(f"transmitted {src.stat().st_size} bytes in {hdr.frames} frames "
          f"({hdr.pad_bits} pad bits)")

    clean = read_iq(work / "tx.iq")
    rx = apply_channel(
        BasebandSignal(samples=clean, sample_rate=hdr.sample_rate_hz,
                       samples_per_symbol=hdr.samples_per_symbol),
        ChannelConfig(snr_db=30.0, cfo_normalized=0.05, timing_offset=500,
                      fir_taps=(1.0, 0.3 - 0.2j, 0.1 + 0.05j), seed=1))
    write_iq(work / "rx.iq", rx.samples)
    print("channel: SNR 30 dB, CFO 0.05, offset 500 samples, 3 taps")

    n = receive_file(work / "rx.iq", work / "tx.hdr", work / "out.bin")
    got = (work / "out.bin").read_bytes()
    errors = int(np.count_nonzero(
        np.unpackbits(data) != np.unpackbits(np.frombuffer(got, np.uint8))))
    print(f"recovered {n} bytes, {errors} bit errors")
    print(f"artifacts left in {work}")


if __name__ == "__main__":
    main()
