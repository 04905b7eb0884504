"""Conventional mixer chain versus direct metasurface modulation.

Sweeps both architectures over the default SNR grid with common random
numbers and reports the SNR penalty of metasurface modulation at the
default target BER of 1e-4.  The penalty comes from the distorted
constellation: the reflection states are unequal in magnitude and span
less than the ideal 270 degrees of phase.
"""

from mslink.harness import ExperimentConfig, compare_architectures

FRAMES = 10


def main():
    conv = ExperimentConfig(mode="conventional", frames_per_point=FRAMES)
    meta = ExperimentConfig(mode="metasurface", frames_per_point=FRAMES)
    rec_c, rec_m, gap = compare_architectures(conv, meta)

    print("snr_dB   conventional_BER   metasurface_BER")
    for c, m in zip(rec_c, rec_m):
        print(f"{c.snr_db:6.1f}  {c.ber:17.3e}  {m.ber:16.3e}")
    print(f"\nSNR gap at BER 1e-4: {gap:.2f} dB "
          f"(metasurface needs more SNR)")

    pts = meta.resolved_constellation().points
    print("\nmetasurface constellation (raw reflection states):")
    for i, p in enumerate(pts):
        print(f"  state {i}: {p:+.3f}  |.|={abs(p):.3f}")


if __name__ == "__main__":
    main()
