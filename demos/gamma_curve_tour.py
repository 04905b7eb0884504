"""Walk the varactor reflection curve and pick QPSK control voltages.

Sweeps the bias voltage over the default 0-20 V grid, reports the phase
span the unit cell can reach, and shows which voltages land closest to
the four QPSK target phases along with the reflection loss paid at each.
"""

import numpy as np

from mslink.circuit import (DEFAULT_TARGET_PHASES, default_gamma_lut,
                            select_control_voltages)


def main():
    lut = default_gamma_lut()
    print(f"LUT points: {lut.voltages.size} "
          f"(0..20 V in 0.1 V steps)")
    print(f"phase span: {lut.phase_span_deg():.1f} deg")
    print(f"|Gamma| range: {lut.magnitudes.min():.3f} .. "
          f"{lut.magnitudes.max():.3f}")
    print()

    volts, gammas = select_control_voltages(lut, DEFAULT_TARGET_PHASES)
    print("target_deg  voltage_V  phase_deg  |Gamma|   loss_dB")
    for target, v, g in zip(DEFAULT_TARGET_PHASES, volts, gammas):
        k = int(np.argmin(np.abs(lut.voltages - v)))
        phase = lut.phases_deg[k]
        loss = 20 * np.log10(abs(g))
        print(f"{target:10.0f}  {v:9.2f}  {phase:9.2f}"
              f"  {abs(g):7.3f}  {loss:8.2f}")

    mean_pow = np.mean(np.abs(gammas) ** 2)
    print(f"\nmean reflected power over the four states: "
          f"{10 * np.log10(mean_pow):.2f} dB")


if __name__ == "__main__":
    main()
