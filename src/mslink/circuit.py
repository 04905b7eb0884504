"""Varactor-loaded unit cell model: bias voltage -> complex reflection coefficient.

The unit cell is an L2 shunt branch in parallel with a series R + L1 + C(v)
branch, terminated against the wave impedance of air.  Sweeping the bias
voltage moves the resonance and drags the reflection phase through a wide,
saturating arc (the varactor capacitance clamps at high bias).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, SingularityError

Z_AIR = 376.730313668  # impedance of free space, ohms

# relative denominator magnitude below which Eq. (circuit pole) is treated
# as a resonance singularity instead of returning an unstable value
_SINGULARITY_RTOL = 1e-9


@dataclass(frozen=True)
class CircuitParams:
    """Lumped equivalent of one unit cell."""

    r_series: float = 12.0       # ohms, series loss of the varactor branch
    l_top: float = 0.5e-9        # henries, top-patch inductance
    l_bottom: float = 5.0e-9     # henries, bottom/feed inductance
    z_air: float = Z_AIR         # ohms

    def __post_init__(self):
        if self.r_series < 0:
            raise ValueError("r_series must be >= 0")
        if self.l_top <= 0 or self.l_bottom <= 0 or self.z_air <= 0:
            raise ValueError("inductances and z_air must be > 0")


@dataclass(frozen=True)
class VaractorModel:
    """Junction-capacitance law C(v) = c_zero / (1 + v/v_junction)^exponent,
    clamped below at c_min (saturation region of the diode)."""

    c_zero: float = 1.2e-12      # farads at zero bias
    v_junction: float = 2.0      # volts
    exponent: float = 1.0        # grading coefficient
    c_min: float = 0.2e-12       # farads, saturation floor

    def __post_init__(self):
        if not (self.c_zero > self.c_min > 0):
            raise ValueError("need c_zero > c_min > 0")
        if self.v_junction <= 0 or self.exponent <= 0:
            raise ValueError("v_junction and exponent must be > 0")


@dataclass(frozen=True)
class GammaLUT:
    """Voltage -> reflection coefficient table at a single frequency."""

    frequency: float
    voltages: np.ndarray = field(repr=False)
    gammas: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.voltages, dtype=float)
        g = np.asarray(self.gammas, dtype=complex)
        if v.size == 0:
            raise ValueError("empty LUT")
        if v.size != g.size:
            raise ValueError("voltage/gamma length mismatch")
        if np.any(np.diff(v) <= 0):
            raise ValueError("voltages must be strictly increasing")
        object.__setattr__(self, "voltages", v)
        object.__setattr__(self, "gammas", g)

    @property
    def phases_deg(self) -> np.ndarray:
        return np.array([reflection_phase(g) for g in self.gammas])

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.gammas)

    def phase_span_deg(self) -> float:
        """Total phase travel across the table (unwrapped, degrees)."""
        unwrapped = np.unwrap(np.angle(self.gammas))
        return float(abs(math.degrees(unwrapped[-1] - unwrapped[0])))

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("voltage_v,re_gamma,im_gamma,mag,phase_deg\n")
            for v, g in zip(self.voltages.tolist(), self.gammas.tolist()):
                fh.write(f"{v!r},{g.real!r},{g.imag!r},{abs(g)!r},"
                         f"{reflection_phase(g)!r}\n")

    @classmethod
    def from_csv(cls, path, frequency: float) -> "GammaLUT":
        volts, gammas = [], []
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "voltage_v,re_gamma,im_gamma,mag,phase_deg":
                raise ValueError(f"unexpected gamma CSV header: {header}")
            for line in fh:
                if not line.strip():
                    continue
                v, re, im, _mag, _ph = line.split(",")
                volts.append(float(v))
                gammas.append(complex(float(re), float(im)))
        return cls(frequency=frequency, voltages=np.array(volts),
                   gammas=np.array(gammas))


def varactor_capacitance(v: float, model: VaractorModel) -> float:
    """Junction capacitance in farads at bias voltage v >= 0."""
    if v < 0:
        raise ValueError(f"bias voltage must be >= 0, got {v}")
    c = model.c_zero / (1.0 + v / model.v_junction) ** model.exponent
    return max(model.c_min, c)


def load_impedance(c: float, params: CircuitParams, f: float) -> complex:
    """Equivalent load of the cell: jwL2 || (jwL1 + 1/(jwC) + R)."""
    if c <= 0:
        raise ValueError(f"capacitance must be > 0, got {c}")
    if f <= 0:
        raise ValueError(f"frequency must be > 0, got {f}")
    w = 2.0 * math.pi * f
    z_series = 1j * w * params.l_top + 1.0 / (1j * w * c) + params.r_series
    z_shunt = 1j * w * params.l_bottom
    den = z_shunt + z_series
    scale = max(abs(z_shunt), abs(z_series))
    if abs(den) < _SINGULARITY_RTOL * scale:
        raise SingularityError(
            f"branch resonance at f={f:g} Hz, C={c:g} F: |denominator| ~ 0"
        )
    return z_shunt * z_series / den


def reflection_coefficient(z_load: complex, z_air: float) -> complex:
    """Gamma = (Zl - Z0) / (Zl + Z0)."""
    den = z_load + z_air
    if abs(den) < _SINGULARITY_RTOL * abs(z_air):
        raise SingularityError("z_load = -z_air: reflection undefined")
    return (z_load - z_air) / den


def reflection_phase(gamma: complex) -> float:
    """Quadrant-aware angle of gamma in degrees, mapped to [0, 360)."""
    if gamma == 0:
        raise ValueError("phase of zero reflection coefficient is undefined")
    deg = float(np.degrees(np.angle(gamma))) % 360.0
    return deg if deg < 360.0 else 0.0


def build_gamma_lut(
    model: VaractorModel,
    params: CircuitParams,
    f: float,
    voltages,
    zero_reference: bool = True,
) -> GammaLUT:
    """Compose C(v) -> Z_l -> Gamma over a voltage grid.

    With zero_reference the whole table is rotated so the first point sits at
    phase 0 (choice of measurement reference plane); the curve then reads
    directly as phase shift relative to zero bias, matching how the tuning
    curve is usually plotted.
    """
    v = np.asarray(voltages, dtype=float)
    if v.size == 0 or np.any(np.diff(v) <= 0):
        raise ValueError("voltage grid must be non-empty and strictly increasing")
    gammas = np.array([
        reflection_coefficient(
            load_impedance(varactor_capacitance(float(vi), model), params, f),
            params.z_air,
        )
        for vi in v
    ])
    if zero_reference:
        gammas = gammas * np.exp(-1j * np.angle(gammas[0]))
    return GammaLUT(frequency=f, voltages=v, gammas=gammas)


def select_control_voltages(lut: GammaLUT, target_phases_deg):
    """Pick the LUT voltage nearest (circularly) to each target phase.

    Returns (voltages, gammas) as two length-4 arrays.  Ties go to the lower
    voltage.  Raises InfeasibleError when the targets spread wider than the
    phase travel of the table.
    """
    targets = np.asarray(target_phases_deg, dtype=float)
    if targets.size != 4:
        raise ValueError("exactly four target phases expected")
    spread = float(targets.max() - targets.min())
    span = lut.phase_span_deg()
    if spread > span:
        raise InfeasibleError(
            f"target spread {spread:.1f} deg exceeds LUT span {span:.1f} deg"
        )
    phases = lut.phases_deg
    volts = np.empty(4)
    gammas = np.empty(4, dtype=complex)
    for i, t in enumerate(targets):
        err = np.abs((phases - t + 180.0) % 360.0 - 180.0)
        k = int(np.argmin(err))  # argmin keeps the first (lower-voltage) tie
        volts[i] = lut.voltages[k]
        gammas[i] = lut.gammas[k]
    return volts, gammas


DEFAULT_FREQUENCY = 4.0e9
DEFAULT_VOLTAGE_GRID = np.round(np.arange(0.0, 20.0 + 1e-9, 0.1), 10)
DEFAULT_TARGET_PHASES = (0.0, 85.0, 170.0, 255.0)


def default_gamma_lut(r_series: float = 12.0) -> GammaLUT:
    """Tuning table of the stock cell at 4 GHz (phase travel ~263 deg)."""
    return build_gamma_lut(
        VaractorModel(),
        CircuitParams(r_series=r_series),
        DEFAULT_FREQUENCY,
        DEFAULT_VOLTAGE_GRID,
    )
