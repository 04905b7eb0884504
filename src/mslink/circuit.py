"""Varactor-loaded unit cell model: bias voltage -> complex reflection coefficient.

The unit cell is an L2 shunt branch in parallel with a series R + L1 + C(v)
branch, terminated against the wave impedance of air.  Sweeping the bias
voltage moves the resonance and drags the reflection phase through a wide,
saturating arc (the varactor capacitance clamps at high bias).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InfeasibleError, SingularityError

Z_AIR = 376.730313668  # impedance of free space, ohms
DEFAULT_FREQUENCY = 4.0e9
# the prototype's bias range: 0-20 V in 0.1 V steps
DEFAULT_VOLTAGE_GRID = np.round(np.arange(0.0, 20.0 + 1e-9, 0.1), 10)
DEFAULT_TARGET_PHASES = (0.0, 85.0, 170.0, 255.0)

# relative denominator magnitude below which Eq. (circuit pole) is treated
# as a resonance singularity instead of returning an unstable value
_SINGULARITY_RTOL = 1e-9


def _check_finite(settings) -> None:
    """Every field of the dataclass `settings` must be a finite number."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class CircuitParams:
    """Lumped equivalent of one unit cell, terminated against Z_AIR."""

    r_series: float = 12.0       # ohms, series loss of the varactor branch
    l_top: float = 0.5e-9        # henries, top-patch inductance
    l_bottom: float = 5.0e-9     # henries, bottom/feed inductance

    def __post_init__(self):
        _check_finite(self)
        if not self.r_series >= 0:
            raise ValueError("r_series must be >= 0")
        if not self.l_top > 0:
            raise ValueError(f"l_top must be > 0, got {self.l_top}")
        if not self.l_bottom > 0:
            raise ValueError(f"l_bottom must be > 0, got {self.l_bottom}")


@dataclass(frozen=True)
class VaractorModel:
    """Junction-capacitance law C(v) = c_zero / (1 + v/v_junction)^exponent,
    clamped below at c_min (saturation region of the diode)."""

    c_zero: float = 1.2e-12      # farads at zero bias
    v_junction: float = 2.0      # volts
    exponent: float = 1.0        # grading coefficient
    c_min: float = 0.2e-12       # farads, saturation floor

    def __post_init__(self):
        _check_finite(self)
        if not self.c_min > 0:
            raise ValueError(f"c_min must be > 0, got {self.c_min}")
        if not self.c_zero > self.c_min:
            raise ValueError(f"c_zero must be > c_min, got {self.c_zero}")
        if not self.v_junction > 0:
            raise ValueError(f"v_junction must be > 0, got {self.v_junction}")
        if not self.exponent > 0:
            raise ValueError(f"exponent must be > 0, got {self.exponent}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class GammaLUT:
    """Voltage -> reflection coefficient table at a single frequency.  The
    arrays are stored as read-only copies."""

    voltages: np.ndarray = field(repr=False)
    gammas: np.ndarray = field(repr=False)

    def __post_init__(self):
        # copies: the table owns its arrays, read-only like the table itself
        v = np.array(self.voltages, dtype=float)
        g = np.array(self.gammas, dtype=complex)
        if v.size == 0:
            raise ValueError("empty LUT")
        if v.size != g.size:
            raise ValueError("voltage/gamma length mismatch")
        if np.any(np.diff(v) <= 0):
            raise ValueError("voltages must be strictly increasing")
        object.__setattr__(self, "voltages", _read_only(v))
        object.__setattr__(self, "gammas", _read_only(g))

    @functools.cached_property
    def phases_deg(self) -> np.ndarray:
        """Reflection phase of each entry in degrees, computed once."""
        return _read_only(np.array([_reflection_phase(g)
                                    for g in self.gammas]))

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
                         f"{_reflection_phase(g)!r}\n")


def varactor_capacitance(v: float, model: VaractorModel) -> float:
    """Junction capacitance in farads at bias voltage v >= 0."""
    if v < 0:
        raise ValueError(f"bias voltage must be >= 0, got {v}")
    try:
        c = model.c_zero / (1.0 + v / model.v_junction) ** model.exponent
    except OverflowError:
        # the power passes the float range; its reciprocal underflows to 0
        c = model.c_zero * (1.0 + v / model.v_junction) ** -model.exponent
    return max(model.c_min, c)


def load_impedance(c: float, params: CircuitParams, f: float) -> complex:
    """Equivalent load of the cell: jwL2 || (jwL1 + 1/(jwC) + R).

    A load that leaves the float range is an error opening with the one of
    `frequency`, `l_top`, `l_bottom` and `r_series` that stands furthest
    above its stock value, the setting that took it there."""
    if not c > 0:
        raise ValueError(f"capacitance must be > 0, got {c}")
    if not (f > 0 and math.isfinite(f)):
        raise ValueError(f"frequency must be finite and > 0, got {f}")
    w = 2.0 * math.pi * f
    z_series = 1j * w * params.l_top + 1.0 / (1j * w * c) + params.r_series
    z_shunt = 1j * w * params.l_bottom
    den = z_shunt + z_series
    try:
        singular = (abs(den) < _SINGULARITY_RTOL
                    * max(abs(z_shunt), abs(z_series)))
    except OverflowError:   # a magnitude past the float range
        raise _overflow_error(params, f) from None
    if singular:
        raise SingularityError(
            f"frequency {f:g} Hz is a branch resonance at C={c:g} F: "
            f"|denominator| ~ 0")
    z = z_shunt * z_series / den
    if not cmath.isfinite(z):
        raise _overflow_error(params, f)
    return z


def _overflow_error(params: CircuitParams, f: float) -> ValueError:
    stock = CircuitParams()
    ratio = {"frequency": f / DEFAULT_FREQUENCY,
             "l_top": params.l_top / stock.l_top,
             "l_bottom": params.l_bottom / stock.l_bottom,
             "r_series": params.r_series / stock.r_series}
    key = max(ratio, key=ratio.get)      # the first on a tie
    if key == "frequency":
        return ValueError(f"frequency {f:g} Hz: the cell's load impedance "
                          f"overflows")
    return ValueError(f"{key} {getattr(params, key):g}: the cell's load "
                      f"impedance at {f:g} Hz overflows")


def reflection_coefficient(z_load: complex, z_air: float) -> complex:
    """Gamma = (Zl - Z0) / (Zl + Z0)."""
    den = z_load + z_air
    if abs(den) < _SINGULARITY_RTOL * abs(z_air):
        raise SingularityError("z_load = -z_air: reflection undefined")
    return (z_load - z_air) / den


def _reflection_phase(gamma: complex) -> float:
    """Quadrant-aware angle of gamma in degrees, mapped to [0, 360)."""
    if gamma == 0:
        raise ValueError("phase of zero reflection coefficient is undefined")
    deg = float(np.degrees(np.angle(gamma))) % 360.0
    return deg if deg < 360.0 else 0.0


def build_gamma_lut(model: VaractorModel, params: CircuitParams,
                    f: float) -> GammaLUT:
    """Compose C(v) -> Z_l -> Gamma (against Z_AIR) over DEFAULT_VOLTAGE_GRID.

    The whole table is rotated so the first point sits at phase 0 (choice of
    measurement reference plane); the curve then reads directly as phase
    shift relative to zero bias, matching how the tuning curve is usually
    plotted.  A load that overflows is an error naming the setting that
    took it there (load_impedance); a reflection that overflows from a
    finite load is an error opening with `frequency`, as a resonance is.
    """
    gammas = np.array([
        reflection_coefficient(
            load_impedance(varactor_capacitance(v, model), params, f), Z_AIR)
        for v in DEFAULT_VOLTAGE_GRID.tolist()
    ])
    gammas = gammas * np.exp(-1j * np.angle(gammas[0]))
    if not np.all(np.isfinite(gammas)):
        raise ValueError(f"frequency {f:g} Hz: the cell's reflection "
                         f"overflows")
    return GammaLUT(voltages=DEFAULT_VOLTAGE_GRID, gammas=gammas)


def select_control_voltages(lut: GammaLUT, target_phases_deg):
    """Pick the LUT voltage nearest (circularly) to each target phase.

    Returns (voltages, gammas) as two length-4 arrays.  Ties go to the lower
    voltage.  Raises InfeasibleError when the targets spread wider than the
    phase travel of the table, and ValueError when two targets pick one
    voltage.
    """
    targets = np.asarray(target_phases_deg, dtype=float)
    if targets.size != 4:
        raise ValueError(f"target_phases must be 4 values, got {targets.size}")
    if not np.all(np.isfinite(targets)):
        raise ValueError(f"target_phases must be finite, "
                         f"got {', '.join(map(str, targets.tolist()))}")
    spread = float(targets.max() - targets.min())
    span = lut.phase_span_deg()
    if spread > span:
        raise InfeasibleError(f"target_phases spread {spread:.1f} deg "
                              f"exceeds LUT span {span:.1f} deg")
    phases = lut.phases_deg
    volts = np.empty(4)
    gammas = np.empty(4, dtype=complex)
    for i, t in enumerate(targets):
        err = np.abs((phases - t + 180.0) % 360.0 - 180.0)
        k = int(np.argmin(err))  # argmin keeps the first (lower-voltage) tie
        volts[i] = lut.voltages[k]
        gammas[i] = lut.gammas[k]
    if len(set(volts.tolist())) < 4:
        raise ValueError(f"target_phases must pick four distinct voltages, "
                         f"got {', '.join(map(str, volts.tolist()))} V")
    return volts, gammas


@functools.cache
def default_gamma_lut() -> GammaLUT:
    """Tuning table of the stock cell at 4 GHz (phase travel ~263 deg).

    Built once and shared by every caller."""
    return build_gamma_lut(VaractorModel(), CircuitParams(), DEFAULT_FREQUENCY)
