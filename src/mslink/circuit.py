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
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InfeasibleError, SingularityError

Z_AIR = 376.730313668  # impedance of free space, ohms
DEFAULT_TARGET_PHASES = (0.0, 85.0, 170.0, 255.0)

# relative denominator magnitude below which Eq. (circuit pole) is treated
# as a resonance singularity instead of returning an unstable value
_SINGULARITY_RTOL = 1e-9


@dataclass(frozen=True)
class UnitCell:
    """One cell at its carrier: the lumped equivalent terminated against
    Z_AIR, and the junction-capacitance law C(v) = c_zero / (1 +
    v/v_junction)^exponent, clamped below at c_min (saturation region of
    the diode).  Every setting is a real number, each message opening with
    the setting at fault."""

    r_series: float = 12.0       # ohms, series loss of the varactor branch
    l_top: float = 0.5e-9        # henries, top-patch inductance
    l_bottom: float = 5.0e-9     # henries, bottom/feed inductance
    c_zero: float = 1.2e-12      # farads at zero bias
    v_junction: float = 2.0      # volts
    exponent: float = 1.0        # grading coefficient
    c_min: float = 0.2e-12       # farads, saturation floor
    frequency: float = 4.0e9     # hertz, the carrier the table is taken at

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is bool or not isinstance(value, numbers.Real):
                raise TypeError(f"{f.name} must be a real number, "
                                f"got {value!r}")
            if f.name != "frequency" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not self.r_series >= 0:
            raise ValueError("r_series must be >= 0")
        if not self.l_top > 0:
            raise ValueError(f"l_top must be > 0, got {self.l_top}")
        if not self.l_bottom > 0:
            raise ValueError(f"l_bottom must be > 0, got {self.l_bottom}")
        if not self.c_min > 0:
            raise ValueError(f"c_min must be > 0, got {self.c_min}")
        if not self.c_zero > self.c_min:
            raise ValueError(f"c_zero must be > c_min, got {self.c_zero}")
        if not self.v_junction > 0:
            raise ValueError(f"v_junction must be > 0, got {self.v_junction}")
        if not self.exponent > 0:
            raise ValueError(f"exponent must be > 0, got {self.exponent}")
        if not (self.frequency > 0 and math.isfinite(self.frequency)):
            raise ValueError(f"frequency must be finite and > 0, "
                             f"got {self.frequency}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class GammaLUT:
    """Reflection coefficient of one cell at each voltage of the fixed bias
    grid, the prototype's 0-20 V in 0.1 V steps.  The gammas are stored as a
    read-only copy; the grid is read-only too."""

    gammas: np.ndarray = field(repr=False)
    # the fixed bias grid, shared by every table; not a field
    voltages = _read_only(np.round(np.arange(0.0, 20.0 + 1e-9, 0.1), 10))

    def __post_init__(self):
        # a copy: the table owns its array, read-only like the table itself
        g = np.array(self.gammas, dtype=complex)
        if g.shape != self.voltages.shape:
            raise ValueError(f"gammas must hold one value per grid voltage "
                             f"({self.voltages.size}), got shape {g.shape}")
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


def varactor_capacitance(v: float, cell: UnitCell) -> float:
    """Junction capacitance in farads at bias voltage v >= 0."""
    if v < 0:
        raise ValueError(f"bias voltage must be >= 0, got {v}")
    try:
        c = cell.c_zero / (1.0 + v / cell.v_junction) ** cell.exponent
    except OverflowError:
        # the power passes the float range; its reciprocal underflows to 0
        c = cell.c_zero * (1.0 + v / cell.v_junction) ** -cell.exponent
    return max(cell.c_min, c)


def load_impedance(c: float, cell: UnitCell) -> complex:
    """Equivalent load of the cell at its frequency: jwL2 || (jwL1 +
    1/(jwC) + R).

    A load that leaves the float range is an error opening with the one of
    `frequency`, `l_top`, `l_bottom` and `r_series` that stands furthest
    above its stock value, the setting that took it there."""
    if not c > 0:
        raise ValueError(f"capacitance must be > 0, got {c}")
    f = cell.frequency
    w = 2.0 * math.pi * f
    z_series = 1j * w * cell.l_top + 1.0 / (1j * w * c) + cell.r_series
    z_shunt = 1j * w * cell.l_bottom
    den = z_shunt + z_series
    try:
        singular = (abs(den) < _SINGULARITY_RTOL
                    * max(abs(z_shunt), abs(z_series)))
    except OverflowError:   # a magnitude past the float range
        raise _overflow_error(cell) from None
    if singular:
        raise SingularityError(
            f"frequency {f:g} Hz is a branch resonance at C={c:g} F: "
            f"|denominator| ~ 0")
    z = z_shunt * z_series / den
    if not cmath.isfinite(z):
        raise _overflow_error(cell)
    return z


def _overflow_error(cell: UnitCell) -> ValueError:
    stock = UnitCell()
    ratio = {k: getattr(cell, k) / getattr(stock, k)
             for k in ("frequency", "l_top", "l_bottom", "r_series")}
    key = max(ratio, key=ratio.get)      # the first on a tie
    f = cell.frequency
    if key == "frequency":
        return ValueError(f"frequency {f:g} Hz: the cell's load impedance "
                          f"overflows")
    return ValueError(f"{key} {getattr(cell, key):g}: the cell's load "
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


def build_gamma_lut(cell: UnitCell) -> GammaLUT:
    """Compose C(v) -> Z_l -> Gamma (against Z_AIR) over the bias grid,
    GammaLUT.voltages.

    The whole table is rotated so the first point sits at phase 0 (choice of
    measurement reference plane); the curve then reads directly as phase
    shift relative to zero bias, matching how the tuning curve is usually
    plotted.  A load that overflows is an error naming the setting that
    took it there (load_impedance); a reflection that overflows from a
    finite load is an error opening with `frequency`, as a resonance is.
    """
    gammas = np.array([
        reflection_coefficient(
            load_impedance(varactor_capacitance(v, cell), cell), Z_AIR)
        for v in GammaLUT.voltages.tolist()
    ])
    gammas = gammas * np.exp(-1j * np.angle(gammas[0]))
    if not np.all(np.isfinite(gammas)):
        raise ValueError(f"frequency {cell.frequency:g} Hz: the cell's "
                         f"reflection overflows")
    return GammaLUT(gammas)


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
    # Python floats: a spread past float64's range is inf, not a warning
    spread = float(targets.max()) - float(targets.min())
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
    return build_gamma_lut(UnitCell())
