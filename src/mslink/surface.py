"""Aggregate response of the 8x16 cell array under full or partial activation.

All cells see the same incident wave and the receiver sits at boresight, so
the array collapses to a single equivalent reflection coefficient: active
cells contribute the modulated gamma, inactive cells a frozen static gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ROWS, COLS = 8, 16   # the prototype's cell array


def parse_mask(spec) -> np.ndarray:
    """Activation mask from 'full', 'left-half', 'right-half' or a row-major
    bit string of length ROWS*COLS."""
    n = ROWS * COLS
    if isinstance(spec, np.ndarray):
        m = spec.astype(bool).ravel()
        if m.size != n:
            raise ValueError(f"mask must hold {n} cells, got {m.size}")
        return m
    if spec == "full":
        return np.ones(n, dtype=bool)
    if spec in ("left-half", "right-half"):
        m = np.zeros((ROWS, COLS), dtype=bool)
        if spec == "left-half":
            m[:, : COLS // 2] = True
        else:
            m[:, COLS - COLS // 2:] = True
        return m.ravel()
    if set(spec) <= {"0", "1"} and len(spec) == n:
        return np.array([ch == "1" for ch in spec])
    raise ValueError(f"mask must be 'full', 'left-half', 'right-half' or "
                     f"{n} 0/1 characters, got {spec!r}")


@dataclass(frozen=True)
class ArrayConfig:
    """Activation of the fixed ROWS x COLS array, and the reflection of its
    inactive cells, which are passive: |gamma_static| <= 1.  The mask is
    stored as a read-only boolean array, and configs compare and hash by
    value, the mask by its contents."""

    mask: np.ndarray = field(default=None, repr=False)
    gamma_static: complex = 0.0 + 0.0j
    n_total = ROWS * COLS                 # the cell count; not a field

    def __post_init__(self):
        g = complex(self.gamma_static)
        # hypot, unlike abs, gives inf rather than an error near the float
        # limit; NaN fails too
        if not math.hypot(g.real, g.imag) <= 1:
            raise ValueError(f"gamma_static must be finite with magnitude "
                             f"<= 1, got {self.gamma_static!r}")
        mask = self.mask if self.mask is not None else "full"
        mask = parse_mask(mask)           # always a new array
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    def _key(self) -> tuple:
        return self.gamma_static, self.mask.tobytes()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def n_active(self) -> int:
        return int(self.mask.sum())


def aggregate_reflection(gamma_mod, cfg: ArrayConfig):
    """Boresight coherent sum, normalized so the fully active array has unit
    gain.  Affine in gamma_mod; accepts scalars or sample arrays."""
    n = cfg.n_total
    na = cfg.n_active
    # (na * g + (n - na) * g_static) / n, evaluated in place in that order
    out = np.multiply(na, gamma_mod, dtype=complex)
    out += (n - na) * cfg.gamma_static
    out /= n
    return out if np.ndim(gamma_mod) else complex(out)


def modulated_power_ratio_db(cfg_a: ArrayConfig, cfg_b: ArrayConfig) -> float:
    """Modulated-power advantage of cfg_a over cfg_b in dB."""
    if cfg_b.n_active == 0:
        raise ValueError("denominator config has no active cells")
    return 20.0 * np.log10(cfg_a.n_active / cfg_b.n_active)
