"""Aggregate response of the 8x16 cell array under full or partial activation.

All cells see the same incident wave and the receiver sits at boresight, so
the array collapses to a single equivalent reflection coefficient: active
cells contribute the modulated gamma, inactive cells a frozen static gamma.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

ROWS, COLS = 8, 16   # the prototype's cell array
_HALF = "1" * (COLS // 2)
_LITERALS = {"full": "1" * (ROWS * COLS),
             "left-half": _HALF.ljust(COLS, "0") * ROWS,
             "right-half": _HALF.rjust(COLS, "0") * ROWS}


def parse_mask(spec) -> str:
    """Activation mask as its row-major string of ROWS*COLS '0'/'1'
    characters, from 'full', 'left-half', 'right-half', such a string, or an
    array of ROWS*COLS truth values."""
    n = ROWS * COLS
    if isinstance(spec, np.ndarray):
        m = spec.astype(bool).ravel()
        if m.size != n:
            raise ValueError(f"mask must hold {n} cells, got {m.size}")
        return "".join(np.where(m, "1", "0"))
    if isinstance(spec, str):
        bits = _LITERALS.get(spec, spec)
        if len(bits) == n and set(bits) <= {"0", "1"}:
            return bits
    raise ValueError(f"mask must be 'full', 'left-half', 'right-half' or "
                     f"{n} 0/1 characters, got {spec!r}")


@dataclass(frozen=True)
class ArrayConfig:
    """Activation of the fixed ROWS x COLS array, held as the string
    parse_mask gives for any mask it accepts, and the reflection of its
    inactive cells, which are passive: |gamma_static| <= 1."""

    mask: str = "full"
    gamma_static: complex = 0.0 + 0.0j
    n_total = ROWS * COLS                 # the cell count; not a field

    def __post_init__(self):
        g = self.gamma_static
        if not isinstance(g, numbers.Complex):
            raise TypeError(f"gamma_static must be a number, "
                            f"got {type(g).__name__}")
        # hypot, unlike abs, gives inf rather than an error near the float
        # limit; NaN fails too
        if not math.hypot(g.real, g.imag) <= 1:
            raise ValueError(f"gamma_static must be finite with magnitude "
                             f"<= 1, got {g!r}")
        object.__setattr__(self, "mask", parse_mask(self.mask))

    @property
    def n_active(self) -> int:
        return self.mask.count("1")


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
