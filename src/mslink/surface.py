"""Aggregate response of the 8x16 cell array under full or partial activation.

All cells see the same incident wave and the receiver sits at boresight, so
the array collapses to a single equivalent reflection coefficient: active
cells contribute the modulated gamma, inactive cells a frozen static gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def parse_mask(spec, rows: int = 8, cols: int = 16) -> np.ndarray:
    """Activation mask from 'full', 'left-half', 'right-half' or a row-major
    bit string of length rows*cols."""
    n = rows * cols
    if isinstance(spec, np.ndarray):
        m = spec.astype(bool).ravel()
        if m.size != n:
            raise ValueError(f"mask length {m.size} != {rows}x{cols}")
        return m
    if spec == "full":
        return np.ones(n, dtype=bool)
    if spec in ("left-half", "right-half"):
        m = np.zeros((rows, cols), dtype=bool)
        if spec == "left-half":
            m[:, : cols // 2] = True
        else:
            m[:, cols - cols // 2:] = True
        return m.ravel()
    if set(spec) <= {"0", "1"} and len(spec) == n:
        return np.array([ch == "1" for ch in spec])
    raise ValueError(f"unrecognized mask literal: {spec!r}")


@dataclass(frozen=True)
class ArrayConfig:
    rows: int = 8
    cols: int = 16
    mask: np.ndarray = field(default=None, repr=False)
    gamma_static: complex = 0.0 + 0.0j

    def __post_init__(self):
        mask = self.mask if self.mask is not None else "full"
        object.__setattr__(self, "mask", parse_mask(mask, self.rows, self.cols))

    @property
    def n_total(self) -> int:
        return self.rows * self.cols

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
    if (cfg_a.rows, cfg_a.cols) != (cfg_b.rows, cfg_b.cols):
        raise ValueError("array dimensions differ")
    if cfg_b.n_active == 0:
        raise ValueError("denominator config has no active cells")
    return 20.0 * np.log10(cfg_a.n_active / cfg_b.n_active)
