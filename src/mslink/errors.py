"""Exception types shared across the link simulator, the one check of an
integer setting and the one check of an `out=` array."""

import math
import numbers

import numpy as np


def check_count(key: str, value, low: int, high: int | None = None) -> None:
    """Reject `value` unless it is an integer in low..high, or at least `low`
    when `high` is None: a count, a seed or an sps.  Numpy integers pass; a
    bool, an int to Python, never does.  The message opens with `key`, so
    iqfile.in_file names the line of the file that set it."""
    if type(value) is bool or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if high is None:
        if value < low:
            raise ValueError(f"{key} must be >= {low}, got {value}")
    elif not low <= value <= high:
        raise ValueError(f"{key} must be in {low}..{high}, got {value}")


def check_out(out, shape: tuple, dtype) -> np.ndarray:
    """The array a function with an `out=` parameter writes into: a fresh
    np.empty of `shape` and `dtype` when `out` is None, else `out`, checked
    to be a C-contiguous array of that shape and dtype.  The message opens
    with the element count and dtype asked for."""
    if out is None:
        return np.empty(shape, dtype=dtype)
    if (out.shape != shape or out.dtype != dtype
            or not out.flags.c_contiguous):
        layout = "" if out.flags.c_contiguous else ", strided"
        raise ValueError(f"out must hold {math.prod(shape)} {np.dtype(dtype)} "
                         f"in a contiguous array of shape {shape}, got shape "
                         f"{out.shape} of {out.dtype}{layout}")
    return out


class SingularityError(ValueError):
    """Circuit evaluated at (or numerically too close to) a resonance pole."""


class InfeasibleError(ValueError):
    """Requested target set cannot be met by the available tuning range."""


class FramingError(ValueError):
    """Bit stream or symbol stream does not fit the frame structure."""


class AliasingError(ValueError):
    """Carrier frequency too high for the requested sample rate."""


class SyncNotFoundError(RuntimeError):
    """No correlation peak above threshold inside the search window."""


class DegeneratePilotError(ValueError):
    """Pilot spectrum contains a (near-)zero bin; LS estimate undefined."""


class SingularChannelError(RuntimeError):
    """Channel estimate contains a (near-)zero bin; ZF inversion undefined."""


class InterpolationError(RuntimeError):
    """Target BER not bracketed by the measured curve."""


class PartialReceiveError(RuntimeError):
    """A frame in a multi-frame stream could not be recovered."""

    def __init__(self, frame_index: int, message: str):
        super().__init__(f"frame {frame_index}: {message}")
        self.frame_index = frame_index
