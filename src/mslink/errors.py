"""Exception types shared across the link simulator, and the one check of
an integer setting."""

import numbers


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
