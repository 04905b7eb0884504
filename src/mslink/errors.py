"""Exception types shared across the link simulator."""


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
