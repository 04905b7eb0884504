"""IQ binary files (little-endian interleaved float32 I,Q) plus the text
sidecar header describing the stream, and the `key = value` line reader that
the header and config files share."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .txchain import SYMBOL_RATE, FrameLayout

_HEADER_TYPES = {"float": float, "int": int}  # by field annotation


def read_key_values(path, parsers) -> tuple[dict, dict]:
    """Read `key = value` lines; '#' starts a comment.  Returns the value by
    key, parsed by that key's entry in `parsers`, and the line of each key.
    A line without '=', with a key outside `parsers`, with a key already read
    or with a value its parser rejects is an error naming its file and
    line."""
    out, lines = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, text = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, text = key.strip(), text.strip()
            if key not in parsers:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in out:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            parse = parsers[key]
            try:
                out[key] = parse(text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} = {text!r} "
                                 f"is not a valid {parse.__name__}") from None
            lines[key] = lineno
    return out, lines


@dataclass(frozen=True)
class StreamHeader:
    """Sidecar header: one `field = value` line per field.  It comes from
    outside the program, so reading it is strict: every field must be
    present, once, as a number in its field's range, and no other key may
    appear.  The sample rate is the symbol rate times samples_per_symbol,
    and a stream of no frames has no padding.  The frame format, the pilot
    included, is fixed, so the header does not describe it."""

    sample_rate_hz: float
    samples_per_symbol: int
    frames: int
    pad_bits: int

    def __post_init__(self):
        if not self.sample_rate_hz > 0:
            raise ValueError(
                f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")
        if self.samples_per_symbol < 1:
            raise ValueError(f"samples_per_symbol must be >= 1, "
                             f"got {self.samples_per_symbol}")
        rate = SYMBOL_RATE * self.samples_per_symbol
        if self.sample_rate_hz != rate:
            raise ValueError(f"sample_rate_hz must be {rate} at "
                             f"samples_per_symbol {self.samples_per_symbol}, "
                             f"got {self.sample_rate_hz}")
        if self.frames < 0:
            raise ValueError(f"frames must be >= 0, got {self.frames}")
        if not 0 <= self.pad_bits < FrameLayout.payload_bits:
            raise ValueError(f"pad_bits must be in "
                             f"0..{FrameLayout.payload_bits - 1}, "
                             f"got {self.pad_bits}")
        if self.frames == 0 and self.pad_bits:
            raise ValueError(f"pad_bits must be 0 when frames is 0, "
                             f"got {self.pad_bits}")

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for f in fields(self):
                value = _HEADER_TYPES[f.type](getattr(self, f.name))
                fh.write(f"{f.name} = {value!r}\n")

    @classmethod
    def read(cls, path) -> "StreamHeader":
        parsers = {f.name: _HEADER_TYPES[f.type] for f in fields(cls)}
        vals, _ = read_key_values(path, parsers)
        missing = [k for k in parsers if k not in vals]
        if missing:
            raise ValueError(f"header {path} missing keys: {missing}")
        try:
            return cls(**vals)
        except ValueError as exc:
            raise ValueError(f"header {path}: {exc}") from None


def write_iq(path, samples) -> None:
    s = np.asarray(samples)
    out = np.empty(2 * s.size, dtype="<f4")
    out[0::2] = s.real
    out[1::2] = s.imag
    out.tofile(path)


def read_iq(path) -> np.ndarray:
    """The complex samples of an IQ file.  The file comes from outside the
    program, so an odd float count or a sample that is not finite is an
    error naming the file (and the sample).

    The floats are read once and widened to complex128 in one cast, so the
    call holds the raw file (8 B per sample) and its result (16 B), and no
    other sample-rate array.  The cast keeps every value as stored, the
    sign of a zero included: the sum I + 1j * Q it replaces read a -0.0 Q,
    and a -0.0 I beside a positive Q, as +0.0."""
    raw = np.fromfile(path, dtype="<f4")
    if raw.size % 2:
        raise ValueError(f"{path}: odd float count, not an I/Q stream")
    # a float64 sum of float32 values cannot overflow, so it is finite
    # exactly when every value is
    if not np.isfinite(raw.sum(dtype=np.float64)):
        k = int(np.flatnonzero(~np.isfinite(raw))[0]) // 2
        raise ValueError(f"{path}: sample {k} is not finite: "
                         f"I = {raw[2 * k]}, Q = {raw[2 * k + 1]}")
    return raw.view("<c8").astype(complex)
