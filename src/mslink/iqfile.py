"""IQ binary files (little-endian interleaved float32 I,Q) plus the text
sidecar header describing the stream, and the `key = value` line reader that
the header and config files share."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import numpy as np

from .txchain import SYMBOL_RATE, FrameLayout

_HEADER_TYPES = {"float": float, "int": int}  # by field annotation
# Samples converted per step by write_iq and read_iq: each holds one float32
# buffer of this many I,Q pairs (512 KiB), however long the stream.
IQ_CHUNK = 65536


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


def in_file(exc: ValueError, path, lines: dict, given=()) -> ValueError:
    """exc naming the file `path`, and the line of the key exc's message
    opens with when `lines` (line by key, as read_key_values returns them)
    holds that key; exc itself when `given`, the keys set from outside the
    file, holds it."""
    key = str(exc).split(" ", 1)[0].strip("|")
    if key in given:
        return exc
    where = f"{path}:{lines[key]}" if key in lines else path
    return ValueError(f"{where}: {exc}")


@dataclass(frozen=True)
class StreamHeader:
    """Sidecar header: one `field = value` line per field.  It comes from
    outside the program, so reading it is strict: every field must be
    present, once, as a number in its field's range, and no other key may
    appear.  The sample rate is the symbol rate times samples_per_symbol,
    the padding is whole bytes, and a stream of no frames has none.  The
    frame format, the pilot included, is fixed, so the header does not
    describe it."""

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
        if self.pad_bits % 8:
            raise ValueError(f"pad_bits must be a multiple of 8, "
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
        vals, lines = read_key_values(path, parsers)
        missing = [k for k in parsers if k not in vals]
        if missing:
            raise ValueError(f"header {path} missing keys: {missing}")
        try:
            return cls(**vals)
        except ValueError as exc:
            raise in_file(exc, path, lines) from None


def write_iq(path, samples) -> None:
    """Write the samples as interleaved float32 I,Q, IQ_CHUNK samples at a
    time through one reused buffer.  Each chunk is narrowed by one
    contiguous float64 -> float32 cast of its complex128 I,Q pairs, taken
    in place for contiguous complex128 samples and copied chunk by chunk
    otherwise."""
    s = np.asarray(samples).reshape(-1)
    buf = np.empty(2 * min(IQ_CHUNK, s.size), dtype="<f4")
    with open(path, "wb") as fh:
        for i in range(0, s.size, IQ_CHUNK):
            pairs = np.ascontiguousarray(s[i:i + IQ_CHUNK], dtype=complex)
            out = buf[:2 * pairs.size]
            out[:] = pairs.view(np.float64)
            fh.write(out)


def read_iq(path) -> np.ndarray:
    """The complex samples of an IQ file.  The file comes from outside the
    program, so an odd float count or a sample that is not finite is an
    error naming the file (and the first such sample); bytes past the last
    whole float are ignored.

    The floats are read IQ_CHUNK samples at a time into one reused float32
    buffer and widened into the complex128 result, so the call holds its
    result (16 B per sample) and one chunk, and no other sample-rate array.
    The widening keeps every value as stored, the sign of a zero included:
    the sum I + 1j * Q it replaces read a -0.0 Q, and a -0.0 I beside a
    positive Q, as +0.0."""
    # unbuffered: each chunk is read straight into the float32 buffer, and a
    # regular file gives every byte asked for before its end
    with open(path, "rb", buffering=0) as fh:
        n_floats = os.fstat(fh.fileno()).st_size // 4
        if n_floats % 2:
            raise ValueError(f"{path}: odd float count, not an I/Q stream")
        samples = np.empty(n_floats // 2, dtype=complex)
        flat = samples.view(np.float64)
        buf = np.empty(min(2 * IQ_CHUNK, n_floats), dtype="<f4")
        for i in range(0, n_floats, 2 * IQ_CHUNK):
            raw = buf[:min(2 * IQ_CHUNK, n_floats - i)]
            if fh.readinto(raw) != raw.nbytes:
                raise ValueError(f"{path}: changed size while being read")
            wide = flat[i:i + raw.size]
            wide[:] = raw
            # a float64 sum of float32 values cannot overflow, so it is
            # finite exactly when every value is
            if not np.isfinite(wide.sum()):
                k = int(np.flatnonzero(~np.isfinite(raw))[0]) // 2
                raise ValueError(
                    f"{path}: sample {i // 2 + k} is not finite: "
                    f"I = {raw[2 * k]}, Q = {raw[2 * k + 1]}")
    return samples
