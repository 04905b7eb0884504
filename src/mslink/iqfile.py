"""IQ binary files (little-endian interleaved float32 I,Q) plus the text
sidecar header describing the stream, and the `key = value` format that the
header and config files share: its reader, its parser of each dataclass
field and its file-and-line errors."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import numpy as np

from .errors import check_count
from .txchain import SYMBOL_RATE, FrameLayout

# Samples converted per step by write_iq and read_iq: each holds one float32
# buffer of this many I,Q pairs (512 KiB), however long the stream.
IQ_CHUNK = 65536
# text -> value, by field annotation; each also takes an already parsed value
_BY_ANNOTATION = {"str": str, "int": int, "int | None": int, "float": float,
                  "complex": complex}


class KeyValues(dict):
    """A `key = value` file's parsed values by key, as read_key_values
    returns them, with the file's `path` and each key's line in `lines`, so
    that errors about its values can name them."""


def field_parsers(cls, **by_name) -> dict:
    """The parser of each field of dataclass cls: its entry in `by_name`,
    else the one for its annotation; a field with neither is no key."""
    parsers = {f.name: by_name.get(f.name) or _BY_ANNOTATION.get(f.type)
               for f in fields(cls)}
    return {k: parse for k, parse in parsers.items() if parse is not None}


def read_key_values(path, parsers) -> KeyValues:
    """Read `key = value` lines; '#' starts a comment.  Returns the value by
    key, parsed by that key's entry in `parsers`, with the file's path and
    the line of each key.  A line without '=', with a key outside `parsers`,
    with a key already read or with a value its parser rejects is an error
    naming its file and line."""
    out = KeyValues()
    out.path, out.lines = path, {}
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
            out.lines[key] = lineno
    return out


def in_file(exc: ValueError, d: dict, given=()) -> ValueError:
    """exc naming the file that d was read from (by read_key_values), and
    the line of the key exc's message opens with when the file set that key,
    as an error of exc's own type; exc itself for values not read from a
    file, and when `given`, the keys set from outside the file, holds the
    key."""
    key = str(exc).split(" ", 1)[0].strip("|")
    if not isinstance(d, KeyValues) or key in given:
        return exc
    where = f"{d.path}:{d.lines[key]}" if key in d.lines else d.path
    return type(exc)(f"{where}: {exc}")


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
        check_count("samples_per_symbol", self.samples_per_symbol, 1)
        rate = SYMBOL_RATE * self.samples_per_symbol
        if self.sample_rate_hz != rate:
            raise ValueError(f"sample_rate_hz must be {rate} at "
                             f"samples_per_symbol {self.samples_per_symbol}, "
                             f"got {self.sample_rate_hz}")
        check_count("frames", self.frames, 0)
        check_count("pad_bits", self.pad_bits, 0, FrameLayout.payload_bits - 1)
        if self.pad_bits % 8:
            raise ValueError(f"pad_bits must be a multiple of 8, "
                             f"got {self.pad_bits}")
        if self.frames == 0 and self.pad_bits:
            raise ValueError(f"pad_bits must be 0 when frames is 0, "
                             f"got {self.pad_bits}")

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for key, parse in field_parsers(type(self)).items():
                fh.write(f"{key} = {parse(getattr(self, key))!r}\n")

    @classmethod
    def read(cls, path) -> "StreamHeader":
        parsers = field_parsers(cls)
        vals = read_key_values(path, parsers)
        missing = [k for k in parsers if k not in vals]
        if missing:
            raise ValueError(f"header {path} missing keys: {missing}")
        try:
            return cls(**vals)
        except ValueError as exc:
            raise in_file(exc, vals) from None


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
    program, so a size that is not a whole number of 8-byte I/Q pairs or a
    sample that is not finite is an error naming the file (and the first
    such sample).

    The floats are read IQ_CHUNK samples at a time into one reused float32
    buffer and widened into the complex128 result, so the call holds its
    result (16 B per sample) and one chunk, and no other sample-rate array.
    The widening keeps every value as stored, the sign of a zero included:
    the sum I + 1j * Q it replaces read a -0.0 Q, and a -0.0 I beside a
    positive Q, as +0.0."""
    # unbuffered: each chunk is read straight into the float32 buffer, and a
    # regular file gives every byte asked for before its end
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        if size % 8:
            raise ValueError(f"{path}: {size} bytes, not a whole number of "
                             f"8-byte I/Q pairs")
        n_floats = size // 4
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
