"""IQ binary files (little-endian interleaved float32 I,Q) plus the text
sidecar header describing the stream, and the `key = value` line reader that
the header and config files share."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

_HEADER_TYPES = {"float": float, "int": int}  # by field annotation


def read_key_values(path, keys) -> dict:
    """Read `key = value` lines; '#' starts a comment.  A line without '='
    or with a key outside `keys` is an error naming its file and line."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip()
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = val.strip()
    return out


@dataclass(frozen=True)
class StreamHeader:
    """Sidecar header: one `field = value` line per field.  It comes from
    outside the program, so reading it is strict: every field must be
    present and no other key may appear."""

    sample_rate_hz: float
    samples_per_symbol: int
    frames: int
    pad_bits: int
    pilot_seed: int

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for f in fields(self):
                value = _HEADER_TYPES[f.type](getattr(self, f.name))
                fh.write(f"{f.name} = {value!r}\n")

    @classmethod
    def read(cls, path) -> "StreamHeader":
        types = {f.name: _HEADER_TYPES[f.type] for f in fields(cls)}
        vals = read_key_values(path, types)
        missing = [k for k in types if k not in vals]
        if missing:
            raise ValueError(f"header {path} missing keys: {missing}")
        return cls(**{k: types[k](v) for k, v in vals.items()})


def write_iq(path, samples) -> None:
    s = np.asarray(samples)
    out = np.empty(2 * s.size, dtype="<f4")
    out[0::2] = s.real
    out[1::2] = s.imag
    out.tofile(path)


def read_iq(path) -> np.ndarray:
    raw = np.fromfile(path, dtype="<f4")
    if raw.size % 2:
        raise ValueError(f"{path}: odd float count, not an I/Q stream")
    return raw[0::2].astype(np.float64) + 1j * raw[1::2].astype(np.float64)
