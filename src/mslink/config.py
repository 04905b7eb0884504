"""Line-oriented `key = value` config files and experiment construction.

The accepted keys are the fields of ExperimentConfig, ArrayConfig,
CircuitParams and VaractorModel that text can set, and `frequency`,
`target_phases` and `target_ber`.  A key that is not set keeps its dataclass
default.
"""

from __future__ import annotations

from dataclasses import fields, replace

from .circuit import (CircuitParams, GammaLUT, VaractorModel, build_gamma_lut,
                      DEFAULT_FREQUENCY, DEFAULT_TARGET_PHASES)
from .harness import (DEFAULT_TARGET_BER, ExperimentConfig,
                      check_target_ber, surface_constellation)
from .iqfile import in_file, read_key_values
from .surface import ArrayConfig


def _tuple_of(convert):
    """Comma-separated text (or an iterable) -> tuple of converted items."""
    def parse(value):
        items = value.split(",") if isinstance(value, str) else value
        return tuple(convert(v) for v in items if str(v).strip())
    parse.__name__ = f"list of {convert.__name__}"
    return parse


# text -> value, by field annotation; fields with none are not config keys
_BY_ANNOTATION = {
    "str": str, "int": int, "int | None": int, "float": float,
    "complex": complex,
    "np.ndarray": lambda spec: spec,  # a mask literal, parsed by ArrayConfig
}
_BY_NAME = {"snr_list": _tuple_of(float), "fir_taps": _tuple_of(complex),
            "target_phases": _tuple_of(float)}


def _parsers(cls) -> dict:
    out = {}
    for f in fields(cls):
        parse = _BY_NAME.get(f.name) or _BY_ANNOTATION.get(f.type)
        if parse is not None:
            out[f.name] = parse
    return out


_PARSERS = {cls: _parsers(cls) for cls in
            (ExperimentConfig, ArrayConfig, CircuitParams, VaractorModel)}
# every key's parser: the fields' and the extra keys'; each takes text or an
# already parsed value
_KEY_PARSERS = {k: p for ps in _PARSERS.values() for k, p in ps.items()}
_KEY_PARSERS.update(frequency=float, target_phases=_BY_NAME["target_phases"],
                    target_ber=float)
KEYS = frozenset(_KEY_PARSERS)


class ConfigText(dict):
    """A config file's parsed values by key, with the file's `path` and each
    key's line in `lines`, so that errors about its values can name them."""

    def __init__(self, values: dict, path, lines: dict):
        super().__init__(values)
        self.path = path
        self.lines = lines


def _in_file(exc: ValueError, d, given=()) -> ValueError:
    """exc naming the config file that d was read from, and the line of the
    key exc's message opens with when the file set that key; exc itself for
    values not read from a file, and when an override in `given` set the
    key."""
    if not isinstance(d, ConfigText):
        return exc
    return in_file(exc, d.path, d.lines, given)


def _build(cls, d: dict, **extra):
    """cls from the keys of d that name its fields; the rest keep defaults."""
    given = {k: parse(d[k]) for k, parse in _PARSERS[cls].items() if k in d}
    return cls(**given, **extra)


def parse_config(path) -> ConfigText:
    """Read `key = value` lines; '#' starts a comment; keys lower_snake_case.
    Each value is parsed as its key's type.  A key outside KEYS, and a value
    that does not parse, is an error naming its file and line."""
    values, lines = read_key_values(path, _KEY_PARSERS)
    return ConfigText(values, path, lines)


def gamma_lut_from_dict(d: dict) -> GammaLUT:
    """Tuning table of the cell the circuit keys and `frequency` describe.
    A value the circuit rejects is an error naming the file of config values
    read by parse_config."""
    try:
        params, model = _build(CircuitParams, d), _build(VaractorModel, d)
        return build_gamma_lut(model, params,
                               float(d.get("frequency", DEFAULT_FREQUENCY)))
    except ValueError as exc:
        raise _in_file(exc, d) from None


def experiment_from_dict(d: dict, **overrides) -> ExperimentConfig:
    """Build an ExperimentConfig from config values plus CLI overrides
    (overrides win).  A value that a dataclass rejects, and a `target_ber`
    outside (0, 0.5), is an error naming the file of config values read by
    parse_config, and its line when the error opens with its key.  The
    surface is built from its keys in either mode, so none of them is
    silently ignored; only a metasurface config keeps its points."""
    given = {k: v for k, v in overrides.items() if v is not None}
    merged = {**d, **given}
    unknown = sorted(merged.keys() - KEYS)
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")

    try:
        cfg = _build(ExperimentConfig, merged,
                     array=_build(ArrayConfig, merged))
        targets = _KEY_PARSERS["target_phases"](
            merged.get("target_phases", DEFAULT_TARGET_PHASES))
        surface = surface_constellation(gamma_lut_from_dict(merged), targets)
        check_target_ber(float(merged.get("target_ber", DEFAULT_TARGET_BER)))
        if cfg.mode == "metasurface":
            cfg = replace(cfg, constellation=surface)
    except ValueError as exc:
        raise _in_file(exc, d, given) from None
    return cfg
