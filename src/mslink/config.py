"""Line-oriented `key = value` config files and experiment construction.

The accepted keys are the fields of ExperimentConfig, ArrayConfig and
UnitCell that text can set, and `target_phases` and `target_ber`.  A key
that is not set keeps its dataclass default.
"""

from __future__ import annotations

from dataclasses import replace

from .circuit import (DEFAULT_TARGET_PHASES, GammaLUT, UnitCell,
                      build_gamma_lut)
from .harness import (DEFAULT_TARGET_BER, ExperimentConfig,
                      check_target_ber, surface_constellation)
from .iqfile import KeyValues, field_parsers, in_file, read_key_values
from .surface import ArrayConfig


def _tuple_of(convert):
    """Comma-separated text (or an iterable) -> tuple of converted items."""
    def parse(value):
        items = value.split(",") if isinstance(value, str) else value
        return tuple(convert(v) for v in items if str(v).strip())
    parse.__name__ = f"list of {convert.__name__}"
    return parse


# text -> value, for the fields whose annotation does not give it; the other
# fields' parsers come from iqfile.field_parsers
_BY_NAME = {"snr_list": _tuple_of(float), "fir_taps": _tuple_of(complex),
            "target_phases": _tuple_of(float)}
_PARSERS = {cls: field_parsers(cls, **_BY_NAME) for cls in
            (ExperimentConfig, ArrayConfig, UnitCell)}
# every key's parser: the fields' and the extra keys'; each takes text or an
# already parsed value
_KEY_PARSERS = {k: p for ps in _PARSERS.values() for k, p in ps.items()}
_KEY_PARSERS.update(target_phases=_BY_NAME["target_phases"], target_ber=float)
KEYS = frozenset(_KEY_PARSERS)


def _build(cls, d: dict, **extra):
    """cls from the keys of d that name its fields; the rest keep defaults."""
    given = {k: parse(d[k]) for k, parse in _PARSERS[cls].items() if k in d}
    return cls(**given, **extra)


def parse_config(path) -> KeyValues:
    """Read `key = value` lines; '#' starts a comment; keys lower_snake_case.
    Each value is parsed as its key's type.  A key outside KEYS, and a value
    that does not parse, is an error naming its file and line."""
    return read_key_values(path, _KEY_PARSERS)


def gamma_lut_from_dict(d: dict) -> GammaLUT:
    """Tuning table of the cell the UnitCell keys describe.  A value the
    cell rejects is an error naming the file of config values read by
    parse_config."""
    try:
        return build_gamma_lut(_build(UnitCell, d))
    except ValueError as exc:
        raise in_file(exc, d) from None


def experiment_from_dict(d: dict, **overrides) -> ExperimentConfig:
    """Build an ExperimentConfig from config values plus CLI overrides
    (overrides win).  A value that a dataclass rejects, and a `target_ber`
    outside (0, 0.5), is an error naming the file of config values read by
    parse_config, and its line when the error opens with its key.  The
    surface is built from its keys in either mode, so none of them is
    silently ignored; only a metasurface config keeps its points.  Its
    target phases spreading wider than the cell's phase travel is the last
    check, an InfeasibleError, so that error means every other key passed."""
    given = {k: v for k, v in overrides.items() if v is not None}
    merged = {**d, **given}
    unknown = sorted(merged.keys() - KEYS)
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")

    try:
        cfg = _build(ExperimentConfig, merged,
                     array=_build(ArrayConfig, merged))
        check_target_ber(float(merged.get("target_ber", DEFAULT_TARGET_BER)))
        targets = _KEY_PARSERS["target_phases"](
            merged.get("target_phases", DEFAULT_TARGET_PHASES))
        surface = surface_constellation(gamma_lut_from_dict(merged), targets)
        if cfg.mode == "metasurface":
            cfg = replace(cfg, constellation=surface)
    except ValueError as exc:
        raise in_file(exc, d, given) from None
    return cfg
