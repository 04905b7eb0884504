"""Line-oriented `key = value` config files and experiment construction.

The accepted keys are the fields of ExperimentConfig, ArrayConfig,
CircuitParams and VaractorModel that text can set, the aliases `snr`,
`frames` and `seed`, and `frequency`, `target_phases` and `target_ber`.  A key
that is not set keeps its dataclass default.
"""

from __future__ import annotations

from dataclasses import fields, replace

from .circuit import (CircuitParams, GammaLUT, VaractorModel, build_gamma_lut,
                      DEFAULT_FREQUENCY, DEFAULT_TARGET_PHASES,
                      DEFAULT_VOLTAGE_GRID)
from .harness import ExperimentConfig, surface_constellation
from .iqfile import read_key_values
from .surface import ArrayConfig


def _tuple_of(convert):
    """Comma-separated text (or an iterable) -> tuple of converted items."""
    def parse(value):
        items = value.split(",") if isinstance(value, str) else value
        return tuple(convert(v) for v in items if str(v).strip())
    return parse


# text -> value, by field annotation; fields with none are not config keys
_BY_ANNOTATION = {
    "str": str, "int": int, "int | None": int, "float": float,
    "complex": complex,
    "np.ndarray": lambda spec: spec,  # a mask literal, parsed by ArrayConfig
}
_BY_NAME = {"snr_list": _tuple_of(float), "fir_taps": _tuple_of(complex),
            "target_phases": _tuple_of(float)}
_ALIASES = {"snr": "snr_list", "frames": "frames_per_point",
            "seed": "base_seed"}
_EXTRA = ("frequency", "target_phases", "target_ber")


def _parsers(cls) -> dict:
    out = {}
    for f in fields(cls):
        parse = _BY_NAME.get(f.name) or _BY_ANNOTATION.get(f.type)
        if parse is not None:
            out[f.name] = parse
    return out


_PARSERS = {cls: _parsers(cls) for cls in
            (ExperimentConfig, ArrayConfig, CircuitParams, VaractorModel)}
KEYS = frozenset().union(*_PARSERS.values(), _ALIASES, _EXTRA)


def _build(cls, d: dict, **extra):
    """cls from the keys of d that name its fields; the rest keep defaults."""
    given = {k: parse(d[k]) for k, parse in _PARSERS[cls].items() if k in d}
    return cls(**given, **extra)


def parse_config(path) -> dict:
    """Read `key = value` lines; '#' starts a comment; keys lower_snake_case.
    A key outside KEYS is an error naming its file and line."""
    return read_key_values(path, KEYS)


def circuit_from_dict(d: dict) -> tuple[CircuitParams, VaractorModel]:
    return _build(CircuitParams, d), _build(VaractorModel, d)


def gamma_lut_from_dict(d: dict) -> GammaLUT:
    """Tuning table of the cell the circuit keys and `frequency` describe."""
    params, model = circuit_from_dict(d)
    return build_gamma_lut(model, params,
                           float(d.get("frequency", DEFAULT_FREQUENCY)),
                           DEFAULT_VOLTAGE_GRID)


def experiment_from_dict(d: dict, **overrides) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed config text plus CLI overrides
    (overrides win, and a field's own name wins over its alias)."""
    merged = dict(d)
    merged.update((k, v) for k, v in overrides.items() if v is not None)
    for alias, name in _ALIASES.items():
        if alias in merged:
            merged.setdefault(name, merged.pop(alias))
    unknown = sorted(merged.keys() - KEYS)
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")

    cfg = _build(ExperimentConfig, merged, array=_build(ArrayConfig, merged))
    if cfg.mode == "metasurface":
        targets = _BY_NAME["target_phases"](
            merged.get("target_phases", DEFAULT_TARGET_PHASES))
        cfg = replace(cfg, constellation=surface_constellation(
            gamma_lut_from_dict(merged), targets))
    return cfg
