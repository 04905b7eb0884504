from dataclasses import fields

import numpy as np
import pytest

from mslink.circuit import (DEFAULT_VOLTAGE_GRID, CircuitParams, VaractorModel,
                            build_gamma_lut)
from mslink.cli import main
from mslink.config import (KEYS, circuit_from_dict, experiment_from_dict,
                           parse_config)
from mslink.harness import ExperimentConfig, surface_constellation
from mslink.surface import ArrayConfig, parse_mask


def test_parse_config(tmp_path):
    path = tmp_path / "link.cfg"
    path.write_text("""
# comment line
mode = metasurface
snr_list = 4, 6, 8   # trailing comment
frames_per_point = 3
""")
    d = parse_config(path)
    assert d == {"mode": "metasurface", "snr_list": "4, 6, 8",
                 "frames_per_point": "3"}


def test_parse_config_rejects_bad_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("no equals sign here\n")
    with pytest.raises(ValueError):
        parse_config(path)


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text("mode = metasurface\n\nsnr_lsit = 8\n")
    with pytest.raises(ValueError) as exc:
        parse_config(path)
    assert str(exc.value) == f"{path}:3: unknown key 'snr_lsit'"


def test_experiment_from_dict_rejects_unknown_key():
    with pytest.raises(ValueError, match="snr_lsit"):
        experiment_from_dict({"snr_lsit": "8"})


# one non-default value per accepted key: text, and the value it must become
EVERY_KEY = {
    "mode": ("metasurface", "metasurface"),
    "snr_list": ("3, 5.5, inf", (3.0, 5.5, float("inf"))),
    "frames_per_point": ("7", 7),
    "base_seed": ("11", 11),
    "sps": ("4", 4),
    "cfo_normalized": ("0.01", 0.01),
    "timing_offset": ("3", 3),
    "complex_gain": ("0.5+0.5j", 0.5 + 0.5j),
    "fir_taps": ("1, 0.2-0.1j", (1.0 + 0j, 0.2 - 0.1j)),
    "pilot_seed": ("2", 2),
    "est_taps": ("2", 2),
    "rows": ("4", 4),
    "cols": ("8", 8),
    "mask": ("left-half", "left-half"),
    "gamma_static": ("0.1+0.2j", 0.1 + 0.2j),
    "r_series": ("10.0", 10.0),
    "l_top": ("0.6e-9", 0.6e-9),
    "l_bottom": ("4.5e-9", 4.5e-9),
    "z_air": ("370.0", 370.0),
    "c_zero": ("1.3e-12", 1.3e-12),
    "v_junction": ("2.5", 2.5),
    "exponent": ("0.9", 0.9),
    "c_min": ("0.25e-12", 0.25e-12),
    "frequency": ("4.1e9", 4.1e9),
    "target_phases": ("0, 70, 140, 210", (0.0, 70.0, 140.0, 210.0)),
    "target_ber": ("1e-3", 1e-3),
}
ALIASES = {"snr": ("6, 9", "snr_list", (6.0, 9.0)),
           "frames": ("5", "frames_per_point", 5),
           "seed": ("13", "base_seed", 13)}


def test_every_accepted_key_lands_in_its_field(tmp_path):
    assert KEYS == EVERY_KEY.keys() | ALIASES.keys()
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{k} = {text}\n"
                            for k, (text, _) in EVERY_KEY.items()))
    d = parse_config(path)
    cfg = experiment_from_dict(d)
    want = {k: value for k, (_, value) in EVERY_KEY.items()}
    for f in fields(ExperimentConfig):
        if f.name in want:
            assert getattr(cfg, f.name) == want[f.name], f.name
    for f in fields(ArrayConfig):
        if f.name == "mask":
            np.testing.assert_array_equal(cfg.array.mask,
                                          parse_mask("left-half", 4, 8))
        else:
            assert getattr(cfg.array, f.name) == want[f.name], f.name
    params, model = circuit_from_dict(d)
    assert params == CircuitParams(**{f.name: want[f.name]
                                      for f in fields(CircuitParams)})
    assert model == VaractorModel(**{f.name: want[f.name]
                                     for f in fields(VaractorModel)})
    lut = build_gamma_lut(model, params, 4.1e9, DEFAULT_VOLTAGE_GRID)
    np.testing.assert_array_equal(
        cfg.constellation.points,
        surface_constellation(lut, want["target_phases"]).points)
    assert float(d["target_ber"]) == want["target_ber"]


@pytest.mark.parametrize("alias", sorted(ALIASES))
def test_alias_lands_in_its_field(alias, tmp_path):
    text, name, value = ALIASES[alias]
    path = tmp_path / "alias.cfg"
    path.write_text(f"{alias} = {text}\n")
    assert getattr(experiment_from_dict(parse_config(path)), name) == value
    # the field's own name wins over its alias
    named = experiment_from_dict({alias: text, name: EVERY_KEY[name][0]})
    assert getattr(named, name) == EVERY_KEY[name][1]


def test_empty_dict_gives_the_dataclass_defaults():
    got, want = experiment_from_dict({}), ExperimentConfig()
    for f in fields(ExperimentConfig):
        if f.name != "array":
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    for f in fields(ArrayConfig):
        np.testing.assert_array_equal(getattr(got.array, f.name),
                                      getattr(want.array, f.name))
    assert circuit_from_dict({}) == (CircuitParams(), VaractorModel())


@pytest.mark.parametrize("extra", [{}, {"r_series": "12.0"}])
def test_config_metasurface_constellation_is_the_default_one(extra):
    cfg = experiment_from_dict({"mode": "metasurface", **extra})
    np.testing.assert_array_equal(
        cfg.constellation.points,
        ExperimentConfig(mode="metasurface").resolved_constellation().points)


def test_experiment_from_dict_overrides_win():
    cfg = experiment_from_dict({"mode": "metasurface", "frames": "7"},
                               mode="conventional", snr_list="2,4")
    assert cfg.mode == "conventional"
    assert cfg.snr_list == (2.0, 4.0)
    assert cfg.frames_per_point == 7


def test_circuit_from_dict_defaults_and_keys():
    params, model = circuit_from_dict({"r_series": "3.5", "c_zero": "1e-12"})
    assert params.r_series == 3.5
    assert model.c_zero == 1e-12
    assert model.c_min == 0.2e-12  # untouched default


def test_cli_gamma_curve(tmp_path, capsys):
    out = tmp_path / "gamma.csv"
    assert main(["gamma-curve", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "voltage_v,re_gamma,im_gamma,mag,phase_deg"
    assert len(lines) == 202  # header + 0..20 V in 0.1 V steps


def test_cli_ber_sweep_reproducible(tmp_path):
    args = ["ber-sweep", "--snr", "8,10", "--frames", "2", "--seed", "5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "snr_db,bits,errors,ber"


def test_cli_transmit_receive_roundtrip(tmp_path):
    src = tmp_path / "msg.bin"
    src.write_bytes(np.random.default_rng(1).integers(
        0, 256, 2000, dtype=np.uint8).tobytes())
    iq = tmp_path / "msg.iq"
    assert main(["transmit", str(src), "--out", str(iq)]) == 0
    out = tmp_path / "msg.out"
    assert main(["receive", str(iq), "--out", str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()


def test_cli_constellation_dump(tmp_path):
    out = tmp_path / "points.csv"
    assert main(["constellation", "--snr", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 1 + 9 * 2048


def test_cli_sync_check_reports_rate(tmp_path, capsys):
    assert main(["sync-check", "--snr", "5", "--frames", "5"]) == 0
    assert "5/5" in capsys.readouterr().out


def test_cli_sync_check_sees_the_array_mask(capsys):
    # no active cell: the surface reflects nothing, so nothing is detected
    assert main(["sync-check", "--mode", "metasurface", "--snr", "30",
                 "--frames", "5", "--mask", "0" * 128]) == 0
    assert "0/5" in capsys.readouterr().out


@pytest.mark.parametrize("text, want", [
    # a -40 dB gain at 5 dB SNR, plus CFO and multipath: nothing detectable
    ("complex_gain = 0.01\ncfo_normalized = 0.45\n"
     "fir_taps = 1, 0.3-0.2j, 0.1+0.05j\n", "0/5"),
    # the configured delay adds to the drawn one, and the search widens
    ("timing_offset = 5000\n", "5/5"),
], ids=["impaired", "delayed"])
def test_cli_sync_check_uses_the_config_channel(tmp_path, capsys, text, want):
    cfg = tmp_path / "link.cfg"
    cfg.write_text(text)
    assert main(["sync-check", "--config", str(cfg), "--snr", "5",
                 "--frames", "5"]) == 0
    assert f" {want} " in capsys.readouterr().out


def test_cli_compare(tmp_path, capsys):
    stem = tmp_path / "cmp"
    assert main(["compare", "--snr", "10,12,14,16,18", "--frames", "3",
                 "--out", str(stem)]) == 0
    assert (tmp_path / "cmp_conventional.csv").exists()
    assert (tmp_path / "cmp_metasurface.csv").exists()
    assert "gap at BER" in capsys.readouterr().out


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "link.cfg"
    cfg.write_text("snr_list = 8\nframes_per_point = 1\nbase_seed = 2\n")
    out = tmp_path / "ber.csv"
    assert main(["ber-sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[1].split(",")[0] == "8.0"
    assert rows[1].split(",")[1] == "36864"
