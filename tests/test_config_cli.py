import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslink.circuit import DEFAULT_TARGET_PHASES, UnitCell, build_gamma_lut
from mslink.cli import main
from mslink.config import (KEYS, experiment_from_dict, gamma_lut_from_dict,
                           parse_config)
from mslink import harness
from mslink.harness import (ExperimentConfig, compare_architectures,
                            surface_constellation)
from mslink.surface import ArrayConfig, parse_mask
from mslink.txchain import FrameLayout


def test_parse_config(tmp_path):
    path = tmp_path / "link.cfg"
    path.write_text("""
# comment line
mode = metasurface
snr_list = 4, 6, 8   # trailing comment
frames_per_point = 3
""")
    d = parse_config(path)
    assert d == {"mode": "metasurface", "snr_list": (4.0, 6.0, 8.0),
                 "frames_per_point": 3}


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


@pytest.mark.parametrize("key", ["pilot_seed", "rows", "cols", "z_air"])
def test_parse_config_rejects_the_fixed_prototype_settings(tmp_path, key):
    # the pilot, the 8x16 array and the air impedance are constants
    path = tmp_path / "old.cfg"
    path.write_text(f"mode = metasurface\n{key} = 1\n")
    with pytest.raises(ValueError) as exc:
        parse_config(path)
    assert str(exc.value) == f"{path}:2: unknown key {key!r}"


@pytest.mark.parametrize("key, text", [
    ("snr", "6, 9"), ("frames", "5"), ("seed", "13")])
def test_parse_config_rejects_the_old_aliases(tmp_path, key, text):
    # each setting has one name: snr_list, frames_per_point, base_seed
    path = tmp_path / "old.cfg"
    path.write_text(f"mode = metasurface\n{key} = {text}\n")
    with pytest.raises(ValueError) as exc:
        parse_config(path)
    assert str(exc.value) == f"{path}:2: unknown key {key!r}"
    with pytest.raises(ValueError, match=f"unknown key {key!r}"):
        experiment_from_dict({key: text})


def test_parse_config_rejects_repeated_key(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("frames_per_point = 3\nmode = metasurface\n"
                    "frames_per_point = 1\n")
    with pytest.raises(ValueError) as exc:
        parse_config(path)
    assert str(exc.value) == f"{path}:3: repeated key 'frames_per_point'"


def test_experiment_from_dict_rejects_unknown_key():
    with pytest.raises(ValueError, match="snr_lsit"):
        experiment_from_dict({"snr_lsit": "8"})


# values that parse, but that no frame can run with: the config must not build
@pytest.mark.parametrize("mode", ["conventional", "metasurface"])
@pytest.mark.parametrize("key, text", [
    ("cfo_normalized", "0.7"), ("cfo_normalized", "nan"), ("sps", "0"),
    ("timing_offset", "-1"), ("fir_taps", ""), ("fir_taps", "1, nan"),
    ("complex_gain", "nan"), ("base_seed", "-3"),
    # a link that passes no signal, and a surface that is not passive
    ("complex_gain", "0"), ("fir_taps", "0"), ("fir_taps", "0, -0j"),
    ("gamma_static", "nan"), ("gamma_static", "1e300"),
    ("gamma_static", "1.5"),
    # an empty grid and a mask no array has
    ("snr_list", ","), ("mask", "foo"),
    # an sps or a delay that would ask a frame for gigabytes
    ("sps", "65"), ("sps", "1000000"), ("timing_offset", "1000000000"),
])
def test_bad_channel_and_receiver_values_fail_at_load(tmp_path, capsys, mode,
                                                      key, text):
    with pytest.raises(ValueError, match=key) as plain:
        experiment_from_dict({"mode": mode, key: text})
    # read from a file, the error names the file and the key's line
    path = tmp_path / "bad.cfg"
    path.write_text(f"mode = {mode}\n{key} = {text}\n")
    want = f"{path}:2: {plain.value}"
    with pytest.raises(ValueError) as exc:
        experiment_from_dict(parse_config(path))
    assert str(exc.value) == want
    assert main(["ber-sweep", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"mslink: error: {want}\n"


@pytest.mark.parametrize("mode, sps", [("conventional", 1),
                                       ("metasurface", 8)])
def test_fir_taps_longer_than_one_block_fail_at_load(tmp_path, mode, sps):
    # the LS estimator spans the channel's symbol-spaced delay spread, at
    # most one FFT block: 2048 taps at sps 1
    longest = (FrameLayout.fft_len - 1) * sps + 1
    cfg = ExperimentConfig(mode=mode, fir_taps=(1.0,) * longest)
    assert cfg.resolved_est_taps() == FrameLayout.fft_len
    with pytest.raises(ValueError) as plain:
        ExperimentConfig(mode=mode, fir_taps=(1.0,) * (longest + 1))
    assert str(plain.value) == (
        f"fir_taps must span at most 2048 symbols ({longest} taps at sps "
        f"{sps}), got {longest + 1} taps")
    # read from a file, the error names the fir_taps line, not the sps line
    path = tmp_path / "long.cfg"
    path.write_text(f"mode = {mode}\nsps = {sps}\n"
                    f"fir_taps = {', '.join(['1'] * (longest + 1))}\n")
    with pytest.raises(ValueError) as exc:
        experiment_from_dict(parse_config(path))
    assert str(exc.value) == f"{path}:3: {plain.value}"


# NaN and -inf, and SNRs whose noise variance float64 cannot form
@pytest.mark.parametrize("bad", ["nan", "-inf", "3083", "-3240"])
def test_bad_snr_fails_at_load_before_any_frame(tmp_path, capsys, bad):
    with pytest.raises(ValueError) as plain:
        ExperimentConfig(snr_list=(10.0, float(bad)))
    assert str(plain.value) == (f"snr_list value {float(bad)!r}: "
                                f"snr_db must be +inf or give a finite noise "
                                f"variance ref_power / 10^(snr_db / 10)")
    # so does the --snr flag, on one error line
    assert main(["ber-sweep", "--snr", f"10,{bad}", "--frames", "1",
                 "--out", str(tmp_path / "flag.csv")]) == 1
    assert capsys.readouterr() == ("", f"mslink: error: {plain.value}\n")
    assert not (tmp_path / "flag.csv").exists()
    # read from a file, the error names the file and the snr line, and no
    # frame runs: nothing is printed and no CSV is written
    path = tmp_path / "bad.cfg"
    path.write_text(f"frames_per_point = 1\nsnr_list = 10, {bad}\n")
    out = tmp_path / "ber.csv"
    assert main(["ber-sweep", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"mslink: error: {path}:2: "
                                       f"{plain.value}\n")
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("complex_gain = abc", "complex_gain = 'abc' is not a valid complex"),
    ("frames_per_point = two",
     "frames_per_point = 'two' is not a valid int"),
    ("snr_list = 4, x", "snr_list = '4, x' is not a valid list of float"),
    ("target_ber = low", "target_ber = 'low' is not a valid float"),
])
def test_config_value_that_does_not_parse_names_its_line(tmp_path, capsys,
                                                         line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(f"mode = metasurface\n{line}\n")
    want = f"{path}:2: {message}"
    with pytest.raises(ValueError) as exc:
        parse_config(path)
    assert str(exc.value) == want
    assert main(["compare", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"mslink: error: {want}\n"


@pytest.mark.parametrize("text, argv, message", [
    ("mode = qam\n", ["ber-sweep"],
     "{path}:1: mode must be 'conventional' or 'metasurface', got 'qam'"),
    # a flag set the value, not the file
    ("frames_per_point = 3\n", ["ber-sweep", "--frames", "0"],
     "frames_per_point must be in 1..1048576, got 0"),
    ("base_seed = 3\n", ["ber-sweep", "--seed", "-1", "--snr", "20"],
     "base_seed must be >= 0, got -1"),
    # the circuit keys, through the tuning table
    ("r_series = -1\n", ["gamma-curve"], "{path}:1: r_series must be >= 0"),
    ("mode = metasurface\nr_series = -1\n", ["constellation"],
     "{path}:2: r_series must be >= 0"),
    # every key of the file, not only those the table is built from
    ("mode = qam\nsnr_list = nan\ntarget_phases = 0, 90\n", ["gamma-curve"],
     "{path}:1: mode must be 'conventional' or 'metasurface', got 'qam'"),
], ids=["mode", "flag", "seed-flag", "gamma-curve", "metasurface",
        "gamma-curve-mode"])
def test_cli_config_rejection_names_the_file(tmp_path, capsys, text, argv,
                                             message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(argv + ["--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"mslink: error: {message.format(path=path)}\n")


@pytest.mark.parametrize("mode", ["conventional", "metasurface"])
@pytest.mark.parametrize("line, message", [
    ("r_series = -1", "{path}:2: r_series must be >= 0"),
    ("c_zero = -5", "{path}:2: c_zero must be > c_min, got -5.0"),
    # each key's message opens with that key, so it names that key's line
    ("l_top = 0", "{path}:2: l_top must be > 0, got 0.0"),
    ("l_bottom = -1", "{path}:2: l_bottom must be > 0, got -1.0"),
    ("c_zero = 0.1e-12", "{path}:2: c_zero must be > c_min, got 1e-13"),
    ("c_min = 0", "{path}:2: c_min must be > 0, got 0.0"),
    ("v_junction = 0", "{path}:2: v_junction must be > 0, got 0.0"),
    ("exponent = 0", "{path}:2: exponent must be > 0, got 0.0"),
    # not finite, and the keys of the surface beyond the cell
    ("r_series = nan", "{path}:2: r_series must be finite, got nan"),
    ("l_top = nan", "{path}:2: l_top must be finite, got nan"),
    ("c_zero = inf", "{path}:2: c_zero must be finite, got inf"),
    ("c_min = -inf", "{path}:2: c_min must be finite, got -inf"),
    ("frequency = nan", "{path}:2: frequency must be finite and > 0, got nan"),
    ("frequency = -1", "{path}:2: frequency must be finite and > 0, got -1.0"),
    # a cell whose load leaves the float range, under the setting that took
    # it there
    ("l_top = 1e300", "{path}:2: l_top 1e+300: the cell's load impedance "
     "at 4e+09 Hz overflows"),
    ("l_bottom = 1e300", "{path}:2: l_bottom 1e+300: the cell's load "
     "impedance at 4e+09 Hz overflows"),
    ("r_series = 1e307", "{path}:2: r_series 1e+307: the cell's load "
     "impedance at 4e+09 Hz overflows"),
    ("frequency = 1e300", "{path}:2: frequency 1e+300 Hz: the cell's load "
     "impedance overflows"),
    ("target_phases = 0, 90, 180",
     "{path}:2: target_phases must be 4 values, got 3"),
    ("target_phases = nan, 1, 2, 3",
     "{path}:2: target_phases must be finite, got nan, 1.0, 2.0, 3.0"),
    ("target_phases = 0, 0, 0, 0", "{path}:2: target_phases must pick four "
     "distinct voltages, got 0.0, 0.0, 0.0, 0.0 V"),
])
def test_bad_circuit_values_fail_at_load_in_either_mode(tmp_path, capsys,
                                                        mode, line, message):
    # the surface is built in either mode, so a value no surface can be
    # built from is an error, not a key silently ignored
    key, text = (part.strip() for part in line.split("="))
    with pytest.raises(ValueError):
        experiment_from_dict({"mode": mode, key: text})
    path = tmp_path / "bad.cfg"
    path.write_text(f"mode = {mode}\n{line}\n")
    want = message.format(path=path)
    with pytest.raises(ValueError) as exc:
        experiment_from_dict(parse_config(path))
    assert str(exc.value) == want
    assert main(["ber-sweep", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"mslink: error: {want}\n"


@pytest.mark.parametrize("argv", [["ber-sweep"], ["gamma-curve"]])
def test_a_cell_at_resonance_is_one_error_line(tmp_path, capsys, argv):
    # lossless, with the series branch resonating at 0 V: 1/sqrt(C (L1+L2))
    f = 1.0 / (2 * math.pi * math.sqrt(1.2e-12 * 5.5e-9))
    path = tmp_path / "resonant.cfg"
    path.write_text(f"mode = metasurface\nr_series = 0\nfrequency = {f!r}\n")
    assert main(argv + ["--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"mslink: error: {path}:3: frequency {f:g} Hz is "
                          f"a branch resonance")
    assert err.count("\n") == 1


# every key the surface is built from, with its default value
SURFACE_KEYS = {
    **{f.name: f.default for f in fields(UnitCell)},
    "target_phases": DEFAULT_TARGET_PHASES,
}
# 0, negatives, NaN, +-inf and huge values
_WIDE = (st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
         | st.floats(max_value=0.0, exclude_max=True)
         | st.floats(min_value=1e6, allow_infinity=False))


def _text(value) -> str:
    return (", ".join(map(repr, value)) if isinstance(value, (tuple, list))
            else repr(value))


@settings(max_examples=200, deadline=None)
@given(mode=st.sampled_from(["conventional", "metasurface"]),
       key=st.sampled_from(sorted(SURFACE_KEYS)), data=st.data())
def test_surface_keys_build_finite_points_or_name_their_line(
        tmp_path_factory, mode, key, data):
    value = data.draw(st.lists(_WIDE, min_size=3, max_size=5)
                      if key == "target_phases" else _WIDE, label=key)
    # the file sets every surface key, the drawn one to the drawn value, so
    # that any error about one of them can name its line
    values = {**SURFACE_KEYS, key: value}
    path = tmp_path_factory.mktemp("surface") / "wide.cfg"
    path.write_text(f"mode = {mode}\n" + "".join(
        f"{k} = {_text(v)}\n" for k, v in values.items()))
    lines = {k: n for n, k in enumerate(values, 2)}
    try:
        cfg = experiment_from_dict(parse_config(path))
    except ValueError as exc:
        message = str(exc)
        opens = re.match(rf"{re.escape(str(path))}:(\d+): (\w+) ", message)
        assert opens, message
        named = opens[2]
        assert int(opens[1]) == lines[named], message
        if named != key:
            # a check of two keys is stated under one of them: the tuning
            # range under target_phases, the cell's response under
            # frequency, and the capacitance floor under c_zero
            assert np.all(np.isfinite(value)), message
            assert (named == "target_phases" and "exceeds LUT span" in message
                    or named == "frequency" and ("resonance" in message
                                                 or "overflows" in message)
                    or named == "c_zero" and key == "c_min"), message
        return
    surface = cfg.constellation if mode == "metasurface" else (
        experiment_from_dict(parse_config(path),
                             mode="metasurface").constellation)
    assert np.all(np.isfinite(surface.points))


@pytest.mark.parametrize("text, message", [
    ("mode = foo",
     "mode must be 'conventional' or 'metasurface', got 'foo'"),
    ("mode = metasurface\ntarget_phases = 0, 90, 180",
     "target_phases must be 4 values, got 3"),
    ("mode = metasurface\ntarget_phases = 0, 90, 180, 300",
     "target_phases spread 300.0 deg exceeds LUT span 262.7 deg"),
], ids=["mode", "three-target-phases", "target-phases-wider-than-the-lut"])
def test_mode_and_target_phase_errors_name_their_line(tmp_path, capsys,
                                                      text, message):
    # the bad value is on the file's last line
    lines = text.split("\n")
    d = dict((part.strip() for part in line.split("=")) for line in lines)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        experiment_from_dict(d)
    path = tmp_path / "bad.cfg"
    path.write_text(text + "\n")
    want = f"{path}:{len(lines)}: {message}"
    with pytest.raises(ValueError) as exc:
        experiment_from_dict(parse_config(path))
    assert str(exc.value) == want
    assert main(["ber-sweep", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"mslink: error: {want}\n"


def test_cli_input_errors_are_one_line_and_exit_1(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["ber-sweep", "--config", str(missing)]) == 1
    assert capsys.readouterr().err == (
        f"mslink: error: [Errno 2] No such file or directory: "
        f"'{missing}'\n")
    # a curve that never reaches the target BER
    assert main(["compare", "--snr", "8,10", "--frames", "2", "--mask",
                 "left-half", "--out", str(tmp_path / "cmp")]) == 1
    assert capsys.readouterr().err == (
        "mslink: error: target BER 0.0001 not bracketed by the measured "
        "conventional and metasurface curves\n")
    # streams with no frame in them fail sync: noise falls below the
    # threshold, and all zeros has no correlation peak at all
    src = tmp_path / "msg.bin"
    src.write_bytes(bytes(range(200)))
    iq = tmp_path / "msg.iq"
    assert main(["transmit", str(src), "--out", str(iq)]) == 0
    capsys.readouterr()
    size = len(iq.read_bytes())
    noise = np.random.default_rng(3).standard_normal(size // 4)
    for samples, message in (
            (noise.astype(np.float32).tobytes(), "correlation peak "),
            (bytes(size), "correlation peak 0 ")):
        iq.write_bytes(samples)
        assert main(["receive", str(iq), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"mslink: error: frame 0: {message}")
        assert err.count("\n") == 1
    # a stream cut short of its header's frames names the IQ file
    iq.write_bytes(bytes(size)[:size // 2])
    assert main(["receive", str(iq), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"mslink: error: {iq}: stream has {size // 16} samples, "
        f"header implies >= {size // 8}\n")
    # a usage error is still argparse's, with status 2
    with pytest.raises(SystemExit) as exc:
        main(["ber-sweep", "--frames", "two"])
    assert exc.value.code == 2


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
    "mask": ("left-half", "left-half"),
    "gamma_static": ("0.1+0.2j", 0.1 + 0.2j),
    "r_series": ("10.0", 10.0),
    "l_top": ("0.6e-9", 0.6e-9),
    "l_bottom": ("4.5e-9", 4.5e-9),
    "c_zero": ("1.3e-12", 1.3e-12),
    "v_junction": ("2.5", 2.5),
    "exponent": ("0.9", 0.9),
    "c_min": ("0.25e-12", 0.25e-12),
    "frequency": ("4.1e9", 4.1e9),
    "target_phases": ("0, 70, 140, 210", (0.0, 70.0, 140.0, 210.0)),
    "target_ber": ("1e-3", 1e-3),
}


def test_every_accepted_key_lands_in_its_field(tmp_path):
    assert KEYS == EVERY_KEY.keys()
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
                                          parse_mask("left-half"))
        else:
            assert getattr(cfg.array, f.name) == want[f.name], f.name
    lut = build_gamma_lut(UnitCell(**{f.name: want[f.name]
                                      for f in fields(UnitCell)}))
    np.testing.assert_array_equal(gamma_lut_from_dict(d).gammas, lut.gammas)
    np.testing.assert_array_equal(
        cfg.constellation.points,
        surface_constellation(lut, want["target_phases"]).points)
    assert d["target_ber"] == want["target_ber"]


def test_readme_lists_exactly_the_config_keys():
    # the bullets under "Config files" name every accepted key, once
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config files\n", 1)[1]
    bullets = next(p for p in section.split("\n\n") if p.startswith("- "))
    listed = re.findall(r"`([a-z][a-z0-9]*(?:_[a-z0-9]+)*)`", bullets)
    assert sorted(listed) == sorted(KEYS)


def test_empty_dict_gives_the_dataclass_defaults():
    got, want = experiment_from_dict({}), ExperimentConfig()
    for f in fields(ExperimentConfig):
        if f.name != "array":
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    for f in fields(ArrayConfig):
        np.testing.assert_array_equal(getattr(got.array, f.name),
                                      getattr(want.array, f.name))
    np.testing.assert_array_equal(
        gamma_lut_from_dict({}).gammas,
        build_gamma_lut(UnitCell()).gammas)


@pytest.mark.parametrize("extra", [{}, {"r_series": "12.0"}])
def test_config_metasurface_constellation_is_the_default_one(extra):
    cfg = experiment_from_dict({"mode": "metasurface", **extra})
    np.testing.assert_array_equal(
        cfg.constellation.points,
        ExperimentConfig(mode="metasurface").resolved_constellation().points)


def test_experiment_from_dict_overrides_win():
    cfg = experiment_from_dict({"mode": "metasurface",
                                "frames_per_point": "7"},
                               mode="conventional", snr_list="2,4")
    assert cfg.mode == "conventional"
    assert cfg.snr_list == (2.0, 4.0)
    assert cfg.frames_per_point == 7


def test_gamma_lut_from_dict_defaults_and_keys():
    lut = gamma_lut_from_dict({"r_series": "3.5", "c_zero": "1e-12"})
    # c_min and the rest keep their defaults
    np.testing.assert_array_equal(
        lut.gammas,
        build_gamma_lut(UnitCell(r_series=3.5, c_zero=1e-12)).gammas)


def test_cli_gamma_curve(tmp_path, capsys):
    out = tmp_path / "gamma.csv"
    assert main(["gamma-curve", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "voltage_v,re_gamma,im_gamma,mag,phase_deg"
    assert len(lines) == 202  # header + 0..20 V in 0.1 V steps


def test_cli_gamma_curve_draws_a_cell_too_short_for_the_targets(tmp_path,
                                                                 capsys):
    # the cell's 254.7 deg of travel is below the default targets' 255 deg
    # spread: no surface can be built from it, so ber-sweep rejects the
    # file, but its curve, which shows why, is drawn
    path = tmp_path / "short.cfg"
    path.write_text("frequency = 4.1e9\nr_series = 10\n")
    out = tmp_path / "gamma.csv"
    assert main(["gamma-curve", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"wrote {out}: 201 points, phase span 254.7 deg\n")
    want = tmp_path / "want.csv"
    build_gamma_lut(UnitCell(frequency=4.1e9, r_series=10.0)).to_csv(want)
    assert out.read_text() == want.read_text()
    assert main(["ber-sweep", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"mslink: error: {path}: target_phases spread 255.0 deg exceeds "
        f"LUT span 254.7 deg\n")


@pytest.mark.parametrize("text", ["nan", "0", "0.5", "2"])
def test_target_ber_outside_its_range_fails_before_any_frame(
        tmp_path, capsys, monkeypatch, text):
    # a BER curve crosses only a target in (0, 0.5); any other is rejected
    # when the config is built, naming its line, and no sweep runs
    def no_frame(*args, **kwargs):
        raise AssertionError("a frame was run")

    monkeypatch.setattr(harness, "run_frame", no_frame)
    message = f"target_ber must be in (0, 0.5), got {float(text)!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        experiment_from_dict({"target_ber": text})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        compare_architectures(ExperimentConfig(), ExperimentConfig(),
                              float(text))
    path = tmp_path / "bad.cfg"
    path.write_text(f"frames_per_point = 1\ntarget_ber = {text}\n")
    stem = tmp_path / "cmp"
    assert main(["compare", "--config", str(path), "--out", str(stem)]) == 1
    assert capsys.readouterr() == ("", f"mslink: error: {path}:2: "
                                       f"{message}\n")
    assert not list(tmp_path.glob("cmp*"))


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


def test_cli_constellation_dump(tmp_path, capsys):
    out = tmp_path / "points.csv"
    assert main(["constellation", "--snr", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 1 + 9 * 2048
    # the summary line: the frame's EVM, SNR estimate, sync margin and
    # smallest channel-estimate magnitude
    _, _, diag = harness.run_frame(ExperimentConfig(snr_list=(20.0,)), 20.0, 0)
    assert capsys.readouterr().out == (
        f"wrote {out}: EVM {diag.evm_percent:.2f}%  SNR est "
        f"{diag.snr_estimate_db:.2f} dB  sync_margin {diag.sync_margin:.2f}  "
        f"min |h| {np.abs(diag.channel_estimate).min():.3g}\n")


def test_cli_constellation_names_an_undecodable_frame(tmp_path, capsys):
    # no active cell at infinite SNR: the static reflection, here 0, is
    # silence, which fails sync
    out = tmp_path / "points.csv"
    assert main(["constellation", "--mode", "metasurface", "--snr", "inf",
                 "--mask", "0" * 128, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "frame not decodable (no sync, or a zero bin in the channel "
        "estimate); no symbols to dump\n")
    assert not out.exists()


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


def test_cli_compare_from_the_defaults(tmp_path, capsys):
    # no --snr: the default grid brackets both curves' crossings, and the
    # summary's gap is the difference of the two crossings it prints
    stem = tmp_path / "cmp"
    assert main(["compare", "--frames", "2", "--out", str(stem)]) == 0
    for mode in ("conventional", "metasurface"):
        rows = (tmp_path / f"cmp_{mode}.csv").read_text().splitlines()
        assert len([r for r in rows if not r.startswith("#")]) == 1 + len(
            ExperimentConfig.snr_list)
    line = capsys.readouterr().out
    got = re.fullmatch(r"gap at BER 0\.0001: (\S+) dB \(conventional (\S+) "
                       r"dB, metasurface (\S+) dB\)\n", line)
    gap, conv, meta = map(float, got.groups())
    assert 2.0 < gap < 8.0
    assert gap == pytest.approx(meta - conv, abs=0.011)


def test_cli_compare_keeps_curves_that_miss_the_target(tmp_path, capsys):
    # neither curve reaches 1e-4 by 4 dB: both are still written, one row
    # per SNR point, and the error names each
    stem = tmp_path / "cmp"
    assert main(["compare", "--snr", "2,4", "--frames", "1",
                 "--out", str(stem)]) == 1
    for mode in ("conventional", "metasurface"):
        rows = (tmp_path / f"cmp_{mode}.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows if not r.startswith("#")] == [
            "snr_db", "2.0", "4.0"]
    err = capsys.readouterr().err
    assert "conventional" in err and "metasurface" in err


# the default grid's first point, where constellation and sync-check run,
# is above the sps-8 sync cliff
def test_cli_metasurface_constellation_from_the_defaults(tmp_path):
    out = tmp_path / "points.csv"
    assert main(["constellation", "--mode", "metasurface",
                 "--out", str(out)]) == 0


def test_cli_metasurface_sync_check_from_the_defaults(capsys):
    assert main(["sync-check", "--mode", "metasurface", "--frames", "3"]) == 0
    assert " 3/3 " in capsys.readouterr().out


# both run at one SNR: a list used to run at its first value and exit 0
def test_cli_constellation_refuses_an_snr_list(tmp_path, capsys):
    out = tmp_path / "points.csv"
    with pytest.raises(SystemExit) as exc:
        main(["constellation", "--snr", "10,20", "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --snr: takes one SNR in dB, not '10,20'" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_cli_sync_check_refuses_an_snr_list(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sync-check", "--snr", "10,-20", "--frames", "2"])
    assert exc.value.code == 2
    assert "argument --snr: takes one SNR in dB, not '10,-20'" in (
        capsys.readouterr().err)
    assert main(["sync-check", "--snr", "-20", "--frames", "2"]) == 0
    assert "at snr=-20.0 dB" in capsys.readouterr().out


def test_cli_compare_refuses_a_config_mode(tmp_path, capsys, monkeypatch):
    # compare runs both modes: a config's `mode` used to be dropped, as the
    # --mode flag is refused.  The error comes before any frame runs
    cfg = tmp_path / "link.cfg"
    cfg.write_text("frames_per_point = 1\nmode = metasurface\n")
    monkeypatch.setattr("mslink.cli.run_ber_sweep", None)
    assert main(["compare", "--config", str(cfg),
                 "--out", str(tmp_path / "cmp")]) == 1
    assert capsys.readouterr().err == (
        f"mslink: error: {cfg}:2: mode is not read by compare, which runs "
        f"both modes\n")
    assert list(tmp_path.iterdir()) == [cfg]


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "link.cfg"
    cfg.write_text("snr_list = 8\nframes_per_point = 1\nbase_seed = 2\n")
    out = tmp_path / "ber.csv"
    assert main(["ber-sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[1].split(",")[0] == "8.0"
    assert rows[1].split(",")[1] == "36864"


# the flags each subcommand reads
FLAG_TABLE = {
    "ber-sweep": "config out seed snr frames mode mask",
    "compare": "config out seed snr frames mask",
    "transmit": "config out mode mask input",
    "receive": "out header input",
    "gamma-curve": "config out",
    "constellation": "config out seed snr mode mask",
    "sync-check": "config seed snr frames mode mask",
}


@pytest.mark.parametrize("command", FLAG_TABLE)
def test_cli_help_lists_exactly_the_flags_the_subcommand_reads(command,
                                                              capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0].split()[3:]
    got = ({t.lstrip("[-") for t in usage if t.startswith("[--")}
           | {t for t in usage if t.isalpha()})
    assert got == set(FLAG_TABLE[command].split())


FLAG_VALUES = {"--config": "link.cfg", "--out": "out.csv", "--seed": "4",
               "--snr": "-40", "--frames": "0", "--mode": "metasurface",
               "--mask": "left-half"}
REMOVED_FLAGS = [("compare", "--mode"),
                 *(("transmit", f) for f in ("--seed", "--snr", "--frames")),
                 *(("receive", f) for f in ("--config", "--seed", "--snr",
                                            "--frames", "--mode", "--mask")),
                 *(("gamma-curve", f) for f in ("--seed", "--snr",
                                                "--frames", "--mode",
                                                "--mask")),
                 ("constellation", "--frames"), ("sync-check", "--out")]


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
def test_cli_rejects_a_flag_the_subcommand_does_not_read(tmp_path, capsys,
                                                         command, flag):
    # the missing file is never opened when parsing rejects the flag
    missing = str(tmp_path / "missing")
    tail = ([missing] if command in ("transmit", "receive")
            else ["--config", missing])
    with pytest.raises(SystemExit) as exc:
        main([command, *tail, flag, FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert (f"unrecognized arguments: {flag} {FLAG_VALUES[flag]}"
            in capsys.readouterr().err)
