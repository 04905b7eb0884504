import numpy as np
import pytest

from mslink.surface import (COLS, ROWS, ArrayConfig, aggregate_reflection,
                            modulated_power_ratio_db, parse_mask)


def test_parse_mask_literals():
    assert parse_mask("full") == "1" * 128
    left = parse_mask("left-half")
    right = parse_mask("right-half")
    assert len(left) == len(right) == 128
    for r in range(8):   # row-major: each row's 16 cells in turn
        assert left[16 * r:16 * (r + 1)] == "1" * 8 + "0" * 8
        assert right[16 * r:16 * (r + 1)] == "0" * 8 + "1" * 8


def test_parse_mask_bitstring():
    bits = "10" * 64
    m = parse_mask(bits)
    assert m == bits and m.count("1") == 64
    assert m[0] == "1" and m[1] == "0"
    # an array's cells land at their row-major positions, in either shape
    cells = np.zeros((8, 16), dtype=bool)
    cells[0, 1] = cells[2, 5] = cells[7, 15] = True
    for spec in (cells, cells.ravel(), cells.astype(int)):
        m = parse_mask(spec)
        assert [i for i, ch in enumerate(m) if ch == "1"] == [1, 37, 127]


def test_parse_mask_rejects_garbage():
    with pytest.raises(ValueError):
        parse_mask("semi-full")
    with pytest.raises(ValueError):
        parse_mask("101")  # wrong length
    # a mask that is neither a str nor an array, None included: the
    # default is "full", not None
    for bad in (None, 128):
        with pytest.raises(ValueError, match="^mask must "):
            ArrayConfig(mask=bad)


def test_array_shape_is_fixed():
    # the prototype's 8 x 16 cells are not a setting: a shape argument is an
    # error (rows=0 would make every reflection NaN)
    assert (ROWS, COLS) == (8, 16)
    assert ArrayConfig().n_total == 128
    for shape in ({"rows": 0}, {"cols": 8}):
        with pytest.raises(TypeError):
            ArrayConfig(**shape)


def test_full_activation_is_identity():
    cfg = ArrayConfig(mask="full")
    g = 0.3 - 0.7j
    assert aggregate_reflection(g, cfg) == pytest.approx(g)


def test_no_activation_returns_static_gamma():
    cfg = ArrayConfig(mask="0" * 128, gamma_static=0.2 + 0.1j)
    assert aggregate_reflection(1.0 + 0j, cfg) == pytest.approx(0.2 + 0.1j)


def test_half_activation_halves_amplitude():
    cfg = ArrayConfig(mask="left-half", gamma_static=0.0)
    g = 0.8 + 0.2j
    out = aggregate_reflection(g, cfg)
    assert out == pytest.approx(g / 2)
    # amplitude ratio 2 <=> modulated power -6.02 dB
    assert 20 * np.log10(abs(g) / abs(out)) == pytest.approx(6.0206, abs=1e-3)


def test_aggregate_is_affine_in_gamma():
    cfg = ArrayConfig(mask="left-half", gamma_static=0.1 - 0.05j)
    slope = cfg.n_active / cfg.n_total
    offset = aggregate_reflection(0.0, cfg)
    for g in (1.0, -1j, 0.3 + 0.4j):
        assert aggregate_reflection(g, cfg) == pytest.approx(
            slope * g + offset)


def test_aggregate_accepts_sample_arrays():
    cfg = ArrayConfig(mask="left-half")
    x = np.array([1.0, -1.0, 1j, -1j])
    np.testing.assert_allclose(aggregate_reflection(x, cfg), x / 2)


def test_left_right_masks_are_equivalent():
    g = np.exp(1j * np.linspace(0, 2 * np.pi, 16, endpoint=False))
    left = aggregate_reflection(g, ArrayConfig(mask="left-half",
                                               gamma_static=0.05j))
    right = aggregate_reflection(g, ArrayConfig(mask="right-half",
                                                gamma_static=0.05j))
    assert np.array_equal(left, right)


def test_static_offset_shifts_the_mean():
    cfg = ArrayConfig(mask="left-half", gamma_static=0.4 + 0j)
    symbols = np.array([1, -1, 1j, -1j])  # zero mean
    out = aggregate_reflection(symbols, cfg)
    expect = (cfg.n_total - cfg.n_active) * cfg.gamma_static / cfg.n_total
    assert np.mean(out) == pytest.approx(expect)


def test_power_ratio_values():
    full = ArrayConfig(mask="full")
    half = ArrayConfig(mask="left-half")
    quarter = ArrayConfig(mask="1" * 32 + "0" * 96)
    assert modulated_power_ratio_db(full, half) == pytest.approx(6.0206,
                                                                 abs=1e-4)
    assert modulated_power_ratio_db(full, full) == 0.0
    assert modulated_power_ratio_db(full, quarter) == pytest.approx(12.0412,
                                                                    abs=1e-4)


def test_power_ratio_rejects_empty_denominator():
    with pytest.raises(ValueError):
        modulated_power_ratio_db(ArrayConfig(), ArrayConfig(mask="0" * 128))


@pytest.mark.parametrize("bad", ["nan", "inf", "1e300", "1.5", "0.8+0.8j",
                                 "1.7e308+1.7e308j"])
def test_gamma_static_must_be_finite_and_passive(bad):
    # a cell is passive, |gamma| <= 1; NaN and 1e300 built silent links
    # whose every frame failed sync
    with pytest.raises(ValueError) as exc:
        ArrayConfig(mask="left-half", gamma_static=complex(bad))
    assert str(exc.value) == (f"gamma_static must be finite with magnitude "
                              f"<= 1, got {complex(bad)!r}")


@pytest.mark.parametrize("bad", ["0.3", None, (0.3, 0.1)])
def test_gamma_static_must_be_a_number(bad):
    # a str passed the check as complex("0.3") and was stored as the str,
    # so the first frame failed inside numpy
    with pytest.raises(TypeError, match="^gamma_static must be a number, "):
        ArrayConfig(mask="left-half", gamma_static=bad)
    ArrayConfig(gamma_static=np.complex64(0.3))


def test_gamma_static_may_reflect_fully():
    for g in (1.0, -1j, 0.6 + 0.8j, 0):
        assert ArrayConfig(gamma_static=g).gamma_static == g
