import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslink.circuit import (GammaLUT, UnitCell, Z_AIR, DEFAULT_TARGET_PHASES,
                            _reflection_phase, build_gamma_lut,
                            default_gamma_lut, load_impedance,
                            reflection_coefficient, select_control_voltages,
                            varactor_capacitance)
from mslink.errors import InfeasibleError, SingularityError


# --- varactor capacitance ---------------------------------------------------

def test_capacitance_zero_bias_is_c_zero():
    m = UnitCell()
    assert varactor_capacitance(0.0, m) == m.c_zero


def test_capacitance_at_junction_voltage_halves():
    m = UnitCell(c_zero=1.2e-12, v_junction=2.0, exponent=1.0,
                      c_min=0.2e-12)
    assert varactor_capacitance(2.0, m) == pytest.approx(0.6e-12)


def test_capacitance_hand_computed_point():
    # 2 pF / (1 + 3)^0.5 = 1.0 pF, above the 0.1 pF floor
    m = UnitCell(c_zero=2e-12, v_junction=1.0, exponent=0.5,
                      c_min=0.1e-12)
    assert varactor_capacitance(3.0, m) == pytest.approx(1.0e-12)


def test_capacitance_clamps_at_c_min():
    m = UnitCell(c_zero=1.2e-12, v_junction=2.0, exponent=1.0,
                      c_min=0.2e-12)
    assert varactor_capacitance(1000.0, m) == m.c_min


def test_capacitance_past_the_float_range_clamps_at_c_min():
    # (1 + 20/2)^1e6 is past the largest float: C(v) is below any floor
    m = UnitCell(exponent=1e6)
    assert varactor_capacitance(0.0, m) == m.c_zero
    assert varactor_capacitance(20.0, m) == m.c_min


def test_capacitance_rejects_negative_bias():
    with pytest.raises(ValueError):
        varactor_capacitance(-0.1, UnitCell())


@given(st.floats(min_value=0.0, max_value=50.0),
       st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=50, deadline=None)
def test_capacitance_non_increasing(v1, v2):
    m = UnitCell()
    lo, hi = sorted((v1, v2))
    assert varactor_capacitance(hi, m) <= varactor_capacitance(lo, m)


def test_capacitance_strictly_decreasing_before_clamp():
    m = UnitCell()
    # clamp voltage: c_zero/(1+v/vj) = c_min  ->  v = vj (c_zero/c_min - 1)
    v_clamp = m.v_junction * (m.c_zero / m.c_min - 1.0)
    grid = np.linspace(0.0, 0.99 * v_clamp, 40)
    caps = [varactor_capacitance(v, m) for v in grid]
    assert all(a > b for a, b in zip(caps, caps[1:]))


# --- load impedance ----------------------------------------------------------

def test_load_impedance_term_by_term_oracle():
    # independent evaluation of the parallel combination
    c, f = 1e-12, 4e9
    cell = UnitCell(r_series=1.0, l_top=2e-9, l_bottom=0.5e-9, frequency=f)
    w = 2 * math.pi * f
    z_ser = 1j * w * 2e-9 + 1 / (1j * w * c) + 1.0
    z_sh = 1j * w * 0.5e-9
    expect = z_sh * z_ser / (z_sh + z_ser)
    got = load_impedance(c, cell)
    assert got == pytest.approx(expect, rel=1e-12)


def test_load_impedance_lossless_is_purely_reactive():
    z = load_impedance(1e-12, UnitCell(r_series=0.0))
    assert abs(z.real) <= 1e-9 * abs(z)


def test_load_impedance_branch_resonance_raises():
    cell = UnitCell(r_series=0.0, l_top=0.5e-9, l_bottom=5e-9, frequency=4e9)
    w = 2 * math.pi * cell.frequency
    # series + shunt reactances cancel: 1/(w c) = w (L1 + L2)
    c = 1.0 / (w * w * (cell.l_top + cell.l_bottom))
    with pytest.raises(SingularityError):
        load_impedance(c, cell)


@pytest.mark.parametrize("settings, opens", [
    (dict(l_top=1e300), "l_top 1e+300: "),
    (dict(l_bottom=1e300), "l_bottom 1e+300: "),
    # finite terms whose product leaves the float range
    (dict(r_series=1e307), "r_series 1e+307: "),
    (dict(l_top=1e297), "l_top 1e+297: "),
    # the frequency scales both reactances; it is the setting furthest out
    (dict(frequency=1e300), "frequency 1e+300 Hz: "),
    (dict(l_bottom=1e-3, frequency=1e300), "frequency 1e+300 Hz: "),
    # a denominator whose magnitude alone passes the float range
    (dict(r_series=1.5e308, l_top=7e297), "l_top 7e+297: "),
], ids=["l_top", "l_bottom", "r_series", "l_top-product", "frequency",
        "frequency-and-l_bottom", "magnitude"])
def test_load_impedance_overflow_names_the_setting(settings, opens):
    # the error opens with the setting that took the load out of the float
    # range, so that a config file's error names that setting's line
    with pytest.raises(ValueError) as exc:
        load_impedance(1.2e-12, UnitCell(**settings))
    assert str(exc.value).startswith(opens)
    assert str(exc.value).endswith("overflows")


def test_load_impedance_rejects_bad_domain():
    with pytest.raises(ValueError):
        load_impedance(0.0, UnitCell())
    # the frequency is the cell's, checked once when the cell is built
    with pytest.raises(ValueError):
        UnitCell(frequency=0.0)


# --- unit cell settings -------------------------------------------------------

@pytest.mark.parametrize("key", [f.name for f in fields(UnitCell)])
def test_unit_cell_rejects_a_setting_that_is_no_finite_real(key):
    # each message opens with the setting, so a config file's error names
    # its line; a bool used to build as 0 or 1 and a string failed in
    # a comparison without naming the setting
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            UnitCell(**{key: bad})
    for bad in ("1", None, 1j, True):
        with pytest.raises(TypeError, match=f"^{key} must be a real number"):
            UnitCell(**{key: bad})
    # numpy scalars are real numbers
    assert UnitCell(**{key: np.float64(getattr(UnitCell(), key))}) == UnitCell()


# --- reflection coefficient and phase ---------------------------------------

def test_reflection_matched_load_is_zero():
    assert reflection_coefficient(376.73, 376.73) == 0


def test_reflection_short_circuit_is_minus_one():
    assert reflection_coefficient(0.0, 376.73) == pytest.approx(-1.0)


def test_reflection_reactive_load_is_unit_magnitude():
    g = reflection_coefficient(1j * 376.73, 376.73)
    assert g == pytest.approx(1j)


def test_reflection_negative_match_raises():
    with pytest.raises(SingularityError):
        reflection_coefficient(-376.73 + 0j, 376.73)


def test_reflection_phase_trivial_angles():
    assert _reflection_phase(1.0) == 0.0
    assert _reflection_phase(1j) == 90.0
    assert _reflection_phase(-1 - 1j) == pytest.approx(225.0)


def test_reflection_phase_of_zero_raises():
    with pytest.raises(ValueError):
        _reflection_phase(0.0)


@given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0,
                          allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_reflection_phase_range_and_conjugate(g):
    ph = _reflection_phase(g)
    assert 0.0 <= ph < 360.0
    if g.imag != 0.0:
        wrap = (_reflection_phase(g.conjugate()) + ph) % 360.0
        assert min(wrap, 360.0 - wrap) < 1e-6


# --- LUT construction --------------------------------------------------------

def test_single_voltage_lut_is_consistent():
    lut = build_gamma_lut(UnitCell(frequency=4e9))
    k = 50
    v, g = lut.voltages[k], lut.gammas[k]
    assert v == 5.0
    assert lut.magnitudes[k] == pytest.approx(abs(g))
    assert lut.phases_deg[k] == pytest.approx(_reflection_phase(g))


def test_lut_terminates_the_cell_against_free_space():
    # the air impedance is a constant of the model, not a cell parameter
    with pytest.raises(TypeError):
        UnitCell(z_air=370.0)
    cell = UnitCell(frequency=4e9)
    z = load_impedance(varactor_capacitance(5.0, cell), cell)
    lut = build_gamma_lut(cell)
    assert lut.voltages[50] == 5.0
    # the table is rotated so its 0 V entry sits at phase 0
    z0 = load_impedance(varactor_capacitance(0.0, cell), cell)
    rotation = np.exp(-1j * np.angle(reflection_coefficient(z0, Z_AIR)))
    assert lut.gammas[50] == pytest.approx(
        reflection_coefficient(z, Z_AIR) * rotation)


def test_default_lut_phase_span_at_least_255():
    assert default_gamma_lut().phase_span_deg() >= 255.0


def test_default_lut_phase_monotone_then_flat():
    lut = default_gamma_lut()
    unwrapped = np.degrees(np.unwrap(np.angle(lut.gammas)))
    steps = np.diff(unwrapped)
    # one-signed travel everywhere, saturating: the last volt of the grid
    # contributes almost nothing compared to the first
    assert np.all(steps <= 1e-9) or np.all(steps >= -1e-9)
    early = abs(unwrapped[10] - unwrapped[0])
    late = abs(unwrapped[-1] - unwrapped[-11])
    assert late < 0.05 * early


def test_lut_determinism():
    a = default_gamma_lut()
    b = default_gamma_lut()
    assert np.array_equal(a.voltages, b.voltages)
    assert np.array_equal(a.gammas, b.gammas)


def test_default_lut_is_built_once_and_read_only():
    lut = default_gamma_lut()
    assert default_gamma_lut() is lut
    assert lut.phases_deg is lut.phases_deg
    for a in (lut.voltages, lut.gammas, lut.phases_deg):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_lut_leaves_the_callers_arrays_writeable():
    g = np.exp(1j * np.radians(45.0 + 1.5 * np.arange(GammaLUT.voltages.size)))
    lut = GammaLUT(g)
    phases = lut.phases_deg.copy()
    g[0] = 1.0
    # the table keeps its own copy, so its cached phases stay true
    assert lut.gammas[0] == np.exp(1j * np.radians(45.0))
    np.testing.assert_array_equal(lut.phases_deg, phases)


def test_lut_passivity_over_resistance_grid():
    for r in (0.0, 1.0, 6.0, 12.0, 50.0):
        lut = build_gamma_lut(UnitCell(r_series=r))
        assert np.all(lut.magnitudes <= 1.0 + 1e-12)


def test_lut_losslessness_with_zero_resistance():
    lut = build_gamma_lut(UnitCell(r_series=0.0))
    assert np.all(np.abs(lut.magnitudes - 1.0) <= 1e-9)


def test_lut_csv_columns_are_plain_numbers(tmp_path):
    lut = default_gamma_lut()
    path = tmp_path / "gamma.csv"
    lut.to_csv(path)
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in path.read_text().splitlines()[1:]])
    np.testing.assert_array_equal(rows[:, 0], lut.voltages)
    np.testing.assert_array_equal(rows[:, 1] + 1j * rows[:, 2], lut.gammas)
    # scalar abs() and vectorized np.abs may differ in the last bit
    np.testing.assert_allclose(rows[:, 3], lut.magnitudes, rtol=1e-15)
    np.testing.assert_array_equal(rows[:, 4], lut.phases_deg)
    # voltages and gammas round-trip exactly through their repr
    back = np.array([complex(re, im) for re, im in rows[:, 1:3]])
    assert rows[:, 0].tobytes() == lut.voltages.tobytes()
    assert back.tobytes() == lut.gammas.tobytes()


def test_lut_holds_one_gamma_per_voltage_of_a_read_only_grid():
    n = GammaLUT.voltages.size
    for size in (0, 4, n - 1, n + 1):
        with pytest.raises(ValueError, match="^gammas must hold one value"):
            GammaLUT(np.ones(size, dtype=complex))
    with pytest.raises(ValueError, match="^gammas must hold one value"):
        GammaLUT(np.ones((1, n), dtype=complex))
    # one grid, shared by every table and writeable by none
    assert GammaLUT(np.ones(n)).voltages is GammaLUT.voltages
    assert GammaLUT.voltages.tolist() == [k / 10 for k in range(n)]
    with pytest.raises(ValueError, match="read-only"):
        GammaLUT.voltages[0] = 1.0


# --- voltage selection -------------------------------------------------------

def test_select_exact_lut_phases():
    lut = default_gamma_lut()
    targets = [lut.phases_deg[i] for i in (5, 40, 70, 100)]
    volts, gammas = select_control_voltages(lut, targets)
    assert list(volts) == [lut.voltages[i] for i in (5, 40, 70, 100)]
    assert list(gammas) == [lut.gammas[i] for i in (5, 40, 70, 100)]


def test_select_default_targets_within_grid_resolution():
    lut = default_gamma_lut()
    volts, gammas = select_control_voltages(lut, DEFAULT_TARGET_PHASES)
    phases = lut.phases_deg
    grid_res = np.max(np.abs(np.diff(np.unwrap(np.radians(phases)))))
    for t, g in zip(DEFAULT_TARGET_PHASES, gammas):
        err = abs((_reflection_phase(g) - t + 180.0) % 360.0 - 180.0)
        # exhaustive check: no LUT entry is closer
        best = np.min(np.abs((phases - t + 180.0) % 360.0 - 180.0))
        assert err == pytest.approx(best)
        assert err <= math.degrees(grid_res)


def test_select_full_square_targets_infeasible():
    lut = default_gamma_lut()  # span ~263 deg < the 270 deg spread
    with pytest.raises(InfeasibleError):
        select_control_voltages(lut, (0.0, 90.0, 180.0, 270.0))


def test_select_targets_spread_past_float64_are_infeasible():
    # finite targets whose spread overflows float64: infeasible, with no
    # numpy overflow warning (a RuntimeWarning fails the test)
    lut = default_gamma_lut()
    for targets in ((0.0, 0.0, -1.7976931348623157e308, 9.9792015476736e291),
                    (0.0, 0.0, -1e308, 1e308)):
        with pytest.raises(InfeasibleError, match="exceeds LUT span"):
            select_control_voltages(lut, targets)
