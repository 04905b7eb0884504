"""errors.check_count, the one rule for a count, a seed or an sps, and
errors.check_out, the one rule for an `out=` array."""

import numpy as np
import pytest

from mslink.errors import check_count, check_out


@pytest.mark.parametrize("value", [0, 7, 2 ** 70, np.int64(3), np.int32(0),
                                   np.uint8(255)])
def test_an_integer_at_or_above_the_floor_passes(value):
    check_count("n", value, 0)


@pytest.mark.parametrize("value, message", [
    (1.5, "n must be an integer, got 1.5"),
    (2.0, "n must be an integer, got 2.0"),
    # a bool is an int to Python, but never a count
    (True, "n must be an integer, got True"),
    (np.True_, "n must be an integer, got np.True_"),
    ("3", "n must be an integer, got '3'"),
    (None, "n must be an integer, got None"),
    (-1, "n must be >= 0, got -1"),
    (np.int64(-2), "n must be >= 0, got -2"),
])
def test_anything_else_is_rejected_naming_the_key_first(value, message):
    with pytest.raises(ValueError) as exc:
        check_count("n", value, 0)
    assert str(exc.value) == message


def test_both_bounds_are_inclusive():
    for value in (1, 5, np.int16(3)):
        check_count("n", value, 1, 5)
    for value in (0, 6, np.uint64(6)):
        with pytest.raises(ValueError) as exc:
            check_count("n", value, 1, 5)
        assert str(exc.value) == f"n must be in 1..5, got {value}"
    with pytest.raises(ValueError, match="^n must be an integer"):
        check_count("n", 3.0, 1, 5)


def test_check_out_allocates_when_out_is_none():
    got = check_out(None, (3, 2), np.intp)
    assert got.shape == (3, 2) and got.dtype == np.intp
    assert got.flags.c_contiguous


@pytest.mark.parametrize("shape, dtype", [((5,), complex), ((2, 3), np.intp)])
def test_check_out_returns_a_matching_out_itself(shape, dtype):
    out = np.empty(shape, dtype=dtype)
    assert check_out(out, shape, dtype) is out


@pytest.mark.parametrize("out, got", [
    (np.empty(4, dtype=complex), "shape (4,) of complex128"),
    (np.empty(6, dtype=complex), "shape (6,) of complex128"),
    (np.empty((5, 1), dtype=complex), "shape (5, 1) of complex128"),
    (np.empty(5, dtype=np.complex64), "shape (5,) of complex64"),
    (np.empty(5), "shape (5,) of float64"),
    # the right shape and dtype, but not one block of memory
    (np.empty(10, dtype=complex)[::2], "shape (5,) of complex128, strided"),
    (np.empty(5, dtype=complex)[::-1], "shape (5,) of complex128, strided"),
], ids=["short", "long", "2-d", "complex64", "float64", "strided",
        "reversed"])
def test_check_out_rejects_any_other_array_naming_what_it_wants(out, got):
    with pytest.raises(ValueError) as exc:
        check_out(out, (5,), complex)
    assert str(exc.value) == ("out must hold 5 complex128 in a contiguous "
                              f"array of shape (5,), got {got}")
