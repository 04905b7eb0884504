"""errors.check_count, the one rule for a count, a seed or an sps."""

import numpy as np
import pytest

from mslink.errors import check_count


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
