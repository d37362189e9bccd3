"""The real-number and seed rules every config and record checks its fields by."""

import numpy as np
import pytest

from enfnet.errors import InvalidArgumentError, _real, _seed


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, np.float32(np.nan),
                                   np.float32(np.inf), "1.0", None, [1.0], 10**400],
                         ids=["nan", "inf", "-inf", "f32-nan", "f32-inf", "str", "None",
                              "list", "int-beyond-float64"])
def test_real_rejects_what_is_not_a_finite_real_number(value):
    with pytest.raises(InvalidArgumentError, match="rate_hz must be finite and > 0"):
        _real(value, "rate_hz", 0)
    with pytest.raises(InvalidArgumentError, match="offset must be a finite number, got"):
        _real(value, "offset", -np.inf)


@pytest.mark.parametrize("value", [np.float32(2.5), np.float64(2.5), 2.5, 3, np.int64(3)],
                         ids=["float32", "float64", "float", "int", "int64"])
def test_real_returns_an_accepted_value_unchanged(value):
    assert _real(value, "x", 0) is value
    assert _real(value, "x", -np.inf) is value


def test_real_bounds_are_open_unless_closed():
    with pytest.raises(InvalidArgumentError, match=r"x must be finite and > 0, got 0\.0"):
        _real(0.0, "x", 0)
    assert _real(0.0, "x", 0, closed=True) == 0.0
    with pytest.raises(InvalidArgumentError, match=r"x must be finite and >= 0, got -1e-300"):
        _real(-1e-300, "x", 0, closed=True)
    with pytest.raises(InvalidArgumentError, match=r"> 5\.0, got 5\.0"):
        _real(5.0, "x", 5.0)
    assert _real(np.nextafter(5.0, 6.0), "x", 5.0) > 5.0
    assert _real(-1e308, "x", -np.inf) == -1e308


@pytest.mark.parametrize("value", [-1, 1.5, 3.0, "3", None, [], (), [1, -1], [1, 2.0], [[1]],
                                   np.array([1, 2])],
                         ids=["negative", "fraction", "float", "str", "None", "empty-list",
                              "empty-tuple", "negative-in-list", "float-in-list", "nested",
                              "array"])
def test_seed_rejects_what_numpy_would_not_seed_from_or_would_truncate(value):
    with pytest.raises(InvalidArgumentError, match="seed must be >= 0 and an integer"):
        _seed(value)


def test_seed_returns_ints_and_lists_of_them():
    assert _seed(0) == 0 and type(_seed(np.int64(3))) is int
    assert _seed((1, np.uint32(2))) == [1, 2] and type(_seed((1, 2))) is list
    # each form seeds numpy's generator as the value it was given
    for value in (np.int64(3), (1, 2), [7, 0x5EED]):
        assert (np.random.default_rng(_seed(value)).random()
                == np.random.default_rng(value).random())
