"""The two scalar rules every caller-supplied number goes through."""

import math

import numpy as np
import pytest

from qellip import InvalidParameterError
from qellip.errors import finite, integer


class TestInteger:
    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_whole_numbers_accepted(self, value):
        out = integer("n", value)
        assert out == 3 and type(out) is int

    def test_beyond_the_float_range(self):
        assert integer("n", 10 ** 400) == 10 ** 400

    @pytest.mark.parametrize("value", [1.5, -0.5, math.nan, math.inf, "3", None, [3]])
    def test_others_refused(self, value):
        with pytest.raises(InvalidParameterError) as exc:
            integer("n", value)
        assert str(exc.value) == f"n must be an integer, got {value!r}"


class TestFinite:
    @pytest.mark.parametrize("value", [0.0, -2.5, 3, complex(1.0, -2.0)])
    def test_finite_value_returned_as_passed(self, value):
        assert finite("x", value) is value

    @pytest.mark.parametrize("value, shown", [(math.nan, "nan"), (-math.inf, "-inf"),
                                              (complex(math.nan, 0.0), "(nan+0j)"),
                                              (complex(1.0, math.inf), "(1+infj)")])
    def test_non_finite_refused_as_passed(self, value, shown):
        with pytest.raises(InvalidParameterError) as exc:
            finite("x", value)
        assert str(exc.value) == f"x must be finite, got {shown}"
