"""The two scalar rules every caller-supplied number goes through, and
the records that check their fields on every construction path."""

import copy
import math
import pickle

import numpy as np
import pytest

from qellip import (DimensionMismatchError, InvalidParameterError, Layer, LayerStack,
                    PhaseWaveFunction, TwoModeFockState)
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


#: each checked record, a valid instance, and a field change it refuses
CHECKED = {
    "PhaseWaveFunction": (lambda: PhaseWaveFunction(2, np.array([0.6 + 0j, 0.8j])),
                          {"l_min": 1.5}, InvalidParameterError),
    "TwoModeFockState": (lambda: TwoModeFockState(np.eye(2), np.ones(2), np.eye(2), 0.0),
                         {"c": np.ones(3)}, DimensionMismatchError),
    "LayerStack": (lambda: LayerStack(1.0, (Layer(1.46 + 0j, 100.0),), 3.85 + 0.02j,
                                      632.8, 1.2),
                   {"wavelength": -1.0, "angle_of_incidence": 2.0}, InvalidParameterError),
}


class TestCheckedRecords:
    @pytest.mark.parametrize("name", CHECKED)
    def test_replace_and_make_run_the_checks(self, name):
        # _replace and _make once built these records past their checks:
        # a LayerStack at wavelength -1 and angle 2 reflected |r_p| = 8.3
        make, bad, error = CHECKED[name]
        record = make()
        with pytest.raises(error):
            record._replace(**bad)
        with pytest.raises(error):
            type(record)._make((record._asdict() | bad).values())

    @pytest.mark.parametrize("name", CHECKED)
    def test_copies_keep_fields_and_type(self, name):
        record = CHECKED[name][0]()
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                     type(record)._make(record), record._replace()):
            assert type(twin) is type(record)
            assert list(twin._asdict()) == list(record._asdict()) == list(record._fields)
            for a, b in zip(twin, record):
                assert np.array_equal(a, b)
