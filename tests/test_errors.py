"""The shared config value checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from execbench.errors import ConfigError, check_fraction, check_int

candidates = st.one_of(
    st.integers(-3, 3),
    st.floats(),
    st.floats(0, 1),
    st.floats().map(np.float64),
    st.floats(0, 1, width=32).map(np.float32),
    st.integers(-2, 2).map(np.int64),
    st.text(max_size=4),
    st.floats(0, 1).map(str),
    st.none(),
    st.booleans(),
)


@given(candidates)
def test_check_fraction_accepts_exactly_the_real_numbers_in_the_unit_interval(value):
    if not isinstance(value, (str, type(None), bool)) and 0.0 <= float(value) <= 1.0:
        check_fraction("share", value)
    else:
        with pytest.raises(ConfigError, match="^share must"):
            check_fraction("share", value)


@given(candidates)
def test_check_int_accepts_exactly_the_integers_and_no_bool(value):
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        check_int("count", value)
    else:
        with pytest.raises(ConfigError, match="^count must be an integer"):
            check_int("count", value)
