"""Summary quartiles: the pure-Python form against ``np.percentile``."""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from biobj.report import quartiles

# Negative zero is left out of lists longer than one: among equal values
# np.percentile takes the order its partition leaves, which a sort need not
# match, so a list holding both 0.0 and -0.0 may give either sign.
any_finite = st.floats(allow_nan=False, allow_infinity=False)
finite = any_finite.map(lambda v: v + 0.0)
value_lists = st.one_of(
    st.lists(any_finite, min_size=1, max_size=1),
    st.lists(finite, min_size=1, max_size=200),
    # ties and duplicates: many draws from a pool of a few values
    st.lists(
        st.one_of(st.just(0.0), finite), min_size=1, max_size=5
    ).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=200)),
    st.lists(st.sampled_from((0.0, 0.25, 1.0)), min_size=1, max_size=200),
)


def bits(values):
    return struct.pack(f"<{len(values)}d", *values)


@settings(max_examples=400, deadline=None)
@given(value_lists)
def test_quartiles_match_numpy_bitwise(values):
    with np.errstate(over="ignore", invalid="ignore"):  # b - a may overflow
        expected = np.percentile(values, [25, 50, 75])
    assert bits(quartiles(values)) == bits(expected)


def test_single_value_kept_as_it_is():
    # For one value numpy's lerp is b - (b - a) * 0 with a = b, which keeps
    # the sign of -0.0; a + (b - a) * 0 would turn it into +0.0.
    for value in (-0.0, 0.0, 0.5):
        assert bits(np.percentile([value], [25, 50, 75])) == bits([value] * 3)
        assert bits(quartiles([value])) == bits([value] * 3)
