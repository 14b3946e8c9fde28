"""Property tests over random parameter pairs that genericity_check
admits, multiplicatively dependent ones included."""

import math

import pytest

from rsqg import (SampledField, build_wedge_module, genericity_check,
                  tensor_power_rep, verify_fundamental, weight_spaces)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

_small = st.fractions(min_value=-6, max_value=6, max_denominator=6)
_admissible = st.tuples(_small, _small).filter(
    lambda p: not genericity_check(*p))


@hypothesis.settings(max_examples=25, deadline=None, database=None)
@hypothesis.given(_admissible, st.integers(2, 3), st.integers(1, 3))
def test_weights_at_admissible_pairs(pair, n, k):
    field = SampledField(*pair)
    spaces = weight_spaces(tensor_power_rep(n, k, field))
    assert len(spaces) == math.comb(n + k - 1, k)
    for w, sp in spaces.items():
        assert sp.dim == math.factorial(k) // math.prod(
            math.factorial(c) for c in w.coords)
    if k <= n:
        assert verify_fundamental(build_wedge_module(n, k, field)).ok
