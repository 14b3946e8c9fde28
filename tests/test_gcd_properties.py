"""Property tests of the bivariate gcd without an oracle: for random integer
polynomials f, g, h, the gcd of f*h and g*h divides both exactly, and h
divides it exactly (_b_divexact raises on an inexact division).  Some
common factors h are built to fool a gcd certificate that specializes at
points where a leading coefficient vanishes."""

import pytest

from rsqg import BiPoly, scalars

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# small coefficients make leading coefficients vanish at s = 1 or r = 1
_poly = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                        st.integers(-3, 3).filter(bool),
                        min_size=1, max_size=5).map(BiPoly)
# (r - a)(s - b) + c is the constant c at s = b and at r = a, where its
# leading coefficients vanish
_R, _S = BiPoly.term(1, 0), BiPoly.term(0, 1)
_constant_at_integer_points = st.builds(
    lambda a, b, c: (_R - BiPoly.const(a)) * (_S - BiPoly.const(b))
    + BiPoly.const(c),
    st.integers(1, 3), st.integers(1, 3), st.integers(-3, 3).filter(bool))


@hypothesis.settings(max_examples=25, deadline=None, database=None)
@hypothesis.given(_poly, _poly, _poly | _constant_at_integer_points)
def test_gcd_divides_both_and_the_common_factor_divides_it(f, g, h):
    fh, gh = (f * h).terms, (g * h).terms
    d = scalars._b_gcd(fh, gh)
    scalars._b_divexact(fh, d)
    scalars._b_divexact(gh, d)
    scalars._b_divexact(d, h.terms)
