import random
from fractions import Fraction

import pytest

from rsqg import (BiPoly, DenominatorVanishes, DivisionByZero, GenericityError,
                  RatFunc, SampledField, SymbolicField, genericity_check,
                  specialize_jimbo)

from helpers import random_bipoly, random_ratfunc

rng = random.Random(20240817)

R = BiPoly.term(1, 0)
S = BiPoly.term(0, 1)
ONE = BiPoly.one()


def test_bipoly_arithmetic_matches_evaluation():
    for _ in range(60):
        p = random_bipoly(rng)
        q = random_bipoly(rng)
        r0 = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        s0 = Fraction(rng.randint(1, 5))
        assert (p + q).evaluate(r0, s0) == p.evaluate(r0, s0) + q.evaluate(r0, s0)
        assert (p - q).evaluate(r0, s0) == p.evaluate(r0, s0) - q.evaluate(r0, s0)
        assert (p * q).evaluate(r0, s0) == p.evaluate(r0, s0) * q.evaluate(r0, s0)
        assert (-p).evaluate(r0, s0) == -p.evaluate(r0, s0)


def test_bipoly_zero_terms_are_stripped():
    p = BiPoly({(1, 0): 1, (0, 1): 0})
    assert p.terms == {(1, 0): Fraction(1)}
    assert BiPoly.const(0).terms == {}
    assert not BiPoly.zero()
    assert (p - p).terms == {}


def test_bipoly_rejects_negative_exponents():
    with pytest.raises(ValueError):
        BiPoly({(-1, 0): 1})


def test_bipoly_power():
    p = R + S
    assert p**2 == R * R + BiPoly.term(1, 1, 2) + S * S
    assert p**0 == ONE
    with pytest.raises(ValueError):
        p**-1


def test_bipoly_str_graded_lex():
    assert str(R * S - ONE) == "r*s - 1"
    assert str(BiPoly.term(2, 0) + BiPoly.term(0, 1, -3)) == "r^2 - 3*s"
    assert str(BiPoly.zero()) == "0"
    assert str(-R + S) == "-r + s"


def test_ratfunc_reduces_to_canonical_form():
    # (r^2 - s^2)/(r - s) = r + s
    f = RatFunc(R * R - S * S, R - S)
    assert f == RatFunc(R + S)
    assert f.den == ONE
    # denominator is made monic
    g = RatFunc(ONE, S + S)
    assert g.den == S
    assert g.num == BiPoly.const(Fraction(1, 2))


def test_ratfunc_gcd_only_an_s_content():
    # (s + 1)(r + s) / ((s + 1)(r - 2s)): the gcd lives in Z[s] alone
    f = RatFunc((S + ONE) * (R + S), (S + ONE) * (R - S - S))
    assert f.num == R + S
    assert f.den == R - S - S


def test_ratfunc_gcd_only_an_integer_content():
    # 6(r + s) / (4(r - 2s)): coprime over Q, so only the scale changes
    f = RatFunc(BiPoly.const(6) * (R + S), BiPoly.const(4) * (R - S - S))
    assert f.num == BiPoly.const(Fraction(3, 2)) * (R + S)
    assert f.den == R - S - S


def test_ratfunc_gcd_monomial():
    # r^2 s (r + s) / (r s^3 (r - s)) = r (r + s) / (s^2 (r - s))
    f = RatFunc(R * R * S * (R + S), R * S**3 * (R - S))
    assert f.num == R * (R + S)
    assert f.den == S * S * (R - S)


def test_ratfunc_coprime_large_coefficients():
    big = 10**30 + 7
    num = BiPoly.term(1, 0, big) + BiPoly.term(0, 1, -3**40)
    den = BiPoly.term(1, 1, 2**70) + BiPoly.const(Fraction(5, 3**25))
    f = RatFunc(num, den)
    lc = Fraction(2**70)
    assert f.num.terms == {m: c / lc for m, c in num.terms.items()}
    assert f.den.terms == {m: c / lc for m, c in den.terms.items()}
    # the same pair times a common factor with large coefficients
    common = BiPoly.term(2, 0, 3**50) - BiPoly.term(0, 1, 2**60) + ONE
    assert RatFunc(num * common, den * common) == f


def test_ratfunc_reduces_an_s_free_common_factor():
    def r_poly(coeffs):
        return BiPoly({(d, 0): c for d, c in coeffs.items()})

    rm1 = R - ONE
    # (r^2 - 1)(2r + 3) / ((r - 1)(r + 5)/3) = 3(r + 1)(2r + 3) / (r + 5)
    num = r_poly({3: 2, 2: 3, 1: -2, 0: -3})
    den = r_poly({2: Fraction(1, 3), 1: Fraction(4, 3), 0: Fraction(-5, 3)})
    f = RatFunc(num, den)
    assert f.num == r_poly({2: 6, 1: 15, 0: 9})
    assert f.den == r_poly({1: 1, 0: 5})
    # an integer content alone and a power of r
    g = RatFunc(r_poly({2: 6, 1: 6}), r_poly({3: 4, 2: -4}))
    assert g.num == r_poly({1: Fraction(3, 2), 0: Fraction(3, 2)})
    assert g.den == r_poly({2: 1, 1: -1})
    assert RatFunc(rm1, rm1) == RatFunc(ONE)
    assert RatFunc(R, BiPoly.term(2, 0, 7)) == RatFunc(ONE, BiPoly.term(1, 0, 7))


def test_ratfunc_field_axioms_by_evaluation():
    for _ in range(40):
        a = random_ratfunc(rng)
        b = random_ratfunc(rng)
        c = random_ratfunc(rng)
        r0, s0 = Fraction(5), Fraction(7, 2)
        try:
            lhs = ((a + b) * c).evaluate(r0, s0)
            rhs = (a * c + b * c).evaluate(r0, s0)
        except DenominatorVanishes:
            continue
        assert lhs == rhs
        assert (a + b) * c == a * c + b * c


def test_ratfunc_division_and_powers():
    r = RatFunc(R)
    s = RatFunc(S)
    assert r / s * s == r
    assert (r / s)**-2 == (s / r)**2
    assert r**0 == RatFunc(ONE)
    with pytest.raises(DivisionByZero):
        r / RatFunc(BiPoly.zero())
    with pytest.raises(DivisionByZero):
        RatFunc(BiPoly.zero())**-1
    with pytest.raises(DivisionByZero):
        RatFunc(ONE, BiPoly.zero())


def test_ratfunc_equality_is_structural():
    f = RatFunc(R * S - ONE, S)
    g = RatFunc((R * S - ONE) * (R + S), S * (R + S))
    assert f == g
    assert hash(f) == hash(g)


def test_ratfunc_str():
    f = RatFunc(R * S - ONE, S)
    assert str(f) == "(r*s - 1)/(s)"
    assert str(RatFunc(R)) == "r"
    assert str(RatFunc(BiPoly.zero())) == "0"


def test_evaluate_and_denominator_vanishes():
    f = RatFunc(ONE, R - S)
    assert f.evaluate(Fraction(2), Fraction(3)) == Fraction(-1)
    with pytest.raises(DenominatorVanishes):
        f.evaluate(Fraction(2), Fraction(2))


def test_specialize_jimbo_basic_images():
    sym = SymbolicField()
    q = sym.r  # the image Q(q) is written in r
    assert specialize_jimbo(sym.r) == q
    assert specialize_jimbo(sym.s) == q**-1
    assert specialize_jimbo(sym.s**-1) == q
    assert specialize_jimbo(sym.r + sym.s) == (q * q + 1) / q
    assert specialize_jimbo(sym.r * sym.s - sym.one) == sym.zero
    assert (specialize_jimbo(sym.from_fraction(Fraction(3, 4)))
            == sym.from_fraction(Fraction(3, 4)))


def test_specialize_jimbo_is_multiplicative():
    for _ in range(30):
        a = random_ratfunc(rng)
        b = random_ratfunc(rng)
        try:
            ja = specialize_jimbo(a)
            jb = specialize_jimbo(b)
            jab = specialize_jimbo(a * b)
        except DenominatorVanishes:
            continue
        assert jab == ja * jb
        assert specialize_jimbo(a + b) == ja + jb
        assert all(b == 0 for p in (ja.num, ja.den) for _, b in p.terms)


def test_specialize_jimbo_vanishing_denominator():
    sym = SymbolicField()
    with pytest.raises(DenominatorVanishes):
        specialize_jimbo(sym.one / (sym.r * sym.s - sym.one))


def test_genericity_check():
    assert genericity_check(2, 3) == []
    assert genericity_check(0, 3) == ["r = 0"]
    assert genericity_check(2, 0) == ["s = 0"]
    assert genericity_check(2, 2) == ["r = s"]
    assert genericity_check(2, -2) == ["s = -r"]
    assert genericity_check(0, 0) == ["r = 0", "s = 0"]


def test_sampled_field_rejects_degenerate_parameters():
    with pytest.raises(GenericityError) as err:
        SampledField(2, 2)
    assert "r = s violates genericity" in str(err.value)
    with pytest.raises(GenericityError):
        SampledField(0, 1)
    with pytest.raises(GenericityError):
        SampledField(3, -3)


def test_field_interfaces_agree():
    sym = SymbolicField()
    smp = SampledField(2, 3)
    assert sym.rs_power(2, -1) == sym.r**2 / sym.s
    assert smp.rs_power(2, -1) == Fraction(4, 3)
    assert sym.from_fraction(5) == RatFunc(BiPoly.const(5))
    assert smp.from_fraction(5) == Fraction(5)

