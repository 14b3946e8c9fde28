import random
from fractions import Fraction

import pytest

from rsqg import (BiPoly, DenominatorVanishes, DivisionByZero, GenericityError,
                  RatFunc, SampledField, SymbolicField, genericity_check,
                  scalars, specialize_jimbo)

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


@pytest.mark.parametrize("f, g, want", [
    # f a monomial, g a polynomial: the least exponents over both
    ({(2, 1): 3}, {(3, 0): 1, (1, 4): -2, (2, 2): 5}, {(1, 0): 1}),
    ({(0, 3): -1}, {(1, 2): 1, (4, 5): 7}, {(0, 2): 1}),
    # g a monomial, f a polynomial
    ({(3, 2): 1, (2, 5): 4}, {(2, 3): 2}, {(2, 2): 1}),
    ({(1, 1): 1, (0, 0): 1}, {(5, 5): 1}, {(0, 0): 1}),
    # both monomials
    ({(4, 1): 2}, {(2, 3): Fraction(1, 3)}, {(2, 1): 1}),
    ({(1, 2): 1}, {(1, 2): -5}, {(1, 2): 1}),
])
def test_b_gcd_with_a_monomial(f, g, want):
    assert scalars._b_gcd(f, g) == want
    assert scalars._b_gcd(g, f) == want


def _monic(terms):
    lc = Fraction(terms[scalars._leading(terms)])
    return {m: c / lc for m, c in terms.items()}


def _no_remainder_sequence(monkeypatch):
    def fail(f, g):
        raise AssertionError("the remainder sequence ran")
    monkeypatch.setattr(scalars, "_zs_prem", fail)


def test_b_gcd_where_the_common_factor_is_constant_at_s_1_and_r_1():
    # h(r, 1) = h(1, s) = 1, but the leading coefficients s - 1 and r - 1
    # of h vanish there, so a certificate must skip those points
    h = R * S - R - S + BiPoly.const(2)
    assert h.evaluate(Fraction(7), 1) == h.evaluate(1, Fraction(7)) == 1
    f = h * (R + S + S + BiPoly.const(3))
    g = h * (R + R + S + BiPoly.const(5))
    assert _monic(scalars._b_gcd(f.terms, g.terms)) == _monic(h.terms)
    assert _monic(scalars._b_gcd(g.terms, f.terms)) == _monic(h.terms)
    assert RatFunc(f, g) == RatFunc(R + S + S + BiPoly.const(3),
                                    R + R + S + BiPoly.const(5))


def test_b_gcd_of_a_pair_sharing_only_a_monomial(monkeypatch):
    # r^2 s (r + s + 1) and r s^3 (r - 2s + 3): the certificate proves the
    # cofactors coprime, so the remainder sequence never runs
    _no_remainder_sequence(monkeypatch)
    f = R * R * S * (R + S + ONE)
    g = R * S**3 * (R - S - S + BiPoly.const(3))
    assert scalars._b_gcd(f.terms, g.terms) == {(1, 1): 1}
    assert scalars._b_gcd(g.terms, f.terms) == {(1, 1): 1}


def test_b_gcd_certifies_past_an_unlucky_first_point(monkeypatch):
    # r^2 + s - 1 and r + s - 1 are coprime, but share r at s = 1 and s at
    # r = 1: the certificate needs its second point in each variable
    _no_remainder_sequence(monkeypatch)
    f = R * R + S - ONE
    g = R + S - ONE
    assert scalars._b_gcd(f.terms, g.terms) == {(0, 0): 1}


@pytest.mark.parametrize("f, g", [
    (R + ONE, R - ONE),  # a constant remainder is left
    (S, R),              # no multiple of r reaches s
])
def test_b_divexact_refuses_an_inexact_division(f, g):
    with pytest.raises(ArithmeticError, match="inexact"):
        scalars._b_divexact(f.terms, g.terms)
    assert scalars._b_divexact((f * g).terms, g.terms) == f.terms


def test_leading_monomial_is_the_graded_lex_maximum():
    rng_lm = random.Random(3)
    for _ in range(200):
        terms = {(rng_lm.randint(0, 4), rng_lm.randint(0, 4)): 1
                 for _ in range(rng_lm.randint(1, 6))}
        assert scalars._leading(terms) == max(terms, key=scalars._gl_key)


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


def assert_coefficient_types(f):
    """Every coefficient of a reduced RatFunc is an int or a non-integral
    Fraction: no float, and no Fraction with denominator 1."""
    for c in (*f.num.terms.values(), *f.den.terms.values()):
        integral_fraction = type(c) is Fraction and c.denominator == 1
        assert type(c) in (int, Fraction) and not integral_fraction, (
            f"{c!r} in {f}")


def random_q_bipoly(rng):
    # coefficients k/d with d in 1..3, so some are Fraction(k, 1)
    return BiPoly([((rng.randint(0, 2), rng.randint(0, 2)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                   for _ in range(3)])


def check_coefficient_types(rng, rounds=30):
    """Random RatFunc arithmetic over Q, each result checked as it is made
    (a float caught late would first break the next gcd)."""
    half = Fraction(1, 2)
    # p^2 has the integral coefficient 1/4 + 1/4 + 1/4 + 1/4 at r*s
    p = BiPoly({(1, 0): half, (0, 1): half, (1, 1): half, (0, 0): half})
    fixed = [lambda: RatFunc(BiPoly.term(1, 0, half)) * RatFunc(S + S),
             lambda: RatFunc(p, R + BiPoly.const(2))**2,
             lambda: RatFunc(R + S, p)**-2]
    for make in fixed:
        assert_coefficient_types(make())
    for _ in range(rounds):
        den = BiPoly.zero()
        while not den:
            den = random_q_bipoly(rng)
        a = RatFunc(random_q_bipoly(rng), den)
        assert_coefficient_types(a)
        b = random_ratfunc(rng)
        assert_coefficient_types(b)
        ops = [lambda: a + b, lambda: a - b, lambda: a * b, lambda: a**3,
               lambda: b * Fraction(2, 3), lambda: a + Fraction(1, 2)]
        if a:
            ops += [lambda: b / a, lambda: a**-2]
        for op in ops:
            assert_coefficient_types(op())


def test_ratfunc_coefficients_are_int_or_non_integral_fraction():
    check_coefficient_types(random.Random(7))
    f = RatFunc(BiPoly.term(1, 0, 3), BiPoly.term(0, 1, 2))
    assert f.num.terms == {(1, 0): Fraction(3, 2)}
    assert type(f.den.terms[(0, 1)]) is int
    assert BiPoly({(0, 0): Fraction(4, 2)}).terms == {(0, 0): 2}
    halves = BiPoly([((0, 0), Fraction(1, 2)), ((0, 0), Fraction(1, 2))])
    assert type(halves.terms[(0, 0)]) is int
    assert type(BiPoly.const(Fraction(4, 2)).terms[(0, 0)]) is int


def test_coefficient_type_check_catches_a_float_division(monkeypatch):
    # a float equals the Fraction it approximates, so only a type check
    # sees it: with / in place of exact division, values still compare equal
    monkeypatch.setattr(scalars, "_div", lambda a, b: a / b)
    assert RatFunc(ONE, S + S).num == BiPoly.const(Fraction(1, 2))
    with pytest.raises(AssertionError):
        check_coefficient_types(random.Random(7))


def test_evaluate_at_ints_returns_a_fraction():
    for f in (RatFunc(R, S), RatFunc(R + S), RatFunc(ONE)):
        assert type(f.evaluate(2, 3)) is Fraction
    assert RatFunc(R, S).evaluate(2, 3) == Fraction(2, 3)
    assert type(BiPoly.zero().evaluate(2, 3)) is Fraction


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

