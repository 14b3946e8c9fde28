"""The canonical form of Q(r, s) against an independent oracle: sympy's
`cancel`, normalized to a denominator monic in graded lex order (total
degree first, then the r-degree), must give exactly the terms of RatFunc.

The inputs share factors of every kind the gcd has to find: a content in
s alone, an integer content, and a common bivariate factor, all with
rational coefficients.  Inputs in r alone (the image of the one-parameter
specialization) and in s alone share a linear factor and a random one.

Other inputs reach the gcd's certificate by specialization: coprime pairs,
pairs that share only a monomial, and pairs sharing h = rs - r - s + 2,
which is 1 at s = 1 and at r = 1, where its leading coefficients vanish.
"""

import random
from fractions import Fraction

import pytest

import rsqg.scalars as scalars
from rsqg import BiPoly, RatFunc

sympy = pytest.importorskip("sympy")

R, S = sympy.symbols("r s")


def _random_poly(rng, rdeg=2, sdeg=2, terms=3):
    out = BiPoly.zero()
    while not out:
        for _ in range(terms):
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            out = out + BiPoly.term(rng.randint(0, rdeg), rng.randint(0, sdeg), c)
    return out


def _inputs(seed, count, rdeg=2, sdeg=2):
    rng = random.Random(seed)
    # s + 1 (a content in s), or r + 1 when s is absent
    shared = (BiPoly.term(0, 1) if sdeg else BiPoly.term(1, 0)) + BiPoly.one()
    int_content = BiPoly.const(6)
    cases = []
    for _ in range(count):
        common = _random_poly(rng, rdeg, sdeg)
        num = (int_content * shared * common
               * _random_poly(rng, rdeg, sdeg))
        den = (BiPoly.const(Fraction(4, 3)) * shared * common
               * _random_poly(rng, rdeg, sdeg))
        cases.append((num, den))
    return cases


def _certificate_inputs(seed, count):
    rng = random.Random(seed)
    h = (BiPoly.term(1, 1) - BiPoly.term(1, 0) - BiPoly.term(0, 1)
         + BiPoly.const(2))
    cases = []
    for _ in range(count):
        p, q = _random_poly(rng), _random_poly(rng)
        cases.append((p, q))
        m = BiPoly.term(rng.randint(0, 3), rng.randint(0, 3))
        n = BiPoly.term(rng.randint(0, 3), rng.randint(0, 3))
        cases.append((m * _random_poly(rng), n * _random_poly(rng)))
        cases.append((h * _random_poly(rng), h * _random_poly(rng)))
    return cases


def _to_sympy(p):
    return sum((sympy.Rational(c.numerator, c.denominator) * R**a * S**b
                for (a, b), c in p.terms.items()), sympy.Integer(0))


def _terms(poly, lc):
    return {m: Fraction(int(c.p), int(c.q)) / lc
            for m, c in poly.terms() if c}


def _oracle(num, den):
    n, d = sympy.fraction(sympy.cancel(_to_sympy(num) / _to_sympy(den)))
    n, d = sympy.Poly(n, R, S, domain="QQ"), sympy.Poly(d, R, S, domain="QQ")
    lc = d.LC(order="grlex")
    lc = Fraction(int(lc.p), int(lc.q))
    return _terms(n, lc), _terms(d, lc)


def _mismatches(cases):
    bad = []
    for num, den in cases:
        try:
            f = RatFunc(num, den)
        except ArithmeticError:  # a wrong gcd may not divide exactly
            bad.append((num, den))
            continue
        if (f.num.terms, f.den.terms) != _oracle(num, den):
            bad.append((num, den))
    return bad


def test_canonical_form_matches_sympy_cancel():
    cases = (_inputs(7, 12) + _inputs(8, 8, sdeg=0)
             + _inputs(9, 8, rdeg=0) + _certificate_inputs(10, 8))
    assert _mismatches(cases) == []


def test_oracle_catches_a_missing_content_gcd(monkeypatch):
    # a gcd that never finds a common content in s leaves (s + 1) in both
    # numerator and denominator
    monkeypatch.setattr(scalars, "_z_gcd", lambda f, g: [1])
    assert _mismatches(_inputs(7, 12))


def _r_free_gcd_at_any_point(f, g):
    # the certificate without its leading-coefficient condition: a
    # specialization whose degree drops proves nothing
    if len(f) == 1 or len(g) == 1:
        return True
    for t in (1, 2, 3):
        ft = [scalars._z_eval(co, t) for co in f]
        gt = [scalars._z_eval(co, t) for co in g]
        while ft and not ft[-1]:
            ft.pop()
        while gt and not gt[-1]:
            gt.pop()
        if ft and gt and len(scalars._z_gcd(ft, gt)) == 1:
            return True
    return False


def test_oracle_catches_a_certificate_at_degree_dropping_points(monkeypatch):
    monkeypatch.setattr(scalars, "_r_free_gcd", _r_free_gcd_at_any_point)
    assert _mismatches(_certificate_inputs(10, 8))
