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

The one-parameter specialization r -> q, s -> 1/q (q written as r) is
checked the same way, against sympy's cancel of f(r, 1/r).
"""

import random
from fractions import Fraction

import pytest

import rsqg.scalars as scalars
from rsqg import (BiPoly, DenominatorVanishes, RatFunc, SymbolicField,
                  build_r_z, specialize_jimbo)

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
    return _normalized(_to_sympy(num) / _to_sympy(den))


def _normalized(expr):
    n, d = sympy.fraction(sympy.cancel(expr))
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


def _jimbo_oracle(f):
    """f(r, 1/r) normalized as _oracle does, or None where the
    denominator vanishes there."""
    den = _to_sympy(f.den).subs(S, 1 / R)
    if sympy.cancel(den) == 0:
        return None
    return _normalized(_to_sympy(f.num).subs(S, 1 / R) / den)


def _jimbo_mismatches(values):
    bad = []
    for f in values:
        want = _jimbo_oracle(f)
        try:
            got = specialize_jimbo(f)
        except DenominatorVanishes:
            got = None
        if want is not None and got is not None:
            got = (got.num.terms, got.den.terms)
        if got != want:
            bad.append(f)
    return bad


def test_jimbo_specialization_matches_sympy_substitution():
    rs_minus_1 = BiPoly.term(1, 1) - BiPoly.one()
    rng = random.Random(11)
    values = [RatFunc(num, den) for num, den in _inputs(12, 12)]
    values += [RatFunc(rs_minus_1 * _random_poly(rng), _random_poly(rng))
               for _ in range(4)]
    field = SymbolicField()
    for n in (2, 3, 4):
        rz = build_r_z(n, field)
        values += list(rz.A.entries.values()) + list(rz.B.entries.values())
    assert _jimbo_mismatches(values) == []
    # a numerator that is a multiple of rs - 1 maps to 0
    assert not specialize_jimbo(values[12])
    # a denominator with that factor vanishes under the substitution
    with pytest.raises(DenominatorVanishes):
        specialize_jimbo(RatFunc(_random_poly(rng),
                                 rs_minus_1 * _random_poly(rng)))
