"""Exact scalar arithmetic for the two-parameter deformation library.

Symbolic computations run in the rational function field Q(r, s).  Elements
are reduced fractions of sparse bivariate polynomials with a canonical
normalization (coprime numerator/denominator, denominator monic in graded
lexicographic order with r before s), so structural equality coincides with
field equality.  The gcds behind it run on integer coefficients: a
primitive remainder sequence in Z[s][r], with the contents in Z[s] taken by
the same sequence in one variable.  Sampled computations substitute fixed
rationals r0, s0 subject to genericity constraints, and all scalars are
plain Fractions.

The substitution r -> q, s -> 1/q, for comparison with the one-parameter
theory, lands in the s-free part Q(r) of Q(r, s), with q written as r; the
same RatFunc reduction and canonical form serve it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class DivisionByZero(ZeroDivisionError):
    """Division by the zero element of the scalar field."""


class DenominatorVanishes(ArithmeticError):
    """A substitution makes a denominator vanish."""


class GenericityError(ValueError):
    """Sampled parameters violate a required genericity condition."""


_F0 = Fraction(0)
_F1 = Fraction(1)


def _gl_key(m):
    # graded lex with r before s: total degree first, then r-degree
    return (m[0] + m[1], m[0])


# ---------------------------------------------------------------------------
# gcds on integer coefficients.  A polynomial in Z[x] is a dense list of ints,
# lowest degree first, with no trailing zero ([] is 0); one in Z[s][r] is a
# list over the r-degree of such lists in s.  A gcd is only defined up to a
# nonzero rational factor here, so the remainder sequences are primitive
# (Collins, JACM 1967; Brown, JACM 1971): pseudo-remainders stay integral,
# and each one is divided by its content before the next step.  Star
# arguments come from lists, not generators: CPython resizes a tuple built
# from a generator, and its tuple free lists then grow until a full
# collection (2 MiB more peak RSS after 700 inverses of 2x2 matrices).

def _z_primitive(p):
    """p over its integer content, with positive leading coefficient."""
    c = gcd(*p)
    if p[-1] < 0:
        c = -c
    return p if c == 1 else [a // c for a in p]


def _z_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q, i):
                out[j] += a * b
    return out


def _z_sub(p, q):
    out = p + [0] * (len(q) - len(p))
    for i, b in enumerate(q):
        out[i] -= b
    while out and not out[-1]:
        out.pop()
    return out


def _z_prem(f, g):
    """A nonzero integer multiple of the remainder of f by g in Q[x]."""
    r = f
    dg = len(g) - 1
    lg = g[-1]
    while len(r) > dg:
        c = gcd(lg, r[-1])
        a, b = lg // c, r[-1] // c
        r = [a * x for x in r]
        for i, x in enumerate(g, len(r) - 1 - dg):
            r[i] -= b * x
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


def _z_gcd(f, g):
    """Primitive gcd in Z[x] with positive leading coefficient; f and g
    are not both 0."""
    if not f or not g:
        return _z_primitive(f or g)
    if len(f) < len(g):
        f, g = g, f
    f, g = _z_primitive(f), _z_primitive(g)
    while len(g) > 1:
        f, g = g, _z_prem(f, g)
        if not g:
            return f
        g = _z_primitive(g)
    return [1]


def _z_divexact(f, g):
    """f / g in Z[x] for a primitive g dividing f (Gauss's lemma makes the
    quotient integral, so every step divides exactly)."""
    if g == [1]:
        return f
    r = list(f)
    dg = len(g) - 1
    lg = g[-1]
    q = [0] * (len(f) - dg)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + dg] // lg
        if c:
            q[k] = c
            for i, x in enumerate(g, k):
                r[i] -= c * x
    return q


def _zs_from_terms(terms):
    """Z[s][r] list of a bivariate term dict with denominators cleared."""
    den = lcm(*[c.denominator for c in terms.values()])
    out = [[] for _ in range(max(a for a, _ in terms) + 1)]
    for (a, b), c in terms.items():
        co = out[a]
        if len(co) <= b:
            co.extend([0] * (b + 1 - len(co)))
        co[b] = c.numerator * (den // c.denominator)
    return out


def _zs_primitive(f):
    """(primitive part, content) of f in Z[s][r]: the content is the
    primitive gcd in Z[s] of the coefficients, and the primitive part has
    integer content 1 and a positive leading coefficient."""
    cont = []
    for co in f:
        if co:
            cont = _z_gcd(cont, co)
            if len(cont) == 1:
                break
    if len(cont) > 1:
        f = [_z_divexact(co, cont) if co else [] for co in f]
    c = gcd(*[x for co in f for x in co])
    if f[-1][-1] < 0:
        c = -c
    if c != 1:
        f = [[x // c for x in co] for co in f]
    return f, cont


def _zs_prem(f, g):
    """A nonzero Z[s]-multiple of the remainder of f by g in Q(s)[r]."""
    r = f
    dg = len(g) - 1
    lg = g[-1]
    while len(r) > dg:
        lr = r[-1]
        r = [_z_mul(co, lg) for co in r]
        for i, co in enumerate(g, len(r) - 1 - dg):
            r[i] = _z_sub(r[i], _z_mul(co, lr))
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


def _b_gcd(f, g):
    """gcd of two nonzero bivariate term dicts (a, b) -> Fraction, up to a
    rational factor: an integer term dict, {(0, 0): 1} when coprime."""
    if len(f) == 1 or len(g) == 1:
        # a monomial divides a polynomial iff it divides every term
        return {(min(a for a, _ in (*f, *g)), min(b for _, b in (*f, *g))): 1}
    pf, cf = _zs_primitive(_zs_from_terms(f))
    pg, cg = _zs_primitive(_zs_from_terms(g))
    if len(pf) < len(pg):
        pf, pg = pg, pf
    # primitive remainder sequence in r; a primitive remainder of r-degree 0
    # is 1, so the primitive parts are then coprime
    while len(pg) > 1:
        pf, pg = pg, _zs_prem(pf, pg)
        if not pg:
            break
        pg = _zs_primitive(pg)[0]
    else:
        pf = [[1]]
    d = _z_gcd(cf, cg)
    return {(a, b): c for a, co in enumerate(pf)
            for b, c in enumerate(_z_mul(co, d)) if c}


def _b_divexact(f, g):
    q = {}
    r = dict(f)
    gm = max(g, key=_gl_key)
    gc = g[gm]
    while r:
        rm = max(r, key=_gl_key)
        ma, mb = rm[0] - gm[0], rm[1] - gm[1]
        if ma < 0 or mb < 0:
            raise ArithmeticError("inexact bivariate division")
        c = r[rm] / gc
        q[(ma, mb)] = c
        for (a, b), cc in g.items():
            k = (a + ma, b + mb)
            v = r.get(k, _F0) - c * cc
            if v:
                r[k] = v
            else:
                r.pop(k, None)
    return q


_ONE_TERMS = {(0, 0): _F1}


class BiPoly:
    """Sparse polynomial in r and s over Q; terms map (a, b) -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for m, c in items:
                a, b = int(m[0]), int(m[1])
                if a < 0 or b < 0:
                    raise ValueError("negative exponent in polynomial term")
                c = c if isinstance(c, Fraction) else Fraction(c)
                v = clean.get((a, b), _F0) + c
                if v:
                    clean[(a, b)] = v
                else:
                    clean.pop((a, b), None)
        self.terms = clean

    @classmethod
    def _raw(cls, terms):
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls._raw(dict(_ONE_TERMS))

    @classmethod
    def const(cls, c):
        c = c if isinstance(c, Fraction) else Fraction(c)
        return cls._raw({(0, 0): c} if c else {})

    @classmethod
    def term(cls, a, b, c=1):
        c = c if isinstance(c, Fraction) else Fraction(c)
        return cls._raw({(int(a), int(b)): c} if c else {})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, BiPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return BiPoly._raw({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, _F0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return BiPoly._raw(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, _F0) - c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return BiPoly._raw(out)

    def __mul__(self, other):
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                m = (a1 + a2, b1 + b2)
                v = out.get(m, _F0) + c1 * c2
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return BiPoly._raw(out)

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = BiPoly.one()
        for _ in range(e):
            out = out * self
        return out

    def evaluate(self, r0, s0):
        out = _F0
        for (a, b), c in self.terms.items():
            out += c * r0**a * s0**b
        return out

    def __str__(self):
        return _poly_str(self.terms)

    def __repr__(self):
        return f"BiPoly({self})"


def _mono_rs(m):
    a, b = m
    parts = []
    if a:
        parts.append("r" if a == 1 else f"r^{a}")
    if b:
        parts.append("s" if b == 1 else f"s^{b}")
    return "*".join(parts)


def _poly_str(terms):
    if not terms:
        return "0"
    chunks = []
    for m in sorted(terms, key=_gl_key, reverse=True):
        c = terms[m]
        neg = c < 0
        ac = -c if neg else c
        mono = _mono_rs(m)
        if not mono:
            body = str(ac)
        elif ac == 1:
            body = mono
        else:
            body = f"{ac}*{mono}"
        if not chunks:
            chunks.append(("-" if neg else "") + body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)


class RatFunc:
    """Element of Q(r, s) as a reduced fraction num/den.

    Canonical form: gcd(num, den) = 1 and den monic in graded lex order,
    so two equal field elements are structurally identical.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        if den is None:
            den = BiPoly.one()
        if not den.terms:
            raise DivisionByZero("zero denominator in Q(r, s)")
        self._hash = None
        if not num.terms:
            self.num = BiPoly.zero()
            self.den = BiPoly.one()
            return
        nt, dt = num.terms, den.terms
        g = _b_gcd(nt, dt)
        if g != _ONE_TERMS:
            nt = _b_divexact(nt, g)
            dt = _b_divexact(dt, g)
        lc = dt[max(dt, key=_gl_key)]
        if lc != 1:
            nt = {m: c / lc for m, c in nt.items()}
            dt = {m: c / lc for m, c in dt.items()}
        self.num = BiPoly._raw(nt)
        self.den = BiPoly._raw(dt)

    @classmethod
    def _canonical(cls, num, den):
        f = cls.__new__(cls)
        f.num, f.den, f._hash = num, den, None
        return f

    @classmethod
    def const(cls, c):
        return cls._canonical(BiPoly.const(c), BiPoly.one())

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, BiPoly):
            return RatFunc(x)
        if isinstance(x, (int, Fraction)):
            return RatFunc.const(x)
        return None

    def __bool__(self):
        return bool(self.num.terms)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num.terms == o.num.terms and self.den.terms == o.den.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.num.terms.items()),
                               frozenset(self.den.terms.items())))
        return self._hash

    def __neg__(self):
        return RatFunc._canonical(-self.num, self.den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise DivisionByZero("division by zero in Q(r, s)")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e):
        e = int(e)
        if e == 0:
            return RatFunc._canonical(BiPoly.one(), BiPoly.one())
        if e < 0:
            if not self:
                raise DivisionByZero("inverse of zero in Q(r, s)")
            base = RatFunc(self.den, self.num)
            e = -e
        else:
            base = self
        # powers of a reduced fraction stay reduced; den stays monic
        return RatFunc._canonical(base.num**e, base.den**e)

    def evaluate(self, r0, s0):
        dv = self.den.evaluate(r0, s0)
        if dv == 0:
            raise DenominatorVanishes(
                f"denominator {self.den} vanishes at r={r0}, s={s0}")
        return self.num.evaluate(r0, s0) / dv

    def __str__(self):
        if self.den.terms == _ONE_TERMS:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


# ---------------------------------------------------------------------------
# the substitution r -> q, s -> 1/q

def specialize_jimbo(f):
    """Substitute r -> q, s -> q^{-1} into f in Q(r, s).

    q is written as r, so the result is a RatFunc whose terms all have
    s-degree 0.  The substituted numerator and denominator are Laurent
    polynomials in q; both are shifted by a common power of q to clear
    negative exponents and then reduced.  Raises DenominatorVanishes if the
    denominator collapses to zero identically (e.g. any multiple of rs - 1).
    """
    def laurent(terms):
        out = {}
        for (a, b), c in terms.items():
            d = a - b
            v = out.get(d, _F0) + c
            if v:
                out[d] = v
            else:
                out.pop(d, None)
        return out

    nl = laurent(f.num.terms)
    dl = laurent(f.den.terms)
    if not dl:
        raise DenominatorVanishes(
            f"denominator {f.den} vanishes identically under r=q, s=1/q")
    shift = -min(list(nl) + list(dl) + [0])
    return RatFunc(BiPoly._raw({(d + shift, 0): c for d, c in nl.items()}),
                   BiPoly._raw({(d + shift, 0): c for d, c in dl.items()}))


# ---------------------------------------------------------------------------
# parameter handling

def genericity_check(r0, s0):
    """List of violated genericity conditions for sampled parameters.

    An empty list means the pair is admissible.  Since +-1 are the only
    rational roots of unity, excluding r = s and s = -r makes r/s of
    infinite multiplicative order.
    """
    r0, s0 = Fraction(r0), Fraction(s0)
    bad = []
    if r0 == 0:
        bad.append("r = 0")
    if s0 == 0:
        bad.append("s = 0")
    if r0 != 0 and s0 != 0:
        if r0 == s0:
            bad.append("r = s")
        if r0 == -s0:
            bad.append("s = -r")
    return bad


class _Field:
    """What both scalar fields share: the constants and r^a s^b memoized
    per instance (the tensor-power action asks for the same few powers many
    times).  Values of both fields print with str."""

    def __init__(self, zero, one, r, s):
        self.zero = zero
        self.one = one
        self.r = r
        self.s = s
        self._rs_powers = {}

    def rs_power(self, a, b):
        val = self._rs_powers.get((a, b))
        if val is None:
            val = self._rs_powers[(a, b)] = self.r**a * self.s**b
        return val


class SymbolicField(_Field):
    """Scalar interface for exact computation in Q(r, s)."""

    mode = "symbolic"

    def __init__(self):
        super().__init__(RatFunc._canonical(BiPoly.zero(), BiPoly.one()),
                         RatFunc._canonical(BiPoly.one(), BiPoly.one()),
                         RatFunc._canonical(BiPoly.term(1, 0), BiPoly.one()),
                         RatFunc._canonical(BiPoly.term(0, 1), BiPoly.one()))

    def from_fraction(self, q):
        return RatFunc.const(q)

    def __repr__(self):
        return "SymbolicField()"


class SampledField(_Field):
    """Scalar interface over Q with r, s replaced by fixed rationals."""

    mode = "sampled"

    def __init__(self, r0, s0):
        r0, s0 = Fraction(r0), Fraction(s0)
        bad = genericity_check(r0, s0)
        if bad:
            raise GenericityError("; ".join(bad) + " violates genericity")
        super().__init__(_F0, _F1, r0, s0)

    def from_fraction(self, q):
        return Fraction(q)

    def __repr__(self):
        return f"SampledField(r={self.r}, s={self.s})"
