"""Exact scalar arithmetic for the two-parameter deformation library.

Symbolic computations run in the rational function field Q(r, s).  Elements
are reduced fractions of sparse bivariate polynomials over Q with a canonical
normalization (coprime numerator/denominator, denominator monic in graded
lexicographic order with r before s), so structural equality coincides with
field equality.  Integral coefficients are stored as int and only the others
as Fraction: the two mix exactly, and equal values hash alike.  Coefficients
are divided only by _div, since int / int would be a float.  The gcds behind
it run on integer coefficients.  Most pairs met in elimination are coprime
up to a monomial, and specialization proves it cheaply: at a point where
neither leading coefficient vanishes, the gcd keeps its degree and divides
the gcd of the specializations, so a constant gcd there rules out a common
factor.  The other pairs take a primitive remainder sequence in Z[s][r],
with the contents in Z[s] taken by the same sequence in one variable.
Sampled computations substitute fixed rationals r0, s0 subject to genericity
constraints, and all scalars are plain Fractions.

The substitution r -> q, s -> 1/q, for comparison with the one-parameter
theory, is one pass over the terms of the numerator and denominator: it
lands in the s-free part Q(r), with q written as r, in the same canonical
form.
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


def _coef(c):
    """A polynomial coefficient: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _fractional(terms):
    """Whether some coefficient is a Fraction (integral or not)."""
    for c in terms.values():
        if type(c) is not int:
            return True
    return False


def _div(a, b):
    """Exact quotient of two coefficients (int / int would be a float)."""
    if type(a) is int and type(b) is int:
        q, m = divmod(a, b)
        return Fraction(a, b) if m else q
    return _coef(a / b)


def _gl_key(m):
    # graded lex with r before s: total degree first, then r-degree
    return (m[0] + m[1], m[0])


def _leading(terms):
    """max(terms, key=_gl_key) without a key call per monomial: most
    reductions see one or two terms."""
    it = iter(terms)
    best = next(it)
    if len(terms) == 1:
        return best
    deg = best[0] + best[1]
    for m in it:
        d = m[0] + m[1]
        if d > deg or (d == deg and m[0] > best[0]):
            best, deg = m, d
    return best


# ---------------------------------------------------------------------------
# gcds on integer coefficients.  A polynomial in Z[x] is a dense list of ints,
# lowest degree first, with no trailing zero ([] is 0); one in Z[s][r] is a
# list over the r-degree of such lists in s.  A gcd is only defined up to a
# nonzero rational factor here.  A bivariate gcd first splits off the common
# monomial and tries to certify the cofactors coprime by specialization
# (_r_free_gcd): the certificate is exact, since it only ever proves a degree
# is 0, and a pair it does not settle goes on to the remainder sequence.
# The remainder sequences are primitive (Collins, JACM 1967; Brown, JACM
# 1971): pseudo-remainders stay integral, and each one is divided by its
# content before the next step.  Star arguments come from lists, not
# generators: CPython resizes a tuple built from a generator, and its tuple
# free lists then grow until a full collection (2 MiB more peak RSS after
# 700 inverses of 2x2 matrices).

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
    """Z[s][r] list of a bivariate term dict with denominators cleared
    (an all-int dict has none to clear)."""
    den = (lcm(*[c.denominator for c in terms.values()])
           if _fractional(terms) else 0)
    out = [[] for _ in range(max(terms)[0] + 1)]
    for (a, b), c in terms.items():
        co = out[a]
        if len(co) <= b:
            co.extend([0] * (b + 1 - len(co)))
        co[b] = c.numerator * (den // c.denominator) if den else c
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


def _z_eval(p, t):
    """p(t) for p in Z[x] (Horner)."""
    v = 0
    for c in reversed(p):
        v = v * t + c
    return v


def _zs_split_monomial(f):
    """(a, b, f / (r^a s^b)) for the largest monomial r^a s^b dividing a
    nonzero f in Z[s][r]."""
    a = 0
    while not f[a]:
        a += 1
    b = len(f[-1])
    for co in f:
        if co:
            i = 0
            while not co[i]:
                i += 1
            if i < b:
                b = i
                if not b:
                    break
    return a, b, [co[b:] for co in f[a:]] if b else f[a:]


def _zs_swap(f):
    """f in Z[s][r] as a list in Z[r][s]; the inner lists may end in
    zeros, so they serve only _z_eval."""
    return [[co[b] if b < len(co) else 0 for co in f]
            for b in range(max(map(len, f)))]


_CERTIFICATE_POINTS = 3


def _r_free_gcd(f, g):
    """Whether gcd(f, g) in Z[s][r] is proved free of r by specializing s.

    At an integer t where neither leading coefficient in r vanishes, the
    gcd h keeps its r-degree (lc(h) divides both), and h(r, t) divides
    gcd(f(r, t), g(r, t)) in Z[r]; a constant gcd there proves h free of r.
    Up to _CERTIFICATE_POINTS such points are tried; a leading coefficient
    vanishes at no more points than its degree, so the search ends."""
    if len(f) == 1 or len(g) == 1:
        return True
    misses = t = 0
    while misses < _CERTIFICATE_POINTS:
        t += 1
        ft = [_z_eval(co, t) for co in f]
        gt = [_z_eval(co, t) for co in g]
        if ft[-1] and gt[-1]:
            if len(_z_gcd(ft, gt)) == 1:
                return True
            misses += 1
    return False


def _b_gcd(f, g):
    """gcd of two nonzero bivariate term dicts (a, b) -> Fraction, up to a
    rational factor: an integer term dict, {(0, 0): 1} when coprime.

    gcd(f, g) = r^a s^b gcd(f', g'), where r^a s^b is the largest
    monomial dividing both, and f', g' are f, g over their own largest
    monomial factors, so neither r nor s divides them.  When
    specializations prove gcd(f', g') free of r and free of s
    (_r_free_gcd, on f', g' and on their swaps), it is constant and the
    gcd is r^a s^b; otherwise the remainder sequence computes it."""
    if len(f) == 1 or len(g) == 1:
        # a monomial divides a polynomial iff it divides every term
        if len(f) != 1:
            f, g = g, f
        ((a, b),) = f
        for x, y in g:
            if x < a:
                a = x
            if y < b:
                b = y
        return {(a, b): 1}
    af, bf, zf = _zs_split_monomial(_zs_from_terms(f))
    ag, bg, zg = _zs_split_monomial(_zs_from_terms(g))
    a, b = min(af, ag), min(bf, bg)
    if _r_free_gcd(zf, zg) and _r_free_gcd(_zs_swap(zf), _zs_swap(zg)):
        return {(a, b): 1}
    pf, cf = _zs_primitive(zf)
    pg, cg = _zs_primitive(zg)
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
    return {(x + a, y + b): c for x, co in enumerate(pf)
            for y, c in enumerate(_z_mul(co, d)) if c}


def _b_divexact(f, g):
    q = {}
    r = dict(f)
    gm = _leading(g)
    gc = g[gm]
    while r:
        rm = _leading(r)
        ma, mb = rm[0] - gm[0], rm[1] - gm[1]
        if ma < 0 or mb < 0:
            raise ArithmeticError("inexact bivariate division")
        c = _div(r[rm], gc)
        q[(ma, mb)] = c
        for (a, b), cc in g.items():
            k = (a + ma, b + mb)
            v = r.get(k, 0) - c * cc
            if v:
                r[k] = v
            else:
                r.pop(k, None)
    return q


_ONE_TERMS = {(0, 0): 1}


class BiPoly:
    """Sparse polynomial in r and s over Q; terms map (a, b) -> coefficient,
    integral coefficients stored as int and the others as Fraction.

    The constructors normalize each coefficient; a sum or product with a
    non-integral coefficient may leave an integral Fraction, which the
    reduction in RatFunc turns back into an int."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for m, c in items:
                a, b = int(m[0]), int(m[1])
                if a < 0 or b < 0:
                    raise ValueError("negative exponent in polynomial term")
                v = clean.get((a, b), 0) + _coef(c)
                if v:
                    clean[(a, b)] = _coef(v)
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
        c = _coef(c)
        return cls._raw({(0, 0): c} if c else {})

    @classmethod
    def term(cls, a, b, c=1):
        c = _coef(c)
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
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return BiPoly._raw(out)

    def __radd__(self, other):
        # 0 + p starts every sparse sum
        return self + BiPoly.const(other) if other else self

    def __sub__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) - c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return BiPoly._raw(out)

    def __rsub__(self, other):
        return BiPoly.const(other) - self if other else -self

    def __mul__(self, other):
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                m = (a1 + a2, b1 + b2)
                v = out.get(m, 0) + c1 * c2
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

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = BiPoly.one()
        if not den.terms:
            raise DivisionByZero("zero denominator in Q(r, s)")
        if not num.terms:
            self.num = BiPoly.zero()
            self.den = BiPoly.one()
            return
        nt, dt = num.terms, den.terms
        g = _b_gcd(nt, dt)
        if g != _ONE_TERMS:
            nt = _b_divexact(nt, g)
            dt = _b_divexact(dt, g)
        lc = dt[_leading(dt)]
        if lc != 1 or _fractional(nt) or _fractional(dt):
            # _div also turns an integral Fraction, left by arithmetic
            # with a non-integral one, back into an int
            nt = {m: _div(c, lc) for m, c in nt.items()}
            dt = {m: _div(c, lc) for m, c in dt.items()}
        self.num = BiPoly._raw(nt)
        self.den = BiPoly._raw(dt)

    @classmethod
    def _canonical(cls, num, den):
        f = cls.__new__(cls)
        f.num, f.den = num, den
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
        return hash((frozenset(self.num.terms.items()),
                     frozenset(self.den.terms.items())))

    def __neg__(self):
        return RatFunc._canonical(-self.num, self.den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    def __radd__(self, other):
        # 0 + x starts every sparse sum; it needs no reduction
        return self if not other else self + other

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
        num, den = base.num**e, base.den**e
        if _fractional(num.terms) or _fractional(den.terms):
            num, den = BiPoly(num.terms), BiPoly(den.terms)
        return RatFunc._canonical(num, den)

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

    q is written as r: a term c r^a s^b of the numerator or denominator
    becomes c r^(a - b + d), with d the largest s-degree of either, so
    both stay polynomials and their quotient is unchanged.  The result is
    one RatFunc whose terms all have s-degree 0.  Raises
    DenominatorVanishes if the denominator becomes 0 (e.g. any multiple
    of rs - 1).
    """
    d = max(b for t in (f.num.terms, f.den.terms) for _, b in t)
    num, den = (_jimbo_terms(t, d) for t in (f.num.terms, f.den.terms))
    if not den:
        raise DenominatorVanishes(
            f"denominator {f.den} vanishes identically under r=q, s=1/q")
    return RatFunc(BiPoly._raw(num), BiPoly._raw(den))


def _jimbo_terms(terms, d):
    """terms with c r^a s^b sent to c r^(a - b + d), zeros dropped."""
    out = {}
    for (a, b), c in terms.items():
        m = (a - b + d, 0)
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


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
