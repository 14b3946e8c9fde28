"""Exact scalar arithmetic for the two-parameter deformation library.

Symbolic computations run in the rational function field Q(r, s).  Elements
are reduced fractions of sparse bivariate polynomials with a canonical
normalization (coprime numerator/denominator, denominator monic in graded
lexicographic order with r before s), so structural equality coincides with
field equality.  Sampled computations substitute fixed rationals r0, s0
subject to genericity constraints, and all scalars are plain Fractions.

A substitution r -> q, s -> 1/q into univariate rational functions of q is
provided for comparison with the one-parameter theory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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
# univariate polynomials as sparse dicts degree -> Fraction; used both for
# gcd bookkeeping in s and for polynomials in q after the Jimbo substitution

def _u_add(p, q):
    out = dict(p)
    for d, c in q.items():
        v = out.get(d, _F0) + c
        if v:
            out[d] = v
        else:
            out.pop(d, None)
    return out


def _u_neg(p):
    return {d: -c for d, c in p.items()}


def _u_mul(p, q):
    out = {}
    for d1, c1 in p.items():
        for d2, c2 in q.items():
            d = d1 + d2
            v = out.get(d, _F0) + c1 * c2
            if v:
                out[d] = v
            else:
                out.pop(d, None)
    return out


def _u_deg(p):
    return max(p) if p else -1


def _u_divmod(f, g):
    q = {}
    r = dict(f)
    dg = _u_deg(g)
    lg = g[dg]
    while r:
        dr = _u_deg(r)
        if dr < dg:
            break
        c = r[dr] / lg
        q[dr - dg] = c
        for d, gc in g.items():
            k = d + dr - dg
            v = r.get(k, _F0) - c * gc
            if v:
                r[k] = v
            else:
                r.pop(k, None)
    return q, r


def _u_divexact(f, g):
    q, r = _u_divmod(f, g)
    if r:
        raise ArithmeticError("inexact univariate division")
    return q


def _u_monic(p):
    if not p:
        return {}
    lc = p[_u_deg(p)]
    if lc == 1:
        return dict(p)
    return {d: c / lc for d, c in p.items()}


def _u_gcd(p, q):
    a, b = dict(p), dict(q)
    while b:
        a, b = b, _u_divmod(a, b)[1]
    return _u_monic(a)


# ---------------------------------------------------------------------------
# bivariate term dicts (a, b) -> Fraction and their gcd via a primitive
# remainder sequence in (Q[s])[r]

def _b_monic(terms):
    if not terms:
        return {}
    lc = terms[max(terms, key=_gl_key)]
    if lc == 1:
        return dict(terms)
    return {m: c / lc for m, c in terms.items()}


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


def _b_to_rec(terms):
    rec = {}
    for (a, b), c in terms.items():
        rec.setdefault(a, {})[b] = c
    return rec


def _rec_deg(rec):
    return max(rec) if rec else -1


def _rec_sub(f, g):
    out = {a: dict(co) for a, co in f.items()}
    for a, co in g.items():
        merged = _u_add(out.get(a, {}), _u_neg(co))
        if merged:
            out[a] = merged
        else:
            out.pop(a, None)
    return out


def _rec_scale_u(rec, u):
    out = {}
    for a, co in rec.items():
        prod = _u_mul(co, u)
        if prod:
            out[a] = prod
    return out


def _rec_shift_scale(rec, shift, u):
    out = {}
    for a, co in rec.items():
        prod = _u_mul(co, u)
        if prod:
            out[a + shift] = prod
    return out


def _rec_prem(f, g):
    # pseudo-remainder in (Q[s])[r]; exact up to content, which the caller strips
    dg = _rec_deg(g)
    lg = g[dg]
    r = f
    while r and _rec_deg(r) >= dg:
        dr = _rec_deg(r)
        lr = r[dr]
        r = _rec_sub(_rec_scale_u(r, lg), _rec_shift_scale(g, dr - dg, lr))
    return r


def _rec_content(rec):
    cont = {}
    for co in rec.values():
        cont = _u_gcd(cont, co)
        if _u_deg(cont) == 0:
            break
    return cont


def _rec_primitive(rec):
    cont = _rec_content(rec)
    if _u_deg(cont) <= 0:
        return rec, cont
    return {a: _u_divexact(co, cont) for a, co in rec.items()}, cont


def _b_gcd(f, g):
    """gcd of two bivariate term dicts, normalized monic in graded lex."""
    if not f:
        return _b_monic(g)
    if not g:
        return _b_monic(f)
    if len(f) == 1 or len(g) == 1:
        # a monomial divides a polynomial iff it divides every term
        fa = min(a for a, _ in f)
        fb = min(b for _, b in f)
        ga = min(a for a, _ in g)
        gb = min(b for _, b in g)
        return {(min(fa, ga), min(fb, gb)): _F1}
    pf, cf = _rec_primitive(_b_to_rec(f))
    pg, cg = _rec_primitive(_b_to_rec(g))
    d = _u_gcd(cf, cg)
    if _rec_deg(pf) < _rec_deg(pg):
        pf, pg = pg, pf
    while pg:
        rem = _rec_prem(pf, pg)
        pf = pg
        pg = _rec_primitive(rem)[0] if rem else {}
    res = _rec_scale_u(pf, d)
    terms = {(a, b): c for a, co in res.items() for b, c in co.items()}
    return _b_monic(terms)


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
        return _poly_str(self.terms, _mono_rs)

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


def _poly_str(terms, mono_fmt, key=_gl_key):
    if not terms:
        return "0"
    chunks = []
    for m in sorted(terms, key=key, reverse=True):
        c = terms[m]
        neg = c < 0
        ac = -c if neg else c
        mono = mono_fmt(m)
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


def evaluate(f, r0, s0):
    """Evaluate f in Q(r, s) at rational parameters (r0, s0)."""
    return f.evaluate(Fraction(r0), Fraction(s0))


# ---------------------------------------------------------------------------
# the substitution r -> q, s -> 1/q

class QRat:
    """Univariate rational function of q as a reduced fraction num/den
    with monic denominator (the image of the r=q, s=1/q substitution)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = {0: _F1}
        num = {int(d): Fraction(c) for d, c in num.items() if c}
        den = {int(d): Fraction(c) for d, c in den.items() if c}
        if not den:
            raise DivisionByZero("zero denominator in Q(q)")
        if not num:
            self.num, self.den = {}, {0: _F1}
            return
        g = _u_gcd(num, den)
        if _u_deg(g) > 0:
            num = _u_divexact(num, g)
            den = _u_divexact(den, g)
        lc = den[_u_deg(den)]
        if lc != 1:
            num = {d: c / lc for d, c in num.items()}
            den = {d: c / lc for d, c in den.items()}
        self.num, self.den = num, den

    @classmethod
    def const(cls, c):
        return cls({0: Fraction(c)})

    @classmethod
    def gen(cls):
        return cls({1: _F1})

    @staticmethod
    def _coerce(x):
        if isinstance(x, QRat):
            return x
        if isinstance(x, (int, Fraction)):
            return QRat.const(x)
        return None

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    def __neg__(self):
        return QRat(_u_neg(self.num), self.den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QRat(_u_add(_u_mul(self.num, o.den), _u_mul(o.num, self.den)),
                    _u_mul(self.den, o.den))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QRat(_u_mul(self.num, o.num), _u_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise DivisionByZero("division by zero in Q(q)")
        return QRat(_u_mul(self.num, o.den), _u_mul(self.den, o.num))

    def __pow__(self, e):
        e = int(e)
        if e < 0:
            if not self:
                raise DivisionByZero("inverse of zero in Q(q)")
            return QRat(self.den, self.num) ** (-e)
        out = QRat.const(1)
        for _ in range(e):
            out = out * self
        return out

    def __str__(self):
        ns = _poly_str(self.num, _mono_q, key=lambda d: d)
        if self.den == {0: _F1}:
            return ns
        return f"({ns})/({_poly_str(self.den, _mono_q, key=lambda d: d)})"

    def __repr__(self):
        return f"QRat({self})"


def _mono_q(d):
    if d == 0:
        return ""
    return "q" if d == 1 else f"q^{d}"


def specialize_jimbo(f):
    """Substitute r -> q, s -> q^{-1} into f in Q(r, s).

    The substituted numerator and denominator are Laurent polynomials in q;
    both are shifted by a common power of q to clear negative exponents and
    then reduced.  Raises DenominatorVanishes if the denominator collapses
    to zero identically (e.g. any multiple of rs - 1).
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
    return QRat({d + shift: c for d, c in nl.items()},
                {d + shift: c for d, c in dl.items()})


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
    """What both scalar fields share: the constants, r^a s^b memoized per
    instance (the tensor-power action asks for the same few powers many
    times), and printing."""

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

    def format(self, x):
        return str(x)


class SymbolicField(_Field):
    """Scalar interface for exact computation in Q(r, s)."""

    mode = "symbolic"

    def __init__(self):
        super().__init__(RatFunc._canonical(BiPoly.zero(), BiPoly.one()),
                         RatFunc._canonical(BiPoly.one(), BiPoly.one()),
                         RatFunc._canonical(BiPoly.term(1, 0), BiPoly.one()),
                         RatFunc._canonical(BiPoly.term(0, 1), BiPoly.one()))

    def from_int(self, m):
        return RatFunc.const(m)

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

    def from_int(self, m):
        return Fraction(m)

    def from_fraction(self, q):
        return Fraction(q)

    def __repr__(self):
        return f"SampledField(r={self.r}, s={self.s})"


@dataclass(frozen=True)
class ParamSpec:
    """Parameter configuration: symbolic indeterminates or sampled rationals."""

    mode: str = "sampled"
    r0: Fraction = Fraction(2)
    s0: Fraction = Fraction(3)

    def __post_init__(self):
        if self.mode not in ("symbolic", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "sampled":
            bad = genericity_check(self.r0, self.s0)
            if bad:
                raise GenericityError("; ".join(bad) + " violates genericity")

    def field(self):
        if self.mode == "symbolic":
            return SymbolicField()
        return SampledField(self.r0, self.s0)
