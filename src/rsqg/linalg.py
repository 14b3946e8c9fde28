"""Sparse exact linear algebra over an arbitrary scalar field.

Matrices are 1-based sparse dicts (i, j) -> nonzero scalar and act on
column vectors (dicts index -> scalar).  Echelon forms use trailing
pivots: the pivot of a row is its largest-index nonzero entry, and the
reduced form is the unique reduced echelon basis for that convention, so
equal subspaces have equal bases.

Matrix arithmetic runs on one column form over every field: columns
{j: {i: v}} over the lcm den of the entry denominators, with int values
over a positive int den over Q (the sampled field) and BiPoly values
over a monic BiPoly den over Q(r, s).  So the checks multiply and add
integers or polynomials and reduce no fraction per entry; the entries of
a result turn into Fractions or RatFuncs only when read.

All elimination runs through one kernel, _Echelon: subspace spans and
membership, kernel/image/rank and the inverse.  It is fraction-free
Gauss-Jordan elimination (Bareiss) on those numerator values: its rows
stay fully reduced and share one pivot value D, the determinant of the
pivot minor, and its only divisions, by D, are exact.  kernel_image_rank,
invert and Subspace.from_vectors first split their columns or vectors
into the connected components of the graph that joins two sharing an
index, and give each component its own echelon and its own D.  No
Fraction or RatFunc is formed while eliminating: each entry of a result
is read out once, as a numerator over D.  Quotients need no elimination:
QuotientData only holds coset representatives and a projection, which
rsqg.wedge builds directly from its gain graph.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .scalars import (_ONE_TERMS, BiPoly, RatFunc, _b_divexact, _b_gcd,
                      _div, _leading)

_RATIONAL = frozenset((int, Fraction))


class SingularInput(ValueError):
    """A matrix required to be invertible is singular."""


def tensor_index(tup, n):
    """Position of v_{i1} x ... x v_{ik} in the lexicographic tensor basis."""
    idx = 0
    for t in tup:
        idx = idx * n + (t - 1)
    return idx + 1


def tensor_tuple(index, n, k):
    """Inverse of tensor_index."""
    index -= 1
    out = []
    for _ in range(k):
        out.append(index % n + 1)
        index //= n
    out.reverse()
    return tuple(out)


def pair_placements(n, pos, count):
    """V x V on factors (pos, pos + 1) of V^{x count}: index l goes to
    place[l - 1] = o + (l - 1) * stride, one place per basis tuple of the
    other factors, in lexicographic order grouped by the factors before pos."""
    stride = n**(count - pos - 1)
    block = n * n * stride
    return [[range(o, o + block, stride) for o in range(a, a + stride)]
            for a in range(1, n**count + 1, block)]


class Matrix:
    """Sparse matrix with 1-based indices over any exact scalar type.

    All arithmetic runs on the column form (den, {j: {i: v}}), entry
    (i, j) = v / den with no zero v, built from the entries on first use
    and cached in _q, since a Matrix is never mutated.  Over Q the values
    are ints over the positive lcm of the entry denominators; over Q(r, s)
    they are BiPoly numerators over the monic BiPoly lcm of the entry
    denominators, so that products and sums reduce no fraction.  A result
    of arithmetic holds only _q until entries is read.
    """

    __slots__ = ("rows", "cols", "_entries", "_q")

    def __init__(self, rows, cols, entries=None, _clean=False):
        rows, cols = int(rows), int(cols)
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        self.rows = rows
        self.cols = cols
        self._q = None
        if entries is None:
            self._entries = {}
        elif _clean:
            self._entries = entries
        else:
            clean = {}
            for (i, j), v in entries.items():
                if not (1 <= i <= rows and 1 <= j <= cols):
                    raise ValueError(f"entry ({i}, {j}) out of range")
                if v:
                    clean[(i, j)] = v
            self._entries = clean

    @classmethod
    def _from_form(cls, rows, cols, q):
        mat = cls.__new__(cls)
        mat.rows, mat.cols = rows, cols
        mat._entries = None
        mat._q = q
        return mat

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, {}, _clean=True)

    @classmethod
    def identity(cls, n, one):
        return cls(n, n, {(i, i): one for i in range(1, n + 1)}, _clean=True)

    @classmethod
    def diagonal(cls, values):
        n = len(values)
        ent = {(i, i): v for i, v in enumerate(values, 1) if v}
        return cls(n, n, ent, _clean=True)

    @property
    def entries(self):
        """The dict (i, j) -> nonzero scalar; normalized Fractions over Q
        and canonical RatFuncs over Q(r, s) for a result of arithmetic."""
        ent = self._entries
        if ent is None:
            den, cols = self._q
            ent = self._entries = {(i, j): v for j, col in cols.items()
                                   for i, v in _over(col, den).items()}
        return ent

    def _form(self):
        """(den, {j: {i: v}}) with entry (i, j) = v / den."""
        q = self._q
        if q is None:
            q = self._q = _column_form(self._entries)
        return q

    def get(self, i, j):
        return self.entries.get((i, j))

    def is_zero(self):
        return not self._form()[1]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        (da, ca), (db, cb) = _lift(self._form(), other._form())
        _, ma, mb = _lcm(da, db)  # both over the least common denominator
        return _times(ca, ma) == _times(cb, mb)

    def __neg__(self):
        return self.scale(-1)

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def _add(self, other, sign):
        # self + sign * other
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in matrix sum")
        return Matrix._from_form(self.rows, self.cols,
                                 _sum(*_lift(self._form(), other._form()),
                                      sign))

    def scale(self, c):
        if not c:
            return Matrix.zero(self.rows, self.cols)
        q = self._form()
        if type(q[0]) is not int or type(c) not in _RATIONAL:
            c = RatFunc._coerce(c)
            q = _lift(q, (c.den, {}))[0]  # over Q(r, s), as c is
        return Matrix._from_form(self.rows, self.cols, (
            q[0] * c.denominator, _times(q[1], c.numerator)))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        return Matrix._from_form(self.rows, other.cols,
                                 _product(*_lift(self._form(), other._form())))

    def kron(self, other):
        rb, cb = other.rows, other.cols
        out = {}
        for (i, j), a in self.entries.items():
            br = (i - 1) * rb
            bc = (j - 1) * cb
            for (p, q), b in other.entries.items():
                out[(br + p, bc + q)] = a * b
        return Matrix(self.rows * rb, self.cols * cb, out, _clean=True)

    def col(self, j):
        den, cols = self._form()
        return _over(cols.get(j, {}), den)

    def apply(self, vec):
        """Matrix times column vector (dict index -> scalar)."""
        den, cols = self._form()
        if type(den) is not int:  # Fraction * BiPoly is undefined
            vec = {j: RatFunc._coerce(x) for j, x in vec.items()}
        acc = {}
        for j, x in vec.items():
            col = cols.get(j)
            if col is None:
                continue
            for i, a in col.items():
                acc[i] = acc.get(i, 0) + x * a
        return _over(acc, den)

    def to_json(self):
        ent = self.entries
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[i, j, str(ent[(i, j)])] for (i, j) in sorted(ent)],
        }

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def _column_form(ent):
    """(den, {j: {i: v}}) for a dict (i, j) -> nonzero scalar: den the
    lcm of the entry denominators, an int over Q and a monic BiPoly over
    Q(r, s) (when some entry is not an int or a Fraction), and each v the
    entry times den, an int or a BiPoly numerator."""
    if not all(type(v) in _RATIONAL for v in ent.values()):
        ent = {k: RatFunc._coerce(v) for k, v in ent.items()}
    dens = {v.denominator for v in ent.values()}
    den = reduce(lambda a, b: _lcm(a, b)[0], dens) if dens else 1
    cof = {d: _lcm(den, d)[2] for d in dens}
    cols = {}
    for (i, j), v in ent.items():
        m, p = cof[v.denominator], v.numerator
        cols.setdefault(j, {})[i] = p if m == 1 else p * m
    return den, cols


def _over(col, den):
    """The nonzero values v / den of a column as normalized Fractions over
    an int den, or canonical RatFuncs over a BiPoly den (a field value v,
    from apply, is divided)."""
    make = Fraction if type(den) is int else RatFunc
    return {i: make(v, den) if type(v) in (int, BiPoly)
            else v if den == 1 else v / den for i, v in col.items() if v}


def _lcm(da, db):
    """(l, l / da, l / db) for the lcm l of two positive ints or two monic
    BiPolys; l is monic too, and a cofactor 1 is the int 1."""
    if da == db:
        return da, 1, 1
    if type(da) is int:
        q = Fraction(db, da)  # (l / da) / (l / db) in lowest terms
        return da * q.numerator, q.numerator, q.denominator
    g = _b_gcd(da.terms, db.terms)
    lc = g[_leading(g)]
    g = {m: _div(c, lc) for m, c in g.items()}
    ma, mb = (1 if q == _ONE_TERMS else BiPoly._raw(q)
              for q in (_b_divexact(db.terms, g), _b_divexact(da.terms, g)))
    return (da if ma == 1 else da * ma), ma, mb


def _lift(*qs):
    """The column forms qs, those over Q as constant polynomials if one
    is over Q(r, s)."""
    if all(type(q[0]) is int for q in qs):
        return qs
    c = BiPoly.const
    return [(c(den), {j: {i: c(v) for i, v in col.items()}
                      for j, col in cols.items()})
            if type(den) is int else (den, cols) for den, cols in qs]


def _times(cols, m):
    """Columns m * cols; a factor of 1 or -1 multiplies nothing, and a
    factor of 1 shares the columns (no column of a form is mutated)."""
    if m == 1:
        return dict(cols)
    if m == -1:
        return {j: {i: -v for i, v in col.items()} for j, col in cols.items()}
    return {j: {i: m * v for i, v in col.items()} for j, col in cols.items()}


def _product(qa, qb):
    """Column form of A B from those of A and B."""
    (da, ca), (db, cb) = qa, qb
    out = {}
    for j, bcol in cb.items():
        acc = {}
        for k, b in bcol.items():
            acol = ca.get(k)
            if acol is None:
                continue
            for i, a in acol.items():
                acc[i] = acc.get(i, 0) + a * b
        if not all(acc.values()):
            acc = {i: v for i, v in acc.items() if v}
        if acc:
            out[j] = acc
    return da * db, out


def _sum(qa, qb, sign):
    """Column form of A + sign B over the least common denominator."""
    (da, ca), (db, cb) = qa, qb
    den, ma, mb = _lcm(da, db)
    mb = mb if sign > 0 else -mb
    out = _times(ca, ma)
    for j, col in cb.items():
        acc = dict(out.get(j, {}))
        if mb == 1:
            for i, v in col.items():
                acc[i] = acc.get(i, 0) + v
        elif mb == -1:
            for i, v in col.items():
                acc[i] = acc.get(i, 0) - v
        else:
            for i, v in col.items():
                acc[i] = acc.get(i, 0) + mb * v
        if not all(acc.values()):
            acc = {i: v for i, v in acc.items() if v}
        if acc:
            out[j] = acc
        else:
            out.pop(j, None)
    return den, out


def _exact_division(d):
    """x -> x / d for the numerators x that d divides: // over the ints,
    _b_divexact over Q(r, s)."""
    if type(d) is int:
        return lambda x: x // d
    dt = d.terms
    return lambda x: BiPoly._raw(_b_divexact(x.terms, dt))


def _read_out(den, field=None):
    """(v, d) -> the scalar v / d: a Fraction over an int den (a RatFunc
    constant if field is symbolic), a RatFunc over a BiPoly den."""
    if type(den) is not int:
        return RatFunc
    if field is None or type(field.one) is Fraction:
        return Fraction
    return lambda v, d: field.from_fraction(Fraction(v, d))


class _Echelon:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968) with trailing pivots (pivot = max index).

    Values are numerators: ints, or BiPolys over Q(r, s).  Every row is
    fully reduced and carries the same pivot value den, the determinant
    of the pivot minor (1 while there is no row), so row p over den is
    the reduced echelon basis vector with pivot p.  A vector reduces as
    den v - sum_p v[p] row_p, which divides nothing.  A new pivot q of
    value c turns every row into (c row_p - row_p[q] v) / den, a division
    that is exact by Sylvester's identity, and c becomes den.  With
    history=True every row also carries its history, the combination of
    the histories handed to add that it equals, reduced and updated the
    same way.  Nothing is divided into a Fraction or RatFunc here: a
    caller reads a value once, over den.
    """

    __slots__ = ("rows", "hist", "den")

    def __init__(self, rows=None, den=1, history=False):
        self.rows = {} if rows is None else rows
        self.den = den
        self.hist = {} if history else None

    def reduce(self, vec, hist=None):
        """(den vec - sum_p vec[p] row_p, the same of hist): vec reduced
        against every row, zero exactly when vec is dependent (then hist
        is a vanishing combination); vec itself while there is no row."""
        rows = self.rows
        if not rows:
            return vec, hist
        d = self.den
        hits = [(vec[p], p) for p in vec if p in rows]
        out = _combine(d, vec, [(c, rows[p]) for c, p in hits])
        if hist is not None:
            hist = _combine(d, hist, [(c, self.hist[p]) for c, p in hits])
        return out, hist

    def add(self, vec, hist=None):
        """Make vec, reduced and nonzero, the row of its pivot; return the
        pivot."""
        q = max(vec)
        c = vec[q]
        div = _exact_division(self.den)
        for p, row in self.rows.items():
            bq = row.get(q)
            self.rows[p] = _combine(c, row, [(bq, vec)] if bq else (), div)
            if hist is not None:
                self.hist[p] = _combine(c, self.hist[p],
                                        [(bq, hist)] if bq else (), div)
        self.rows[q] = vec
        if hist is not None:
            self.hist[q] = hist
        self.den = c
        return q

    def insert(self, vec):
        """Add vec; return its new pivot, or None if it is dependent."""
        vec, _ = self.reduce(vec)
        return self.add(vec) if vec else None

    def basis(self, make):
        """{p: row p over den}, each value read out by make(v, den); the
        pivots, where v is den, as make(1, 1), which needs no gcd."""
        if not self.rows:
            return {}
        d = self.den
        one = 1 if type(d) is int else BiPoly.one()
        unit = make(one, one)
        return {p: {t: unit if t == p else make(v, d) for t, v in row.items()}
                for p, row in self.rows.items()}

    @property
    def rank(self):
        return len(self.rows)


def _combine(c, vec, terms, div=None):
    """(c vec - sum of a src over the pairs (a, src) of terms) / div."""
    out = {t: c * v for t, v in vec.items()}
    for a, src in terms:
        for t, v in src.items():
            x = out.get(t)
            x = -(a * v) if x is None else x - a * v
            if x:
                out[t] = x
            else:
                del out[t]
    return out if div is None else {t: div(v) for t, v in out.items()}


def _components(vecs):
    """The keys of vecs, a dict key -> sparse vector, grouped into the
    connected components of the graph that joins two vectors sharing an
    index, each group in the order of vecs.  Each component is eliminated
    on its own, with its own den: one den for a block-diagonal matrix
    would be the product of every block's determinant."""
    parent, owner = {}, {}

    def find(k):
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    for k, vec in vecs.items():
        parent[k] = k
        for i in vec:
            o = owner.setdefault(i, k)
            if o != k:
                parent[find(k)] = find(o)
    groups = {}
    for k in vecs:
        groups.setdefault(find(k), []).append(k)
    return list(groups.values())


def _span(ambient_dim, vecs, make):
    """The Subspace spanned by the numerator vectors vecs (a dict), one
    echelon per component, with values read out by make."""
    basis = {}
    for block in _components(vecs):
        ech = _Echelon()
        for k in block:
            ech.insert(vecs[k])
        basis.update(ech.basis(make))
    pivots = sorted(basis)
    return Subspace(ambient_dim, [basis[p] for p in pivots], pivots)


def _numerators(vec):
    """A vector times the lcm of its denominators: ints over Q, BiPolys
    over Q(r, s)."""
    return _column_form({(i, 1): v for i, v in vec.items() if v})[1].get(1, {})


class Subspace:
    """Subspace of F^N with its canonical reduced echelon basis.

    basis vectors are monic at their (trailing) pivot, fully reduced, and
    listed with pivots strictly increasing, so equal subspaces have equal
    bases.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim, basis, pivots):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        den, cols = _column_form({(i, j): v for j, vec in enumerate(vectors)
                                  for i, v in vec.items() if v})
        return _span(ambient_dim, cols, _read_out(den))

    @property
    def dim(self):
        return len(self.basis)

    def contains_vector(self, vec):
        # the basis over one den (each row is den at its pivot) and vec
        # as column 0, so that both have the same numerator type
        ent = {(i, p): v for p, row in zip(self.pivots, self.basis)
               for i, v in row.items()}
        ent.update({(i, 0): v for i, v in vec.items() if v})
        den, cols = _column_form(ent)
        vec = cols.pop(0, {})
        return not _Echelon(cols, den).reduce(vec)[0]

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.pivots == other.pivots
                and self.basis == other.basis)

    def basis_matrix(self):
        """ambient_dim x dim matrix whose columns are the basis vectors."""
        ent = {}
        for j, vec in enumerate(self.basis, 1):
            for i, v in vec.items():
                ent[(i, j)] = v
        return Matrix(self.ambient_dim, len(self.basis), ent, _clean=True)

    def __repr__(self):
        return f"Subspace(dim={self.dim} in {self.ambient_dim})"


def _column_blocks(mat):
    """Eliminate the numerator columns of mat, left to right within each
    component: yield per component its echelon, whose histories are over
    the columns, and {j: h} for the columns j that reduced to zero, each
    h the combination of numerator columns that vanishes."""
    den, cols = mat._form()
    one = 1 if type(den) is int else BiPoly.one()
    vecs = {j: cols.get(j, {}) for j in range(1, mat.cols + 1)}
    for block in _components(vecs):
        ech = _Echelon(history=True)
        dependent = {}
        for j in block:
            vec, h = ech.reduce(vecs[j], {j: one})
            if vec:
                ech.add(vec, h)
            else:
                dependent[j] = h
        yield ech, dependent


def kernel_image_rank(mat, field):
    """(kernel, image, rank) of a sparse matrix by exact elimination.

    Columns are processed left to right within each component; each
    column either extends the echelon of the image or certifies a kernel
    vector through the recorded combination of original columns
    (deterministic output).  The image basis has the type of the entries
    of mat (Fractions when they are ints or Fractions), the kernel basis
    that of field.
    """
    image, kernel = {}, {}
    den = mat._form()[0]
    make = _read_out(den)
    for ech, dependent in _column_blocks(mat):
        image.update(ech.basis(make))
        kernel.update(dependent)
    pivots = sorted(image)
    return (_span(mat.cols, kernel, _read_out(den, field)),
            Subspace(mat.rows, [image[p] for p in pivots], pivots),
            len(image))


def invert(mat, field):
    """Exact inverse of a square matrix; raises SingularInput.

    The echelon rows of an invertible block are its pivot value D times
    unit vectors.  So with N = den A the numerator columns (den the
    matrix's denominator), the history of pivot p over D is column p of
    N^-1, and den times it is column p of A^-1.
    """
    if mat.rows != mat.cols:
        raise SingularInput("only square matrices can be inverted")
    den = mat._form()[0]
    make = _read_out(den, field)
    ent = {}
    for ech, dependent in _column_blocks(mat):
        if dependent:
            raise SingularInput("matrix is singular")
        d = ech.den
        for p, h in ech.hist.items():
            for t, v in h.items():
                ent[(t, p)] = make(v if den == 1 else den * v, d)
    return Matrix(mat.rows, mat.cols, ent, _clean=True)


class QuotientData:
    """Coset data of a quotient of an ambient space: rep_indices are the
    ambient coordinates kept as representatives, in increasing order, and
    projection is the matrix from the ambient space onto them that kills
    the subspace and is the identity on representative coordinates."""

    __slots__ = ("rep_indices", "projection")

    def __init__(self, rep_indices, projection):
        self.rep_indices = rep_indices
        self.projection = projection

    def project_vector(self, vec):
        """Image of an ambient vector in representative coordinates."""
        return self.projection.apply(vec)
