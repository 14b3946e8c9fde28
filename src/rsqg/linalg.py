"""Sparse exact linear algebra over an arbitrary scalar field.

Matrices are 1-based sparse dicts (i, j) -> nonzero scalar and act on
column vectors (dicts index -> scalar).  Echelon forms use trailing
pivots: the pivot of a row is its largest-index nonzero entry, and the
reduced form is the unique reduced echelon basis for that convention, so
equal subspaces have equal bases.

All elimination runs through one kernel, _Echelon: subspace spans and
membership, kernel/image/rank and the inverse.  Quotients need none:
QuotientData only holds coset representatives and a projection, which
rsqg.wedge builds directly from its gain graph.

Matrix arithmetic runs on one column form over every field: columns
{j: {i: v}} over the lcm den of the entry denominators, with int values
over a positive int den over Q (the sampled field) and BiPoly values
over a monic BiPoly den over Q(r, s).  So the checks multiply and add
integers or polynomials and reduce no fraction per entry; the entries of
a result turn into Fractions or RatFuncs only when read.
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
            ent = self._entries
            if not all(type(v) in _RATIONAL for v in ent.values()):
                ent = {k: RatFunc._coerce(v) for k, v in ent.items()}
            dens = {v.denominator for v in ent.values()}
            den = reduce(lambda a, b: _lcm(a, b)[0], dens) if dens else 1
            cof = {d: _lcm(den, d)[2] for d in dens}
            cols = {}
            for (i, j), v in ent.items():
                m, p = cof[v.denominator], v.numerator
                cols.setdefault(j, {})[i] = p if m == 1 else p * m
            q = self._q = (den, cols)
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


def _axpy(dst, c, src):
    # dst -= c * src, in place
    for t, v in src.items():
        cur = dst.get(t)
        nv = -(c * v) if cur is None else cur - c * v
        if nv:
            dst[t] = nv
        elif cur is not None:
            del dst[t]


class _Echelon:
    """Incremental echelon form with trailing pivots (pivot = max index).

    With history=True every pivot row also carries a history row: the
    combination of the histories handed to insert that the pivot row
    equals.  Reduction and back_reduce update histories alongside rows.
    """

    __slots__ = ("rows", "hist")

    def __init__(self, rows=None, history=False):
        self.rows = {} if rows is None else rows
        self.hist = {} if history else None

    def reduce(self, vec, hist=None):
        """Forward-reduce vec (and hist alongside it) in place; return the
        pivot of vec, or None if it reduced to zero (dependent)."""
        while vec:
            p = max(vec)
            row = self.rows.get(p)
            if row is None:
                return p
            if hist is not None:
                _axpy(hist, vec[p], self.hist[p])
            _axpy(vec, vec[p], row)
        return None

    def insert(self, vec, hist=None):
        """Insert a copy of vec; return the new pivot, or None if dependent
        (hist is reduced in place: then it is a vanishing combination)."""
        vec = dict(vec)
        p = self.reduce(vec, hist)
        if p is None:
            return None
        c = vec[p]
        c = Fraction(c) if type(c) is int else c  # int / int is a float
        self.rows[p] = {t: v / c for t, v in vec.items()}
        if hist is not None:
            self.hist[p] = {t: v / c for t, v in hist.items()}
        return p

    def back_reduce(self):
        # rows with pivot p only carry entries below p, so processing pivots
        # in increasing order fully reduces in one pass
        for p in sorted(self.rows):
            row = self.rows[p]
            hits = [q for q in row if q != p and q in self.rows]
            for q in hits:
                if self.hist is not None:
                    _axpy(self.hist[p], row[q], self.hist[q])
                _axpy(row, row[q], self.rows[q])

    @property
    def rank(self):
        return len(self.rows)


class Subspace:
    """Subspace of F^N with its canonical reduced echelon basis.

    basis vectors are monic at their (trailing) pivot, fully reduced, and
    listed with pivots strictly increasing, so equal subspaces have equal
    bases.
    """

    __slots__ = ("ambient_dim", "basis", "pivots", "_ech")

    def __init__(self, ambient_dim, basis, pivots):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots
        self._ech = None

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        ech = _Echelon()
        for v in vectors:
            ech.insert(v)
        ech.back_reduce()
        pivots = sorted(ech.rows)
        return cls(ambient_dim, [ech.rows[p] for p in pivots], pivots)

    @property
    def dim(self):
        return len(self.basis)

    def contains_vector(self, vec):
        if self._ech is None:
            self._ech = _Echelon(dict(zip(self.pivots, self.basis)))
        return self._ech.reduce(dict(vec)) is None

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


def _dependent_columns(mat, field, ech):
    """Insert the columns of mat left to right into ech (which tracks
    history) and yield the kernel vector each dependent column certifies:
    its history, the combination of original columns that vanishes."""
    for j in range(1, mat.cols + 1):
        h = {j: field.one}
        if ech.insert(mat.col(j), h) is None:
            yield h


def kernel_image_rank(mat, field):
    """(kernel, image, rank) of a sparse matrix by exact elimination.

    Columns are processed left to right; each column either extends the
    echelon of the image or certifies a kernel vector through the recorded
    combination of original columns (deterministic output).
    """
    ech = _Echelon(history=True)
    kernel_vecs = list(_dependent_columns(mat, field, ech))
    # the image needs no histories; back-reducing them costs an inverse
    ech.hist = None
    ech.back_reduce()
    pivots = sorted(ech.rows)
    image = Subspace(mat.rows, [ech.rows[p] for p in pivots], pivots)
    kernel = Subspace.from_vectors(mat.cols, kernel_vecs)
    return kernel, image, ech.rank


def invert(mat, field):
    """Exact inverse of a square matrix; raises SingularInput.

    After back reduction the echelon rows of an invertible matrix are the
    unit vectors, so the history of pivot p is column p of the inverse.
    """
    if mat.rows != mat.cols:
        raise SingularInput("only square matrices can be inverted")
    ech = _Echelon(history=True)
    for _ in _dependent_columns(mat, field, ech):
        raise SingularInput("matrix is singular")
    ech.back_reduce()
    ent = {(t, p): v for p, h in ech.hist.items() for t, v in h.items()}
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
