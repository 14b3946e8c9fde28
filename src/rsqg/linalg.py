"""Sparse exact linear algebra over an arbitrary scalar field.

Matrices are 1-based sparse dicts (i, j) -> nonzero scalar and act on
column vectors (dicts index -> scalar).  Echelon forms use trailing
pivots: the pivot of a row is its largest-index nonzero entry, and the
reduced form is the unique reduced echelon basis for that convention, so
equal subspaces have equal bases.

Matrix arithmetic runs on one column form over every field: columns
{j: {i: v}} over the lcm den of the entry denominators, with int values
over a positive int den over Q (the sampled field) and, over Q(r, s),
BiPoly values over a BiPoly den, all with int coefficients and den with
a positive leading coefficient: den is d L, L the lcm of the primitive
parts of the entry denominators and d a positive int that clears the
numerators' coefficients.  So the checks multiply and add integers or
integer polynomials and reduce no fraction per entry, and the exact
divisions of elimination stay over the integers (Gauss's lemma); the
entries of a result turn into Fractions or RatFuncs (canonical, with a
monic den, as ever) only when read.

All elimination is one column pass, _column_blocks: fraction-free
Gauss-Jordan elimination (Bareiss) on the numerator columns, each
connected component of the columns (two join when they share an index)
over its own pivot value D, with column j entered with a unit at index
-j, so that each row carries its history at negative indices.  One
read-out, _unit_rows, divides rows by D with unit pivots: the image in
Subspace.from_vectors (so contains_vector asks whether one more vector
raises the dimension) and in kernel_image_rank, and each kernel vector,
the history of a dependent column.  invert reads the inverse from the
histories of the rows.  No Fraction or RatFunc is formed while
eliminating: each entry of a result is read out once, as a numerator
over D.  Quotients need no elimination: QuotientData only holds coset
representatives and a projection, which rsqg.wedge builds directly from
its gain graph.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from .scalars import (_ONE_TERMS, BiPoly, RatFunc, _b_divexact, _b_gcd,
                      _fractional, _leading)

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


def padded_pair(mat, n, pos, count):
    """I^(pos-1) x mat x I^(count-pos-1) on V^{x count}, for mat on V x V
    and n = dim V: mat's numerator columns at each placement, over its den,
    so that no entry of mat is read."""
    den, cols = mat._form()
    return Matrix._from_form(n**count, n**count, (den, {
        place[j - 1]: {place[i - 1]: v for i, v in col.items()}
        for block in pair_placements(n, pos, count)
        for j, col in cols.items() for place in block}))


class Matrix:
    """Sparse matrix with 1-based indices over any exact scalar type.

    All arithmetic runs on the column form (den, {j: {i: v}}), entry
    (i, j) = v / den with no zero v, built from the entries on first use
    and cached in _q, since a Matrix is never mutated.  Over Q the values
    are ints over the positive lcm of the entry denominators; over Q(r, s)
    they are BiPoly numerators over a BiPoly lcm of the entry
    denominators, with int coefficients only and a positive leading
    coefficient (not monic, as a RatFunc den is), so that products and
    sums reduce no fraction and form no Fraction coefficient.  A result
    of arithmetic, or a matrix born in the form (_from_form, as the
    generators of a tensor power are), holds only _q until entries is
    read.  entries reads each distinct numerator out once; to_json does
    the same and keeps no entries, and repr counts from the form.
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
            read = _reader(den)
            ent = self._entries = {(i, j): read(v) for j, col in cols.items()
                                   for i, v in col.items()}
        return ent

    def _form(self):
        """(den, {j: {i: v}}) with entry (i, j) = v / den: den the lcm of
        the entry denominators and each v the entry times den.  Over Q den
        is a positive int and the values are ints.  Over Q(r, s) (when
        some entry is not an int or a Fraction) each entry enters as its
        integral pair (_integral_pair), so den is d L, L the lcm of the
        primitive parts of the entry denominators and d a positive int
        that clears every numerator coefficient, and den and every v
        are BiPolys with int coefficients, den with a positive leading
        coefficient.  Each entry's denominator is read once."""
        if self._q is not None:
            return self._q
        ent = self._entries
        if all(type(v) in _RATIONAL for v in ent.values()):
            dens = {v.denominator for v in ent.values()}
            den = reduce(lambda a, b: _lcm(a, b)[0], dens) if dens else 1
            cof = {d: _lcm(den, d)[2] for d in dens}
            cols = {}
            for (i, j), v in ent.items():
                m, p = cof[v.denominator], v.numerator
                cols.setdefault(j, {})[i] = p if m == 1 else p * m
            self._q = den, cols
            return self._q
        cols, keys = {}, {}
        for (i, j), v in ent.items():
            p, q = _integral_pair(v)
            cols.setdefault(j, {})[i] = p
            keys.setdefault(q, []).append((i, j))
        den = reduce(lambda a, b: _lcm(a, b)[0], keys)
        for q, at in keys.items():
            m = _lcm(den, q)[2]
            if m != 1:
                for i, j in at:
                    cols[j][i] *= m
        self._q = den, cols
        return self._q

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
        (den, cols), p, q = self._with_scalar(c)
        return Matrix._from_form(self.rows, self.cols, (
            den * q, _times(cols, p)))

    def _with_scalar(self, c):
        """(column form, p, q) with c = p / q: ints over Q, and over
        Q(r, s), with the form lifted, c's integral pair."""
        form = self._form()
        if type(form[0]) is int and type(c) in _RATIONAL:
            return form, c.numerator, c.denominator
        p, q = _integral_pair(c)
        return _lift(form, (q, {}))[0], p, q

    def _diagonal_twist(self, x, c):
        """Whether self is diagonal and self x = c x self, with no product:
        for c = p/q, q d_i == p d_j on self's diagonal numerators d where
        x_ij != 0 (a missing d_i is 0 and reads as None on both sides)."""
        (_, cols), p, q = self._with_scalar(c)
        diag = {j: col[j] for j, col in cols.items() if j in col}
        # diagonal: every column holds its diagonal entry and nothing else
        if not len(diag) == len(cols) == sum(map(len, cols.values())):
            return False
        left = right = diag
        if p != q:
            left = {i: q * v for i, v in diag.items()}
            right = {j: p * v for j, v in diag.items()}
        return not [i for j, col in x._form()[1].items() for i in col
                    if left.get(i) != right.get(j)]

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
                if not 1 <= j <= self.cols:
                    raise ValueError(f"vector index {j} out of range")
                continue
            for i, a in col.items():
                acc[i] = acc.get(i, 0) + x * a
        return _over(acc, den)

    def to_json(self):
        """The entries as [i, j, str] in row-major order; a matrix that
        holds only its column form prints each distinct numerator once
        and keeps no entries."""
        ent = self._entries
        if ent is None:
            den, cols = self._q
            text = _reader(den, str)
            rows = sorted([i, j, text(v)] for j, col in cols.items()
                          for i, v in col.items())
        else:
            rows = [[i, j, str(ent[(i, j)])] for (i, j) in sorted(ent)]
        return {"rows": self.rows, "cols": self.cols, "entries": rows}

    def __repr__(self):
        ent = self._entries
        nnz = (len(ent) if ent is not None
               else sum(map(len, self._q[1].values())))
        return f"Matrix({self.rows}x{self.cols}, nnz={nnz})"


def _reader(den, show=None):
    """v -> v / den for the numerators v of a column form, as _over reads
    them, each distinct v read out once (and passed through show, when
    given): one memo shared across the columns, keyed by the int or
    BiPoly numerator."""
    make = Fraction if type(den) is int else RatFunc
    memo = {}

    def read(v):
        x = memo.get(v)
        if x is None:
            x = make(v, den)
            x = memo[v] = x if show is None else show(x)
        return x
    return read


def _over(col, den):
    """The nonzero values v / den of a column as normalized Fractions over
    an int den, or canonical RatFuncs over a BiPoly den (a field value v,
    from apply, is divided)."""
    make = Fraction if type(den) is int else RatFunc
    return {i: make(v, den) if type(v) in (int, BiPoly)
            else v if den == 1 else v / den for i, v in col.items() if v}


def _integral_pair(x):
    """(p, q) with x = p / q for a Q(r, s) value x: BiPolys with int
    coefficients, q with a positive leading coefficient.  The canonical
    RatFunc has a monic den; both parts are multiplied by the least
    positive int k that clears their coefficients (k = 1 when they are
    integral already, and the pair is x's own)."""
    x = RatFunc._coerce(x)
    p, q = x.num, x.den
    pt, qt = p.terms, q.terms
    if not (_fractional(pt) or _fractional(qt)):
        return p, q
    k = lcm(*[c.denominator for t in (pt, qt) for c in t.values()])
    return tuple(BiPoly._raw({m: c.numerator * (k // c.denominator)
                              for m, c in t.items()}) for t in (pt, qt))


def _lcm(da, db):
    """(l, l / da, l / db) for the lcm l of two positive ints, or of two
    BiPolys with int coefficients and positive leading coefficients; l
    has the same kind, and a cofactor 1 is the int 1.

    Over Z[r, s], da = c_a P_a with c_a its integer content and P_a
    primitive, and the same for db.  With g the primitive gcd of P_a and
    P_b and h = gcd(c_a, c_b), the gcd is h g, and the cofactors db / (h g)
    and da / (h g) are integral (Gauss's lemma), so the exact divisions
    form no Fraction."""
    if da == db:
        return da, 1, 1
    if type(da) is int:
        q = Fraction(db, da)  # (l / da) / (l / db) in lowest terms
        return da * q.numerator, q.numerator, q.denominator
    ta, tb = da.terms, db.terms
    g = _b_gcd(ta, tb)
    h = gcd(*ta.values(), *tb.values())
    if g[_leading(g)] < 0:
        h = -h
    if h != 1:
        g = {m: h * c for m, c in g.items()}
    ma, mb = (1 if q == _ONE_TERMS else BiPoly._raw(q)
              for q in (_b_divexact(tb, g), _b_divexact(ta, g)))
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


def _unit_rows(rows, den, make):
    """{p: row p over den} on the indices 1 and above, for rows {p: row}
    that are den at their pivot p, each value read out by make(v, den);
    the pivots as make(1, 1), which needs no gcd.  den has the type of
    the values even while there is no row (it is then 1)."""
    one = 1 if type(den) is int else BiPoly.one()
    unit = make(one, one)
    return {p: {t: unit if t == p else make(v, den)
                for t, v in row.items() if t > 0}
            for p, row in rows.items()}


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
        """The span of the vectors: the image of the matrix whose columns
        they are, read out of its column elimination."""
        vectors = list(vectors)
        mat = Matrix(ambient_dim, len(vectors), {
            (i, j): v for j, vec in enumerate(vectors, 1)
            for i, v in vec.items()})
        make = _read_out(mat._form()[0])
        basis = {}
        for rows, den, _ in _column_blocks(mat):
            basis.update(_unit_rows(rows, den, make))
        return cls._from_rows(ambient_dim, basis)

    @classmethod
    def _from_rows(cls, ambient_dim, rows):
        """The Subspace of a canonical basis given as {pivot: vector}."""
        pivots = sorted(rows)
        return cls(ambient_dim, [rows[p] for p in pivots], pivots)

    @property
    def dim(self):
        return len(self.basis)

    def contains_vector(self, vec):
        return Subspace.from_vectors(self.ambient_dim,
                                     self.basis + [vec]).dim == self.dim

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.pivots == other.pivots
                and self.basis == other.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim} in {self.ambient_dim})"


def _column_blocks(mat):
    """Eliminate the numerator columns of mat, left to right within each
    component, column j with its history as a unit at -j: yield per
    component its rows {pivot: row}, their pivot value D and {j: h} for
    the columns j that reduced to zero, each h the vanishing combination.

    Bareiss (Math. Comp. 22, 1968) Gauss-Jordan with trailing pivots:
    every row is fully reduced and D at its pivot p, so row p over D is
    the reduced echelon basis vector with pivot p.  A column v reduces to
    D v - sum_p v[p] row_p, dividing nothing; a new pivot q of value c
    turns each row into (c row_p - row_p[q] v) / D, exact by Sylvester's
    identity, and c becomes D.  History indices, below 1, never pivot
    while a column has an entry at 1 or above.
    """
    den, cols = mat._form()
    one = 1 if type(den) is int else BiPoly.one()
    vecs = {j: cols.get(j, {}) for j in range(1, mat.cols + 1)}
    for block in _components(vecs):
        rows, d, dependent = {}, one, {}
        for j in block:
            vec = {**vecs[j], -j: one}
            if rows:
                vec = _combine(d, vec, [(vec[p], rows[p])
                                        for p in vec if p in rows])
            q = max(vec)
            if q < 1:
                dependent[j] = {-t: v for t, v in vec.items()}
                continue
            c = vec[q]
            div = _exact_division(d)
            for p, row in rows.items():
                bq = row.get(q)
                rows[p] = _combine(c, row, [(bq, vec)] if bq else (), div)
            rows[q], d = vec, c
        yield rows, d, dependent


def _kernel_blocks(mat, field):
    """_column_blocks with each component's kernel basis {j: vector}.

    The history h_j of dependent column j, the vanishing combination of
    the numerator columns, is supported on j and on earlier pivot
    columns, so the h_j over h_j[j] already form the reduced echelon
    basis of the kernel; each is read out in the type of field.
    """
    make = _read_out(mat._form()[0], field)
    for rows, d, dependent in _column_blocks(mat):
        yield rows, d, {j: _unit_rows({j: h}, h[j], make)[j]
                        for j, h in dependent.items()}


def kernel_image_rank(mat, field):
    """(kernel, image, rank) of a sparse matrix by one exact elimination.

    Columns are processed left to right within each component; each
    column either extends the echelon of the image or certifies a kernel
    vector (_kernel_blocks), so both bases are reduced and deterministic.
    The image basis has the type of the entries of mat (Fractions when
    they are ints or Fractions), the kernel basis that of field.
    """
    image, kernel = {}, {}
    make = _read_out(mat._form()[0])
    for rows, d, kernel_rows in _kernel_blocks(mat, field):
        image.update(_unit_rows(rows, d, make))
        kernel.update(kernel_rows)
    return (Subspace._from_rows(mat.cols, kernel),
            Subspace._from_rows(mat.rows, image), len(image))


def invert(mat, field):
    """Exact inverse of a square matrix; raises SingularInput.

    The echelon rows of an invertible block are its pivot value D times
    unit vectors.  So with N = den A the numerator columns (den the
    matrix's denominator), the history of row p, its negative part, over
    D is column p of N^-1, and den times it is column p of A^-1.
    """
    if mat.rows != mat.cols:
        raise SingularInput("only square matrices can be inverted")
    den = mat._form()[0]
    make = _read_out(den, field)
    ent = {}
    for rows, d, dependent in _column_blocks(mat):
        if dependent:
            raise SingularInput("matrix is singular")
        ent.update({(-t, p): make(v if den == 1 else den * v, d)
                    for p, row in rows.items() for t, v in row.items()
                    if t < 0})
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
