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

Matrices over Q, the sampled field, have a second representation:
integer columns over one positive common denominator, so that the
products, sums and comparisons of the sampled checks multiply ints and
normalize no Fraction per entry.  Matrix builds it from the entries on
first use when every entry is an int or a Fraction; any other entry (a
RatFunc) keeps the generic path.  Results of that arithmetic turn into
normalized Fractions only when their entries are read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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

    Over Q its integer form (den, {j: {i: int}}) is cached in _q like the
    column index in _colidx, since a Matrix is never mutated; a result of
    integer arithmetic holds only _q until entries is read.
    """

    __slots__ = ("rows", "cols", "_entries", "_colidx", "_q")

    def __init__(self, rows, cols, entries=None, _clean=False):
        rows, cols = int(rows), int(cols)
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        self.rows = rows
        self.cols = cols
        self._colidx = None
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
    def _from_ints(cls, rows, cols, q):
        mat = cls.__new__(cls)
        mat.rows, mat.cols = rows, cols
        mat._entries = mat._colidx = None
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
        """The dict (i, j) -> nonzero scalar; normalized Fractions for a
        matrix that only holds the integer form."""
        ent = self._entries
        if ent is None:
            den, cols = self._q
            ent = self._entries = {(i, j): Fraction(v, den)
                                   for j, col in cols.items()
                                   for i, v in col.items()}
        return ent

    def _ints(self):
        """(den, {j: {i: int}}) with entry (i, j) = int / den, or False if
        some entry is not rational (the first entry of a Q(r, s) matrix
        already is not, so that costs one type check)."""
        q = self._q
        if q is None:
            ent = self._entries
            if all(type(v) in _RATIONAL for v in ent.values()):
                den = lcm(*{v.denominator for v in ent.values()})
                cols = {}
                for (i, j), v in ent.items():
                    cols.setdefault(j, {})[i] = v.numerator * (den // v.denominator)
                q = (den, cols)
            else:
                q = False
            self._q = q
        return q

    def get(self, i, j):
        return self.entries.get((i, j))

    def is_zero(self):
        if self._entries is None:
            return not self._q[1]
        return not self._entries

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        qa = self._ints()
        qb = qa and other._ints()
        if not qb:
            return self.entries == other.entries
        if qa[0] == qb[0]:
            return qa[1] == qb[1]
        # cross-multiplied: A - B over the common denominator vanishes
        return not _int_sum(qa, qb, -1)[1]

    def __neg__(self):
        if self._ints():
            return self.scale(-1)
        return Matrix(self.rows, self.cols,
                      {k: -v for k, v in self.entries.items()}, _clean=True)

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def _add(self, other, sign):
        # self + sign * other
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in matrix sum")
        qa = self._ints()
        qb = qa and other._ints()
        if qb:
            return Matrix._from_ints(self.rows, self.cols, _int_sum(qa, qb, sign))
        if sign < 0:
            other = -other
        out = dict(self.entries)
        for k, v in other.entries.items():
            cur = out.get(k)
            nv = v if cur is None else cur + v
            if nv:
                out[k] = nv
            elif cur is not None:
                del out[k]
        return Matrix(self.rows, self.cols, out, _clean=True)

    def scale(self, c):
        if not c:
            return Matrix.zero(self.rows, self.cols)
        q = type(c) in _RATIONAL and self._ints()
        if q:
            den, cols = q
            num = c.numerator
            return Matrix._from_ints(self.rows, self.cols, (den * c.denominator, {
                j: {i: num * v for i, v in col.items()} for j, col in cols.items()}))
        return Matrix(self.rows, self.cols,
                      {k: c * v for k, v in self.entries.items()}, _clean=True)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        qa = self._ints()
        qb = qa and other._ints()
        if qb:
            return Matrix._from_ints(self.rows, other.cols, _int_product(qa, qb))
        bycol = self._columns()
        out = {}
        for (k, j), b in other.entries.items():
            col = bycol.get(k)
            if not col:
                continue
            for i, a in col.items():
                key = (i, j)
                cur = out.get(key)
                nv = a * b if cur is None else cur + a * b
                if nv:
                    out[key] = nv
                elif cur is not None:
                    del out[key]
        return Matrix(self.rows, other.cols, out, _clean=True)

    def kron(self, other):
        rb, cb = other.rows, other.cols
        out = {}
        for (i, j), a in self.entries.items():
            br = (i - 1) * rb
            bc = (j - 1) * cb
            for (p, q), b in other.entries.items():
                out[(br + p, bc + q)] = a * b
        return Matrix(self.rows * rb, self.cols * cb, out, _clean=True)

    def _columns(self):
        if self._colidx is None:
            cols = {}
            for (i, j), v in self.entries.items():
                cols.setdefault(j, {})[i] = v
            self._colidx = cols
        return self._colidx

    def col(self, j):
        return dict(self._columns().get(j, {}))

    def apply(self, vec):
        """Matrix times column vector (dict index -> scalar)."""
        cols = self._columns()
        out = {}
        for j, x in vec.items():
            col = cols.get(j)
            if not col:
                continue
            for i, a in col.items():
                cur = out.get(i)
                nv = a * x if cur is None else cur + a * x
                if nv:
                    out[i] = nv
                elif cur is not None:
                    del out[i]
        return out

    def to_json(self):
        ent = self.entries
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[i, j, str(ent[(i, j)])] for (i, j) in sorted(ent)],
        }

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def _int_product(qa, qb):
    """Integer form of A B from those of A and B."""
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
        if 0 in acc.values():
            acc = {i: v for i, v in acc.items() if v}
        if acc:
            out[j] = acc
    return da * db, out


def _int_sum(qa, qb, sign):
    """Integer form of A + sign B over the least common denominator."""
    (da, ca), (db, cb) = qa, qb
    g = gcd(da, db)
    ma, mb = db // g, sign * (da // g)
    out = {j: {i: ma * v for i, v in col.items()} if ma != 1 else dict(col)
           for j, col in ca.items()}
    for j, col in cb.items():
        acc = out.get(j)
        if acc is None:
            out[j] = {i: mb * v for i, v in col.items()}
            continue
        for i, v in col.items():
            acc[i] = acc.get(i, 0) + mb * v
        if 0 in acc.values():
            acc = {i: v for i, v in acc.items() if v}
            if acc:
                out[j] = acc
            else:
                del out[j]
    return da * ma, out


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
    cols = mat._columns()
    for j in range(1, mat.cols + 1):
        h = {j: field.one}
        if ech.insert(cols.get(j, {}), h) is None:
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
