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
"""

from __future__ import annotations


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


class Matrix:
    """Sparse matrix with 1-based indices over any exact scalar type."""

    __slots__ = ("rows", "cols", "entries", "_colidx")

    def __init__(self, rows, cols, entries=None, _clean=False):
        rows, cols = int(rows), int(cols)
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        self.rows = rows
        self.cols = cols
        self._colidx = None
        if entries is None:
            self.entries = {}
        elif _clean:
            self.entries = entries
        else:
            clean = {}
            for (i, j), v in entries.items():
                if not (1 <= i <= rows and 1 <= j <= cols):
                    raise ValueError(f"entry ({i}, {j}) out of range")
                if v:
                    clean[(i, j)] = v
            self.entries = clean

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

    def get(self, i, j):
        return self.entries.get((i, j))

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __neg__(self):
        return Matrix(self.rows, self.cols,
                      {k: -v for k, v in self.entries.items()}, _clean=True)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in matrix sum")
        out = dict(self.entries)
        for k, v in other.entries.items():
            cur = out.get(k)
            nv = v if cur is None else cur + v
            if nv:
                out[k] = nv
            elif cur is not None:
                del out[k]
        return Matrix(self.rows, self.cols, out, _clean=True)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return Matrix.zero(self.rows, self.cols)
        return Matrix(self.rows, self.cols,
                      {k: c * v for k, v in self.entries.items()}, _clean=True)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
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
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[i, j, str(self.entries[(i, j)])]
                        for (i, j) in sorted(self.entries)],
        }

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


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
