"""Shared test utilities: independent dense oracles and random generators.

The dense routines deliberately do not reuse the library's sparse
elimination, so ranks and products can be cross-checked against a
separate implementation.
"""

from fractions import Fraction

from rsqg import BiPoly, Matrix, RatFunc


def dense_rank(vectors, ncols):
    """Rank of a list of sparse dicts by dense fraction-free elimination."""
    rows = []
    for vec in vectors:
        row = [Fraction(0)] * ncols
        for j, v in vec.items():
            row[j - 1] = Fraction(v)
        rows.append(row)
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col] / lead
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def dense_mul(a, b):
    """Dense product of two lists-of-lists over Fractions."""
    n, m, p = len(a), len(b), len(b[0])
    assert len(a[0]) == m
    return [[sum(a[i][t] * b[t][j] for t in range(m)) for j in range(p)]
            for i in range(n)]


def to_dense(mat):
    out = [[Fraction(0)] * mat.cols for _ in range(mat.rows)]
    for (i, j), v in mat.entries.items():
        out[i - 1][j - 1] = Fraction(v)
    return out


def from_dense(rows):
    ent = {}
    for i, row in enumerate(rows, 1):
        for j, v in enumerate(row, 1):
            if v:
                ent[(i, j)] = Fraction(v)
    return Matrix(len(rows), len(rows[0]) if rows else 0, ent)


def random_sparse(rng, rows, cols, fill=0.4):
    ent = {}
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            if rng.random() < fill:
                v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if v:
                    ent[(i, j)] = v
    return Matrix(rows, cols, ent)


def random_bipoly(rng, max_deg=2, terms=3):
    out = BiPoly.zero()
    for _ in range(terms):
        a = rng.randint(0, max_deg)
        b = rng.randint(0, max_deg)
        c = rng.randint(-3, 3)
        out = out + BiPoly.term(a, b, c)
    return out


def random_ratfunc(rng):
    num = random_bipoly(rng)
    den = BiPoly.zero()
    while not den:
        den = random_bipoly(rng)
    return RatFunc(num, den)


def kron_tensor_power(n, k, field):
    """Generator matrices of the coproduct action on V^{x k}, as chains of
    Kronecker products of the natural module's matrices:
        e_i |-> sum_j w_i^(j-1 factors) x e_i x 1...,
        f_i |-> sum_j 1... x f_i x w_i'^(k-j factors),
    and w_i, w_i' (and their inverses) as k-fold Kronecker powers.  An
    independent reference for rsqg.tensor_power_rep."""
    one, r, s = field.one, field.r, field.s

    def diag(i, a, b):
        vals = [one] * n
        vals[i - 1], vals[i] = a, b
        return Matrix.diagonal(vals)

    ids = [Matrix.identity(n**m, one) for m in range(k)]
    gens = {}
    for i in range(1, n):
        E = Matrix(n, n, {(i, i + 1): one})
        F = Matrix(n, n, {(i + 1, i): one})
        group_likes = {f"w{i}": diag(i, r, s), f"wp{i}": diag(i, s, r),
                       f"w{i}_inv": diag(i, r**-1, s**-1),
                       f"wp{i}_inv": diag(i, s**-1, r**-1)}
        powers = {}
        for name, mat in group_likes.items():
            powers[name] = [ids[0]]
            for _ in range(k):
                powers[name].append(powers[name][-1].kron(mat))
            gens[name] = powers[name][k]
        emat = fmat = Matrix.zero(n**k, n**k)
        for j in range(1, k + 1):
            emat = emat + powers[f"w{i}"][j - 1].kron(E).kron(ids[k - j])
            fmat = fmat + ids[j - 1].kron(F).kron(powers[f"wp{i}"][k - j])
        gens[f"e{i}"] = emat
        gens[f"f{i}"] = fmat
    return gens


def corrupt_ambient_generator(monkeypatch, name, src, dst):
    """Make the generator name on V^{x k}, as the wedge builds it, send
    v_src to v_dst (coefficient 1) and leave every other column alone."""
    import rsqg.wedge as wedge_mod
    from rsqg import tensor_index

    real = wedge_mod._tensor_generator

    def corrupted(field, n, k, gen):
        mat = real(field, n, k, gen)
        if gen != name:
            return mat
        t = tensor_index(src, n)
        ent = {key: v for key, v in mat.entries.items() if key[1] != t}
        ent[(tensor_index(dst, n), t)] = field.one
        return Matrix(mat.rows, mat.cols, ent)

    monkeypatch.setattr(wedge_mod, "_tensor_generator", corrupted)


def reference_echelon(vectors):
    """(pivots, basis) of the canonical basis of the span of sparse vectors
    over a field, by textbook Gauss-Jordan on field values: the pivot of a
    vector is its largest index, and each basis vector is monic at its
    pivot and zero at every other pivot.  A reference for the library's
    fraction-free kernel, which divides nothing until it reads a value."""
    def lin(a, c, b):
        out = dict(a)
        for t, v in b.items():
            out[t] = out.get(t, 0) - c * v
        return {t: v for t, v in out.items() if v}

    rows = {}
    for vec in vectors:
        vec = {t: Fraction(v) if isinstance(v, int) else v
               for t, v in vec.items() if v}
        for p, row in rows.items():
            if vec.get(p):
                vec = lin(vec, vec[p], row)
        if not vec:
            continue
        q = max(vec)
        new = {t: v / vec[q] for t, v in vec.items()}
        for p, row in rows.items():
            if row.get(q):
                rows[p] = lin(row, row[q], new)
        rows[q] = new
    pivots = sorted(rows)
    return pivots, [rows[p] for p in pivots]
