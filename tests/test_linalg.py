import random
import sys
from fractions import Fraction
from math import lcm

import pytest

import rsqg.linalg as linalg
from rsqg import (BiPoly, Matrix, RatFunc, Representation, SampledField,
                  SingularInput, Subspace, SymbolicField, build_r, build_r_z,
                  check_defining_relations, check_module_morphism, invert,
                  kernel_image_rank, tensor_index, tensor_power_rep,
                  tensor_tuple)

from helpers import (dense_mul, dense_rank, from_dense, random_bipoly,
                     random_ratfunc, random_sparse, reference_echelon,
                     to_dense)

rng = random.Random(9157)
smp = SampledField(2, 3)


def test_tensor_index_roundtrip():
    for n, k in ((2, 3), (3, 2), (5, 4)):
        for idx in range(1, n**k + 1):
            tup = tensor_tuple(idx, n, k)
            assert len(tup) == k
            assert all(1 <= t <= n for t in tup)
            assert tensor_index(tup, n) == idx
    assert tensor_index((2, 1), 2) == 3
    assert tensor_index((1, 1, 1), 3) == 1
    assert tensor_tuple(9, 3, 2) == (3, 3)


def test_matrix_constructor_strips_zeros_and_validates():
    m = Matrix(2, 2, {(1, 1): Fraction(1), (2, 2): Fraction(0)})
    assert m.entries == {(1, 1): Fraction(1)}
    with pytest.raises(ValueError):
        Matrix(2, 2, {(3, 1): Fraction(1)})
    with pytest.raises(ValueError):
        Matrix(-1, 2)
    assert Matrix.zero(0, 0).is_zero()


def test_matrix_arithmetic_against_dense():
    for _ in range(25):
        a = random_sparse(rng, 4, 3)
        b = random_sparse(rng, 3, 5)
        c = random_sparse(rng, 4, 3)
        assert to_dense(a * b) == dense_mul(to_dense(a), to_dense(b))
        assert (a + c) - c == a
        assert a.scale(Fraction(3, 2)) + a.scale(Fraction(-3, 2)) == Matrix.zero(4, 3)
        assert -(-a) == a
    # over Q(r, s), alone and mixed with Q, entrywise at two generic points
    sym = SymbolicField()
    srng = random.Random(4242)
    for _ in range(3):
        a, c = _random_symbolic(srng, 3, 2), _random_symbolic(srng, 3, 2)
        # polynomial entries in b keep the sums of products of a b cheap
        b = _random_symbolic(srng, 2, 3,
                             entry=lambda g: RatFunc(random_bipoly(g)))
        qa, qb = random_sparse(srng, 3, 2, 0.6), random_sparse(srng, 2, 3, 0.6)
        x, q = _nonzero_ratfunc(srng), Fraction(-3, 2)
        vec = {j: _nonzero_ratfunc(srng) for j in (1, 2)}
        qvec = {1: Fraction(2, 5), 2: Fraction(-7, 3)}
        for pt in _POINTS:
            A, B, C, QA, QB = (_at(m, pt) for m in (a, b, c, qa, qb))
            X = x.evaluate(*pt)
            for got, want in (
                    (a * b, dense_mul(A, B)),
                    (a * qb, dense_mul(A, QB)),
                    (qa * b, dense_mul(QA, B)),
                    (a + c, _dense_lin(A, 1, C)),
                    (a - c, _dense_lin(A, -1, C)),
                    (a + qa, _dense_lin(A, 1, QA)),
                    (qa - a, _dense_lin(QA, -1, A)),
                    (-a, _dense_scale(-1, A)),
                    (a.scale(x), _dense_scale(X, A)),
                    (a.scale(q), _dense_scale(q, A)),
                    (qa.scale(x), _dense_scale(X, QA))):
                assert _at(got, pt) == want
            for m, dm in ((a, A), (qa, QA)):
                for v in (vec, qvec):
                    V = [[_value(v.get(j), pt)] for j in (1, 2)]
                    col = dense_mul(dm, V)
                    got = {i: _value(y, pt) for i, y in m.apply(v).items()}
                    assert got == {i: row[0] for i, row in enumerate(col, 1)
                                   if row[0]}
        assert (a + c) - c == a and -(-a) == a and (a - a).is_zero()
        assert a.scale(q) == a.scale(sym.from_fraction(q))
        assert (a + qa) - qa == a and a * qb == a * qb.scale(q).scale(1 / q)
        assert a.scale(x) != a and a + a.scale(x) == a.scale(x + sym.one)


_POINTS = ((Fraction(5, 7), Fraction(-11, 3)),
           (Fraction(-13, 4), Fraction(17, 19)))


def _value(v, pt):
    if v is None:
        return Fraction(0)
    return v.evaluate(*pt) if isinstance(v, RatFunc) else Fraction(v)


def _at(mat, pt):
    """Dense Fractions of mat with its Q(r, s) entries evaluated at pt."""
    return [[_value(mat.get(i, j), pt) for j in range(1, mat.cols + 1)]
            for i in range(1, mat.rows + 1)]


def _dense_lin(a, c, b):
    return [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _dense_scale(c, a):
    return [[c * x for x in row] for row in a]


def _nonzero_ratfunc(rng):
    v = random_ratfunc(rng)
    while not v:
        v = random_ratfunc(rng)
    return v


def _random_symbolic(rng, rows, cols, fill=0.6, entry=random_ratfunc):
    return Matrix(rows, cols, {(i, j): entry(rng) for i in range(1, rows + 1)
                               for j in range(1, cols + 1)
                               if rng.random() < fill})


def test_elimination_of_an_int_matrix_stays_exact():
    # int entries reach the echelon kernel as ints and leave it as
    # Fractions, never as ints or floats
    singular = {(1, 1): 2, (1, 2): 4, (2, 1): 1, (2, 2): 2}
    lower = {(1, 1): 2, (2, 1): 1, (2, 2): 4}
    kernel, image, rank = kernel_image_rank(Matrix(2, 2, singular), smp)
    assert rank == 1
    assert kernel.basis == [{1: -2, 2: 1}] and image.basis == [{1: 2, 2: 1}]
    inv = invert(Matrix(2, 2, lower), smp)
    want = {(1, 1): Fraction(1, 2), (2, 1): Fraction(-1, 8),
            (2, 2): Fraction(1, 4)}
    assert inv.entries == want
    for vals in ([v for vec in kernel.basis + image.basis
                  for v in vec.values()], inv.entries.values()):
        assert all(type(v) is Fraction for v in vals)
    # over Q(r, s) the kernel and the inverse are RatFuncs, of an int
    # matrix too; the image is read as the entries are
    for lift in (int, sym.from_fraction):
        a = Matrix(2, 2, {k: lift(v) for k, v in singular.items()})
        b = Matrix(2, 2, {k: lift(v) for k, v in lower.items()})
        kernel, image, rank = kernel_image_rank(a, sym)
        inv = invert(b, sym)
        assert rank == 1 and kernel.basis == [{1: -2, 2: 1}]
        assert image.basis == [{1: 2, 2: 1}] and inv.entries == want
        vals = [v for vec in kernel.basis for v in vec.values()]
        assert all(type(v) is RatFunc for v in vals + list(inv.entries.values()))
        assert all(type(v) is (Fraction if lift is int else RatFunc)
                   for v in image.basis[0].values())


def test_matrix_shape_errors():
    a = Matrix.zero(2, 3)
    b = Matrix.zero(2, 2)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * a


def test_kron_against_dense():
    for _ in range(10):
        a = random_sparse(rng, 2, 3)
        b = random_sparse(rng, 3, 2)
        da, db = to_dense(a), to_dense(b)
        expected = [[da[i][j] * db[p][q] for j in range(3) for q in range(2)]
                    for i in range(2) for p in range(3)]
        assert to_dense(a.kron(b)) == expected
    ident = Matrix.identity(2, Fraction(1))
    assert ident.kron(ident) == Matrix.identity(4, Fraction(1))


def test_matrix_apply_matches_product():
    for _ in range(10):
        a = random_sparse(rng, 4, 4)
        vec = {j: Fraction(rng.randint(-3, 3)) for j in range(1, 5)}
        vec = {j: v for j, v in vec.items() if v}
        col = Matrix(4, 1, {(j, 1): v for j, v in vec.items()})
        assert a.apply(vec) == {i: v for (i, _), v in (a * col).entries.items()}


def test_out_of_range_indices_raise():
    # an index outside 1..dim names itself, in a span and in apply
    with pytest.raises(ValueError, match=r"\(5, 1\)"):
        Subspace.from_vectors(3, [{5: 1}, {0: 2}])
    with pytest.raises(ValueError, match=r"\(0, 2\)"):
        Subspace.from_vectors(3, [{1: 1}, {0: 2}])
    # and in a membership test, which asks for one more span
    line = Subspace.from_vectors(3, [{1: 1}])
    for bad in (5, 0):
        with pytest.raises(ValueError, match=rf"\({bad}, 2\)"):
            line.contains_vector({bad: 1})
    eye = Matrix.identity(2, Fraction(1))
    for bad in (5, 0, -1):
        with pytest.raises(ValueError, match=f"index {bad} "):
            eye.apply({bad: 1})
    # any iterable of vectors still spans
    assert Subspace.from_vectors(3, iter([{2: 1}, {2: 2, 3: 1}])).pivots == [
        2, 3]


def test_matrix_json_sorted():
    m = Matrix(2, 2, {(2, 1): Fraction(3), (1, 2): Fraction(-1, 2)})
    assert m.to_json() == {
        "rows": 2, "cols": 2,
        "entries": [[1, 2, "-1/2"], [2, 1, "3"]],
    }


@pytest.mark.parametrize("field", [SampledField(Fraction(-2, 3), 5),
                                   SymbolicField()],
                         ids=["sampled", "symbolic"])
def test_form_born_matrix_reads_each_numerator_once(monkeypatch, field):
    # a product holds only its column form: repr counts from it and
    # to_json keeps no entries, both as the matrix of its entries prints,
    # and entries reads each distinct numerator out once
    rep = tensor_power_rep(3, 3, field)
    mat = rep.w_inv(1) * rep.e(1) + rep.f(2)
    assert mat._entries is None
    text, js = repr(mat), mat.to_json()
    assert mat._entries is None
    den, cols = mat._form()
    numerators = [v for col in cols.values() for v in col.values()]
    assert len(set(numerators)) < len(numerators)
    name = "Fraction" if type(den) is int else "RatFunc"
    made = []

    def counting(v, d, _make=getattr(linalg, name)):
        made.append(v)
        return _make(v, d)

    monkeypatch.setattr(linalg, name, counting)
    ent = mat.entries
    monkeypatch.undo()
    assert sorted(map(str, made)) == sorted(map(str, set(numerators)))
    ref = Matrix(mat.rows, mat.cols, dict(ent))
    assert (text, js) == (repr(ref), ref.to_json())
    assert text == f"Matrix(27x27, nnz={len(numerators)})"


def test_subspace_canonical_basis_trailing_pivot():
    # same span, different spanning sets -> identical canonical bases
    v1 = {1: Fraction(1), 2: Fraction(1)}
    v2 = {2: Fraction(1), 3: Fraction(1)}
    s1 = Subspace.from_vectors(3, [v1, v2])
    s2 = Subspace.from_vectors(3, [v2, {1: Fraction(1), 3: Fraction(-1)}, v1])
    assert s1 == s2
    assert s1.pivots == [2, 3]
    # pivot entries are monic, rows reduced against later pivots
    assert s1.basis == [{1: Fraction(1), 2: Fraction(1)},
                        {1: Fraction(-1), 3: Fraction(1)}]


def test_subspace_contains():
    s = Subspace.from_vectors(3, [{1: Fraction(1), 2: Fraction(1)}])
    assert s.contains_vector({1: Fraction(2), 2: Fraction(2)})
    assert not s.contains_vector({1: Fraction(1)})
    assert s.contains_vector({})
    t = Subspace.from_vectors(3, [{1: Fraction(3), 2: Fraction(3)}])
    assert all(s.contains_vector(v) for v in t.basis)
    assert all(t.contains_vector(v) for v in s.basis)


def test_subspace_of_int_vectors_is_exact():
    sp = Subspace.from_vectors(3, [{1: 2, 2: 3}])
    assert sp.basis == [{1: Fraction(2, 3), 2: 1}]
    assert all(type(v) is Fraction for v in sp.basis[0].values())
    assert sp.contains_vector({1: 4, 2: 6}) and sp.contains_vector({})
    assert not sp.contains_vector({1: 1, 2: 1})
    assert not sp.contains_vector({3: 1})


def test_kernel_image_rank_random():
    for _ in range(20):
        m = random_sparse(rng, 5, 6)
        kernel, image, rank = kernel_image_rank(m, smp)
        assert rank == dense_rank([m.col(j) for j in range(1, 7)], 5)
        assert kernel.dim + rank == 6
        assert image.dim == rank
        for vec in kernel.basis:
            assert m.apply(vec) == {}
        for j in range(1, 7):
            assert image.contains_vector(m.col(j))


def test_kernel_image_rank_symbolic():
    sym = SymbolicField()
    r, s = sym.r, sym.s
    m = Matrix(2, 3, {(1, 1): r, (1, 2): s, (2, 1): r * s,
                      (2, 2): s * s, (1, 3): sym.one})
    kernel, image, rank = kernel_image_rank(m, sym)
    assert rank == 2
    assert kernel.dim == 1
    assert m.apply(kernel.basis[0]) == {}


def test_singular_after_elimination_symbolic():
    # no zero row or column: the dependence shows only after elimination
    sym = SymbolicField()
    r, s = sym.r, sym.s
    m = Matrix(2, 2, {(1, 1): r, (1, 2): s, (2, 1): r * r, (2, 2): r * s})
    with pytest.raises(SingularInput):
        invert(m, sym)
    kernel, image, rank = kernel_image_rank(m, sym)
    assert rank == 1 and image.dim == 1 and kernel.dim == 1
    assert m.apply(kernel.basis[0]) == {}


def test_invert_roundtrip_and_errors():
    for _ in range(10):
        m = random_sparse(rng, 4, 4, fill=0.7)
        m = m + Matrix.identity(4, Fraction(7))
        inv = invert(m, smp)
        assert m * inv == Matrix.identity(4, Fraction(1))
        assert inv * m == Matrix.identity(4, Fraction(1))
    with pytest.raises(SingularInput):
        invert(Matrix.zero(3, 3), smp)
    with pytest.raises(SingularInput):
        invert(Matrix(2, 2, {(1, 1): Fraction(1), (2, 1): Fraction(1)}), smp)
    with pytest.raises(SingularInput):
        invert(Matrix.zero(2, 3), smp)


# The integer form of a matrix over Q (integer columns over one common
# denominator) against plain dicts of Fractions.

_VALUES = (1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 4),
           Fraction(-5, 3), Fraction(7, 6), Fraction(4))


def _rational_entries(rng, rows, cols, fill=0.5):
    # ints, integral Fractions and proper fractions of both signs
    return {(i, j): rng.choice(_VALUES) for i in range(1, rows + 1)
            for j in range(1, cols + 1) if rng.random() < fill}


def _ref(ent):
    return {k: Fraction(v) for k, v in ent.items() if v}


def _ref_mul(a, b):
    out = {}
    for (i, k), x in a.items():
        for (t, j), y in b.items():
            if t == k:
                out[(i, j)] = out.get((i, j), 0) + Fraction(x) * Fraction(y)
    return _ref(out)


def _ref_add(a, b, sign=1):
    out = {k: Fraction(v) for k, v in a.items()}
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * Fraction(v)
    return _ref(out)


def _cancelling_pair(rng, rows, inner, cols):
    """A, B with column 2 of A equal to column 1 and row 2 of B the negated
    row 1, so those two terms of every entry of A B cancel."""
    a = _rational_entries(rng, rows, inner)
    b = _rational_entries(rng, inner, cols)
    for i in range(1, rows + 1):
        a.pop((i, 2), None)
        if (i, 1) in a:
            a[(i, 2)] = a[(i, 1)]
    for j in range(1, cols + 1):
        b.pop((2, j), None)
        if (1, j) in b:
            b[(2, j)] = -b[(1, j)]
    return a, b


def _assert_is_reference(mat, ref):
    """Every read of mat gives the normalized Fractions of the reference."""
    assert mat.entries == ref
    assert all(type(v) is Fraction for v in mat.entries.values())
    plain = Matrix(mat.rows, mat.cols, ref)
    assert mat.to_json() == plain.to_json()
    for j in range(1, mat.cols + 1):
        assert mat.col(j) == plain.col(j)
        for i in range(1, mat.rows + 1):
            assert mat.get(i, j) == ref.get((i, j))
    vec = {j: Fraction(j, 2) - 1 for j in range(1, mat.cols + 1)}
    assert mat.apply(vec) == plain.apply(vec)
    assert mat.is_zero() == (not ref)


@pytest.mark.parametrize("seed", range(12))
def test_integer_form_agrees_with_fraction_reference(seed):
    rng = random.Random(seed)
    rows, inner, cols = rng.randint(1, 5), rng.randint(2, 5), rng.randint(1, 5)
    ea, eb = _cancelling_pair(rng, rows, inner, cols)
    ec = _rational_entries(rng, rows, inner)
    # c cancels part of a, so some entries of a + c vanish
    ec.update({k: -v for k, v in ea.items() if rng.random() < 0.5})
    a, b, c = (Matrix(m, n, e) for (m, n), e in (((rows, inner), ea),
                                                  ((inner, cols), eb),
                                                  ((rows, inner), ec)))
    cases = [
        (a * b, _ref_mul(ea, eb)),
        (a + c, _ref_add(ea, ec)),
        (a - c, _ref_add(ea, ec, -1)),
        (a - a, {}),
        (-a, {k: -Fraction(v) for k, v in ea.items()}),
        ((a + c) * b - c * b, _ref_mul(ea, eb)),
    ]
    for k in (3, -2, Fraction(-2, 9), Fraction(5, 1), 0):
        cases.append((a.scale(k), _ref({key: k * v for key, v in ea.items()})))
    for mat, ref in cases:
        _assert_is_reference(mat, ref)
        plain = Matrix(mat.rows, mat.cols, ref)
        assert mat == plain and plain == mat
        # equality sees a single changed entry
        if ref:
            key = next(iter(ref))
            other = dict(ref)
            other[key] += Fraction(1, 7)
            assert mat != Matrix(mat.rows, mat.cols, other)
        assert mat != Matrix(mat.rows, mat.cols, {**ref, (1, 1): Fraction(99)})


def test_equal_matrices_with_different_denominators_compare_equal():
    rng = random.Random(5)
    ent = _rational_entries(rng, 4, 4, fill=0.8)
    a = Matrix(4, 4, ent)
    b = a.scale(Fraction(1, 6)).scale(6)
    c = (a.scale(Fraction(1, 2)) + a.scale(Fraction(1, 3))).scale(Fraction(6, 5))
    assert len({a._form()[0], b._form()[0], c._form()[0]}) == 3
    plain = Matrix(4, 4, _ref(ent))
    for x in (a, b, c):
        for y in (a, b, c, plain):
            assert x == y
        assert (x - plain).is_zero()
    assert b.entries == c.entries == plain.entries
    assert b != a.scale(Fraction(7, 6))


def test_integer_form_is_skipped_for_rational_functions():
    sym = SymbolicField()
    m = Matrix(2, 2, {(1, 1): sym.r, (2, 1): sym.one})
    # over Q(r, s) the values are polynomials over the lcm of the entry
    # denominators: r and s^-1 are r*s and 1 over s
    inv = Matrix(2, 2, {(1, 1): sym.r, (2, 1): sym.s**-1})
    assert inv._form() == (BiPoly.term(0, 1),
                           {1: {1: BiPoly.term(1, 1), 2: BiPoly.one()}})
    half = Matrix(2, 2, {(1, 2): Fraction(1, 2)})
    # a Fraction matrix mixed with Q(r, s) entries
    prod = m * half
    assert prod.entries == {(1, 2): sym.r * sym.from_fraction(Fraction(1, 2)),
                            (2, 2): sym.from_fraction(Fraction(1, 2))}
    assert m.scale(sym.s) == Matrix(2, 2, {(1, 1): sym.r * sym.s,
                                           (2, 1): sym.s})


# Matrices over Q(r, s) (polynomial columns over one polynomial
# denominator) against dicts of RatFunc entries.

sym = SymbolicField()


def _symbolic_entries(rng, rows, cols, fill=0.6):
    """Entries p / d with small numerators p and the denominators 1, r - s,
    r s + 2 and s^2, so that one matrix mixes several of them."""
    r, s, one = sym.r, sym.s, sym.one
    nums = (one, -r, s * 2, r + s, r * s - 3, r * Fraction(1, 2) - 1)
    dens = (one, r - s, r * s + 2, s * s)
    return {(i, j): rng.choice(nums) / rng.choice(dens)
            for i in range(1, rows + 1) for j in range(1, cols + 1)
            if rng.random() < fill}


def _nonzero(ent):
    return {k: v for k, v in ent.items() if v}


def _rf_mul(a, b):
    out = {}
    for (i, k), x in a.items():
        for (t, j), y in b.items():
            if t == k:
                out[(i, j)] = out.get((i, j), 0) + x * y
    return _nonzero(out)


def _rf_lin(a, c, b):
    """a + c b entrywise."""
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + c * v
    return _nonzero(out)


def _rf_col(ent, j):
    return {i: v for (i, t), v in ent.items() if t == j}


def _rf_apply(ent, vec):
    out = {}
    for (i, j), v in ent.items():
        if j in vec:
            out[i] = out.get(i, 0) + v * vec[j]
    return _nonzero(out)


@pytest.mark.parametrize("seed", range(4))
def test_symbolic_arithmetic_against_entrywise_oracle(seed):
    rng = random.Random(seed)
    r, s, one = sym.r, sym.s, sym.one
    ea, eb, ec = (_symbolic_entries(rng, 3, 3) for _ in range(3))
    a, b, c = (Matrix(3, 3, e) for e in (ea, eb, ec))
    x, q = (r - 1) / (r * s + 2), Fraction(-3, 2)
    cases = [
        (a * b, _rf_mul(ea, eb)),
        (a + c, _rf_lin(ea, 1, ec)),
        (a - c, _rf_lin(ea, -1, ec)),
        (a - a, {}),
        (-a, _rf_lin({}, -1, ea)),
        (a.scale(x), _rf_lin({}, x, ea)),
        (a.scale(q), _rf_lin({}, q, ea)),
        ((a + c) * b - c * b, _rf_mul(ea, eb)),
    ]
    vecs = ({1: s**-2, 3: r + one}, {1: Fraction(2, 5), 2: -3})
    for mat, ref in cases:
        assert mat.entries == ref
        plain = Matrix(3, 3, ref)
        assert mat == plain and plain == mat
        assert mat.is_zero() == (not ref)
        for j in range(1, 4):
            assert mat.col(j) == _rf_col(ref, j)
        for vec in vecs:
            assert mat.apply(vec) == _rf_apply(ref, vec)
        # equality sees a single changed entry
        key = next(iter(ref), (1, 1))
        changed = dict(ref)
        changed[key] = changed.get(key, 0) + one / (r - s)
        assert mat != Matrix(3, 3, changed)
    # the same matrix reached through three different denominators
    d1 = a.scale(one / (r - s)).scale(r - s)
    d2 = (a.scale(s**-2) + a.scale(x)).scale(one / (s**-2 + x))
    assert len({str(m._form()[0]) for m in (a, d1, d2)}) == 3
    for m in (a, d1, d2):
        for other in (a, d1, d2, Matrix(3, 3, ea)):
            assert m == other
        assert (m - a).is_zero() and m.entries == ea
    changed = dict(ea)
    key = next(iter(ea))
    changed[key] = changed[key] + s
    assert d1 != Matrix(3, 3, changed) and d2 != Matrix(3, 3, changed)


def _assert_integral_form(mat):
    """den and every numerator of mat's column form over Q(r, s) are
    BiPolys with int coefficients only, den with a positive leading
    coefficient in graded lex order."""
    den, cols = mat._form()
    for p in (den, *(v for col in cols.values() for v in col.values())):
        assert type(p) is BiPoly, p
        assert all(type(c) is int for c in p.terms.values()), p
    assert den.terms[max(den.terms, key=lambda m: (m[0] + m[1], m[0]))] > 0


def _assert_canonical(ent):
    """Every value is a RatFunc with a monic den and int or non-integral
    Fraction coefficients, as RatFunc arithmetic leaves it."""
    for v in ent.values():
        assert type(v) is RatFunc
        dt = v.den.terms
        assert dt[max(dt, key=lambda m: (m[0] + m[1], m[0]))] == 1
        for c in (*v.num.terms.values(), *dt.values()):
            assert type(c) is int or c.denominator != 1, v


@pytest.mark.parametrize("seed", range(3))
def test_symbolic_column_form_is_integral(seed):
    """Over Q(r, s) the column form has int coefficients only, for
    entry-built matrices whose canonical entries have Fraction
    coefficients, for one scaled by a non-monic RatFunc, and for sums and
    products of them; the entries read out are the canonical RatFuncs of
    entrywise RatFunc arithmetic.  R(z) at the eliminate benchmark's
    z = (-r - 3/7 s)/(r s + 8/7) is among them."""
    rng = random.Random(seed)
    r, s = sym.r, sym.s
    w = (r * 2 - s * 3) / (s * 5 + 4)
    z = _eliminate_z(sym)
    ea, eb = (_random_symbolic(rng, 3, 3).entries for _ in range(2))
    a, b = Matrix(3, 3, ea), Matrix(3, 3, eb)
    # polynomial entries in c keep the sums of products of a c cheap
    ec = _polynomial_matrix(rng, 3, 3).entries
    rz = build_r_z(2, sym)
    cases = [
        (a, ea),
        (a.scale(w), _rf_lin({}, w, ea)),
        (a.scale(Fraction(-3, 7)), _rf_lin({}, Fraction(-3, 7), ea)),
        (a + b, _rf_lin(ea, 1, eb)),
        (a.scale(w) - b, _rf_lin(_rf_lin({}, w, ea), -1, eb)),
        (a * Matrix(3, 3, ec).scale(w), _rf_mul(ea, _rf_lin({}, w, ec))),
        (rz.at(z), _rf_lin(rz.A.entries, z, rz.B.entries)),
    ]
    # the canonical entries have Fraction coefficients for the form to clear
    assert all(any(type(c) is Fraction for v in ref.values()
                   for c in (*v.num.terms.values(), *v.den.terms.values()))
               for _, ref in cases[1:3] + cases[4:])
    for mat, ref in cases:
        _assert_integral_form(mat)
        ent = mat.entries
        assert ent == ref
        _assert_canonical(ent)
    # R(z) = A + z B with B over s: d = 7 clears z's coefficients
    assert rz.at(z)._form()[0] == BiPoly({(1, 2): 7, (0, 1): 8})


def test_symbolic_checks_reduce_no_fraction_in_products_and_sums(monkeypatch):
    """Over Q(r, s) the products and sums of a check multiply and add
    polynomials: RatFunc.__init__ (a gcd reduction) never runs under
    rsqg.linalg's _product or _sum."""
    rep = tensor_power_rep(3, 3, sym)
    original = RatFunc.__init__
    calls = []

    def guard(self, *args):
        frame = sys._getframe(1)
        while frame is not None:
            if (frame.f_globals.get("__name__") == "rsqg.linalg"
                    and frame.f_code.co_name in ("_product", "_sum")):
                raise AssertionError(
                    f"RatFunc reduced in linalg.{frame.f_code.co_name}")
            frame = frame.f_back
        calls.append(args)
        original(self, *args)

    monkeypatch.setattr(RatFunc, "__init__", guard)
    assert check_defining_relations(rep).ok
    # the guard was live: the check reduces its own scalars, 1 / (r - s)
    assert calls


def _fraction_arithmetic_in_linalg_raises(monkeypatch):
    """Fraction products and sums formed inside rsqg.linalg raise; the
    scalars a check prepares elsewhere (r + s, say) stay allowed."""
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        original = getattr(Fraction, name)

        def guard(a, b, _original=original, _name=name):
            if sys._getframe(1).f_globals.get("__name__") == "rsqg.linalg":
                raise AssertionError(f"Fraction.{_name} in rsqg.linalg")
            return _original(a, b)

        monkeypatch.setattr(Fraction, name, guard)


def test_sampled_checks_multiply_no_fractions(monkeypatch):
    field = SampledField(2, 3)
    rep = tensor_power_rep(3, 3, field)
    R = build_r(3, field)
    _fraction_arithmetic_in_linalg_raises(monkeypatch)
    assert check_module_morphism(R, rep).ok
    assert check_defining_relations(rep).ok
    with pytest.raises(AssertionError, match="Fraction.__mul__"):
        R.apply({1: Fraction(1, 2)})


def _dense_e1_rows(rep, R):
    """(name, indices) -> (lhs, rhs) as dense Fraction matrices, for every
    check row of a rank-3 V^{x 3} whose identity involves e1: w e1 =
    r^<eps_i, alpha_1> s^<eps_{i+1}, alpha_1> e1 w and its w' twin,
    [e1, f_j], the two Serre relations of (e1, e2), and R at both positions
    commuting with e1.  Products are dense, of the generators and R times
    one common denominator D, so that they multiply ints."""
    fld = rep.field
    r, s = fld.r, fld.s
    dense = {name: to_dense(m) for name, m in dict(rep.gens, R=R).items()}
    D = lcm(*(v.denominator for m in dense.values() for row in m for v in row))
    # (p, M) stands for M / D^p
    d = {name: (1, [[int(v * D) for v in row] for row in m])
         for name, m in dense.items()}
    e1, e2 = d["e1"], d["e2"]

    def mul(*mats):
        p, out = mats[0]
        for q, m in mats[1:]:
            p, out = p + q, dense_mul(out, m)
        return p, out

    def side(*terms):
        # sum of c * M / D^p over the (c, (p, M)) terms
        size = range(len(terms[0][1][1]))
        return [[sum(c * Fraction(m[i][j], D**p) for c, (p, m) in terms
                     if m[i][j]) for j in size] for i in size]

    rows = {}
    for i, (we, wpe) in ((1, (r / s, s / r)), (2, (1 / r, 1 / s))):
        w, wp = d[f"w{i}"], d[f"wp{i}"]
        rows[("R2:we", (i, 1))] = side((1, mul(w, e1))), side((we, mul(e1, w)))
        rows[("R3:wpe", (i, 1))] = (side((1, mul(wp, e1))),
                                    side((wpe, mul(e1, wp))))
    for j in (1, 2):
        f = d[f"f{j}"]
        lhs = side((1, mul(e1, f)), (-1, mul(f, e1)))
        rhs = side((1 / (r - s), d["w1"]), (-1 / (r - s), d["wp1"]))
        rows[("R4", (1, j))] = lhs, rhs if j == 1 else side((0, e1))
    e12, e21 = mul(e1, e2), mul(e2, e1)
    for name, words in (("R6:a", (mul(e1, e12), mul(e12, e1), mul(e21, e1))),
                        ("R6:b", (mul(e12, e2), mul(e21, e2), mul(e2, e21)))):
        lhs = side(*zip((1, -(r + s), r * s), words))
        rows[(name, (1,))] = lhs, side((0, e1))
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    rd = d["R"][1]
    for pos, (left, right) in ((1, (rd, eye)), (2, (eye, rd))):
        rp = (1, [[x * y for x in ra for y in rb]
                  for ra in left for rb in right])
        rows[("morphism", (pos, "e1"))] = (side((1, mul(rp, e1))),
                                           side((1, mul(e1, rp))))
    return rows


def _dense_witness(lhs, rhs):
    """The first column where lhs and rhs differ, as _compare reports it."""
    for j in range(len(lhs[0])):
        cl = {i: row[j] for i, row in enumerate(lhs, 1) if row[j]}
        cr = {i: row[j] for i, row in enumerate(rhs, 1) if row[j]}
        if cl != cr:
            return {"witness_basis_index": j + 1, "lhs": cl, "rhs": cr}
    return None


def test_corrupted_generator_fails_the_same_rows_at_a_non_integral_pair():
    field = SampledField(Fraction(1, 2), 3)
    rep = tensor_power_rep(3, 3, field)
    ent = dict(rep.e(1).entries)
    key = next(k for k in sorted(ent) if ent[k] != 1)
    ent[key] *= Fraction(-5, 2)
    gens = dict(rep.gens, e1=Matrix(rep.dim, rep.dim, ent))
    bad = Representation(rep.n, rep.dim, gens, field, rep.weights)
    R = build_r(3, field)
    clean = [check_defining_relations(rep), check_module_morphism(R, rep)]
    got = [check_defining_relations(bad), check_module_morphism(R, bad)]
    want = {row: _dense_witness(*sides)
            for row, sides in _dense_e1_rows(bad, R).items()}
    for g, c in zip(got, clean):
        assert c.ok and not g.ok and g.failures()
        assert [(x.name, x.indices) for x in g.checks] == [
            (x.name, x.indices) for x in c.checks]
        # a row fails exactly where its dense products differ, with their
        # first differing column as the witness; rows without e1 pass
        for x, row in zip(g.checks, g.to_json()):
            w = want.get((x.name, x.indices))
            assert x.ok == (w is None) and x.witness == w
            if w is not None:
                assert row["witness_basis_index"] == w["witness_basis_index"]
                for side in ("lhs", "rhs"):
                    assert row[side] == {str(i): str(v)
                                         for i, v in sorted(w[side].items())}
    assert {c.name for c in got[0].failures()} >= {"R4", "R6:a"}


def _symbolic_e1_rows(rep):
    """(name, indices) -> (lhs, rhs) as dicts of RatFunc entries, for every
    check row of a rank-3 V^{x 2} whose identity involves e1, recomputed
    entrywise from the generators' entries."""
    r, s, one = sym.r, sym.s, sym.one
    g = {name: rep.gens[name].entries for name in rep.gens}

    def side(*terms):
        # sum of c * (product of the named generators) over (c, names)
        out = {}
        for c, *names in terms:
            word = g[names[0]]
            for name in names[1:]:
                word = _rf_mul(word, g[name])
            out = _rf_lin(out, c, word)
        return out

    rows = {}
    for i, (we, wpe) in ((1, (r / s, s / r)), (2, (1 / r, 1 / s))):
        rows[("R2:we", (i, 1))] = (side((one, f"w{i}", "e1")),
                                   side((we, "e1", f"w{i}")))
        rows[("R3:wpe", (i, 1))] = (side((one, f"wp{i}", "e1")),
                                    side((wpe, "e1", f"wp{i}")))
    for j in (1, 2):
        lhs = side((one, "e1", f"f{j}"), (-one, f"f{j}", "e1"))
        coef = one / (r - s)
        rows[("R4", (1, j))] = lhs, (side((coef, "w1"), (-coef, "wp1"))
                                     if j == 1 else {})
    rows[("R6:a", (1,))] = side((one, "e1", "e1", "e2"),
                                (-(r + s), "e1", "e2", "e1"),
                                (r * s, "e2", "e1", "e1")), {}
    rows[("R6:b", (1,))] = side((one, "e1", "e2", "e2"),
                                (-(r + s), "e2", "e1", "e2"),
                                (r * s, "e2", "e2", "e1")), {}
    return rows


def test_corrupted_symbolic_generator_fails_with_the_recomputed_witness():
    rep = tensor_power_rep(3, 2, sym)
    r, s = sym.r, sym.s
    ent = dict(rep.e(1).entries)
    # v1 x v1 -> v1 x v1 has the wrong weight for e1
    ent[(1, 1)] = ent.get((1, 1), 0) + sym.one / (r - s)
    gens = dict(rep.gens, e1=Matrix(rep.dim, rep.dim, ent))
    bad = Representation(rep.n, rep.dim, gens, sym, rep.weights)
    assert check_defining_relations(rep).ok
    failed = {(c.name, c.indices): c.witness
              for c in check_defining_relations(bad).failures()}
    assert {("R2:we", (1, 1)), ("R2:we", (2, 1)),
            ("R4", (1, 1))} <= set(failed)
    rows = _symbolic_e1_rows(bad)
    # only rows whose identity involves e1 fail
    assert set(failed) <= set(rows)
    for row, witness in failed.items():
        lhs, rhs = rows[row]
        assert lhs != rhs
        j = next(j for j in range(1, bad.dim + 1)
                 if _rf_col(lhs, j) != _rf_col(rhs, j))
        assert witness == {"witness_basis_index": j, "lhs": _rf_col(lhs, j),
                           "rhs": _rf_col(rhs, j)}
    # and every row of the recomputation that differs is reported
    assert {row for row, (x, y) in rows.items() if x != y} == set(failed)


def _w1_rows(rep, R):
    """(name, indices) -> (lhs, rhs) as dicts of entries, recomputed
    entrywise, for every check row of a rank-3 V^{x k} whose identity
    involves w1: w1 w1^-1 = 1, w1 commuting with w2, w1' and w2',
    w1 x = c x w1 for x = e_j, f_j, [e1, f1] = (w1 - w1')/(r - s), and R
    at each position commuting with w1 (R padded by Kronecker products)."""
    fld = rep.field
    r, s, one = fld.r, fld.s, fld.one
    g = {name: rep.gens[name].entries for name in rep.gens}
    w1 = g["w1"]
    rows = {("R1:inv-w", (1,)): (_rf_mul(w1, g["w1_inv"]), {
        (t, t): one for t in range(1, rep.dim + 1)})}
    for name, x in (("R1:comm-ww", "w2"), ("R1:comm-wwp", "wp1"),
                    ("R1:comm-wwp", "wp2")):
        rows[(name, (1, int(x[-1])))] = _rf_mul(w1, g[x]), _rf_mul(g[x], w1)
    # w1 acts by r, s, 1 on v1, v2, v3
    for name, x, c in (("R2:we", "e1", r / s), ("R2:we", "e2", s),
                       ("R2:wf", "f1", s / r), ("R2:wf", "f2", one / s)):
        rows[(name, (1, int(x[-1])))] = (_rf_mul(w1, g[x]),
                                         _rf_lin({}, c, _rf_mul(g[x], w1)))
    coef = one / (r - s)
    rows[("R4", (1, 1))] = (
        _rf_lin(_rf_mul(g["e1"], g["f1"]), -one, _rf_mul(g["f1"], g["e1"])),
        _rf_lin(_rf_lin({}, coef, w1), -coef, g["wp1"]))
    k = sum(rep.weights[0].coords)  # v1 x ... x v1 has weight k eps_1
    for pos in range(1, k):
        rp = Matrix.identity(3**(pos - 1), one).kron(R).kron(
            Matrix.identity(3**(k - pos - 1), one)).entries
        rows[("morphism", (pos, "w1"))] = _rf_mul(rp, w1), _rf_mul(w1, rp)
    return rows


@pytest.mark.parametrize("how", ["off-diagonal", "scaled"])
@pytest.mark.parametrize("field, k", [(SampledField(Fraction(1, 2), 3), 3),
                                      (sym, 2)], ids=["sampled", "symbolic"])
def test_corrupted_w1_fails_the_rows_of_the_recomputation(field, k, how):
    # w1 either stops being diagonal or acts on one basis vector by a
    # wrong value; each row involving w1 fails exactly where its
    # recomputed sides differ, with their first differing column as the
    # witness, and every other row passes
    rep = tensor_power_rep(3, k, field)
    ent = dict(rep.w(1).entries)
    t = tensor_index((1, 2, 1)[:k], 3)
    if how == "off-diagonal":
        ent[(1, t)] = field.r
    else:
        ent[(t, t)] = ent[(t, t)] * -3
    gens = dict(rep.gens, w1=Matrix(rep.dim, rep.dim, ent))
    bad = Representation(rep.n, rep.dim, gens, field, rep.weights)
    R = build_r(3, field)
    rows = _w1_rows(bad, R)
    failed = set()
    for report in (check_defining_relations(bad), check_module_morphism(R, bad)):
        assert not report.ok
        for x, row in zip(report.checks, report.to_json()):
            lhs, rhs = rows.get((x.name, x.indices), ({}, {}))
            want = next(({"witness_basis_index": j, "lhs": _rf_col(lhs, j),
                          "rhs": _rf_col(rhs, j)}
                         for j in range(1, bad.dim + 1)
                         if _rf_col(lhs, j) != _rf_col(rhs, j)), None)
            assert x.ok == (want is None) and x.witness == want, row
            if want is not None:
                failed.add((x.name, x.indices))
                assert row["witness_basis_index"] == want["witness_basis_index"]
                for side in ("lhs", "rhs"):
                    assert row[side] == {str(i): str(v) for i, v
                                         in sorted(want[side].items())}
    assert {("R1:inv-w", (1,)), ("R2:we", (1, 1)),
            ("morphism", (1, "w1"))} <= failed
    # two diagonal matrices commute, so only an off-diagonal w1 fails R1:comm
    assert (("R1:comm-ww", (1, 2)) in failed) == (how == "off-diagonal")


# The fraction-free kernel: eliminate-style inputs, a sympy oracle, and the
# component split.

def _polynomial_matrix(rng, rows, cols, max_deg=2, terms=3):
    """Dense matrix of random polynomials of degree <= max_deg, as RatFuncs."""
    return Matrix(rows, cols, {(i, j): RatFunc(random_bipoly(rng, max_deg,
                                                             terms))
                               for i in range(1, rows + 1)
                               for j in range(1, cols + 1)})


def _block_diagonal(rng, blocks):
    """The direct sum of the square matrices blocks, with its rows and its
    columns shuffled, so that the blocks interleave."""
    size = sum(b.rows for b in blocks)
    rows, cols = list(range(1, size + 1)), list(range(1, size + 1))
    rng.shuffle(rows)
    rng.shuffle(cols)
    ent, off = {}, 0
    for b in blocks:
        for (i, j), v in b.entries.items():
            ent[(rows[off + i - 1], cols[off + j - 1])] = v
        off += b.rows
    return Matrix(size, size, ent)


def _with_dependent_column(mat, c):
    """mat with its last column replaced by c times column 1, plus column
    2 if that is not the last."""
    ent = {k: v for k, v in mat.entries.items() if k[1] != mat.cols}
    for i in range(1, mat.rows + 1):
        v = c * (mat.get(i, 1) or 0)
        if mat.cols > 2:
            v = v + (mat.get(i, 2) or 0)
        if v:
            ent[(i, mat.cols)] = v
    return Matrix(mat.rows, mat.cols, ent)


def _eliminate_inputs(rng, field):
    """Square inputs like those of the eliminate benchmark: R(z) at a
    rational z (over Q(r, s)) or R (sampled), random dense matrices, a
    singular one and a block-diagonal one."""
    if field.mode == "symbolic":
        z = (field.r * 3 - field.s * 2) / (field.r * field.s + 5)
        dense = [_polynomial_matrix(rng, 2, 2) for _ in range(2)]
        mats = [build_r_z(2, field).at(z), *dense,
                _with_dependent_column(_polynomial_matrix(rng, 3, 3, 1), z),
                _block_diagonal(rng, dense)]
    else:
        dense = [random_sparse(rng, n, n, 0.9) + Matrix.identity(n, 5)
                 for n in (2, 3, 4)]
        mats = [build_r(3, field), *dense,
                _with_dependent_column(dense[1], Fraction(-2, 3)),
                _block_diagonal(rng, dense)]
    return mats


def _eliminate_z(field):
    """z = (-r - 3/7 s)/(r s + 8/7), a z of the eliminate benchmark: its
    canonical form has Fraction coefficients."""
    return (field.r * -7 - field.s * 3) / (field.r * field.s * 7 + 8)


def _division_in_the_kernel_raises(monkeypatch):
    """RatFunc.__init__ and Fraction arithmetic anywhere under the
    elimination pass (linalg._column_blocks and its _combine) raise: over
    Q(r, s) the column form is integral, so BiPoly coefficients stay ints.
    The pass is a generator, so the read-out of what it yields runs
    outside it."""
    codes = {linalg._column_blocks.__code__, linalg._combine.__code__}

    def in_echelon(frame):
        while frame is not None:
            if frame.f_code in codes:
                return True
            frame = frame.f_back
        return False

    original_init = RatFunc.__init__
    calls = []

    def ratfunc_guard(self, *args):
        if in_echelon(sys._getframe(1)):
            raise AssertionError("RatFunc reduced in the echelon kernel")
        calls.append(args)
        original_init(self, *args)

    monkeypatch.setattr(RatFunc, "__init__", ratfunc_guard)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__"):
        original = getattr(Fraction, name)

        def guard(a, b, _original=original, _name=name):
            if in_echelon(sys._getframe(1)):
                raise AssertionError(f"Fraction.{_name} in the echelon kernel")
            return _original(a, b)

        monkeypatch.setattr(Fraction, name, guard)
    return calls


@pytest.mark.parametrize("field", [SampledField(3, 2), SymbolicField()],
                         ids=["sampled", "symbolic"])
def test_echelon_kernel_divides_nothing(monkeypatch, field):
    """No Fraction or RatFunc is formed inside the elimination: a value
    is divided only when invert, kernel_image_rank or from_vectors reads
    it out, over the echelon's pivot value."""
    mats = _eliminate_inputs(random.Random(19), field)
    if field.mode == "symbolic":
        # canonical entries with Fraction coefficients
        z = _eliminate_z(field)
        mats += [build_r_z(2, field).at(z), mats[1].scale(z)]
    calls = _division_in_the_kernel_raises(monkeypatch)
    for mat in mats:
        kernel, image, rank = kernel_image_rank(mat, field)
        assert kernel.dim + rank == mat.cols and image.dim == rank
        assert all(mat.apply(v) == {} for v in kernel.basis)
        assert Subspace.from_vectors(
            mat.rows, [mat.col(j) for j in range(1, mat.cols + 1)]) == image
        if rank < mat.cols:
            with pytest.raises(SingularInput):
                invert(mat, field)
            continue
        inv = invert(mat, field)
        assert mat * inv == Matrix.identity(mat.rows, field.one) == inv * mat
    # the guards were live: over Q(r, s) each value read out is reduced
    assert calls or field.mode == "sampled"


def test_component_split_changes_only_speed(monkeypatch):
    """Each connected block of columns gets its own echelon; running the
    whole matrix as one block gives identical values and types."""
    rng = random.Random(23)
    inputs = []
    for field in (SampledField(3, 2), SymbolicField()):
        mats = _eliminate_inputs(rng, field)
        # R or R(z), and the direct sum, split into several blocks
        assert len(_blocks(mats[0])) > 1 and len(_blocks(mats[-1])) > 1
        inputs += [(field, mat, [mat.col(j) for j in range(1, mat.cols + 1)])
                   for mat in mats]

    def results():
        out = []
        for field, mat, vecs in inputs:
            kernel, image, rank = kernel_image_rank(mat, field)
            try:
                inv = invert(mat, field).entries
            except SingularInput:
                inv = None
            span = Subspace.from_vectors(mat.rows, vecs)
            out.append(_typed((kernel, image, rank, inv, span)))
        return out

    split = results()
    monkeypatch.setattr(linalg, "_components", lambda vecs: [list(vecs)])
    assert results() == split


@pytest.mark.parametrize("field", [SampledField(3, 2), SymbolicField()],
                         ids=["sampled", "symbolic"])
def test_kernel_image_rank_eliminates_once(monkeypatch, field):
    """kernel_image_rank, from_vectors and invert each run one column
    elimination: each adds exactly rank pivots (one _exact_division per
    pivot), since each kernel vector is read from the history of a
    dependent column and the inverse from those of the pivot columns.
    That kernel is already the canonical basis that from_vectors gives
    for its vectors, pivots and value types too."""
    rng = random.Random(29)
    mats = _eliminate_inputs(rng, field)
    if field.mode == "symbolic":
        mats.append(_polynomial_matrix(rng, 5, 2, 1)
                    * _polynomial_matrix(rng, 2, 6, 1))
    else:
        mats.append(random_sparse(rng, 5, 2, 0.8) * random_sparse(rng, 2, 6))
    adds = []
    division = linalg._exact_division
    monkeypatch.setattr(linalg, "_exact_division",
                        lambda d: adds.append(1) or division(d))

    def count(run):
        adds.clear()
        out = run()
        return out, len(adds)

    kernel_dims = []
    for mat in mats:
        (kernel, image, rank), n_add = count(
            lambda: kernel_image_rank(mat, field))
        assert n_add == rank
        cols = [mat.col(j) for j in range(1, mat.cols + 1)]
        assert count(lambda: Subspace.from_vectors(mat.rows, cols)) == (
            image, rank)
        if rank == mat.rows == mat.cols:
            assert count(lambda: invert(mat, field))[1] == rank
        assert kernel.dim == mat.cols - rank
        assert all(mat.apply(v) == {} for v in kernel.basis)
        assert _typed(Subspace.from_vectors(mat.cols, kernel.basis)) == (
            _typed(kernel))
        kernel_dims.append(kernel.dim)
    # the low-rank product has a kernel of dimension at least 4
    assert kernel_dims[-1] >= 4


def _blocks(mat):
    return linalg._components({j: mat.col(j) for j in range(1, mat.cols + 1)})


def _typed(obj):
    """Plain data of an elimination result, with the type of every value."""
    if isinstance(obj, Subspace):
        return (obj.ambient_dim, obj.pivots, _typed(obj.basis))
    if isinstance(obj, dict):
        return sorted((k, _typed(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [_typed(x) for x in obj]
    return (type(obj).__name__, str(obj))


def _sympy_oracle(sympy, field):
    """Converters between rsqg scalars and sympy DomainMatrices over QQ
    (sampled) or ZZ(r, s) (symbolic)."""
    from sympy.polys.matrices import DomainMatrix

    r, s = sympy.symbols("r s")
    symbolic = field.mode == "symbolic"
    domain = sympy.ZZ.frac_field(r, s) if symbolic else sympy.QQ

    def rational(c):
        c = Fraction(c)
        return sympy.Rational(c.numerator, c.denominator)

    def poly(p):
        return sum((rational(c) * r**a * s**b
                    for (a, b), c in p.terms.items()), sympy.Integer(0))

    def to_sympy(v):
        if isinstance(v, RatFunc):
            return poly(v.num) / poly(v.den)
        return rational(v)

    def scalar(e):
        """An element of the domain as a Fraction or a RatFunc."""
        if not symbolic:
            return Fraction(int(e.numerator), int(e.denominator))
        return RatFunc(*(BiPoly({m: int(c) for m, c in p.terms()})
                         for p in (e.numer, e.denom)))

    def dense(mat):
        return DomainMatrix.from_Matrix(sympy.Matrix(
            mat.rows, mat.cols,
            lambda i, j: to_sympy(mat.get(i + 1, j + 1) or 0))
        ).convert_to(domain)

    def rows(dm):
        """The rows of a DomainMatrix as sparse vectors of rsqg scalars."""
        return [{j: scalar(v) for j, v in enumerate(row, 1) if v}
                for row in dm.to_list()]

    return dense, rows


def _oracle_inputs(rng, field):
    """Dense 2x2 to 4x4 matrices, each also with a dependent last column,
    and a block-diagonal one, singular too; entry degrees stay <= 2 (the
    4x4 ones <= 1), since sympy takes about 30 s on degree-2 4x4s.  Over
    Q(r, s) also three whose canonical entries have Fraction
    coefficients, so that their column forms are made integral."""
    if field.mode == "symbolic":
        dense = [_polynomial_matrix(rng, n, n, 2 if n < 4 else 1,
                                    3 if n < 4 else 2) for n in (2, 3, 4)]
        c = field.r - 2
    else:
        dense = [random_sparse(rng, n, n, 0.9) for n in (2, 3, 4)]
        c = Fraction(-3, 2)
    dense += [_with_dependent_column(m, c) for m in dense]
    blocks = [dense[0], dense[4], dense[1]]
    out = dense + [_block_diagonal(rng, blocks[:2]),
                   _block_diagonal(rng, blocks[::2])]
    if field.mode == "symbolic":
        # canonical entries with Fraction coefficients: R(z) at the
        # eliminate benchmark's z, a matrix scaled by it, and entries
        # whose denominators, made integral, have contents 1, 2 and 3 and
        # the common factor s^2 - r, which _b_gcd returns as r - s^2, with
        # a negative leading coefficient in graded lex order
        z = _eliminate_z(field)
        r, s = field.r, field.s
        out += [build_r_z(2, field).at(z), dense[0].scale(z),
                Matrix(2, 2, {(1, 1): (r + 1) / (r * 2 + 4),
                              (1, 2): s / (s * s * 3 - r * 3),
                              (2, 1): (r - s) / ((s * s - r) * (r + 3)),
                              (2, 2): r / 2})]
    return out


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("field", [SampledField(3, 2), SymbolicField()],
                         ids=["sampled", "symbolic"])
def test_elimination_against_sympy(field, seed):
    """invert equals sympy's inverse; kernel_image_rank has sympy's rank,
    and its kernel and image are the canonical bases that a field-based
    Gauss-Jordan reference gives for sympy's nullspace and columnspace."""
    sympy = pytest.importorskip("sympy")
    dense, rows = _sympy_oracle(sympy, field)
    for mat in _oracle_inputs(random.Random(seed), field):
        if field.mode == "symbolic":
            _assert_integral_form(mat)
        m = dense(mat)
        kernel, image, rank = kernel_image_rank(mat, field)
        assert rank == m.rank()
        # sympy's nullspace lists its vectors as rows, columnspace as columns
        for got, span in ((kernel, m.nullspace()),
                          (image, m.columnspace().transpose())):
            assert (got.pivots, got.basis) == reference_echelon(rows(span))
        cols = [mat.col(j) for j in range(1, mat.cols + 1)]
        assert (image.pivots, image.basis) == reference_echelon(cols)
        if rank < mat.rows:
            with pytest.raises(SingularInput):
                invert(mat, field)
            continue
        assert invert(mat, field).entries == {
            (i, j): v for i, row in enumerate(rows(m.inv()), 1)
            for j, v in row.items()}
