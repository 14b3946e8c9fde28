import random
from fractions import Fraction

import pytest

from rsqg import (Matrix, SampledField, SingularInput, Subspace,
                  SymbolicField, invert, kernel_image_rank, tensor_index,
                  tensor_tuple)

from helpers import dense_mul, dense_rank, from_dense, random_sparse, to_dense

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


def test_matrix_json_sorted():
    m = Matrix(2, 2, {(2, 1): Fraction(3), (1, 2): Fraction(-1, 2)})
    assert m.to_json() == {
        "rows": 2, "cols": 2,
        "entries": [[1, 2, "-1/2"], [2, 1, "3"]],
    }


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
