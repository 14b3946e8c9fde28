from fractions import Fraction

import pytest

import rsqg.rmatrix as rmatrix
from rsqg import (InvalidPower, InvalidRank, Matrix, SampledField,
                  SingularInput, SpectralRMatrix, SymbolicField, build_r,
                  build_r_inverse, build_r_z, check_braid_constant,
                  check_min_poly, check_module_morphism, check_ybe_spectral,
                  invert, jimbo_compare, specialize_jimbo, tensor_index,
                  yang_baxterize)

sym = SymbolicField()
smp = SampledField(2, 3)


def test_build_r_n2_entries():
    R = build_r(2, sym)
    one, r = sym.one, sym.r
    sinv = sym.s**-1
    assert R == Matrix(4, 4, {
        (1, 1): one, (4, 4): one,          # fixes v_i x v_i
        (3, 2): r,                          # v1 x v2 -> r v2 x v1
        (2, 3): sinv, (3, 3): one - r * sinv,  # v2 x v1 column
    })
    assert build_r(1, sym) == Matrix.identity(1, sym.one)
    with pytest.raises(InvalidRank):
        build_r(0, sym)


def test_build_r_eigenvector():
    R = build_r(2, sym)
    vec = {2: sym.one, 3: -sym.r}  # v1 x v2 - r v2 x v1
    lam = -(sym.r * sym.s**-1)
    assert R.apply(vec) == {t: lam * c for t, c in vec.items()}


def test_build_r_inverse_formula_and_elimination():
    for n in (2, 3):
        R = build_r(n, sym)
        Rinv = build_r_inverse(n, sym)
        assert R * Rinv == Matrix.identity(n * n, sym.one)
        assert Rinv == invert(R, sym)
    # R^{-1}(v1 x v2) = s v2 x v1 + (1 - r^{-1} s)(v1 x v2)
    Rinv = build_r_inverse(2, sym)
    assert Rinv.col(2) == {3: sym.s, 2: sym.one - sym.r**-1 * sym.s}


def test_yang_baxterize_identity():
    ident = Matrix.identity(4, smp.one)
    rz = yang_baxterize(ident, smp.one, smp.one, smp)
    assert rz.n == 2
    assert rz.at(smp.from_int(3)) == ident.scale(Fraction(4))
    with pytest.raises(ValueError):
        yang_baxterize(ident, smp.zero, smp.one, smp)
    with pytest.raises(SingularInput):
        yang_baxterize(Matrix.zero(4, 4), smp.one, smp.one, smp)
    with pytest.raises(InvalidRank):
        yang_baxterize(Matrix.identity(3, smp.one), smp.one, smp.one, smp)


def test_build_r_z_routes_agree():
    # build_r_z cross-checks three constructions internally
    for n in (2, 3, 4):
        build_r_z(n, sym)
    for n in (2, 3, 4, 5):
        build_r_z(n, smp)


def test_r_z_at_zero_is_r():
    for n in (2, 3):
        rz = build_r_z(n, sym)
        assert rz.A == build_r(n, sym)
        assert rz.at(sym.zero) == build_r(n, sym)


def test_r_z_at_one_is_scalar():
    for field in (sym, smp):
        rz = build_r_z(3, field)
        c = field.one - field.r * field.s**-1
        assert rz.at(field.one) == Matrix.identity(9, field.one).scale(c)


def test_r_z_explicit_coefficients_n2():
    rz = build_r_z(2, sym)
    one, r = sym.one, sym.r
    rs = r * sym.s**-1
    # coefficient of v1 x v1 -> v1 x v1 is 1 - z r s^{-1}
    assert rz.A.get(1, 1) == one and rz.B.get(1, 1) == -rs
    # R(z)(v1 x v2) = z(1 - rs^{-1}) v1 x v2 + (1 - z) r v2 x v1
    col = tensor_index((1, 2), 2)
    assert rz.A.col(col) == {3: r}
    assert rz.B.col(col) == {3: -r, 2: one - rs}


def test_braid_and_far_commutation():
    for n in (1, 2, 3):
        assert check_braid_constant(n, sym)
    assert check_braid_constant(4, smp)


def test_min_poly():
    for n in (2, 3, 4):
        assert check_min_poly(n, sym)
    assert check_min_poly(2, smp)
    with pytest.raises(InvalidRank):
        check_min_poly(1, sym)
    # minimality: neither factor annihilates alone
    R = build_r(2, sym)
    ident = Matrix.identity(4, sym.one)
    assert not (R - ident).is_zero()
    assert not (R + ident.scale(sym.r * sym.s**-1)).is_zero()


def test_quadratic_relation():
    for n in (2, 3):
        R = build_r(n, sym)
        rs = sym.r * sym.s**-1
        ident = Matrix.identity(n * n, sym.one)
        assert R * R == R.scale(sym.one - rs) + ident.scale(rs)


def test_ybe_spectral():
    assert check_ybe_spectral(2, sym)
    assert check_ybe_spectral(3, smp)


def test_ybe_point_z_w_one():
    rz = build_r_z(2, sym)
    c = sym.one - sym.r * sym.s**-1
    m = rz.at(sym.one)
    ident = Matrix.identity(4, sym.one)
    assert m == ident.scale(c)
    # both YBE sides at z = w = 1 collapse to c^3 I on V x V x V
    big = Matrix.identity(8, sym.one).scale(c**3)
    i2 = Matrix.identity(2, sym.one)
    r1 = m.kron(i2)
    r2 = i2.kron(m)
    assert r1 * r2 * r1 == big
    assert r2 * r1 * r2 == big


def test_module_morphism():
    assert check_module_morphism(2, 2, sym)
    assert check_module_morphism(3, 3, smp)
    with pytest.raises(InvalidPower):
        check_module_morphism(2, 1, sym)


def test_jimbo_specialized_entries():
    rz = build_r_z(2, sym)
    q = sym.r  # the image Q(q) is written in r
    # diagonal entry 1 - z q^2
    assert specialize_jimbo(rz.A.get(1, 1)) == sym.one
    assert specialize_jimbo(rz.B.get(1, 1)) == -(q * q)
    # both exchange entries collapse to (1 - z) q
    assert specialize_jimbo(rz.A.get(3, 2)) == q
    assert specialize_jimbo(rz.A.get(2, 3)) == q


def test_jimbo_compare():
    assert jimbo_compare(2)
    assert jimbo_compare(3)


# Mutation tests: each verifier must reject a corrupted R.  At n = 2 the
# exchange v1 x v2 -> r v2 x v1 is the entry (3, 2).

def _with_entry(mat, pos, value):
    ent = dict(mat.entries)
    ent[pos] = value
    return Matrix(mat.rows, mat.cols, ent)


def _double_11(R, field):
    return _with_entry(R, (1, 1), R.get(1, 1) * field.from_int(2))


def _flip_r_exchange(R, field):
    return _with_entry(R, (3, 2), -R.get(3, 2))


def _scale_b(rz, field):
    return SpectralRMatrix(rz.n, rz.A, rz.B.scale(field.from_int(2)))


def _negate_a_exchange(rz, field):
    return SpectralRMatrix(rz.n, _with_entry(rz.A, (3, 2), -rz.A.get(3, 2)),
                           rz.B)


def _constant_checks(field):
    return (check_braid_constant(2, field), check_min_poly(2, field),
            check_module_morphism(2, 2, field))


@pytest.mark.parametrize("field", [sym, smp], ids=["symbolic", "sampled"])
@pytest.mark.parametrize("corrupt", [_double_11, _flip_r_exchange])
def test_constant_r_checks_reject_a_corrupted_r(monkeypatch, field, corrupt):
    assert _constant_checks(field) == (True, True, True)
    true_r = rmatrix.build_r
    monkeypatch.setattr(rmatrix, "build_r",
                        lambda n, f: corrupt(true_r(n, f), f))
    assert _constant_checks(field) == (False, False, False)


@pytest.mark.parametrize("corrupt", [_scale_b, _negate_a_exchange])
def test_spectral_checks_reject_a_corrupted_r_z(monkeypatch, corrupt):
    assert check_ybe_spectral(2, sym) and check_ybe_spectral(2, smp)
    assert jimbo_compare(2)
    true_r_z = rmatrix.build_r_z
    monkeypatch.setattr(rmatrix, "build_r_z",
                        lambda n, f: corrupt(true_r_z(n, f), f))
    assert not check_ybe_spectral(2, sym)
    assert not check_ybe_spectral(2, smp)
    assert not jimbo_compare(2)
