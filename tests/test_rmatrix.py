from fractions import Fraction

import pytest

from rsqg import (CheckReport, InvalidPower, InvalidRank, Matrix,
                  SampledField, SingularInput, SpectralRMatrix, SymbolicField,
                  build_r, build_r_inverse, build_r_z, check_braid_constant,
                  check_min_poly, check_module_morphism, check_ybe_spectral,
                  invert, jimbo_compare, natural_rep, specialize_jimbo,
                  tensor_index, tensor_power_rep, yang_baxterize)

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
    assert rz.at(smp.from_fraction(3)) == ident.scale(Fraction(4))
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
        assert check_braid_constant(build_r(n, sym), sym).ok
    assert check_braid_constant(build_r(4, smp), smp).ok
    # a 3 x 3 operator acts on no V x V; padding it would still multiply
    with pytest.raises(InvalidRank, match="tensor square"):
        check_braid_constant(Matrix.identity(3, smp.one), smp)


def test_min_poly():
    for n in (2, 3, 4):
        assert check_min_poly(build_r(n, sym), sym).ok
    assert check_min_poly(build_r(2, smp), smp).ok
    with pytest.raises(InvalidRank):
        check_min_poly(build_r(1, sym), sym)
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
    report = check_ybe_spectral(build_r_z(2, sym), sym)
    assert report.ok
    grid = (1, 2, 3, 5)
    assert [c.indices for c in report.checks] == [(z, w) for z in grid
                                                  for w in grid]
    assert check_ybe_spectral(build_r_z(3, smp), smp).ok


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
    assert check_module_morphism(build_r(2, sym),
                                 tensor_power_rep(2, 2, sym)).ok
    assert check_module_morphism(build_r(3, smp),
                                 tensor_power_rep(3, 3, smp)).ok
    with pytest.raises(InvalidPower):
        check_module_morphism(build_r(2, sym), tensor_power_rep(2, 1, sym))


def test_module_morphism_rejects_the_natural_module():
    # one tensor factor has no adjacent position, so zero rows would pass
    for n in (2, 3):
        with pytest.raises(InvalidPower, match="needs k >= 2"):
            check_module_morphism(build_r(n, smp), natural_rep(n, smp))
    # the module must be a tensor power of the space R acts on
    with pytest.raises(InvalidRank, match="no tensor power"):
        check_module_morphism(build_r(3, smp), tensor_power_rep(2, 2, smp))


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
    for n in (2, 3):
        report = jimbo_compare(build_r_z(n, sym))
        assert report.ok
        assert [(c.name, c.indices) for c in report.checks] == \
            [("jimbo:A", (n,)), ("jimbo:B", (n,))]
    # the substitution r -> q, s -> q^-1 needs r and s as variables
    with pytest.raises(ValueError, match=r"over Q\(r, s\)"):
        jimbo_compare(build_r_z(2, smp))


def test_check_report_has_no_truth_value():
    # a report read as a bool would pass `all(...)` vacuously
    for report in (check_braid_constant(build_r(2, smp), smp),
                   CheckReport([])):
        with pytest.raises(TypeError, match=r"read \.ok"):
            bool(report)
        with pytest.raises(TypeError):
            all([report])


# Mutation tests: each verifier must reject a corrupted R.  At n = 2 the
# exchange v1 x v2 -> r v2 x v1 is the entry (3, 2).

def _with_entry(mat, pos, value):
    ent = dict(mat.entries)
    ent[pos] = value
    return Matrix(mat.rows, mat.cols, ent)


def _double_11(R, field):
    return _with_entry(R, (1, 1), R.get(1, 1) * field.from_fraction(2))


def _flip_r_exchange(R, field):
    return _with_entry(R, (3, 2), -R.get(3, 2))


def _scale_b(rz, field):
    return SpectralRMatrix(rz.n, rz.A, rz.B.scale(field.from_fraction(2)))


def _negate_a_exchange(rz, field):
    return SpectralRMatrix(rz.n, _with_entry(rz.A, (3, 2), -rz.A.get(3, 2)),
                           rz.B)


def _constant_checks(R, field):
    return (check_braid_constant(R, field), check_min_poly(R, field),
            check_module_morphism(R, tensor_power_rep(2, 2, field)))


def _failed(report):
    return {(c.name, c.indices) for c in report.failures()}


def _assert_first_difference(row, lhs, rhs):
    """row's witness is the first basis column where lhs and rhs differ."""
    j = row.witness["witness_basis_index"]
    assert all(lhs.col(i) == rhs.col(i) for i in range(1, j))
    assert (row.witness["lhs"], row.witness["rhs"]) == (lhs.col(j), rhs.col(j))
    assert lhs.col(j) != rhs.col(j)


@pytest.mark.parametrize("field", [sym, smp], ids=["symbolic", "sampled"])
@pytest.mark.parametrize("corrupt", [_double_11, _flip_r_exchange])
def test_constant_r_checks_reject_a_corrupted_r(field, corrupt):
    R = build_r(2, field)
    assert [c.ok for c in _constant_checks(R, field)] == [True, True, True]
    bad = corrupt(R, field)
    assert [c.ok for c in _constant_checks(bad, field)] == [False, False,
                                                            False]


@pytest.mark.parametrize("field", [sym, smp], ids=["symbolic", "sampled"])
def test_flipped_exchange_fails_braid_with_a_witness(field):
    bad = _flip_r_exchange(build_r(2, field), field)
    report = check_braid_constant(bad, field)
    assert _failed(report) == {("braid", (1, 2))}
    i2 = Matrix.identity(2, field.one)
    r1, r2 = bad.kron(i2), i2.kron(bad)
    _assert_first_difference(report.failures()[0], r1 * r2 * r1, r2 * r1 * r2)


@pytest.mark.parametrize("field", [sym, smp], ids=["symbolic", "sampled"])
def test_corrupted_r_fails_morphism_rows_by_position_and_generator(field):
    bad = _double_11(build_r(2, field), field)
    rep = tensor_power_rep(2, 3, field)
    report = check_module_morphism(bad, rep)
    # only e1 and f1 move v1 x v1; the diagonal generators still commute
    assert _failed(report) == {("morphism", (pos, g))
                               for pos in (1, 2) for g in ("e1", "f1")}
    assert len(report.checks) == 2 * 6
    row = next(c for c in report.failures() if c.indices == (2, "e1"))
    i2 = Matrix.identity(2, field.one)
    rp, g = i2.kron(bad), rep.gens["e1"]
    _assert_first_difference(row, rp * g, g * rp)


@pytest.mark.parametrize("corrupt", [_scale_b, _negate_a_exchange])
def test_spectral_checks_reject_a_corrupted_r_z(corrupt):
    for field in (sym, smp):
        rz = build_r_z(2, field)
        assert check_ybe_spectral(rz, field).ok
        assert not check_ybe_spectral(corrupt(rz, field), field).ok
    rz = build_r_z(2, sym)
    assert jimbo_compare(rz).ok
    assert not jimbo_compare(corrupt(rz, sym)).ok


def test_scaled_b_fails_every_grid_point_and_jimbo_b():
    grid = (1, 2, 3, 5)
    for field in (sym, smp):
        report = check_ybe_spectral(_scale_b(build_r_z(2, field), field),
                                    field)
        assert _failed(report) == {("ybe", (z, w)) for z in grid
                                   for w in grid}
        assert all(c.witness is not None for c in report.checks)
    report = jimbo_compare(_scale_b(build_r_z(2, sym), sym))
    assert _failed(report) == {("jimbo:B", (2,))}
    # B(1, 1) = -r s^-1 specializes to -q^2, doubled here
    q = sym.r
    assert report.failures()[0].witness == {
        "witness_basis_index": 1, "lhs": {1: -(q * q) * sym.from_fraction(2)},
        "rhs": {1: -(q * q)}}


def test_negated_a_exchange_fails_jimbo_a():
    report = jimbo_compare(_negate_a_exchange(build_r_z(2, sym), sym))
    assert _failed(report) == {("jimbo:A", (2,))}
    # column v1 x v2 = 2 holds the exchange entry (3, 2) = r -> q
    q = sym.r
    assert report.failures()[0].witness == {
        "witness_basis_index": 2, "lhs": {3: -q}, "rhs": {3: q}}
