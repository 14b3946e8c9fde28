from fractions import Fraction

import pytest

import rsqg.uqrs as uqrs_mod
from rsqg import (InvalidPower, InvalidRank, Matrix, NonDiagonalAction,
                  Representation, SampledField, SymbolicField, Weight,
                  check_defining_relations, highest_weight_vectors,
                  hopf_antipode_check, natural_rep, tensor_index,
                  tensor_power_rep, weight_char, weight_spaces)

from helpers import kron_tensor_power

sym = SymbolicField()
smp = SampledField(2, 3)


def test_natural_rep_matrices_n2():
    rep = natural_rep(2, sym)
    r, s, one = sym.r, sym.s, sym.one
    assert rep.e(1) == Matrix(2, 2, {(1, 2): one})
    assert rep.f(1) == Matrix(2, 2, {(2, 1): one})
    assert rep.w(1) == Matrix.diagonal([r, s])
    assert rep.wp(1) == Matrix.diagonal([s, r])
    assert rep.w_inv(1) == Matrix.diagonal([r**-1, s**-1])
    assert rep.dim == 2 and rep.n == 2


def test_natural_rep_omega_profile_n3():
    rep = natural_rep(3, sym)
    r, s, one = sym.r, sym.s, sym.one
    assert rep.w(2) == Matrix.diagonal([one, r, s])
    # v_3 is fixed by w_1 (eigenvalue r^0 s^0 = 1)
    assert rep.w(1).apply({3: one}) == {3: one}


def test_natural_rep_invalid_rank():
    with pytest.raises(InvalidRank):
        natural_rep(1, sym)


def test_defining_relations_pass_natural():
    for n in (2, 3, 4):
        assert check_defining_relations(natural_rep(n, sym)).ok
    for n in (2, 5):
        assert check_defining_relations(natural_rep(n, smp)).ok


def test_commutator_r4_explicit_n2():
    rep = natural_rep(2, sym)
    lhs = rep.e(1) * rep.f(1) - rep.f(1) * rep.e(1)
    assert lhs == Matrix.diagonal([sym.one, -sym.one])
    rhs = (rep.w(1) - rep.wp(1)).scale(sym.one / (sym.r - sym.s))
    assert rhs == lhs


def test_relation_failure_witness():
    rep = natural_rep(2, sym)
    gens = dict(rep.gens)
    ident = Matrix.identity(2, sym.one)
    gens["w1"] = ident
    gens["w1_inv"] = ident
    broken = Representation(2, 2, gens, sym, rep.weights)
    report = check_defining_relations(broken)
    assert not report.ok
    bad = {(c.name, c.indices) for c in report.failures()}
    assert ("R2:we", (1, 1)) in bad
    item = next(c for c in report.failures() if c.name == "R2:we")
    assert item.witness is not None
    assert "witness_basis_index" in item.witness
    json_rows = report.to_json()
    failing = [row for row in json_rows if not row["ok"]]
    assert failing and "lhs" in failing[0] and "rhs" in failing[0]


def test_tensor_power_rep_k1_is_base():
    rep = natural_rep(3, smp)
    pow1 = tensor_power_rep(3, 1, smp)
    assert pow1.gens == rep.gens
    with pytest.raises(InvalidPower):
        tensor_power_rep(3, 0, smp)
    with pytest.raises(InvalidRank):
        tensor_power_rep(1, 2, smp)


def test_tensor_power_coproduct_action_n2():
    rep2 = tensor_power_rep(2, 2, sym)
    one, r, s = sym.one, sym.r, sym.s
    # e1 (v2 x v2) = v1 x v2 + s v2 x v1
    assert rep2.e(1).col(tensor_index((2, 2), 2)) == {
        tensor_index((1, 2), 2): one, tensor_index((2, 1), 2): s}
    # w1 (v1 x v2) = r s (v1 x v2)
    assert rep2.w(1).col(tensor_index((1, 2), 2)) == {
        tensor_index((1, 2), 2): r * s}
    # f1 (v1 x v1) = v2 x (w1' v1) + v1 x v2 = s v2 x v1 + v1 x v2
    assert rep2.f(1).col(tensor_index((1, 1), 2)) == {
        tensor_index((2, 1), 2): s, tensor_index((1, 2), 2): one}


def test_tensor_power_satisfies_relations():
    for n, k in ((2, 2), (2, 3), (3, 2), (3, 3)):
        rep = tensor_power_rep(n, k, sym)
        assert check_defining_relations(rep).ok


_KRON_CASES = ((2, 2, sym), (2, 3, sym), (3, 2, sym), (3, 3, sym),
               (4, 3, SampledField(4, 2)))


def test_tensor_action_matches_matrices():
    # every column of tensor_power_rep is tensor_action on one monomial;
    # the Kronecker chains of the coproduct are an independent reference
    for n, k, field in _KRON_CASES:
        rep = tensor_power_rep(n, k, field)
        assert rep.gens == kron_tensor_power(n, k, field), (n, k, field)


def test_tensor_action_without_e_prefix_is_caught(monkeypatch):
    real = uqrs_mod.tensor_action

    def no_prefix(field, n, name, tup):
        out = real(field, n, name, tup)
        if name.startswith("e"):
            return {img: field.one for img in out}
        return out

    monkeypatch.setattr(uqrs_mod, "tensor_action", no_prefix)
    for n, k, field in _KRON_CASES:
        rep = tensor_power_rep(n, k, field)
        assert rep.gens != kron_tensor_power(n, k, field), (n, k, field)


def test_weight_constructors():
    assert Weight.fundamental(2, 4).coords == (1, 1, 0, 0)
    assert Weight.fundamental(0, 3) == Weight((0, 0, 0))
    assert str(Weight((1, 0, -1))) == "(1, 0, -1)"


def test_weight_char_values():
    wc = weight_char(Weight((1, 0)), 2, sym)
    assert wc == (((sym.r), (sym.s)),)
    zero = weight_char(Weight((0, 0, 0)), 3, sym)
    assert all(p == (sym.one, sym.one) for p in zero)
    # fundamental weight pattern: rs below k, r at k, 1 above
    n, k = 4, 2
    wc = weight_char(Weight.fundamental(k, n), n, sym)
    assert wc[0][0] == sym.r * sym.s
    assert wc[1][0] == sym.r
    assert wc[2][0] == sym.one
    assert wc[0][1] == sym.r * sym.s
    assert wc[1][1] == sym.s
    assert wc[2][1] == sym.one


def test_weight_spaces_natural_and_square():
    spaces = weight_spaces(natural_rep(2, smp))
    assert set(spaces) == {Weight((1, 0)), Weight((0, 1))}
    assert all(sp.dim == 1 for sp in spaces.values())
    rep2 = tensor_power_rep(2, 2, smp)
    spaces = weight_spaces(rep2)
    dims = {w.coords: sp.dim for w, sp in spaces.items()}
    assert dims == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert sum(dims.values()) == rep2.dim


def test_weight_spaces_sampled_and_symbolic_agree():
    for n, k in ((2, 2), (3, 2)):
        a = weight_spaces(tensor_power_rep(n, k, sym))
        b = weight_spaces(tensor_power_rep(n, k, smp))
        assert {w.coords for w in a} == {w.coords for w in b}


def test_weight_spaces_rejects_non_diagonal():
    rep = natural_rep(2, sym)
    gens = dict(rep.gens)
    gens["w1"] = Matrix(2, 2, {(1, 2): sym.one, (2, 1): sym.one})
    broken = Representation(2, 2, gens, sym, rep.weights)
    with pytest.raises(NonDiagonalAction):
        weight_spaces(broken)
    # the right diagonal plus one off-diagonal entry
    gens["w1"] = rep.w(1) + Matrix(2, 2, {(1, 2): sym.one})
    broken = Representation(2, 2, gens, sym, rep.weights)
    with pytest.raises(NonDiagonalAction, match=r"w1 .* \(1, 2\)") as exc:
        weight_spaces(broken)
    # column 2 of w1 against the character s of the weight eps_2
    assert exc.value.witness == {"witness_basis_index": 2,
                                 "lhs": {1: sym.one, 2: sym.s},
                                 "rhs": {2: sym.s}}


def test_weight_spaces_verifies_the_carried_weights():
    # w1 = diag(s, r) is diagonal with monomial entries, but not the
    # character of the weights eps_1, eps_2 that the natural module carries
    rep = natural_rep(2, sym)
    gens = dict(rep.gens, w1=Matrix.diagonal([sym.s, sym.r]))
    with pytest.raises(NonDiagonalAction, match=r"w1 .* basis vector 1 "):
        weight_spaces(Representation(2, 2, gens, sym, rep.weights))
    # w1' rescaled at one basis vector of the tensor square
    rep2 = tensor_power_rep(2, 2, smp)
    ent = dict(rep2.wp(1).entries)
    ent[(3, 3)] *= 5
    gens = dict(rep2.gens, wp1=Matrix(4, 4, ent))
    with pytest.raises(NonDiagonalAction,
                       match=r"wp1 .* basis vector 3 .*\(1, 1\)"):
        weight_spaces(Representation(2, 4, gens, smp, rep2.weights))


def test_highest_weight_vectors_natural():
    for n in (2, 3, 4):
        hw = highest_weight_vectors(natural_rep(n, smp))
        assert len(hw) == 1
        vec, w = hw[0]
        assert vec == {1: smp.one}
        assert w == Weight((1,) + (0,) * (n - 1))


def test_highest_weight_vectors_tensor_square():
    rep2 = tensor_power_rep(2, 2, sym)
    hw = highest_weight_vectors(rep2)
    assert len(hw) == 2
    by_weight = {w.coords: vec for vec, w in hw}
    assert by_weight[(2, 0)] == {1: sym.one}
    # the canonical form of v1 x v2 - r v2 x v1 (monic at the trailing pivot)
    line = by_weight[(1, 1)]
    assert set(line) == {2, 3}
    assert line[2] / line[3] == -(sym.r**-1)


def test_hopf_antipode_check():
    for n in (2, 3, 4, 5):
        assert hopf_antipode_check(natural_rep(n, sym)).ok
    rep = natural_rep(2, sym)
    gens = dict(rep.gens)
    gens["w1_inv"] = Matrix.identity(2, sym.one)
    broken = Representation(2, 2, gens, sym, rep.weights)
    report = hopf_antipode_check(broken)
    assert not report.ok
    assert any(c.name == "antipode:w" for c in report.failures())


def test_representation_json_shape():
    rep = natural_rep(2, smp)
    data = rep.to_json()
    assert data["n"] == 2 and data["dim"] == 2
    assert set(data["generators"]) == {"e1", "f1", "w1", "wp1",
                                       "w1_inv", "wp1_inv"}
    assert data["generators"]["w1"]["entries"] == [[1, 1, "2"], [2, 2, "3"]]


def test_representation_shape_validation():
    with pytest.raises(ValueError):
        Representation(2, 3, {"e1": Matrix.zero(2, 2)}, smp,
                       [Weight((0, 0))] * 3)
    with pytest.raises(ValueError):
        Representation(2, 2, {"e1": Matrix.zero(2, 2)}, smp,
                       [Weight((0, 0))] * 3)
