import random
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

import rsqg.uqrs as uqrs_mod
from rsqg import (InvalidPower, InvalidRank, Matrix, NonDiagonalAction,
                  RatFunc, Representation, SampledField, Subspace,
                  SymbolicField, Weight, build_wedge_module,
                  check_defining_relations, highest_weight_vectors,
                  hopf_antipode_check, natural_rep, tensor_action,
                  tensor_index, tensor_power_rep, tensor_tuple, weight_char,
                  weight_spaces)

from helpers import kron_tensor_power, per_generator_highest_weight_space

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


@pytest.mark.parametrize("seed", range(3))
def test_diagonal_rows_decide_as_the_products_do(seed):
    # _compare_diagonal decides d x = c x d from the diagonal of d, with
    # d, x and c over either field or mixed, d with missing diagonal
    # entries or an off-diagonal one; each verdict and witness is that of
    # _compare on the two products
    rng = random.Random(seed)
    r, one = sym.r, sym.one
    pools = {"Q": ([1, 2, 4, Fraction(-1, 3)], [1, 2, Fraction(1, 2)]),
             "Q(r, s)": ([one, r, r * r, sym.s], [1, r, 1 / r])}
    verdicts = Counter()
    for _ in range(60):
        dim = rng.randint(1, 5)
        dvals, cvals = pools[rng.choice(list(pools))]
        c = rng.choice(cvals)
        if rng.random() < 0.2:  # c from the other field
            c = sym.from_fraction(2) if c in (1, 2, Fraction(1, 2)) else 2
        diag = {t: rng.choice(dvals) for t in range(1, dim + 1)
                if rng.random() < 0.85}
        ent = {(t, t): v for t, v in diag.items()}
        if rng.random() < 0.2:
            ent[(rng.randint(1, dim), rng.randint(1, dim))] = 3
        # x mostly on the pairs where d_i = c d_j, so that rows also hold
        pairs = [(i, j) for i in range(1, dim + 1) for j in range(1, dim + 1)
                 if rng.random() < 0.1
                 or diag.get(i, 0) == c * diag.get(j, 0) and rng.random() < 0.7]
        xvals = rng.choice(list(pools.values()))[0]
        d = Matrix(dim, dim, ent)
        x = Matrix(dim, dim, {ij: rng.choice(xvals) for ij in pairs})

        def sides():
            return d * x, (x * d).scale(c)

        got = uqrs_mod._compare_diagonal("row", (1,), d, x, c, sides)
        assert got == uqrs_mod._compare("row", (1,), *sides())
        verdicts[got.ok] += 1
    assert verdicts[True] > 10 and verdicts[False] > 10


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
    # every term of e with coefficient 1: the w_i prefix dropped from
    # Delta^(k)(e_i), which the Kronecker reference must tell apart
    real = uqrs_mod._tensor_generator

    def no_prefix(field, n, k, name):
        mat = real(field, n, k, name)
        if not name.startswith("e"):
            return mat
        den, cols = mat._form()
        return Matrix._from_form(mat.rows, mat.cols, (den, {
            j: dict.fromkeys(col, den) for j, col in cols.items()}))

    monkeypatch.setattr(uqrs_mod, "_tensor_generator", no_prefix)
    for n, k, field in _KRON_CASES:
        rep, ref = tensor_power_rep(n, k, field), kron_tensor_power(n, k, field)
        assert rep.gens != ref, (n, k, field)
        assert [name for name in rep.gens if rep.gens[name] != ref[name]
                ] == [f"e{i}" for i in range(1, n)], (n, k, field)


@pytest.mark.parametrize("field", [sym, SampledField(Fraction(-2, 3), 5),
                                   SampledField(Fraction(3, 4),
                                                Fraction(-1, 6))],
                         ids=["Q(r, s)", "(-2/3, 5)", "(3/4, -1/6)"])
def test_tensor_generator_form_is_that_of_its_entries(field):
    # the form born from the coproduct codes against the form of the
    # entries of tensor_action, den and numerators alike: denominators
    # from the inverses and negative values from the sampled points
    for n in (2, 3, 4):
        for k in (1, 2, 3, 4):
            for name in uqrs_mod._generator_names(n):
                ent = {(tensor_index(u, n), col): c
                       for col in range(1, n**k + 1)
                       for u, c in tensor_action(
                           field, n, name, tensor_tuple(col, n, k)).items()}
                got = uqrs_mod._tensor_generator(field, n, k, name)
                den, cols = Matrix(n**k, n**k, ent)._form()
                assert type(got._form()[0]) is type(den)
                assert got._form() == (den, cols), (n, k, name)


def test_tensor_power_columns_are_tensor_action():
    # the stride placement against the tuple image of tensor_action
    for field in (sym, SampledField(Fraction(1, 2), 3)):
        for n in (2, 3, 4):
            for k in (1, 2, 3):
                rep = tensor_power_rep(n, k, field)
                for name in rep.generator_names():
                    mat = rep.gens[name]
                    for col in range(1, rep.dim + 1):
                        img = tensor_action(field, n, name,
                                            tensor_tuple(col, n, k))
                        assert mat.col(col) == {
                            tensor_index(u, n): c for u, c in img.items()
                        }, (field, n, k, name, col)
    with pytest.raises(ValueError, match="unknown generator 'x1'"):
        tensor_action(sym, 3, "x1", (1, 2))


def test_tensor_action_rejects_what_rank_n_lacks():
    # e5 and v4 do not exist at rank 3; neither is an empty image
    for name in ("e5", "wp3_inv", "f0"):
        with pytest.raises(ValueError, match=f"unknown generator '{name}'"):
            tensor_action(smp, 3, name, (1, 2))
    for tup in ((1, 4), (0, 2)):
        with pytest.raises(ValueError, match="tuple entries must lie in 1..n"):
            tensor_action(smp, 3, "e1", tup)
    assert tensor_action(smp, 3, "e2", (1, 3)) == {(1, 2): smp.one}


def test_tensor_power_generators_are_built_on_first_use(monkeypatch):
    real = uqrs_mod._tensor_generator
    seen = []

    def recording(field, n, k, name):
        seen.append(name)
        return real(field, n, k, name)

    monkeypatch.setattr(uqrs_mod, "_tensor_generator", recording)
    rep = tensor_power_rep(4, 3, smp)
    assert seen == []
    # the weight check builds the group-likes it reads and keeps none
    weight_spaces(rep)
    assert seen == ["w1", "wp1", "w2", "wp2", "w3", "wp3"]
    assert rep.e(2) is rep.e(2) and rep.w(1) is rep.w(1)
    assert seen[6:] == ["e2", "w1"]
    # a held generator is read, not built again
    weight_spaces(rep)
    assert seen[8:] == ["wp1", "w2", "wp2", "w3", "wp3"]


def test_weight_check_of_a_tensor_power_reads_what_is_built(monkeypatch):
    # the group-likes the weight check builds and drops are the ones a
    # lookup builds, so a corrupted builder fails the check
    real = uqrs_mod._tensor_generator

    def scaled(field, n, k, name):
        mat = real(field, n, k, name)
        return mat.scale(2) if name == "wp2" else mat

    monkeypatch.setattr(uqrs_mod, "_tensor_generator", scaled)
    with pytest.raises(NonDiagonalAction,
                       match=r"^wp2 .* basis vector 1 .*\(3, 0, 0\)$") as exc:
        weight_spaces(tensor_power_rep(3, 3, smp))
    assert exc.value.witness == {"witness_basis_index": 1,
                                 "lhs": {1: Fraction(2)},
                                 "rhs": {1: Fraction(1)}}


def test_tensor_power_weights_are_shared_contents():
    # one Weight object per distinct content, in the per-tuple order
    for n, k in ((2, 1), (2, 3), (3, 4), (4, 6), (5, 3)):
        weights = tensor_power_rep(n, k, smp).weights
        assert weights == [uqrs_mod._content(tup, n) for tup in
                           (tensor_tuple(t, n, k) for t in range(1, n**k + 1))]
        assert len({id(w) for w in weights}) == len(set(weights))
    assert len(set(tensor_power_rep(4, 6, smp).weights)) == 84


def test_tensor_power_generators_read_as_a_dict():
    rep = tensor_power_rep(3, 2, smp)
    assert list(rep.gens) == uqrs_mod._generator_names(3)
    assert len(rep.gens) == 12
    assert "e2" in rep.gens and "e3" not in rep.gens
    assert rep.gens["e1"] is rep.gens["e1"]
    with pytest.raises(KeyError):
        rep.gens["e3"]
    with pytest.raises(TypeError):
        rep.gens["e1"] = rep.gens["f1"]
    ref = kron_tensor_power(3, 2, smp)
    assert dict(rep.gens) == ref
    assert rep.gens == ref and ref == rep.gens
    assert tensor_power_rep(3, 2, smp).gens != kron_tensor_power(3, 2, sym)


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
    with pytest.raises(NonDiagonalAction,
                       match=r"^w1 .* basis vector 1 .* \(1, 0\)$") as exc:
        weight_spaces(broken)
    assert exc.value.witness == {"witness_basis_index": 1,
                                 "lhs": {2: sym.one}, "rhs": {1: sym.r}}
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
    with pytest.raises(NonDiagonalAction, match=r"w1 .* basis vector 1 ") as exc:
        weight_spaces(Representation(2, 2, gens, sym, rep.weights))
    assert exc.value.witness == {"witness_basis_index": 1,
                                 "lhs": {1: sym.s}, "rhs": {1: sym.r}}
    # the right value at v_1 repeated at v_2, whose character differs
    gens = dict(rep.gens, w1=Matrix.diagonal([sym.r, sym.r]))
    with pytest.raises(NonDiagonalAction, match=r"w1 .* basis vector 2 ") as exc:
        weight_spaces(Representation(2, 2, gens, sym, rep.weights))
    assert exc.value.witness == {"witness_basis_index": 2,
                                 "lhs": {2: sym.r}, "rhs": {2: sym.s}}
    # w1' rescaled at one basis vector of the tensor square
    rep2 = tensor_power_rep(2, 2, smp)
    ent = dict(rep2.wp(1).entries)
    ent[(3, 3)] *= 5
    gens = dict(rep2.gens, wp1=Matrix(4, 4, ent))
    with pytest.raises(NonDiagonalAction,
                       match=r"wp1 .* basis vector 3 .*\(1, 1\)") as exc:
        weight_spaces(Representation(2, 4, gens, smp, rep2.weights))
    assert exc.value.witness == {"witness_basis_index": 3,
                                 "lhs": {3: Fraction(30)}, "rhs": {3: Fraction(6)}}


def test_weight_spaces_accept_equal_but_not_identical_characters():
    # the carried characters are memoized objects; a rebuilt generator
    # holds equal values in new objects and must pass all the same
    def rebuilt(v):
        if isinstance(v, Fraction):
            return Fraction(v.numerator, v.denominator)
        return RatFunc(v.num, v.den)

    for field in (smp, sym):
        rep = tensor_power_rep(3, 2, field)
        gens = dict(rep.gens)
        for name in ("w1", "wp1", "w2", "wp2"):
            ent = {key: rebuilt(v) for key, v in rep.gens[name].entries.items()}
            assert all(ent[key] is not v
                       for key, v in rep.gens[name].entries.items())
            gens[name] = Matrix(9, 9, ent)
        copy = Representation(3, 9, gens, field, rep.weights)
        assert weight_spaces(copy) == weight_spaces(rep)


def test_weight_spaces_are_the_eliminated_unit_vectors():
    one = smp.one
    for rep in (tensor_power_rep(3, 3, smp),
                build_wedge_module(4, 2, smp).induced):
        spaces = weight_spaces(rep)
        assert sum(sp.dim for sp in spaces.values()) == rep.dim
        for w, sp in spaces.items():
            idxs = [t for t, wt in enumerate(rep.weights, 1) if wt == w]
            ref = Subspace.from_vectors(rep.dim, [{t: one} for t in idxs])
            assert sp.pivots == ref.pivots and sp.basis == ref.basis
            assert sp == ref


def test_highest_weight_vectors_natural():
    for n in (2, 3, 4):
        hw = highest_weight_vectors(natural_rep(n, smp))
        assert len(hw) == 1
        vec, w = hw[0]
        assert vec == {1: smp.one}
        assert w == Weight((1,) + (0,) * (n - 1))


def test_highest_weight_vectors_rejects_an_inhomogeneous_kernel():
    # with e1 = E12 - E11 the kernel vector v1 + v2 mixes two weights
    rep = natural_rep(2, smp)
    gens = dict(rep.gens, e1=Matrix(2, 2, {(1, 2): smp.one,
                                           (1, 1): -smp.one}))
    broken = Representation(2, 2, gens, smp, rep.weights)
    with pytest.raises(NonDiagonalAction, match="not homogeneous"):
        highest_weight_vectors(broken)


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


def _partitions(k, parts, largest=None):
    """Partitions of k into at most parts parts, padded with zeros."""
    largest = k if largest is None else largest
    if parts == 0:
        return [()] if k == 0 else []
    return [(a,) + rest for a in range(min(k, largest), -1, -1)
            for rest in _partitions(k - a, parts - 1, a)]


def _standard_tableaux(lam):
    """f^lam, the number of standard Young tableaux of shape lam, by the
    hook length formula."""
    conj = [sum(1 for row in lam if row > c) for c in range(lam[0])]
    hooks = prod(row - c + conj[c] - i - 1
                 for i, row in enumerate(lam) for c in range(row))
    return factorial(sum(lam)) // hooks


@pytest.mark.parametrize("field", [SampledField(2, 3), SampledField(5, -3),
                                   SymbolicField()],
                         ids=["2,3", "5,-3", "symbolic"])
@pytest.mark.parametrize("n, k", [(2, 3), (3, 3), (2, 4), (3, 4)])
def test_highest_weight_vectors_of_tensor_powers(field, n, k):
    """V^{x k} has f^lam highest weight vectors of weight lam for each
    partition lam of k into at most n parts, each homogeneous and killed
    by every e_i, and they are the canonical basis that the per-generator
    construction gives, value types included."""
    rep = tensor_power_rep(n, k, field)
    hw = highest_weight_vectors(rep)
    assert Counter(w.coords for _, w in hw) == {
        lam: _standard_tableaux(lam) for lam in _partitions(k, n)}
    for vec, w in hw:
        assert {rep.weights[t - 1] for t in vec} == {w}
        assert all(rep.e(i).apply(vec) == {} for i in range(1, n))
    ref = per_generator_highest_weight_space(rep).basis

    def typed(vecs):
        return [sorted((t, type(v), v) for t, v in vec.items())
                for vec in vecs]

    assert typed(vec for vec, _ in hw) == typed(ref)


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
    with pytest.raises(ValueError, match="^generator e1 has wrong shape$"):
        Representation(2, 2, {"e1": Matrix(3, 3)}, smp, [Weight((0, 0))] * 2)
