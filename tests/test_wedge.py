import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

import rsqg.wedge as wedge_mod
from rsqg import (InvalidPower, InvalidRank, SampledField, SpectralRMatrix,
                  Subspace, SymbolicField, Weight, WellDefinednessFailure,
                  alt2, build_r_z, build_wedge_module,
                  highest_weight_vectors, natural_rep,
                  spectral_projector_check, straighten, sym2, tensor_index,
                  verify_fundamental, wedge_dimension, weight_spaces)
from rsqg.linalg import pair_placements

from helpers import corrupt_ambient_generator, dense_rank

sym = SymbolicField()
smp = SampledField(2, 3)


def _inversions(tup):
    return sum(1 for i in range(len(tup)) for j in range(i + 1, len(tup))
               if tup[i] > tup[j])


def test_sym2_alt2_dimensions_and_sum():
    for n in range(2, 7):
        s2 = sym2(n, smp)
        a2 = alt2(n, smp)
        assert s2.dim == n * (n + 1) // 2
        assert a2.dim == n * (n - 1) // 2
        both = Subspace.from_vectors(n * n, s2.basis + a2.basis)
        assert both.dim == n * n


def test_sym2_alt2_explicit_n2():
    s2 = sym2(2, sym)
    one, r, s = sym.one, sym.r, sym.s
    assert s2.dim == 3
    assert s2.contains_vector({1: one})
    assert s2.contains_vector({4: one})
    assert s2.contains_vector({2: one, 3: s})
    assert not s2.contains_vector({2: one, 3: -r})
    a2 = alt2(2, sym)
    assert a2.dim == 1
    assert a2.contains_vector({2: one, 3: -r})


def test_spectral_projector_identities():
    for n in (2, 3, 4):
        report = spectral_projector_check(build_r_z(n, sym))
        assert report.ok, [c.name for c in report.failures()]
        assert all(c.witness is None for c in report.checks)
    assert spectral_projector_check(build_r_z(2, smp)).ok
    with pytest.raises(InvalidRank):
        spectral_projector_check(build_r_z(1, sym))


@pytest.mark.parametrize("field", [sym, smp], ids=["symbolic", "sampled"])
def test_spectral_projector_check_rejects_a_scaled_b(field):
    # A + 2zB is R(2z), which is invertible at z = rs^-1 and at z = r^-1 s:
    # both images are everything and both kernels are zero
    rz = build_r_z(2, field)
    bad = SpectralRMatrix(2, rz.A, rz.B.scale(field.from_fraction(2)), field)
    report = spectral_projector_check(bad)
    assert {c.name for c in report.failures()} == {
        "image R(rs^-1) = sym2", "kernel R(rs^-1) = alt2",
        "kernel R(r^-1 s) = sym2", "image R(r^-1 s) = alt2"}
    # each witness is the first pivot where the computed (lhs) and expected
    # (rhs) canonical bases differ: the full image has a pivot at every
    # index, the zero kernel at none
    one = field.one
    w = {c.name: c.witness for c in report.checks}
    assert w["image R(rs^-1) = sym2"] == {
        "witness_basis_index": 2, "lhs": {2: one}, "rhs": {}}
    assert w["kernel R(rs^-1) = alt2"] == {
        "witness_basis_index": 3, "lhs": {}, "rhs": alt2(2, field).basis[0]}
    assert w["kernel R(r^-1 s) = sym2"] == {
        "witness_basis_index": 1, "lhs": {}, "rhs": {1: one}}
    assert w["image R(r^-1 s) = alt2"] == {
        "witness_basis_index": 1, "lhs": {1: one}, "rhs": {}}


@pytest.mark.parametrize("field", [sym, smp], ids=["symbolic", "sampled"])
@pytest.mark.parametrize("square, rows", [
    ("sym2", {"image R(rs^-1) = sym2", "kernel R(r^-1 s) = sym2"}),
    ("alt2", {"kernel R(rs^-1) = alt2", "image R(r^-1 s) = alt2"})])
def test_spectral_projector_check_rejects_a_wrong_square(monkeypatch, field,
                                                         square, rows):
    # a doubled exchange coefficient describes some other subspace, so
    # exactly the two rows that compare R(z) with that square must fail
    spec = wedge_mod._SQUARES[square]
    monkeypatch.setitem(wedge_mod._SQUARES, square,
                        lambda f: (2 * spec(f)[0], spec(f)[1]))
    report = spectral_projector_check(build_r_z(3, field))
    assert {c.name for c in report.failures()} == rows
    for row in report.failures():
        w = row.witness
        assert w is not None and w["lhs"] != w["rhs"]


def test_wedge_dimension_against_dense_oracle(monkeypatch):
    # independent dense elimination over the same spanning vectors
    for n, k in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        vecs = list(wedge_mod._insertion_vectors(n, k, smp))
        rank = dense_rank(vecs, n**k)
        assert wedge_dimension(n, k, smp) == n**k - rank
        assert n**k - rank == math.comb(n, k)
    # double the coefficient of v2 x v1 x v3 in the insertion of
    # v1 x v2 + s v2 x v1: the cycles through (1, 2, 3) become unbalanced,
    # so a pass that skips the cycle-balance test gives 1 and 4; the pass
    # reads the distinct-entry relations only, and the oracle eliminates
    # the whole corrupted stream
    real = wedge_mod._insertion_vectors

    def corrupted(n, k, field, square="sym2", tuples=None):
        bad = tensor_index((2, 1, 3), n)
        for vec in real(n, k, field, square, tuples):
            if vec.keys() == {tensor_index((1, 2, 3), n), bad}:
                vec = {**vec, bad: 2 * vec[bad]}
            yield vec

    monkeypatch.setattr(wedge_mod, "_insertion_vectors", corrupted)
    for n, want in ((3, 0), (4, 3)):
        rank = dense_rank(list(corrupted(n, 3, smp)), n**3)
        assert wedge_dimension(n, 3, smp) == n**3 - rank == want


@pytest.mark.parametrize("field", [smp, sym], ids=["sampled", "symbolic"])
@pytest.mark.parametrize("square, c, diagonal", [
    ("sym2", lambda f: f.s, True), ("alt2", lambda f: -f.r, False)])
def test_insertion_vectors_are_the_position_major_set(field, square, c,
                                                      diagonal):
    # the square in V x V, written out here, placed position by position
    # through pair_placements gives the same set, each vector once, and
    # _insertion_vectors yields it in nondecreasing order of the larger index
    one, c = field.one, c(field)
    for n, k in ((2, 3), (3, 3), (4, 3), (3, 4)):
        vecs = ([{tensor_index((i, i), n): one}
                 for i in range(1, n + 1) if diagonal]
                + [{tensor_index((i, j), n): one, tensor_index((j, i), n): c}
                   for i in range(1, n + 1) for j in range(i + 1, n + 1)])
        want = [{place[l - 1]: v for l, v in vec.items()}
                for pos in range(1, k) for block in pair_placements(n, pos, k)
                for vec in vecs for place in block]
        got = list(wedge_mod._insertion_vectors(n, k, field, square))
        assert all(isinstance(vec, dict) for vec in got)
        assert len(got) == len(want), (n, k)
        assert ({frozenset(vec.items()) for vec in got}
                == {frozenset(vec.items()) for vec in want}), (n, k)
        larger = [max(vec) for vec in got]
        assert larger == sorted(larger), (n, k)


def test_gain_graph_pass_needs_relations_in_index_order(monkeypatch):
    # the one forward pass links each index once, under the root of a
    # smaller one, so it checks the order it relies on: a shuffled stream,
    # or an in-order stream with one extra relation joining two live
    # roots, raises and names the larger index of the offending relation;
    # the substituted streams are those the pass reads, over the tuples
    # with distinct entries
    real = wedge_mod._insertion_vectors

    def quotient(n, k, vecs):
        with monkeypatch.context() as m:
            m.setattr(wedge_mod, "_insertion_vectors",
                      lambda n, k, field, tuples: iter(vecs))
            return wedge_mod._wedge_quotient(n, k, smp)[0]

    def distinct(n, k):
        return list(real(n, k, smp, tuples=permutations(range(1, n + 1), k)))

    for n, k in ((2, 3), (3, 2), (3, 3), (3, 4), (4, 3)):
        qd, _ = wedge_mod._wedge_quotient(n, k, smp)
        rank = dense_rank(list(real(n, k, smp)), n**k)
        assert len(qd.rep_indices) == n**k - rank, (n, k)
    vecs = distinct(3, 3)
    random.Random(5).shuffle(vecs)
    with pytest.raises(WellDefinednessFailure,
                       match="relation at index .* follows one at index"):
        quotient(3, 3, vecs)
    b = tensor_index((3, 2), 3)
    vecs = distinct(3, 2)
    at = max(i for i, vec in enumerate(vecs) if max(vec) == b) + 1
    vecs.insert(at, {tensor_index((1, 2), 3): smp.one, b: smp.one})
    with pytest.raises(WellDefinednessFailure,
                       match=f"relation at index {b} joins"):
        quotient(3, 2, vecs)


def test_gain_graph_pass_reads_only_distinct_entry_relations(monkeypatch):
    # every tuple with a repeated entry is dead without being read: for
    # k > n the pass reads no relation at all, and for (4, 3) it reads
    # exactly the relations of the full stream whose larger index has
    # distinct entries, in the same order
    real = wedge_mod._insertion_vectors
    read = []

    def counted(*args, **kwargs):
        for vec in real(*args, **kwargs):
            read.append(vec)
            yield vec

    monkeypatch.setattr(wedge_mod, "_insertion_vectors", counted)
    for n, k in ((6, 7), (4, 5)):
        read.clear()
        assert wedge_dimension(n, k, smp) == 0
        assert read == [], (n, k)
    read.clear()
    assert wedge_dimension(4, 3, smp) == 4
    distinct = {tensor_index(t, 4) for t in permutations(range(1, 5), 3)}
    want = [vec for vec in real(4, 3, smp) if max(vec) in distinct]
    assert 0 < len(want) < len(list(real(4, 3, smp)))
    assert read == want


def test_a_square_without_unit_relations_is_refused(monkeypatch):
    # the distinct-entry shortcut rests on the unit relations v_i x v_i of
    # S2; with them taken out the quotient raises instead of reading the
    # repeated-entry tuples as dead
    c = wedge_mod._SQUARES["sym2"]
    monkeypatch.setitem(wedge_mod._SQUARES, "sym2",
                        lambda field: (c(field)[0], False))
    with pytest.raises(ValueError, match="unit relations"):
        wedge_mod._wedge_quotient(3, 2, smp)


@pytest.mark.parametrize("field", [SampledField(2, 3), SampledField(4, 2),
                                   SampledField(1, -3), SampledField(3, -1),
                                   sym],
                         ids=["2,3", "4,2", "1,-3", "3,-1", "symbolic"])
def test_gain_graph_quotient_matches_elimination(field):
    # the representatives are the non-pivot coordinates of the trailing-
    # pivot echelon form of the relations, and the projection kills them
    # (the independent reference: the full S2 stream, every n^k tuple)
    for n, k in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (3, 5),
                 (4, 2), (4, 3)):
        sub = Subspace.from_vectors(
            n**k, wedge_mod._insertion_vectors(n, k, field))
        qd, _ = wedge_mod._wedge_quotient(n, k, field)
        pivots = set(sub.pivots)
        assert list(qd.rep_indices) == [t for t in range(1, n**k + 1)
                                        if t not in pivots], (n, k)
        for row in sub.basis:
            assert qd.project_vector(row) == {}, (n, k)


def test_wedge_dimension_boundaries():
    assert wedge_dimension(3, 0, smp) == 1
    assert wedge_dimension(3, 1, smp) == 3
    assert wedge_dimension(2, 3, smp) == 0
    assert wedge_dimension(3, 4, smp) == 0
    with pytest.raises(InvalidRank):
        wedge_dimension(1, 2, smp)
    with pytest.raises(InvalidPower):
        wedge_dimension(3, -1, smp)


def test_wedge_dimension_symbolic():
    for n, k in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3)):
        assert wedge_dimension(n, k, sym) == math.comb(n, k)


def test_build_wedge_k1_is_natural():
    mod = build_wedge_module(3, 1, smp)
    assert mod.dim == 3
    assert mod.labels == [(1,), (2,), (3,)]
    assert mod.induced.gens == natural_rep(3, smp).gens


def test_build_wedge_32():
    mod = build_wedge_module(3, 2, smp)
    assert mod.dim == 3
    assert mod.labels == [(1, 2), (1, 3), (2, 3)]
    # the projection is onto, so its kernel (the relation span) has dim 6
    assert mod.qdata.projection.cols - len(mod.qdata.rep_indices) == 6
    # e1 (v2 ^ v3) = v1 ^ v3, e1 (v1 ^ v2) = 0
    assert mod.induced.e(1).col(3) == {2: smp.one}
    assert mod.induced.e(1).col(1) == {}
    # f1 (v1 ^ v3) = v2 ^ v3
    assert mod.induced.f(1).col(2) == {3: smp.one}


def test_build_wedge_22_scalars():
    mod = build_wedge_module(2, 2, sym)
    assert mod.dim == 1
    assert mod.induced.e(1).is_zero()
    assert mod.induced.f(1).is_zero()
    assert mod.induced.w(1).get(1, 1) == sym.r * sym.s
    assert mod.induced.wp(1).get(1, 1) == sym.r * sym.s


def test_build_wedge_zero_module():
    mod = build_wedge_module(2, 3, smp)
    assert mod.dim == 0
    assert mod.labels == []


@pytest.mark.parametrize("field", [SampledField(3, 2), sym],
                         ids=["sampled", "symbolic"])
def test_zero_wedge_module_builds_no_ambient_generator(monkeypatch, field):
    """For k > n the quotient is 0: the guard P G = G_hat P compares two
    0-row matrices, so no generator of V^{x k} is built."""
    def refuse(*args):
        raise AssertionError("ambient generator built for a zero module")

    monkeypatch.setattr(wedge_mod, "_tensor_generator", refuse)
    for n, k in ((3, 4), (4, 6)):
        names = [f"{g}{i}" for g in ("e", "f", "w", "wp")
                 for i in range(1, n)]
        names += [f"{g}{i}_inv" for g in ("w", "wp") for i in range(1, n)]
        empty = {"rows": 0, "cols": 0, "entries": []}
        assert build_wedge_module(n, k, field).to_json() == {
            "n": n, "k": k, "dim": 0, "labels": [],
            "generators": {name: empty for name in names}}


def test_build_wedge_dimensions():
    assert build_wedge_module(4, 2, smp).dim == 6
    assert build_wedge_module(5, 3, smp).dim == 10


def test_build_wedge_errors():
    with pytest.raises(InvalidRank):
        build_wedge_module(1, 1, smp)
    with pytest.raises(InvalidPower):
        build_wedge_module(2, 0, smp)


def test_labels_are_strictly_increasing_tuples():
    from itertools import combinations
    for n, k in ((3, 2), (4, 2), (4, 3), (5, 2)):
        mod = build_wedge_module(n, k, smp)
        assert mod.labels == list(combinations(range(1, n + 1), k))


def test_straighten_examples():
    mod = build_wedge_module(3, 2, sym)
    assert mod.straighten((2, 1)) == {(1, 2): -(sym.s**-1)}
    assert mod.straighten((1, 1)) == {}
    assert mod.straighten((1, 3)) == {(1, 3): sym.one}
    mod3 = build_wedge_module(3, 3, sym)
    assert mod3.straighten((3, 1, 2)) == {(1, 2, 3): sym.s**-2}
    with pytest.raises(ValueError):
        mod.straighten((1, 2, 3))
    with pytest.raises(ValueError):
        mod.straighten((0, 1))


def test_straighten_standalone_matches_module():
    assert straighten(3, 2, (2, 1), sym) == {(1, 2): -(sym.s**-1)}
    assert straighten(2, 2, (1, 1), smp) == {}


def test_straighten_standalone_rejects_what_wedge_dimension_rejects():
    # the same guards and messages as wedge_dimension, for both fields
    for field in (smp, sym):
        with pytest.raises(InvalidPower,
                           match="^tensor power k must be nonnegative$"):
            straighten(3, -1, (1,), field)
        with pytest.raises(InvalidRank,
                           match="^rank parameter n must be at least 2$"):
            straighten(1, 2, (1, 1), field)


def test_straighten_sign_rule_all_permutations():
    mod = build_wedge_module(3, 3, sym)
    for perm in permutations((1, 2, 3)):
        expansion = mod.straighten(perm)
        coeff = (-(sym.s**-1))**_inversions(perm)
        assert expansion == {(1, 2, 3): coeff}, perm


def test_straighten_linearity_via_projection():
    # straightening respects the defining relation v_i x v_j = -s^{-1} v_j x v_i
    mod = build_wedge_module(4, 2, smp)
    for i in range(1, 5):
        for j in range(1, 5):
            got = mod.straighten((i, j))
            if i == j:
                assert got == {}
            elif i < j:
                assert got == {(i, j): smp.one}
            else:
                assert got == {(j, i): -(smp.s**-1)}


def test_wedge_weight_spaces_32():
    mod = build_wedge_module(3, 2, smp)
    spaces = weight_spaces(mod.induced)
    assert {w.coords for w in spaces} == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert all(sp.dim == 1 for sp in spaces.values())


def test_wedge_highest_weight_vector_unique():
    mod = build_wedge_module(3, 2, smp)
    hw = highest_weight_vectors(mod.induced)
    assert len(hw) == 1
    vec, w = hw[0]
    assert vec == {1: smp.one}
    assert w == Weight.fundamental(2, 3)


def test_verify_fundamental():
    for n, k in ((2, 1), (2, 2), (3, 2), (4, 2), (4, 4)):
        report = verify_fundamental(build_wedge_module(n, k, smp))
        assert report.ok, (n, k, [c.name for c in report.failures()])
    report = verify_fundamental(build_wedge_module(3, 2, sym))
    assert report.ok
    # multiplicatively dependent parameters: r = s^2, and r = 1
    for (n, k), field in (((3, 2), SampledField(4, 2)),
                          ((4, 3), SampledField(1, -3))):
        assert verify_fundamental(build_wedge_module(n, k, field)).ok


def test_verify_fundamental_fails_on_a_wrong_weight_action():
    # a corrupted w1 is a failed "weights" row, not an exception
    mod = build_wedge_module(3, 2, smp)
    mod.induced.gens["w1"] = mod.induced.w(1).scale(smp.r)
    report = verify_fundamental(mod)
    failed = {c.name for c in report.failures()}
    assert "weights are the k-subsets" in failed
    # the row names where: w1 on wedge basis vector 1 (v1 ^ v2, weight
    # eps_1 + eps_2) should act by r s but acts by r^2 s
    row = next(r for r in report.to_json()
               if r["relation"] == "weights are the k-subsets")
    assert row["witness_basis_index"] == 1
    assert row["lhs"] == {"1": "12"} and row["rhs"] == {"1": "6"}


@pytest.mark.parametrize("field", [SampledField(2, 3), sym],
                         ids=["sampled", "symbolic"])
@pytest.mark.parametrize("n, k, i", [(3, 2, 1), (4, 2, 2), (4, 3, 3)])
def test_verify_fundamental_fails_without_an_f(field, n, k, i):
    # with f_i zero the f action no longer reaches every wedge basis
    # vector; only the cyclic row can see it
    mod = build_wedge_module(n, k, field)
    mod.induced.gens[f"f{i}"] = mod.induced.f(i).scale(0)
    report = verify_fundamental(mod)
    assert [c.name for c in report.failures()] == [
        "cyclic under the f action"]


def test_verify_fundamental_fails_without_the_highest_label():
    mod = build_wedge_module(3, 2, smp)
    mod.labels = [lab[::-1] for lab in mod.labels]
    report = verify_fundamental(mod)
    assert [c.name for c in report.failures()] == ["highest label present"]


def test_verify_fundamental_bounds():
    # k > n builds the zero module, which is no fundamental module
    with pytest.raises(InvalidPower, match="1 <= k <= n"):
        verify_fundamental(build_wedge_module(2, 3, smp))
    with pytest.raises(InvalidPower):
        build_wedge_module(2, 0, smp)


def test_well_definedness_guard_fires_on_corruption(monkeypatch):
    # sabotage the generator action: a map that does not preserve the
    # relation subspace must be rejected
    corrupt_ambient_generator(monkeypatch, "e1", (2, 1), (1, 2))
    with pytest.raises(WellDefinednessFailure) as info:
        build_wedge_module(2, 2, smp)
    # the message names the generator and the ambient basis tuple
    assert "e1" in str(info.value) and "(2, 1)" in str(info.value)


def _scale_ambient_e1(monkeypatch):
    # 2 e1 preserves the relations, so only the relation check sees it
    real = wedge_mod._tensor_generator

    def scaled(field, n, k, name):
        mat = real(field, n, k, name)
        return mat.scale(2 * field.one) if name == "e1" else mat

    monkeypatch.setattr(wedge_mod, "_tensor_generator", scaled)


@pytest.mark.parametrize("field", [smp, sym], ids=["sampled", "symbolic"])
def test_induced_relation_check_fires_on_a_scaled_generator(monkeypatch,
                                                            field):
    _scale_ambient_e1(monkeypatch)
    with pytest.raises(WellDefinednessFailure,
                       match=r"^induced matrices at \(n, k\) = \(3, 2\) "
                             r"violate .*R4"):
        build_wedge_module(3, 2, field)


def test_cli_wedge_exits_3_on_a_scaled_generator(monkeypatch, capsys):
    import rsqg.cli as cli

    _scale_ambient_e1(monkeypatch)
    assert cli.main(["wedge", "-n", "3", "-k", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "violate" in err


@pytest.mark.parametrize("field", [smp, sym], ids=["sampled", "symbolic"])
@pytest.mark.parametrize("name, src, dst, where, img, want", [
    # f1 v1 x v3 = v1 x v2 changes the induced f1 on v1 ^ v3, so the
    # first tuple to fail is (3, 1) in the same component, not (1, 3)
    ("f1", (1, 3), (1, 2), (3, 1), "{3: -s^-1}", "{1: -s^-1}"),
    # v2 x v2 is dead, but e1 v2 x v2 = v1 x v3 is not
    ("e1", (2, 2), (1, 3), (2, 2), "{2: 1}", "{}")])
def test_well_definedness_guard_names_the_first_failing_tuple(
        monkeypatch, field, name, src, dst, where, img, want):
    corrupt_ambient_generator(monkeypatch, name, src, dst)
    with pytest.raises(WellDefinednessFailure) as info:
        build_wedge_module(3, 2, field)
    s_inv = str(-(field.s**-1))
    assert str(info.value) == (
        f"{name} does not preserve the relations at (n, k) = (3, 2): at "
        f"the ambient basis tuple t = {where}, projection({name} e_t) = "
        f"{img.replace('-s^-1', s_inv)} but {name} projection(e_t) = "
        f"{want.replace('-s^-1', s_inv)}")


def test_wedge_json_shape():
    mod = build_wedge_module(3, 2, smp)
    data = mod.to_json()
    assert data["n"] == 3 and data["k"] == 2 and data["dim"] == 3
    assert data["labels"] == [[1, 2], [1, 3], [2, 3]]
    assert set(data["generators"]) == {
        "e1", "e2", "f1", "f2", "w1", "w2", "wp1", "wp2",
        "w1_inv", "w2_inv", "wp1_inv", "wp2_inv"}
