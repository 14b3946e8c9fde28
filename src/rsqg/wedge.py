"""(r,s)-exterior powers of the natural module via the fusion quotient.

The tensor square splits into the (r,s)-symmetric square S2, spanned by
v_i x v_i and v_i x v_j + s v_j x v_i (i < j), and the (r,s)-exterior
square spanned by v_i x v_j - r v_j x v_i, each written once (_SQUARES);
both are cut out by the spectral R-matrix at r s^{-1} and r^{-1} s.  The
k-th wedge module is the quotient of V^{x k} by S2 inserted at every
adjacent pair of factors, each written once at its larger ambient index.

Every relation vector has one or two nonzero coordinates, so the relation
span is a gain graph on the n^k tensor indices (Zaslavsky, "Biased graphs
I", 1989).  A swap of two unequal entries keeps the multiset of entries,
and S2 kills v_i x v_i, so every tuple with a repeated entry is dead: the
pass reads only the relations at the n!/(n-k)! tuples with distinct
entries, and none at all for k > n; a square without S2's unit relations
is refused.  The relations arrive in increasing order of their larger
index, so one forward pass over them links each index straight under its
root and builds the quotient without elimination.  The coset
representatives are the smallest indices of the live components, which
are exactly the strictly increasing index tuples, so the quotient basis
is the familiar v_{i1} ^ ... ^ v_{ik} with i1 < ... < ik and dimension
C(n, k).  The gain from a tuple to its representative is its
straightening coefficient; it is a field value, so a special sampled
point cannot change a verdict unseen.  The checks take what they
certify: an R(z), or a QuotientModule with its n, k, field.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations, product

from .linalg import (Matrix, QuotientData, Subspace, kernel_image_rank,
                     tensor_index, tensor_tuple)
from .uqrs import (CheckItem, CheckReport, InvalidPower, InvalidRank,
                   NonDiagonalAction, Representation, Weight, _compare,
                   _content, _generator_names, _tensor_generator,
                   check_defining_relations, weight_char, weight_spaces)


class WellDefinednessFailure(AssertionError):
    """The relation subspace is not preserved by a generator action, or
    its relations break the order the one-pass quotient relies on."""


_SQUARES = {"sym2": lambda field: (field.s, True),
            "alt2": lambda field: (-field.r, False)}


def _insertion_vectors(n, k, field, square="sym2", tuples=None):
    """A square, written once in _SQUARES as (c, diagonal), inserted at
    every adjacent pair of factors of V^{x k}: sparse vectors, each once at
    its larger index b.  b runs over the index tuples in tuples (all of
    them by default), which must come in increasing index order.  Where
    factors (p, p + 1) of b hold i > j, e_a + c e_b with a the index of b
    with the two swapped; where they hold i == j, e_b if diagonal.  For
    S2, a repeated entry thus dies at its sorted tuple, the first index of
    its component, and a live tuple links straight under its root."""
    if n < 1:
        raise InvalidRank("rank parameter n must be at least 1")
    c, diagonal = _SQUARES[square](field)
    one = field.one
    if tuples is None:
        tuples = product(range(1, n + 1), repeat=k)
    # swapping i > j on factors (p, p + 1) lowers the index by (i - j) drop[p]
    drop = [n**(k - 1 - p) - n**(k - 2 - p) for p in range(k - 1)]
    for tup in tuples:
        b = tensor_index(tup, n)
        for p, step in enumerate(drop):
            i, j = tup[p], tup[p + 1]
            if i > j:
                yield {b - (i - j) * step: one, b: c}
            elif i == j and diagonal:
                yield {b: one}


def sym2(n, field):
    """The (r,s)-symmetric square of V inside V x V."""
    return Subspace.from_vectors(n * n, _insertion_vectors(n, 2, field))


def alt2(n, field):
    """The (r,s)-exterior square of V inside V x V."""
    return Subspace.from_vectors(n * n,
                                 _insertion_vectors(n, 2, field, "alt2"))


def spectral_projector_check(rz):
    """The special evaluations of R(z) cut out the two squares:
    Im R(rs^{-1}) = S2 = Ker R(r^{-1}s) and Ker R(rs^{-1}) = Alt2 = Im R(r^{-1}s),
    with r, s from the field of rz."""
    n, field = rz.n, rz.field
    if n < 2:
        raise InvalidRank("projector check needs n >= 2")
    rs = field.r * field.s**-1
    s2 = sym2(n, field)
    a2 = alt2(n, field)
    ker_rs, im_rs, _ = kernel_image_rank(rz.at(rs), field)
    ker_sr, im_sr, _ = kernel_image_rank(rz.at(rs**-1), field)
    return CheckReport([
        _compare_subspaces("image R(rs^-1) = sym2", n, im_rs, s2),
        _compare_subspaces("kernel R(rs^-1) = alt2", n, ker_rs, a2),
        _compare_subspaces("kernel R(r^-1 s) = sym2", n, ker_sr, s2),
        _compare_subspaces("image R(r^-1 s) = alt2", n, im_sr, a2),
    ])


def _compare_subspaces(name, n, got, want):
    """A failure names the first pivot where the canonical bases differ,
    with the basis vector of each side there ({} where a side has none)."""
    if got == want:
        return CheckItem(name, (n,), True)
    lhs = dict(zip(got.pivots, got.basis))
    rhs = dict(zip(want.pivots, want.basis))
    p = min(i for i in lhs.keys() | rhs.keys() if lhs.get(i) != rhs.get(i))
    return CheckItem(name, (n,), False, {"witness_basis_index": p,
                                         "lhs": lhs.get(p, {}),
                                         "rhs": rhs.get(p, {})})


def wedge_dimension(n, k, field):
    """dim of the k-th wedge quotient: the number of live gain-graph roots."""
    return len(_wedge_quotient(n, k, field)[1])


def _wedge_quotient(n, k, field):
    """Quotient data and wedge labels of V^{x k}, in one forward pass.

    x_t = gain[t] x_root[t] modulo the relations, and every live root is
    the smallest index of its component.  Every relation read is
    {a: 1, b: c} with a < b, and they arrive by larger index b, so nothing
    lies under b yet and every smaller index points straight at its root:
    b's first relation links b under the root of a, and a later one
    closes a cycle, which kills the root unless its gain is 1.
    The live roots are the coset representatives; column t of the
    projection is gain[t] at the row of root[t].  A relation out of this
    order, or one joining two roots, is a WellDefinednessFailure.

    Only the tuples with distinct entries are candidates, and only their
    relations are read.  A swap of two unequal entries keeps the multiset
    of entries, so no relation joins a distinct-entry tuple to one with a
    repeated entry; and a tuple with a repeated entry sorts, swap by swap,
    into one with two equal adjacent entries, which S2 kills by its unit
    relation v_i x v_i.  So every other component is dead, and its column
    of the projection is 0.  This holds only because S2 is diagonal, so a
    square without the unit relations raises ValueError.
    """
    if n < 2:
        raise InvalidRank("rank parameter n must be at least 2")
    if k < 0:
        raise InvalidPower("tensor power k must be nonnegative")
    if not _SQUARES["sym2"](field)[1]:
        raise ValueError("the distinct-entry pass needs the unit relations "
                         "v_i x v_i of a diagonal square")
    label = {tensor_index(tup, n): tup
             for tup in permutations(range(1, n + 1), k)}
    root = {t: t for t in label}
    gain = dict.fromkeys(label, field.one)
    dead = dict.fromkeys(label, 0)
    last = 0
    for vec in _insertion_vectors(n, k, field, tuples=label.values()):
        (a, ca), (b, cb) = vec.items()
        if b < last:
            raise WellDefinednessFailure(
                f"relation at index {b} follows one at index {last}")
        last, r = b, root[b]
        if r == b:
            # b's first link; gains inside dead components are never read
            r = root[b] = root[a]
            if not dead[r]:
                gain[b] = -(ca * gain[a]) / cb
        elif r != root[a]:
            raise WellDefinednessFailure(
                f"relation at index {b} joins the roots {r} and {root[a]}")
        elif not dead[r] and ca * gain[a] + cb * gain[b]:
            # a cycle: x_r = (-ca gain[a] / cb gain[b]) x_r
            dead[r] = 1
    reps = tuple(t for t, r in root.items() if r == t and not dead[t])
    pos = {t: i for i, t in enumerate(reps, 1)}
    ent = {(pos[r], t): gain[t] for t, r in root.items() if r in pos}
    qd = QuotientData(reps, Matrix(len(reps), n**k, ent, _clean=True))
    return qd, [label[t] for t in reps]


def _straighten(n, k, field, qd, labels, tup):
    tup = tuple(tup)
    if len(tup) != k:
        raise ValueError(f"expected a {k}-tuple")
    if any(t < 1 or t > n for t in tup):
        raise ValueError("tuple entries must lie in 1..n")
    out = qd.project_vector({tensor_index(tup, n): field.one})
    return {labels[i - 1]: c for i, c in sorted(out.items())}


def _induced_generators(field, n, k, qd):
    """The generators on the quotient, each guarded by one identity: with P
    the projection, G the generator on V^{x k} and J the embedding of the
    representatives, G_hat = (P G) J and P G = G_hat P iff G preserves the
    relations; a failure names the first ambient tuple where it breaks.
    With no representative P has no rows, so both sides of the identity
    are empty and no G is built."""
    proj, reps = qd.projection, qd.rep_indices
    if not reps:
        return {name: Matrix.zero(0, 0) for name in _generator_names(n)}
    emb = Matrix(n**k, len(reps),
                 {(t, col): field.one for col, t in enumerate(reps, 1)},
                 _clean=True)
    gens = {}
    for name in _generator_names(n):
        # one ambient generator at a time: all 6(n - 1) cost memory
        lhs = proj * _tensor_generator(field, n, k, name)
        mat = gens[name] = lhs * emb
        bad = _compare(name, (), lhs, mat * proj).witness
        if bad is None:
            continue
        img, want = ("{" + ", ".join(f"{i}: {v}" for i, v in
                                     sorted(bad[side].items())) + "}"
                     for side in ("lhs", "rhs"))
        raise WellDefinednessFailure(
            f"{name} does not preserve the relations at (n, k) = "
            f"({n}, {k}): at the ambient basis tuple t = "
            f"{tensor_tuple(bad['witness_basis_index'], n, k)}, "
            f"projection({name} e_t) = {img} "
            f"but {name} projection(e_t) = {want}")
    return gens


class QuotientModule:
    """The k-th (r,s)-wedge module as an explicit quotient of V^{x k}."""

    __slots__ = ("n", "k", "field", "qdata", "induced", "labels")

    def __init__(self, n, k, field, qdata, induced, labels):
        self.n = n
        self.k = k
        self.field = field
        self.qdata = qdata
        self.induced = induced
        self.labels = labels

    @property
    def dim(self):
        return self.induced.dim

    def straighten(self, tup):
        """Expansion of the coset of v_{t1} x ... x v_{tk} in the wedge
        basis, as a map label -> coefficient (empty when the coset is 0)."""
        return _straighten(self.n, self.k, self.field, self.qdata,
                           self.labels, tup)

    def to_json(self):
        return {
            "n": self.n,
            "k": self.k,
            "dim": self.dim,
            "labels": [list(t) for t in self.labels],
            "generators": self.induced.to_json()["generators"],
        }

    def __repr__(self):
        return f"QuotientModule(n={self.n}, k={self.k}, dim={self.dim})"


def build_wedge_module(n, k, field):
    """Quotient of V^{x k} by all S2 insertions, with induced generators.

    Verifies that every generator preserves the relations, as one matrix
    identity per generator (WellDefinednessFailure otherwise), and that the
    induced matrices satisfy the defining relations.  Each basis vector
    carries the content of its label as its weight.  For k > n this is the
    zero module.
    """
    if n < 2:
        raise InvalidRank("rank parameter n must be at least 2")
    if k < 1:
        raise InvalidPower("tensor power k must be at least 1")
    qd, labels = _wedge_quotient(n, k, field)
    induced = Representation(n, len(labels),
                             _induced_generators(field, n, k, qd), field,
                             [_content(lab, n) for lab in labels])
    report = check_defining_relations(induced)
    if not report.ok:
        bad = ", ".join(c.name for c in report.failures())
        raise WellDefinednessFailure(
            f"induced matrices at (n, k) = ({n}, {k}) violate {bad}")
    return QuotientModule(n, k, field, qd, induced, labels)


def straighten(n, k, tup, field):
    """Standalone straightening of one monomial (builds the quotient data,
    so prefer QuotientModule.straighten for repeated use)."""
    qd, labels = _wedge_quotient(n, k, field)
    return _straighten(n, k, field, qd, labels, tup)


def verify_fundamental(mod):
    """Check that the k-th wedge module mod is the fundamental module: the
    coset of v_1 x ... x v_k is a highest weight vector with weight
    character of eps_1 + ... + eps_k, the dimension is C(n, k), weights
    are the k-subsets of {eps_i} each with multiplicity one, and the f_i
    generate everything from the highest vector: level by level, the span
    of the span so far and the f_i images of its basis vectors with new
    pivots, which span a complement of the previous span.  These are
    weight vectors, so each span is eliminated one weight at a time."""
    n, k, field = mod.n, mod.k, mod.field
    if not 1 <= k <= n:
        raise InvalidPower("fundamental module verification needs 1 <= k <= n")
    ind = mod.induced
    checks = []
    want = math.comb(n, k)
    checks.append(CheckItem("dimension = C(n, k)", (n, k), ind.dim == want))
    top = tuple(range(1, k + 1))
    if top not in mod.labels:
        checks.append(CheckItem("highest label present", (n, k), False))
        return CheckReport(checks)
    hv = {mod.labels.index(top) + 1: field.one}
    for i in range(1, n):
        checks.append(CheckItem("e kills highest vector", (i,),
                                ind.e(i).apply(hv) == {}))
    wc = weight_char(Weight.fundamental(k, n), n, field)
    for i in range(1, n):
        cw, cwp = wc[i - 1]
        ok_w = ind.w(i).apply(hv) == {t: cw * c for t, c in hv.items()}
        ok_wp = ind.wp(i).apply(hv) == {t: cwp * c for t, c in hv.items()}
        checks.append(CheckItem("highest weight matches fundamental", (i,),
                                ok_w and ok_wp))
    expected = {_content(lab, n)
                for lab in combinations(range(1, n + 1), k)}
    witness = None
    try:
        spaces = weight_spaces(ind)
    except NonDiagonalAction as exc:
        # the carried weights do not match the w, w' action: a failed
        # check, not an invalid configuration
        spaces, witness = {}, exc.witness
    mult_one = all(sp.dim == 1 for sp in spaces.values())
    checks.append(CheckItem("weights are the k-subsets", (n, k),
                            set(spaces) == expected and mult_one
                            and len(spaces) == want, witness))
    span = Subspace.from_vectors(ind.dim, [hv])
    new = span.basis
    while new:
        old = set(span.pivots)
        span = Subspace.from_vectors(ind.dim, span.basis + [
            ind.f(i).apply(v) for v in new for i in range(1, n)])
        new = [v for p, v in zip(span.pivots, span.basis) if p not in old]
    checks.append(CheckItem("cyclic under the f action", (n, k),
                            span.dim == ind.dim))
    return CheckReport(checks)
