"""(r,s)-exterior powers of the natural module via the fusion quotient.

The tensor square splits into the (r,s)-symmetric square S2, spanned by
v_i x v_i and v_i x v_j + s v_j x v_i (i < j), and the (r,s)-exterior
square spanned by v_i x v_j - r v_j x v_i; both are cut out by the
spectral R-matrix at the special points r s^{-1} and r^{-1} s.  The k-th
wedge module is the quotient of V^{x k} by the sum of all identity-padded
insertions of S2.

Every relation vector has one or two nonzero coordinates, so the relation
span is a gain graph on the n^k tensor indices (Zaslavsky, "Biased graphs
I", 1989), and one union-find pass over the relations builds the quotient
without elimination.  The coset representatives are the smallest indices
of the live components, which are exactly the strictly increasing index
tuples, so the quotient basis is the familiar v_{i1} ^ ... ^ v_{ik} with
i1 < ... < ik and dimension C(n, k).  The gain from a tuple to its
representative is its straightening coefficient; it is a field value, so
a special sampled point cannot change a verdict unseen.  The checks
take what they certify: an R(z), or a QuotientModule with its n, k, field.
"""

from __future__ import annotations

import math
from itertools import combinations

from .linalg import (Matrix, QuotientData, Subspace, _Echelon,
                     kernel_image_rank, tensor_index, tensor_tuple)
from .uqrs import (CheckItem, CheckReport, InvalidPower, InvalidRank,
                   NonDiagonalAction, Representation, Weight, _content,
                   _generator_names, check_defining_relations, tensor_action,
                   weight_char, weight_spaces)


class WellDefinednessFailure(AssertionError):
    """The relation subspace is not preserved by a generator action."""


def sym2(n, field):
    """The (r,s)-symmetric square of V inside V x V."""
    if n < 1:
        raise InvalidRank("rank parameter n must be at least 1")
    return Subspace.from_vectors(n * n, _insertion_vectors(n, 2, field))


def alt2(n, field):
    """The (r,s)-exterior square of V inside V x V."""
    if n < 1:
        raise InvalidRank("rank parameter n must be at least 1")
    one, r = field.one, field.r
    vecs = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            vecs.append({tensor_index((i, j), n): one,
                         tensor_index((j, i), n): -r})
    return Subspace.from_vectors(n * n, vecs)


def spectral_projector_check(rz, field):
    """The special evaluations of R(z) cut out the two squares:
    Im R(rs^{-1}) = S2 = Ker R(r^{-1}s) and Ker R(rs^{-1}) = Alt2 = Im R(r^{-1}s)."""
    n = rz.n
    if n < 2:
        raise InvalidRank("projector check needs n >= 2")
    rs = field.r * field.s**-1
    s2 = sym2(n, field)
    a2 = alt2(n, field)
    ker_rs, im_rs, _ = kernel_image_rank(rz.at(rs), field)
    ker_sr, im_sr, _ = kernel_image_rank(rz.at(rs**-1), field)
    return CheckReport([
        CheckItem("image R(rs^-1) = sym2", (n,), im_rs == s2),
        CheckItem("kernel R(rs^-1) = alt2", (n,), ker_rs == a2),
        CheckItem("kernel R(r^-1 s) = sym2", (n,), ker_sr == s2),
        CheckItem("image R(r^-1 s) = alt2", (n,), im_sr == a2),
    ])


def _sym2_specs(n, field):
    """Spanning vectors of S2 as ((pair, coeff), ...) tuples."""
    one, s = field.one, field.s
    specs = [(((i, i), one),) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            specs.append((((i, j), one), ((j, i), s)))
    return specs


def _insertion_vectors(n, k, field):
    """All identity-padded insertions of the S2 spanning vectors into
    V^{x k}, as sparse ambient coordinate vectors (deterministic order)."""
    specs = _sym2_specs(n, field)
    for p in range(k - 1):
        right = n**(k - p - 2)
        for a in range(n**p):
            base = a * n * n
            for spec in specs:
                for b in range(right):
                    yield {(base + (x - 1) * n + (y - 1)) * right + b + 1: c
                           for (x, y), c in spec}


def wedge_dimension(n, k, field):
    """dim of the k-th wedge quotient: the number of live gain-graph roots."""
    if n < 2:
        raise InvalidRank("rank parameter n must be at least 2")
    if k < 0:
        raise InvalidPower("tensor power k must be nonnegative")
    return len(_wedge_quotient(n, k, field)[1])


def _wedge_quotient(n, k, field):
    """Quotient data and wedge labels of V^{x k}, in one gain-graph pass.

    Union-find over the tensor indices: parent[t] and gain[t] record
    x_t = gain[t] x_parent[t] modulo the relations, and every live root is
    the smallest index of its component.  A one-entry relation kills its
    component; a two-entry relation links two live roots under the smaller
    one, or closes a cycle, which kills its component unless its gain is 1.
    The live roots are the coset representatives, and column t of the
    projection is gain[t] at the row of t's root.
    """
    size = n**k
    parent = list(range(size + 1))
    gain = [field.one] * (size + 1)
    dead = bytearray(size + 1)

    def find(t):
        # path compression; afterwards gain[t] is relative to the root
        path = []
        while parent[t] != t:
            path.append(t)
            t = parent[t]
        for u in reversed(path[:-1]):
            gain[u] *= gain[parent[u]]
            parent[u] = t
        return t

    for vec in _insertion_vectors(n, k, field):
        if len(vec) == 1:
            (a,) = vec
            dead[find(a)] = 1
            continue
        (a, ca), (b, cb) = vec.items()
        ra, rb = find(a), find(b)
        if dead[ra] or dead[rb]:
            # touching a dead component kills the other one too; gains
            # inside dead components are never read, so no link is needed
            dead[ra] = dead[rb] = 1
            continue
        # ca x_a + cb x_b = 0 becomes ca x_ra + cb x_rb = 0
        ca *= gain[a]
        cb *= gain[b]
        if ra == rb:
            # a cycle: x_r = (-ca / cb) x_r, and a gain other than 1 kills
            if ca + cb:
                dead[ra] = 1
        elif ra < rb:
            parent[rb], gain[rb] = ra, -ca / cb
        else:
            parent[ra], gain[ra] = rb, -cb / ca
    reps = tuple(t for t in range(1, size + 1)
                 if parent[t] == t and not dead[t])
    pos = {t: i for i, t in enumerate(reps, 1)}
    ent = {(pos[root], t): gain[t] for t in range(1, size + 1)
           if (root := find(t)) in pos}
    qd = QuotientData(reps, Matrix(len(reps), size, ent, _clean=True))
    return qd, [tensor_tuple(t, n, k) for t in reps]


def _straighten(n, k, field, qd, labels, tup):
    tup = tuple(tup)
    if len(tup) != k:
        raise ValueError(f"expected a {k}-tuple")
    if any(t < 1 or t > n for t in tup):
        raise ValueError("tuple entries must lie in 1..n")
    out = qd.project_vector({tensor_index(tup, n): field.one})
    return {labels[i - 1]: c for i, c in sorted(out.items())}


def _induced_generator(field, n, k, qd, name):
    """Matrix of a generator on the quotient, guarded per ambient basis
    vector t: projection(g e_t) must equal g_hat projection(e_t)."""
    images = [qd.project_vector(
        {tensor_index(u, n): c
         for u, c in tensor_action(field, n, name, tensor_tuple(t, n, k)).items()})
        for t in range(1, n**k + 1)]
    d = len(qd.rep_indices)
    mat = Matrix(d, d, {(i, col): v
                        for col, t in enumerate(qd.rep_indices, 1)
                        for i, v in images[t - 1].items()}, _clean=True)
    for t, img in enumerate(images, 1):
        want = mat.apply(qd.projection.col(t))
        if img != want:
            lhs, rhs = ("{" + ", ".join(f"{i}: {v}"
                                        for i, v in sorted(vec.items())) + "}"
                        for vec in (img, want))
            raise WellDefinednessFailure(
                f"{name} does not preserve the relations at (n, k) = "
                f"({n}, {k}): at the ambient basis tuple t = "
                f"{tensor_tuple(t, n, k)}, projection({name} e_t) = {lhs} "
                f"but {name} projection(e_t) = {rhs}")
    return mat


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

    Verifies that every generator preserves the relations, one ambient
    basis vector at a time (WellDefinednessFailure otherwise), and that the
    induced matrices satisfy the defining relations.  Each basis vector
    carries the content of its label as its weight.  For k > n this is the
    zero module.
    """
    if n < 2:
        raise InvalidRank("rank parameter n must be at least 2")
    if k < 1:
        raise InvalidPower("tensor power k must be at least 1")
    qd, labels = _wedge_quotient(n, k, field)
    gens = {name: _induced_generator(field, n, k, qd, name)
            for name in _generator_names(n)}
    induced = Representation(n, len(labels), gens, field,
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
    generate everything from the highest vector."""
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
    ech = _Echelon()
    ech.insert(hv)
    frontier = [hv]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(1, n):
                img = ind.f(i).apply(v)
                if img and ech.insert(img) is not None:
                    nxt.append(img)
        frontier = nxt
    checks.append(CheckItem("cyclic under the f action", (n, k),
                            ech.rank == ind.dim))
    return CheckReport(checks)
