"""Representations of the two-parameter quantum group U_{r,s}(sl_n).

The algebra has generators e_i, f_i and invertible group-likes w_i, w_i'
for 1 <= i < n.  A Representation stores one sparse matrix per generator
(inverses included, so no inversion happens downstream) together with the
scalar field and the weight of each basis vector.  The defining relations
R1-R7 can be checked on any representation, with machine-readable
witnesses for every failure.

Weights are carried from the construction (eps_t on the natural module,
the tuple content on a tensor power) and verified, never recovered: the
weight spaces require w_i, w_i' to act diagonally by the character of
each basis vector's weight.

The coproduct action on V^{x k} has one construction, tensor_action, in
closed form on a single monomial: w_i, w_i' are group-like, e_i acts on
one factor with the w_i eigenvalues of the factors before it, and f_i
with the w_i' eigenvalues of the factors after it.  tensor_power_rep
fills in its matrices one column at a time from it, and the wedge
modules apply it without building any matrix on V^{x k}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .linalg import Matrix, Subspace, kernel_image_rank, tensor_index


class InvalidRank(ValueError):
    """Rank parameter n is out of range."""


class InvalidPower(ValueError):
    """Tensor power k is out of range."""


class NonDiagonalAction(ValueError):
    """A group-like generator does not act diagonally by the carried
    weights.  witness, when known, names the basis index t with the
    generator's column t as lhs and {t: expected character} as rhs."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass
class CheckItem:
    """Outcome of a single verified identity."""

    name: str
    indices: tuple
    ok: bool
    witness: dict | None = None


class CheckReport:
    """CheckItem results with an aggregate verdict .ok (no truth value)."""

    def __init__(self, checks):
        self.checks = list(checks)

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def __bool__(self):
        raise TypeError("a CheckReport has no truth value; read .ok")

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def to_json(self):
        out = []
        for c in self.checks:
            row = {"relation": c.name, "indices": list(c.indices), "ok": c.ok}
            if c.witness is not None:
                row["witness_basis_index"] = c.witness["witness_basis_index"]
                for side in ("lhs", "rhs"):
                    row[side] = {str(i): str(v)
                                 for i, v in sorted(c.witness[side].items())}
            out.append(row)
        return out

    def __repr__(self):
        bad = len(self.failures())
        return f"CheckReport({len(self.checks)} checks, {bad} failures)"


def _compare(name, indices, lhs, rhs):
    if lhs == rhs:
        return CheckItem(name, indices, True)
    witness = None
    for j in range(1, lhs.cols + 1):
        cl, cr = lhs.col(j), rhs.col(j)
        if cl != cr:
            witness = {"witness_basis_index": j, "lhs": cl, "rhs": cr}
            break
    return CheckItem(name, indices, False, witness)


_GEN_FAMILIES = ("e", "f", "w", "wp", "w_inv", "wp_inv")


def _gen_name(family, i):
    if family.endswith("_inv"):
        return f"{family[:-4]}{i}_inv"
    return f"{family}{i}"


def _generator_names(n):
    """Generator keys for rank n in the fixed order of the JSON output."""
    return [_gen_name(fam, i) for fam in _GEN_FAMILIES for i in range(1, n)]


def _parse_gen(name):
    """Split a generator key into (family, index, inverted)."""
    inv = name.endswith("_inv")
    if inv:
        name = name[:-4]
    fam = "wp" if name.startswith("wp") else name[0]
    return fam, int(name[len(fam):]), inv


class Representation:
    """A module over U_{r,s}(sl_n): one matrix per generator, the field,
    and one Weight per basis vector."""

    __slots__ = ("n", "dim", "gens", "field", "weights")

    def __init__(self, n, dim, gens, field, weights):
        self.n = n
        self.dim = dim
        self.gens = gens
        self.field = field
        self.weights = weights
        for name, mat in gens.items():
            if mat.rows != dim or mat.cols != dim:
                raise ValueError(f"generator {name} has wrong shape")
        if len(weights) != dim:
            raise ValueError(f"{len(weights)} weights for dimension {dim}")

    def generator_names(self):
        return _generator_names(self.n)

    def e(self, i):
        return self.gens[f"e{i}"]

    def f(self, i):
        return self.gens[f"f{i}"]

    def w(self, i):
        return self.gens[f"w{i}"]

    def wp(self, i):
        return self.gens[f"wp{i}"]

    def w_inv(self, i):
        return self.gens[f"w{i}_inv"]

    def wp_inv(self, i):
        return self.gens[f"wp{i}_inv"]

    def to_json(self):
        return {
            "n": self.n,
            "dim": self.dim,
            "generators": {name: self.gens[name].to_json()
                           for name in self.generator_names()},
        }

    def __repr__(self):
        return f"Representation(n={self.n}, dim={self.dim})"


def natural_rep(n, field):
    """The natural n-dimensional module V, the first tensor power: e_i, f_i
    are matrix units, w_i = diag(..., r, s, ...) and w_i' = diag(..., s,
    r, ...) at slots i, i+1, and v_t has weight eps_t."""
    return tensor_power_rep(n, 1, field)


def tensor_power_rep(n, k, field):
    """k-th tensor power of the natural module under the coproduct action.

    Column t of every generator is tensor_action on the t-th tuple in
    lexicographic order, and basis vector t carries that tuple's content.
    """
    if n < 2:
        raise InvalidRank("rank parameter n must be at least 2")
    if k < 1:
        raise InvalidPower("tensor power k must be at least 1")
    tuples = list(product(range(1, n + 1), repeat=k))
    dim = len(tuples)
    gens = {}
    for name in _generator_names(n):
        ent = {}
        for col, tup in enumerate(tuples, 1):
            for img, c in tensor_action(field, n, name, tup).items():
                ent[(tensor_index(img, n), col)] = c
        gens[name] = Matrix(dim, dim, ent, _clean=True)
    return Representation(n, dim, gens, field,
                          [_content(tup, n) for tup in tuples])


def tensor_action(field, n, name, tup):
    """Action of a generator on one monomial v_{t1} x ... x v_{tk}, as a
    dict tuple -> coefficient.

    With a, b the numbers of factors equal to i, i+1: w_i acts by r^a s^b,
    w_i' by r^b s^a, and the inverses negate both exponents.  e_i turns
    each factor v_{i+1} into v_i with coefficient r^a s^b, counted over
    the factors before it; f_i turns each factor v_i into v_{i+1} with
    coefficient r^b s^a, counted over the factors after it.
    """
    fam, i, inv = _parse_gen(name)
    rs_power = field.rs_power
    if fam in ("w", "wp"):
        a, b = tup.count(i), tup.count(i + 1)
        if fam == "wp":
            a, b = b, a
        if inv:
            a, b = -a, -b
        return {tup: rs_power(a, b)}
    out = {}
    a = b = 0
    if fam == "e":
        for pos, t in enumerate(tup):
            if t == i + 1:
                out[tup[:pos] + (i,) + tup[pos + 1:]] = rs_power(a, b)
                b += 1
            elif t == i:
                a += 1
        return out
    if fam == "f":
        for pos in range(len(tup) - 1, -1, -1):
            t = tup[pos]
            if t == i:
                out[tup[:pos] + (i + 1,) + tup[pos + 1:]] = rs_power(b, a)
                a += 1
            elif t == i + 1:
                b += 1
        return out
    raise ValueError(f"unknown generator {name!r}")


def check_defining_relations(rep):
    """Verify R1-R7 on a representation; report every identity checked."""
    n, fld = rep.n, rep.field
    r, s = fld.r, fld.s
    ident = Matrix.identity(rep.dim, fld.one)
    zero = Matrix.zero(rep.dim, rep.dim)
    checks = []

    def pairing(a, j):
        # <eps_a, alpha_j> for alpha_j = eps_j - eps_{j+1}
        return (1 if a == j else 0) - (1 if a == j + 1 else 0)

    for i in range(1, n):
        checks.append(_compare("R1:inv-w", (i,), rep.w(i) * rep.w_inv(i), ident))
        checks.append(_compare("R1:inv-wp", (i,), rep.wp(i) * rep.wp_inv(i), ident))
    for i in range(1, n):
        for j in range(1, n):
            if i < j:
                checks.append(_compare("R1:comm-ww", (i, j),
                                       rep.w(i) * rep.w(j), rep.w(j) * rep.w(i)))
                checks.append(_compare("R1:comm-wpwp", (i, j),
                                       rep.wp(i) * rep.wp(j), rep.wp(j) * rep.wp(i)))
            checks.append(_compare("R1:comm-wwp", (i, j),
                                   rep.w(i) * rep.wp(j), rep.wp(j) * rep.w(i)))
    for i in range(1, n):
        for j in range(1, n):
            a = pairing(i, j)
            b = pairing(i + 1, j)
            checks.append(_compare("R2:we", (i, j), rep.w(i) * rep.e(j),
                                   (rep.e(j) * rep.w(i)).scale(fld.rs_power(a, b))))
            checks.append(_compare("R2:wf", (i, j), rep.w(i) * rep.f(j),
                                   (rep.f(j) * rep.w(i)).scale(fld.rs_power(-a, -b))))
            checks.append(_compare("R3:wpe", (i, j), rep.wp(i) * rep.e(j),
                                   (rep.e(j) * rep.wp(i)).scale(fld.rs_power(b, a))))
            checks.append(_compare("R3:wpf", (i, j), rep.wp(i) * rep.f(j),
                                   (rep.f(j) * rep.wp(i)).scale(fld.rs_power(-b, -a))))
    coef = fld.one / (r - s)
    for i in range(1, n):
        for j in range(1, n):
            lhs = rep.e(i) * rep.f(j) - rep.f(j) * rep.e(i)
            if i == j:
                rhs = (rep.w(i) - rep.wp(i)).scale(coef)
            else:
                rhs = zero
            checks.append(_compare("R4", (i, j), lhs, rhs))
    for i in range(1, n):
        for j in range(i + 2, n):
            checks.append(_compare("R5:ee", (i, j),
                                   rep.e(i) * rep.e(j), rep.e(j) * rep.e(i)))
            checks.append(_compare("R5:ff", (i, j),
                                   rep.f(i) * rep.f(j), rep.f(j) * rep.f(i)))
    rps = r + s
    rts = r * s
    rpsi = r**-1 + s**-1
    rtsi = (r * s)**-1
    for i in range(1, n - 1):
        A, B = rep.e(i), rep.e(i + 1)
        lhs = A * A * B - (A * B * A).scale(rps) + (B * A * A).scale(rts)
        checks.append(_compare("R6:a", (i,), lhs, zero))
        lhs = A * B * B - (B * A * B).scale(rps) + (B * B * A).scale(rts)
        checks.append(_compare("R6:b", (i,), lhs, zero))
        A, B = rep.f(i), rep.f(i + 1)
        lhs = A * A * B - (A * B * A).scale(rpsi) + (B * A * A).scale(rtsi)
        checks.append(_compare("R7:a", (i,), lhs, zero))
        lhs = A * B * B - (B * A * B).scale(rpsi) + (B * B * A).scale(rtsi)
        checks.append(_compare("R7:b", (i,), lhs, zero))
    return CheckReport(checks)


@dataclass(frozen=True)
class Weight:
    """Integral weight sum_j c_j eps_j, stored as the coordinate tuple."""

    coords: tuple

    @classmethod
    def fundamental(cls, k, n):
        # eps_1 + ... + eps_k
        return cls(tuple(1 if t <= k else 0 for t in range(1, n + 1)))

    def inner_eps(self, i):
        return self.coords[i - 1]

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _content(tup, n):
    """Weight of v_{t1} x ... x v_{tk}: eps_{t1} + ... + eps_{tk}."""
    return Weight(tuple(tup.count(t) for t in range(1, n + 1)))


def weight_char(lam, n, field):
    """The pairs (lambda-hat(w_i), lambda-hat(w_i')) for i = 1..n-1, where
    lambda-hat(w_i) = r^<eps_i, lam> s^<eps_{i+1}, lam> and the primed
    character swaps the roles of r and s."""
    pairs = []
    for i in range(1, n):
        a, b = lam.inner_eps(i), lam.inner_eps(i + 1)
        pairs.append((field.rs_power(a, b), field.rs_power(b, a)))
    return tuple(pairs)


def _verified_weights(rep):
    """rep.weights, after checking that every w_i, w_i' acts diagonally on
    basis vector t by the character of weights[t]."""
    chars = {w: weight_char(w, rep.n, rep.field) for w in set(rep.weights)}
    for i in range(1, rep.n):
        for primed, name in ((0, f"w{i}"), (1, f"wp{i}")):
            ent = rep.gens[name].entries
            t = next((t for t, w in enumerate(rep.weights, 1)
                      if ent.get((t, t)) != chars[w][i - 1][primed]), None)
            if t is not None:
                msg = (f"{name} does not act on basis vector {t} by the "
                       f"character of its weight {rep.weights[t - 1]}")
            elif len(ent) != rep.dim:
                a, t = next(key for key in ent if key[0] != key[1])
                msg = f"{name} has an off-diagonal entry at ({a}, {t})"
            else:
                continue
            want = chars[rep.weights[t - 1]][i - 1][primed]
            raise NonDiagonalAction(msg, {
                "witness_basis_index": t,
                "lhs": {a: v for (a, b), v in ent.items() if b == t},
                "rhs": {t: want}})
    return rep.weights


def weight_spaces(rep):
    """Decompose the underlying space into weight subspaces.

    The weights are the ones the representation carries; they are verified
    first (NonDiagonalAction names the generator, basis index and weight
    where w_i or w_i' does not act by the weight's character).
    """
    fld = rep.field
    groups = {}
    for t, w in enumerate(_verified_weights(rep), 1):
        groups.setdefault(w, []).append(t)
    return {w: Subspace.from_vectors(rep.dim, [{t: fld.one} for t in idxs])
            for w, idxs in groups.items()}


def highest_weight_vectors(rep):
    """Basis of the joint kernel of all e_i, tagged with weights."""
    fld = rep.field
    space, _, _ = kernel_image_rank(rep.e(1), fld)
    for i in range(2, rep.n):
        bm = space.basis_matrix()
        coeffs, _, _ = kernel_image_rank(rep.e(i) * bm, fld)
        vecs = [bm.apply(c) for c in coeffs.basis]
        space = Subspace.from_vectors(rep.dim, vecs)
    weights = _verified_weights(rep)
    out = []
    for vec in space.basis:
        support_weights = {weights[t - 1] for t in vec}
        if len(support_weights) != 1:
            raise NonDiagonalAction("highest weight vector is not homogeneous")
        out.append((vec, support_weights.pop()))
    return out


def hopf_antipode_check(rep):
    """Verify m (S x id) Delta(x) = eps(x) 1 on every generator.

    With S(e_i) = -w_i^{-1} e_i, S(f_i) = -f_i w_i'^{-1}, S(w_i) = w_i^{-1},
    S(w_i') = w_i'^{-1} and eps(e_i) = eps(f_i) = 0, eps(w_i) = eps(w_i') = 1.
    """
    fld = rep.field
    ident = Matrix.identity(rep.dim, fld.one)
    zero = Matrix.zero(rep.dim, rep.dim)
    checks = []
    for i in range(1, rep.n):
        E, F = rep.e(i), rep.f(i)
        W, Wp = rep.w(i), rep.wp(i)
        Winv, Wpinv = rep.w_inv(i), rep.wp_inv(i)
        # Delta(e) = e x 1 + w x e
        lhs = -(Winv * E) + Winv * E
        checks.append(_compare("antipode:e", (i,), lhs, zero))
        # Delta(f) = 1 x f + f x w'
        lhs = F + (-(F * Wpinv)) * Wp
        checks.append(_compare("antipode:f", (i,), lhs, zero))
        checks.append(_compare("antipode:w", (i,), Winv * W, ident))
        checks.append(_compare("antipode:wp", (i,), Wpinv * Wp, ident))
    return CheckReport(checks)
