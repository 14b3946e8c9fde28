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

The coproduct action on V^{x k} is the iterated coproduct
Delta(e_i) = e_i x 1 + w_i x e_i, Delta(f_i) = 1 x f_i + f_i x w_i',
with w_i, w_i' group-like: e_i acts on one factor with the w_i
eigenvalues of the factors before it, and f_i with the w_i' eigenvalues
of the factors after it.  _tensor_generator builds one generator's
matrix from it, straight into the column form: the coefficients of all
prefixes (or suffixes) at once as Kronecker sums of exponent codes, each
term placed by the stride of its tensor position.  _action_terms states
the same action on one monomial, which tensor_action reads.
tensor_power_rep builds each generator only when it is first looked up;
the wedge modules build each one, use it and drop it, and so does the
weight check of a tensor power.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache

from .linalg import Matrix, Subspace, _kernel_blocks, _reader


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


def _compare_diagonal(name, indices, d, x, c, sides):
    """_compare(name, indices, *sides()) for a row d x = c x d, where
    sides builds its two products.  A row that holds with d diagonal
    is decided from d's diagonal (Matrix._diagonal_twist) and forms no
    product; a d that is not diagonal, or a row that fails, goes to
    _compare on sides(), which finds the witness.
    """
    if d._diagonal_twist(x, c):
        return CheckItem(name, indices, True)
    return _compare(name, indices, *sides())


@cache
def _generators(n):
    """{key: (family, index, inverted)} for rank n, in the fixed order of
    the JSON output; shared, so never modified."""
    return {f"{fam}{i}" + "_inv" * inv: (fam, i, inv)
            for fam, inv in (("e", False), ("f", False), ("w", False),
                             ("wp", False), ("w", True), ("wp", True))
            for i in range(1, n)}


def _generator_names(n):
    """Generator keys for rank n in the fixed order of the JSON output."""
    return list(_generators(n))


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
        # tensor power generators are dim x dim by construction; checking
        # them here would build every one of them
        if not isinstance(gens, _TensorGenerators):
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

    Column t of every generator is the action on the t-th tuple in
    lexicographic order, and basis vector t carries that tuple's content.
    Each generator's matrix is built on its first lookup in rep.gens.
    """
    if n < 2:
        raise InvalidRank("rank parameter n must be at least 2")
    if k < 1:
        raise InvalidPower("tensor power k must be at least 1")
    # the content of a tuple as the code sum of (k + 1)^(t - 1) over its
    # entries t, so that the codes of the tuples are Kronecker sums; one
    # Weight per distinct content
    letter = [(k + 1)**t for t in range(n)]
    codes = [0]
    for _ in range(k):
        codes = [x + y for x in codes for y in letter]
    shared = {c: Weight(tuple(c // d % (k + 1) for d in letter))
              for c in set(codes)}
    return Representation(n, n**k, _TensorGenerators(n, k, field), field,
                          [shared[c] for c in codes])


class _TensorGenerators(Mapping):
    """The generators of V^{x k} by name, in the order of
    _generator_names; read-only, each matrix built on first lookup."""

    __slots__ = ("_n", "_k", "_field", "_built")

    def __init__(self, n, k, field):
        self._n = n
        self._k = k
        self._field = field
        self._built = dict.fromkeys(_generators(n))

    def __getitem__(self, name):
        mat = self._built[name]
        if mat is None:
            mat = self._built[name] = _tensor_generator(
                self._field, self._n, self._k, name)
        return mat

    def once(self, name):
        """The matrix of name for a reader that needs it once: the one
        held, else a new one that is not kept, so that such a reader
        holds one generator at a time."""
        mat = self._built[name]
        if mat is None:
            mat = _tensor_generator(self._field, self._n, self._k, name)
        return mat

    def __contains__(self, name):
        return name in self._built

    def __iter__(self):
        return iter(self._built)

    def __len__(self):
        return len(self._built)


def _tensor_generator(field, n, k, name):
    """Matrix of one generator on V^{x k}, born in the column form;
    column col is its action on the col-th tuple in lexicographic order.

    It is the iterated coproduct, with p counting the factors before the
    acting one:
        Delta^(k)(e_i) = sum_p w_i^(x p) x e_i x 1^(x (k-1-p)),
        Delta^(k)(f_i) = sum_p 1^(x p) x f_i x w_i'^(x (k-1-p)),
    and each group-like the k-fold Kronecker power of its diagonal on V.
    A coefficient r^a s^b (0 <= a, b <= k) is carried as the int code
    a (k + 1) + b, so that the codes of a Kronecker power are sums, and
    the term of factor p moves the index by its place value n^(k-1-p).
    Each distinct code is read into its numerator once, by _form of the
    1 x m matrix of the distinct values: the common denominator is the
    lcm of the same entry denominators, so the form equals that of the
    entries.
    """
    fam, i, inv = _generators(n)[name]
    dim, step = n**k, k + 1
    # per factor v_t, the code of w_i (for e and w) or w_i' (for f and wp)
    factor = [0] * n
    factor[i - 1], factor[i] = (step, 1) if fam in ("e", "w") else (1, step)
    grouplike = fam in ("w", "wp")
    powers = [[0]]  # the codes of w^(x m), in lexicographic order
    for _ in range(k if grouplike else k - 1):
        powers.append([x + y for x in powers[-1] for y in factor])
    sign = -1 if inv else 1
    codes = list({c for power in (powers[k:] if grouplike else powers)
                  for c in power})
    den, row = Matrix(1, len(codes), {
        (1, j): field.rs_power(sign * (c // step), sign * (c % step))
        for j, c in enumerate(codes, 1)}, _clean=True)._form()
    num = {c: row[j][1] for j, c in enumerate(codes, 1)}
    if grouplike:
        return Matrix._from_form(dim, dim, (den, {
            j: {j: num[c]} for j, c in enumerate(powers[k], 1)}))
    slots = [{} for _ in range(dim + 1)]  # column j at slot j; 0 stays empty
    for p in range(k) if fam == "e" else range(k - 1, -1, -1):
        stride = n**(k - 1 - p)
        if fam == "e":
            # v_{i+1} at factor p, weighted by the w_i code of the prefix
            for q, c in enumerate(powers[p]):
                v = num[c]
                start = (q * n + i) * stride + 1
                for col in range(start, start + stride):
                    slots[col][col - stride] = v
        else:
            # v_i at factor p, weighted by the w_i' code of the suffix
            suffix = [num[c] for c in powers[k - 1 - p]]
            for q in range(n**p):
                start = (q * n + i - 1) * stride + 1
                for col, v in enumerate(suffix, start):
                    slots[col][col + stride] = v
    return Matrix._from_form(dim, dim, (den, {
        j: col for j, col in enumerate(slots) if col}))


def _action_terms(field, fam, i, inv, tup):
    """Terms (pos, t, c) of a generator's action on one monomial
    v_{t1} x ... x v_{tk}: factor pos becomes v_t with coefficient c, and
    pos is None for a group-like, which scales the monomial by c.  fam is
    one of e, f, w, wp, as _generators gives it.

    With a, b the numbers of factors equal to i, i+1: w_i acts by r^a s^b,
    w_i' by r^b s^a, and the inverses negate both exponents.  e_i turns
    each factor v_{i+1} into v_i with coefficient r^a s^b, counted over
    the factors before it; f_i turns each factor v_i into v_{i+1} with
    coefficient r^b s^a, counted over the factors after it.  This is the
    iterated coproduct on one monomial, which _tensor_generator builds
    for all monomials at once.
    """
    rs_power = field.rs_power
    if fam in ("w", "wp"):
        a, b = tup.count(i), tup.count(i + 1)
        if fam == "wp":
            a, b = b, a
        if inv:
            a, b = -a, -b
        return [(None, None, rs_power(a, b))]
    terms = []
    a = b = 0
    if fam == "e":
        for pos, t in enumerate(tup):
            if t == i + 1:
                terms.append((pos, i, rs_power(a, b)))
                b += 1
            elif t == i:
                a += 1
        return terms
    for pos in range(len(tup) - 1, -1, -1):
        t = tup[pos]
        if t == i:
            terms.append((pos, i + 1, rs_power(b, a)))
            a += 1
        elif t == i + 1:
            b += 1
    return terms


def tensor_action(field, n, name, tup):
    """Action of a generator on one monomial v_{t1} x ... x v_{tk}, as a
    dict tuple -> coefficient (the closed form of _action_terms)."""
    if name not in _generators(n):
        raise ValueError(f"unknown generator {name!r}")
    fam, i, inv = _generators(n)[name]
    if any(t < 1 or t > n for t in tup):
        raise ValueError("tuple entries must lie in 1..n")
    out = {}
    for pos, t, c in _action_terms(field, fam, i, inv, tup):
        out[tup if pos is None else tup[:pos] + (t,) + tup[pos + 1:]] = c
    return out


def check_defining_relations(rep):
    """Verify R1-R7 on a representation; report every identity checked.

    R1 comm-ww, comm-wpwp, comm-wwp and every R2/R3 row have the form
    D X = c X D with D a group-like.  When D is diagonal they are decided
    from its diagonal (_compare_diagonal), and their two products are
    built only for a row that fails, whose witness is then the first
    differing column, as for every other row.
    """
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

    def twisted(name, ij, d, x, c):
        # d x = c x d
        return _compare_diagonal(name, ij, d, x, c,
                                 lambda: (d * x, (x * d).scale(c)))

    for i in range(1, n):
        for j in range(1, n):
            if i < j:
                checks.append(twisted("R1:comm-ww", (i, j),
                                      rep.w(i), rep.w(j), 1))
                checks.append(twisted("R1:comm-wpwp", (i, j),
                                      rep.wp(i), rep.wp(j), 1))
            checks.append(twisted("R1:comm-wwp", (i, j),
                                  rep.w(i), rep.wp(j), 1))
    for i in range(1, n):
        for j in range(1, n):
            a = pairing(i, j)
            b = pairing(i + 1, j)
            checks.append(twisted("R2:we", (i, j), rep.w(i), rep.e(j),
                                  fld.rs_power(a, b)))
            checks.append(twisted("R2:wf", (i, j), rep.w(i), rep.f(j),
                                  fld.rs_power(-a, -b)))
            checks.append(twisted("R3:wpe", (i, j), rep.wp(i), rep.e(j),
                                  fld.rs_power(b, a)))
            checks.append(twisted("R3:wpf", (i, j), rep.wp(i), rep.f(j),
                                  fld.rs_power(-b, -a)))
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
        for rel, A, B, c1, c2 in (("R6", rep.e(i), rep.e(i + 1), rps, rts),
                                  ("R7", rep.f(i), rep.f(i + 1), rpsi, rtsi)):
            AB, BA = A * B, B * A
            lhs = A * A * B - (AB * A).scale(c1) + (BA * A).scale(c2)
            checks.append(_compare(f"{rel}:a", (i,), lhs, zero))
            lhs = AB * B - (BA * B).scale(c1) + (B * B * A).scale(c2)
            checks.append(_compare(f"{rel}:b", (i,), lhs, zero))
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
    basis vector t by the character of weights[t]; decided from each
    generator's column form (_acts_by), whose entries are read only to
    name a failure."""
    chars = {w: weight_char(w, rep.n, rep.field) for w in set(rep.weights)}
    per_basis = [chars[w] for w in rep.weights]
    gens = rep.gens
    lookup = (gens.once if isinstance(gens, _TensorGenerators)
              else gens.__getitem__)
    for i in range(1, rep.n):
        for primed, name in ((0, f"w{i}"), (1, f"wp{i}")):
            mat = lookup(name)
            if _acts_by(mat, [ch[i - 1][primed] for ch in per_basis]):
                continue
            ent = mat.entries
            t = next((t for t, ch in enumerate(per_basis, 1)
                      if ent.get((t, t)) != ch[i - 1][primed]), None)
            if t is not None:
                msg = (f"{name} does not act on basis vector {t} by the "
                       f"character of its weight {rep.weights[t - 1]}")
            else:
                # every diagonal entry matches, so ent holds an off-diagonal one
                a, t = next(key for key in ent if key[0] != key[1])
                msg = f"{name} has an off-diagonal entry at ({a}, {t})"
            want = per_basis[t - 1][i - 1][primed]
            raise NonDiagonalAction(msg, {
                "witness_basis_index": t,
                "lhs": {a: v for (a, b), v in ent.items() if b == t},
                "rhs": {t: want}})
    return rep.weights


def _acts_by(mat, diag):
    """Whether mat is the diagonal matrix with diagonal diag, from its
    column form: every column t holds only (t, t), whose numerator, each
    distinct one read out once, is diag[t - 1].  Each pair of a numerator
    and a value of diag (one of a few shared characters) is compared
    once."""
    den, cols = mat._form()
    if len(cols) != len(diag):
        return False
    read = _reader(den)
    verdict = {}
    for t, want in enumerate(diag, 1):
        col = cols.get(t)
        if col is None or len(col) != 1 or t not in col:
            return False
        v = col[t]
        key = v, id(want)  # want is held by diag while the memo lives
        ok = verdict.get(key)
        if ok is None:
            ok = verdict[key] = read(v) == want
        if not ok:
            return False
    return True


def weight_spaces(rep):
    """Decompose the underlying space into weight subspaces.

    The weights are the ones the representation carries; they are verified
    first (NonDiagonalAction names the generator, basis index and weight
    where w_i or w_i' does not act by the weight's character).
    """
    one = rep.field.one
    groups = {}
    for t, w in enumerate(_verified_weights(rep), 1):
        groups.setdefault(w, []).append(t)
    # unit vectors in increasing index order are already the canonical
    # reduced echelon basis, with their indices as pivots
    return {w: Subspace(rep.dim, [{t: one} for t in idxs], idxs)
            for w, idxs in groups.items()}


def highest_weight_vectors(rep):
    """Canonical basis of the joint kernel of all e_i, tagged with weights:
    the kernel of the e_i stacked into one (n-1) dim x dim matrix, whose
    image is never read out."""
    dim = rep.dim
    stacked = {((i - 1) * dim + a, b): v for i in range(1, rep.n)
               for (a, b), v in rep.e(i).entries.items()}
    kernel = {}
    for *_, rows in _kernel_blocks(
            Matrix((rep.n - 1) * dim, dim, stacked, _clean=True), rep.field):
        kernel.update(rows)
    weights = _verified_weights(rep)
    out = []
    for pivot in sorted(kernel):
        vec = kernel[pivot]
        support_weights = {weights[t - 1] for t in vec}
        if len(support_weights) != 1:
            raise NonDiagonalAction("highest weight vector is not homogeneous")
        out.append((vec, support_weights.pop()))
    return out


def hopf_antipode_check(rep):
    """Verify m (S x id) Delta(x) = eps(x) 1 on every generator.

    With S(e_i) = -w_i^{-1} e_i, S(f_i) = -f_i w_i'^{-1}, S(w_i) = w_i^{-1},
    S(w_i') = w_i'^{-1} and eps(e_i) = eps(f_i) = 0, eps(w_i) = eps(w_i') = 1.
    The e and f rows cannot fail on their own, so this repeats R1:
    antipode:e is -(w^{-1} e) + w^{-1} e, zero for any matrices, and
    antipode:f is f - f (w'^{-1} w'), which reduces to w'^{-1} w' = I.
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
