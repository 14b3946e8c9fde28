"""Independent output checks for the rsqg benchmark.

Nothing here imports rsqg.  Every expected value is rebuilt from the
paper's formulas with plain Fractions at rational parameter values
(r, s) and rational spectral points, and the program's output is read
from its JSON text or from plain dicts of polynomial terms.  Each check
raises CheckFailed with the first place where the output disagrees.

Conventions shared with the program's documented output format: tensor
bases are ordered lexicographically (v_{i1} x ... x v_{ik} has 1-based
index 1 + sum (i_p - 1) n^(k - p)), matrices are sparse lists of
[row, col, "value"] with 1-based indices, and scalars are printed as
rational expressions in r and s such as "(-r + s)/(s)" or "1/2*r^2*s".
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations, product

F0 = Fraction(0)
F1 = Fraction(1)


class CheckFailed(AssertionError):
    """A program output disagrees with its independent oracle."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# scalars: evaluate the program's printed rational functions at (r, s)

_TOKEN = re.compile(r"\s*(?:(\d+)|([rs])|(.))")


def _tokens(text):
    out = []
    for num, var, op in _TOKEN.findall(text):
        if num:
            out.append(("num", int(num)))
        elif var:
            out.append(("var", var))
        elif op.strip():
            out.append(("op", op))
    return out


class _Parser:
    """Recursive descent over + - * / ^ ( ) with integers, r and s."""

    def __init__(self, text, r, s):
        self.toks = _tokens(text)
        self.pos = 0
        self.env = {"r": Fraction(r), "s": Fraction(s)}

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def take(self, kind, val=None):
        tok = self.peek()
        if tok[0] != kind or (val is not None and tok[1] != val):
            raise CheckFailed(f"unparsable scalar near token {self.pos}: {tok}")
        self.pos += 1
        return tok[1]

    def expr(self):
        val = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take("op")
            rhs = self.term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term(self):
        val = self.factor()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.take("op")
            rhs = self.factor()
            if op == "*":
                val = val * rhs
            else:
                if rhs == 0:
                    raise ZeroDivisionError("denominator vanishes")
                val = val / rhs
        return val

    def factor(self):
        if self.peek() == ("op", "-"):
            self.take("op")
            return -self.factor()
        kind, val = self.peek()
        if kind == "num":
            base = Fraction(self.take("num"))
        elif kind == "var":
            base = self.env[self.take("var")]
        else:
            self.take("op", "(")
            base = self.expr()
            self.take("op", ")")
        if self.peek() == ("op", "^"):
            self.take("op")
            base = base ** self.take("num")
        return base

    def parse(self):
        val = self.expr()
        require(self.pos == len(self.toks), "trailing tokens in scalar")
        return val


def eval_scalar(text, r, s):
    """Value of a printed scalar at rational r, s (ZeroDivisionError when
    a denominator vanishes there)."""
    return _Parser(text, r, s).parse()


def eval_terms(terms, r, s):
    """Value of a polynomial given as {(a, b): coefficient} at (r, s)."""
    return sum((c * r**a * s**b for (a, b), c in terms.items()), F0)


def eval_ratfunc(num_terms, den_terms, r, s):
    den = eval_terms(den_terms, r, s)
    if den == 0:
        raise ZeroDivisionError("denominator vanishes")
    return eval_terms(num_terms, r, s) / den


# ---------------------------------------------------------------------------
# dense linear algebra over Fractions

def zeros(rows, cols):
    return [[F0] * cols for _ in range(rows)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = F1
    return out


def matmul(a, b):
    """Dense product; zero entries of a are skipped, which keeps the
    permutation-like R-matrices cheap."""
    cols = len(b[0])
    out = []
    for row in a:
        acc = [F0] * cols
        for t, x in enumerate(row):
            if x:
                brow = b[t]
                for j in range(cols):
                    y = brow[j]
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def add(a, b, cb=F1):
    return [[x + cb * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def kron(a, b):
    out = []
    for ra in a:
        for rb in b:
            out.append([x * y for x in ra for y in rb])
    return out


def is_zero(a):
    return all(not x for row in a for x in row)


def gauss_jordan_inverse(a):
    """Inverse by dense Gauss-Jordan elimination; None when singular."""
    n = len(a)
    m = [list(row) + [F1 if i == j else F0 for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        lead = m[col][col]
        m[col] = [x / lead for x in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                c = m[i][col]
                m[i] = [x - c * y for x, y in zip(m[i], m[col])]
    return [row[n:] for row in m]


def dense_rank(a):
    rows = [list(row) for row in a]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col] / lead
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def sparse_json_to_dense(mat, r, s):
    """Dense matrix from the CLI's {"rows", "cols", "entries"} at (r, s)."""
    out = zeros(mat["rows"], mat["cols"])
    for i, j, val in mat["entries"]:
        out[i - 1][j - 1] = eval_scalar(val, r, s)
    return out


def compare_dense(what, got, want):
    require(len(got) == len(want) and len(got[0]) == len(want[0]),
            f"{what}: shape {len(got)}x{len(got[0])}, "
            f"expected {len(want)}x{len(want[0])}")
    for i, (rg, rw) in enumerate(zip(got, want), 1):
        for j, (x, y) in enumerate(zip(rg, rw), 1):
            if x != y:
                raise CheckFailed(f"{what}: entry ({i}, {j}) is {x}, expected {y}")


# ---------------------------------------------------------------------------
# R-matrices of the paper at rational (r, s)

def tensor_index(tup, n):
    idx = 0
    for t in tup:
        idx = idx * n + (t - 1)
    return idx


def r_constant(n, r, s):
    """R = sum E_ii x E_ii + r sum_{i<j} E_ji x E_ij + s^-1 sum_{i<j} E_ij x E_ji
    + (1 - r s^-1) sum_{i<j} E_jj x E_ii on V x V."""
    out = zeros(n * n, n * n)
    for i in range(1, n + 1):
        t = tensor_index((i, i), n)
        out[t][t] = F1
        for j in range(i + 1, n + 1):
            ij, ji = tensor_index((i, j), n), tensor_index((j, i), n)
            out[ji][ij] = r
            out[ij][ji] = 1 / s
            out[ji][ji] = 1 - r / s
    return out


def spectral_pair(n, r, s):
    """(A, B) with R(z) = R - z r s^-1 R^-1 = A + z B, R^-1 by Gauss-Jordan."""
    R = r_constant(n, r, s)
    Rinv = gauss_jordan_inverse(R)
    require(Rinv is not None, "oracle R-matrix is singular")
    return R, [[-(r / s) * x for x in row] for row in Rinv]


def check_ybe(A, B, n, points):
    """R1(z) R2(zw) R1(w) = R2(w) R1(zw) R2(z) on V x V x V at each (z, w)."""
    ident = identity(n)

    def r_at(z):
        return add(A, B, z)

    for z, w in points:
        rz, rw, rzw = r_at(z), r_at(w), r_at(z * w)
        one_z, one_w, one_zw = (kron(m, ident) for m in (rz, rw, rzw))
        two_z, two_w, two_zw = (kron(ident, m) for m in (rz, rw, rzw))
        lhs = matmul(matmul(one_z, two_zw), one_w)
        rhs = matmul(matmul(two_w, one_zw), two_z)
        require(lhs == rhs, f"Yang-Baxter equation fails at z={z}, w={w}")


def check_min_poly(R, r, s):
    """(R - 1)(R + r s^-1) = 0 and neither factor vanishes alone."""
    m = len(R)
    ident = identity(m)
    lo = add(R, ident, -F1)
    hi = add(R, ident, r / s)
    require(not is_zero(lo) and not is_zero(hi), "a linear factor annihilates R")
    require(is_zero(matmul(lo, hi)), "(R - 1)(R + r s^-1) != 0")


def check_spectral_json(obj, n, points, spectral_points):
    """The CLI's (A, B) pair: entries equal the paper's at every (r, s) in
    points; Yang-Baxter and the minimal polynomial hold there."""
    require(obj.get("n") == n, f"spectral pair for n={obj.get('n')}, expected {n}")
    for r, s in points:
        A = sparse_json_to_dense(obj["A"], r, s)
        B = sparse_json_to_dense(obj["B"], r, s)
        A0, B0 = spectral_pair(n, r, s)
        compare_dense(f"A at (r, s) = ({r}, {s})", A, A0)
        compare_dense(f"B at (r, s) = ({r}, {s})", B, B0)
        check_min_poly(A, r, s)
        check_ybe(A, B, n, spectral_points)


def check_r_at_json(obj, n, z_text, points):
    """The CLI's R(z0) at a rational z0, against A + z0 B of the oracle."""
    z0 = Fraction(z_text)
    for r, s in points:
        got = sparse_json_to_dense(obj, r, s)
        A0, B0 = spectral_pair(n, r, s)
        compare_dense(f"R({z_text}) at (r, s) = ({r}, {s})", got, add(A0, B0, z0))


# ---------------------------------------------------------------------------
# the natural module, its tensor powers and weights

def omega(i, t, r, s, primed=False):
    """Eigenvalue of w_i (w_i' when primed) on v_t: r, s at slots i, i+1."""
    if t == i:
        return s if primed else r
    if t == i + 1:
        return r if primed else s
    return F1


def generator_column(name, tup, n, r, s):
    """Action of a generator on v_{t1} x ... x v_{tk} through the coproduct
    Delta(e) = e x 1 + w x e, Delta(f) = 1 x f + f x w', Delta(w) = w x w.
    Returns {tuple: coefficient}."""
    inv = name.endswith("_inv")
    base = name[:-4] if inv else name
    fam = "wp" if base.startswith("wp") else base[0]
    i = int(base[len(fam):])
    if fam in ("w", "wp"):
        c = F1
        for t in tup:
            c *= omega(i, t, r, s, fam == "wp")
        return {tup: 1 / c if inv else c}
    out = {}
    k = len(tup)
    for p in range(k):
        if fam == "e" and tup[p] == i + 1:
            c = F1
            for q in range(p):
                c *= omega(i, tup[q], r, s)
            out[tup[:p] + (i,) + tup[p + 1:]] = c
        if fam == "f" and tup[p] == i:
            c = F1
            for q in range(p + 1, k):
                c *= omega(i, tup[q], r, s, primed=True)
            out[tup[:p] + (i + 1,) + tup[p + 1:]] = c
    return out


def generator_names(n):
    fams = ("e{}", "f{}", "w{}", "wp{}", "w{}_inv", "wp{}_inv")
    return [f.format(i) for f in fams for i in range(1, n)]


def _columns_from_entries(mat, r, s):
    cols = {}
    for i, j, val in mat["entries"]:
        cols.setdefault(j, {})[i] = eval_scalar(val, r, s)
    return cols


def check_tensor_rep_json(obj, n, k, r, s):
    """Every generator column of V^{x k} equals the coproduct action."""
    dim = n**k
    require(obj.get("n") == n and obj.get("dim") == dim,
            f"tensor power header n={obj.get('n')} dim={obj.get('dim')}")
    gens = obj["generators"]
    require(list(gens) == generator_names(n), "generator names or order differ")
    tuples = list(product(range(1, n + 1), repeat=k))
    for name in generator_names(n):
        mat = gens[name]
        require(mat["rows"] == dim and mat["cols"] == dim, f"{name}: wrong shape")
        cols = _columns_from_entries(mat, r, s)
        for col, tup in enumerate(tuples, 1):
            want = {tensor_index(t, n) + 1: c
                    for t, c in generator_column(name, tup, n, r, s).items()}
            got = cols.get(col, {})
            if got != want:
                raise CheckFailed(f"{name}: column {col} ({tup}) is {got}, "
                                  f"expected {want}")


def check_weights_json(obj, n, k):
    """Weights of V^{x k} are the contents of k-tuples, each with the
    multinomial multiplicity k! / prod c_j!, listed in decreasing order."""
    require(obj.get("n") == n and obj.get("k") == k and obj.get("dim") == n**k,
            "weights header differs")
    want = []
    for cut in combinations(range(k + n - 1), n - 1):
        bounds = (-1,) + cut + (k + n - 1,)
        coords = [bounds[j + 1] - bounds[j] - 1 for j in range(n)]
        mult = math.factorial(k)
        for c in coords:
            mult //= math.factorial(c)
        want.append({"weight": coords, "dim": mult})
    want.sort(key=lambda row: row["weight"], reverse=True)
    rows = obj["weights"]
    require(len(rows) == len(want),
            f"{len(rows)} weights listed, expected {len(want)}")
    for got, exp in zip(rows, want):
        require(got == exp, f"weight row {got}, expected {exp}")


# ---------------------------------------------------------------------------
# wedge modules

def wedge_labels(n, k):
    return [tuple(c) for c in combinations(range(1, n + 1), k)]


def wedge_generator(name, label, r, s):
    """Action on the wedge basis vector v_L: e_i, f_i move one index of L
    by one with coefficient 1, w_i = r^[i in L] s^[i+1 in L] and w_i' swaps
    r and s.  Returns {label: coefficient}."""
    inv = name.endswith("_inv")
    base = name[:-4] if inv else name
    fam = "wp" if base.startswith("wp") else base[0]
    i = int(base[len(fam):])
    L = set(label)
    if fam in ("w", "wp"):
        x, y = (r, s) if fam == "w" else (s, r)
        c = (x if i in L else F1) * (y if i + 1 in L else F1)
        return {label: 1 / c if inv else c}
    src, dst = (i + 1, i) if fam == "e" else (i, i + 1)
    if src in L and dst not in L:
        return {tuple(sorted((L - {src}) | {dst})): F1}
    return {}


def check_wedge_json(obj, n, k, r, s):
    labels = wedge_labels(n, k)
    require(obj.get("dim") == math.comb(n, k),
            f"wedge dimension {obj.get('dim')}, expected C({n}, {k})")
    got_labels = [tuple(lab) for lab in obj["labels"]]
    require(got_labels == labels,
            f"wedge labels {got_labels[:4]}... are not the increasing "
            f"{k}-tuples in order")
    pos = {lab: p for p, lab in enumerate(labels, 1)}
    gens = obj["generators"]
    require(list(gens) == generator_names(n), "wedge generator names differ")
    for name in generator_names(n):
        cols = _columns_from_entries(gens[name], r, s)
        for col, lab in enumerate(labels, 1):
            want = {pos[t]: c for t, c in wedge_generator(name, lab, r, s).items()}
            got = cols.get(col, {})
            if got != want:
                raise CheckFailed(f"wedge {name}: column {lab} is {got}, "
                                  f"expected {want}")


def inversions(tup):
    return sum(1 for a, b in combinations(tup, 2) if a > b)


def straighten_expected(tup, s):
    """Coset of v_{t1} x ... x v_{tk}: 0 with a repeated index, otherwise
    (-s^-1)^inversions times the sorted label."""
    if len(set(tup)) < len(tup):
        return {}
    return {tuple(sorted(tup)): (-1 / Fraction(s)) ** inversions(tup)}


def check_straighten(results, s):
    """results: list of (tuple, {label: coefficient}) from the program."""
    for tup, got in results:
        want = straighten_expected(tup, s)
        require(got == want, f"straighten {tup} = {got}, expected {want}")


# ---------------------------------------------------------------------------
# verification reports

def relation_rows(n):
    """(relation, indices) of every identity R1-R7 on n - 1 simple roots."""
    idx = range(1, n)
    rows = [(name, (i,)) for i in idx for name in ("R1:inv-w", "R1:inv-wp")]
    for i in idx:
        for j in idx:
            if i < j:
                rows += [("R1:comm-ww", (i, j)), ("R1:comm-wpwp", (i, j))]
            rows.append(("R1:comm-wwp", (i, j)))
    rows += [(name, (i, j)) for i in idx for j in idx
             for name in ("R2:we", "R2:wf", "R3:wpe", "R3:wpf", "R4")]
    rows += [(name, (i, j)) for i in idx for j in idx if j >= i + 2
             for name in ("R5:ee", "R5:ff")]
    rows += [(name, (i,)) for i in range(1, n - 1)
             for name in ("R6:a", "R6:b", "R7:a", "R7:b")]
    return sorted(rows)


def fundamental_rows(n, k):
    return sorted([("dimension = C(n, k)", (n, k)),
                   ("weights are the k-subsets", (n, k)),
                   ("cyclic under the f action", (n, k))]
                  + [(name, (i,)) for i in range(1, n)
                     for name in ("e kills highest vector",
                                  "highest weight matches fundamental")])


def prop41_rows(n):
    return sorted((name, (n,)) for name in (
        "image R(rs^-1) = sym2", "kernel R(rs^-1) = alt2",
        "kernel R(r^-1 s) = sym2", "image R(r^-1 s) = alt2"))


def check_report_json(obj, check, n, rows, mode, k=None):
    """A passing report of `check` that lists exactly the expected rows."""
    require(obj.get("check") == check and obj.get("n") == n
            and obj.get("mode") == mode, f"report header {obj.get('check')}")
    if k is not None:
        require(obj.get("k") == k, f"report for k={obj.get('k')}, expected {k}")
    got = sorted((row["relation"], tuple(row["indices"])) for row in obj["checks"])
    require(got == rows, f"report rows differ: {len(got)} listed, "
                         f"{len(rows)} expected")
    bad = [row for row in obj["checks"] if not row["ok"]]
    require(not bad, f"report row fails: {bad[:1]}")
    require(obj.get("ok") is True, "report verdict is not ok")


def check_verdict_json(obj, check, n, mode, k=None):
    want = {"check": check, "n": n, "mode": mode, "ok": True}
    if k is not None:
        want = {"check": check, "n": n, "k": k, "mode": mode, "ok": True}
    require(obj == want, f"verdict {obj}, expected {want}")


# ---------------------------------------------------------------------------
# elimination over Q(r, s), checked at rational points

def check_inverse(mat, inv, point):
    """mat and inv are dense matrices of Fractions already evaluated at one
    point where no denominator vanishes."""
    want = gauss_jordan_inverse(mat)
    require(want is not None, f"input is singular at {point}")
    compare_dense(f"inverse at (r, s) = {point}", inv, want)


def check_kernel_image(mat, kernel, image, rank, generic_rank):
    """At one evaluation point: every kernel vector is killed, every image
    vector lies in the column space, and the dimensions fit the rank."""
    rows, cols = len(mat), len(mat[0])
    require(rank == generic_rank, f"rank {rank}, dense rank {generic_rank}")
    require(len(kernel) == cols - rank,
            f"kernel dimension {len(kernel)}, expected {cols - rank}")
    require(len(image) == rank, f"image dimension {len(image)}, expected {rank}")
    for vec in kernel:
        prod = [sum((row[j] * vec[j] for j in range(cols)), F0) for row in mat]
        require(not any(prod), "a kernel vector is not killed")
    if image:
        require(dense_rank(image) == rank, "image vectors are dependent")
        stacked = [list(row) for row in zip(*mat)] + image
        require(dense_rank(stacked) == dense_rank(mat),
                "an image vector lies outside the column space")
    require(all(len(v) == rows for v in image), "image vector of wrong length")
