"""The four rsqg benchmark workloads: seeded inputs, operations, checks.

Each workload is a list of operations that one caller runs one after
another (a closed loop with a single client).  An operation is an rsqg
CLI command run in-process, or a public library call where no command
exists.  All inputs come from the seed; the program sees nothing else.
Every output is checked by perfbench/oracles.py, which rebuilds the
expected value from the paper's formulas without importing rsqg.

Library calls go through the `rsqg` package attributes at call time, so
the tracer's patches see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import rsqg
import rsqg.cli

import oracles
from oracles import CheckFailed, require


@dataclass
class CliResult:
    rc: int
    stdout: str
    stderr: str


@dataclass
class Op:
    """One operation: `call` runs it, `check` raises CheckFailed on a wrong
    output, `canon` turns the output into plain data for comparing rounds."""

    label: str
    call: object
    check: object
    canon: object

    def failed(self, out):
        """Exit code 2 is the CLI's 'invalid configuration'; exit code 1
        is a verification verdict and is judged by the check instead."""
        return isinstance(out, CliResult) and out.rc == 2


def cli_op(argv, check):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = rsqg.cli.main(argv)
        return CliResult(rc, out.getvalue(), err.getvalue())

    def checked(res):
        require(res.rc == 0, f"exit code {res.rc}: {res.stderr.strip()}")
        check(json.loads(res.stdout))

    return Op("rsqg " + " ".join(argv), call, checked,
              lambda res: (res.rc, res.stdout))


def lib_op(label, call, check):
    return Op(label, call, check, canon)


def canon(obj):
    """Plain, comparable data for library outputs (matrices, subspaces,
    scalars, containers)."""
    if isinstance(obj, rsqg.Matrix):
        return ("Matrix", obj.rows, obj.cols,
                tuple((k, str(v)) for k, v in sorted(obj.entries.items())))
    if isinstance(obj, rsqg.Subspace):
        return ("Subspace", obj.ambient_dim, tuple(obj.pivots),
                tuple(tuple((t, str(v)) for t, v in sorted(vec.items()))
                      for vec in obj.basis))
    if isinstance(obj, dict):
        return tuple((canon(k), canon(v)) for k, v in sorted(obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(canon(x) for x in obj)
    return str(obj)


# ---------------------------------------------------------------------------
# seeded inputs

def _signed(rng, lo, hi):
    return rng.choice((-1, 1)) * rng.randint(lo, hi)


def _check_points(rng, count):
    """Rational (r, s) with r, s nonzero and r != +-s, for evaluating
    outputs; numerators and denominators are large enough that no
    low-degree denominator of these workloads vanishes by accident."""
    pts = []
    while len(pts) < count:
        r = Fraction(rng.randint(11, 97), rng.randint(11, 97))
        s = Fraction(rng.randint(11, 97), rng.randint(11, 97))
        if r != s and r != -s:
            pts.append((r, s))
    return pts


def _spectral_points(rng, count):
    return [(Fraction(rng.randint(2, 19), rng.randint(2, 19)),
             Fraction(rng.randint(2, 19), rng.randint(2, 19)))
            for _ in range(count)]


def _rs_args(r, s):
    return ["--r", str(r), "--s", str(s)]


# ---------------------------------------------------------------------------
# helpers that read rsqg outputs as plain data for the oracles

def _eval(x, r, s):
    """Value of a program scalar (RatFunc or Fraction) at (r, s)."""
    if isinstance(x, Fraction):
        return x
    return oracles.eval_ratfunc(x.num.terms, x.den.terms, r, s)


def _dense(mat, r, s):
    out = oracles.zeros(mat.rows, mat.cols)
    for (i, j), v in mat.entries.items():
        out[i - 1][j - 1] = _eval(v, r, s)
    return out


def _dense_vec(vec, dim, r, s):
    out = [oracles.F0] * dim
    for t, v in vec.items():
        out[t - 1] = _eval(v, r, s)
    return out


def _at_points(points, need, check_at):
    """Run check_at(r, s) at candidate points, skipping points where a
    denominator vanishes; at least `need` points must succeed."""
    good = 0
    for r, s in points:
        try:
            check_at(r, s)
        except ZeroDivisionError:
            continue
        good += 1
        if good == need:
            return
    raise CheckFailed(f"only {good} of {len(points)} evaluation points usable")


# ---------------------------------------------------------------------------
# certify: symbolic CLI certifications, many small Q(r, s) operations

def certify(rng):
    pts = _check_points(rng, 2)
    spectral = _spectral_points(rng, 2)
    z0 = Fraction(rng.randint(1, 29), rng.randint(30, 59))
    S = ["--symbolic"]
    return [
        cli_op(["verify", "ybe", "-n", "4"] + S, lambda o:
               oracles.check_verdict_json(o, "ybe", 4, "symbolic")),
        cli_op(["rep", "check", "-n", "3", "-k", "4"] + S, lambda o:
               oracles.check_report_json(o, "relations", 3,
                                         oracles.relation_rows(3), "symbolic", k=4)),
        cli_op(["verify", "morphism", "-n", "3", "-k", "4"] + S, lambda o:
               oracles.check_verdict_json(o, "morphism", 3, "symbolic", k=4)),
        cli_op(["wedge", "verify", "-n", "4", "-k", "3"] + S, lambda o:
               oracles.check_report_json(o, "fundamental", 4,
                                         oracles.fundamental_rows(4, 3),
                                         "symbolic", k=3)),
        cli_op(["verify", "prop41", "-n", "5"] + S, lambda o:
               oracles.check_report_json(o, "prop41", 5, oracles.prop41_rows(5),
                                         "symbolic")),
        cli_op(["verify", "jimbo", "-n", "4"], lambda o:
               oracles.check_verdict_json(o, "jimbo", 4, "symbolic")),
        cli_op(["rmatrix", "-n", "4", "--spectral"] + S, lambda o:
               oracles.check_spectral_json(o, 4, pts, spectral)),
        cli_op(["rmatrix", "-n", "3", "-z", str(z0)] + S, lambda o:
               oracles.check_r_at_json(o, 3, str(z0), pts)),
    ]


# ---------------------------------------------------------------------------
# eliminate: inverse and kernel/image/rank over Q(r, s)

def _z_terms(rng):
    """z = (a r + b s) / (c r s + d) with small nonzero a, b, c, d."""
    a, b, c, d = (_signed(rng, 2, 9) for _ in range(4))
    return {(1, 0): a, (0, 1): b}, {(1, 1): c, (0, 0): d}


def _random_matrix(rng, rows, cols, deg, lo, hi):
    """Dense matrix of polynomials with every monomial of degree <= deg
    present and coefficients of magnitude lo..hi, as plain term dicts."""
    monos = [(a, b) for a in range(deg + 1) for b in range(deg + 1 - a)]
    return {(i, j): {m: _signed(rng, lo, hi) for m in monos}
            for i in range(1, rows + 1) for j in range(1, cols + 1)}


def _singular_matrix(rng):
    """3x3 of degree-1 entries whose last column is c1 * col1 + c2 * col2,
    so its generic rank is 2 and its kernel is one-dimensional."""
    ent = _random_matrix(rng, 3, 2, 1, 2, 9)
    c1, c2 = _signed(rng, 1, 5), _signed(rng, 1, 5)
    for i in range(1, 4):
        col = {}
        for m in set(ent[(i, 1)]) | set(ent[(i, 2)]):
            col[m] = c1 * ent[(i, 1)].get(m, 0) + c2 * ent[(i, 2)].get(m, 0)
        ent[(i, 3)] = {m: c for m, c in col.items() if c}
    return ent


def _to_program(ent, rows, cols):
    return rsqg.Matrix(rows, cols, {k: rsqg.RatFunc(rsqg.BiPoly(t))
                                    for k, t in ent.items() if t})


def _terms_dense(ent, rows, cols, r, s):
    out = oracles.zeros(rows, cols)
    for (i, j), t in ent.items():
        out[i - 1][j - 1] = oracles.eval_terms(t, r, s)
    return out


def _rz_dense(n, z_num, z_den, r, s):
    """Oracle R(z) = A + z B at (r, s) for z = z_num / z_den."""
    den = oracles.eval_terms(z_den, r, s)
    if den == 0:
        raise ZeroDivisionError("z has a vanishing denominator")
    z = oracles.eval_terms(z_num, r, s) / den
    A, B = oracles.spectral_pair(n, r, s)
    return oracles.add(A, B, z)


def _inverse_check(dense_input, points):
    def check(inv):
        def at(r, s):
            got = _dense(inv, r, s)
            oracles.check_inverse(dense_input(r, s), got, (r, s))
        _at_points(points, 2, at)
    return check


def _kernel_image_check(dense_input, points):
    def check(res):
        kernel, image, rank = res

        def at(r, s):
            mat = dense_input(r, s)
            rows, cols = len(mat), len(mat[0])
            kern = [_dense_vec(v, cols, r, s) for v in kernel.basis]
            img = [_dense_vec(v, rows, r, s) for v in image.basis]
            oracles.check_kernel_image(mat, kern, img, rank,
                                       oracles.dense_rank(mat))
        _at_points(points, 2, at)
    return check


def eliminate(rng):
    F = rsqg.SymbolicField()
    ops = []
    for _ in range(2):
        z_num, z_den = _z_terms(rng)
        z = rsqg.RatFunc(rsqg.BiPoly(z_num), rsqg.BiPoly(z_den))
        pts = _check_points(rng, 8)
        ops.append(lib_op(
            f"invert R(z) n=2 at z=({z})",
            lambda z=z: rsqg.invert(rsqg.build_r_z(2, F).at(z), F),
            _inverse_check(lambda r, s, zn=z_num, zd=z_den:
                           _rz_dense(2, zn, zd, r, s), pts)))
    pts = _check_points(rng, 8)
    ops.append(lib_op(
        "kernel_image_rank R(z) n=3 at z=r/s",
        lambda: rsqg.kernel_image_rank(rsqg.build_r_z(3, F).at(F.r / F.s), F),
        _kernel_image_check(lambda r, s: _rz_dense(3, {(1, 0): 1}, {(0, 1): 1},
                                                   r, s), pts)))
    for idx in range(5):
        ent = _random_matrix(rng, 2, 2, 2, 10, 99)
        pts = _check_points(rng, 8)
        while oracles.dense_rank(_terms_dense(ent, 2, 2, *pts[0])) < 2:
            ent = _random_matrix(rng, 2, 2, 2, 10, 99)
        mat = _to_program(ent, 2, 2)
        dense = (lambda r, s, ent=ent: _terms_dense(ent, 2, 2, r, s))
        ops.append(lib_op(f"invert random 2x2 degree-2 #{idx}",
                          lambda mat=mat: rsqg.invert(mat, F),
                          _inverse_check(dense, pts)))
        ops.append(lib_op(f"kernel_image_rank random 2x2 degree-2 #{idx}",
                          lambda mat=mat: rsqg.kernel_image_rank(mat, F),
                          _kernel_image_check(dense, pts)))
    ent = _singular_matrix(rng)
    mat = _to_program(ent, 3, 3)
    pts = _check_points(rng, 8)
    ops.append(lib_op("kernel_image_rank random singular 3x3 degree-1",
                      lambda: rsqg.kernel_image_rank(mat, F),
                      _kernel_image_check(lambda r, s: _terms_dense(ent, 3, 3, r, s),
                                          pts)))
    return ops


# ---------------------------------------------------------------------------
# wedge: quotients of tensor powers at sampled (r, s) = (2, 3)

WEDGE_SWEEP = [(4, k) for k in range(2, 6)] + [(5, k) for k in range(2, 7)] \
    + [(6, k) for k in range(2, 6)]


def wedge(rng):
    Fs = rsqg.SampledField(2, 3)
    tuples = [tuple(rng.randint(1, 5) for _ in range(3)) for _ in range(60)]

    def straighten_all():
        mod = rsqg.build_wedge_module(5, 3, Fs)
        return [(t, mod.straighten(t)) for t in tuples]

    return [
        cli_op(["wedge", "-n", "5", "-k", "4"], lambda o:
               oracles.check_wedge_json(o, 5, 4, Fraction(2), Fraction(3))),
        cli_op(["wedge", "verify", "-n", "6", "-k", "3"], lambda o:
               oracles.check_report_json(o, "fundamental", 6,
                                         oracles.fundamental_rows(6, 3),
                                         "sampled", k=3)),
        cli_op(["wedge", "verify", "-n", "4", "-k", "4"], lambda o:
               oracles.check_report_json(o, "fundamental", 4,
                                         oracles.fundamental_rows(4, 4),
                                         "sampled", k=4)),
        lib_op("wedge_dimension sweep n=4..6",
               lambda: [rsqg.wedge_dimension(n, k, Fs) for n, k in WEDGE_SWEEP],
               lambda dims: require(
                   dims == [math.comb(n, k) for n, k in WEDGE_SWEEP],
                   f"wedge dimensions {dims}")),
        lib_op("straighten 60 seeded 3-tuples in the (5, 3) wedge",
               straighten_all,
               lambda res: oracles.check_straighten(res, Fraction(3))),
        # known fault: r = s^2 defeats the exponent recovery of the weights
        cli_op(["wedge", "verify", "-n", "3", "-k", "2"] + _rs_args(4, 2), lambda o:
               oracles.check_report_json(o, "fundamental", 3,
                                         oracles.fundamental_rows(3, 2),
                                         "sampled", k=2)),
    ]


# ---------------------------------------------------------------------------
# tensor: tensor powers, sparse products and JSON output at sampled (r, s)

# every r^a s^b these operations form (|a|, |b| <= 12) keeps numerator and
# denominator below 2**30, so the seed does not change the integer sizes
_PRIMES = (2, 3, 5)


def _independent_pair(rng):
    """r, s powers of two distinct primes, so multiplicatively independent."""
    p, q = rng.sample(_PRIMES, 2)
    return (Fraction(p) ** rng.choice((1, -1)), Fraction(q) ** rng.choice((1, -1)))


def tensor(rng):
    r, s = _independent_pair(rng)
    rs = _rs_args(r, s)
    ops = [
        cli_op(["rep", "check", "-n", "3", "-k", "6"] + rs, lambda o:
               oracles.check_report_json(o, "relations", 3,
                                         oracles.relation_rows(3), "sampled", k=6)),
        cli_op(["verify", "morphism", "-n", "4", "-k", "5"] + rs, lambda o:
               oracles.check_verdict_json(o, "morphism", 4, "sampled", k=5)),
        cli_op(["verify", "morphism", "-n", "3", "-k", "6"] + rs, lambda o:
               oracles.check_verdict_json(o, "morphism", 3, "sampled", k=6)),
        cli_op(["weights", "-n", "4", "-k", "6"] + rs, lambda o:
               oracles.check_weights_json(o, 4, 6)),
        cli_op(["rep", "tensor", "-n", "3", "-k", "6"] + rs, lambda o:
               oracles.check_tensor_rep_json(o, 3, 6, r, s)),
        cli_op(["verify", "ybe", "-n", "6"] + rs, lambda o:
               oracles.check_verdict_json(o, "ybe", 6, "sampled")),
    ]
    # known fault: multiplicatively dependent r and s defeat the exponent
    # recovery of the weights (r = s^2, s = r^2, rs = 1)
    for fr, fs in ((2, 4), (4, 2), (2, Fraction(1, 2))):
        ops.append(cli_op(["weights", "-n", "3", "-k", "2"] + _rs_args(fr, fs),
                          lambda o: oracles.check_weights_json(o, 3, 2)))
    return ops


WORKLOADS = {"certify": certify, "eliminate": eliminate, "wedge": wedge,
             "tensor": tensor}


def build(name, seed):
    """The operations of one workload; the same seed gives the same inputs."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


def warm_up():
    """Run each kind of operation once at a tiny size, so that first-call
    costs (argparse, json, lazy attribute caches) fall into set-up."""
    F = rsqg.SymbolicField()
    for argv in (["rep", "check", "-n", "2", "-k", "2"],
                 ["verify", "ybe", "-n", "2", "--symbolic"],
                 ["rmatrix", "-n", "2", "--spectral", "--symbolic"],
                 ["wedge", "verify", "-n", "3", "-k", "2"],
                 ["weights", "-n", "2", "-k", "2"],
                 ["rep", "tensor", "-n", "2", "-k", "2"]):
        cli_op(argv, None).call()
    mat = rsqg.Matrix(2, 2, {(1, 1): F.r, (1, 2): F.s, (2, 1): F.one, (2, 2): F.r})
    rsqg.invert(mat, F)
    rsqg.kernel_image_rank(mat, F)
    rsqg.wedge_dimension(3, 2, rsqg.SampledField(2, 3))

