"""The constant R-matrix, its Yang-Baxterization, and their verifications.

On the tensor square of the natural module, with tensor basis ordered
lexicographically,
    R = sum_i E_ii x E_ii + r sum_{i<j} E_ji x E_ij
        + s^{-1} sum_{i<j} E_ij x E_ji + (1 - r s^{-1}) sum_{i<j} E_jj x E_ii.
Its minimal polynomial is (t - 1)(t + r s^{-1}), so the two-eigenvalue
Yang-Baxterization R(z) = R - z r s^{-1} R^{-1} applies.  The spectral
matrix is stored as the pair (A, B) with R(z) = A + z B; identities that
are polynomial in the spectral parameters are certified by evaluating on
a grid larger than the degree bounds, which is exact, not probabilistic.
Each check takes the operator it certifies and reads the rank from it.
"""

from __future__ import annotations

import math

from .linalg import Matrix, invert, tensor_index
from .scalars import RatFunc, SymbolicField, specialize_jimbo
from .uqrs import CheckItem, CheckReport, InvalidPower, InvalidRank, _compare


class InternalMismatch(AssertionError):
    """Two constructions that must agree produced different matrices."""


def build_r(n, field):
    """Constant R-matrix on V x V in the lexicographic tensor basis."""
    if n < 1:
        raise InvalidRank("rank parameter n must be at least 1")
    one, r = field.one, field.r
    sinv = field.s**-1
    diag = one - r * sinv
    ent = {}
    for i in range(1, n + 1):
        t = tensor_index((i, i), n)
        ent[(t, t)] = one
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ij = tensor_index((i, j), n)
            ji = tensor_index((j, i), n)
            ent[(ji, ij)] = r
            ent[(ij, ji)] = sinv
            if diag:
                ent[(ji, ji)] = diag
    return Matrix(n * n, n * n, ent, _clean=True)


def build_r_inverse(n, field):
    """R^{-1} = r^{-1}s R + (1 - r^{-1}s) I."""
    c = field.r**-1 * field.s
    ident = Matrix.identity(n * n, field.one)
    return build_r(n, field).scale(c) + ident.scale(field.one - c)


class SpectralRMatrix:
    """R(z) = A + z B, stored as the constant pair (A, B)."""

    __slots__ = ("n", "A", "B")

    def __init__(self, n, A, B):
        if A.rows != B.rows or A.cols != B.cols:
            raise ValueError("spectral pair has mismatched shapes")
        self.n = n
        self.A = A
        self.B = B

    def at(self, z):
        return self.A + self.B.scale(z)

    def to_json(self):
        return {"n": self.n, "A": self.A.to_json(), "B": self.B.to_json()}

    def __repr__(self):
        return f"SpectralRMatrix(n={self.n})"


def yang_baxterize(R, lam1, lam2, field):
    """Two-eigenvalue Yang-Baxterization R(z) = lam2^{-1} R + z lam1 R^{-1}.

    R must be invertible (SingularInput otherwise) and act on a tensor
    square, so its size must be a perfect square.
    """
    if not lam1 or not lam2:
        raise ValueError("eigenvalues must be nonzero")
    n = _factor_dim(R)
    rinv = invert(R, field)
    return SpectralRMatrix(n, R.scale(lam2**-1), rinv.scale(lam1))


def _factor_dim(op):
    """dim V for an operator on V x V; InvalidRank for any other shape."""
    n = math.isqrt(op.rows)
    if op.rows != op.cols or n * n != op.rows:
        raise InvalidRank("operator does not act on a tensor square")
    return n


def _direct_r_z(n, field):
    """R(z) read off term by term: (1 - z r s^{-1}) on v_i x v_i,
    (1 - z) r and (1 - z) s^{-1} on the exchanges, and (1 - r s^{-1})
    resp. z(1 - r s^{-1}) on v_i x v_j for i > j resp. i < j."""
    one, r = field.one, field.r
    sinv = field.s**-1
    rs = r * sinv
    diag = one - rs
    aent, bent = {}, {}
    for i in range(1, n + 1):
        t = tensor_index((i, i), n)
        aent[(t, t)] = one
        bent[(t, t)] = -rs
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ij = tensor_index((i, j), n)
            ji = tensor_index((j, i), n)
            aent[(ji, ij)] = r
            bent[(ji, ij)] = -r
            aent[(ij, ji)] = sinv
            bent[(ij, ji)] = -sinv
            if diag:
                aent[(ji, ji)] = diag
                bent[(ij, ij)] = diag
    return SpectralRMatrix(n, Matrix(n * n, n * n, aent, _clean=True),
                           Matrix(n * n, n * n, bent, _clean=True))


def _linear_r_z(n, field):
    """R(z) = (1 - z)R - z(r s^{-1} - 1)I, split as R + z((1 - rs^{-1})I - R)."""
    R = build_r(n, field)
    ident = Matrix.identity(n * n, field.one)
    return SpectralRMatrix(n, R, ident.scale(field.one - field.r * field.s**-1) - R)


def build_r_z(n, field):
    """Spectral R(z) = R - z r s^{-1} R^{-1}.

    Built three independent ways (explicit entries, Yang-Baxterization of
    the constant R with eigenvalues (-r s^{-1}, 1), and the linear form in
    R and I) which must agree exactly; InternalMismatch otherwise.
    """
    direct = _direct_r_z(n, field)
    baxter = yang_baxterize(build_r(n, field), -(field.r * field.s**-1),
                            field.one, field)
    linear = _linear_r_z(n, field)
    for other, route in ((baxter, "yang-baxterize"), (linear, "linear")):
        if direct.A != other.A or direct.B != other.B:
            raise InternalMismatch(
                f"spectral R-matrix routes direct and {route} disagree")
    return direct


def _padded(mat, pos, count, one):
    """I^(pos-1) x mat x I^(count-pos-1) on V^{x count}, for mat on V x V."""
    n = _factor_dim(mat)
    left = Matrix.identity(n**(pos - 1), one)
    right = Matrix.identity(n**(count - pos - 1), one)
    return left.kron(mat).kron(right)


def check_braid_constant(R, field):
    """Braid relation on V^{x3} and far commutation on V^{x4} for an
    operator R on V x V."""
    r1 = _padded(R, 1, 3, field.one)
    r2 = _padded(R, 2, 3, field.one)
    braid = _compare("braid", (1, 2), r1 * r2 * r1, r2 * r1 * r2)
    r1 = _padded(R, 1, 4, field.one)
    r3 = _padded(R, 3, 4, field.one)
    return CheckReport([braid, _compare("far commutation", (1, 3),
                                        r1 * r3, r3 * r1)])


def check_ybe_spectral(rz, field):
    """Spectral Yang-Baxter equation R1(z) R2(zw) R1(w) = R2(w) R1(zw) R2(z).

    Entries of both sides are polynomials of degree at most 2 in z and in
    w separately, so agreement (one row per point) on the grid
    {1, 2, 3, 5}^2 of distinct points proves the identity exactly.
    """
    grid = (1, 2, 3, 5)
    # R(t) at positions 1 and 2 for t = zw; 1 is in the grid, so t = z, w too
    rmat = {(pos, t): _padded(rz.at(field.from_fraction(t)), pos, 3,
                              field.one)
            for pos in (1, 2) for t in {z * w for z in grid for w in grid}}
    return CheckReport(
        _compare("ybe", (z, w), rmat[1, z] * rmat[2, z * w] * rmat[1, w],
                 rmat[2, w] * rmat[1, z * w] * rmat[2, z])
        for z in grid for w in grid)


def check_min_poly(R, field):
    """Minimal polynomial of R on V x V is exactly (t - 1)(t + r s^{-1}).

    Checks annihilation, that neither linear factor annihilates alone,
    and the equivalent quadratic identity R^2 = (1 - rs^{-1})R + rs^{-1}I.
    """
    n = _factor_dim(R)
    if n < 2:
        raise InvalidRank("minimal polynomial check needs n >= 2")
    rs = field.r * field.s**-1
    ident = Matrix.identity(n * n, field.one)
    low, high = R - ident, R + ident.scale(rs)
    return CheckReport([
        _compare("annihilation", (n,), low * high, Matrix.zero(n * n, n * n)),
        CheckItem("R - 1 does not annihilate", (n,), not low.is_zero()),
        CheckItem("R + rs^-1 does not annihilate", (n,), not high.is_zero()),
        _compare("quadratic", (n,), R * R,
                 R.scale(field.one - rs) + ident.scale(rs))])


def check_module_morphism(R, rep):
    """R, an operator on V x V, at every adjacent position of rep = V^{x k}
    commutes with every generator; one row per (position, generator)."""
    n = _factor_dim(R)
    k = round(math.log(rep.dim, n)) if n > 1 and rep.dim else 1
    if n**k != rep.dim:
        raise InvalidRank(f"rep is no tensor power of V: {rep.dim} != {n}^{k}")
    if k < 2:
        raise InvalidPower("module morphism check needs k >= 2")
    checks = []
    for pos in range(1, k):
        rp = _padded(R, pos, k, rep.field.one)
        for name in rep.generator_names():
            g = rep.gens[name]
            checks.append(_compare("morphism", (pos, name), rp * g, g * rp))
    return CheckReport(checks)


def jimbo_compare(rz):
    """The substitution r -> q, s -> q^{-1} turns R(z) over Q(r, s) into the
    one-parameter R-matrix (1 - zq^2) sum E_ii x E_ii + (1 - z)q
    sum_{i != j} E_ij x E_ji + (1 - q^2)(sum_{i>j} + z sum_{i<j})
    E_ii x E_jj; compared entrywise, with q written as r.  Rows jimbo:A and
    jimbo:B compare the two parts.  A sampled R(z) is a ValueError."""
    if not all(isinstance(v, RatFunc) for v in rz.A.entries.values()):
        raise ValueError("jimbo_compare needs R(z) over Q(r, s)")
    n = rz.n
    field = SymbolicField()
    q = field.r
    one = field.one
    diag = one - q * q
    aent, bent = {}, {}
    for i in range(1, n + 1):
        t = tensor_index((i, i), n)
        aent[(t, t)] = one
        bent[(t, t)] = -(q * q)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            ij = tensor_index((i, j), n)
            ji = tensor_index((j, i), n)
            aent[(ji, ij)] = q
            bent[(ji, ij)] = -q
            (aent if i > j else bent)[(ij, ij)] = diag
    size = n * n
    return CheckReport(
        _compare(f"jimbo:{part}", (n,),
                 Matrix(size, size, {k: specialize_jimbo(v)
                                     for k, v in got.entries.items()}),
                 Matrix(size, size, want))
        for part, got, want in (("A", rz.A, aent), ("B", rz.B, bent)))
