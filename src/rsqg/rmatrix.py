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
"""

from __future__ import annotations

import math

from .linalg import Matrix, invert, tensor_index
from .scalars import SymbolicField, specialize_jimbo
from .uqrs import InvalidPower, InvalidRank, tensor_power_rep


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

    def to_json(self, field):
        return {"n": self.n, "A": self.A.to_json(field),
                "B": self.B.to_json(field)}

    def __repr__(self):
        return f"SpectralRMatrix(n={self.n})"


def yang_baxterize(R, lam1, lam2, field):
    """Two-eigenvalue Yang-Baxterization R(z) = lam2^{-1} R + z lam1 R^{-1}.

    R must be invertible (SingularInput otherwise) and act on a tensor
    square, so its size must be a perfect square.
    """
    if not lam1 or not lam2:
        raise ValueError("eigenvalues must be nonzero")
    n = math.isqrt(R.rows)
    if R.rows != R.cols or n * n != R.rows:
        raise InvalidRank("operator does not act on a tensor square")
    rinv = invert(R, field)
    return SpectralRMatrix(n, R.scale(lam2**-1), rinv.scale(lam1))


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


def _padded(mat, pos, count, n, one):
    """identity^(pos-1) x mat x identity^(count-pos) on V^{x count} factors,
    where mat acts on two adjacent factors starting at pos."""
    left = Matrix.identity(n**(pos - 1), one)
    right = Matrix.identity(n**(count - pos - 1), one)
    return left.kron(mat).kron(right)


def check_braid_constant(n, field):
    """Braid relation on V^{x3} and far commutation on V^{x4}."""
    R = build_r(n, field)
    one = field.one
    r1 = _padded(R, 1, 3, n, one)
    r2 = _padded(R, 2, 3, n, one)
    if r1 * r2 * r1 != r2 * r1 * r2:
        return False
    r1 = _padded(R, 1, 4, n, one)
    r3 = _padded(R, 3, 4, n, one)
    return r1 * r3 == r3 * r1


def check_ybe_spectral(n, field):
    """Spectral Yang-Baxter equation R1(z) R2(zw) R1(w) = R2(w) R1(zw) R2(z).

    Entries of both sides are polynomials of degree at most 2 in z and in
    w separately, so agreement on the grid {1, 2, 3, 5}^2 of distinct
    points proves the polynomial identity exactly.
    """
    rz = build_r_z(n, field)
    one = field.one
    pts = [field.from_int(m) for m in (1, 2, 3, 5)]
    cache = {}

    def rmat(pos, val):
        key = (pos, val)
        if key not in cache:
            cache[key] = _padded(rz.at(val), pos, 3, n, one)
        return cache[key]

    for z in pts:
        for w in pts:
            lhs = rmat(1, z) * rmat(2, z * w) * rmat(1, w)
            rhs = rmat(2, w) * rmat(1, z * w) * rmat(2, z)
            if lhs != rhs:
                return False
    return True


def check_min_poly(n, field):
    """Minimal polynomial of R on V x V is exactly (t - 1)(t + r s^{-1}).

    Checks annihilation, that neither linear factor annihilates alone,
    and the equivalent quadratic identity R^2 = (1 - rs^{-1})R + rs^{-1}I.
    """
    if n < 2:
        raise InvalidRank("minimal polynomial check needs n >= 2")
    R = build_r(n, field)
    rs = field.r * field.s**-1
    ident = Matrix.identity(n * n, field.one)
    prod = (R - ident) * (R + ident.scale(rs))
    if not prod.is_zero():
        return False
    if (R - ident).is_zero() or (R + ident.scale(rs)).is_zero():
        return False
    return R * R == R.scale(field.one - rs) + ident.scale(rs)


def check_module_morphism(n, k, field):
    """R at every adjacent position commutes with all generator actions
    on the k-th tensor power of the natural module."""
    if k < 2:
        raise InvalidPower("module morphism check needs k >= 2")
    rep = tensor_power_rep(n, k, field)
    R = build_r(n, field)
    for pos in range(1, k):
        rp = _padded(R, pos, k, n, field.one)
        for name in rep.generator_names():
            g = rep.gens[name]
            if rp * g != g * rp:
                return False
    return True


def jimbo_compare(n):
    """The substitution r -> q, s -> q^{-1} turns R(z) into the one-parameter
    R-matrix (1 - zq^2) sum E_ii x E_ii + (1 - z)q sum_{i != j} E_ij x E_ji
    + (1 - q^2)(sum_{i>j} + z sum_{i<j}) E_ii x E_jj; compared entrywise,
    with q written as r."""
    field = SymbolicField()
    rz = build_r_z(n, field)
    spec_a = {k: specialize_jimbo(v) for k, v in rz.A.entries.items()}
    spec_b = {k: specialize_jimbo(v) for k, v in rz.B.entries.items()}
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
            if diag:
                if i > j:
                    aent[(ij, ij)] = diag
                else:
                    bent[(ij, ij)] = diag
    return spec_a == aent and spec_b == bent
