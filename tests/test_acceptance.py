"""Acceptance suite: one test per core claim, all in exact arithmetic with
zero tolerance.  Each criterion prints a single PASS/FAIL line (use
pytest -s to stream them)."""

import math
import time
from itertools import combinations, permutations

from rsqg import (SampledField, SymbolicField, build_r, build_r_z,
                  build_wedge_module, check_braid_constant,
                  check_defining_relations, check_min_poly,
                  check_module_morphism, check_ybe_spectral,
                  hopf_antipode_check, jimbo_compare, natural_rep,
                  spectral_projector_check, straighten, tensor_power_rep,
                  verify_fundamental, wedge_dimension, yang_baxterize)
from rsqg.rmatrix import _direct_r_z, _linear_r_z

SAMPLED_PAIRS = ((2, 3), (3, 5), (5, 2))


def _stamp(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_defining_relations():
    t0 = time.monotonic()
    ok = True
    sym = SymbolicField()
    for n in (2, 3, 4):
        ok = ok and check_defining_relations(natural_rep(n, sym)).ok
    for r0, s0 in SAMPLED_PAIRS:
        field = SampledField(r0, s0)
        for n in (5, 6):
            ok = ok and check_defining_relations(natural_rep(n, field)).ok
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _stamp(1, f"defining relations R1-R7 ({elapsed:.2f}s, target < 5s)", ok)


def test_criterion_02_minimal_polynomial():
    sym = SymbolicField()
    ok = all(check_min_poly(build_r(n, sym), sym).ok for n in (2, 3, 4))
    _stamp(2, "minimal polynomial (t - 1)(t + rs^-1), symbolic n = 2..4", ok)


def test_criterion_03_braid_relations():
    sym = SymbolicField()
    ok = all(check_braid_constant(build_r(n, sym), sym).ok for n in (2, 3))
    for r0, s0 in SAMPLED_PAIRS:
        field = SampledField(r0, s0)
        ok = ok and check_braid_constant(build_r(4, field), field).ok
    _stamp(3, "braid relation and far commutation on V^3, V^4", ok)


def test_criterion_04_spectral_ybe():
    # Degree-bound argument: each side of R1(z) R2(zw) R1(w) = R2(w) R1(zw)
    # R2(z) is entrywise a polynomial of degree at most 2 in z (two factors
    # involve z: one directly, one through zw) and at most 2 in w, since
    # every entry of R(t) = A + tB is affine in its argument.  A bivariate
    # polynomial of bidegree (2, 2) vanishing on a 4 x 4 grid of distinct
    # abscissas is identically zero, so exact agreement on {1, 2, 3, 5}^2
    # proves the identity for all z, w.
    t0 = time.monotonic()
    sym = SymbolicField()
    ok = all(check_ybe_spectral(build_r_z(n, sym), sym).ok for n in (2, 3))
    for r0, s0 in SAMPLED_PAIRS:
        field = SampledField(r0, s0)
        ok = ok and check_ybe_spectral(build_r_z(4, field), field).ok
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _stamp(4, f"spectral YBE on the 4x4 grid ({elapsed:.2f}s, target < 60s)", ok)


def test_criterion_05_spectral_constructions_agree():
    sym = SymbolicField()
    ok = True
    for n in (2, 3, 4):
        direct = _direct_r_z(n, sym)
        linear = _linear_r_z(n, sym)
        baxter = yang_baxterize(build_r(n, sym), -(sym.r * sym.s**-1),
                                sym.one, sym)
        ok = ok and direct.A == linear.A == baxter.A
        ok = ok and direct.B == linear.B == baxter.B
        # R(0) = R structurally
        ok = ok and direct.at(sym.zero) == build_r(n, sym)
        ok = ok and build_r_z(n, sym).A == build_r(n, sym)
    _stamp(5, "three R(z) constructions agree entrywise and R(0) = R", ok)


def test_criterion_06_jimbo_specialization():
    sym = SymbolicField()
    ok = all(jimbo_compare(build_r_z(n, sym)).ok for n in (2, 3))
    _stamp(6, "r -> q, s -> 1/q specialization is the one-parameter R(z)", ok)


def test_criterion_07_spectral_projectors():
    sym = SymbolicField()
    ok = all(spectral_projector_check(build_r_z(n, sym), sym).ok
             for n in (2, 3, 4))
    _stamp(7, "Im/Ker of R(rs^-1) and R(r^-1 s) are the two squares", ok)


def test_criterion_08_wedge_dimensions():
    ok = True
    field = SampledField(2, 3)
    t63 = None
    for n in range(2, 7):
        for k in range(0, n + 2):
            t0 = time.monotonic()
            ok = ok and wedge_dimension(n, k, field) == math.comb(n, k)
            if (n, k) == (6, 3):
                t63 = time.monotonic() - t0
    sym = SymbolicField()
    for n in range(2, 5):
        for k in range(0, 4):
            ok = ok and wedge_dimension(n, k, sym) == math.comb(n, k)
    ok = ok and t63 is not None and t63 < 120.0
    _stamp(8, f"wedge dimensions C(n, k) for n = 2..6, k = 0..n+1 "
              f"((6,3) in {t63:.2f}s, target < 120s)", ok)


def test_criterion_09_fundamental_modules():
    ok = True
    field = SampledField(2, 3)
    built = [(n, k) for n in range(2, 6) for k in range(1, n + 1)]
    built += [(6, 1), (6, 2), (6, 3)]
    for n, k in built:
        ok = ok and verify_fundamental(build_wedge_module(n, k, field)).ok
    _stamp(9, f"highest vector, weights, and f-cyclicity on {len(built)} "
              "wedge modules", ok)


def test_criterion_10_module_morphism():
    sym = SymbolicField()
    ok = all(check_module_morphism(build_r(n, sym),
                                   tensor_power_rep(n, k, sym)).ok
             for n in (2, 3) for k in (2, 3))
    _stamp(10, "R commutes with the module action on V^k, n, k <= 3", ok)


def test_criterion_11_hopf_antipode():
    sym = SymbolicField()
    ok = all(hopf_antipode_check(natural_rep(n, sym)).ok for n in (2, 3, 4, 5))
    _stamp(11, "antipode axiom m(S x id)Delta = eps on all generators", ok)


def test_criterion_12_straightening_coherence():
    sym = SymbolicField()
    module = build_wedge_module(3, 3, sym)
    ok = module.labels == [(1, 2, 3)]
    for perm in permutations((1, 2, 3)):
        inv = sum(1 for a, b in combinations(range(3), 2)
                  if perm[a] > perm[b])
        want = {(1, 2, 3): (-(sym.s**-1))**inv}
        ok = ok and module.straighten(perm) == want
        ok = ok and straighten(3, 3, perm, sym) == want
    _stamp(12, "straightening matches (-s^-1)^inversions on S_3", ok)
