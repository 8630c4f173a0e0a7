"""Acceptance gate: one test per shipped claim, run with pytest -v.

Each test states its claim in the name and asserts the exact tolerance the
package advertises.  Everything here goes through the public API only.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest
import sympy

from pdemosc import (
    Kind,
    NotABoundStateError,
    Parameterization,
    alpha_at,
    assemble_sturm_liouville,
    assemble_von_roos,
    bound_state_count,
    build_grid,
    derivative_relation_residual,
    eigen_tridiagonal,
    eigenfunction_samples,
    energy,
    evaluate,
    gf_polynomial,
    inner_product,
    make_family,
    proportionality_ratio,
    remainder,
    rodrigues_polynomial,
    run,
    three_term_next,
    verify_all,
)
from pdemosc.families import SYMMETRIC_ORDERING, VonRoosOrdering

C1 = Parameterization.CASE1
C2 = Parameterization.CASE2


def lowest_numeric_levels(family, k, grid_n=4000, tail=1e-12):
    grid = build_grid(family, grid_n, tail)
    T = assemble_sturm_liouville(family, grid)
    return eigen_tridiagonal(T, k, grid.h).eigenvalues, grid


def as_sympy(poly, d, z):
    return sum(
        sympy.Rational(c) * d ** de * z ** ze
        for ze, qp in poly.coeffs.items()
        for de, c in qp.items()
    )


def test_criterion_01_case1_spectrum_within_5em4_under_10s():
    start = time.monotonic()
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    levels, _ = lowest_numeric_levels(fam, 5)
    elapsed = time.monotonic() - start
    want = [0.5, 1.4, 2.2, 2.9, 3.5]
    for n, (got, ref) in enumerate(zip(levels, want)):
        assert energy(fam, n) == pytest.approx(ref, abs=1e-12)
        assert abs(got - ref) <= 5e-4, (n, got, ref)
    assert elapsed <= 10.0


def test_criterion_02_case2_spectrum_within_5em4():
    fam = make_family(Kind.CASE2, 1.0, 10.0)
    levels, _ = lowest_numeric_levels(fam, 5)
    for n in range(5):
        ref = (n + 0.5) - n * (n + 1) / 20.0
        assert energy(fam, n) == pytest.approx(ref, abs=1e-12)
        assert abs(levels[n] - ref) <= 5e-4, n


def test_criterion_03_case3_spectrum_within_relative_1em3():
    fam = make_family(Kind.CASE3, 1.0, 0.2)
    assert fam.profile.lo == pytest.approx(-5.0)
    assert fam.profile.hi == pytest.approx(5.0)
    levels, _ = lowest_numeric_levels(fam, 8)
    for n in range(8):
        ref = (n + 0.5) + 0.04 * n * (n + 1) / 4.0
        assert energy(fam, n) == pytest.approx(ref, rel=1e-12)
        assert abs(levels[n] - ref) / ref <= 1e-3, n


def test_criterion_04_harmonic_reduction():
    flat = make_family(Kind.CASE1, 1.0, 0.0)
    const = make_family(Kind.CONSTANT, 1.0)
    for n in range(10):
        assert energy(flat, n) == n + 0.5  # exact, not approximate
        assert energy(const, n) == n + 0.5
    lv_flat, _ = lowest_numeric_levels(flat, 6)
    lv_const, _ = lowest_numeric_levels(const, 6)
    for n in range(6):
        assert abs(lv_flat[n] - (n + 0.5)) <= 5e-4
        assert abs(lv_const[n] - (n + 0.5)) <= 5e-4
    # the two reductions assemble the same operator, so the spectra coincide
    assert np.allclose(lv_flat, lv_const, rtol=1e-13, atol=0.0)


def test_criterion_05_printed_polynomials_reproduced_exactly():
    d, z = sympy.symbols("d z")
    printed_first = [
        sympy.Integer(1),
        (2 - d) * z,
        -(2 - d) * (1 + (3 * d - 2) * z ** 2),
        -3 * (2 - d) * (2 - 3 * d) * (z + sympy.Rational(1, 3) * (5 * d - 2) * z ** 3),
        3 * (2 - d) * (2 - 3 * d)
        * (1 + 2 * (5 * d - 2) * z ** 2
           + sympy.Rational(1, 3) * (5 * d - 2) * (7 * d - 2) * z ** 4),
        15 * (2 - d) * (2 - 3 * d) * (2 - 5 * d)
        * (z + sympy.Rational(2, 3) * (7 * d - 2) * z ** 3
           + sympy.Rational(1, 15) * (7 * d - 2) * (9 * d - 2) * z ** 5),
    ]
    for n, want in enumerate(printed_first):
        got = as_sympy(gf_polynomial(n, C1), d, z)
        assert sympy.expand(got - want) == 0, f"first family degree {n}"

    printed_second = [
        sympy.Integer(1),
        (2 - d) * z,
        -(2 - d) * (1 - (2 - 3 * d) * z ** 2),
        -3 * (2 - d) * (2 - 3 * d) * (z - sympy.Rational(1, 3) * (2 - 5 * d) * z ** 3),
        3 * (2 - d) * (2 - 3 * d)
        * (1 - 2 * (2 - 5 * d) * z ** 2
           + sympy.Rational(1, 3) * (2 - 5 * d) * (2 - 7 * d) * z ** 4),
    ]
    for n, want in enumerate(printed_second):
        got = as_sympy(gf_polynomial(n, C2), d, z)
        assert sympy.expand(got - want) == 0, f"second family degree {n}"


def test_criterion_06_recurrences_identically_zero_through_degree_15():
    for par in (C1, C2, Parameterization.CASE3):
        prev, cur = None, gf_polynomial(0, par)
        for m in range(0, 15):
            nxt = three_term_next(cur, prev, m)
            series = gf_polynomial(m + 1, par)
            assert nxt.coeffs == series.coeffs, (par, m)
            prev, cur = cur, nxt
        for m in range(0, 16):
            assert derivative_relation_residual(m, par).coeffs == {}, (par, m)


def test_criterion_07_proportionality_of_the_two_constructions():
    q = sympy.symbols("q")
    r1 = proportionality_ratio(1, C1)
    num = sum(sympy.Rational(c) * q ** k for k, c in r1.num.items())
    den = sum(sympy.Rational(c) * q ** k for k, c in r1.den.items())
    assert sympy.simplify(num / den - (2 - 2 * q) / (2 - q)) == 0
    for par in (C1, C2, Parameterization.CASE3):
        for n in range(11):
            r = proportionality_ratio(n, par)
            assert r.at(F(0)) == 1, (par, n)
            qv, zv = F(3, 11), F(7, 5)
            lhs = evaluate(rodrigues_polynomial(n, par), zv, qv) * sum(
                c * qv ** k for k, c in r.den.items())
            rhs = evaluate(gf_polynomial(n, par), zv, qv) * sum(
                c * qv ** k for k, c in r.num.items())
            assert lhs == rhs, (par, n)


def test_criterion_08_gram_matrix_within_1em6_of_identity():
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = build_grid(fam, 4000)
    states = [eigenfunction_samples(fam, n, grid) for n in range(6)]
    gram = np.array([[inner_product(a, b, grid) for b in states] for a in states])
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-6


def test_criterion_09_residuals_shrink_at_least_1p8x_per_halving():
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    reports = [verify_all(fam, build_grid(fam, n)) for n in (1000, 2001, 4003)]
    for name in ("annihilation", "factorization", "intertwine_minus",
                 "intertwine_plus", "shift_identity"):
        values = [r[name].value for r in reports]
        for coarse, fine in zip(values, values[1:]):
            assert coarse / fine >= 1.8, (name, values)
    for r in reports:
        assert r["superalgebra_offdiag"].value == 0.0
    # the pinned end-state tolerances hold on the finest level
    assert all(e.passed for e in reports[-1].values())


def test_criterion_10_partner_spectrum_identity_exact_to_1em12():
    for kind, alpha, lam in [
        (Kind.CASE1, 1.0, 0.01),
        (Kind.CASE2, 1.0, -6.0),
        (Kind.CASE3, 1.0, 0.2),
        (Kind.CONSTANT, 1.0, 0.0),
    ]:
        fam = make_family(kind, alpha, lam)
        partner = make_family(kind, alpha_at(fam, 1), lam)
        for n in range(21):
            plus_n = energy(partner, n) - energy(partner, 0) + remainder(fam, alpha)
            minus_next = energy(fam, n + 1) - energy(fam, 0)
            assert abs(plus_n - minus_next) <= 1e-12 * max(1.0, abs(minus_next)), (kind, n)


def test_criterion_11_ordering_non_equivalence():
    fam = make_family(Kind.CASE1, 1.0, 0.3)
    grid = build_grid(fam, 4000, tail_tolerance=1e-6)
    e_sym = eigen_tridiagonal(assemble_sturm_liouville(fam, grid), 1,
                              grid.h).eigenvalues[0]
    tol_disc = abs(e_sym - energy(fam, 0))
    e_vr_sym = eigen_tridiagonal(
        assemble_von_roos(fam, SYMMETRIC_ORDERING, grid), 1, grid.h).eigenvalues[0]
    assert abs(e_vr_sym - e_sym) <= tol_disc
    e_bk = eigen_tridiagonal(
        assemble_von_roos(fam, VonRoosOrdering(-0.5, 0.0, -0.5), grid), 1,
        grid.h).eigenvalues[0]
    assert abs(e_bk - e_sym) > 10.0 * tol_disc


def test_criterion_12_bound_state_cutoff_enforced_and_visible():
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    assert bound_state_count(fam) == 10
    with pytest.raises(NotABoundStateError):
        energy(fam, 10)
    assert run(["spectrum", "--family", "case1", "--lambda", "0.1",
                "--n-max", "10", "--grid-n", "400"]) == 1
    # the numeric route has no cutoff; levels past n = 9 leave the closed-form
    # line visibly (the continuum takes over above V(inf) = 5)
    levels, _ = lowest_numeric_levels(fam, 13)
    continuation = [1.0 * ((n + 0.5) - 0.1 * n * (n + 1) / 2.0) for n in range(13)]
    for n in range(5):
        assert abs(levels[n] - continuation[n]) < 5e-4
    departures = [abs(levels[n] - continuation[n]) for n in (10, 11, 12)]
    assert departures[0] > 0.1
    assert departures[1] > departures[0]
    assert departures[2] > departures[1]
