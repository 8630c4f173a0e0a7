"""The grid `spectrum` and `compare-ordering` solve on: sized for energies.

build_grid(..., energies=True) ends a whole-line box where its walls stop
moving the top level, and maps a soft compact wall with sin; `verify`
and `eigenfunctions` keep the amplitude box and the uniform compact grid.
Each claim about the levels is checked against the closed form, and
against the amplitude box as it was before, at the same N.
"""

import contextlib
import io
import json
import math
import random
import statistics

import mpmath
import pytest

from pdemosc import (Kind, bound_state_count, build_grid, energy,
                     gf_polynomial, make_family, run, uniform_grid)
from pdemosc.discrete import assemble_lists, eigenvalue_list
from pdemosc.families import unified_deformation
from pdemosc.grid import _log_norm, _log_wall_shift, soft_wall
from pdemosc.polynomials import STORED_VARIABLE, parameterization_for

TAILS = (1e-15, 1e-12, 1e-9, 1e-6)


def _worst_error(fam, grid, n_max):
    levels = eigenvalue_list(assemble_lists(fam, grid), n_max + 1)
    return max(abs(e - energy(fam, n)) for n, e in enumerate(levels))


def _spectrum(*flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["spectrum", *flags, "--format", "json"]) == 0
    return json.loads(out.getvalue())


def _worst(*flags):
    return max(level["abs_error"] for level in _spectrum(*flags)["levels"])


def _random_whole_line_request(rng):
    kind = rng.choice([Kind.CASE1, Kind.CASE2, Kind.CONSTANT])
    alpha = rng.uniform(0.5, 2.0)
    q = rng.uniform(0.005, 0.3)
    lam = {Kind.CASE1: q * alpha, Kind.CASE2: 1.0 / (q * alpha),
           Kind.CONSTANT: 0.0}[kind]
    fam = make_family(kind, alpha, lam)
    count = bound_state_count(fam) or 20
    return fam, rng.randint(0, min(19, count - 1)), rng.choice(
        [500, 1000, 2000, 4000, 8000])


def test_the_energy_box_costs_no_level_its_accuracy():
    # 120 seeded requests on the whole line, 30 at each tail tolerance:
    # none is more than 1 % worse than on the amplitude box at the same N,
    # and the median request gains.  Past N of about 16000 the low levels
    # reach the eigensolver's roundoff floor, where either box reads noise
    rng = random.Random(47)
    ratios = []
    for i in range(120):
        fam, n_max, n = _random_whole_line_request(rng)
        tail = TAILS[i % 4]
        amplitude = build_grid(fam, n, tail, n_max)
        grid = build_grid(fam, n, tail, n_max, energies=True)
        assert grid.map == "sinh" and grid.wall <= amplitude.wall
        before = _worst_error(fam, amplitude, n_max)
        after = _worst_error(fam, grid, n_max)
        assert after <= 1.01 * before, (fam, n_max, n, tail, before, after)
        ratios.append(after / before)
    assert statistics.median(ratios) < 0.9, sorted(ratios)


@pytest.mark.parametrize("lam", [0.35, 0.39, 0.395])
def test_near_the_cutoff_the_amplitude_box_stays(lam):
    # the top level's tail falls as a power of x, so the walls move it
    # less than the shift target only past the amplitude box: that box stays
    for alpha in (0.37, 1.0, 3.3):  # q = λ/α
        fam = make_family(Kind.CASE1, alpha, lam * alpha)
        for n in (1000, 4000):
            assert build_grid(fam, n, n_max=2, energies=True) == build_grid(
                fam, n, n_max=2)


def _dirichlet_shift(n, wall):
    # the root, near n + ½, of the oscillator's Dirichlet problem on
    # (−wall, wall): the even or odd Kummer solution vanishes at the wall
    with mpmath.workdps(60):
        a, b = ((0.25, 0.5) if n % 2 == 0 else (0.75, 1.5))
        e0 = mpmath.mpf(n) + 0.5
        root = mpmath.findroot(
            lambda e: mpmath.hyp1f1(a - e / 2, b, mpmath.mpf(wall) ** 2),
            (e0, e0 + mpmath.mpf("1e-30")), tol=mpmath.mpf(10) ** -50)
        return float(root - e0)


@pytest.mark.parametrize("n", [0, 5, 19, 30, 40])
def test_the_wall_shift_estimate_is_the_dirichlet_shift(n):
    # the normalized state's first-order shift, at the energy box's wall
    # of the constant family (the oscillator), where it should be 1e-12
    fam = make_family(Kind.CONSTANT, 1.0)
    wall = build_grid(fam, 2000, n_max=n, energies=True).wall
    estimate = math.exp(_log_wall_shift(fam, n, wall * wall,
                                        _log_norm(0.0, n)))
    assert estimate == pytest.approx(1e-12, rel=1e-3)
    assert _dirichlet_shift(n, wall) == pytest.approx(estimate, rel=0.05)


def _exact_wall_shift(kind, fam, n, v):
    # 2(1 + qv)·|φφ'|/∫φ² dζ at ζ² = v, of φ = H_n·g, g = (1 + qζ²)^(−1/2q)
    # for q > 0, from the exact H_n of gf_polynomial in 40 digits, its
    # coefficients read as test_sampling.exact_state reads them
    par = parameterization_for(kind)
    poly = gf_polynomial(n, par)
    with mpmath.workdps(40):
        q = mpmath.mpf(fam.profile.s) / (fam.profile.c * fam.alpha0)
        stored = STORED_VARIABLE[par][0] * q
        coeffs = [sum((mpmath.mpf(k) * stored ** j
                       for j, k in enumerate(poly.terms.get(d, []))),
                      mpmath.mpf(0)) for d in range(n + 1)]
        # ∫ζ^2k·g² dζ = q^−(k+½)·B(k + ½, 1/q − k − ½)
        moments = [q ** -(k + 0.5) * mpmath.beta(k + 0.5, 1 / q - k - 0.5)
                   for k in range(n + 1)]
        norm = sum(coeffs[i] * coeffs[j] * moments[(i + j) // 2]
                   for i in range(n + 1) for j in range(i % 2, n + 1, 2))
        z = mpmath.sqrt(v)
        h = mpmath.polyval(coeffs[::-1], z)
        dh = mpmath.polyval([d * k for d, k in enumerate(coeffs)][:0:-1], z)
        g = (1 + q * v) ** (-1 / (2 * q))
        # φ' = (H_n' − ζ·H_n/(1 + qv))·g
        dphi = (dh - z * h / (1 + q * v)) * g
        return float(2 * (1 + q * v) * abs(h * g * dphi) / norm)


@pytest.mark.parametrize("kind, alpha, lam, n", [
    (Kind.CASE1, 1.0, 0.01, 30), (Kind.CASE1, 0.8, 0.1, 5),
    (Kind.CASE2, 1.5, 40.0, 30), (Kind.CASE2, 1.0, 4.0, 2)])
def test_the_wall_shift_estimate_holds_at_nonzero_q(kind, alpha, lam, n):
    # inside and past the turning point ζ², at q ≠ 0, where the structure
    # relation keeps the nqζ·H_n term that q = 0's H_n' = 2n·H_{n−1} drops
    fam = make_family(kind, alpha, lam)
    q = unified_deformation(fam)
    turning = (2 * n + 1 - q * n * (n + 1)) / ((1 - n * q) * (1 - (n + 1) * q))
    for v in (0.37 * turning, 0.8 * turning, 1.5 * turning, 3 * turning,
              6 * turning):
        estimate = math.exp(_log_wall_shift(fam, n, v, _log_norm(q, n)))
        assert estimate == pytest.approx(_exact_wall_shift(kind, fam, n, v),
                                         rel=1e-12), v


@pytest.mark.parametrize("kind, alpha, lam, n_max", [
    (Kind.CONSTANT, 1.0, 0.0, 40), (Kind.CONSTANT, 0.7, 0.0, 30),
    (Kind.CASE1, 1.0, 0.01, 40), (Kind.CASE2, 1.5, 40.0, 30),
])
def test_high_levels_keep_their_accuracy_to_large_n(kind, alpha, lam, n_max):
    # the top level's wall sits where the normalized state, not the
    # envelope, gives a shift of 1e-12·α, so refining to N = 64000 never
    # meets a wall error the amplitude box would not
    fam = make_family(kind, alpha, lam)
    for n in (16000, 64000):
        before = _worst_error(fam, build_grid(fam, n, n_max=n_max), n_max)
        after = _worst_error(fam, build_grid(fam, n, n_max=n_max,
                                             energies=True), n_max)
        assert after <= 1.01 * before, (n, before, after)


@pytest.mark.parametrize("flags, sizes", [
    (["--family", "constant", "--n-max", "19"], (2000, 8000)),
    (["--family", "case1", "--lambda", "0.3"], (1000, 4000)),
], ids=["constant-n19", "case1-lam0.3"])
def test_the_energy_box_converges_at_second_order(flags, sizes):
    coarse, fine = (_worst(*flags, "--grid-n", str(n)) for n in sizes)
    assert 1.8 <= math.log(coarse / fine, 4) <= 2.2, (coarse, fine)


def test_the_panel_constant_row_gains():
    # the benchmark panel's worst row read 1.66475e-3 on the amplitude box
    # (wall 10.35), and 1.5463e-3 here (wall 9.268)
    doc = _spectrum("--family", "constant", "--n-max", "19", "--grid-n", "2000")
    assert max(level["abs_error"] for level in doc["levels"]) <= 1.55e-3
    assert doc["grid"]["hi"] < 10.35


# item 17's rows with γ < 1, each (family, alpha, lambda)
SOFT = [("case1", 0.3, -0.3), ("case1", 0.5, -0.45), ("case1", 0.6, -0.45),
        ("case1", 0.75, -0.45), ("case3", 0.2, 0.6)]


@pytest.mark.parametrize("family, alpha, lam", SOFT,
                         ids=[f"{f}-a{a}-l{l}" for f, a, l in SOFT])
def test_soft_walls_converge_at_second_order_on_the_sin_map(family, alpha, lam):
    flags = ["--family", family, "--alpha", repr(alpha), "--lambda", repr(lam)]
    assert _spectrum(*flags, "--grid-n", "1000")["grid"]["map"] == "sin"
    coarse, fine = (_worst(*flags, "--grid-n", str(n)) for n in (1000, 4000))
    assert 1.8 <= math.log(coarse / fine, 4) <= 2.2, (coarse, fine)


def test_a_soft_wall_reaches_the_closed_form_at_default_flags():
    # 1.65e-2 on the uniform grid, at first order
    doc = _spectrum("--family", "case1", "--alpha", "0.5", "--lambda=-0.45")
    beta = math.sqrt(0.45)
    assert doc["grid"]["map"] == "sin" and doc["grid"]["scale"] == beta
    assert doc["grid"]["hi"] == pytest.approx(1.0 / beta, rel=1e-15)
    assert max(level["abs_error"] for level in doc["levels"]) <= 2e-4


@pytest.mark.parametrize("n_max", [0, 2, 9, 19, 39, 79])
def test_the_threshold_moves_with_the_level_count(n_max):
    # case1 λ −0.45 has γ = α/0.9: just below soft_wall the wall is soft
    # and mapped with sin, and at or above it the uniform grid stays, bytes
    # and all
    gamma = soft_wall(n_max + 1)
    for scale, soft in ((0.99, True), (1.0, False), (1.01, False)):
        fam = make_family(Kind.CASE1, 0.9 * gamma * scale, -0.45)
        p = fam.profile
        assert (p.c * fam.alpha0 / (2.0 * -p.s) < gamma) == soft
        grid = build_grid(fam, 2000, n_max=n_max, energies=True)
        if soft:
            assert grid.map == "sin"
        else:
            assert grid == build_grid(fam, 2000)


@pytest.mark.parametrize("levels, gamma", [
    (1, 1.25), (3, 1.25), (3, 2.0), (10, 1.25), (10, 2.0), (20, 2.0),
    (20, 3.0), (40, 4.0), (40, 6.0),
])
def test_the_chosen_compact_grid_is_the_more_accurate(levels, gamma):
    # the ratio of the two grids' worst errors is about the same at every
    # N from 1000 up for γ ≥ 1, so N = 1000 tells which one wins
    fam = make_family(Kind.CASE1, 0.9 * gamma, -0.45)
    chosen = build_grid(fam, 1000, n_max=levels - 1, energies=True)
    beta = math.sqrt(0.45)
    other = (build_grid(fam, 1000) if chosen.map else uniform_grid(
        0.5 * math.pi / beta, 1000)._replace(map="sin", beta=beta))
    assert _worst_error(fam, chosen, levels - 1) < _worst_error(
        fam, other, levels - 1)


def test_far_above_the_threshold_the_uniform_grid_stays():
    fam = make_family(Kind.CASE3, 1.0, 0.3)  # γ = 11
    assert build_grid(fam, 2000, n_max=9, energies=True) == build_grid(fam, 2000)


def test_sin_nodes_lie_inside_and_mirror():
    fam = make_family(Kind.CASE1, 0.5, -0.45)
    for n in (16, 4000, 4001):
        grid = build_grid(fam, n, n_max=9, energies=True)
        xs = grid.node(range(1, n + 1))
        assert xs == [-x for x in reversed(xs)]
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert -fam.profile.hi < xs[0] and xs[-1] < fam.profile.hi
        # nodes 0 and n + 1 are the walls, at ∓1/β
        assert grid.node(n + 1) == pytest.approx(fam.profile.hi, rel=1e-15)


def test_verify_and_eigenfunctions_keep_their_grids():
    # the energy grid is spectrum's and compare-ordering's only
    soft = make_family(Kind.CASE1, 0.5, -0.45)
    assert build_grid(soft, 2000, n_max=4).map == ""
    line = make_family(Kind.CONSTANT, 1.0)
    assert build_grid(line, 2000, n_max=4) != build_grid(line, 2000, n_max=4,
                                                          energies=True)
