import math
import random

import numpy as np
import pytest

from pdemosc import (
    Kind,
    alpha_at,
    assemble_sturm_liouville,
    bound_state_count,
    build_grid,
    build_ladder,
    eigenfunction_samples,
    energy,
    inner_product,
    make_family,
    mass_at,
    potential_minus,
    potential_plus,
    remainder,
    report_to_json_dict,
    state_map_cosine,
    superpotential_at,
    verify_all,
)
from pdemosc.arrays import assemble_symmetric
from pdemosc.susy import Banded, DEFAULT_TOLERANCES, RESIDUAL_POWERS

RESIDUAL_NAMES = [
    "factorization",
    "annihilation",
    "intertwine_minus",
    "intertwine_plus",
    "superalgebra_offdiag",
    "shift_identity",
]


def dense(b, n):
    out = np.zeros((n, n))
    for off, arr in b.bands.items():
        idx = np.arange(len(arr))
        if off >= 0:
            out[idx, idx + off] = arr
        else:
            out[idx - off, idx] = arr
    return out


def random_banded(rng, n, offsets):
    bands = {}
    for off in offsets:
        m = n - abs(off)
        bands[off] = np.array([rng.uniform(-1, 1) for _ in range(m)])
    return Banded(n, bands)


def test_banded_matvec_and_product_match_dense():
    rng = random.Random(3)
    n = 17
    A = random_banded(rng, n, (-1, 0, 2))
    v = np.array([rng.uniform(-1, 1) for _ in range(n)])
    assert np.allclose(A @ v, dense(A, n) @ v, atol=1e-14)
    # transpose round trip
    assert np.allclose(dense(A.transpose(), n), dense(A, n).T, atol=0)


def test_ladder_adjoint_under_quadrature():
    # <A f, g> = <f, Adag g> must hold to roundoff for the discrete pair,
    # uniformly over random vectors; the uniform weight cancels
    rng = np.random.default_rng(2024)
    for kind, lam in [(Kind.CASE1, 0.1), (Kind.CASE3, 0.2)]:
        fam = make_family(kind, 1.0, lam)
        grid = build_grid(fam, 321)
        a = build_ladder(fam, fam.alpha0, grid)
        adag = a.transpose()
        for _ in range(10):
            f = rng.standard_normal(grid.n)
            g = rng.standard_normal(grid.n)
            lhs = inner_product(a @ f, g, grid)
            rhs = inner_product(f, adag @ g, grid)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_ladder_bands_shape():
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = build_grid(fam, 200)
    a = build_ladder(fam, fam.alpha0, grid)
    assert set(a.bands) == {-1, 0, 1}
    # both off-diagonals carry the same 1/sqrt(2m)/(2h) samples: row i has
    # +s_i/(2h) above and row i+1 has -s_{i+1}/(2h) below
    assert np.allclose(a.bands[-1][:-1], -a.bands[1][1:], atol=0)
    # the transpose only relabels the bands, so it is exact
    at = a.transpose()
    assert set(at.bands) == {-1, 0, 1}
    for off, band in at.bands.items():
        assert np.array_equal(band, a.bands[-off]), off


def dense_ladder(fam, alpha, grid):
    # A = diag(1/sqrt(2m)) D + diag(W), D the centered difference
    n, h = grid.n, grid.h
    d = (np.eye(n, k=1) - np.eye(n, k=-1)) / (2.0 * h)
    s = 1.0 / np.sqrt(2.0 * mass_at(fam.profile, grid.points))
    return np.diag(s) @ d + np.diag(superpotential_at(fam, alpha, grid.points))


def dense_tridiagonal(t):
    return np.diag(t.diag) + np.diag(t.offdiag, 1) + np.diag(t.offdiag, -1)


@pytest.mark.parametrize("kind, lam", [
    (Kind.CASE1, 0.1), (Kind.CASE2, 5.0), (Kind.CASE3, 0.3),
    (Kind.CONSTANT, 0.0),
])
def test_residuals_match_dense_products(kind, lam):
    # the same residuals from dense numpy operator products; four distinct
    # (c, s), since case1 lam = 0.1 and case2 lam = 10 are one family
    fam = make_family(kind, 1.0, lam)
    grid = build_grid(fam, 300)
    n, a0 = grid.n, fam.alpha0
    count = bound_state_count(fam)
    states = [eigenfunction_samples(fam, k, grid)
              for k in range(5 if count is None else min(5, count))]

    def residual(op):
        return max(np.linalg.norm((op @ v)[2:-2]) / np.linalg.norm(v)
                   for v in states)

    a = dense_ladder(fam, a0, grid)
    a2 = dense_ladder(fam, alpha_at(fam, 1), grid)
    h = dense_tridiagonal(assemble_sturm_liouville(fam, grid))
    h_minus = dense_tridiagonal(assemble_symmetric(
        fam, grid, potential_minus(fam, a0, grid.points)))
    h_plus = dense_tridiagonal(assemble_symmetric(
        fam, grid, potential_plus(fam, a0, grid.points)))
    eye = np.eye(n)
    want = [
        residual(a.T @ a - (h - 0.5 * a0 * eye)),
        residual(a @ h_minus - h_plus @ a),
        residual(a.T @ h_plus - h_minus @ a.T),
        residual(a @ a.T - a2.T @ a2 - remainder(fam, a0) * eye),
    ]
    residuals = verify_all(fam, grid).residuals
    got = [residuals[name].value for name in (
        "factorization", "intertwine_minus", "intertwine_plus", "shift_identity")]
    assert got == pytest.approx(want, rel=1e-9)


def test_annihilation_residual_small_and_shrinking():
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    coarse, fine = (verify_all(fam, build_grid(fam, n)).residuals[
        "annihilation"].value for n in (1001, 2003))
    assert fine < 5e-4
    assert coarse / fine > 1.8  # second-order decay


def test_superalgebra_closes_exactly():
    # the supercharges are nilpotent and commute with the block Hamiltonian
    # by matrix identity: zero residual, not small residual
    for kind, lam in [(Kind.CASE1, 1.0), (Kind.CASE2, 7.0), (Kind.CASE3, 0.3)]:
        fam = make_family(kind, 1.0, lam)
        grid = build_grid(fam, 150, tail_tolerance=1e-8)
        report = verify_all(fam, grid)
        assert report.residuals["superalgebra_offdiag"].value == 0.0


def test_residuals_decrease_monotonically():
    # each named residual drops by about 4x per halving; the invariant we
    # promise is monotone decrease with 10 percent slack
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    reports = [verify_all(fam, build_grid(fam, n)) for n in (500, 1001, 2003)]
    for name in ("factorization", "annihilation", "intertwine_minus",
                 "intertwine_plus", "shift_identity"):
        values = [r.residuals[name].value for r in reports]
        for coarse, fine in zip(values, values[1:]):
            assert fine < 1.1 * coarse, (name, values)
        assert values[-1] < values[0] / 3.0, (name, values)


def test_verify_all_report_layout():
    fam = make_family(Kind.CASE3, 1.0, 0.2)
    grid = build_grid(fam, 800)
    report = verify_all(fam, grid)
    assert list(report.residuals) == RESIDUAL_NAMES
    assert report.family == "case3"
    assert report.alpha == 1.0
    assert report.lam == 0.2
    assert report.grid_n == 800
    for name, entry in report.residuals.items():
        assert entry.tolerance == DEFAULT_TOLERANCES[name]
        assert entry.passed == (entry.value <= entry.tolerance), name
    # at this resolution everything is inside the shipped tolerances
    assert all(e.passed for e in report.residuals.values())


@pytest.mark.parametrize("kind,lam", [(Kind.CASE3, 0.2), (Kind.CASE1, 0.3)])
def test_verify_all_samples_the_states_once(monkeypatch, kind, lam):
    # one pass: each low state is sampled once, and the suite builds one
    # ladder at alpha_0 and one at alpha_1
    from pdemosc import susy

    fam = make_family(kind, 1.0, lam)
    grid = build_grid(fam, 800)
    samples, ladders = [], []
    honest_samples, honest_ladder = susy.eigenfunction_samples, susy.build_ladder

    def counted_samples(family, n, g):
        samples.append(n)
        return honest_samples(family, n, g)

    def counted_ladder(family, alpha_n, g):
        ladders.append(alpha_n)
        return honest_ladder(family, alpha_n, g)
    monkeypatch.setattr(susy, "eigenfunction_samples", counted_samples)
    monkeypatch.setattr(susy, "build_ladder", counted_ladder)
    verify_all(fam, grid)
    count = bound_state_count(fam)
    assert samples == list(range(5 if count is None else min(5, count)))
    assert ladders == [fam.alpha0, alpha_at(fam, 1)]


def test_tolerances_scale_as_alpha_powers():
    # at fixed q every residual is its alpha = 1 value times alpha^p, so the
    # verdicts at alpha = 100 are those at alpha = 1
    base = verify_all(make_family(Kind.CASE1, 1.0, 0.1),
                      build_grid(make_family(Kind.CASE1, 1.0, 0.1), 4000))
    fam = make_family(Kind.CASE1, 100.0, 10.0)
    report = verify_all(fam, build_grid(fam, 4000))
    for name, entry in report.residuals.items():
        scale = 100.0 ** RESIDUAL_POWERS[name]
        assert entry.tolerance == DEFAULT_TOLERANCES[name] * scale, name
        assert entry.value == pytest.approx(
            base.residuals[name].value * scale, rel=1e-6, abs=0.0), name
        assert entry.passed == base.residuals[name].passed, name
    assert report.residuals["superalgebra_offdiag"].tolerance == 0.0


@pytest.mark.parametrize("alpha", [1.0, 100.0])
@pytest.mark.parametrize("mutation", ["h-plus-both-sides", "perturbed-ladder"])
def test_mutated_operators_fail_at_every_alpha(monkeypatch, mutation, alpha):
    # a wrong operator must FAIL however large alpha makes the tolerances,
    # on an unbounded domain and on a compact one (q = -0.045 for case3)
    from pdemosc import susy

    families = [make_family(Kind.CASE1, alpha, 0.1 * alpha),
                make_family(Kind.CASE3, alpha, 0.3 * math.sqrt(alpha))]
    grids = [build_grid(fam, 4000) for fam in families]
    for fam, grid in zip(families, grids):
        assert all(e.passed for e in verify_all(fam, grid).residuals.values())
    if mutation == "h-plus-both-sides":
        # A H+ = H+ A in place of A H- = H+ A
        monkeypatch.setattr(susy, "potential_minus", susy.potential_plus)
        failing = {"intertwine_minus", "intertwine_plus"}
    else:
        honest = susy.superpotential_at
        monkeypatch.setattr(susy, "superpotential_at",
                            lambda f, a, x: 1.01 * honest(f, a, x))
        failing = {"annihilation", "factorization"}
    for fam, grid in zip(families, grids):
        report = verify_all(fam, grid)
        failed = {n for n, e in report.residuals.items() if not e.passed}
        assert failed >= failing, (fam.profile.kind, failed)


def test_report_json_schema():
    fam = make_family(Kind.CASE1, 2.0, 0.2)
    grid = build_grid(fam, 300)
    d = report_to_json_dict(verify_all(fam, grid))
    assert d["family"] == "case1" and d["alpha"] == 2.0 and d["lambda"] == 0.2
    assert d["grid_n"] == 300
    assert list(d["residuals"]) == RESIDUAL_NAMES
    for entry in d["residuals"].values():
        assert set(entry) == {"value", "tolerance", "pass"}


def test_annihilation_is_selective():
    # sanity of the measurement itself: A kills the ground state and nothing
    # else, so the same residual on the first excited state stays order one
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = build_grid(fam, 1200)
    a = build_ladder(fam, fam.alpha0, grid)

    def rel_residual(phi):
        out = (a @ phi)[2:-2]
        return math.sqrt(grid.h * float(np.dot(out, out))) / math.sqrt(
            inner_product(phi, phi, grid))

    r0 = rel_residual(eigenfunction_samples(fam, 0, grid))
    r1 = rel_residual(eigenfunction_samples(fam, 1, grid))
    assert r0 < 2e-3
    assert r1 > 100.0 * r0


def test_intertwining_residual_pair():
    fam = make_family(Kind.CONSTANT, 1.0)
    grid = build_grid(fam, 2000)
    residuals = verify_all(fam, grid).residuals
    assert residuals["intertwine_minus"].value < 1e-3
    assert residuals["intertwine_plus"].value < 1e-3


def test_shift_identity_residual():
    fam = make_family(Kind.CASE2, 1.0, 10.0)
    grid = build_grid(fam, 2003)
    assert verify_all(fam, grid).residuals["shift_identity"].value < 5e-3


def test_state_map_cosine():
    # A maps the (n+1)-th state of H_minus onto the n-th state of H_plus;
    # the discrete cosine between the mapped state and the eigenvector is
    # essentially 1 already at a thousand points
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = build_grid(fam, 1000)
    for n in range(4):
        assert state_map_cosine(fam, grid, n) >= 0.999


def test_partner_spectrum_identity_exact():
    # E_{n+1}(alpha) - E_0(alpha) = E_n(alpha + eta) - E_0(alpha + eta) + R(alpha)
    # with R the remainder: the algebraic fingerprint of shape invariance,
    # checked with closed forms only
    for kind, alpha, lam, top in [
        (Kind.CASE3, 1.0, 0.2, 20),
        (Kind.CASE1, 1.0, 0.01, 20),
        (Kind.CASE2, 1.0, -6.0, 20),
        (Kind.CONSTANT, 1.0, 0.0, 20),
    ]:
        fam = make_family(kind, alpha, lam)
        partner_alpha = alpha_at(fam, 1)
        partner = make_family(kind, partner_alpha, lam)
        for n in range(top + 1):
            lhs = energy(fam, n + 1) - energy(fam, 0)
            rhs = energy(partner, n) - energy(partner, 0) + remainder(fam, alpha)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12), (kind, n)


def test_partner_alpha_walk_matches_eta():
    fam = make_family(Kind.CASE3, 1.0, 0.2)
    assert fam.eta == pytest.approx(0.02)  # lambda^2 / 2
    assert remainder(fam, fam.alpha0) == pytest.approx(1.02)
    fam = make_family(Kind.CASE2, 1.0, 10.0)
    assert fam.eta == pytest.approx(-0.1)
