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
    potential_full,
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
    v = np.array([rng.uniform(-1, 1) for _ in range(n)])
    for offsets in ((-1, 0, 2), (1, 0, -1), (-2, 1)):  # the last has no diagonal
        A = random_banded(rng, n, offsets)
        assert np.allclose(A @ v, dense(A, n) @ v, atol=1e-14)
        # a product starts from the diagonal's, not from zeros: the same
        # additions in commuted order, so the same values
        zero_started = np.zeros(n)
        for off, arr in A.bands.items():
            lo_r, lo_c = max(0, -off), max(0, off)
            zero_started[lo_r:n - lo_c] += arr * v[lo_c:n - lo_r]
        assert np.array_equal(A @ v, zero_started), offsets
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
    # two passes: each low state is sampled once on the whole grid for its
    # norm, and then each block of rows evaluates every state and the bands
    # of every operator once, on its rows and a two-row halo
    from pdemosc import arrays, susy

    monkeypatch.setattr(susy, "ROWS", 256)
    fam = make_family(kind, 1.0, lam)
    grid = build_grid(fam, 800)
    count = bound_state_count(fam)
    count = 5 if count is None else min(5, count)
    calls = []

    def counted(name, fn, key=lambda *args: ()):
        # records (name, first node, node count, key): x is the last argument
        def wrapper(*args):
            x = args[-1]
            calls.append((name, float(x[0]), len(x), *key(*args)))
            return fn(*args)
        return wrapper

    def counted_kinetic(family, g, lo, hi):
        calls.append(("kinetic", float(g.points[lo]), hi - lo))
        return arrays.kinetic_bands(family, g, lo, hi)

    def counted_whole(family, k, g):
        calls.append(("whole", k, g.n))
        return arrays.whole_grid_states(family, k, g)
    monkeypatch.setattr(susy, "whole_grid_states", counted_whole)
    monkeypatch.setattr(susy, "kinetic_bands", counted_kinetic)
    monkeypatch.setattr(arrays.BoundStates, "rows", counted(
        "states", arrays.BoundStates.rows, lambda st, x: (len(st.norms),)))
    for name in ("potential_minus", "potential_plus", "potential_full",
                 "mass_at"):
        monkeypatch.setattr(susy, name, counted(name, getattr(susy, name)))
    monkeypatch.setattr(susy, "superpotential_at", counted(
        "superpotential_at", susy.superpotential_at, lambda f, a, x: (a,)))
    verify_all(fam, grid)

    assert calls[0] == ("whole", count, 800)
    expected = []
    for first, stop in [(0, 258), (254, 514), (510, 770), (766, 800)]:
        x0, m = float(grid.points[first]), stop - first
        expected += [(name, x0, m) for name in (
            "kinetic", "potential_minus", "potential_plus", "potential_full",
            "mass_at")]
        expected += [("superpotential_at", x0, m, fam.alpha0),
                     ("superpotential_at", x0, m, alpha_at(fam, 1)),
                     ("states", x0, m, count)]
    assert sorted(calls[1:]) == sorted(expected)


# === the whole-grid reference of verify_all ===
#
# verify_all as it ran before it walked the grid in blocks: every operator
# and state on the whole grid, in phases.  The block walk must reproduce
# it to rounding, and bit for bit on a grid of one block.

def _reference_scaled_sq_norm(v, grid):
    _, e = math.frexp(float(np.max(np.abs(v), initial=0.0)))
    u = np.ldexp(v, -e)
    return grid.h * float(np.dot(u, u)), e


def _reference_max_residual(residual_fn, states, grid):
    worst = 0.0
    for v in states:
        rr, er = _reference_scaled_sq_norm(residual_fn(v)[2:-2], grid)
        vv, ev = _reference_scaled_sq_norm(v, grid)
        worst = max(worst, math.ldexp(math.sqrt(rr) / math.sqrt(vv), er - ev))
    return worst


def _reference_hamiltonian(fam, grid, potential):
    t = assemble_symmetric(fam, grid, potential)
    return Banded(grid.n, {-1: t.offdiag, 0: t.diag, 1: t.offdiag})


def _reference_superalgebra(a, ad, u, x):
    w = x * u
    zero = np.zeros(len(u))

    def q(pair):
        return [zero, a @ pair[0]]

    def qd(pair):
        return [ad @ pair[1], zero]

    def anti(f, g):
        fg, gf = f(g((u, w))), g(f((u, w)))
        return [fg[0] + gf[0], fg[1] + gf[1]]

    qqd = anti(q, qd)
    parts = [*anti(q, q), *anti(qd, qd), qqd[0] - ad @ (a @ u),
             qqd[1] - a @ (ad @ w)]
    return max(float(np.max(np.abs(p))) for p in parts)


def reference_residuals(fam, grid):
    count = bound_state_count(fam)
    states = [eigenfunction_samples(fam, n, grid)
              for n in range(5 if count is None else min(5, count))]
    a0, x = fam.alpha0, grid.points
    with np.errstate(over="ignore", invalid="ignore"):
        h_minus = _reference_hamiltonian(fam, grid, potential_minus(fam, a0, x))
        h_plus = _reference_hamiltonian(fam, grid, potential_plus(fam, a0, x))
    with np.errstate(over="ignore"):
        h = _reference_hamiltonian(fam, grid, potential_full(fam, x))
    a = build_ladder(fam, a0, grid)
    ad = a.transpose()
    a1 = build_ladder(fam, alpha_at(fam, 1), grid)
    ad1 = a1.transpose()
    e0, r = 0.5 * a0, remainder(fam, a0)
    return {
        "factorization": _reference_max_residual(
            lambda v: ad @ (a @ v) - (h @ v - e0 * v), states, grid),
        "annihilation": _reference_max_residual(lambda v: a @ v, states[:1], grid),
        "intertwine_minus": _reference_max_residual(
            lambda v: a @ (h_minus @ v) - h_plus @ (a @ v), states, grid),
        "intertwine_plus": _reference_max_residual(
            lambda v: ad @ (h_plus @ v) - h_minus @ (ad @ v), states, grid),
        "superalgebra_offdiag": _reference_superalgebra(a, ad, states[0], x),
        "shift_identity": _reference_max_residual(
            lambda v: a @ (ad @ v) - (ad1 @ (a1 @ v) + r * v), states, grid),
    }


@pytest.mark.parametrize("kind, alpha, lam", [
    (Kind.CASE1, 1.0, 0.1), (Kind.CASE1, 1.0, -0.3), (Kind.CASE1, 100.0, 10.0),
])
def test_blocks_reproduce_the_whole_grid(monkeypatch, kind, alpha, lam):
    # block edges may fall anywhere: N = k·ROWS + r for r = 0 … 3, odd and
    # even N, on an unbounded domain, a compact one and at a large alpha
    from pdemosc import susy

    fam = make_family(kind, alpha, lam)
    for n in (16, 37, 370, 371, 372, 373, 407, 408):
        grid = build_grid(fam, n)
        want = reference_residuals(fam, grid)
        monkeypatch.setattr(susy, "ROWS", 37)
        got = {k: e.value for k, e in verify_all(fam, grid).residuals.items()}
        assert list(got) == RESIDUAL_NAMES
        if n <= 37:
            assert got == want, n
        for name in RESIDUAL_NAMES:
            assert got[name] == pytest.approx(want[name], rel=1e-13, abs=0.0), (
                n, name)
        monkeypatch.undo()
        # one block of the shipped size: bit for bit
        assert n <= susy.ROWS
        assert {k: e.value for k, e in
                verify_all(fam, grid).residuals.items()} == want, n


def test_block_rows_replay_the_whole_grid_past_the_rescale():
    # past n = 150 on this box the recurrence divides by powers of two that
    # the whole grid chooses; a block of nodes replays them, so its rows
    # are the whole grid's bit for bit
    from pdemosc.arrays import nodes_between, whole_grid_states

    fam = make_family(Kind.CONSTANT, 1.0)
    grid = build_grid(fam, 2001)
    pairs = list(whole_grid_states(fam, 171, grid))
    whole, states = [v for v, _ in pairs], pairs[-1][1]
    assert states.shifts and len(states.norms) == 171
    for n in (0, 150, 170):
        assert np.array_equal(whole[n], eigenfunction_samples(fam, n, grid))
    for lo, hi in [(0, 700), (650, 1400), (1390, 2001)]:
        rows = states.rows(nodes_between(grid, lo, hi))
        assert all(np.array_equal(row, v[lo:hi]) for row, v in zip(rows, whole))


def test_overflow_refusal_names_the_first_operator_that_overflows(monkeypatch):
    # H₋ is refused before H₊, with H₋'s largest entry, though H₊'s larger
    # entries sit in an earlier block and H₋'s NaN in a later one
    from pdemosc import susy
    from pdemosc.errors import PdemError

    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = build_grid(fam, 2001)
    honest_minus, honest_plus = susy.potential_minus, susy.potential_plus

    def minus(f, a, x):
        v = honest_minus(f, a, x)
        return np.where(x > grid.points[1800], 3e160, v) + np.where(
            x == grid.points[1900], np.nan, 0.0)

    def plus(f, a, x):
        return np.where(x < grid.points[100], 5e170, honest_plus(f, a, x))
    with pytest.raises(PdemError) as want:
        assemble_symmetric(fam, grid, minus(fam, fam.alpha0, grid.points))
    assert "3e+160" in str(want.value)
    monkeypatch.setattr(susy, "potential_minus", minus)
    monkeypatch.setattr(susy, "potential_plus", plus)
    monkeypatch.setattr(susy, "ROWS", 300)
    with pytest.raises(PdemError) as got:
        verify_all(fam, grid)
    assert str(got.value) == str(want.value)


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
    # one block of rows, and several
    assert 4000 <= susy.ROWS < 20001
    cases = [(fam, build_grid(fam, n)) for fam in families for n in (4000, 20001)]
    for fam, grid in cases:
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
    for fam, grid in cases:
        report = verify_all(fam, grid)
        failed = {n for n, e in report.residuals.items() if not e.passed}
        assert failed >= failing, (fam.profile.kind, grid.n, failed)


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
