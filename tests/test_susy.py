import json
import math
import random
import warnings

import numpy as np
import pytest

from pdemosc import (
    Kind,
    alpha_at,
    assemble_sturm_liouville,
    bound_state_count,
    build_grid,
    eigenfunction_samples,
    energy,
    inner_product,
    make_family,
    mass_at,
    remainder,
    run,
    superpotential_at,
    uniform_grid,
    verify_all,
)
from pdemosc.discrete import TridiagonalOperator, eigenpair_lists
from pdemosc import susy
from pdemosc.errors import InvalidLambdaError
from pdemosc.susy import (
    RESIDUAL_TOLERANCES,
    Banded,
    _band_extent,
    _block_hamiltonians,
    _frame,
    _ladders,
    _require_representable,
)

RESIDUAL_NAMES = [
    "factorization",
    "annihilation",
    "intertwine_minus",
    "intertwine_plus",
    "superalgebra_offdiag",
    "shift_identity",
]


def dense(b):
    return np.diag(b.diag) + np.diag(b.lower, -1) + np.diag(b.upper, 1)


def random_banded(rng, n):
    return Banded(*(np.array([rng.uniform(-1, 1) for _ in range(m)])
                    for m in (n - 1, n, n - 1)))


def test_banded_matvec_and_product_match_dense():
    rng = random.Random(3)
    n = 17
    v = np.array([rng.uniform(-1, 1) for _ in range(n)])
    A = random_banded(rng, n)
    assert Banded._fields == ("lower", "diag", "upper")
    assert np.allclose(A @ v, dense(A) @ v, atol=1e-14)
    # a product is diag·v, then the lower band's products, then the upper
    # band's, in that order of additions
    ordered = A.diag * v
    ordered[1:] += A.lower * v[:-1]
    ordered[:-1] += A.upper * v[1:]
    assert np.array_equal(A @ v, ordered)
    # transpose round trip
    assert np.array_equal(dense(A.transpose()), dense(A).T)


def ladder(fam, alpha, grid):
    """verify_all's A(α) on one block of the whole grid."""
    return _ladders(fam, _frame(grid, 0, grid.n), (alpha,))[0]


def test_ladder_adjoint_under_quadrature():
    # <A f, g> = <f, Adag g> must hold to roundoff for the discrete pair,
    # uniformly over random vectors; the uniform weight cancels
    rng = np.random.default_rng(2024)
    for kind, lam in [(Kind.CASE1, 0.1), (Kind.CASE3, 0.2)]:
        fam = make_family(kind, 1.0, lam)
        grid = build_grid(fam, 321)
        a = ladder(fam, fam.alpha0, grid)
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
    a = ladder(fam, fam.alpha0, grid)
    assert [len(band) for band in a] == [grid.n - 1, grid.n, grid.n - 1]
    # both off-diagonals carry the same 1/sqrt(2m)/(2h) samples: row i has
    # +s_i/(2h) above and row i+1 has -s_{i+1}/(2h) below
    assert np.allclose(a.lower[:-1], -a.upper[1:], atol=0)
    # the transpose only swaps the off-bands, so it is exact
    at = a.transpose()
    assert at.lower is a.upper and at.upper is a.lower
    assert at.diag is a.diag


def dense_ladder(fam, alpha, grid):
    # A = diag(1/sqrt(2m)) D + diag(W), D the centered difference
    n, h, x = grid.n, grid.h, grid.node(np.arange(1, grid.n + 1))
    d = (np.eye(n, k=1) - np.eye(n, k=-1)) / (2.0 * h)
    s = 1.0 / np.sqrt(2.0 * mass_at(fam.profile, x))
    return np.diag(s) @ d + np.diag(superpotential_at(fam, alpha, x))


def dense_tridiagonal(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def whole_grid_hamiltonians(fam, grid):
    """The bands (H₋, H₊, H) of verify_all on one block of the whole grid,
    each (diag, offdiag) and refused in that order as verify_all refuses."""
    diags, off = _block_hamiltonians(fam, grid, 0, _frame(grid, 0, grid.n))
    for diag in diags:
        _require_representable(_band_extent(diag, off, (math.nan, False)))
    return [(diag, off) for diag in diags]


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
    h = dense_tridiagonal(*assemble_sturm_liouville(fam, grid))
    h_minus, h_plus, _ = (dense_tridiagonal(*bands)
                          for bands in whole_grid_hamiltonians(fam, grid))
    eye = np.eye(n)
    want = [
        residual(a.T @ a - (h - 0.5 * a0 * eye)),
        residual(a @ h_minus - h_plus @ a),
        residual(a.T @ h_plus - h_minus @ a.T),
        residual(a @ a.T - a2.T @ a2 - remainder(fam, a0) * eye),
    ]
    residuals = verify_all(fam, grid)
    got = [residuals[name].value for name in (
        "factorization", "intertwine_minus", "intertwine_plus", "shift_identity")]
    assert got == pytest.approx(want, rel=1e-9)


def test_annihilation_residual_small_and_shrinking():
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    coarse, fine = (verify_all(fam, build_grid(fam, n))[
        "annihilation"].value for n in (1001, 2003))
    assert fine < 5e-4
    assert coarse / fine > 1.8  # second-order decay


def test_superalgebra_closes_exactly():
    # Q(u, w) = (0, Au) and Q†(u, w) = (A†w, 0) close for every operator A,
    # so verify reports superalgebra_offdiag as an exact 0 without
    # measuring it: proved here with A and A† as symbols that do not commute
    import sympy

    a, ad = sympy.symbols("A A_dagger", commutative=False)
    q = sympy.Matrix([[0, 0], [a, 0]])
    qd = sympy.Matrix([[0, ad], [0, 0]])

    def expanded(m):
        return m.applyfunc(sympy.expand)

    zero = sympy.zeros(2, 2)
    qqd = q * qd + qd * q
    assert expanded(q * q + q * q) == zero
    assert expanded(qd * qd + qd * qd) == zero
    assert expanded(qqd - sympy.diag(ad * a, a * ad)) == zero
    # the proof sees a wrong block: A†A and AA† swapped do not cancel
    swapped = expanded(qqd - sympy.diag(a * ad, ad * a))
    assert swapped == sympy.diag(ad * a - a * ad, a * ad - ad * a) != zero


def test_residuals_decrease_monotonically():
    # each named residual drops by about 4x per halving; the invariant we
    # promise is monotone decrease with 10 percent slack
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    reports = [verify_all(fam, build_grid(fam, n)) for n in (500, 1001, 2003)]
    for name in ("factorization", "annihilation", "intertwine_minus",
                 "intertwine_plus", "shift_identity"):
        values = [r[name].value for r in reports]
        for coarse, fine in zip(values, values[1:]):
            assert fine < 1.1 * coarse, (name, values)
        assert values[-1] < values[0] / 3.0, (name, values)


def test_verify_all_report_layout():
    fam = make_family(Kind.CASE3, 1.0, 0.2)
    grid = build_grid(fam, 800)
    report = verify_all(fam, grid)
    assert list(report) == RESIDUAL_NAMES
    for name, entry in report.items():
        assert entry.tolerance == RESIDUAL_TOLERANCES[name][0]
        assert entry.passed == (entry.value <= entry.tolerance), name
    # at this resolution everything is inside the shipped tolerances
    assert all(e.passed for e in report.values())


@pytest.mark.parametrize("kind,lam,n_max", [
    (Kind.CASE3, 0.2, None), (Kind.CASE1, 0.3, None), (Kind.CASE1, 0.3, 2)])
def test_verify_all_samples_the_states_once(monkeypatch, kind, lam, n_max):
    # one pass over the left half and the centre: each block of ROWS rows,
    # with its two-row halo, evaluates every state and the bands of every
    # operator once, on either map
    from pdemosc import susy

    monkeypatch.setattr(susy, "ROWS", 256)
    fam = make_family(kind, 1.0, lam)
    grid = build_grid(fam, 800, n_max=n_max)
    count = bound_state_count(fam)
    count = 5 if count is None else min(5, count)
    calls = []

    def counted(name, fn, key=lambda *args: ()):
        # records (name, first node, node count, key): x is the last
        # positional argument
        def wrapper(*args, **kwargs):
            x = args[-1]
            calls.append((name, float(x[0]), len(x), *key(*args)))
            return fn(*args, **kwargs)
        return wrapper

    kinetic_bands = susy._kinetic_bands

    def counted_kinetic(g, frame, w, **kwargs):
        calls.append(("kinetic", len(frame.edges) - 2))
        return kinetic_bands(g, frame, w, **kwargs)
    monkeypatch.setattr(susy, "_kinetic_bands", counted_kinetic)
    monkeypatch.setattr(susy, "_states_at", counted(
        "states", susy._states_at, lambda f, k, x: (k,)))
    for name in ("potential_minus", "potential_plus", "potential_full",
                 "mass_at"):
        monkeypatch.setattr(susy, name, counted(name, getattr(susy, name)))
    monkeypatch.setattr(susy, "superpotential_at", counted(
        "superpotential_at", susy.superpotential_at, lambda f, a, x: (a,)))
    verify_all(fam, grid)

    expected = []
    # rows 0 … 399 of 800, the last block reading two rows past the centre
    for first, stop in [(0, 258), (254, 402)]:
        x0, m = grid.node(first + 1), stop - first
        expected += [("kinetic", m)]
        expected += [(name, x0, m) for name in (
            "potential_minus", "potential_plus", "potential_full")]
        # the masses at the midpoints (kinetic), and at the nodes for the
        # ladders' off-bands and for each of their two superpotentials
        expected += [("mass_at", grid.midpoint(first), m + 1)]
        expected += [("mass_at", x0, m)] * 3
        expected += [("superpotential_at", x0, m, fam.alpha0),
                     ("superpotential_at", x0, m, alpha_at(fam, 1)),
                     ("states", x0, m, count)]
    assert sorted(calls) == sorted(expected)


# === the whole-grid reference of verify_all ===
#
# verify_all as it ran before it walked the grid in blocks: every operator
# and state on the whole grid, in phases.  The block walk must reproduce
# it to rounding, and bit for bit on a grid of one block.  Each identity
# is linear in the state, so the states are H_n·φ₀, not normalized.  On a
# mapped grid they are taken by √w into the frame of the node weights w;
# on a uniform one w is h, which weighs both sums of a ratio alike and
# cancels, so no sum carries a weight.  verify_all walks the rows of the
# left half and the centre, and counts each with its mirror image; the
# reference sums those rows so (its mirror-half norms), or every row.

def _reference_scaled_sq_norm(v, centre=None):
    # the pair of v, or given `centre`, whether v's last entry is the
    # grid's centre row, that of v and its mirror image: each entry twice
    # and the centre once
    _, e = math.frexp(float(np.max(np.abs(v), initial=0.0)))
    u = np.ldexp(v, -e)
    if centre is None:
        return float(np.dot(u, u)), e
    body = u[:len(u) - centre]
    c = float(u[-1]) if centre else 0.0
    return 2.0 * float(np.dot(body, body)) + c * c, e


def reference_identities(fam, grid, magnitudes=False):
    """({name: (lhs, rhs, odd)}, states): both sides of each identity as
    whole-grid operators applied to a state, whether its operator is odd
    under x → −x, and the states H_n·φ₀ in the frame.  With `magnitudes`
    every entry and constant is taken by its absolute value and every
    difference is a sum: applied to |v|, both sides bound the products
    whose rounding each row of the residual carries."""
    count = bound_state_count(fam)
    states, _ = _reference_whole_grid_states(
        fam, 5 if count is None else min(5, count), grid)
    if grid.map:
        states = [v * np.sqrt(grid.weights()) for v in states]
    a0 = fam.alpha0
    ops = [Banded(off, diag, off)
           for diag, off in whole_grid_hamiltonians(fam, grid)]
    ops += [ladder(fam, a0, grid), ladder(fam, alpha_at(fam, 1), grid)]
    e0, r, minus = 0.5 * a0, remainder(fam, a0), -1.0
    if magnitudes:
        ops = [Banded(*map(np.abs, op)) for op in ops]
        r, minus = abs(r), 1.0
    h_minus, h_plus, h, a, a1 = ops
    ad, ad1 = a.transpose(), a1.transpose()
    return {
        "factorization": (lambda v: ad @ (a @ v),
                          lambda v: h @ v + minus * e0 * v, False),
        "annihilation": (lambda v: a @ v, lambda v: 0.0, True),
        "intertwine_minus": (lambda v: a @ (h_minus @ v),
                             lambda v: h_plus @ (a @ v), True),
        "intertwine_plus": (lambda v: ad @ (h_plus @ v),
                            lambda v: h_minus @ (ad @ v), True),
        "shift_identity": (lambda v: a @ (ad @ v),
                           lambda v: ad1 @ (a1 @ v) + r * v, False),
    }, states


def reference_residuals(fam, grid, whole=False):
    """verify_all's residuals from the whole-grid reference: over the rows
    verify_all walks, each with its mirror image, or over every row."""
    identities, states = reference_identities(fam, grid)
    n = grid.n
    half = n if whole else n - n // 2
    centre = None if whole else n % 2 == 1
    got = {"superalgebra_offdiag": 0.0}
    for name, (lhs, rhs, _) in identities.items():
        got[name] = 0.0
        for v in states[:1] if name == "annihilation" else states:
            res = (lhs(v) - rhs(v))[2:min(half, n - 2)]
            rr, er = _reference_scaled_sq_norm(res, centre)
            vv, ev = _reference_scaled_sq_norm(v[:half], centre)
            got[name] = max(got[name], math.ldexp(
                math.sqrt(rr) / math.sqrt(vv), er - ev))
    return got


@pytest.mark.parametrize("kind, alpha, lam, n_max", [
    (Kind.CASE1, 1.0, 0.1, None), (Kind.CASE1, 1.0, -0.3, None),
    (Kind.CASE1, 100.0, 10.0, None), (Kind.CASE1, 1.0, 0.3, 2),
])
def test_blocks_reproduce_the_whole_grid(monkeypatch, kind, alpha, lam, n_max):
    # the walk takes rows 0 … ⌈N/2⌉ − 1, whose block edges may fall
    # anywhere: ⌈N/2⌉ = k·ROWS + r for r = 0 … 3 and ROWS − 1, odd and
    # even N, on an unbounded domain, uniform and sinh-mapped, a compact
    # one and at a large alpha.  On an odd N the centre row is the last
    # row walked: the last of a full block (N = 73, 739, 813), or alone in
    # the last block (N = 741, 815), which reads the two rows past it.
    # Every block refills the rows of the first, so a last block of
    # ROWS − 1 rows (N = 811, 812) must not read a longer block's tail
    from pdemosc import susy

    fam = make_family(kind, alpha, lam)
    for n in (16, 73, 74, 739, 740, 741, 742, 744, 745, 811, 812, 813, 815):
        grid = build_grid(fam, n, n_max=n_max)
        want = reference_residuals(fam, grid)
        monkeypatch.setattr(susy, "ROWS", 37)
        got = {k: e.value for k, e in verify_all(fam, grid).items()}
        assert list(got) == RESIDUAL_NAMES
        if n - n // 2 <= 37:
            assert got == want, n
        for name in RESIDUAL_NAMES:
            assert got[name] == pytest.approx(want[name], rel=1e-13, abs=0.0), (
                n, name)
        monkeypatch.undo()
        # one block of the shipped size: bit for bit
        assert n - n // 2 <= susy.ROWS
        assert {k: e.value for k, e in
                verify_all(fam, grid).items()} == want, n


# the panel's families and the constant one, on verify's level box (sinh-
# mapped) and on the uniform ground-state box, at an even and an odd N
MIRROR_CASES = [(kind, lam, mapped, n)
                for kind, lam in [(Kind.CASE1, 0.1), (Kind.CASE2, 10.0),
                                  (Kind.CASE3, 0.2), (Kind.CONSTANT, 0.0)]
                for mapped in (True, False) for n in (4000, 4001)]


@pytest.mark.parametrize("kind, lam, mapped, n", MIRROR_CASES)
def test_whole_grid_residuals_mirror_row_for_row(kind, lam, mapped, n):
    # the premise of the half walk, on the independent reference: state k
    # mirrors bit for bit with sign (−1)^k, and each residual row for row
    # with that sign, flipped for an odd identity (A is odd under x → −x),
    # to within its rounding: |r_i ∓ r_{N−1−i}| ≤ 4ε·M, M the larger of
    # the two rows' magnitudes |L||v| + |R||v|.  The products of a row
    # and of its mirror add the same terms in another order (diag, then
    # lower, then upper), so they round apart: at most 1.33ε·M on these
    # cases and at N = 300, 20001 and 100000
    fam = make_family(kind, 1.0, lam)
    grid = build_grid(fam, n, n_max=susy.state_count(fam) - 1 if mapped else None)
    identities, states = reference_identities(fam, grid)
    magnitudes, _ = reference_identities(fam, grid, magnitudes=True)
    eps = np.finfo(float).eps
    for k, v in enumerate(states):
        assert np.array_equal(v[::-1], (-1) ** k * v), k
        for name, (lhs, rhs, odd) in identities.items():
            if name == "annihilation" and k:
                continue
            res = (lhs(v) - rhs(v))[2:-2]
            mag_lhs, mag_rhs, _ = magnitudes[name]
            m = (mag_lhs(np.abs(v)) + mag_rhs(np.abs(v)))[2:-2]
            sign = (-1) ** (k + odd)
            assert np.all(np.abs(res - sign * res[::-1])
                          <= 4 * eps * np.maximum(m, m[::-1])), (k, name)


@pytest.mark.parametrize("kind, lam, mapped, n", MIRROR_CASES + [
    (Kind.CASE3, 0.2, True, 100000), (Kind.CASE2, 15.0, True, 100000)])
def test_half_walk_reads_the_whole_grid(kind, lam, mapped, n):
    # verify_all's residuals against the reference's norms over every row:
    # the two halves' rows round apart, so the ratios agree to the relative
    # size of their rounding, which grows with N as the residuals sink to
    # item 4's roundoff floor.  Measured at most 2.4e−9 at N = 4000 and
    # 4001 (the constant family on its level box), 1.9e−5 at 16000 and
    # 1.02e−4 at 100000 (case2 λ 15)
    fam = make_family(kind, 1.0, lam)
    grid = build_grid(fam, n, n_max=susy.state_count(fam) - 1 if mapped else None)
    want = reference_residuals(fam, grid, whole=True)
    got = {k: e.value for k, e in verify_all(fam, grid).items()}
    bound = 5e-9 if n <= 4001 else 3e-4
    for name in RESIDUAL_NAMES:
        assert got[name] == pytest.approx(want[name], rel=bound, abs=0.0), name


def test_block_rows_replay_the_whole_grid_past_the_rescale():
    # past n = 150 on this box the recurrence divides by powers of two,
    # which each block of nodes chooses for itself; a division is exact,
    # so a block's rows are the whole grid's up to one power of two
    from pdemosc.susy import _states_at

    fam = make_family(Kind.CONSTANT, 1.0)
    grid = build_grid(fam, 2001)
    # each state is yielded in a row that the next overwrites
    whole = [(v.copy(), e) for v, e in
             _states_at(fam, 171, grid.node(np.arange(1, grid.n + 1)))]
    assert whole[-1][1] > 0
    for n in (0, 150, 170):
        v = whole[n][0]
        phi = v / math.sqrt(inner_product(v, v, grid))
        assert np.array_equal(phi, eigenfunction_samples(fam, n, grid))
    for lo, hi in [(0, 700), (650, 1400), (1390, 2001)]:
        rows = [(v.copy(), e) for v, e in
                _states_at(fam, 171, grid.node(np.arange(lo + 1, hi + 1)))]
        assert len(rows) == 171
        assert all(np.array_equal(np.ldexp(row, e - ew), v[lo:hi])
                   for (row, e), (v, ew) in zip(rows, whole)), (lo, hi)


def _reference_whole_grid_states(fam, count, grid):
    # the states H_n·φ₀ from one recurrence on the whole grid, which
    # chooses each division from the grid's own maxima as it goes
    from pdemosc import ground_state_unnormalized, unified_deformation

    q, x = unified_deformation(fam), grid.node(np.arange(1, grid.n + 1))
    zeta = math.sqrt(fam.profile.c * fam.alpha0) * x
    zeta_max = float(np.max(np.abs(zeta)))
    h_prev, h_cur = np.zeros_like(zeta), np.ones_like(zeta)
    top_prev, top = 0.0, 1.0
    hs, shifts = [h_cur], {}
    for m in range(count - 1):
        a, b = 2.0 - (2 * m + 1) * q, m * (2.0 - m * q)
        h_prev, h_cur = h_cur, a * zeta * h_cur - b * h_prev
        top_prev, top = top, abs(a) * zeta_max * top + abs(b) * top_prev
        if top > 2.0 ** 256:
            e = shifts[m] = math.frexp(float(np.max(np.abs(h_cur))))[1]
            h_prev, h_cur = np.ldexp(h_prev, -e), np.ldexp(h_cur, -e)
            top_prev, top = float(np.max(np.abs(h_prev))), 1.0
        hs.append(h_cur)
    g = ground_state_unnormalized(fam, x)
    return [h * g for h in hs], shifts


def test_states_divide_the_row_of_ones_at_the_first_step():
    # on (−1e77, 1e77) the recurrence's bound passes 2^256 at its first
    # step, so H_0, which _states_at keeps as a row of ones, is divided in
    # place with H_1, and the next degrees read it so: every state is the
    # whole-grid reference's bit for bit.  φ₀ underflows but at the centre
    # node, where the even levels are multiples of the divided H_0
    from pdemosc.grid import uniform_grid
    from pdemosc.susy import _states_at

    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = uniform_grid(1e77, 371)
    states, shifts = _reference_whole_grid_states(fam, 5, grid)
    assert min(shifts) == 0
    assert all(np.any(states[k]) for k in (0, 2, 4))
    got = _states_at(fam, 5, grid.node(np.arange(1, grid.n + 1)))
    for k, ((v, _), want) in enumerate(zip(got, states, strict=True)):
        assert np.array_equal(v, want), k


@pytest.mark.parametrize("kind, lam, n, hi", [
    (Kind.CASE3, 0.2, 407, None), (Kind.CASE1, -0.3, 408, None),
    (Kind.CONSTANT, 0.0, 1000, None),
    # on (−3e19, 3e19) the bound passes 2^256 at degree 4, on the whole
    # grid and on each end block; the middle blocks, where |ζ| < 1.1e19,
    # keep theirs below it and never divide
    (Kind.CASE1, 0.1, 371, 3e19),
])
def test_blocked_first_pass_is_the_whole_grid_pass(monkeypatch, kind, lam,
                                                   n, hi):
    # one whole-grid block is the whole-grid recurrence bit for bit, its
    # exponents the sums of the divisions so far; blocks of 37 rows (edges
    # anywhere, odd and even N) choose their own divisions and equal it up
    # to a power of two each; every normalized state is
    # eigenfunction_samples' bit for bit; and verify_all reproduces the
    # whole-grid residuals, bit for bit on one block
    from pdemosc import susy
    from pdemosc.susy import _states_at
    from pdemosc.grid import uniform_grid

    fam = make_family(kind, 1.0, lam)
    grid = build_grid(fam, n) if hi is None else uniform_grid(hi, n)
    count = min(5, bound_state_count(fam) or 5)
    states, shifts = _reference_whole_grid_states(fam, count, grid)
    assert bool(shifts) == (hi is not None) and min(shifts, default=0) < 4
    exponents = [sum(e for m, e in shifts.items() if m < k)
                 for k in range(count)]
    whole = [(v.copy(), e) for v, e in
             _states_at(fam, count, grid.node(np.arange(1, n + 1)))]
    assert [e for _, e in whole] == exponents
    assert all(np.array_equal(v, want)
               for (v, _), want in zip(whole, states, strict=True))
    divided = []
    for lo in range(0, n, 37):
        stop = min(lo + 37, n)
        got = _states_at(fam, count, grid.node(np.arange(lo + 1, stop + 1)))
        for k, ((v, e), want, ew) in enumerate(
                zip(got, states, exponents, strict=True)):
            assert np.array_equal(np.ldexp(v, e - ew), want[lo:stop]), (lo, k)
        divided.append(e > 0)
    assert (divided[0], divided[-1], all(divided)) == (bool(shifts),) * 2 + (False,)
    for k, v in enumerate(states):
        phi = v / math.sqrt(inner_product(v, v, grid))
        assert np.array_equal(phi, eigenfunction_samples(fam, k, grid)), k
    want = reference_residuals(fam, grid)
    assert n <= susy.ROWS
    assert {k: e.value for k, e in
            verify_all(fam, grid).items()} == want
    monkeypatch.setattr(susy, "ROWS", 37)
    got = {k: e.value for k, e in verify_all(fam, grid).items()}
    for name in RESIDUAL_NAMES:
        assert got[name] == pytest.approx(want[name], rel=1e-13, abs=0.0), name


def test_verify_all_holds_no_whole_grid_array():
    # one pass over blocks of rows, whose arrays are allocated once and
    # refilled: no array as long as the grid is made, and no block's
    # arrays outlive it, on a uniform grid and on a sinh-mapped one.  The
    # walk holds 13 rows of a block (14 on a mapped grid) and the
    # residuals' temporaries, each residual subtracted in place into one
    # of its products and freed before the next is formed: 18.3 and 19.2
    # rows, 0.60 and 0.63 MB at ROWS = 4096.  A residual kept alive while
    # the next is formed reads 19.2 and 20.3 rows, so a bound of 19 rows,
    # plus one for the mapped grid's extra row, sees it on both grids
    import tracemalloc

    from pdemosc import susy

    for kind, lam, n, mapped in [(Kind.CASE3, 0.3, 400000, False),
                                 (Kind.CASE2, 15.0, 100000, True)]:
        fam = make_family(kind, 1.0, lam)
        grid = build_grid(fam, n, n_max=susy.state_count(fam) - 1)
        assert bool(grid.map) == mapped
        tracemalloc.start()
        try:
            verify_all(fam, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = 19 + mapped
        assert peak < rows * 8 * (susy.ROWS + 2 * susy.HALO + 2), (kind, peak)


def test_verify_all_memory_does_not_grow_with_the_block_count(monkeypatch):
    # each block is folded into running sums, so 6, 55 and 217 blocks of
    # 37 rows (the half walk of N = 400, 4000 and 16000) hold the same
    # memory, about 14 KB traced
    import tracemalloc

    from pdemosc import susy

    monkeypatch.setattr(susy, "ROWS", 37)
    fam = make_family(Kind.CASE3, 1.0, 0.3)
    verify_all(fam, build_grid(fam, 400))  # a first call may fill caches
    peaks = []
    for n in (400, 4000, 16000):
        grid = build_grid(fam, n)
        tracemalloc.start()
        try:
            verify_all(fam, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) - peaks[0] < 2048, peaks


def test_a_state_that_samples_to_zero_is_refused():
    # on this box φ₀ underflows at every node but x = 0: an odd grid
    # resolves only the even states there, an even grid none of them.
    # verify_all and both samplers refuse the first level that is zero at
    # every node in one message, with no RuntimeWarning on the way
    import warnings

    from pdemosc.grid import uniform_grid
    from pdemosc.errors import InvalidCountError
    from pdemosc.sampling import eigenfunction_lists

    fam = make_family(Kind.CONSTANT, 1.0)
    for n, level in ((999, 1), (1000, 0)):
        grid = uniform_grid(1e40, n)
        messages = set()
        for call in (lambda: verify_all(fam, grid),
                     lambda: eigenfunction_lists(fam, 1, grid),
                     lambda: eigenfunction_samples(fam, level, grid)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidCountError) as refusal:
                    call()
            messages.add(str(refusal.value))
        assert len(messages) == 1, messages
        assert messages.pop().startswith(
            f"the grid does not resolve the bound states: level {level} ")


def test_overflow_refusal_names_the_first_operator_that_overflows(monkeypatch):
    # H₋ is refused before H₊, with H₋'s largest entry, though H₊'s larger
    # entries sit in the walk's first block, by the walls, and H₋'s NaN
    # and largest entry in later ones, by the centre (blocks of 300 rows
    # over the 1001 rows walked).  Each fault is even, as every closed
    # form is, so it falls on a row walked and on its mirror image
    from pdemosc import susy
    from pdemosc.errors import PdemError

    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = build_grid(fam, 2001)
    honest_minus, honest_plus = susy.potential_minus, susy.potential_plus

    def minus(f, a, x):
        v = honest_minus(f, a, x)
        return np.where(np.abs(x) < grid.node(1201), 3e160, v) + np.where(
            np.abs(x) == grid.node(1101), np.nan, 0.0)

    def plus(f, a, x):
        return np.where(np.abs(x) > grid.node(1901), 5e170,
                        honest_plus(f, a, x))
    monkeypatch.setattr(susy, "potential_minus", minus)
    monkeypatch.setattr(susy, "potential_plus", plus)
    with pytest.raises(PdemError) as want:
        whole_grid_hamiltonians(fam, grid)
    assert "3e+160" in str(want.value)
    monkeypatch.setattr(susy, "ROWS", 300)
    with pytest.raises(PdemError) as got:
        verify_all(fam, grid)
    assert str(got.value) == str(want.value)


def test_overflow_refusal_names_a_nan_alone(monkeypatch):
    # one NaN in H₋ and no entry that squares past a double: the refusal
    # names nan, not H₋'s largest number, on one block and on four; the
    # NaN is even, at a row of the walk's last block and its mirror image
    from pdemosc import susy
    from pdemosc.errors import PdemError

    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = build_grid(fam, 2001)
    honest_minus = susy.potential_minus

    def minus(f, a, x):
        return honest_minus(f, a, x) + np.where(
            np.abs(x) == grid.node(1101), np.nan, 0.0)
    monkeypatch.setattr(susy, "potential_minus", minus)
    with pytest.raises(PdemError) as want:
        whole_grid_hamiltonians(fam, grid)
    assert "overflows: its largest entry is nan," in str(want.value)
    monkeypatch.setattr(susy, "ROWS", 300)
    with pytest.raises(PdemError) as got:
        verify_all(fam, grid)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n", [100, 20001])
def test_overflow_refusal_names_inf_where_every_diagonal_is_nan(n):
    # s·x² = 1e300·x² overflows at every node, so each mass is 0: the
    # kinetic entries are inf and c·α²·x²/(1 + s x²) is inf/inf, so every
    # diagonal entry is NaN.  The largest number is the off-diagonal's inf,
    # on one block and merged over three
    fam = make_family(Kind.CASE1, 1e300, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidLambdaError,
                           match="overflows: its largest entry is inf,"):
            verify_all(fam, uniform_grid(1e10, n))


def test_tolerances_scale_as_alpha_powers():
    # at fixed q every residual is its alpha = 1 value times alpha^p, so the
    # verdicts at alpha = 100 are those at alpha = 1
    base = verify_all(make_family(Kind.CASE1, 1.0, 0.1),
                      build_grid(make_family(Kind.CASE1, 1.0, 0.1), 4000))
    fam = make_family(Kind.CASE1, 100.0, 10.0)
    report = verify_all(fam, build_grid(fam, 4000))
    for name, entry in report.items():
        tolerance, power = RESIDUAL_TOLERANCES[name]
        scale = 100.0 ** power
        assert entry.tolerance == tolerance * scale, name
        assert entry.value == pytest.approx(
            base[name].value * scale, rel=1e-6, abs=0.0), name
        assert entry.passed == base[name].passed, name
    assert report["superalgebra_offdiag"].tolerance == 0.0


@pytest.mark.parametrize("alpha", [1.0, 100.0])
@pytest.mark.parametrize("mutation", ["h-plus-both-sides", "perturbed-ladder",
                                      "scaled-remainder"])
def test_mutated_operators_fail_at_every_alpha(monkeypatch, mutation, alpha):
    # a wrong operator must FAIL however large alpha makes the tolerances,
    # on an unbounded domain, uniform and on the sinh-mapped level box
    # verify builds, and on a compact one (q = -0.045 for case3)
    from pdemosc import susy

    families = [make_family(Kind.CASE1, alpha, 0.1 * alpha),
                make_family(Kind.CASE3, alpha, 0.3 * math.sqrt(alpha))]
    # one block of rows, and several: the walk takes ⌈N/2⌉ rows
    assert 2000 <= susy.ROWS < 10001
    cases = [(fam, build_grid(fam, n)) for fam in families for n in (4000, 20001)]
    cases += [(families[0], build_grid(families[0], n, n_max=4))
              for n in (2000, 4000, 20001)]
    for fam, grid in cases:
        assert all(e.passed for e in verify_all(fam, grid).values())
    if mutation == "h-plus-both-sides":
        # A H+ = H+ A in place of A H- = H+ A
        monkeypatch.setattr(susy, "potential_minus", susy.potential_plus)
        failing = {"intertwine_minus", "intertwine_plus"}
    elif mutation == "scaled-remainder":
        # R(α) × 1.01 in the shift identity
        honest = susy.remainder
        monkeypatch.setattr(susy, "remainder",
                            lambda f, a: 1.01 * honest(f, a))
        failing = {"shift_identity"}
    else:
        # W at 1.01α
        honest = susy.superpotential_at
        monkeypatch.setattr(susy, "superpotential_at",
                            lambda f, a, x: 1.01 * honest(f, a, x))
        failing = {"annihilation", "factorization"}
    for fam, grid in cases:
        report = verify_all(fam, grid)
        failed = {n for n, e in report.items() if not e.passed}
        assert failed >= failing, (fam.profile, grid.n, failed)


def test_report_json_schema(tmp_path, capsys):
    # the CLI echoes the request; the library returns only the residuals
    requests = [("case1", "1", "0.1", 1000), ("constant", "2", "0", 501),
                ("case2", "1", "10", 800), ("case1", "1", "-0.0", 1000),
                ("case1", "2", "0.2", 300)]
    for k, (family, alpha, lam, n) in enumerate(requests):
        out_dir = tmp_path / str(k)
        code = run(["verify", "--family", family, "--alpha", alpha,
                    f"--lambda={lam}", "--grid-n", str(n),
                    "--output-dir", str(out_dir)])
        out, err = capsys.readouterr()
        assert err == ""
        # "-0" is the one JSON integer whose sign a Python int drops
        d = json.loads((out_dir / "verify.json").read_text(),
                       parse_int=lambda s: float(s) if s == "-0" else int(s))
        assert list(d) == ["family", "alpha", "lambda", "grid_n", "grid",
                           "residuals"]
        assert d["family"] == family and d["grid_n"] == n
        # the box and map verify chose, as spectrum reports them: the
        # sinh-mapped level box on an unbounded domain
        fam = make_family(Kind(family), float(alpha), float(lam))
        mapped = math.isinf(fam.profile.hi)
        assert list(d["grid"]) == ["lo", "hi", "n"] + ["map", "scale"] * mapped
        assert d["grid"]["n"] == n and d["grid"]["lo"] == -d["grid"]["hi"]
        assert d["grid"].get("map") == ("sinh" if mapped else None)
        assert float(d["alpha"]).hex() == float(alpha).hex()
        assert float(d["lambda"]).hex() == float(lam).hex()
        assert list(d["residuals"]) == RESIDUAL_NAMES
        lines = out.splitlines()
        assert lines[-1] == f"wrote {out_dir / 'verify.json'}"
        assert len(lines) == len(RESIDUAL_NAMES) + 1
        for line, (name, entry) in zip(lines, d["residuals"].items()):
            assert list(entry) == ["value", "tolerance", "pass"]
            status = "PASS" if entry["pass"] else "FAIL"
            assert line == (f"{name}: value={entry['value']:.17g} "
                            f"tolerance={entry['tolerance']:.17g} {status}")
        passed = all(e["pass"] for e in d["residuals"].values())
        assert code == (0 if passed else 3), (family, lam, n)


def test_annihilation_is_selective():
    # sanity of the measurement itself: A kills the ground state and nothing
    # else, so the same residual on the first excited state stays order one
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = build_grid(fam, 1200)
    a = ladder(fam, fam.alpha0, grid)

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
    residuals = verify_all(fam, grid)
    assert residuals["intertwine_minus"].value < 1e-3
    assert residuals["intertwine_plus"].value < 1e-3


def test_shift_identity_residual():
    fam = make_family(Kind.CASE2, 1.0, 10.0)
    grid = build_grid(fam, 2003)
    assert verify_all(fam, grid)["shift_identity"].value < 5e-3


def test_state_map_cosine():
    # A maps the (n+1)-th state of H_minus onto the n-th state of H_plus up
    # to a scalar; only the direction is asserted, since the discrete norm
    # differs from the continuum factor [E_n^(+)]^(-1/2) at O(h).  The
    # cosine between the mapped state and the n-th eigenvector of the
    # discrete H_plus is essentially 1 already at a thousand points
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = build_grid(fam, 1000)
    a = ladder(fam, fam.alpha0, grid)
    _, (diag, off), _ = whole_grid_hamiltonians(fam, grid)
    _, vectors = eigenpair_lists(TridiagonalOperator(diag, off), 4, grid.h)
    for n, v in enumerate(vectors):
        mapped = a @ eigenfunction_samples(fam, n + 1, grid)
        v = np.asarray(v)
        cosine = abs(float(np.dot(mapped, v))) / (
            float(np.linalg.norm(mapped)) * float(np.linalg.norm(v)))
        assert cosine >= 0.999, n


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
