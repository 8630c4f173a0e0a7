import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from pdemosc import (
    ConvergenceFailureError,
    Grid,
    InvalidCountError,
    InvalidLambdaError,
    Kind,
    LengthMismatchError,
    TridiagonalOperator,
    VonRoosOrdering,
    assemble_sturm_liouville,
    assemble_von_roos,
    build_grid,
    eigen_tridiagonal,
    energy,
    inner_product,
    make_family,
    run,
    uniform_grid,
    verify_all,
)
from pdemosc import discrete
from pdemosc.discrete import eigenvalue_list
from pdemosc.families import SYMMETRIC_ORDERING, masses_on, potentials_on


def random_tridiagonal(rng, n, scale=1.0):
    diag = np.array([rng.uniform(-scale, scale) for _ in range(n)])
    off = np.array([rng.uniform(-scale, scale) for _ in range(n - 1)])
    return TridiagonalOperator(diag=diag, offdiag=off)


def test_grid_layout():
    g = uniform_grid(1.0, 19)
    assert g.h == pytest.approx(2.0 / 20.0)
    assert g.hi == 1.0 and g.n == 19
    # a grid on (−hi, hi) is (hi, n, h, beta): no bound is stored twice,
    # and a uniform grid has the identity map, beta = 0
    assert g._fields == ("hi", "n", "h", "beta")
    assert g.beta == 0.0 and g.wall == g.hi
    xs = g.nodes()
    assert len(xs) == 19
    # interior nodes only: the Dirichlet endpoints are not sampled
    assert xs[0] == pytest.approx(-1.0 + g.h)
    assert xs[-1] == pytest.approx(1.0 - g.h)
    assert g.nodes(0) == [] and g.nodes(1) == [xs[0]]
    # a record with no per-instance dict: nothing is cached on a grid
    assert not hasattr(g, "__dict__")
    with pytest.raises(InvalidCountError):
        uniform_grid(1.0, 15)


@pytest.mark.parametrize("kind, lam", [
    (Kind.CASE1, 0.1), (Kind.CASE1, -0.25), (Kind.CASE2, 10.0),
    (Kind.CASE3, 0.2), (Kind.CONSTANT, 0.0),
])
@pytest.mark.parametrize("n", [4000, 4001])
def test_build_grid_nodes_mirror_bit_for_bit(kind, lam, n):
    grid = build_grid(make_family(kind, 1.0, lam), n)
    xs, mids = grid.nodes(), grid.midpoints(n + 1)
    assert xs == [-x for x in reversed(xs)]
    assert mids == [-x for x in reversed(mids)]
    assert xs[:7] == grid.nodes(7) and xs[0] == grid.node(1)
    # the numpy nodes come from the same IEEE operations
    assert grid.node(np.arange(1, n + 1)).tobytes() == np.array(xs).tobytes()


# the boxes (−hi, hi)
@pytest.mark.parametrize("hi", [1.0, 1.7, 0.35], ids=["box0", "box1", "box2"])
@pytest.mark.parametrize("n", [4000, 4001])
def test_numpy_nodes_are_the_float_nodes_bit_for_bit(hi, n):
    # odd and even N, whole grid and blocks
    grid = uniform_grid(hi, n)
    xs = grid.nodes()
    assert grid.node(np.arange(1, n + 1)).tobytes() == np.array(xs).tobytes()
    for lo, stop in [(0, 1), (17, 2048), (n - 5, n)]:
        assert (grid.node(np.arange(lo + 1, stop + 1)).tobytes()
                == np.array(xs[lo:stop]).tobytes())


@pytest.mark.parametrize("n", [4000, 4001])
def test_mapped_index_arrays_are_the_float_nodes_across_sinh_runs(n):
    # on a sinh-mapped grid Grid.node and Grid.midpoint take math.sinh
    # SINH_CHUNK entries at a time: runs of indices that end one before, on
    # and one after a chunk boundary give the float nodes and midpoints bit
    # for bit, in a fresh array and in the given `out`, from the first
    # index, an inner one and up to the last
    grid = build_grid(make_family(Kind.CASE1, 1.0, 0.1), n, n_max=9)
    assert grid.beta
    chunk = discrete.SINH_CHUNK
    assert 2 * chunk + 1 < n
    xs, mids = grid.nodes(), grid.midpoints(n + 1)
    out = np.empty(2 * chunk + 3)
    for length in (chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk,
                   2 * chunk + 1):
        for lo in (0, 17, n - length):
            want = np.array(xs[lo:lo + length]).tobytes()
            nodes = np.arange(lo + 1, lo + length + 1)
            assert grid.node(nodes).tobytes() == want, (length, lo)
            got = grid.node(nodes, out=out[:length])
            assert got.base is out and got.tobytes() == want, (length, lo)
            want = np.array(mids[lo + 1:lo + length + 1]).tobytes()
            midpoints = np.arange(lo + 1, lo + length + 1)
            assert grid.midpoint(midpoints).tobytes() == want, (length, lo)
            assert (grid.midpoint(midpoints, out=out[:length]).tobytes()
                    == want), (length, lo)


def full_stencil(fam, grid, ordering):
    """(diag, offdiag) of assemble_lists, from the two composition orders
    written out on every node, as a reference."""
    xs, mids = grid.nodes(), grid.midpoints(grid.n + 1)
    ms = masses_on(fam.profile, xs)
    w = discrete._powers(masses_on(fam.profile, mids), ordering.b)
    h2 = grid.h * grid.h
    win = [x / h2 for x in w[1:-1]]
    potential = potentials_on(fam, xs, ms)
    if ordering.a == 0.0 and ordering.c == 0.0:
        diag = [0.5 * (wl + wr) / h2 + v
                for wl, wr, v in zip(w, w[1:], potential)]
        return diag, [-0.125 * ((x + x) + (x + x)) for x in win]
    ma = discrete._powers(ms, ordering.a)
    mc = discrete._powers(ms, ordering.c)
    diag = [0.5 * a * c * (wl + wr) / h2 + v for a, c, wl, wr, v in
            zip(ma, mc, w, w[1:], potential)]
    off = [-0.125 * ((a0 * x * c1 + c0 * x * a1) + (a1 * x * c0 + c1 * x * a0))
           for a0, x, c1, c0, a1 in zip(ma, win, mc[1:], mc, ma[1:])]
    return diag, off


def _hex(xs):
    return [float.hex(x) for x in xs]


@pytest.mark.parametrize("kind, lam", [
    (Kind.CASE1, 0.1), (Kind.CASE2, 10.0), (Kind.CASE3, 0.2),
    (Kind.CONSTANT, 0.0),
], ids=["case1", "case2", "case3", "constant"])
@pytest.mark.parametrize("grid_of", [
    lambda fam: build_grid(fam, 600), lambda fam: build_grid(fam, 601),
    lambda fam: uniform_grid(3.5, 300),
    lambda fam: uniform_grid(3.5, 301),
    # (n+1)//2 rows in blocks of R = ROWS: R + 1 rows leave the last block
    # one row, with the centre coupling for an even n and none for an odd
    # one; 2R rows fill whole blocks; 2R + 1 rows and n//2 = 2R couplings
    lambda fam: build_grid(fam, 2 * discrete.ROWS + 1),
    lambda fam: uniform_grid(3.5, 2 * discrete.ROWS + 2),
    lambda fam: build_grid(fam, 4 * discrete.ROWS - 1),
    lambda fam: uniform_grid(3.5, 4 * discrete.ROWS),
    lambda fam: build_grid(fam, 4 * discrete.ROWS + 1),
    lambda fam: build_grid(fam, 3 * discrete.ROWS + 6),
], ids=["centred-even", "centred-odd", "uniform-even", "uniform-odd",
        "blocks-last-one-row-odd", "blocks-last-one-row-even",
        "blocks-whole-odd", "blocks-whole-even",
        "blocks-couplings-whole-odd", "blocks-partial-even"])
def test_stencil_matches_the_composition_orders_written_out(kind, lam, grid_of):
    # _stencil sums both composition orders of each coupling on the left
    # half, a block of rows at a time: the bands are bit for bit those
    # written out here on every node, on build_grid's boxes and others, in
    # one block or several
    fam = make_family(kind, 1.3, lam)
    grid = grid_of(fam)
    for abc in [(0.0, -1.0, 0.0), (-0.5, 0.0, -0.5), (0.0, 0.0, -1.0),
                (-1.0, 0.0, 0.0), (0.5, -1.0, -0.5), (-0.7, -0.2, -0.1)]:
        ordering = VonRoosOrdering(*abc)
        T = discrete.assemble_lists(fam, grid, ordering)
        diag, off = full_stencil(fam, grid, ordering)
        assert _hex(T.diag) == _hex(diag), abc
        assert _hex(T.offdiag) == _hex(off), abc


def test_stencil_refuses_a_mass_that_underflows():
    # s·x² = 1e300·x² overflows at every node of (−1e10, 1e10), so the
    # case1 mass is 0 and 1/m fails; on (−1e−170, 1e−170) the spacing
    # squares to 0 and 1/h² fails.  Both stencils refuse either as an
    # overflow, with no warning on the way
    import warnings

    for fam, grid in ((make_family(Kind.CASE1, 1e300, 1e300), uniform_grid(1e10, 100)),
                      (make_family(Kind.CONSTANT, 1.0), uniform_grid(1e-170, 20))):
        for call in (discrete.assemble_lists, verify_all):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidLambdaError, match="overflows"):
                    call(fam, grid)


def test_grids_refuse_a_count_that_is_not_an_integer():
    # a float count would fail later in range(), as a TypeError
    for fam in (make_family(Kind.CASE1, 1.0, 0.1),
                make_family(Kind.CASE3, 1.0, 0.2)):
        for n in (4000.0, 16.5, "4000", None):
            with pytest.raises(InvalidCountError, match="integer count"):
                uniform_grid(1.0, n)
            with pytest.raises(InvalidCountError, match="integer count"):
                build_grid(fam, n)
    assert uniform_grid(1.0, np.int64(20)).nodes() == uniform_grid(1.0, 20).nodes()


def test_uniform_grid_refuses_a_half_width_it_cannot_lay_out():
    # a width 2·hi that is not a positive double would give NaN nodes or
    # an infinite spacing, and one whose spacing rounds to 0 a zero one,
    # which surface later as misleading refusals
    for hi in (0.0, -0.0, -1.0, math.inf, math.nan, 1e308, -1e-300,
               5e-324, 2e-323):
        with pytest.raises(ValueError, match="half-width"):
            uniform_grid(hi, 20)
    widest = uniform_grid(sys.float_info.max / 2, 20)
    assert math.isfinite(widest.h) and widest.nodes()[0] > -widest.hi


@settings(deadline=None, max_examples=100)
@given(st.floats(5e-324, sys.float_info.max / 2), st.integers(16, 5000),
       st.data())
def test_every_grid_mirrors_and_its_blocks_are_its_nodes(hi, n, data):
    # node n+1−i is −(node i) and midpoint n−i is −(midpoint i) bit for
    # bit, a centre entry is +0.0, and an index array slices the nodes; a
    # half-width whose spacing rounds to 0 lays out no grid and is refused
    if (hi + hi) / (n + 1) == 0.0:
        with pytest.raises(ValueError, match="half-width"):
            uniform_grid(hi, n)
        return
    grid = uniform_grid(hi, n)
    for v in (grid.nodes(), grid.midpoints(n + 1)):
        k = len(v) // 2
        assert _hex(v[:k]) == _hex([-x for x in v[::-1][:k]])
        assert len(v) % 2 == 0 or v[k].hex() == "0x0.0p+0"
    xs = np.array(grid.nodes())
    lo = data.draw(st.integers(0, n - 1))
    stop = data.draw(st.integers(lo + 1, n))
    assert (grid.node(np.arange(lo + 1, stop + 1)).tobytes()
            == xs[lo:stop].tobytes())
    assert grid.node(np.arange(1, n + 1)).tobytes() == xs.tobytes()


@pytest.mark.parametrize("kind, lam", [
    (Kind.CASE1, 0.1), (Kind.CASE1, -0.25), (Kind.CASE2, 10.0),
    (Kind.CASE2, -5.0), (Kind.CASE3, 0.2), (Kind.CONSTANT, 0.0),
], ids=["case1", "case1-compact", "case2", "case2-compact", "case3", "constant"])
@pytest.mark.parametrize("n", [600, 601])
def test_half_assembly_equals_full_evaluation(kind, lam, n):
    fam = make_family(kind, 1.3, lam)
    grid = build_grid(fam, n)
    for ordering in (SYMMETRIC_ORDERING, VonRoosOrdering(-0.5, 0.0, -0.5),
                     VonRoosOrdering(-0.7, -0.2, -0.1)):
        T = discrete.assemble_lists(fam, grid, ordering)
        diag, off = full_stencil(fam, grid, ordering)
        assert _hex(T.diag) == _hex(diag)
        assert _hex(T.offdiag) == _hex(off)
        assert T.diag == T.diag[::-1] and T.offdiag == T.offdiag[::-1]
        assert len(discrete._prepared(T, 1)[0]) == 2  # split into parity blocks


def test_build_grid_gaussian_tail():
    # constant mass: |phi_0| = exp(-alpha x^2 / 2) crosses 1e-12 near 7.43
    fam = make_family(Kind.CONSTANT, 1.0)
    g = build_grid(fam, 100)
    assert g.hi == pytest.approx(math.sqrt(-2.0 * math.log(1e-12)), rel=1e-6)


def test_build_grid_takes_the_gaussian_box_where_s_times_u_underflows():
    # s·u = 1e-300·2.8e-99 underflows to 0, where expm1(s·u)/s would give
    # an empty box; to working precision the box is the Gaussian one
    for alpha in (1e100, 1e300):
        tiny = build_grid(make_family(Kind.CASE1, alpha, 1e-300), 400)
        assert tiny == build_grid(make_family(Kind.CONSTANT, alpha), 400)


def test_build_grid_compact_support():
    fam = make_family(Kind.CASE3, 1.0, 0.2)
    g = build_grid(fam, 100)
    assert g.hi == pytest.approx(5.0)
    assert -g.hi == pytest.approx(-5.0)
    fam = make_family(Kind.CASE1, 1.0, -0.25)
    g = build_grid(fam, 100)
    assert g.hi == pytest.approx(2.0)


def test_build_grid_respects_tail_tolerance():
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    wide = build_grid(fam, 64, tail_tolerance=1e-12)
    narrow = build_grid(fam, 64, tail_tolerance=1e-6)
    assert narrow.hi < wide.hi
    with pytest.raises(ValueError):
        build_grid(fam, 64, tail_tolerance=1e-3)  # too loose to trust
    with pytest.raises(ValueError):
        build_grid(fam, 64, tail_tolerance=0.0)


def test_laplacian_3x3_exact():
    T = TridiagonalOperator(diag=np.array([2.0, 2.0, 2.0]), offdiag=np.array([-1.0, -1.0]))
    sol = eigen_tridiagonal(T, 3)
    want = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
    assert np.allclose(sol.eigenvalues, want, atol=1e-12)


def test_harmonic_oscillator_levels():
    fam = make_family(Kind.CONSTANT, 1.0)
    grid = build_grid(fam, 2000)
    T = assemble_sturm_liouville(fam, grid)
    sol = eigen_tridiagonal(T, 3, grid.h)
    assert np.allclose(sol.eigenvalues, [0.5, 1.5, 2.5], atol=1e-4)


def test_sturm_liouville_symmetry_is_exact():
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = build_grid(fam, 500)
    T = assemble_sturm_liouville(fam, grid)
    # one offdiag array serves both triangles, so symmetry is structural;
    # assert the assembly used the shared midpoint values
    mids = -grid.hi + grid.h * (np.arange(grid.n + 1) + 0.5)
    p = 0.5 * (1.0 + 0.1 * mids * mids)
    assert np.allclose(T.offdiag, -p[1:-1] / grid.h ** 2, rtol=1e-14)
    assert len(T.diag) == grid.n and len(T.offdiag) == grid.n - 1


def test_symmetric_ordering_equals_sturm_liouville():
    # (0,-1,0) composes to the conservative stencil entry by entry; the only
    # daylight is pow(m,-1) versus 1/(2m), about one ulp
    for kind, alpha, lam in [(Kind.CASE1, 1.0, 0.3), (Kind.CASE3, 1.0, 0.2)]:
        fam = make_family(kind, alpha, lam)
        grid = build_grid(fam, 300, tail_tolerance=1e-6)
        A = assemble_sturm_liouville(fam, grid)
        B = assemble_von_roos(fam, SYMMETRIC_ORDERING, grid)
        assert np.allclose(A.diag, B.diag, rtol=1e-13, atol=0.0)
        assert np.allclose(A.offdiag, B.offdiag, rtol=1e-13, atol=0.0)


def test_von_roos_orderings_disagree_off_symmetric():
    # the (-1/2, 0, -1/2) arrangement shifts the spectrum visibly once the
    # deformation is strong
    fam = make_family(Kind.CASE1, 1.0, 0.3)
    grid = build_grid(fam, 1000, tail_tolerance=1e-6)
    bk = VonRoosOrdering(-0.5, 0.0, -0.5)
    T_sym = assemble_von_roos(fam, SYMMETRIC_ORDERING, grid)
    T_bk = assemble_von_roos(fam, bk, grid)
    e_sym = eigen_tridiagonal(T_sym, 1, grid.h).eigenvalues[0]
    e_bk = eigen_tridiagonal(T_bk, 1, grid.h).eigenvalues[0]
    disc_err = abs(e_sym - energy(fam, 0))
    assert abs(e_bk - e_sym) > 10.0 * disc_err


def test_ordering_constraint_enforced():
    from pdemosc import ConstraintViolatedError

    with pytest.raises(ConstraintViolatedError):
        VonRoosOrdering(0.0, -0.5, 0.0)  # a+b+c must be -1


def test_eigen_against_scipy_random():
    rng = random.Random(42)
    for trial in range(4):
        n = rng.randrange(24, 60)
        T = random_tridiagonal(rng, n, scale=2.0)
        sol = eigen_tridiagonal(T, n)
        ref_vals, ref_vecs = scipy.linalg.eigh_tridiagonal(T.diag, T.offdiag)
        scale = max(1.0, float(np.max(np.abs(T.diag))) + 2.0 * float(np.max(np.abs(T.offdiag))))
        assert np.allclose(sol.eigenvalues, ref_vals, atol=1e-10 * scale), trial
        for j in range(n):
            overlap = abs(np.dot(sol.eigenvectors[j], ref_vecs[:, j]))
            assert overlap == pytest.approx(1.0, abs=1e-7), (trial, j)


def test_eigen_against_scipy_on_oscillator():
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = build_grid(fam, 800)
    T = assemble_sturm_liouville(fam, grid)
    sol = eigen_tridiagonal(T, 6, grid.h)
    ref = scipy.linalg.eigh_tridiagonal(T.diag, T.offdiag, select="i", select_range=(0, 5))[0]
    assert np.allclose(sol.eigenvalues, ref, atol=1e-9)


def test_eigenvalues_sorted_and_counted():
    # Sturm-sequence bisection never misses or reorders an eigenvalue
    rng = random.Random(9)
    T = random_tridiagonal(rng, 40)
    sol = eigen_tridiagonal(T, 40)
    assert np.all(np.diff(sol.eigenvalues) >= -1e-14)
    ref = scipy.linalg.eigvalsh_tridiagonal(T.diag, T.offdiag)
    for sigma in np.linspace(min(ref) - 0.1, max(ref) + 0.1, 17):
        assert np.sum(sol.eigenvalues < sigma) == np.sum(ref < sigma)


def test_eigenvector_residuals_and_gram():
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = build_grid(fam, 1200)
    T = assemble_sturm_liouville(fam, grid)
    k = 8
    sol = eigen_tridiagonal(T, k, grid.h)
    scale = float(np.max(np.abs(T.diag))) + 2.0 * float(np.max(np.abs(T.offdiag)))
    for j in range(k):
        v = sol.eigenvectors[j]
        tv = T.diag * v
        tv[:-1] += T.offdiag * v[1:]
        tv[1:] += T.offdiag * v[:-1]
        r = np.linalg.norm(tv - sol.eigenvalues[j] * v) / np.linalg.norm(v)
        assert r <= 1e-10 * max(1.0, scale), j
        # quadrature normalization
        assert inner_product(v, v, grid) == pytest.approx(1.0, rel=1e-12)
    gram = grid.h * (sol.eigenvectors @ sol.eigenvectors.T)
    assert np.max(np.abs(gram - np.eye(k))) < 1e-8


def test_eigenvectors_oscillate():
    fam = make_family(Kind.CASE2, 1.0, 10.0)
    grid = build_grid(fam, 900)
    T = assemble_sturm_liouville(fam, grid)
    sol = eigen_tridiagonal(T, 5, grid.h)
    for j in range(5):
        v = sol.eigenvectors[j]
        body = v[np.abs(v) > 1e-5 * np.max(np.abs(v))]
        assert int(np.sum(body[1:] * body[:-1] < 0)) == j


def test_second_order_convergence():
    # halving h (n -> 2n+1 keeps the endpoints) divides the eigenvalue error
    # by four, up to higher-order terms
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    errors = []
    for n in (500, 1001, 2003):
        grid = build_grid(fam, n)
        T = assemble_sturm_liouville(fam, grid)
        sol = eigen_tridiagonal(T, 3, grid.h)
        errors.append(max(abs(sol.eigenvalues[j] - energy(fam, j)) for j in range(3)))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 < coarse / fine < 4.5


def test_domain_doubling_changes_nothing():
    # with the tail pinned at 1e-12 the box truncation error is far below the
    # h^2 discretization error: doubling the box at fixed h moves E_0 by noise
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = build_grid(fam, 700)
    T = assemble_sturm_liouville(fam, grid)
    e_base = eigen_tridiagonal(T, 1, grid.h).eigenvalues[0]
    doubled = uniform_grid(2.0 * grid.hi, 2 * grid.n + 1)
    assert doubled.h == pytest.approx(grid.h, rel=1e-12)
    T2 = assemble_sturm_liouville(fam, doubled)
    e_doubled = eigen_tridiagonal(T2, 1, doubled.h).eigenvalues[0]
    disc_err = abs(e_base - energy(fam, 0))
    assert abs(e_doubled - e_base) < 1e-2 * disc_err


def test_eigen_validates_requests():
    T = TridiagonalOperator(diag=np.zeros(8), offdiag=-np.ones(7))
    with pytest.raises(InvalidCountError):
        eigen_tridiagonal(T, 0)
    with pytest.raises(InvalidCountError):
        eigen_tridiagonal(T, 9)


def test_inner_product_checks_lengths():
    g = uniform_grid(1.0, 20)
    with pytest.raises(LengthMismatchError):
        inner_product(np.zeros(20), np.zeros(19), g)


def test_inner_product_is_trapezoid_quadrature():
    g = uniform_grid(0.5, 99)
    f = np.cos(math.pi * np.array(g.nodes()))
    # int cos^2(pi x) dx over (-1/2, 1/2) is 1/2; the integrand vanishes at
    # both endpoints
    assert inner_product(f, f, g) == pytest.approx(0.5, abs=1e-4)


def inf_norm(T):
    row = np.abs(T.diag)
    row[1:] += np.abs(T.offdiag)
    row[:-1] += np.abs(T.offdiag)
    return float(np.max(row))


def assert_certified(T, k):
    """Ascending, within tol of LAPACK, and the same counts below every shift."""
    tol = 1e-12 * max(1.0, inf_norm(T))
    got = eigenvalue_list(T, k)
    ref = scipy.linalg.eigvalsh_tridiagonal(T.diag, T.offdiag)[:k]
    assert np.all(np.diff(got) >= 0.0)
    assert np.max(np.abs(got - ref)) <= tol
    # shifts between clusters farther apart than the tolerance, and outside
    gaps = np.flatnonzero(np.diff(ref) > 4.0 * tol)
    shifts = np.concatenate([[ref[0] - 1.0, ref[-1] + 1.0],
                             0.5 * (ref[gaps] + ref[gaps + 1])])
    for sigma in shifts:
        assert np.sum(got < sigma) == np.sum(ref < sigma), sigma


def test_degenerate_diagonal_spectrum():
    # zero coupling and repeated entries: Sturm counts jump by the
    # multiplicity, so no bracket ever holds a single eigenvalue
    diag = np.array([2.0, 0.0, 1.0, 2.0, 1.0, 2.0, 3.0, 1.0, 0.0, 2.0, -1.0, 3.0])
    T = TridiagonalOperator(diag=diag, offdiag=np.zeros(len(diag) - 1))
    for k in range(1, len(diag) + 1):
        assert_certified(T, k)
    # after each exact pair the last difference is 0, so the next level's
    # upper-edge search starts from the 64·tol floor of its window
    T = TridiagonalOperator(diag=np.array([5.0, 0.0, 40.0, 0.0, 5.0]),
                            offdiag=np.zeros(4))
    assert_certified(T, 5)


def test_wilkinson_w21_plus():
    # the top eigenvalues of W21+ come in pairs that agree to about 1e-14
    diag = np.abs(np.arange(-10, 11)).astype(float)
    T = TridiagonalOperator(diag=diag, offdiag=np.ones(20))
    ref = scipy.linalg.eigvalsh_tridiagonal(T.diag, T.offdiag)
    assert ref[-1] - ref[-2] < 1e-12
    for k in (1, 2, 15, 19, 20, 21):
        assert_certified(T, k)


def glued(diag, copies):
    """`copies` copies of the unit-coupled (diag, 1, …, 1), each coupled to
    the next by 1e−10."""
    off = np.concatenate([np.append(np.ones(len(diag) - 1), 1e-10)] * copies)
    return TridiagonalOperator(np.tile(diag, copies), off[:-1])


def assert_orthonormal_eigenpairs(T, sol):
    """Every residual within 1e−10‖T‖∞ and the Gram matrix within 1e−12 of I."""
    V = sol.eigenvectors
    tv = T.diag * V
    tv[:, :-1] += T.offdiag * V[:, 1:]
    tv[:, 1:] += T.offdiag * V[:, :-1]
    resid = np.max(np.abs(tv - sol.eigenvalues[:, None] * V), axis=1)
    assert np.all(resid <= 1e-10 * inf_norm(T)), np.max(resid) / inf_norm(T)
    assert np.max(np.abs(V @ V.T - np.eye(len(T.diag)))) <= 1e-12


def eigenvector_stress_set(name):
    """Operators whose eigenvectors stress a twisted factorization."""
    w21, w41 = (np.abs(np.arange(-m, m + 1)).astype(float) for m in (10, 20))
    if name == "w21":
        return [TridiagonalOperator(w21, np.ones(20))]
    if name == "w21-mirror":  # negative couplings: solved as parity blocks
        return [TridiagonalOperator(w21, -np.ones(20))]
    if name == "w41":
        return [TridiagonalOperator(w41, np.ones(40))]
    if name == "w21-glued":  # five copies: every level is five within 1e−10
        return [glued(w21, 5)]
    if name == "zero":
        return [TridiagonalOperator(np.zeros(20), np.zeros(19))]
    rng = random.Random(name)
    ops = []
    for _ in range(60):
        n = rng.randint(2, 80)
        if name == "zero-couplings":
            diag = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            off = [rng.choice([0.0, rng.uniform(-1.0, 1.0)]) for _ in range(n - 1)]
        else:  # near-multiple clusters
            diag = [rng.choice([0.0, 1.0, 1.0 + 1e-13, 2.0]) for _ in range(n)]
            off = [rng.choice([0.0, 1e-14, 1e-3]) for _ in range(n - 1)]
        ops.append(TridiagonalOperator(np.array(diag), np.array(off)))
    return ops


@pytest.mark.parametrize("name", ["w21", "w21-mirror", "w41", "w21-glued",
                                  "zero-couplings", "clusters", "zero"])
def test_eigenvectors_of_the_stress_set(name):
    # every level of each operator: residual and Gram at roundoff, and
    # LAPACK's vector wherever the level is separated from its neighbours
    for T in eigenvector_stress_set(name):
        n, norm = len(T.diag), inf_norm(T)
        sol = eigen_tridiagonal(T, n)
        assert_orthonormal_eigenpairs(T, sol)
        V = sol.eigenvectors
        values, vectors = scipy.linalg.eigh_tridiagonal(T.diag, T.offdiag)
        gaps = np.diff(np.concatenate([[-np.inf], values, [np.inf]]))
        for j in np.flatnonzero(np.minimum(gaps[:-1], gaps[1:]) > 1e-6 * norm):
            assert abs(V[j] @ vectors[:, j]) >= 1.0 - 1e-7, j


@pytest.mark.parametrize("m, copies", [(10, 5), (10, 7), (10, 9), (20, 5)],
                         ids=["w21x5", "w21x7", "w21x9", "w41x5"])
def test_glued_wilkinson_matrices_are_solved(m, copies):
    # every level of W(2m+1) glued `copies` times is that many levels
    # within 1e−10; a retry projected once keeps the roundoff of the part
    # removed, and stagnated from W21×7 and W41×5 on
    T = glued(np.abs(np.arange(-m, m + 1)).astype(float), copies)
    assert_orthonormal_eigenpairs(T, eigen_tridiagonal(T, len(T.diag)))


def two_well(n, curvature):
    """−½ d²/dx² + min((x − 5)², curvature·(x + 5)²)/2 on (−12, 12)."""
    x = np.linspace(-12.0, 12.0, n + 2)[1:-1]
    h = x[1] - x[0]
    v = 0.5 * np.minimum((x - 5.0) ** 2, curvature * (x + 5.0) ** 2)
    return TridiagonalOperator(diag=1.0 / h ** 2 + v,
                               offdiag=np.full(n - 1, -0.5 / h ** 2))


@pytest.mark.parametrize("curvature", [2.0, 1.0], ids=["interleaved", "paired"])
def test_two_well_spectrum_is_certified(curvature):
    # curvature 2 interleaves the ladders (n + ½) and √2(m + ½), so the levels
    # are far from quadratic in the index; equal wells split their lowest
    # levels by less than tol
    T = two_well(1500, curvature)
    ref = scipy.linalg.eigvalsh_tridiagonal(T.diag, T.offdiag)[:20]
    assert (np.min(np.diff(ref)) > 0.03) == (curvature == 2.0)
    for k in (3, 4, 20):
        assert_certified(T, k)


def test_certification_is_scale_free():
    # a power-of-two scale commutes with every rounding, so 2^−400·T has the
    # eigenvalues of T scaled and the same eigenvectors, bit for bit
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = build_grid(fam, 1000)
    T = assemble_sturm_liouville(fam, grid)
    small = TridiagonalOperator(np.ldexp(T.diag, -400), np.ldexp(T.offdiag, -400))
    want = eigen_tridiagonal(T, 6, grid.h)
    got = eigen_tridiagonal(small, 6, grid.h)
    assert np.ldexp(want.eigenvalues, -400).tobytes() == got.eigenvalues.tobytes()
    assert want.eigenvectors.tobytes() == got.eigenvectors.tobytes()
    assert_certified(small, 6)


def test_operator_whose_squares_underflow_is_refused():
    # entries near 2^−520 square below the smallest normal double
    tiny = TridiagonalOperator(diag=np.ldexp(np.full(20, 2.0), -520),
                               offdiag=np.ldexp(np.full(19, -1.0), -520))
    with pytest.raises(InvalidLambdaError, match="underflows"):
        eigenvalue_list(tiny, 1)
    with pytest.raises(InvalidLambdaError, match="underflows"):
        eigen_tridiagonal(tiny, 1)


def test_zero_operator_has_exact_zero_eigenvalues():
    zero = TridiagonalOperator(diag=np.zeros(20), offdiag=np.zeros(19))
    assert eigenvalue_list(zero, 5) == [0.0] * 5
    sol = eigen_tridiagonal(zero, 5, 0.5)
    assert sol.eigenvalues.tolist() == [0.0] * 5
    assert np.allclose(0.5 * sol.eigenvectors @ sol.eigenvectors.T, np.eye(5),
                       rtol=0.0, atol=1e-12)


def test_operator_at_the_top_of_the_double_range():
    # ‖T‖∞ at and near the largest double: no midpoint, Gershgorin edge or
    # start vector may overflow
    top = np.finfo(float).max
    for peak in (1e308, top):
        diag = np.array([0.75, -1.0, 0.25, 1.0]) * peak
        T = TridiagonalOperator(diag=diag, offdiag=np.zeros(3))
        sol = eigen_tridiagonal(T, 4)
        assert np.all(np.abs(sol.eigenvalues - np.sort(diag)) <= 1e-12 * peak)
        assert np.allclose(sol.eigenvectors, np.eye(4)[[1, 2, 0, 3]],
                           rtol=0.0, atol=1e-12)


def test_rejected_first_solve_is_iterated(monkeypatch):
    # a first iterate at the wall barely overlaps the low states, so it
    # fails the residual check and the seeded draw is solved instead
    fam = make_family(Kind.CONSTANT, 1.0)
    grid = build_grid(fam, 400)
    T = assemble_sturm_liouville(fam, grid)
    want = eigen_tridiagonal(T, 4, grid.h)
    solve, solves = discrete._twisted_solve, []

    def solve_counted(diag, off, sigma, pivmin, rhs=None):
        if rhs is None:
            return [1.0] + [0.0] * (len(diag) - 1)
        solves.append(1)
        return solve(diag, off, sigma, pivmin, rhs)

    monkeypatch.setattr(discrete, "_twisted_solve", solve_counted)
    got = eigen_tridiagonal(T, 4, grid.h)
    assert len(solves) >= 4  # a retry for every level
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    # the mirror peaks of an odd state tie exactly, so the right one fixes
    # its sign whatever the first iterate
    assert np.max(np.abs(want.eigenvectors - got.eigenvectors)) < 1e-10


def twisted_reference(diag, off, sigma, pivmin):
    """(r, z): the twist of T − σI and the z with z_r = 1 and
    (T − σI)z = γ_r e_r, by the recurrence z_i = −(o_i/D_i)·z_{i+1} above r
    and z_i = −(o_{i−1}/R_i)·z_{i−1} below it, on pivots written out."""
    n = len(diag)

    def pivot(a, b, p):
        d = a - sigma - b * b / p
        return -pivmin if -pivmin < d < pivmin else d

    D = [pivot(diag[0], 0.0, 1.0)]
    for i in range(1, n):
        D.append(pivot(diag[i], off[i - 1], D[-1]))
    R, gamma = [pivot(diag[-1], 0.0, 1.0)], [D[-1]]
    for i in range(n - 2, -1, -1):
        gamma.insert(0, D[i] - off[i] * off[i] / R[0])
        R.insert(0, pivot(diag[i], off[i], R[0]))
    # the last row of least |γ_i|
    r = max(range(n), key=lambda i: (-abs(gamma[i]), i))
    z = [0.0] * n
    z[r] = 1.0
    for i in range(r - 1, -1, -1):
        z[i] = -(off[i] / D[i]) * z[i + 1]
    for i in range(r + 1, n):
        z[i] = -(off[i - 1] / R[i]) * z[i - 1]
    return r, z


def test_twisted_solve_of_gamma_e_r_is_the_recurrence():
    # without a right-hand side the solve is that of γ_r e_r, whose
    # eliminations are empty: x_i/D_i − (o_i/D_i)·x_{i+1} at x_i = 0 is
    # the recurrence bit for bit, at a shift on an eigenvalue or anywhere
    rng = random.Random(34)
    for _ in range(300):
        n = rng.randint(1, 80)
        diag = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        off = [rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 1.0)
               for _ in range(n - 1)]
        T = TridiagonalOperator(diag, off)
        pivmin = 2.2e-16 * inf_norm(T)
        for sigma in (eigenvalue_list(T, rng.randint(1, n))[-1],
                      rng.uniform(-2.0, 2.0)):
            r, z = twisted_reference(diag, off, sigma, pivmin)
            x = discrete._twisted_solve(diag, off, sigma, pivmin)
            assert x[r] == 1.0
            assert list(map(float.hex, x)) == list(map(float.hex, z))


def test_twisted_solve_of_a_right_hand_side_is_backward_stable():
    # at a shift on an eigenvalue, as inverse iteration takes it, the
    # residual of a solve is a few roundoffs of ‖T‖∞·‖x‖∞ (2.2 at most
    # over 2000 such draws), though x is about 1/ε in size
    rng = random.Random(3401)
    eps = sys.float_info.epsilon
    for _ in range(300):
        n = rng.randint(1, 80)
        diag = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        off = [rng.uniform(-1.0, 1.0) for _ in range(n - 1)]
        T = TridiagonalOperator(diag, off)
        norm = inf_norm(T)
        sigma = eigenvalue_list(T, rng.randint(1, n))[-1]
        rhs = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        x = discrete._twisted_solve(diag, off, sigma, 2.2e-16 * norm, rhs)
        residual = max(abs((diag[i] - sigma) * x[i]
                           + (off[i - 1] * x[i - 1] if i else 0.0)
                           + (off[i] * x[i + 1] if i < n - 1 else 0.0)
                           - rhs[i]) for i in range(n))
        assert residual <= 8.0 * eps * norm * max(map(abs, x))


def test_eigen_refuses_bands_of_the_wrong_lengths():
    # a coupling list that is empty, or as long as the diagonal, is refused
    # before any pass, not solved with a coupling dropped
    for off in ([], [-1.0, -2.0], [-1.0, -2.0, -3.0]):
        T = TridiagonalOperator([1.0, 2.0], off)
        with pytest.raises(LengthMismatchError, match="needs 1 couplings, got"):
            eigenvalue_list(T, 1)
        with pytest.raises(LengthMismatchError, match="needs 1 couplings, got"):
            eigen_tridiagonal(T, 1)
    # node weights are one scalar or one per row
    T = TridiagonalOperator([1.0, 2.0], [-1.0])
    for weights in ([], [1.0], [1.0, 1.0, 1.0]):
        for call in (discrete.eigenpair_lists, eigen_tridiagonal):
            with pytest.raises(LengthMismatchError,
                               match="with 2 rows needs 2 node weights, got"):
                call(T, 1, weights)


@pytest.mark.parametrize("entry, name", [(math.nan, "nan"), (math.inf, "inf"),
                                         (-math.inf, "inf")],
                         ids=["nan", "inf", "-inf"])
def test_eigen_refuses_entries_that_are_not_finite(entry, name):
    # refused before the first count pass, in either band, on the one
    # block of a generic T and in the mirror-symmetric case, by the one
    # overflow refusal: it names the largest number, or nan where that
    # squares to a double, as 1e150 does, for then a NaN alone is refused
    for diag, off in (([1.0, entry, 3.0], [-1.0, -1.0]),
                      ([1.0, 2.0, 3.0], [-1.0, entry]),
                      ([entry, 0.0, entry], [-1.0, -1.0]),
                      ([1e150, entry, 1e150], [-1.0, -1.0])):
        T = TridiagonalOperator(diag, off)
        words = f"overflows: its largest entry is {name}, whose square"
        for call in (eigenvalue_list, discrete.eigenpair_lists, eigen_tridiagonal):
            with pytest.raises(InvalidLambdaError, match=words):
                call(T, 1)


@pytest.mark.parametrize("k", [3.0, 2.5, "3", None])
def test_eigen_refuses_a_count_that_is_not_an_integer(k):
    # a float, a string or None would fail later in range() or in a
    # comparison, as a TypeError
    T = TridiagonalOperator([2.0, 2.0, 2.0, 2.0], [-1.0, -1.0, -1.0])
    for call in (eigenvalue_list, discrete.eigenpair_lists, eigen_tridiagonal):
        with pytest.raises(InvalidCountError,
                           match=f"asked for {k!r} eigenvalues of an operator"):
            call(T, k)


@pytest.mark.parametrize("grid_n", [17, 20001])
def test_assembly_leaves_overflow_to_the_eigensolver(capsys, grid_n):
    # c·α² overflows to inf, and inf·0 at the centre node of an odd grid is
    # nan: assembly returns those entries as they are, and every eigen
    # entry point refuses them in the command line's words
    alpha = "7.359689122788897e+269"
    fam = make_family(Kind.CONSTANT, float(alpha))
    T = discrete.assemble_lists(fam, build_grid(fam, grid_n))
    assert math.inf in T.diag
    assert run(["spectrum", "--family", "constant", "--alpha", alpha,
                "--n-max", "0", "--grid-n", str(grid_n)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    for call in (eigenvalue_list, discrete.eigenpair_lists, eigen_tridiagonal):
        with pytest.raises(InvalidLambdaError) as refusal:
            call(T, 1)
        assert "error: " + str(refusal.value) + "\n" == err


@pytest.mark.parametrize("h", [0.0, -0.0, -1.0, math.nan, math.inf])
def test_eigenpairs_refuse_a_weight_outside_zero_to_inf(h):
    # as a scalar, and as any one of a list of node weights
    T = TridiagonalOperator([2.0, 2.0], [-1.0])
    for weights in (h, [h, h], [1.0, h], (h, 1.0)):
        with pytest.raises(ValueError, match="node weight h"):
            discrete.eigenpair_lists(T, 1, weights)
        with pytest.raises(ValueError, match="node weight h"):
            eigen_tridiagonal(T, 2, weights)


def test_eigenpairs_refuse_weights_that_do_not_mirror_a_split_operator():
    # a mirror-symmetric T is solved on its parity blocks, whose rows'
    # weights stand for their mirror images; one block reads them all
    weights = [1.0, 2.0, 4.0]
    split = TridiagonalOperator([2.0, 2.0, 2.0], [-1.0, -1.0])
    with pytest.raises(ValueError, match="must mirror"):
        discrete.eigenpair_lists(split, 1, weights)
    _, vectors = discrete.eigenpair_lists(split, 3, [1.0, 2.0, 1.0])
    _, lopsided = discrete.eigenpair_lists(
        TridiagonalOperator([2.0, 2.0, 2.0], [-1.0, -0.5]), 3, weights)
    for ws, vs in (([1.0, 2.0, 1.0], vectors), (weights, lopsided)):
        for v in vs:
            assert math.fsum(w * x * x for w, x in zip(ws, v)) == \
                pytest.approx(1.0, abs=1e-15)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eigenpairs_peak_memory():
    # one level's factors and iterate at a time on top of the parity
    # blocks and the block vectors, then the returned vectors, 8 bytes a
    # value: 1.73 MB here, where keeping each level's block vector next to
    # its unfolded one took 2.25 MB
    fam = make_family(Kind.CONSTANT, 0.6)
    grid = build_grid(fam, 32000)
    T = discrete.assemble_lists(fam, grid)
    assert _traced_peak(lambda: discrete.eigenpair_lists(T, 3, grid.h)) <= 2.0e6


@pytest.mark.parametrize("kind, lam, abc, bound", [
    (Kind.CONSTANT, 0.0, (0.0, -1.0, 0.0), 2.0e6),
    (Kind.CASE3, 0.4, (-0.25, -0.5, -0.25), 2.4e6),
], ids=["symmetric", "case3-ordering"])
def test_assembly_peak_memory(kind, lam, abc, bound):
    # the bands and a block of rows of temporaries: 1.69 and 2.11 MB here,
    # where evaluating the left half at once took 4.28 and 6.60 MB
    fam = make_family(kind, 1.0, lam)
    grid = build_grid(fam, 32000)
    ordering = VonRoosOrdering(*abc)
    assert _traced_peak(lambda: discrete.assemble_lists(fam, grid, ordering)) <= bound


def test_eigenvalues_alone_match_eigenpairs_bytewise():
    fam = make_family(Kind.CASE3, 1.0, 0.2)
    grid = build_grid(fam, 600)
    T = assemble_sturm_liouville(fam, grid)
    alone = np.array(eigenvalue_list(T, 7))
    paired = eigen_tridiagonal(T, 7, grid.h).eigenvalues
    assert alone.tobytes() == paired.tobytes()
    with pytest.raises(InvalidCountError):
        eigenvalue_list(T, 0)


@pytest.mark.parametrize("kind, lam", [
    (Kind.CASE1, 0.1), (Kind.CASE1, -0.25), (Kind.CASE2, 10.0),
    (Kind.CASE3, 0.2), (Kind.CONSTANT, 0.0),
], ids=["case1", "case1-compact", "case2", "case3", "constant"])
def test_eigenvalues_within_tol_of_lapack(kind, lam):
    # both block shapes: two m×m blocks, and (m+1)×(m+1) with m×m
    fam = make_family(kind, 1.0, lam)
    for n in (4000, 4001):
        T = assemble_sturm_liouville(fam, build_grid(fam, n))
        got = eigenvalue_list(T, 20)
        ref = scipy.linalg.eigvalsh_tridiagonal(T.diag, T.offdiag, select="i",
                                                select_range=(0, 19))
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, inf_norm(T)), n


def test_closed_bracket_returns_the_newton_root():
    # a bracket can close below tol before a Newton step is accepted; the
    # midpoint of such a bracket put λ_19 0.19·tol from LAPACK here
    fam = make_family(Kind.CONSTANT, 1.0)
    T = assemble_sturm_liouville(fam, build_grid(fam, 4000))
    got = eigenvalue_list(T, 20)
    ref = scipy.linalg.eigvalsh_tridiagonal(T.diag, T.offdiag, select="i",
                                            select_range=(0, 19))
    assert np.max(np.abs(got - ref)) <= 0.05e-12 * inf_norm(T)


def count_passes(monkeypatch):
    """A list that grows by one on every Sturm pass."""
    passes = []
    for name in ("_neg_count", "_neg_count_slope"):
        fn = getattr(discrete, name)
        monkeypatch.setattr(discrete, name,
                            lambda *a, _fn=fn: passes.append(1) or _fn(*a))
    return passes


def test_newton_keeps_count_passes_low(monkeypatch):
    # every Sturm pass goes through one of the two count functions; plain
    # bisection from the Gershgorin edge needs about 40 per eigenvalue
    passes = count_passes(monkeypatch)
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = build_grid(fam, 4000)
    T = assemble_sturm_liouville(fam, grid)
    eigenvalue_list(T, 10)
    assert 10 <= len(passes) <= 12 * 10


@pytest.mark.parametrize("kind, lam", [
    (Kind.CASE1, 0.02), (Kind.CASE1, -0.25), (Kind.CASE2, 50.0),
    (Kind.CASE3, 0.2), (Kind.CONSTANT, 0.0),
], ids=["case1", "case1-compact", "case2", "case3", "constant"])
def test_predicted_levels_take_few_passes(monkeypatch, kind, lam):
    # levels 3..19 start at an extrapolation of the certified ones; a search
    # from λ_{j−1} alone took 117-130 passes for them on these operators
    passes = count_passes(monkeypatch)
    fam = make_family(kind, 1.0, lam)
    T = assemble_sturm_liouville(fam, build_grid(fam, 4000))
    eigenvalue_list(T, 3)
    first = len(passes)
    eigenvalue_list(T, 20)
    assert len(passes) - 2 * first <= 5 * 17


def test_levels_under_the_continuum_edge_are_predicted(monkeypatch):
    # on the mapped box, box states crowd just above the top bound level;
    # when one prediction missed, the levels above it went unpredicted
    # and took 121 passes here
    passes = count_passes(monkeypatch)
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    T = discrete.assemble_lists(fam, build_grid(fam, 4000, n_max=9))
    eigenvalue_list(T, 10)
    assert len(passes) <= 75


@pytest.mark.parametrize("kind, lam, n_max, n, ceiling", [
    (Kind.CASE1, 0.3, 2, 4000, 38), (Kind.CASE2, 10.0, 9, 4000, 71),
    (Kind.CASE3, 0.2, 14, 2000, 57), (Kind.CONSTANT, 0.0, 19, 2000, 72),
], ids=["case1-0.3", "case2-10", "case3-0.2", "constant"])
def test_the_panel_spectra_keep_their_pass_counts(monkeypatch, kind, lam,
                                                  n_max, n, ceiling):
    # the other spectrum requests of the benchmark's accuracy panel, on the
    # grids the CLI builds: mapped boxes, and case3's uniform one; each
    # ceiling is the solver's count when this test was written
    passes = count_passes(monkeypatch)
    fam = make_family(kind, 1.0, lam)
    T = discrete.assemble_lists(fam, build_grid(fam, n, n_max=n_max))
    eigenvalue_list(T, n_max + 1)
    assert len(passes) <= ceiling


def test_prediction_costs_irregular_spectra_little(monkeypatch):
    # random spectra are not quadratic in the index, so the prediction
    # misses; a search from λ_{j−1} alone took 1202 passes on these three
    passes = count_passes(monkeypatch)
    for seed in (1, 2, 3):
        eigenvalue_list(random_tridiagonal(random.Random(seed), 500), 20)
    assert len(passes) <= 1.1 * 1202


def test_count_pass_cap_raises(monkeypatch):
    monkeypatch.setattr(discrete, "_MAX_PASSES", 3)
    fam = make_family(Kind.CONSTANT, 1.0)
    T = assemble_sturm_liouville(fam, build_grid(fam, 400))
    # the message names the level and the cap
    with pytest.raises(ConvergenceFailureError, match=r"^eigenvalue search "
                       r"did not converge for index 0 within 3 count passes$"):
        eigenvalue_list(T, 1)


def mirror_jacobi(rng, n):
    """A random mirror-symmetric Jacobi matrix with negative couplings.

    Half of the draws are double wells: a barrier in the middle and a weak
    coupling across it pair the low even and odd levels to within 1e−14.
    """
    m = (n + 1) // 2
    if rng.random() < 0.5:
        diag = [rng.uniform(-1.0, 1.0) for _ in range(m)]
        off = [-10.0 ** rng.uniform(-14.0, 0.0) for _ in range(n // 2)]
    else:
        diag = [2.0 + 4.0 * ((i + 0.5) / m - 0.5) ** 2 for i in range(m)]
        off = [-1.0] * (n // 2)
        off[-1] = -10.0 ** rng.uniform(-14.0, -2.0)
    diag += diag[:n - m][::-1]
    off += off[:n - 1 - n // 2][::-1]
    return TridiagonalOperator(np.array(diag), np.array(off))


def test_mirror_symmetric_jacobi_matrices_are_certified():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(2, 80)
        T = mirror_jacobi(rng, n)
        assert len(discrete._prepared(T, 1)[0]) == 2
        assert_certified(T, rng.randint(1, n))


def test_parity_blocks_halve_the_rows_swept(monkeypatch):
    # each count pass sweeps one block of about N/2 rows; before the split
    # these operators took 100, 71, 100, 77 and 76 passes of N rows
    rows = []
    for name in ("_neg_count", "_neg_count_slope"):
        fn = getattr(discrete, name)
        monkeypatch.setattr(discrete, name,
                            lambda d, *a, _fn=fn: rows.append(len(d)) or _fn(d, *a))
    for (kind, lam), whole in zip([(Kind.CASE1, 0.1), (Kind.CASE1, -0.25),
                                   (Kind.CASE2, 10.0), (Kind.CASE3, 0.2),
                                   (Kind.CONSTANT, 0.0)], (100, 71, 100, 77, 76)):
        fam = make_family(kind, 1.0, lam)
        T = assemble_sturm_liouville(fam, build_grid(fam, 4000))
        rows.clear()
        eigenvalue_list(T, 20)
        assert sum(rows) <= 0.6 * whole * 4000, kind


def test_clustered_spectra_converge():
    # diagonals at 1 and 1 + 1e−13 put clusters just above a level; Newton
    # steps toward it then shrink by about 3 % a pass and hit the pass cap
    # unless a step that does not halve the previous one is a bisection
    rng = random.Random(0)
    for _ in range(2400):
        n = rng.randint(2, 120)
        diag = [rng.choice([0.0, 1.0, 1.0 + 1e-13, 2.0]) for _ in range(n)]
        off = [rng.choice([0.0, 1e-14, 1e-3]) for _ in range(n - 1)]
        T = TridiagonalOperator(np.array(diag), np.array(off))
        k = rng.randint(1, n)
        got = eigenvalue_list(T, k)
        ref = scipy.linalg.eigvalsh_tridiagonal(T.diag, T.offdiag)[:k]
        assert np.max(np.abs(got - ref)) <= 1e-12 * inf_norm(T)


def test_coupling_that_squares_past_a_double_is_refused():
    T = TridiagonalOperator([1.0, 2.0, 3.0], [1e200, 0.0])
    words = r"overflows: its largest entry is 1e\+200, whose square"
    with pytest.raises(InvalidLambdaError, match=words):
        discrete.eigenvalue_list(T, 3)
    with pytest.raises(InvalidLambdaError, match=words):
        eigen_tridiagonal(T, 1)
    # below the square root of the largest double it is answered, also where
    # the even block's corner 2·o² would overflow: that T stays one block
    for diag, off in (([1.0, 2.0, 3.0], [1e150, 0.0]),
                      ([1.0, 2.0, 1.0], [-1.3e154, -1.3e154])):
        T = TridiagonalOperator(np.array(diag), np.array(off))
        got = eigenvalue_list(T, 3)
        ref = scipy.linalg.eigvalsh_tridiagonal(T.diag, T.offdiag)
        assert np.max(np.abs(got - ref)) <= 1e-12 * inf_norm(T)
    assert len(discrete._prepared(T, 1)[0]) == 1


def test_odd_state_sign_survives_a_shift_of_lambda(monkeypatch):
    # the mirror peaks of an odd state tie exactly, so moving λ well inside
    # tol leaves every sign as it was; the cells move by roundoff (about
    # 4e−8 here), a flipped sign would move them by the peak, about 1
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = build_grid(fam, 4000)
    T = assemble_sturm_liouville(fam, grid)
    want = eigen_tridiagonal(T, 10, grid.h).eigenvectors
    tol = 1e-12 * inf_norm(T)
    sturm_newton = discrete._sturm_newton
    for shift in (1e-3 * tol, -1e-3 * tol):
        monkeypatch.setattr(discrete, "_sturm_newton", lambda *a, _s=shift: [
            x + _s for x in sturm_newton(*a)])
        got = eigen_tridiagonal(T, 10, grid.h).eigenvectors
        assert np.max(np.abs(got - want)) < 1e-6
    # odd states are odd, bit for bit, and even states even
    for j, v in enumerate(want):
        assert v.tobytes() == ((-1) ** j * v[::-1]).tobytes()
