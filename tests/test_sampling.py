"""The float sampler of the closed-form states against its numpy twin and
against the exact polynomials of the paper."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pdemosc import (
    InvalidCountError,
    InvalidLambdaError,
    Kind,
    NotABoundStateError,
    OutOfDomainError,
    bound_state_count,
    build_grid,
    eigenfunction_samples,
    make_family,
    uniform_grid,
)
from pdemosc.polynomials import (
    STORED_VARIABLE,
    gf_polynomial,
    parameterization_for,
)
from pdemosc.sampling import _unnormalized, eigenfunction_lists

# each admissible range: positive and negative deformations of every family
LAMBDAS = {
    Kind.CASE1: st.one_of(st.floats(0.001, 1.9), st.floats(-0.5, -0.01)),
    Kind.CASE2: st.one_of(st.floats(0.5, 100.0), st.floats(-50.0, -1.0)),
    Kind.CASE3: st.one_of(st.floats(0.05, 1.5), st.floats(-1.5, -0.05)),
    Kind.CONSTANT: st.just(0.0),
}


def assert_twins_agree(fam, n_max, grid, rel=1e-13):
    columns = eigenfunction_lists(fam, n_max, grid)
    assert len(columns) == n_max + 1
    for n, phi in enumerate(columns):
        want = eigenfunction_samples(fam, n, grid)
        top = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(np.array(phi) - want))) <= rel * top, n


@st.composite
def sampled_levels(draw):
    kind = draw(st.sampled_from(list(Kind)))
    fam = make_family(kind, draw(st.floats(0.5, 2.0)), draw(LAMBDAS[kind]))
    count = bound_state_count(fam)
    assume(count != 0)
    n_max = draw(st.integers(0, 40 if count is None else min(40, count - 1)))
    # s >= 0 also draws the sinh-mapped grid sized for level n_max
    mapped = fam.profile.s >= 0.0 and draw(st.booleans())
    try:
        grid = build_grid(fam, draw(st.integers(16, 3000)),
                          n_max=n_max if mapped else None)
    except (InvalidCountError, InvalidLambdaError):
        assume(False)
    return fam, n_max, grid


@settings(deadline=None, max_examples=120)
@given(sampled_levels())
def test_float_sampler_is_the_numpy_sampler(case):
    assert_twins_agree(*case)


def exact_state(kind, fam, n, grid):
    """φ_n at the nodes from the exact H_n of gf_polynomial, in 40 digits.

    H_n is evaluated at ζ = √(cα)·x in the stored variable of the kind's
    parameterization, times the ground factor (1 + s x²)^(−cα/2s), the
    Gaussian e^(−cα x²/2) at s = 0; the state is normalized in the grid's
    node weights, its leading coefficient, and so its right tail, positive.
    """
    par = parameterization_for(kind)
    # the factor 2^−shift of H_n is left out: normalizing removes it
    poly = gf_polynomial(n, par)
    x = grid.node(range(1, grid.n + 1))
    with mpmath.workdps(40):
        c, s = mpmath.mpf(fam.profile.c), mpmath.mpf(fam.profile.s)
        ca = c * fam.alpha0
        q = STORED_VARIABLE[par][0] * s / ca
        coeffs = [sum((mpmath.mpf(k) * q ** j
                       for j, k in enumerate(poly.terms.get(d, []))),
                      mpmath.mpf(0)) for d in range(n + 1)]
        if coeffs[n] < 0:
            coeffs = [-k for k in coeffs]
        phi = []
        for v in map(mpmath.mpf, x):
            zeta, h = mpmath.sqrt(ca) * v, mpmath.mpf(0)
            for k in reversed(coeffs):
                h = h * zeta + k
            ground = (mpmath.exp(-ca * v * v / 2) if not s
                      else mpmath.power(1 + s * v * v, -ca / (2 * s)))
            phi.append(float(h * ground))
    phi = np.array(phi)
    return phi / math.sqrt(float(np.dot(np.multiply(grid.weights(), phi),
                                        phi)))


@st.composite
def oracle_levels(draw):
    """A family, a grid of at most 300 nodes, uniform or sized for level
    n_max, and the levels the benchmark's oracle checks: 0, n_max − 1 and
    n_max."""
    kind = draw(st.sampled_from(list(Kind)))
    fam = make_family(kind, draw(st.floats(0.5, 2.0)), draw(LAMBDAS[kind]))
    count = bound_state_count(fam)
    assume(count != 0)
    n_max = draw(st.integers(0, 40 if count is None else min(40, count - 1)))
    mapped = fam.profile.s >= 0.0 and draw(st.booleans())
    try:
        grid = build_grid(fam, draw(st.integers(16, 300)),
                          n_max=n_max if mapped else None)
    except (InvalidCountError, InvalidLambdaError):
        assume(False)
    return kind, fam, n_max, grid


# hypothesis found this draw: the grid's 16 nodes see level 28 only far out
# in its tails, whose samples, about 1e−222, square below a double, and
# both samplers refused it as zero at every node until each level was
# scaled by a power of two before its squares were summed
_FAR_TAILS = make_family(Kind.CASE2, 1.5, 23.0)


@settings(deadline=None, max_examples=150)
@given(oracle_levels())
@example((Kind.CASE2, _FAR_TAILS, 33, build_grid(_FAR_TAILS, 16, n_max=33)))
def test_float_sampler_is_the_exact_polynomial(case):
    # the twins above share families.hermite_rows; this pins the float
    # sampler to gf_polynomial's exact coefficients instead
    kind, fam, n_max, grid = case
    columns = eigenfunction_lists(fam, n_max, grid)
    for n in sorted({0, max(n_max - 1, 0), n_max}):
        want = exact_state(kind, fam, n, grid)
        top = float(np.max(np.abs(want)))
        got = np.asarray(columns[n])
        assert float(np.max(np.abs(got - want))) <= 1e-13 * top, n


# two 16-node level boxes near the cutoff that hypothesis can draw, where
# H_n is divided by one power of two per degree for every node: the first
# refuses level 28 as zero at every node, and on the second the ground
# factor underflows to 0 at the outer nodes, where level 39 is 5.2e-10, so
# the level is off by 1.6e-8 of its peak
@pytest.mark.xfail(raises=(InvalidCountError, AssertionError), strict=True,
                   reason="ROADMAP item 26")
@pytest.mark.parametrize("alpha, lam, n_max", [(0.5, 78.0, 38),
                                               (1.140625, 35.25, 39)])
def test_float_sampler_on_a_level_box_near_the_cutoff(alpha, lam, n_max):
    fam = make_family(Kind.CASE2, alpha, lam)
    grid = build_grid(fam, 16, n_max=n_max)
    columns = eigenfunction_lists(fam, n_max, grid)
    for n, phi in enumerate(columns):
        want = exact_state(Kind.CASE2, fam, n, grid)
        top = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(np.asarray(phi) - want))) <= 1e-13 * top, n


def test_float_sampler_past_the_rescale():
    # H_n φ_0 outgrows a double from about n = 150 on this box
    fam = make_family(Kind.CONSTANT, 1.0)
    for grid_n in (2000, 2001):
        assert_twins_agree(fam, 170, build_grid(fam, grid_n))


@pytest.mark.parametrize("grid_n", [700, 701])
@pytest.mark.parametrize("kind,lam", [(Kind.CASE1, 0.1), (Kind.CASE2, -5.0),
                                      (Kind.CASE3, 0.4), (Kind.CONSTANT, 0.0)])
def test_mirrored_samples_are_the_full_evaluation(kind, lam, grid_n):
    fam = make_family(kind, 1.0, lam)
    # the uniform ground-state box, and the grid sized for level 8: sinh-
    # mapped on an unbounded domain, the same uniform one on a compact one
    for grid in (build_grid(fam, grid_n), build_grid(fam, grid_n, n_max=8)):
        columns = eigenfunction_lists(fam, 8, grid)
        # every node evaluated, then the norm rounded once: h·Σx² on a
        # uniform grid, Σ d_i·x² in the finite-volume weights
        # d_i = (x_{i+1} − x_{i−1})/2 of a mapped one, the walls being
        # nodes 0 and n+1
        full = _unnormalized(fam, 8, grid.node(range(1, grid_n + 1)))
        edges = grid.node(range(grid_n + 2))
        weights = [0.5 * (r - l) for l, r in zip(edges, edges[2:])]
        for n, (column, raw) in enumerate(zip(columns, full)):
            if grid.map:
                norm = math.sqrt(math.fsum(d * (x * x)
                                           for d, x in zip(weights, raw)))
            else:
                norm = math.sqrt(grid.h * math.fsum(x * x for x in raw))
            phi = np.asarray(column)
            assert [x.hex() for x in phi] == [(x / norm).hex() for x in raw], n
            assert phi[::-1].tolist() == [(-1) ** n * x for x in phi], n
            assert column.odd == (n % 2 == 1)
            assert phi[-1] > 0
    assert bool(grid.map) == math.isinf(fam.profile.hi)


def test_float_sampler_refusals():
    fam = make_family(Kind.CASE1, 1.0, 0.3)
    assert bound_state_count(fam) == 3
    grid = build_grid(fam, 400)
    assert len(eigenfunction_lists(fam, 2, grid)) == 3
    with pytest.raises(NotABoundStateError):
        eigenfunction_lists(fam, 3, grid)
    fam = make_family(Kind.CASE3, 1.0, 0.2)  # domain (-5, 5)
    with pytest.raises(OutOfDomainError):
        eigenfunction_lists(fam, 0, uniform_grid(6.0, 300))


# past these levels the Hermite recurrence leaves the range of a double at
# the outer nodes (b = m(2 − mq) overflows where |q| is near the largest
# double), and the norm is inf or NaN: both samplers refuse the level, so
# no column holds a NaN, whose CSV text the writer could not mirror
@pytest.mark.parametrize("kind,alpha,lam,grid_n,level", [
    (Kind.CASE1, 1.4242012018100228e-169, -4.860610657265618e+137, 17, 9),
    (Kind.CASE2, 2.6665355980913634e-171, -2.5597957968701533e-136, 64, 13),
    (Kind.CASE3, 2.9480721396785856e-210, 1.5804848741023636e+48, 64, 22),
])
def test_levels_past_the_range_of_a_double_are_refused(kind, alpha, lam,
                                                       grid_n, level):
    fam = make_family(kind, alpha, lam)
    grid = build_grid(fam, grid_n)
    columns = eigenfunction_lists(fam, level - 1, grid)
    assert all(math.isfinite(v) for phi in columns for v in phi)
    assert np.all(np.isfinite(eigenfunction_samples(fam, level - 1, grid)))
    with pytest.raises(InvalidLambdaError,
                       match=f"level {level} leaves the range of a double"):
        eigenfunction_lists(fam, level, grid)
    # the numpy twin overflows in its recurrence on the way to the
    # refusal, and warns of nothing
    with pytest.raises(InvalidLambdaError,
                       match=f"level {level} leaves the range of a double"):
        eigenfunction_samples(fam, level, grid)


def _refusal(sample):
    try:
        sample()
    except (InvalidCountError, InvalidLambdaError) as e:
        return type(e)
    return None


@pytest.mark.parametrize("fam, top, grid", [
    # level 28 and up seen only far out in their tails: both take them
    (_FAR_TAILS, 33, build_grid(_FAR_TAILS, 16, n_max=33)),
    # the outer nodes near x = 38, where φ_0 is subnormal
    (make_family(Kind.CONSTANT, 1.0), 40, uniform_grid(38.0, 16)),
    # every node where every level underflows to zero
    (make_family(Kind.CONSTANT, 1.0), 4, uniform_grid(1e4, 16)),
    # the recurrence leaves the range of a double from level 9
    (make_family(Kind.CASE1, 1.4242012018100228e-169,
                 -4.860610657265618e+137), 10, None),
], ids=["far-tails", "subnormal-tails", "all-zero", "overflow"])
def test_both_samplers_refuse_the_same_levels(fam, top, grid):
    # each rescales a level by a power of two only where its norm falls
    # below families.RESCALE_BELOW, and only up, so an underflow or an
    # overflow refuses a level in both or in neither
    grid = grid or build_grid(fam, 17)
    floats = [_refusal(lambda: eigenfunction_lists(fam, n, grid))
              for n in range(top + 1)]
    arrays = [_refusal(lambda: eigenfunction_samples(fam, n, grid))
              for n in range(top + 1)]
    assert floats == arrays
    assert len(set(floats)) == (2 if grid.n == 17 else 1)
