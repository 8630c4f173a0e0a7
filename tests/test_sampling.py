"""The float sampler of the closed-form states against its numpy twin."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
        full = _unnormalized(fam, 8, grid.nodes())
        edges = grid.nodes(grid_n + 1, -1)
        weights = [0.5 * (r - l) for l, r in zip(edges, edges[2:])]
        for n, (phi, raw) in enumerate(zip(columns, full)):
            if grid.beta:
                norm = math.sqrt(math.fsum(d * (x * x)
                                           for d, x in zip(weights, raw)))
            else:
                norm = math.sqrt(grid.h * math.fsum(x * x for x in raw))
            assert [x.hex() for x in phi] == [(x / norm).hex() for x in raw], n
            assert phi[::-1].tolist() == [(-1) ** n * x for x in phi], n
            assert phi.odd == (n % 2 == 1)
            assert phi[-1] > 0
    assert bool(grid.beta) == math.isinf(fam.profile.hi)


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
