"""Closed-form bound states sampled on a grid, on Python floats, each
level's column stored as an array('d').

φ_n(x) = N_n H_n(ζ, q) φ_0(x) with ζ = √(cα)·x, for every level up to
n_max from one three-term recurrence, families.hermite_rows.  This is the
sampler of algebraic `eigenfunctions`, so that command never imports
numpy; `verify`, which samples on grids of up to 200000 nodes, runs the
same recurrence on ndarrays in `susy`.  Its normalized form,
susy.eigenfunction_samples, agrees with this one to a few ulps of
max|φ_n|: exp and log1p come from different libraries, and the norm here
is a correctly rounded math.fsum.
"""

from __future__ import annotations

import math
import sys
from operator import mul

from .discrete import Grid, mirrored_array
from .families import (
    ShapeInvariantFamily,
    hermite_rows,
    require_bound,
    require_inside,
    require_resolved,
)


def _unnormalized(family: ShapeInvariantFamily, n_max: int, xs: list):
    """Yields H_n(ζ, q) φ_0 at the nodes xs for n = 0 … n_max, as float
    lists, each up to the power of two that families.hermite_rows divided
    it by."""
    p = family.profile
    root = math.sqrt(p.c * family.alpha0)
    zeta = [root * x for x in xs]
    if abs(p.s) < sys.float_info.min:
        u = [x * x for x in xs]
    else:
        s = p.s
        u = [math.log1p(s * (x * x)) / s for x in xs]
    k = -0.5 * p.c * family.alpha0
    ground = [math.exp(k * v) for v in u]
    for h, _ in hermite_rows(
            family, n_max + 1, zeta, [1.0] * len(xs),
            lambda a, zs, cur, b, prev: [a * z * x - b * y for z, x, y
                                         in zip(zs, cur, prev)],
            lambda v: max(map(abs, v)),
            lambda v, e: [math.ldexp(x, e) for x in v]):
        yield list(map(mul, h, ground))


def eigenfunction_lists(family: ShapeInvariantFamily, n_max: int,
                        grid: Grid) -> list:
    """[φ_0, …, φ_{n_max}] on the grid nodes, each an array('d').

    The leading coefficient of H_n is positive for every bound level, so
    the right tail of φ_n is positive.  N_n makes the trapezoid norm
    h·Σφ² one (the endpoints are implicit zeros).  The grid's nodes mirror
    bit for bit and ζ is odd, so φ_n(−x) = (−1)ⁿ φ_n(x) holds bit for bit:
    only the left half and the centre are evaluated, and the columns equal
    a full evaluation.
    """
    require_bound(family, n_max)
    n = grid.n
    # node n+1−i mirrors node i: the first ⌈n/2⌉ nodes are evaluated, and
    # the first ⌊n/2⌋ of them mirrored; the first node bounds every other
    mirrored = n // 2
    xs = grid.nodes(n - mirrored)
    require_inside(family.profile, xs[0])
    out = []
    for degree, phi in enumerate(_unnormalized(family, n_max, xs)):
        squares = list(map(mul, phi, phi))
        if n % 2:
            squares[-1] *= 0.5  # the centre, which has no mirror
        # fsum rounds once and doubling is exact, so unless the centre's
        # square is subnormal, h·Σφ² is that of a full evaluation bit for bit
        norm = math.sqrt(grid.h * (math.fsum(squares) * 2.0))
        require_resolved(norm, degree)
        out.append(mirrored_array([x / norm for x in phi], n, degree % 2 == 1))
    return out
