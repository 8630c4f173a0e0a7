"""Closed-form bound states sampled on a grid, on Python floats.

φ_n(x) = N_n H_n(ζ, q) φ_0(x) with ζ = √(cα)·x, for every level up to
n_max from one three-term recurrence.  This is the sampler of algebraic
`eigenfunctions`, so that command never imports numpy; `verify`, which
samples on grids of up to 200000 nodes, uses the numpy twin
arrays.states_at, which runs the same operations and divides the
recurrence by the same rule.  Its normalized form,
arrays.eigenfunction_samples, agrees with this one to a few ulps of
max|φ_n|: exp and log1p come from different libraries, and the norm here
is a correctly rounded math.fsum.
"""

from __future__ import annotations

import math
import sys
from operator import mul

from .discrete import Grid
from .families import (
    ShapeInvariantFamily,
    hermite_steps,
    require_bound,
    require_inside,
    require_resolved,
)


def _unnormalized(family: ShapeInvariantFamily, n_max: int, xs: list):
    """Yields H_n(ζ, q) φ_0 at the nodes xs for n = 0 … n_max, as float lists.

    The same operations as arrays.states_at, division rule included: the
    recurrence a·ζ·H_m − b·H_{m−1}, and a division of the pair
    (H_{m−1}, H_m) by the power of two just above max|H_m| whenever a
    running bound on max|H_m| over the nodes xs passes 2^256.  That bound
    depends on the degree only, so the division happens at the same step
    for every degree, as in a separate recurrence per degree.
    """
    p = family.profile
    root = math.sqrt(p.c * family.alpha0)
    zeta = [root * x for x in xs]
    zeta_max = max(map(abs, zeta))
    if abs(p.s) < sys.float_info.min:
        u = [x * x for x in xs]
    else:
        s = p.s
        u = [math.log1p(s * (x * x)) / s for x in xs]
    k = -0.5 * p.c * family.alpha0
    ground = [math.exp(k * v) for v in u]
    yield ground
    h_prev, h_cur = [0.0] * len(xs), [1.0] * len(xs)
    top_prev, top = 0.0, 1.0  # upper bounds on max|h_prev|, max|h_cur|
    for a, b in hermite_steps(family, n_max + 1):
        h_prev, h_cur = h_cur, [a * z * h - b * g
                                for z, h, g in zip(zeta, h_cur, h_prev)]
        top_prev, top = top, abs(a) * zeta_max * top + abs(b) * top_prev
        if top > 2.0 ** 256:
            e = -math.frexp(max(map(abs, h_cur)))[1]
            h_prev = [math.ldexp(h, e) for h in h_prev]
            h_cur = [math.ldexp(h, e) for h in h_cur]
            top_prev, top = max(map(abs, h_prev)), 1.0
        yield list(map(mul, h_cur, ground))


def eigenfunction_lists(family: ShapeInvariantFamily, n_max: int,
                        grid: Grid) -> list:
    """[φ_0, …, φ_{n_max}] on the grid nodes, each a list of floats.

    The leading coefficient of H_n is positive for every bound level, so
    the right tail of φ_n is positive.  N_n makes the trapezoid norm
    h·Σφ² one (the endpoints are implicit zeros).  On a grid centred at 0,
    as build_grid makes, the nodes mirror bit for bit and ζ is odd, so
    φ_n(−x) = (−1)ⁿ φ_n(x) holds bit for bit: only the left half and the
    centre are evaluated, and the columns equal a full evaluation.
    """
    require_bound(family, n_max)
    n = grid.n
    # on a centred grid node n+1−i mirrors node i: the first ⌈n/2⌉ nodes
    # are evaluated, and the first ⌊n/2⌋ of them mirrored
    mirrored = n // 2 if grid.center == 0.0 else 0
    xs = grid.nodes(n - mirrored)
    require_inside(family.profile, xs[0])
    require_inside(family.profile, xs[-1])
    out = []
    for degree, phi in enumerate(_unnormalized(family, n_max, xs)):
        squares = list(map(mul, phi, phi))
        if mirrored and n % 2:
            squares[-1] *= 0.5  # the centre, which has no mirror
        # fsum rounds once and doubling is exact, so unless the centre's
        # square is subnormal, h·Σφ² is that of a full evaluation bit for bit
        total = math.fsum(squares) * (2.0 if mirrored else 1.0)
        norm = math.sqrt(grid.h * total)
        require_resolved(norm, degree)
        phi = [x / norm for x in phi]
        tail = phi[:mirrored][::-1]
        out.append(phi + (tail if degree % 2 == 0 else [-x for x in tail]))
    return out
