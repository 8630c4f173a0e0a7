"""The numpy side of the package: what `verify` evaluates on grids.

The eigenvalue path (grid, stencil, Sturm counts, inverse iteration), the
exact polynomials and the closed-form samples of `eigenfunctions`
(`sampling`) run on Python floats and integers, so every command but
`verify` runs without numpy.  What `verify` needs in arrays lives here:
grid samples of the bound states, the ground state and the
superpotential, and the symmetric-ordering stencil, on grids of up to
200000 nodes, where Python floats would cost about 25 times as much.
`verify` evaluates all of them on blocks of rows, so each is also given
on any run of nodes lo … hi − 1: nodes_between, kinetic_bands and
BoundStates.rows run the same IEEE operations per entry as the whole
grid does, so a block's entries are the whole grid's, bit for bit.

The stencil is a second evaluation of discrete's float stencil; both run
the same IEEE operations in the same order, so their entries agree bit
for bit.  eigenfunction_samples is a second evaluation of
sampling.eigenfunction_lists in the same operations; exp, log1p and the
norm's sum differ, so the two agree to within a few ulps of max|φ_n|.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

import numpy as np

from .discrete import Grid, TridiagonalOperator, refuse_overflow
from .errors import LengthMismatchError
from .families import (
    ShapeInvariantFamily,
    mass_at,
    require_bound,
    require_inside,
    unified_deformation,
)


def inner_product(f, g, grid: Grid) -> float:
    """Trapezoid quadrature ∫fg dx; Dirichlet ends contribute zero."""
    if len(f) != len(g) or len(f) != grid.n:
        raise LengthMismatchError(
            f"lengths {len(f)}, {len(g)} do not match grid size {grid.n}")
    return grid.h * float(np.dot(f, g))


def nodes_between(grid: Grid, lo: int, hi: int):
    """Nodes lo … hi − 1 (counted from 0), bit for bit those of Grid.points."""
    return grid.center + grid.h * (np.arange(lo + 1, hi + 1)
                                   - 0.5 * (grid.n + 1))


def superpotential_at(family: ShapeInvariantFamily, alpha_n: float, x):
    """W(x; αₙ) = αₙ x √(m(x)/2).  Odd in x, and W/√(2m) = αₙx/2 exactly."""
    m = mass_at(family.profile, x)
    return alpha_n * x * np.sqrt(0.5 * m)


def ground_state_unnormalized(family: ShapeInvariantFamily, x):
    """The zero-mode exp(−∫√(2m) W dx) = (1 + s x²)^(−cα/2s), 1 at x = 0.

    Evaluated as exp(−(cα/2)·log1p(s x²)/s), whose s → 0 limit is the
    Gaussian exp(−cα x²/2); a subnormal s takes the limit.
    """
    require_inside(family.profile, x)
    p = family.profile
    x2 = np.square(x)
    u = x2 if abs(p.s) < sys.float_info.min else np.log1p(p.s * x2) / p.s
    return np.exp(-0.5 * p.c * family.alpha0 * u)


def _zeta(family: ShapeInvariantFamily, x):
    return math.sqrt(family.profile.c * family.alpha0) * x


def _hermites(family: ShapeInvariantFamily, count: int, zeta, shifts: dict,
              record: bool):
    """Yields H_n(ζ, q) for n = 0 … count − 1, on the array ζ = √(cα)·x.

    The three-term recurrence is stable at high degree, where the
    expanded monomial form is not.  H_n outgrows a double at high degree
    (on the default box, the squared norm of H_n φ_0 does from n = 150),
    so the pair (H_{m−1}, H_m) is divided by 2^e whenever a running bound
    on max|H_m| passes 2^256.  Such a division is exact, and the norm
    absorbs it.  The bound and the maxima are the whole grid's: with
    `record`, ζ is the whole grid's and each division is stored in
    `shifts` as {m: e}; without it, the stored divisions are replayed, so
    a block of nodes gets the whole grid's rows.  The bound is the same
    for every degree, so one recurrence serves them all.
    """
    q = unified_deformation(family)
    zeta_max = float(np.max(np.abs(zeta))) if record else 0.0
    h_prev, h_cur = np.zeros_like(zeta), np.ones_like(zeta)
    top_prev, top = 0.0, 1.0  # upper bounds on max|h_prev|, max|h_cur|
    yield h_cur
    for m in range(count - 1):
        a, b = 2.0 - (2 * m + 1) * q, m * (2.0 - m * q)
        h_prev, h_cur = h_cur, a * zeta * h_cur - b * h_prev
        if record:
            top_prev, top = top, abs(a) * zeta_max * top + abs(b) * top_prev
            if top > 2.0 ** 256:
                shifts[m] = math.frexp(float(np.max(np.abs(h_cur))))[1]
        if m in shifts:
            e = shifts[m]
            h_prev, h_cur = np.ldexp(h_prev, -e), np.ldexp(h_cur, -e)
            if record:
                top_prev, top = float(np.max(np.abs(h_prev))), 1.0
        yield h_cur


class BoundStates(namedtuple("BoundStates", "family shifts norms")):
    """φ_0 … φ_{k−1} normalized on a whole grid, to be sampled on its blocks.

    `shifts` holds the recurrence's divisions chosen on the whole grid,
    and norms[n] is √⟨φ_n, φ_n⟩ before normalization, so `rows(x)` at the
    nodes x of a block equals those rows of eigenfunction_samples bit for
    bit.
    """

    __slots__ = ()

    def rows(self, x) -> list:
        """φ_0 … φ_{k−1} at the nodes x, one array each."""
        g = ground_state_unnormalized(self.family, x)
        hs = _hermites(self.family, len(self.norms), _zeta(self.family, x),
                       self.shifts, False)
        return [h * g / norm for h, norm in zip(hs, self.norms)]


def whole_grid_states(family: ShapeInvariantFamily, count: int, grid: Grid):
    """Yields (φ_n, BoundStates of φ_0 … φ_n) for n = 0 … count − 1.

    φ_n is sampled on the whole grid, one degree at a time, as
    eigenfunction_samples samples it.
    """
    require_bound(family, count - 1)
    # not grid.points, which the grid would keep after this pass
    x = nodes_between(grid, 0, grid.n)
    g, zeta = ground_state_unnormalized(family, x), _zeta(family, x)
    del x
    shifts, norms = {}, []
    for h in _hermites(family, count, zeta, shifts, True):
        phi = h * g
        norms.append(math.sqrt(inner_product(phi, phi, grid)))
        phi /= norms[-1]
        yield phi, BoundStates(family, shifts, tuple(norms))


def eigenfunction_samples(family: ShapeInvariantFamily, n: int, grid: Grid):
    """φ_n(x) = N_n H_n(ζ, q) φ_0(x) sampled on the grid, with ζ = √(cα)·x.

    The leading coefficient of H_n, Π_{m<n}(2 − (2m+1)q), is positive for
    every bound level, so the right tail of φ_n is positive.  N_n makes
    the trapezoid norm one (endpoints are implicit zeros).
    """
    require_bound(family, n)
    x = grid.points
    for h in _hermites(family, n + 1, _zeta(family, x), {}, True):
        pass
    phi = h * ground_state_unnormalized(family, x)
    return phi / math.sqrt(inner_product(phi, phi, grid))


def kinetic_bands(family: ShapeInvariantFamily, grid: Grid, lo: int, hi: int):
    """(diag, offdiag) of the kinetic stencil on nodes lo … hi − 1.

    discrete's stencil at the symmetric ordering (0, −1, 0): there the
    outer mass powers are m⁰ = 1, so the float stencil's products with
    them are exact and are left out here; what remains is the same
    sequence of operations on the same inputs (the midpoints are
    Grid.midpoints).  The potential adds to diag.  Entries past a double
    are inf.
    """
    mids = grid.center + grid.h * (np.arange(lo, hi + 1) - 0.5 * grid.n)
    h2 = grid.h * grid.h
    with np.errstate(over="ignore"):
        w = 1.0 / mass_at(family.profile, mids)
        win = w[1:-1] / h2
        return (0.5 * (w[:-1] + w[1:]) / h2,
                -0.125 * ((win + win) + (win + win)))


def band_extent(diag, offdiag):
    """(max|diag|, max|offdiag|, NaN seen): what the overflow refusal reads.

    fmax passes over a NaN, so the maxima are the largest numbers; the
    sums propagate it.  A sum can overflow, or meet inf − inf, only where
    some entry squares past a double, which the refusal names anyway.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (float(np.fmax.reduce(np.abs(diag))),
                float(np.fmax.reduce(np.abs(offdiag))),
                math.isnan(np.sum(diag) + np.sum(offdiag)))


def _top(extents) -> float:
    return max(float(np.fmax.reduce([e[0] for e in extents])),
               float(np.fmax.reduce([e[1] for e in extents])))


def representable(extents) -> bool:
    """Whether an operator, given the band_extent of each of its blocks,
    has no NaN and no entry whose square leaves the range of a double."""
    top = _top(extents)
    return math.isfinite(top * top) and not any(e[2] for e in extents)


def require_representable(extents):
    """Refuses an operator that is not representable(extents), naming its
    largest entry."""
    if not representable(extents):
        refuse_overflow(_top(extents))


def assemble_symmetric(family: ShapeInvariantFamily, grid: Grid,
                       potential) -> TridiagonalOperator:
    """discrete's stencil at the symmetric ordering (0, −1, 0), on arrays.

    diag and offdiag equal those of discrete.assemble_lists bit for bit,
    mirrored halves included (see kinetic_bands).  The overflow refusal is
    the same too.
    """
    kinetic, off = kinetic_bands(family, grid, 0, grid.n)
    with np.errstate(over="ignore"):
        diag = kinetic + potential
    require_representable([band_extent(diag, off)])
    return TridiagonalOperator(diag, off)
