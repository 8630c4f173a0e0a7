"""The numpy side of the package: what `verify` evaluates on grids.

The eigenvalue path (grid, stencil, Sturm counts, inverse iteration), the
exact polynomials and the closed-form samples of `eigenfunctions`
(`sampling`) run on Python floats and integers, so every command but
`verify` runs without numpy.  What `verify` needs in arrays lives here:
the bound states H_n·φ_0, the ground state and the superpotential, and
the symmetric-ordering stencil, on grids of up to 200000 nodes, where
Python floats would cost about 25 times as much.  `verify` evaluates all
of them on blocks of rows, so each is given on any run of nodes
lo … hi − 1: nodes_between and kinetic_bands pass index arrays to
Grid.node and Grid.midpoint, whose IEEE operations are the same per
entry, so a block's entries are the whole grid's, bit for bit.
states_at runs families.hermite_rows on ndarrays and yields each state
with the exponent e of the power of two 2^e that its block divided it by,
so a block's states are the whole grid's up to one power of two per
block.  They are not normalized there, since every identity `verify`
checks is linear in the state.

kinetic_bands is a second evaluation of discrete's float stencil; both
run the same IEEE operations in the same order, so their entries agree
bit for bit.  eigenfunction_samples (states_at on one whole-grid block,
normalized) is a second evaluation of sampling.eigenfunction_lists, from
the same recurrence; exp, log1p and the norm's sum differ, so the two
agree to within a few ulps of max|φ_n|.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .discrete import Grid
from .errors import InvalidLambdaError, LengthMismatchError
from .families import (
    ShapeInvariantFamily,
    hermite_rows,
    mass_at,
    require_bound,
    require_inside,
    require_resolved,
)


def inner_product(f, g, grid: Grid) -> float:
    """Trapezoid quadrature ∫fg dx; Dirichlet ends contribute zero."""
    if len(f) != len(g) or len(f) != grid.n:
        raise LengthMismatchError(
            f"lengths {len(f)}, {len(g)} do not match grid size {grid.n}")
    return grid.h * float(np.dot(f, g))


def nodes_between(grid: Grid, lo: int, hi: int):
    """Nodes lo … hi − 1 (counted from 0), bit for bit those of Grid.nodes."""
    return grid.node(np.arange(lo + 1, hi + 1))


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


def states_at(family: ShapeInvariantFamily, count: int, x):
    """Yields (H_n(ζ, q)·φ_0·2^−e, e) at the nodes x for n = 0 … count − 1,
    with ζ = √(cα)·x.

    The states are not normalized, and families.hermite_rows chooses the
    divisions 2^e from these nodes alone.
    """
    g = ground_state_unnormalized(family, x)
    zeta = math.sqrt(family.profile.c * family.alpha0) * x
    for h, e in hermite_rows(family, count, zeta, np.ones_like(zeta),
                             lambda a, z, cur, b, prev: a * z * cur - b * prev,
                             lambda v: float(np.max(np.abs(v))), np.ldexp):
        yield h * g, e


def eigenfunction_samples(family: ShapeInvariantFamily, n: int, grid: Grid):
    """φ_n(x) = N_n H_n(ζ, q) φ_0(x) sampled on the grid, with ζ = √(cα)·x.

    The leading coefficient of H_n, Π_{m<n}(2 − (2m+1)q), is positive for
    every bound level, so the right tail of φ_n is positive.  N_n makes
    the trapezoid norm one (endpoints are implicit zeros).
    """
    require_bound(family, n)
    for phi, _ in states_at(family, n + 1, nodes_between(grid, 0, grid.n)):
        pass
    norm = math.sqrt(inner_product(phi, phi, grid))
    require_resolved(norm, n)
    phi /= norm
    return phi


def kinetic_bands(family: ShapeInvariantFamily, grid: Grid, lo: int, hi: int):
    """(diag, offdiag) of the kinetic stencil on nodes lo … hi − 1.

    discrete's stencil at the symmetric ordering (0, −1, 0): there the
    outer mass powers are m⁰ = 1, so the float stencil's products with
    them are exact and are left out here; what remains is the same
    sequence of operations on the same inputs (Grid.midpoint).  The
    potential adds to diag.  Entries past a double are inf.
    """
    mids = grid.midpoint(np.arange(lo, hi + 1))
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
    """Refuses an operator that is not representable(extents), or whose
    largest entry is nonzero and squares below the smallest normal double
    (the eigensolver's rule for the norm), naming that entry."""
    top = _top(extents)
    if not representable(extents):
        raise InvalidLambdaError(
            f"the discretized Hamiltonian overflows: its largest entry is "
            f"{top:.3g}, whose square leaves the range of a double; lower "
            f"alpha, weaken the deformation or coarsen the grid")
    if top and top * top < sys.float_info.min:
        raise InvalidLambdaError(
            f"the discretized Hamiltonian underflows: its largest entry is "
            f"only {top:.3g}, whose square falls below the smallest normal "
            f"double; raise alpha or refine the grid")
