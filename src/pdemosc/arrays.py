"""The numpy side of the package: closed forms and the stencil on whole grids.

The eigenvalue path (grid, stencil, Sturm counts, inverse iteration) and
the exact polynomials run on Python floats and integers, so `spectrum`,
`compare-ordering`, numeric `eigenfunctions` and `polynomials` never
import numpy.  What needs arrays lives here: grid samples of the bound
states (algebraic `eigenfunctions`, `verify`), the ground state and the
superpotential, and the symmetric-ordering stencil, which `verify`
assembles three times on grids of up to 200000 nodes, where Python floats
would cost about 25 times as much.  That stencil is a second evaluation of
discrete's float stencil; both run the same IEEE operations in the same
order, so their entries agree bit for bit.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .discrete import Grid, TridiagonalOperator, refuse_overflow
from .errors import LengthMismatchError
from .families import (
    ShapeInvariantFamily,
    mass_at,
    potential_full,
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


def eigenfunction_samples(family: ShapeInvariantFamily, n: int, grid: Grid):
    """φ_n(x) = N_n H_n(ζ, q) φ_0(x) sampled on the grid, with ζ = √(cα)·x.

    H_n comes from the three-term recurrence in floating point, which is
    stable at high degree where the expanded monomial form is not.  Its
    leading coefficient Π_{m<n}(2 − (2m+1)q) is positive for every bound
    level, so the right tail of φ_n is positive.  N_n makes the trapezoid
    norm one (endpoints are implicit zeros).

    H_n outgrows a double at high degree (on the default box, the squared
    norm of H_n φ_0 does from n = 150), so the pair (H_{m−1}, H_m) is
    divided by a power of two whenever a running bound on max|H_m| passes
    2^256.  Such a division is exact, and N_n absorbs it.
    """
    require_bound(family, n)
    q = unified_deformation(family)
    zeta = math.sqrt(family.profile.c * family.alpha0) * grid.points
    zeta_max = float(np.max(np.abs(zeta)))
    h_prev, h_cur = np.zeros_like(zeta), np.ones_like(zeta)
    top_prev, top = 0.0, 1.0  # upper bounds on max|h_prev|, max|h_cur|
    for m in range(n):
        a, b = 2.0 - (2 * m + 1) * q, m * (2.0 - m * q)
        h_prev, h_cur = h_cur, a * zeta * h_cur - b * h_prev
        top_prev, top = top, abs(a) * zeta_max * top + abs(b) * top_prev
        if top > 2.0 ** 256:
            e = math.frexp(float(np.max(np.abs(h_cur))))[1]
            h_prev, h_cur = np.ldexp(h_prev, -e), np.ldexp(h_cur, -e)
            top_prev, top = float(np.max(np.abs(h_prev))), 1.0
    phi = h_cur * ground_state_unnormalized(family, grid.points)
    return phi / math.sqrt(inner_product(phi, phi, grid))


def potential_on_grid(family: ShapeInvariantFamily, grid: Grid):
    """potential_full on the grid nodes; entries past a double are inf."""
    with np.errstate(over="ignore"):
        return potential_full(family, grid.points)


def assemble_symmetric(family: ShapeInvariantFamily, grid: Grid,
                       potential) -> TridiagonalOperator:
    """discrete's stencil at the symmetric ordering (0, −1, 0), on arrays.

    There the outer mass powers are m⁰ = 1, so the float stencil's
    products with them are exact and are left out here; what remains is
    the same sequence of operations on the same inputs, so diag and
    offdiag equal those of discrete.assemble_lists bit for bit.  The overflow
    refusal is the same too.
    """
    mids = grid.lo + grid.h * (np.arange(grid.n + 1) + 0.5)
    h2 = grid.h * grid.h
    with np.errstate(over="ignore"):
        w = 1.0 / mass_at(family.profile, mids)
        diag = 0.5 * (w[:-1] + w[1:]) / h2 + potential
        win = w[1:-1] / h2
        off = -0.125 * ((win + win) + (win + win))
    top = max(float(np.max(np.abs(diag))), float(np.max(np.abs(off))))
    if not math.isfinite(top * top):
        refuse_overflow(top)
    return TridiagonalOperator(diag, off)
