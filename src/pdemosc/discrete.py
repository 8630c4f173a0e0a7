"""Finite-difference oracle: grids, Hamiltonian assembly, eigensolver.

The route to the spectrum here is deliberately independent of the algebraic
ladder: discretize H = −(d/dx) p(x) (d/dx) + V(x) with p = 1/(2m) on a
uniform grid with Dirichlet ends, then find the low eigenvalues of the
resulting symmetric tridiagonal matrix by Sturm-sequence bisection and
inverse iteration.  Nothing in this module knows about superpotentials or
deformed polynomials.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailureError,
    InvalidCountError,
    InvalidLambdaError,
    LengthMismatchError,
)
from .families import (
    SYMMETRIC_ORDERING,
    ShapeInvariantFamily,
    VonRoosOrdering,
    mass_at,
    potential_full,
)


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid on (lo, hi); the endpoints carry implicit zeros."""

    lo: float
    hi: float
    n: int
    h: float
    points: np.ndarray


@dataclass(frozen=True)
class TridiagonalOperator:
    diag: np.ndarray
    offdiag: np.ndarray


@dataclass(frozen=True)
class EigenSolution:
    """Ascending eigenvalues with quadrature-normalized eigenvectors (rows)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def uniform_grid(lo: float, hi: float, n: int) -> Grid:
    if n < 16:
        raise InvalidCountError(f"need at least 16 interior points, got {n}")
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    h = (hi - lo) / (n + 1)
    points = lo + h * np.arange(1, n + 1)
    return Grid(lo, hi, n, h, points)


def build_grid(family: ShapeInvariantFamily, n: int,
               tail_tolerance: float = 1e-12) -> Grid:
    """Grid spanning the domain, or the region where the ground state lives.

    Compact domains keep their singular endpoints (grid nodes stay strictly
    interior, where the mass is positive).  Unbounded domains are truncated
    symmetrically where the unnormalized ground state (1 + s x²)^(−cα/2s)
    has decayed to tail_tolerance: x² = expm1(2sL/(cα))/s with L = −log t,
    whose s → 0 limit 2L/(cα) is the Gaussian box.
    """
    if not 0.0 < tail_tolerance <= 1e-6:
        raise ValueError(
            f"tail tolerance must lie in (0, 1e-6], got {tail_tolerance}")
    profile = family.profile
    if math.isfinite(profile.hi):
        return uniform_grid(profile.lo, profile.hi, n)
    s = profile.s
    u = 2.0 * math.log(1.0 / tail_tolerance) / (profile.c * family.alpha0)
    try:
        hi2 = math.expm1(s * u) / s if s >= sys.float_info.min else u
    except OverflowError:
        hi2 = math.inf
    if not math.isfinite(hi2):
        raise InvalidLambdaError(
            f"the ground state decays too slowly to reach the tail tolerance "
            f"{tail_tolerance:g} within the range of a double; "
            f"loosen the tail tolerance or weaken the deformation")
    hi = math.sqrt(hi2)
    return uniform_grid(-hi, hi, n)


def _stencil(family: ShapeInvariantFamily, grid: Grid, potential,
             ordering: VonRoosOrdering = SYMMETRIC_ORDERING):
    """Rows of −¼(mᵃ D mᵇ D mᶜ + mᶜ D mᵇ D mᵃ) + diag(potential).

    The inner D mᵇ D is the conservative stencil with mᵇ at the n+1
    midpoints; the outer mass powers multiply rows and columns at the nodes.
    Returns the diagonal and the two composition orders of the
    off-diagonal, which are equal up to the roundoff of their
    multiplication orders.  At the symmetric ordering (0, −1, 0) the outer
    factors are one and this is the conservative scheme for −(p φ′)′ with
    p = 1/(2m).
    """
    h2 = grid.h * grid.h
    m_nodes = mass_at(family.profile, grid.points)
    ma = np.power(m_nodes, ordering.a)
    mc = np.power(m_nodes, ordering.c)
    mids = grid.lo + grid.h * (np.arange(grid.n + 1) + 0.5)
    w = np.power(mass_at(family.profile, mids), ordering.b)
    diag = 0.5 * ma * mc * (w[:-1] + w[1:]) / h2 + potential
    win = w[1:-1] / h2
    upper = ma[:-1] * win * mc[1:] + mc[:-1] * win * ma[1:]
    lower = ma[1:] * win * mc[:-1] + mc[1:] * win * ma[:-1]
    return diag, upper, lower


def _assemble(family: ShapeInvariantFamily, grid: Grid, potential,
              ordering: VonRoosOrdering = SYMMETRIC_ORDERING) -> TridiagonalOperator:
    """The kinetic stencil of `ordering` plus an arbitrary diagonal potential.

    The two ordering terms are transposes of one another, so their average
    is symmetric; one shared off-diagonal array makes that exact.
    """
    diag, upper, lower = _stencil(family, grid, potential, ordering)
    return TridiagonalOperator(diag, -0.125 * (upper + lower))


def assemble_sturm_liouville(family: ShapeInvariantFamily,
                             grid: Grid) -> TridiagonalOperator:
    """Conservative scheme for −(p φ′)′ + V φ with p = 1/(2m).

    p is evaluated at the n+1 midpoints, so row i and row i+1 share the
    same p_{i+½} value and the matrix is symmetric exactly, not merely up
    to roundoff.
    """
    return _assemble(family, grid, potential_full(family, grid.points))


def assemble_von_roos(family: ShapeInvariantFamily, ordering: VonRoosOrdering,
                      grid: Grid) -> TridiagonalOperator:
    """Discretize −¼(mᵃ D mᵇ D mᶜ + mᶜ D mᵇ D mᵃ) + V by composition.

    The leftover asymmetry of the two multiplication orders is folded in by
    explicit averaging (see von_roos_asymmetry).
    """
    return _assemble(family, grid, potential_full(family, grid.points), ordering)


def von_roos_asymmetry(family: ShapeInvariantFamily, ordering: VonRoosOrdering,
                       grid: Grid) -> float:
    """Max |upper − lower| of the composed operator before symmetrization."""
    _, upper, lower = _stencil(family, grid, 0.0, ordering)
    if len(upper) == 0:
        return 0.0
    return 0.25 * float(np.max(np.abs(upper - lower)))


def inner_product(f, g, grid: Grid) -> float:
    """Trapezoid quadrature ∫fg dx; Dirichlet ends contribute zero."""
    if len(f) != len(g) or len(f) != grid.n:
        raise LengthMismatchError(
            f"lengths {len(f)}, {len(g)} do not match grid size {grid.n}")
    return grid.h * float(np.dot(f, g))


# === symmetric tridiagonal eigensolver ===

def _inf_norm(diag, off):
    n = len(diag)
    best = 0.0
    for i in range(n):
        row = abs(diag[i])
        if i > 0:
            row += abs(off[i - 1])
        if i < n - 1:
            row += abs(off[i])
        if row > best:
            best = row
    return best


def _neg_count(diag, off2, x, pivmin):
    """Negative pivots of LDLᵀ of T − xI = eigenvalues below x."""
    count = 0
    d = diag[0] - x
    if abs(d) < pivmin:
        d = -pivmin
    if d < 0:
        count = 1
    for i in range(1, len(diag)):
        d = diag[i] - x - off2[i - 1] / d
        if abs(d) < pivmin:
            d = -pivmin
        if d < 0:
            count += 1
    return count


def _factor_shifted(diag, off, sigma, pivmin):
    """Partial-pivot LU of T − σI; returns (swap, mult, u0, u1, u2)."""
    n = len(diag)
    swap = [False] * max(n - 1, 0)
    mult = [0.0] * max(n - 1, 0)
    u0 = [0.0] * n
    u1 = [0.0] * max(n - 1, 0)
    u2 = [0.0] * max(n - 2, 0)
    p = diag[0] - sigma
    q = off[0] if n > 1 else 0.0
    r = 0.0
    for i in range(n - 1):
        pn = off[i]
        qn = diag[i + 1] - sigma
        rn = off[i + 1] if i + 1 < n - 1 else 0.0
        if abs(pn) > abs(p):
            swap[i] = True
            p, q, r, pn, qn, rn = pn, qn, rn, p, q, r
        if p == 0.0:
            p = pivmin
        m = pn / p
        mult[i] = m
        u0[i] = p
        u1[i] = q
        if i < n - 2:
            u2[i] = r
        p, q, r = qn - m * q, rn - m * r, 0.0
    u0[n - 1] = p if p != 0.0 else pivmin
    return swap, mult, u0, u1, u2


def _solve_factored(factored, rhs):
    swap, mult, u0, u1, u2 = factored
    n = len(u0)
    b = list(rhs)
    for i in range(n - 1):
        if swap[i]:
            b[i], b[i + 1] = b[i + 1], b[i]
        b[i + 1] -= mult[i] * b[i]
    x = [0.0] * n
    x[n - 1] = b[n - 1] / u0[n - 1]
    if n > 1:
        x[n - 2] = (b[n - 2] - u1[n - 2] * x[n - 1]) / u0[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (b[i] - u1[i] * x[i + 1] - u2[i] * x[i + 2]) / u0[i]
    return x


def eigen_tridiagonal(T: TridiagonalOperator, k: int, h: float = 1.0) -> EigenSolution:
    """k smallest eigenpairs of a symmetric tridiagonal matrix.

    Eigenvalues by bisection on the Sturm negative-pivot count, each to
    absolute tolerance 1e−12·max(1, ‖T‖∞); brackets are refined in
    ascending index order with the previous eigenvalue reused as the lower
    edge, which fixes the output byte-for-byte regardless of scheduling.
    Eigenvectors by seeded inverse iteration, accepted only when
    ‖Tv − λv‖∞ ≤ 1e−10·‖T‖∞, then normalized so h·Σv² = 1 with the
    largest-magnitude component positive.
    """
    n = len(T.diag)
    if not 1 <= k <= n:
        raise InvalidCountError(f"need 1 <= k <= {n}, got {k}")
    diag = [float(x) for x in T.diag]
    off = [float(x) for x in T.offdiag]
    off2 = [x * x for x in off]
    norm_t = _inf_norm(diag, off)
    tol = 1e-12 * max(1.0, norm_t)
    pivmin = 2.2e-16 * max(1.0, norm_t)
    radius = [0.0] * n
    for i in range(n):
        r = abs(off[i - 1]) if i > 0 else 0.0
        if i < n - 1:
            r += abs(off[i])
        radius[i] = r
    glo = min(diag[i] - radius[i] for i in range(n))
    ghi = max(diag[i] + radius[i] for i in range(n))

    eigenvalues = []
    for j in range(k):
        a = eigenvalues[-1] if eigenvalues else glo
        b = ghi
        while b - a > tol:
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:
                break  # spacing exhausted
            if _neg_count(diag, off2, mid, pivmin) >= j + 1:
                b = mid
            else:
                a = mid
        eigenvalues.append(0.5 * (a + b))

    d_arr = np.asarray(T.diag, dtype=float)
    o_arr = np.asarray(T.offdiag, dtype=float)
    accept = 1e-10 * max(1.0, norm_t)
    basis = []  # euclidean-normalized accepted vectors
    for j, lam in enumerate(eigenvalues):
        factored = _factor_shifted(diag, off, lam + tol, pivmin)
        rng = random.Random(1000 + j)
        v = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
        v /= np.linalg.norm(v)
        for _ in range(50):
            w = np.asarray(_solve_factored(factored, v))
            for u in basis:
                w -= np.dot(w, u) * u  # keep the pairwise Gram at roundoff
            w /= np.linalg.norm(w)
            tv = d_arr * w
            if n > 1:
                tv[:-1] += o_arr * w[1:]
                tv[1:] += o_arr * w[:-1]
            v = w
            if float(np.max(np.abs(tv - lam * v))) <= accept:
                break
        else:
            raise ConvergenceFailureError(
                j, f"inverse iteration stagnated for eigenvalue index {j}")
        if v[int(np.argmax(np.abs(v)))] < 0:
            v = -v
        basis.append(v)
    vectors = np.asarray(basis) / math.sqrt(h)
    return EigenSolution(np.asarray(eigenvalues), vectors)
