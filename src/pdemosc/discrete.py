"""Finite-difference oracle: grids, Hamiltonian assembly, eigensolver.

The route to the spectrum here is deliberately independent of the algebraic
ladder: discretize H = −(d/dx) p(x) (d/dx) + V(x) with p = 1/(2m) on a
uniform grid with Dirichlet ends, then find the low eigenvalues of the
resulting symmetric tridiagonal matrix.  Each Sturm-count pass (the
negative pivots of LDLᵀ of T − xI) narrows the brackets of every requested
eigenvalue at once; once a bracket holds a single eigenvalue the same pass
also yields the slope of log|det(T − xI)|, and safeguarded Newton steps
take over from bisection.  Every eigenvalue is certified by counts to lie
in a bracket no wider than 1e−12·max(1, ‖T‖∞).  Eigenvectors, where a
caller wants them, come from one inverse-iteration solve shifted at the
eigenvalue.  Nothing in this module knows about superpotentials or
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

    The unnormalized ground state (1 + s x²)^(−cα/2s) decays to
    tail_tolerance at x² = expm1(2sL/(cα))/s with L = −log t, whose s → 0
    limit 2L/(cα) is the Gaussian box.  Unbounded domains are truncated
    symmetrically there.  Compact domains keep their singular endpoints
    (grid nodes stay strictly interior, where the mass is positive), and
    are refused when fewer than 16 nodes, the least any grid may have,
    fall inside that box: the grid cannot resolve the bound states.
    """
    if not 0.0 < tail_tolerance <= 1e-6:
        raise ValueError(
            f"tail tolerance must lie in (0, 1e-6], got {tail_tolerance}")
    profile = family.profile
    s = profile.s
    u = 2.0 * math.log(1.0 / tail_tolerance) / (profile.c * family.alpha0)
    try:
        box2 = math.expm1(s * u) / s if abs(s) >= sys.float_info.min else u
    except OverflowError:
        box2 = math.inf
    if math.isfinite(profile.hi):
        grid = uniform_grid(profile.lo, profile.hi, n)
        box = math.sqrt(box2)
        inside = int(np.count_nonzero(np.abs(grid.points) < box))
        if inside < 16:
            raise InvalidCountError(
                f"grid spacing h = {grid.h:.3g} on the compact domain "
                f"(-{profile.hi:.3g}, {profile.hi:.3g}) leaves {inside} of "
                f"{n} nodes where the ground state exceeds the tail "
                f"tolerance {tail_tolerance:g} (|x| < {box:.3g}); at least 16 "
                f"are needed to resolve the bound states")
        return grid
    if not math.isfinite(box2):
        raise InvalidLambdaError(
            f"the ground state decays too slowly to reach the tail tolerance "
            f"{tail_tolerance:g} within the range of a double; "
            f"loosen the tail tolerance or weaken the deformation")
    hi = math.sqrt(box2)
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

# Count passes allowed per eigenvalue.  Doubling up to the Gershgorin edge
# and bisecting back down to tol each take at most about 42 passes, since
# tol is 1e−12 of the norm; Newton steps only shorten that.
_MAX_PASSES = 128


def _scale(d: np.ndarray, o: np.ndarray):
    """‖T‖∞ and the Gershgorin interval (glo, ghi) of T = (d, o)."""
    radius = np.zeros_like(d)
    radius[1:] += np.abs(o)
    radius[:-1] += np.abs(o)
    return (float(np.max(np.abs(d) + radius)), float(np.min(d - radius)),
            float(np.max(d + radius)))


def _neg_count(diag, off2, x, pivmin):
    """Negative pivots of LDLᵀ of T − xI = eigenvalues below x.

    off2[i] is the squared coupling of row i to row i − 1, with off2[0] = 0.
    A pivot in (−pivmin, pivmin) counts as negative and becomes −pivmin.
    """
    neg = -pivmin
    count = 0
    d = 1.0
    for a, b2 in zip(diag, off2):
        d = a - x - b2 / d
        if d < pivmin:
            count += 1
            if d > neg:
                d = neg
    return count


def _neg_count_slope(diag, off2, x, pivmin):
    """_neg_count plus (d/dx) log|det(T − xI)| = Σ dᵢ′/dᵢ from the same pass.

    The pivot derivatives obey dᵢ′ = −1 + bᵢ₋₁²·dᵢ₋₁′/dᵢ₋₁²; the loop
    carries their ratio t = dᵢ′/dᵢ.
    """
    neg = -pivmin
    count = 0
    d = 1.0
    t = 0.0
    slope = 0.0
    for a, b2 in zip(diag, off2):
        q = b2 / d
        d = a - x - q
        if d < pivmin:
            count += 1
            if d > neg:
                d = neg
        t = (q * t - 1.0) / d
        slope += t
    return count, slope


def _sturm_newton(T: TridiagonalOperator, k: int) -> list:
    """The k smallest eigenvalues, ascending; see tridiagonal_eigenvalues."""
    n = len(T.diag)
    if not 1 <= k <= n:
        raise InvalidCountError(f"need 1 <= k <= {n}, got {k}")
    d = np.asarray(T.diag, dtype=float)
    o = np.asarray(T.offdiag, dtype=float)
    norm_t, glo, ghi = _scale(d, o)
    tol = 1e-12 * max(1.0, norm_t)
    pivmin = 2.2e-16 * max(1.0, norm_t)
    glo -= tol
    ghi += tol
    diag = d.tolist()
    off2 = [0.0] + (o * o).tolist()

    # Shared brackets lo[i] <= λ_i < hi[i], with nlo[i] <= i < nhi[i] the
    # counts there.  hi[i] = inf until a count has shown an upper edge.
    lo, nlo = [glo] * k, [0] * k
    hi, nhi = [math.inf] * k, [n] * k
    newton = None  # (x, slope) of the latest slope pass

    def count_at(x, j, slope):
        nonlocal newton
        if slope:
            c, s = _neg_count_slope(diag, off2, x, pivmin)
            newton = (x, s)
        else:
            c = _neg_count(diag, off2, x, pivmin)
        for i in range(j, k):
            if i < c:
                if x < hi[i]:
                    hi[i], nhi[i] = x, c
            elif x > lo[i]:
                lo[i], nlo[i] = x, c
        return c

    values = []
    for j in range(k):
        if j == 0:
            # Newton from below the spectrum never passes λ_0
            count_at(glo, 0, True)
            step = -1.0 / newton[1] if newton[1] < 0.0 else 0.0
            prev = glo
        else:
            prev = values[-1]
            step = prev - (values[-2] if j > 1 else glo)
        step = max(step, tol, math.ulp(prev))
        for _ in range(_MAX_PASSES):
            a, b = max(lo[j], prev), hi[j]
            isolated = nlo[j] == j and nhi[j] == j + 1
            if b == math.inf:
                # doubling search for the upper edge
                count_at(min(a + step, ghi), j, False)
                step *= 2.0
                continue
            mid = 0.5 * (a + b)
            if b - a <= tol or not a < mid < b:
                # bracket proven, or spacing exhausted; b < a only when
                # λ_j sits within tol below the returned λ_{j−1}
                values.append(max(mid, prev))
                break
            x = mid
            if isolated and newton is not None and a <= newton[0] <= b:
                x0, s = newton
                root = x0 - 1.0 / s if s else math.inf
                if a < root < b:
                    if abs(root - x0) < 0.25 * tol:
                        # certify: counts on both sides within tol/2
                        below, above = root - 0.5 * tol, root + 0.5 * tol
                        ok = below <= lo[j] or count_at(below, j, False) <= j
                        if ok and (above >= b or count_at(above, j, False) > j):
                            values.append(root)
                            break
                        continue
                    x = root
            count_at(x, j, isolated)
        else:
            raise ConvergenceFailureError(
                j, f"eigenvalue search did not converge for index {j} "
                   f"within {_MAX_PASSES} count passes")
    return values


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


def tridiagonal_eigenvalues(T: TridiagonalOperator, k: int) -> np.ndarray:
    """The k smallest eigenvalues of a symmetric tridiagonal matrix, ascending.

    Each eigenvalue is certified by Sturm counts to lie in a bracket no
    wider than tol = 1e−12·max(1, ‖T‖∞).  Every count narrows the brackets
    of all requested indices at once (as in LAPACK dstebz); index j's upper
    edge comes from a doubling search up from λ_{j−1}.  Once a bracket holds
    exactly one eigenvalue, the count pass also returns the slope of
    log|det(T − xI)| and safeguarded Newton steps replace bisection (Li and
    Zeng 1994): a step that leaves the bracket is a bisection, and a step
    below tol/4 is accepted only when counts at root ± tol/2 (or bracket
    edges already counted inside them) confine λ_j.  The result is that
    Newton root; a bracket that narrows to tol without isolating one
    eigenvalue, as for a multiple eigenvalue, gives its midpoint.  Brackets
    are refined in ascending index order with λ_{j−1} as a lower edge, so
    the output is ascending and byte-for-byte reproducible.  More than
    128 count passes for one eigenvalue raise ConvergenceFailureError.
    """
    return np.asarray(_sturm_newton(T, k))


def eigen_tridiagonal(T: TridiagonalOperator, k: int, h: float = 1.0) -> EigenSolution:
    """k smallest eigenpairs of a symmetric tridiagonal matrix.

    Eigenvalues as tridiagonal_eigenvalues returns them.  Eigenvectors by
    seeded inverse iteration shifted at the eigenvalue itself, accepted
    only when ‖Tv − λv‖∞ ≤ 1e−10·‖T‖∞, then normalized so h·Σv² = 1 with
    the largest-magnitude component positive.
    """
    eigenvalues = _sturm_newton(T, k)
    d_arr = np.asarray(T.diag, dtype=float)
    o_arr = np.asarray(T.offdiag, dtype=float)
    n = len(d_arr)
    norm_t = _scale(d_arr, o_arr)[0]
    pivmin = 2.2e-16 * max(1.0, norm_t)
    accept = 1e-10 * max(1.0, norm_t)
    diag, off = d_arr.tolist(), o_arr.tolist()
    basis = []  # euclidean-normalized accepted vectors
    for j, lam in enumerate(eigenvalues):
        factored = _factor_shifted(diag, off, lam, pivmin)
        # uniform on [−1, 1) from one seeded draw; importing numpy.random
        # would add about 6 MB to the process
        bits = np.frombuffer(random.Random(1000 + j).randbytes(8 * n), "<u8")
        v = (bits >> np.uint64(11)) * 2.0 ** -52 - 1.0
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
