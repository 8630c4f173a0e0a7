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

Everything here runs on Python floats, so the eigenvalue path never
imports numpy: the command line calls assemble_lists, eigenvalue_list and
eigenpair_lists.  The public assemblers, tridiagonal_eigenvalues,
eigen_tridiagonal and `Grid.points` return ndarrays, and import numpy
when called.
"""

from __future__ import annotations

import math
import random
import struct
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .errors import (
    ConvergenceFailureError,
    InvalidCountError,
    InvalidLambdaError,
)
from .families import (
    SYMMETRIC_ORDERING,
    ShapeInvariantFamily,
    VonRoosOrdering,
    masses_on,
    potentials_on,
)


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid on (lo, hi); the endpoints carry implicit zeros.

    Node i (1 ≤ i ≤ n) is node(i) = lo + h·i.  `nodes()` lists them as
    floats for the eigenvalue path; `points` is the same nodes as an
    ndarray, built on first use for the numpy consumers.
    """

    lo: float
    hi: float
    n: int
    h: float

    def node(self, i: int) -> float:
        return self.lo + self.h * i

    def nodes(self) -> list:
        return list(map(self.node, range(1, self.n + 1)))

    @cached_property
    def points(self):
        import numpy as np
        return self.lo + self.h * np.arange(1, self.n + 1)


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix (diag, offdiag).

    The public assemblers hold ndarrays; assemble_lists holds float lists.
    """

    diag: np.ndarray | list
    offdiag: np.ndarray | list


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
    return Grid(lo, hi, n, (hi - lo) / (n + 1))


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
        # nodes ascend, so those in (−box, box) are one run, found by bisection
        inside = max(0, bisect_left(range(1, n + 1), box, key=grid.node)
                     - bisect_right(range(1, n + 1), -box, key=grid.node))
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


def refuse_overflow(top: float):
    """The refusal of an operator whose largest entry `top` squares past a double."""
    raise InvalidLambdaError(
        f"the discretized Hamiltonian overflows: its entries reach "
        f"{top:.3g}, and the eigensolver squares them, which leaves the "
        f"range of a double; lower alpha, weaken the deformation or "
        f"coarsen the grid")


def _powers(ms: list, e: float) -> list:
    """mᵉ for each m: 1 for e = 0, 1.0/m for e = −1, m ** e otherwise."""
    if e == 0.0:
        return [1.0] * len(ms)  # pow(m, 0) is 1 for every m, even inf and NaN
    if e == -1.0:
        return [1.0 / m for m in ms]
    return [m ** e for m in ms]


def _stencil(family: ShapeInvariantFamily, grid: Grid,
             ordering: VonRoosOrdering = SYMMETRIC_ORDERING):
    """Rows of −¼(mᵃ D mᵇ D mᶜ + mᶜ D mᵇ D mᵃ) + V, on Python floats.

    The inner D mᵇ D is the conservative stencil with mᵇ at the n+1
    midpoints; the outer mass powers multiply rows and columns at the nodes.
    Returns the diagonal and the two composition orders of the
    off-diagonal, which are equal up to the roundoff of their
    multiplication orders.  At the symmetric ordering (0, −1, 0) the outer
    factors are one and this is the conservative scheme for −(p φ′)′ with
    p = 1/(2m).  A power or quotient that leaves the range of a double is
    refused as an overflow, as an infinite entry would be.
    """
    lo, h, n = grid.lo, grid.h, grid.n
    h2 = h * h
    xs = grid.nodes()
    try:
        m_nodes = masses_on(family.profile, xs)
        mids = [lo + h * (i + 0.5) for i in range(n + 1)]
        w = _powers(masses_on(family.profile, mids), ordering.b)
        potential = potentials_on(family, xs, m_nodes)
        ma = _powers(m_nodes, ordering.a)
        mc = _powers(m_nodes, ordering.c)
    except (OverflowError, ZeroDivisionError):
        refuse_overflow(math.inf)
    win = [x / h2 for x in w[1:-1]]
    diag = [0.5 * a * c * (wl + wr) / h2 + v
            for a, c, wl, wr, v in zip(ma, mc, w, w[1:], potential)]
    upper = [a0 * x * c1 + c0 * x * a1
             for a0, x, c1, c0, a1 in zip(ma, win, mc[1:], mc, ma[1:])]
    lower = [a1 * x * c0 + c1 * x * a0
             for a1, x, c0, c1, a0 in zip(ma[1:], win, mc, mc[1:], ma)]
    return diag, upper, lower


def assemble_lists(family: ShapeInvariantFamily, grid: Grid,
                   ordering: VonRoosOrdering = SYMMETRIC_ORDERING) -> TridiagonalOperator:
    """The stencil of `ordering` with the confining potential V, as float lists.

    The two ordering terms are transposes of one another, so their average
    is symmetric; one shared off-diagonal list makes that exact.  The
    eigensolver squares the entries, so an operator with an entry whose
    square overflows a double (or an infinite or NaN one) is refused with
    InvalidLambdaError.
    """
    diag, upper, lower = _stencil(family, grid, ordering)
    off = [-0.125 * (u + l) for u, l in zip(upper, lower)]
    top = max(max(map(abs, diag)), max(map(abs, off)))
    # max() passes over a NaN that is not first; sum() propagates it
    if not math.isfinite(top * top) or math.isnan(sum(diag) + sum(off)):
        refuse_overflow(top)
    return TridiagonalOperator(diag, off)


def _as_arrays(T: TridiagonalOperator) -> TridiagonalOperator:
    import numpy as np
    return TridiagonalOperator(np.array(T.diag), np.array(T.offdiag))


def assemble_sturm_liouville(family: ShapeInvariantFamily,
                             grid: Grid) -> TridiagonalOperator:
    """Conservative scheme for −(p φ′)′ + V φ with p = 1/(2m).

    p is evaluated at the n+1 midpoints, so row i and row i+1 share the
    same p_{i+½} value and the matrix is symmetric exactly, not merely up
    to roundoff.  The bands are ndarrays; assemble_lists gives the same
    entries as float lists, without numpy.
    """
    return _as_arrays(assemble_lists(family, grid))


def assemble_von_roos(family: ShapeInvariantFamily, ordering: VonRoosOrdering,
                      grid: Grid) -> TridiagonalOperator:
    """Discretize −¼(mᵃ D mᵇ D mᶜ + mᶜ D mᵇ D mᵃ) + V by composition.

    The leftover asymmetry of the two multiplication orders is folded in by
    explicit averaging (see von_roos_asymmetry).  The bands are ndarrays,
    as for assemble_sturm_liouville.
    """
    return _as_arrays(assemble_lists(family, grid, ordering))


def von_roos_asymmetry(family: ShapeInvariantFamily, ordering: VonRoosOrdering,
                       grid: Grid) -> float:
    """Max |upper − lower| of the composed operator before symmetrization."""
    _, upper, lower = _stencil(family, grid, ordering)
    return 0.25 * max((abs(u - l) for u, l in zip(upper, lower)), default=0.0)


# === symmetric tridiagonal eigensolver ===

# Count passes allowed per eigenvalue.  Doubling up to the Gershgorin edge
# and bisecting back down to tol each take at most about 42 passes, since
# tol is 1e−12 of the norm; Newton steps only shorten that.
_MAX_PASSES = 128


def _scale(d: list, o: list):
    """‖T‖∞ and the Gershgorin interval (glo, ghi) of T = (d, o).

    |dᵢ| + rᵢ is dᵢ + rᵢ or −(dᵢ − rᵢ), each rounded alike, so the norm is
    max(ghi, −glo) exactly.
    """
    a = list(map(abs, o))
    radius = [x + y for x, y in zip([0.0] + a, a + [0.0])]
    glo = min([x - r for x, r in zip(d, radius)])
    ghi = max([x + r for x, r in zip(d, radius)])
    return max(ghi, -glo), glo, ghi


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


def _prepared(T: TridiagonalOperator, k: int):
    """(diag, off, ‖T‖∞, glo, ghi) with the bands as lists of Python floats."""
    n = len(T.diag)
    if not 1 <= k <= n:
        raise InvalidCountError(f"need 1 <= k <= {n}, got {k}")
    diag, off = list(map(float, T.diag)), list(map(float, T.offdiag))
    return (diag, off, *_scale(diag, off))


def eigenvalue_list(T: TridiagonalOperator, k: int) -> list:
    """tridiagonal_eigenvalues as a list of floats, without numpy."""
    return _sturm_newton(*_prepared(T, k), k)


def _sturm_newton(diag, o, norm_t, glo, ghi, k) -> list:
    """The k smallest eigenvalues of the _prepared bands; see tridiagonal_eigenvalues."""
    n = len(diag)
    tol = 1e-12 * max(1.0, norm_t)
    pivmin = 2.2e-16 * max(1.0, norm_t)
    glo -= tol
    ghi += tol
    off2 = [0.0] + [b * b for b in o]

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
    swap, mult, u0, u1, u2 = [], [], [], [], []
    p = diag[0] - sigma
    q = off[0] if off else 0.0
    r = 0.0
    # row i + 1 of T − σI is (pn, qn, rn) = (o_i, d_{i+1} − σ, o_{i+1})
    for pn, dn, rn in zip(off, diag[1:], off[1:] + [0.0]):
        qn = dn - sigma
        pivot = abs(pn) > abs(p)
        if pivot:
            p, q, r, pn, qn, rn = pn, qn, rn, p, q, r
        if p == 0.0:
            p = pivmin
        m = pn / p
        swap.append(pivot)
        mult.append(m)
        u0.append(p)
        u1.append(q)
        u2.append(r)
        p, q, r = qn - m * q, rn - m * r, 0.0
    u0.append(p if p != 0.0 else pivmin)
    return swap, mult, u0, u1, u2


def _solve_factored(factored, rhs):
    swap, mult, u0, u1, u2 = factored
    # forward: apply the row swaps and multipliers to rhs
    y = []
    cur = rhs[0]
    for pivot, m, nxt in zip(swap, mult, rhs[1:]):
        if pivot:
            cur, nxt = nxt, cur
        y.append(cur)
        cur = nxt - m * cur
    y.append(cur)
    # backward through the upper band (u0, u1, u2); u2 of the last row is 0
    x1 = y[-1] / u0[-1]
    x2 = 0.0
    out = [x1]
    for b, a0, a1, a2 in zip(reversed(y[:-1]), reversed(u0[:-1]),
                             reversed(u1), reversed(u2)):
        x1, x2 = (b - a1 * x1 - a2 * x2) / a0, x1
        out.append(x1)
    out.reverse()
    return out


def _unit(v: list, j: int) -> list:
    """v/‖v‖₂ with the norm from math.fsum; a zero or non-finite norm fails."""
    try:
        norm = math.sqrt(math.fsum([x * x for x in v]))
    except OverflowError:
        norm = math.inf
    if not 0.0 < norm < math.inf:
        raise ConvergenceFailureError(
            j, f"inverse iteration broke down for eigenvalue index {j}")
    return [x / norm for x in v]


def eigenpair_lists(T: TridiagonalOperator, k: int, h: float = 1.0):
    """eigen_tridiagonal as (eigenvalues, eigenvectors) lists, without numpy."""
    prepared = _prepared(T, k)
    eigenvalues = _sturm_newton(*prepared, k)
    diag, off, norm_t = prepared[:3]
    n = len(diag)
    pivmin = 2.2e-16 * max(1.0, norm_t)
    accept = 1e-10 * max(1.0, norm_t)
    basis = []  # euclidean-normalized accepted vectors
    vectors = []
    root_h = math.sqrt(h)
    for j, lam in enumerate(eigenvalues):
        factored = _factor_shifted(diag, off, lam, pivmin)
        # uniform on [−1, 1) from one seeded draw of 64-bit words; its
        # norm only scales the first solve
        words = struct.unpack(f"<{n}Q", random.Random(1000 + j).randbytes(8 * n))
        v = [(b >> 11) * 2.0 ** -52 - 1.0 for b in words]
        for _ in range(50):
            w = _solve_factored(factored, v)
            for u in basis:
                # keep the pairwise Gram at roundoff; c is tiny, so a plain
                # sum is accurate enough here
                c = sum(map(mul, w, u))
                w = [a - c * b for a, b in zip(w, u)]
            v = _unit(w, j)
            # ‖Tv − λv‖∞, row i being (d_i v_i + o_i v_{i+1}) + o_{i−1} v_{i−1}
            resid = max([abs(d * x + a * xn + b * xp - lam * x)
                         for d, x, a, xn, b, xp in zip(
                             diag, v, off + [0.0], v[1:] + [0.0],
                             [0.0] + off, [0.0] + v[:-1])])
            if resid <= accept:
                break
        else:
            raise ConvergenceFailureError(
                j, f"inverse iteration stagnated for eigenvalue index {j}")
        basis.append(v)
        # the largest-magnitude component made positive; x/(−r) = −(x/r)
        size = list(map(abs, v))
        scale = root_h if v[size.index(max(size))] > 0 else -root_h
        vectors.append([x / scale for x in v])
    return eigenvalues, vectors


def tridiagonal_eigenvalues(T: TridiagonalOperator, k: int):
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
    Returns an ndarray; eigenvalue_list is the same on floats.
    """
    import numpy as np
    return np.asarray(eigenvalue_list(T, k))


def eigen_tridiagonal(T: TridiagonalOperator, k: int, h: float = 1.0) -> EigenSolution:
    """k smallest eigenpairs of a symmetric tridiagonal matrix, as ndarrays.

    Eigenvalues as tridiagonal_eigenvalues returns them.  Eigenvectors by
    seeded inverse iteration shifted at the eigenvalue itself, accepted
    only when ‖Tv − λv‖∞ ≤ 1e−10·‖T‖∞, then normalized so h·Σv² = 1 with
    the largest-magnitude component positive.  eigenpair_lists is the same
    on floats.
    """
    import numpy as np
    eigenvalues, vectors = eigenpair_lists(T, k, h)
    return EigenSolution(np.asarray(eigenvalues), np.asarray(vectors))
