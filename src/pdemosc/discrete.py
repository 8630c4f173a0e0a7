"""Finite-difference oracle: grids, Hamiltonian assembly, eigensolver.

The route to the spectrum here is deliberately independent of the algebraic
ladder: discretize H = −(d/dx) p(x) (d/dx) + V(x) with p = 1/(2m) on a
uniform grid with Dirichlet ends, then find the low eigenvalues of the
resulting symmetric tridiagonal matrix.  Each Sturm-count pass (the
negative pivots of LDLᵀ of T − xI) narrows the brackets of every requested
eigenvalue at once; once a bracket holds a single eigenvalue the same pass
also yields the slope of log|det(T − xI)|, and safeguarded Newton steps
take over from bisection.  From the third eigenvalue on, the search starts
at an extrapolation of the eigenvalues already certified, which on these
operators lies within about 1e−6 of a level spacing.  Every eigenvalue is
certified by counts to lie in a bracket no wider than 1e−12·‖T‖∞, a
tolerance relative to the operator, so the spectrum scales with it down
to the underflow refusal.  Eigenvectors, where a caller wants them, come
from one twisted factorization of T − λI per level (Parlett and Dhillon
1997), with inverse iteration on its factors only where its vector is
rejected.  Nothing here knows about superpotentials or polynomials.

Every mass law and potential here is even, and every grid is a box
(−hi, hi) centred at 0 whose nodes mirror bit for bit, so the assembled
bands are exactly mirror-symmetric and are evaluated on the left half
only.  Such a matrix with negative couplings is the direct sum of an even
and an odd block of about N/2 rows each, whose levels alternate (the
oscillation theorem for Jacobi matrices): level j is level j//2 of block
j mod 2.  The eigensolver detects that structure and runs every count
pass, factorization and residual on a block; any other matrix is one
block, on the same code path.

Everything here runs on Python floats, so the eigenvalue path never
imports numpy: the package calls assemble_lists, eigenvalue_list and
eigenpair_lists.  The bands, the parity blocks and every vector a loop
walks are float lists, which CPython loops over fastest; the vectors that
are only stored, the eigenvectors eigenpair_lists returns and the
per-node columns built with mirrored_array, are array('d'), at 8 bytes a
value where a list of floats takes 32.  The public assemblers and
eigen_tridiagonal return ndarrays, and import numpy when called; nothing
in the package calls them.
"""

from __future__ import annotations

import math
import random
import struct
import sys
from bisect import bisect_right
from collections import namedtuple
from itertools import chain, count, islice
from operator import add, mul, neg, sub

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
    require_inside,
)


class Grid(namedtuple("Grid", "lo hi n h")):
    """Uniform interior grid on (lo, hi) = (−hi, hi); the endpoints carry
    implicit zeros.

    Node i (1 ≤ i ≤ n) is h·(i − (n+1)/2) and midpoint i (0 ≤ i ≤ n) is
    h·(i − n/2), so node n+1−i is −(node i) and midpoint n−i is
    −(midpoint i) bit for bit; an even mass law and potential then give
    exactly mirror-symmetric bands, which the eigensolver splits into
    parity blocks.  `node` and `midpoint` take an index or an ndarray of
    indices, through the same IEEE operations; `nodes()` and `midpoints()`
    list runs of them as floats.
    """

    __slots__ = ()

    def node(self, i):
        return self.h * (i - 0.5 * (self.n + 1))

    def midpoint(self, i):
        return self.h * (i - 0.5 * self.n)

    def nodes(self, stop: int | None = None, start: int = 0) -> list:
        """Nodes start+1 … stop (1 … n by default) as floats."""
        h, mid = self.h, 0.5 * (self.n + 1)
        stop = self.n if stop is None else stop
        return [h * (i - mid) for i in range(start + 1, stop + 1)]

    def midpoints(self, stop: int, start: int = 0) -> list:
        """Midpoints start … stop − 1 as floats."""
        h, mid = self.h, 0.5 * self.n
        return [h * (i - mid) for i in range(start, stop)]


class TridiagonalOperator(namedtuple("TridiagonalOperator", "diag offdiag")):
    """Symmetric tridiagonal matrix (diag, offdiag).

    The public assemblers hold ndarrays; assemble_lists holds float lists.
    """

    __slots__ = ()


class EigenSolution(namedtuple("EigenSolution", "eigenvalues eigenvectors")):
    """Ascending eigenvalues with quadrature-normalized eigenvectors (rows)."""

    __slots__ = ()


def uniform_grid(hi: float, n: int) -> Grid:
    """n interior nodes on (−hi, hi), whose width 2·hi and spacing must be
    positive doubles; n is an integer of at least 16."""
    if not hasattr(type(n), "__index__") or n < 16:
        raise InvalidCountError(
            f"need an integer count of at least 16 interior points, got {n!r}")
    h = (hi + hi) / (n + 1)
    if not (0.0 < h and hi + hi < math.inf):
        raise ValueError(f"need a half-width with 0 < 2*hi < inf whose "
                         f"spacing over {n + 1} intervals is above 0, got {hi}")
    return Grid(-hi, hi, n, h)


def build_grid(family: ShapeInvariantFamily, n: int,
               tail_tolerance: float = 1e-12) -> Grid:
    """Grid spanning the domain, or the region where the ground state lives.

    The unnormalized ground state (1 + s x²)^(−cα/2s) decays to
    tail_tolerance at x² = expm1(2sL/(cα))/s with L = −log t, whose s → 0
    limit 2L/(cα) is the Gaussian box.  Unbounded domains are truncated
    symmetrically there.  Compact domains keep their singular endpoints
    (grid nodes stay strictly interior, where the mass is positive), and
    are refused when fewer than 16 nodes, the least any grid may have,
    fall inside that box, as the grid cannot resolve the bound states, or
    when their outer nodes square past a double (require_inside).
    """
    if not 0.0 < tail_tolerance <= 1e-6:
        raise ValueError(
            f"tail tolerance must lie in (0, 1e-6], got {tail_tolerance}")
    profile = family.profile
    s = profile.s
    u = 2.0 * math.log(1.0 / tail_tolerance) / (profile.c * family.alpha0)
    try:
        # where s or s·u is subnormal, expm1(s·u)/s is u to working precision
        box2 = (math.expm1(s * u) / s
                if min(abs(s), abs(s * u)) >= sys.float_info.min else u)
    except OverflowError:
        box2 = math.inf
    if math.isfinite(profile.hi):
        grid = uniform_grid(profile.hi, n)
        box = math.sqrt(box2)
        # the nodes ascend and mirror, so those in (−box, box) are all but
        # the run at or below −box and its mirror image
        inside = max(0, n - 2 * bisect_right(range(1, n + 1), -box,
                                             key=grid.node))
        if inside < 16:
            raise InvalidCountError(
                f"grid spacing h = {grid.h:.3g} on the compact domain "
                f"(-{profile.hi:.3g}, {profile.hi:.3g}) leaves {inside} of "
                f"{n} nodes where the ground state exceeds the tail "
                f"tolerance {tail_tolerance:g} (|x| < {box:.3g}); at least 16 "
                f"are needed to resolve the bound states")
        # a subnormal s puts the walls past √DBL_MAX
        require_inside(profile, grid.node(1))
        return grid
    if not math.isfinite(box2):
        raise InvalidLambdaError(
            f"the ground state decays too slowly to reach the tail tolerance "
            f"{tail_tolerance:g} within the range of a double; "
            f"loosen the tail tolerance or weaken the deformation")
    return uniform_grid(math.sqrt(box2), n)


def refuse_overflow(top: float):
    """The refusal of an operator whose largest entry `top` squares past a double."""
    raise InvalidLambdaError(
        f"the discretized Hamiltonian overflows: its largest entry is "
        f"{top:.3g}, whose square leaves the range of a double; lower "
        f"alpha, weaken the deformation or coarsen the grid")


def _powers(ms: list, e: float) -> list:
    """mᵉ for each m: 1 for e = 0, 1.0/m for e = −1, m ** e otherwise."""
    if e == 0.0:
        return [1.0] * len(ms)  # pow(m, 0) is 1 for every m, even inf and NaN
    if e == -1.0:
        return [1.0 / m for m in ms]
    return [m ** e for m in ms]


def _mirrored(left: list, n: int) -> list:
    """left extended to n entries by its mirror image: entry n−1−i is entry i."""
    return left + left[:n - len(left)][::-1]


def mirrored_array(left, n: int, odd: bool):
    """The n entries of an even or odd vector from its first ⌈n/2⌉, `left`,
    as an array('d'): entry n−1−i is entry i, negated when `odd`."""
    from array import array  # verify, which stores no vector, never loads it
    out = array("d", left)
    tail = out[:n - len(out)]
    tail.reverse()
    out.extend(map(neg, tail) if odd else tail)
    return out


# rows of the left half that _stencil evaluates at a time
ROWS = 2048


def _stencil(family: ShapeInvariantFamily, grid: Grid,
             ordering: VonRoosOrdering = SYMMETRIC_ORDERING):
    """Rows of −¼(mᵃ D mᵇ D mᶜ + mᶜ D mᵇ D mᵃ) + V, on Python floats.

    The inner D mᵇ D is the conservative stencil with mᵇ at the n+1
    midpoints; the outer mass powers multiply rows and columns at the nodes.
    Returns (diag, off): the leading diagonal entries and couplings.  The
    two ordering terms are transposes of one another, so coupling i is
    −⅛ of the sum of its two composition orders, m_iᵃ w m_{i+1}ᶜ +
    m_iᶜ w m_{i+1}ᵃ with w = m_{i+½}ᵇ/h² and the same with m_i and m_{i+1}
    swapped: one value for both sides of the diagonal, symmetric by
    construction.  At the symmetric ordering (0, −1, 0) this is the
    conservative scheme for −(p φ′)′ with p = 1/(2m); its outer factors
    are exactly one, so their products are left out (the entries keep
    their bits).  A power or quotient that leaves the range of a double
    is refused as an overflow, as an infinite entry would be.

    The mass and the potential depend on x only through x·x, and the
    nodes and midpoints mirror bit for bit, so only the rows of the left
    half and the middle are evaluated and returned; the rest mirror them
    (see _mirrored), a mirrored coupling summing the same two orders
    swapped, which addition does not see, so the bands equal a full
    evaluation bit for bit.  The rows are evaluated ROWS at a time, and
    only the bands outlive a block.
    """
    h, n = grid.h, grid.n
    h2 = h * h
    rows, pairs = (n + 1) // 2, n // 2
    profile = family.profile
    unit = ordering.a == 0.0 and ordering.c == 0.0  # m⁰ = 1 at every node
    diag, off = [], []
    try:
        for lo in range(0, rows, ROWS):
            hi = min(lo + ROWS, rows)
            # rows lo … hi − 1 read nodes lo+1 … hi and midpoints lo … hi,
            # and their couplings node hi + 1, past the middle for the
            # last block, where it mirrors a node of the left half
            xs = grid.nodes(hi + 1, lo)
            ms = masses_on(profile, xs)
            mids = grid.midpoints(hi + 1, lo)
            w = _powers(masses_on(profile, mids), ordering.b)
            potential = potentials_on(family, xs, ms)
            # h² may underflow to 0
            win = [x / h2 for x in w[1:min(hi, pairs) - lo + 1]]
            if unit:
                diag += [0.5 * (wl + wr) / h2 + v
                         for wl, wr, v in zip(w, w[1:], potential)]
                off += [-0.125 * ((x + x) + (x + x)) for x in win]
            else:
                ma, mc = _powers(ms, ordering.a), _powers(ms, ordering.c)
                diag += [0.5 * a * c * (wl + wr) / h2 + v
                         for a, c, wl, wr, v in zip(ma, mc, w, w[1:], potential)]
                off += [-0.125 * ((a0 * x * c1 + c0 * x * a1)
                                  + (a1 * x * c0 + c1 * x * a0))
                        for a0, x, c1, c0, a1 in zip(ma, win, mc[1:], mc, ma[1:])]
    except (OverflowError, ZeroDivisionError):
        refuse_overflow(math.inf)
    return diag, off


def assemble_lists(family: ShapeInvariantFamily, grid: Grid,
                   ordering: VonRoosOrdering = SYMMETRIC_ORDERING) -> TridiagonalOperator:
    """The stencil of `ordering` with the confining potential V, as float lists.

    One off-diagonal list serves both sides of the diagonal (see _stencil),
    so the operator is symmetric exactly.  The eigensolver squares the
    entries, so an operator with an entry whose square overflows a double
    (or an infinite or NaN one) is refused with InvalidLambdaError.
    """
    diag, off = _stencil(family, grid, ordering)
    # the mirrored rows repeat these entries
    top = max(max(map(abs, diag)), max(map(abs, off)))
    # max() passes over a NaN that is not first; sum() propagates it
    if not math.isfinite(top * top) or math.isnan(sum(diag) + sum(off)):
        refuse_overflow(top)
    n = grid.n
    return TridiagonalOperator(_mirrored(diag, n), _mirrored(off, n - 1))


def _as_arrays(T: TridiagonalOperator) -> TridiagonalOperator:
    import numpy as np
    return TridiagonalOperator(np.array(T.diag), np.array(T.offdiag))


def assemble_sturm_liouville(family: ShapeInvariantFamily,
                             grid: Grid) -> TridiagonalOperator:
    """Conservative scheme for −(p φ′)′ + V φ with p = 1/(2m).

    p is evaluated at the n+1 midpoints, so row i and row i+1 share the
    same p_{i+½} value and the matrix is symmetric exactly, not merely up
    to roundoff.  The bands are ndarrays; assemble_lists gives the same
    entries as float lists, without numpy.  Kept for perfbench/ and the
    acceptance contract.
    """
    return _as_arrays(assemble_lists(family, grid))


def assemble_von_roos(family: ShapeInvariantFamily, ordering: VonRoosOrdering,
                      grid: Grid) -> TridiagonalOperator:
    """Discretize −¼(mᵃ D mᵇ D mᶜ + mᶜ D mᵇ D mᵃ) + V by composition.

    The two multiplication orders are transposes of one another, and each
    coupling is their sum, so the operator is symmetric exactly.  The
    bands are ndarrays, as for assemble_sturm_liouville.  Kept for
    perfbench/ and the acceptance contract.
    """
    return _as_arrays(assemble_lists(family, grid, ordering))


# === symmetric tridiagonal eigensolver ===

# Count passes allowed per eigenvalue.  Doubling up to the Gershgorin edge
# and bisecting back down to tol each take at most about 42 passes, since
# tol is 1e−12 of the norm; a predicted start adds one pass, its window
# starts at 64·tol, and Newton steps only shorten the rest.
_MAX_PASSES = 128


def _scale(d: list, o: list):
    """‖T‖∞ and the Gershgorin interval (glo, ghi) of T = (d, o).

    |dᵢ| + rᵢ is dᵢ + rᵢ or −(dᵢ − rᵢ), each rounded alike, so the norm is
    max(ghi, −glo) exactly.
    """
    def radii():  # |o_{i−1}| + |o_i|, generated for each pass, not stored
        return map(add, chain((0.0,), map(abs, o)), chain(map(abs, o), (0.0,)))
    glo = min(map(sub, d, radii()))
    ghi = max(map(add, d, radii()))
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


def _parity_blocks(diag: list, off: list) -> list:
    """The blocks (diag, off, off2) whose spectra make up that of T = (diag, off).

    off2[i] is the squared coupling of row i to row i − 1, with off2[0] = 0.
    When the bands are exactly mirror-symmetric and every coupling is
    negative, T with N = 2m or 2m + 1 rows splits into the even block E,
    which holds levels 0, 2, 4, …, and the odd block O, which holds
    levels 1, 3, 5, …:
    - N = 2m: both are the top m×m block of T, with the last diagonal entry
      d_{m−1} + o_{m−1} in E and d_{m−1} − o_{m−1} in O;
    - N = 2m + 1: E is the top (m+1)×(m+1) block with last squared coupling
      2·o_{m−1}² (the centre entry c of an even vector enters E as c/√2,
      which makes E symmetric), and O is the top m×m block.
    Any other T is one block, and so is a T whose corner 2·o_{m−1}²
    overflows.  The corner d ± o rounds once, so it moves the spectrum by
    at most one ulp of ‖T‖∞.  The first block's couplings include those
    of the second.
    """
    n = len(diag)
    m = n // 2
    half = off[:m]  # o_0 … o_{m−1}; the mirror image holds the rest
    if not (n > 1 and max(half) < 0.0 and half == off[:-m - 1:-1]
            and diag[:m] == diag[:-m - 1:-1]
            and (n % 2 == 0 or not math.isinf(2.0 * (half[-1] * half[-1])))):
        return [(diag, off, [0.0] + [b * b for b in off])]
    o = half.pop()
    off2 = [0.0] + [b * b for b in half]
    if n % 2 == 0:
        head = diag[:m - 1]
        return [(head + [diag[m - 1] + o], half, off2),
                (head + [diag[m - 1] - o], half, off2)]
    return [(diag[:m + 1], half + [math.sqrt(2.0) * o], off2 + [2.0 * (o * o)]),
            (diag[:m], half, off2)]


def _prepared(T: TridiagonalOperator, k: int):
    """(blocks, ‖T‖∞, glo, ghi): the _parity_blocks of T and the scale of T."""
    n = len(T.diag)
    if not 1 <= k <= n:
        raise InvalidCountError(
            f"asked for {k} eigenvalues of an operator with {n} rows; "
            f"between 1 and {n} can be found")
    # the assemblers' lists are used as they are; ndarrays and other
    # sequences are copied to Python floats
    diag, off = (band if type(band) is list else list(map(float, band))
                 for band in (T.diag, T.offdiag))
    blocks = _parity_blocks(diag, off)
    if math.isinf(max(blocks[0][2])):
        i = max(range(len(off)), key=lambda i: abs(off[i]))
        raise InvalidLambdaError(
            f"coupling {i} of the operator, {off[i]:.3g}, squares past the "
            f"largest double, and the eigensolver squares its couplings; "
            f"scale the operator down")
    # the rows of a mirror-symmetric T repeat, so its first half has its scale
    half = len(blocks[0][0]) if len(blocks) == 2 else n
    scale = _scale(diag[:half], off[:half])
    # T = 0 is exact; any other norm must square to a normal double
    if scale[0] and scale[0] * scale[0] < sys.float_info.min:
        raise InvalidLambdaError(
            f"the discretized Hamiltonian underflows: its infinity norm is "
            f"only {scale[0]:.3g}, and the eigensolver squares its entries, "
            f"which leaves the range of a double; raise alpha or refine the "
            f"grid")
    return (blocks, *scale)


def eigenvalue_list(T: TridiagonalOperator, k: int) -> list:
    """The k smallest eigenvalues of a symmetric tridiagonal matrix, ascending,
    as a list of floats.

    Each eigenvalue is certified by Sturm counts to lie in a bracket no
    wider than tol = 1e−12·‖T‖∞; the tolerance and the pivot floor are
    relative to ‖T‖∞.  An operator whose nonzero norm squares below the
    smallest normal double is refused with InvalidLambdaError, and T = 0
    gives exact zeros, and a coupling whose square overflows a double is
    refused with InvalidLambdaError too.

    A T whose bands are exactly mirror-symmetric and whose couplings are
    all negative is solved as its even and odd blocks of about N/2 rows
    (Cantoni and Butler 1976), whose levels alternate: level j is level
    j//2 of block j mod 2, each with its own brackets and Newton state,
    while prediction, the lower edge λ_{j−1} and tol = 1e−12·‖T‖∞ are
    those of the whole T.  The block corner d ± o rounds once, which moves
    a level by at most one ulp of ‖T‖∞.  Any other T is one block.  Every
    count narrows the brackets of all requested indices of its block at
    once (as in LAPACK dstebz).  From
    index 2 on, the first pass for λ_j is a slope pass at a prediction
    extrapolated through the last two certified eigenvalues (linear, for
    λ_2) or three (quadratic), when it lies in λ_j's bracket.  Index j's
    upper edge then comes from a doubling search up from the bracket's
    lower edge: for a predicted level it steps first by the predictor's
    error estimate, the larger of |quadratic − linear| (zero for λ_2),
    64·tol and twice the Newton step from the prediction, and by at least
    the last gap after a miss; otherwise it steps by the last gap.  A
    certified eigenvalue outside that window stops the prediction for the
    remaining indices, so irregular spectra fall back to the plain search
    at the cost of about one pass.  Once a bracket holds
    exactly one eigenvalue, the count pass also returns the slope of
    log|det(T − xI)| and safeguarded Newton steps replace bisection (Li and
    Zeng 1994): a step that leaves the bracket, or that is more than half
    the previous step for the same level (a creep next to a cluster), is a
    bisection, and a step below tol/4 is accepted only when counts at root ± tol/2 (or bracket
    edges already counted inside them) confine λ_j.  The result is that
    Newton root, also when the bracket closes below tol around it first; a
    bracket that narrows to tol without isolating one eigenvalue, as for a
    multiple eigenvalue, gives its midpoint.  Brackets
    are refined in ascending index order with λ_{j−1} as a lower edge, so
    the output is ascending and byte-for-byte reproducible.  More than
    128 count passes for one eigenvalue raise ConvergenceFailureError.
    """
    return _sturm_newton(*_prepared(T, k), k)


def _sturm_newton(blocks, norm_t, glo, ghi, k) -> list:
    """The k smallest eigenvalues of T from its _prepared blocks; see eigenvalue_list.

    Level j of T is level j // nb of block j mod nb, for nb blocks.
    """
    if norm_t == 0.0:
        return [0.0] * k  # T = 0
    nb = len(blocks)
    tol = 1e-12 * norm_t
    pivmin = 2.2e-16 * norm_t
    top = sys.float_info.max
    glo, ghi = max(glo - tol, -top), min(ghi + tol, top)

    # Per block, shared brackets lo[i] <= λ_i < hi[i] of its levels i, with
    # nlo[i] <= i < nhi[i] the block's counts there.  hi[i] = inf until a
    # count has shown an upper edge.  newton is the (x, slope) of the
    # block's latest slope pass.
    state = []
    for b, (diag, _, off2) in enumerate(blocks):
        kb = len(range(b, k, nb))
        state.append((diag, off2, [glo] * kb, [0] * kb,
                      [math.inf] * kb, [len(diag)] * kb, [None]))

    def count_at(x, st, i, slope):
        diag, off2, lo, nlo, hi, nhi, newton = st
        if slope:
            c, s = _neg_count_slope(diag, off2, x, pivmin)
            newton[0] = (x, s)
        else:
            c = _neg_count(diag, off2, x, pivmin)
        for r in range(i, len(lo)):
            if r < c:
                if x < hi[r]:
                    hi[r], nhi[r] = x, c
            elif x > lo[r]:
                lo[r], nlo[r] = x, c
        return c

    values = []
    predicting = True
    for j in range(k):
        st = state[j % nb]
        i = j // nb
        lo, nlo, hi, nhi, newton = st[2:]
        if j == 0:
            # Newton from below the spectrum never passes λ_0
            count_at(glo, st, 0, True)
            s = newton[0][1]
            step = -1.0 / s if s < 0.0 else 0.0
            prev = glo
        else:
            prev = values[-1]
            step = prev - (values[-2] if j > 1 else glo)
        gap = step = max(step, tol, math.ulp(prev))
        if predicting and j > 1:
            # extrapolate the certified levels: linear through two, then
            # quadratic through three; the last difference added estimates
            # the error and sizes the upper-edge window
            d1 = prev - values[-2]
            guess, window = prev + d1, 0.0
            if j > 2:
                d2 = d1 - (values[-2] - values[-3])
                guess, window = guess + d2, abs(d2)
            window = max(window, 64.0 * tol, math.ulp(guess))
            if max(lo[i], prev) < guess < hi[i]:
                count_at(guess, st, i, True)
                if newton[0][1]:
                    # widen to twice the Newton step from the guess
                    window = max(window, 2.0 / abs(newton[0][1]))
            step = window
        last = math.inf  # the latest Newton step for this level
        for _ in range(_MAX_PASSES):
            a, b = max(lo[i], prev), hi[i]
            if b == math.inf:
                # doubling search for the upper edge, at least by the gap
                # once the first step has missed
                count_at(min(a + step, ghi), st, i, False)
                step = max(2.0 * step, gap)
                continue
            root = None
            isolated = nlo[i] == i and nhi[i] == i + 1
            if isolated and newton[0] is not None and a <= newton[0][0] <= b:
                x0, s = newton[0]
                if s and a < x0 - 1.0 / s < b:
                    root = x0 - 1.0 / s
            mid = 0.5 * a + 0.5 * b  # 0.5·(a + b) overflows near the largest double
            if b - a <= tol or not a < mid < b:
                # bracket proven, or spacing exhausted; b < a only when
                # λ_j sits within tol below the returned λ_{j−1}
                values.append(max(mid, prev) if root is None else root)
                break
            if root is not None and abs(root - x0) < 0.25 * tol:
                # certify: counts on both sides within tol/2
                below, above = root - 0.5 * tol, root + 0.5 * tol
                ok = below <= lo[i] or count_at(below, st, i, False) <= i
                if ok and (above >= b or count_at(above, st, i, False) > i):
                    values.append(root)
                    break
                continue
            if root is not None:
                # a step that does not halve the previous one creeps, as
                # next to a cluster just above λ_j: bisect instead
                dx = abs(root - x0)
                if dx > 0.5 * last:
                    root = None
                last = dx
            count_at(mid if root is None else root, st, i, isolated)
        else:
            raise ConvergenceFailureError(
                j, f"eigenvalue search did not converge for index {j} "
                   f"within {_MAX_PASSES} count passes")
        if j > 1 and predicting:
            # a level outside its window ends prediction for the rest
            predicting = abs(values[-1] - guess) <= window
    return values


def _twisted(diag, off, sigma, pivmin):
    """The twisted factorization of T − σI as (D, R, r, γ_r).

    D and R hold the pivots of the top-down and the bottom-up sweep, each
    clamped to −pivmin inside ±pivmin as in _neg_count.  The twist r is the
    last row of least |γ_r| = |D_r − o_r²/R_{r+1}|; γ_r is clamped alike.
    """
    neg = -pivmin
    D, d = [], 1.0
    put = D.append
    for a, b in zip(diag, chain((0.0,), off)):
        d = a - sigma - b * b / d
        if neg < d < pivmin:
            d = neg
        put(d)
    R, x = [], 1.0
    put = R.append
    r, gamma, best = len(D) - 1, D[-1], abs(D[-1])
    for i, a, b, d in zip(count(len(diag) - 1, -1), reversed(diag),
                          chain((0.0,), reversed(off)), reversed(D)):
        q = b * b / x
        g = d - q
        if abs(g) < best:
            r, gamma, best = i, g, abs(g)
        x = a - sigma - q
        if neg < x < pivmin:
            x = neg
        put(x)
    R.reverse()
    return D, R, r, neg if best < pivmin else gamma


def _twisted_vector(diag, off, sigma, pivmin) -> list:
    """The z with z_r = 1 and (T − σI)z = γ_r e_r, for the _twisted twist r."""
    D, R, r, _ = _twisted(diag, off, sigma, pivmin)
    del D[r:], R[:r + 1]  # free the pivots z does not use
    z = 1.0
    out = [z]
    put = out.append
    for o, d in zip(islice(reversed(off), len(off) - r, None), reversed(D)):
        z = -(o / d) * z
        put(z)
    out.reverse()
    z = 1.0
    for o, x in zip(islice(off, r, None), R):
        z = -(o / x) * z
        put(z)
    return out


def _twisted_solve(diag, off, sigma, pivmin, rhs) -> list:
    """The x with (T − σI)x = rhs: both ends eliminated to the twist, then out."""
    D, R, r, gamma = _twisted(diag, off, sigma, pivmin)
    x = rhs[:]
    for i in range(1, r + 1):
        x[i] -= off[i - 1] / D[i - 1] * x[i - 1]
    for i in range(len(x) - 2, r - 1, -1):
        x[i] -= off[i] / R[i + 1] * x[i + 1]
    x[r] /= gamma
    for i in range(r - 1, -1, -1):
        x[i] = (x[i] - off[i] * x[i + 1]) / D[i]
    for i in range(r + 1, len(x)):
        x[i] = (x[i] - off[i - 1] * x[i - 1]) / R[i]
    return x


def _unfolded(u, n: int, odd: bool):
    """The n entries of the vector of T whose parity block holds u.

    Entry n−1−i mirrors entry i, negated for an odd vector.  The centre of
    an odd n is 0 in an odd vector and √2 times the last entry of u in an
    even one, whose block holds it as c/√2.
    """
    m = n // 2
    left = u[:m]
    if n % 2:
        left.append(0.0 if odd else math.sqrt(2.0) * u[m])
    return mirrored_array(left, n, odd)


def eigenpair_lists(T: TridiagonalOperator, k: int, h: float = 1.0):
    """k smallest eigenpairs of a symmetric tridiagonal matrix: a list of
    floats and a list of array('d') vectors.

    Eigenvalues as eigenvalue_list returns them.  Eigenvectors from
    one twisted factorization of T − λI (Dhillon and Parlett 2004): the z
    with z_r = 1 that solves (T − λI)z = γ_r e_r at the twist r of least
    |γ_r|.  An iterate that fails the residual check, or loses more than
    half its norm to Gram–Schmidt (a z of a multiple eigenvalue), is
    retried: the factors solve a seeded random vector, then the last
    iterate, up to 50 times.  A vector is accepted only when ‖Tv − λv‖∞ ≤
    1e−10·‖T‖∞, then normalized so h·Σv² = 1 with the largest-magnitude
    component positive, the last of equal magnitudes deciding.  A T split
    into parity blocks is solved on the block of each level, with
    Gram–Schmidt against the vectors of the same parity only, since
    vectors of opposite parity are exactly orthogonal; the block vector is
    then mirrored into the full one, negated for an odd state.  The two
    mirror peaks of an odd state then tie exactly, so its right peak is
    made positive, a sign that no roundoff in λ can flip.  That is the
    sign of the closed-form states (sampling.eigenfunction_lists), whose
    right tail is positive, wherever their outermost lobe is the largest,
    as for the oscillators here.  Scaling T by a power of two scales the
    eigenvalues alike and leaves the eigenvectors bit for bit.
    """
    from array import array  # as in mirrored_array
    blocks, norm_t, glo, ghi = _prepared(T, k)
    n = len(T.diag)
    del T  # the blocks hold what is needed of it
    eigenvalues = _sturm_newton(blocks, norm_t, glo, ghi, k)
    blocks = [block[:2] for block in blocks]  # the squared couplings go
    nb = len(blocks)
    # T = 0 keeps a pivot floor, the one of ‖T‖∞ = 1
    pivmin = 2.2e-16 * (norm_t or 1.0)
    accept = 1e-10 * norm_t
    # the power of two just above ‖T‖∞, capped at the largest one a double holds
    exponent = min(math.frexp(norm_t)[1], 1023)
    span, unit = math.ldexp(1.0, exponent), math.ldexp(1.0, exponent - 52)
    accepted = [[] for _ in blocks]  # per block, its accepted vectors
    vectors = []
    # a full vector's h-norm is nb·h times its block's squared 2-norm; so
    # are its inner products, and vectors of opposite parity are orthogonal
    weight = nb * h
    root_w = math.sqrt(weight)
    for j, lam in enumerate(eigenvalues):
        b = j % nb
        diag, off = blocks[b]
        w = _twisted_vector(diag, off, lam, pivmin)
        for attempt in range(50):
            before = math.hypot(*w) if accepted[b] else 0.0
            for u in accepted[b]:
                # project out the accepted vectors of this parity, for
                # which weight·u·u = 1, to keep the pairwise Gram at
                # roundoff; c is tiny, so a plain sum is accurate enough
                c = weight * sum(map(mul, w, u))
                w = [x - c * y for x, y in zip(w, u)]
            norm = math.hypot(*w)
            # an iterate that loses more than half its norm to the
            # projection is not taken: a z of a multiple eigenvalue, or a
            # solve into a cluster, whose remainder keeps the roundoff of
            # the part removed until it is solved once more
            kept = not norm < 0.5 * before
            if kept or attempt:
                if not 0.0 < norm < math.inf:
                    raise ConvergenceFailureError(
                        j, f"inverse iteration broke down for eigenvalue index {j}")
                v = [x / norm for x in w]
                # ‖Tv − λv‖∞, row i being (d_i v_i + o_i v_{i+1}) + o_{i−1} v_{i−1}
                if kept and max(abs(d * x + a * xn + c * xp - lam * x)
                                for d, x, a, xn, c, xp in zip(
                                    diag, v, chain(off, (0.0,)),
                                    chain(islice(v, 1, None), (0.0,)),
                                    chain((0.0,), off), chain((0.0,), v))) <= accept:
                    break
            if attempt == 0:
                # uniform on [−1, 1) from one seeded draw of 64-bit words,
                # times span; its norm only scales the solve, which then
                # comes out about 1/eps in size at every scale of T
                rows = len(diag)
                v = [(x >> 11) * unit - span for x in struct.unpack(
                    f"<{rows}Q", random.Random(1000 + j).randbytes(8 * rows))]
            w = _twisted_solve(diag, off, lam, pivmin, v)
        else:
            raise ConvergenceFailureError(
                j, f"inverse iteration stagnated for eigenvalue index {j}")
        del w  # the iterate goes before the next vector's is built
        # the largest-magnitude component of the full vector made positive,
        # the last of equal magnitudes deciding: the first one of the full
        # vector reversed.  A mirrored vector reversed begins with its block
        # vector, negated for an odd state, whose two mirror peaks tie
        # exactly, so its right peak sets the sign.  x/(−r) = −(x/r)
        head = v[::-1] if nb == 1 else v
        if nb == 2 and b == 0 and n % 2:
            head = v[:-1] + [math.sqrt(2.0) * v[-1]]
        top, bottom = max(head), min(head)
        first = top > -bottom or (top == -bottom and head.index(top) < head.index(bottom))
        # the first peak of −v is positive where that of v is not
        positive = first != (nb == 2 and b == 1)
        del head
        scale = root_w if positive else -root_w
        v = [x / scale for x in v]
        u = array("d", v)
        del v  # as the iterate, before the next vector's is built
        accepted[b].append(u)
        vectors.append(u if nb == 1 else _unfolded(u, n, b == 1))
    return eigenvalues, vectors


def eigen_tridiagonal(T: TridiagonalOperator, k: int, h: float = 1.0) -> EigenSolution:
    """eigenpair_lists as ndarrays; kept for perfbench/ and the acceptance contract."""
    import numpy as np
    eigenvalues, vectors = eigenpair_lists(T, k, h)
    return EigenSolution(np.asarray(eigenvalues), np.asarray(vectors))
