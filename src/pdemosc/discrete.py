"""Finite-difference oracle: grids, Hamiltonian assembly, eigensolver.

The route to the spectrum here is deliberately independent of the algebraic
ladder: discretize H = −(d/dx) p(x) (d/dx) + V(x) with p = 1/(2m) on a
grid with Dirichlet ends, then find the low eigenvalues of the resulting
symmetric tridiagonal matrix.  A grid is uniform, or uniform in u with
x = sinh(βu)/β, where the stencil is a finite-volume scheme and
build_grid sizes the box for the highest level asked for.  Each
Sturm-count pass (the negative pivots of LDLᵀ of T − xI) narrows the
brackets of every requested eigenvalue at once; once a bracket holds a
single eigenvalue the same pass also yields the slope of
log|det(T − xI)|, and safeguarded Newton steps take over from bisection.
From the third eigenvalue on, the search starts at an extrapolation of
the eigenvalues already certified, which on these operators lies within
about 1e−6 of a level spacing.  Every eigenvalue is
certified by counts to lie in a bracket no wider than 1e−12·‖T‖∞, a
tolerance relative to the operator, so the spectrum scales with it down
to the underflow refusal.  Eigenvectors, where a caller wants them, come
from one twisted factorization of T − λI per level (Parlett and Dhillon
1997): the twisted vector is the solve of γ_r e_r; inverse iteration on
its factors follows only where it is rejected.  Nothing here knows about
superpotentials or polynomials.

Every mass law and potential here is even, and every grid is a box
centred at 0 whose nodes mirror bit for bit, so the assembled
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
value where a list of floats takes 32.  A column built with
mirrored_array records its parity, and the CSV writer formats only the
left half of a table of such columns; an eigenvector is accepted only at
a finite nonzero norm, so none holds a NaN, whose text has no sign to
mirror.  The public assemblers and eigen_tridiagonal return ndarrays,
and import numpy when called; nothing in the package calls them.
"""

from __future__ import annotations

import math
import random
import struct
import sys
from bisect import bisect_right
from collections import namedtuple
from functools import cache
from itertools import chain, count, islice, repeat
from operator import add, mul, neg, sub, truediv

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
    masses_on,
    potentials_on,
    require_bound,
    require_inside,
    unified_deformation,
)


# entries per run of an index array that Grid.node and Grid.midpoint
# take through math.sinh: a run's results take one array of this length
SINH_CHUNK = 1024


class Grid(namedtuple("Grid", "hi n h beta", defaults=(0.0,))):
    """Interior grid of n nodes, uniform in u with spacing h on (−hi, hi),
    at x = sinh(βu)/β, or at x = u where beta is 0; the endpoints carry
    implicit zeros.

    Node i (1 ≤ i ≤ n) is at u = h·(i − (n+1)/2) and midpoint i
    (0 ≤ i ≤ n) at u = h·(i − n/2), so node n+1−i is −(node i) and
    midpoint n−i is −(midpoint i) bit for bit (sinh is odd); an even mass
    law and potential then give exactly mirror-symmetric bands, which the
    eigensolver splits into parity blocks.  `node` and `midpoint` take an
    index or an ndarray of indices, through the same IEEE operations
    (math.sinh entry by entry on a mapped grid, SINH_CHUNK entries at a
    time), so an array of nodes is `nodes()` bit for bit; an array goes
    into `out` where one of its length is given.  `nodes()` and
    `midpoints()` list runs of them as floats.  Node 0 and node n+1 are
    the walls, at about ∓`wall`.

    `weights()` is the one node-weight rule, the w_i of the quadrature
    Σ w_i f_i g_i of ∫fg dx: the scalar h on a uniform grid, a factor
    outside the sum, and the list of finite-volume weights
    d_i = (x_{i+1} − x_{i−1})/2 on a mapped one, which mirror bit for bit.
    """

    __slots__ = ()

    def _x(self, u):
        b = self.beta
        return math.sinh(b * u) / b if b else u

    def _x_at(self, i, mid: float, out):
        """x at u = h·(i − mid) of an index i, or of an ndarray of them."""
        if not hasattr(i, "__len__"):
            return self._x(self.h * (i - mid))
        import numpy as np
        u = np.subtract(i, mid, out=out)
        u *= self.h
        b = self.beta
        if b:
            u *= b
            # a memoryview yields the floats math.sinh takes, and no list of
            # them is made; a run's results are stored before the next's
            for k in range(0, len(u), SINH_CHUNK):
                run = u[k:k + SINH_CHUNK]
                np.divide(np.fromiter(map(math.sinh, memoryview(run)), float,
                                      len(run)), b, out=run)
        return u

    def node(self, i, out=None):
        return self._x_at(i, 0.5 * (self.n + 1), out)

    def midpoint(self, i, out=None):
        return self._x_at(i, 0.5 * self.n, out)

    @property
    def wall(self) -> float:
        """x at u = hi: where the box ends, hi itself on a uniform grid."""
        return self._x(self.hi)

    def nodes(self, stop: int | None = None, start: int = 0) -> list:
        """Nodes start+1 … stop (1 … n by default) as floats."""
        h, mid = self.h, 0.5 * (self.n + 1)
        stop = self.n if stop is None else stop
        return self._xs([h * (i - mid) for i in range(start + 1, stop + 1)])

    def midpoints(self, stop: int, start: int = 0) -> list:
        """Midpoints start … stop − 1 as floats."""
        h, mid = self.h, 0.5 * self.n
        return self._xs([h * (i - mid) for i in range(start, stop)])

    def _xs(self, us: list) -> list:
        b = self.beta
        return [math.sinh(b * u) / b for u in us] if b else us

    def weights(self):
        """h on a uniform grid, the list of n weights d_i on a mapped one."""
        if self.beta:
            return _node_weights(self.nodes(self.n + 1, -1))
        return self.h


def _node_weights(edges: list) -> list:
    """d_i = (x_{i+1} − x_{i−1})/2 of the nodes x between the first and the
    last of `edges`, a run of consecutive nodes."""
    return [0.5 * (r - l) for l, r in zip(edges, edges[2:])]


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
    return Grid(hi, n, h)


def _level_box(q: float, n: int, tail: float) -> float:
    """ζ² past the peak where the envelope ζⁿ·g of level n ≥ 1 falls to
    `tail` times its peak, or inf past the range of a double.

    g = (1 + qζ²)^(−1/2q) is the ground factor, e^(−ζ²/2) at q = 0, and
    the envelope peaks at ζ² = n/(1 − nq).  With ℓ(v) = −2·log g at
    ζ² = v, the root of n·w − ℓ(eʷ) = (its peak value) + 2·log(tail) is
    bisected in w = log ζ² down to adjacent doubles: the left side is
    concave in w and falls past the peak, so the root is unique.
    """
    def ell(v):
        qv = q * v
        # where q·v is subnormal, log1p(q·v)/q is v to working precision
        return math.log1p(qv) / q if qv >= sys.float_info.min else v

    if not n * q < 1.0:
        # n < 1/q − 1/2, but n·q rounds to 1 for q below 2.2e−16: a level
        # past 4e15, whose box is far past any grid that could hold it
        return math.inf
    peak = n / (1.0 - n * q)
    lo, hi = math.log(peak), math.log(0.5 * sys.float_info.max)
    drop = n * lo - ell(peak) + 2.0 * math.log(tail)

    def above(w):
        return n * w - ell(math.exp(w)) > drop

    if above(hi):
        return math.inf
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
        mid = 0.5 * (lo + hi)
    return math.exp(hi)


def build_grid(family: ShapeInvariantFamily, n: int,
               tail_tolerance: float = 1e-12,
               n_max: int | None = None) -> Grid:
    """Grid spanning the domain, or the region where the bound states live.

    The unnormalized ground state (1 + s x²)^(−cα/2s) decays to
    tail_tolerance at x² = expm1(2sL/(cα))/s with L = −log t, whose s → 0
    limit 2L/(cα) is the Gaussian box.  Without n_max, unbounded domains
    are truncated symmetrically there, on a uniform grid.  With the
    highest level n_max (a bound one, see require_bound), an unbounded
    domain (s ≥ 0) ends where the envelope ζⁿ·g of level n = n_max,
    ζ = √(cα)·x, falls to the tail tolerance of its peak (_level_box;
    the ground-state box at n = 0), and its nodes are x = sinh(βu)/β,
    uniform in u, with β = √(cα) the oscillator length: fine near the
    well and as coarse as the power-law tails of s > 0 allow.  A box
    past the range of a double is refused, never capped.  Compact
    domains keep their singular endpoints on a uniform grid (grid nodes
    stay strictly interior, where the mass is positive), and are refused
    when fewer than 16 nodes, the least any grid may have, fall inside
    the ground-state box, as the grid cannot resolve the bound states, or
    when their outer nodes square past a double (require_inside).
    """
    if not 0.0 < tail_tolerance <= 1e-6:
        raise ValueError(
            f"tail tolerance must lie in (0, 1e-6], got {tail_tolerance}")
    if n_max is not None:
        require_bound(family, n_max)
    profile = family.profile
    s = profile.s
    c_alpha = profile.c * family.alpha0
    u = 2.0 * math.log(1.0 / tail_tolerance) / c_alpha
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
    if n_max:
        box2 = _level_box(unified_deformation(family), n_max,
                          tail_tolerance) / c_alpha
    if not math.isfinite(box2):
        level = f"level {n_max}" if n_max else "the ground state"
        raise InvalidLambdaError(
            f"{level} decays too slowly to reach the tail tolerance "
            f"{tail_tolerance:g} within the range of a double; "
            f"loosen the tail tolerance or weaken the deformation")
    if n_max is None:
        return uniform_grid(math.sqrt(box2), n)
    beta = math.sqrt(c_alpha)
    return uniform_grid(math.asinh(beta * math.sqrt(box2)) / beta,
                        n)._replace(beta=beta)


def refuse_overflow(top: float):
    """The refusal of an operator with a NaN or an entry squaring past a
    double, `top` its largest number: nan if `top` squares to a double."""
    if math.isfinite(top * top):
        top = math.nan
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


@cache
def _mirrored_type():
    from array import array  # verify, which stores no vector, never loads it
    return type("MirroredArray", (array,), {"__slots__": ("odd",)})


def mirrored_array(left, n: int, odd: bool):
    """The n entries of an even or odd vector from its first ⌈n/2⌉, `left`,
    as an array('d') that records its parity in `.odd`: entry n−1−i is
    entry i, negated when `odd`."""
    out = _mirrored_type()("d", left)
    out.odd = odd
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
    are m⁰ = 1, whose products are exact.  A power or quotient that
    leaves the range of a double is refused as an overflow, as the
    eigensolver refuses an infinite entry.

    On a mapped grid the scheme is the finite-volume one: with
    κ_{i+½} = m_{i+½}ᵇ/(x_{i+1} − x_i) and the grid's node weight d_i
    (Grid.weights, read from _node_weights on the run of nodes a block
    holds), row i takes (κ_{i−½} + κ_{i+½})/d_i and coupling i takes
    κ_{i+½}/√(d_i d_{i+1}) where a uniform grid has m_{i±½}ᵇ/h².  That is
    D^(−½)(the stencil)D^(−½) + V, symmetric for every ordering, and its
    eigenvectors are those of the generalized problem in D^(½) (see
    eigenpair_lists).

    The mass and the potential depend on x only through x·x, and the
    nodes and midpoints mirror bit for bit, so only the rows of the left
    half and the middle are evaluated and returned; the rest mirror them
    (see _mirrored), a mirrored coupling summing the same two orders
    swapped, which addition does not see, and the spacings and weights
    of mirrored nodes rounding alike, so the bands equal a full
    evaluation bit for bit.  The rows are evaluated ROWS at a time, and
    only the bands outlive a block; returning frees the last block before
    assemble_lists mirrors the bands (traced peak 1.70 MB at N = 32000,
    2.06–2.14 MB with the mirroring in this function).
    """
    h, n = grid.h, grid.n
    h2 = h * h
    rows, pairs = (n + 1) // 2, n // 2
    profile = family.profile
    diag, off = [], []
    try:
        for lo in range(0, rows, ROWS):
            hi = min(lo + ROWS, rows)
            # rows lo … hi − 1 read nodes lo+1 … hi and midpoints lo … hi,
            # and their couplings node hi + 1, past the middle for the
            # last block, where it mirrors a node of the left half; the
            # mapped spacings and weights also read nodes lo and hi + 2
            edges = grid.nodes(hi + 2, lo - 1)
            xs = edges[1:-1]
            ms = masses_on(profile, xs)
            mids = grid.midpoints(hi + 1, lo)
            w = _powers(masses_on(profile, mids), ordering.b)
            potential = potentials_on(family, xs, ms)
            couplings = min(hi, pairs) - lo
            if grid.beta:
                w = [m / (r - l) for m, l, r in zip(w, edges, xs)]
                scale = _node_weights(edges)
                win = [x / math.sqrt(d0 * d1) for x, d0, d1 in
                       zip(w[1:couplings + 1], scale, scale[1:])]
            else:
                scale = repeat(h2)
                # h² may underflow to 0
                win = [x / h2 for x in w[1:couplings + 1]]
            ma, mc = _powers(ms, ordering.a), _powers(ms, ordering.c)
            diag += [0.5 * a * c * (wl + wr) / d + v
                     for a, c, wl, wr, d, v in zip(ma, mc, w, w[1:], scale,
                                                   potential)]
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
    so the operator is symmetric exactly.  An entry that leaves the range
    of a double is left inf or NaN, for the eigensolver to refuse.
    """
    diag, off = _stencil(family, grid, ordering)
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
    # the assemblers' lists are used as they are; ndarrays and other
    # sequences are copied to Python floats
    diag, off = (band if type(band) is list else list(map(float, band))
                 for band in (T.diag, T.offdiag))
    n = len(diag)
    if len(off) != n - 1:
        raise LengthMismatchError(f"an operator with {n} diagonal entries "
                                  f"needs {n - 1} couplings, got {len(off)}")
    blocks = _parity_blocks(diag, off)
    # the rows of a mirror-symmetric T repeat, so its first half holds
    # every entry's value and its scale
    half = len(blocks[0][0]) if len(blocks) == 2 else n
    diag, off = diag[:half], off[:half]
    # every entry finite and every squared coupling (the first block's) a double
    if not all(map(math.isfinite, chain(diag, off, blocks[0][2]))):
        refuse_overflow(max((abs(x) for x in chain(diag, off)
                             if not math.isnan(x)), default=math.nan))
    if not hasattr(type(k), "__index__") or not 1 <= k <= n:
        raise InvalidCountError(
            f"asked for {k!r} eigenvalues of an operator with {n} rows; "
            f"between 1 and {n} can be found")
    scale = _scale(diag, off)
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
    gives exact zeros; one with an entry that is not finite or a coupling
    whose square is not a double is refused by refuse_overflow, bands
    whose lengths are not (N, N − 1) with LengthMismatchError, and a k
    that is not an integer in [1, N] with InvalidCountError.

    A T whose bands are exactly mirror-symmetric and whose couplings are
    all negative is solved as its even and odd blocks of about N/2 rows
    (Cantoni and Butler 1976), whose levels alternate: level j is level
    j//2 of block j mod 2, each with its own brackets and Newton state,
    while prediction, the lower edge λ_{j−1} and tol = 1e−12·‖T‖∞ are
    those of the whole T.  The block corner d ± o rounds once, which moves
    a level by at most one ulp of ‖T‖∞.  Any other T is one block.  Every
    count narrows the brackets of all requested indices of its block at
    once (as in LAPACK dstebz).  From index 2 on, the first pass for λ_j
    is a slope pass at a prediction extrapolated through the last two
    certified eigenvalues (linear, for λ_2) or three (quadratic), when it
    lies in λ_j's bracket.  Index j's upper edge comes from a doubling
    search up from the bracket's lower edge.  Its first step, at least
    tol, is the Newton step from the Gershgorin edge glo for λ_0, λ_0 − glo
    for λ_1, and from λ_2 on the predictor's error estimate: the larger of
    |quadratic − linear| (zero for λ_2), 64·tol and twice the Newton step
    from the prediction.  Every step then doubles the last.  Once a
    bracket holds exactly one eigenvalue, the count pass also returns the
    slope of log|det(T − xI)| and safeguarded Newton steps replace
    bisection (Li and Zeng 1994): a step that leaves the bracket, or that
    is more than half the previous step for the same level (a creep next
    to a cluster), is a bisection, and a step below tol/4 is accepted only
    when counts at root ± tol/2 (or bracket edges already counted inside
    them) confine λ_j.  The result is that Newton root, also when the
    bracket closes below tol around it first; a bracket that narrows to
    tol without isolating one eigenvalue, as for a multiple eigenvalue,
    gives its midpoint.  Brackets are refined in ascending index order
    with λ_{j−1} as a lower edge, so the output is ascending and
    byte-for-byte reproducible.  More than 128 count passes for one
    eigenvalue raise ConvergenceFailureError.
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
    for j in range(k):
        st = state[j % nb]
        i = j // nb
        lo, nlo, hi, nhi, newton = st[2:]
        if j == 0:
            # Newton from below the spectrum never passes λ_0
            count_at(glo, st, 0, True)
            s = newton[0][1]
            prev, step = glo, -1.0 / s if s < 0.0 else 0.0
        elif j == 1:
            prev, step = values[0], values[0] - glo
        else:
            # extrapolate linearly through two certified levels, then
            # quadratically through three, whose last term sizes the window
            prev = values[-1]
            d1 = prev - values[-2]
            guess, step = prev + d1, 64.0 * tol
            if j > 2:
                d2 = d1 - (values[-2] - values[-3])
                guess, step = guess + d2, max(step, abs(d2))
            if max(lo[i], prev) < guess < hi[i]:
                count_at(guess, st, i, True)
                if newton[0][1]:
                    # widen to twice the Newton step from the guess
                    step = max(step, 2.0 / abs(newton[0][1]))
        step = max(step, tol)
        last = math.inf  # the latest Newton step for this level
        for _ in range(_MAX_PASSES):
            a, b = max(lo[i], prev), hi[i]
            if b == math.inf:
                # doubling search for the upper edge
                count_at(min(a + step, ghi), st, i, False)
                step += step
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
                f"eigenvalue search did not converge for index {j} "
                f"within {_MAX_PASSES} count passes")
    return values


def _twisted_solve(diag, off, sigma, pivmin, rhs=None) -> list:
    """The x with (T − σI)x = rhs, from the twisted factorization of T − σI;
    without rhs, the z with z_r = 1 and (T − σI)z = γ_r e_r.

    The pivots of the top-down and the bottom-up sweep, D and R, are each
    clamped to −pivmin inside ±pivmin as in _neg_count.  The twist r is the
    last row of least |γ_r| = |D_r − o_r²/R_{r+1}|; γ_r is clamped alike.
    Both ends of rhs are eliminated to row r, which γ_r then divides, and
    the solve runs outward from r on the pivots it still needs.  For γ_r e_r
    the eliminations are empty, so x starts as e_r.
    """
    neg = -pivmin
    D, d = [], 1.0
    put = D.append
    for a, b in zip(diag, chain((0.0,), off)):
        d = a - sigma - b * b / d
        if neg < d < pivmin:
            d = neg
        put(d)
    R, d = [], 1.0
    put = R.append
    r, gamma, best = len(D) - 1, D[-1], abs(D[-1])
    for i, a, b, p in zip(count(len(diag) - 1, -1), reversed(diag),
                          chain((0.0,), reversed(off)), reversed(D)):
        q = b * b / d
        g = p - q
        if abs(g) < best:
            r, gamma, best = i, g, abs(g)
        d = a - sigma - q
        if neg < d < pivmin:
            d = neg
        put(d)
    R.reverse()
    if rhs is not None:
        x = rhs[:]
        for i in range(1, r + 1):
            x[i] -= off[i - 1] / D[i - 1] * x[i - 1]
        for i in range(len(x) - 2, r - 1, -1):
            x[i] -= off[i] / R[i + 1] * x[i + 1]
        x[r] /= neg if best < pivmin else gamma
    del D[r:], R[:r + 1]  # free the pivots the outward solve does not use
    if rhs is None:
        x = [0.0] * len(diag)
        x[r] = 1.0
    # x_i/d − (o/d)·x_next is −(o/d)·x_next where x_i is 0, but for the
    # sign of a zero
    for i, d in zip(range(r - 1, -1, -1), reversed(D)):
        x[i] = x[i] / d - off[i] / d * x[i + 1]
    for i, d in zip(count(r + 1), R):
        x[i] = x[i] / d - off[i - 1] / d * x[i - 1]
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


def eigenpair_lists(T: TridiagonalOperator, k: int, h=1.0):
    """k smallest eigenpairs of a symmetric tridiagonal matrix: a list of
    floats and a list of array('d') vectors.

    h holds the node weights w of the quadrature Σ w_i f_i g_i, as
    Grid.weights gives them: one scalar for every node, or a sequence of
    N, each in (0, inf).  T is taken to be W^(−½)KW^(−½) + V, as the
    assemblers build it, and each returned vector is φ = W^(−½)ṽ for the
    eigenvector ṽ of T with Σṽ² = 1, so that Σ w_i φ_i² = 1; Gram–Schmidt
    runs on ṽ, in T's own frame.

    Eigenvalues as eigenvalue_list returns them.  Eigenvectors from the
    twisted factorization of T − λI (Dhillon and Parlett 2004): the
    twisted vector is the solve of γ_r e_r, the z with z_r = 1 at the
    twist r of least |γ_r|.  A z that fails the residual check, or loses
    more than half its norm to Gram–Schmidt (a z of a multiple
    eigenvalue), is retried: the same solve takes a seeded random vector,
    then the last iterate, each retry projected twice (Giraud, Langou and
    Rozložník 2005), up to 50 solves in all, each one checked.  A vector
    is accepted when ‖Tv − λv‖∞ ≤ 1e−10·‖T‖∞, then normalized with its
    largest-magnitude component positive, the last of equal magnitudes
    deciding; a scalar h is one factor of that normalization.  A T split
    into parity blocks is solved on the block of each level, with
    Gram–Schmidt against the vectors of the same parity only, since
    vectors of opposite parity are exactly orthogonal; the block vector
    is scaled by the weights of its rows, which must mirror as the bands
    do (the grid's weights mirror bit for bit), and then mirrored into
    the full one, negated for an odd state.  The two
    mirror peaks of an odd state then tie exactly, so its right peak is
    made positive, a sign that no roundoff in λ can flip.  That is the
    sign of the closed-form states (sampling.eigenfunction_lists), whose
    right tail is positive, wherever their outermost lobe is the largest,
    as for the oscillators here.  Scaling T by a power of two scales the
    eigenvalues alike and leaves the eigenvectors bit for bit.
    """
    from array import array  # as in mirrored_array
    n = len(T.diag)
    per_node = hasattr(type(h), "__len__")
    if per_node and len(h) != n:
        raise LengthMismatchError(f"an operator with {n} rows needs {n} "
                                  f"node weights, got {len(h)}")
    for w in h if per_node else (h,):
        if not 0.0 < w < math.inf:
            raise ValueError(f"need a node weight h with 0 < h < inf, got {w}")
    blocks, norm_t, glo, ghi = _prepared(T, k)
    del T  # the blocks hold what is needed of it
    nb = len(blocks)
    if per_node:
        # the block rows' weights stand for their mirror images
        m = n // 2
        if nb == 2 and list(h[:m]) != list(h[:-m - 1:-1]):
            raise ValueError("the node weights of an operator that splits "
                             "into parity blocks must mirror as its bands do")
        roots = [math.sqrt(w) for w in h]
    eigenvalues = _sturm_newton(blocks, norm_t, glo, ghi, k)
    blocks = [block[:2] for block in blocks]  # the squared couplings go
    # T = 0 keeps a pivot floor, the one of ‖T‖∞ = 1
    pivmin = 2.2e-16 * (norm_t or 1.0)
    accept = 1e-10 * norm_t
    # the power of two just above ‖T‖∞, capped at the largest one a double holds
    exponent = min(math.frexp(norm_t)[1], 1023)
    span, unit = math.ldexp(1.0, exponent), math.ldexp(1.0, exponent - 52)
    accepted = [[] for _ in blocks]  # per block, its accepted vectors
    # a full vector's squared 2-norm is nb times its block's, times h for a
    # scalar h; so are its inner products, and vectors of opposite parity
    # are orthogonal
    weight = nb if per_node else nb * h
    root_w = math.sqrt(weight)
    for j, lam in enumerate(eigenvalues):
        b = j % nb
        diag, off = blocks[b]
        v = None  # the first solve is of γ_r e_r
        for attempt in range(50):
            w = _twisted_solve(diag, off, lam, pivmin, v)
            before = math.hypot(*w) if accepted[b] and not attempt else 0.0
            # project out the accepted vectors of this parity, for which
            # weight·u·u = 1; c is tiny, so a plain sum is accurate enough.
            # A retry, solved into a cluster, is projected twice ("twice is
            # enough", Giraud, Langou and Rozložník 2005)
            for _ in range(2 if attempt else 1):
                for u in accepted[b]:
                    c = weight * sum(map(mul, w, u))
                    w = [x - c * y for x, y in zip(w, u)]
            norm = math.hypot(*w)
            # z is not taken if it loses more than half its norm to the
            # projection, as the z of a multiple eigenvalue does; a retry
            # (before = 0) is taken on its residual alone
            if not norm < 0.5 * before:
                if not 0.0 < norm < math.inf:
                    raise ConvergenceFailureError(
                        f"inverse iteration broke down for eigenvalue index {j}")
                v = [x / norm for x in w]
                # ‖Tv − λv‖∞, row i being (d_i v_i + o_i v_{i+1}) + o_{i−1} v_{i−1}
                if max(abs(d * x + a * xn + c * xp - lam * x)
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
        else:
            raise ConvergenceFailureError(
                f"inverse iteration stagnated for eigenvalue index {j}")
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

    def weighted(u):
        # φ = W^(−½)ṽ on the rows of u, once Gram–Schmidt is done with ṽ
        return array("d", map(truediv, u, roots)) if per_node else u

    if nb == 1:
        return eigenvalues, [weighted(u) for u in accepted[0]]
    # the block vectors are unfolded level by level, each one dropped as
    # its full vector is built, so no level is held twice
    for vs in accepted:
        vs.reverse()
    return eigenvalues, [
        _unfolded(weighted(accepted[j % 2].pop()), n, j % 2 == 1)
        for j in range(len(eigenvalues))]


def eigen_tridiagonal(T: TridiagonalOperator, k: int, h=1.0) -> EigenSolution:
    """eigenpair_lists as ndarrays; kept for perfbench/ and the acceptance contract."""
    import numpy as np
    eigenvalues, vectors = eigenpair_lists(T, k, h)
    return EigenSolution(np.asarray(eigenvalues), np.asarray(vectors))
