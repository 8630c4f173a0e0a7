"""Finite-difference oracle: Hamiltonian assembly and eigensolver.

The route to the spectrum here is deliberately independent of the algebraic
ladder: discretize H = −(d/dx) p(x) (d/dx) + V(x) with p = 1/(2m) on a
grid with Dirichlet ends, then find the low eigenvalues of the resulting
symmetric tridiagonal matrix.  The grids are those of `grid`: uniform,
or uniform in u with x = sinh(βu)/β or x = sin(βu)/β, where the stencil
is a finite-volume scheme, and build_grid sizes the box for the highest
level asked for.  Only the commands that solve (`spectrum`, `compare-ordering`
and numeric `eigenfunctions`) load this module.  Each
Sturm-count pass (the negative pivots of LDLᵀ of T − xI) narrows the
brackets of every requested eigenvalue at once; once a bracket holds a
single eigenvalue the same pass also yields the slope of
log|det(T − xI)|, and safeguarded Newton steps take over from bisection.
From the third eigenvalue on, the search starts at an extrapolation of
the eigenvalues already certified, which on these operators lies within
about 1e−6 of a level spacing.  The first three may start at predictions
the caller passes, as the CLI passes the closed-form energies: a
prediction is kept only where one slope pass there puts it next to its
level, and one that is not costs that pass and leaves no trace.  A
prediction picks the search's path, never what the counts certify, so
the oracle stays a check of the algebra, not a copy.  Every eigenvalue is
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
are only stored, the eigenvectors eigenpair_lists returns, are
array('d'), at 8 bytes a value where a list of floats takes 32.  An
even or odd one is a grid.MirroredArray, which stores only its first
⌈N/2⌉ entries and its parity: the eigenvectors of a split operator keep
their block vector as that half.  An
eigenvector is accepted only at a finite nonzero norm, so none holds a
NaN, whose text has no sign to mirror.  The public assemblers and
eigen_tridiagonal return ndarrays, and import numpy when called; nothing
in the package calls them.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from collections import namedtuple
from itertools import chain, count, islice, repeat
from operator import add, mul, sub, truediv

from .errors import (
    ConvergenceFailureError,
    InvalidCountError,
    InvalidLambdaError,
    LengthMismatchError,
    refuse_overflow,
)
from .families import (
    SYMMETRIC_ORDERING,
    ShapeInvariantFamily,
    VonRoosOrdering,
    masses_on,
    potentials_on,
)
# build_grid stays bound here, where perfbench/trace_boot.py looks it up
from .grid import Grid, MirroredArray, _node_weights, build_grid


class TridiagonalOperator(namedtuple("TridiagonalOperator", "diag offdiag")):
    """Symmetric tridiagonal matrix (diag, offdiag).

    The public assemblers hold ndarrays; assemble_lists holds float lists.
    """

    __slots__ = ()


class EigenSolution(namedtuple("EigenSolution", "eigenvalues eigenvectors")):
    """Ascending eigenvalues with quadrature-normalized eigenvectors (rows)."""

    __slots__ = ()


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
            edges = grid.node(range(lo, hi + 3))
            xs = edges[1:-1]
            ms = masses_on(profile, xs)
            mids = grid.midpoint(range(lo, hi + 1))
            w = _powers(masses_on(profile, mids), ordering.b)
            potential = potentials_on(family, xs, ms)
            couplings = min(hi, pairs) - lo
            if grid.map:
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
# tol is 1e−12 of the norm; a predicted start adds one pass, and a
# caller's prediction that is not kept one more, its window starts at
# 64·tol, and Newton steps only shorten the rest.
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


def eigenvalue_list(T: TridiagonalOperator, k: int, predictions=None) -> list:
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
    once (as in LAPACK dstebz).

    predictions, if given, is a sequence of guesses at λ_0, λ_1, …; only
    the first three are read, and a shorter one leaves the rest
    unpredicted.  A finite prediction p_j of λ_j, j ≤ 2, inside λ_j's
    bracket, which lies inside the Gershgorin interval, takes one slope
    pass at p_j.  The pass is kept where its count puts p_j between λ_j's
    neighbours in its block and its Newton step heads for λ_j, stays
    inside the bracket and spans at most a quarter of p_j's height above
    the bracket's lower edge: it narrows the brackets, Newton starts at
    p_j, and the first step of the doubling search is twice that Newton
    step.  A pass not kept changes nothing, and λ_j starts as it would
    without p_j, one pass later; a NaN, ±inf or out-of-bracket p_j takes
    no pass.  Every value is then certified by the rules below, so a
    prediction picks the path, never what is certified, and without
    predictions the result is the one the solver gave before it took
    them, bit for bit.

    Unpredicted, from index 2 on, the first pass for λ_j is a slope pass
    at a prediction extrapolated through the last two certified
    eigenvalues (linear, for λ_2) or three (quadratic), when it lies in
    λ_j's bracket.  Index j's upper edge comes from a doubling search up
    from the bracket's lower edge.  Its first step, at least tol, is the
    Newton step from the Gershgorin edge glo for λ_0, λ_0 − glo for λ_1,
    and from λ_2 on the predictor's error estimate: the larger of
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
    return _sturm_newton(*_prepared(T, k), k, predictions)


def _sturm_newton(blocks, norm_t, glo, ghi, k, predictions=None) -> list:
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
    predictions = () if predictions is None else predictions

    # Per block, shared brackets lo[i] <= λ_i < hi[i] of its levels i, with
    # nlo[i] <= i < nhi[i] the block's counts there.  hi[i] = inf until a
    # count has shown an upper edge.  newton is the (x, slope) of the
    # block's latest slope pass.
    state = []
    for b, (diag, _, off2) in enumerate(blocks):
        kb = len(range(b, k, nb))
        state.append((diag, off2, [glo] * kb, [0] * kb,
                      [math.inf] * kb, [len(diag)] * kb, [None]))

    def narrow(x, c, st, i):
        # the count c at x bounds every level from i on
        lo, nlo, hi, nhi = st[2:6]
        for r in range(i, len(lo)):
            if r < c:
                if x < hi[r]:
                    hi[r], nhi[r] = x, c
            elif x > lo[r]:
                lo[r], nlo[r] = x, c

    def count_at(x, st, i, slope):
        diag, off2, newton = st[0], st[1], st[6]
        if slope:
            c, s = _neg_count_slope(diag, off2, x, pivmin)
            newton[0] = (x, s)
        else:
            c = _neg_count(diag, off2, x, pivmin)
        narrow(x, c, st, i)
        return c

    values = []
    for j in range(k):
        st = state[j % nb]
        i = j // nb
        lo, nlo, hi, nhi, newton = st[2:]
        prev = glo if j == 0 else values[-1]
        # a prediction of level 0, 1 or 2 inside its bracket: one slope
        # pass there, kept only where it is next to λ_j and its Newton
        # step is short, and otherwise without a trace
        guess = predictions[j] if j < 3 and j < len(predictions) else math.nan
        predicted = False
        a = max(lo[i], prev)
        if a < guess < min(hi[i], ghi):
            c, s = _neg_count_slope(st[0], st[1], guess, pivmin)
            if s and c in (i, i + 1):
                root = guess - 1.0 / s
                dx = root - guess if c == i else guess - root
                predicted = 0.0 < dx <= 0.25 * (guess - a) and root < hi[i]
        if predicted:
            newton[0] = (guess, s)
            narrow(guess, c, st, i)
            step = 2.0 * dx  # twice the Newton step
        elif j == 0:
            # Newton from below the spectrum never passes λ_0
            count_at(glo, st, 0, True)
            s = newton[0][1]
            step = -1.0 / s if s < 0.0 else 0.0
        elif j == 1:
            step = prev - glo
        else:
            # extrapolate linearly through two certified levels, then
            # quadratically through three, whose last term sizes the window
            d1 = prev - values[-2]
            guess, step = prev + d1, 64.0 * tol
            if j > 2:
                d2 = d1 - (values[-2] - values[-3])
                guess, step = guess + d2, max(step, abs(d2))
            if a < guess < hi[i]:
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
    """The vector of T whose parity block holds u, an array('d'), as a
    MirroredArray that keeps u as its left half.

    The centre of an odd n is 0 in an odd vector, appended to u, and √2
    times the last entry of u in an even one, whose block holds it as c/√2.
    """
    if n % 2:
        if odd:
            u.append(0.0)
        else:
            u[-1] *= math.sqrt(2.0)
    return MirroredArray(u, n, odd)


def eigenpair_lists(T: TridiagonalOperator, k: int, h=1.0, predictions=None):
    """k smallest eigenpairs of a symmetric tridiagonal matrix: a list of
    floats and a list of vectors, each an array('d'), or a MirroredArray
    where T splits into parity blocks.

    h holds the node weights w of the quadrature Σ w_i f_i g_i, as
    Grid.weights gives them: one scalar for every node, or a sequence of
    N, each in (0, inf).  T is taken to be W^(−½)KW^(−½) + V, as the
    assemblers build it, and each returned vector is φ = W^(−½)ṽ for the
    eigenvector ṽ of T with Σṽ² = 1, so that Σ w_i φ_i² = 1; Gram–Schmidt
    runs on ṽ, in T's own frame.

    Eigenvalues as eigenvalue_list returns them, from the same
    predictions, which pick the search's path, never what is certified.
    Eigenvectors from the twisted factorization of T − λI (Dhillon and
    Parlett 2004): the twisted vector is the solve of γ_r e_r, the z with
    z_r = 1 at the twist r of least |γ_r|.  A z that fails the residual
    check, or loses more than half its norm to Gram–Schmidt (a z of a
    multiple eigenvalue), is retried: the same solve takes a seeded random
    vector, each row of level j drawn by random.Random(1000 + j).uniform on
    [−span, span), span the power of two just above ‖T‖∞ (at most 2¹⁰²²),
    then the last iterate, each retry projected twice (Giraud, Langou and
    Rozložník 2005), up to 50 solves in all, each one checked.  A vector
    is accepted when ‖Tv − λv‖∞ ≤ 1e−10·‖T‖∞, then normalized with its
    largest-magnitude component positive, the last of equal magnitudes
    deciding; a scalar h is one factor of that normalization.  A T split
    into parity blocks is solved on the block of each level, with
    Gram–Schmidt against the vectors of the same parity only, since
    vectors of opposite parity are exactly orthogonal; the block vector
    is scaled by the weights of its rows, which must mirror as the bands
    do (the grid's weights mirror bit for bit), and becomes the stored
    half of a MirroredArray, mirrored (negated for an odd state) only
    when read.  The two
    mirror peaks of an odd state then tie exactly, so its right peak is
    made positive, a sign that no roundoff in λ can flip.  That is the
    sign of the closed-form states (sampling.eigenfunction_lists), whose
    right tail is positive, wherever their outermost lobe is the largest,
    as for the oscillators here.  Scaling T by a power of two scales the
    eigenvalues alike and leaves the eigenvectors bit for bit.
    """
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
        # the block rows' weights stand for their mirror images, so a
        # split operator takes the roots of the left half's only
        m = n // 2
        if nb == 2 and list(h[:m]) != list(h[:-m - 1:-1]):
            raise ValueError("the node weights of an operator that splits "
                             "into parity blocks must mirror as its bands do")
        roots = [math.sqrt(w) for w in h[:n - m if nb == 2 else n]]
    eigenvalues = _sturm_newton(blocks, norm_t, glo, ghi, k, predictions)
    blocks = [block[:2] for block in blocks]  # the squared couplings go
    # T = 0 keeps a pivot floor, the one of ‖T‖∞ = 1
    pivmin = 2.2e-16 * (norm_t or 1.0)
    accept = 1e-10 * norm_t
    # the power of two just above ‖T‖∞, capped where 2·span is still a double
    span = math.ldexp(1.0, min(math.frexp(norm_t)[1], 1022))
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
                # random.Random(1000 + j).uniform on [−span, span): −span
                # plus 2·span times a multiple of 2⁻⁵³, exact on a grid of
                # step span·2⁻⁵², so it scales with T; its norm only scales
                # the solve, which then comes out about 1/eps in size
                draw = random.Random(1000 + j).uniform
                v = [draw(-span, span) for _ in diag]
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
    # its weighted one is made, so no level is held twice
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
