"""Discrete intertwining operators and the SUSY residual suite: `verify`.

A = (1/√(2m)) d/dx + W and its adjoint connect the partner Hamiltonians:
H₋ = A†A, H₊ = AA†, AH₋ = H₊A, and H₊(α₁) = H₋(α₂) + R(α₁).  Here A is a
tridiagonal operator (centered difference plus diagonal), and every
operator and state is taken in the stencil's symmetric frame ṽ = W^½φ,
W the grid's node weights (Grid.weights): H̃ = W^(−½)KW^(−½) + V, K
discrete's stencil, and Ã = W^½AW^(−½), whose exact transpose IS the
adjoint under those weights, on a uniform grid and on a mapped one
alike.  On a uniform grid W is h, which cancels in every residual's
ratio: nothing is rescaled, and no sum carries it.  Every identity is
checked by applying both of its sides to sampled states, never by
forming an operator product: the analytic identities carry O(h²)
residuals.  The superalgebra of Q = [[0, 0], [A, 0]] is not measured:
{Q, Q} = {Q†, Q†} = 0 and {Q, Q†} = diag(A†A, AA†) hold for any A, so
superalgebra_offdiag is reported as an exact 0 against a zero tolerance
(the tests prove the identity symbolically).

This is the only module of the package that imports numpy when it is
loaded (discrete's ndarray wrappers import it when called).  The
eigenvalue path, the exact polynomials and the closed-form samples of
`eigenfunctions` (`sampling`) run on Python floats and integers, so
every command but `verify` runs without numpy; `verify` evaluates on
grids of up to 200000 nodes, where Python floats would cost about 25
times as much.  It imports errors, families and grid before numpy: with
numpy loaded first, compiling grid raised a `verify` request's peak RSS
by 0.6–0.8 MB (tests/test_numpy_boundary.py pins the order).

verify_all walks the rows of the left half of the grid and, on an odd
grid, the centre row, in blocks of ROWS rows, each with a halo of two
rows on either side, since no identity applies more than two
tridiagonal operators in a row; the last block reads across the centre.
Every mass law is even and W odd (families), and the grid's nodes and
midpoints mirror bit for bit (Grid), so the operators and states mirror
and each row's squares stand for its mirror image's too: a row counts
twice, and the centre row once.  verify relies on that parity as
discrete's stencil, both samplers and the CSV writer do; the tests pin
it bit for bit for every closed form and every grid.  So the overflow
refusal's running extents over the walked rows are those of the whole
grid.  Per block it evaluates the nodes, with one more at each end for
the node weights, the bands of H₋, H₊ and H (one shared kinetic part),
of A(α₀) and A(α₁) (shared off-bands), and the test states.  They go
into the rows of one array, allocated once per call at the longest
block's length and refilled by every block (the shorter last block uses
the front of each row); rows whose arrays are done with hold the next
ones, so a block holds 13 rows, 14 on a mapped grid, besides the
residuals' temporaries.  Every entry is formed by the same IEEE
operations as in a fresh array.  Index arrays go to Grid.node and
Grid.midpoint, whose operations are the same per entry on either map,
so a block's entries are the whole grid's, bit for bit.  _states_at
runs families.hermite_rows on ndarrays and yields each state H_n·φ₀·2^−e
with the exponent e of the power of two its block divided it by, so a
block's states are the whole grid's up to one power of two per block.
Every identity is linear in the state, so the states are not
normalized: each block's scaled sums of squares of each residual and
each state, exponents raised by the block's e, are merged into running
sums, and ‖(L − R)v‖/‖v‖ is formed at the end.  The divisions and the
doublings are exact, so a grid of one block reproduces the sums over the
walked rows of the whole grid's residuals exactly, and more blocks
change only how those sums round.  A row's residual and its mirror
image's round apart, by a few units in the last place of the products
that form them, so the ratios differ from those over every row by the
relative size of that rounding (2e−9 at N = 4000, 1e−4 at N = 100000,
where the intertwinings sit on their roundoff floor).  No array as long
as the grid is made, and the blocks' arrays stay in a core's cache.

Two evaluations here restate others.  _kinetic_bands is discrete's
float stencil at the symmetric ordering, on ndarrays for speed, less the
m⁰ = 1 products, which the float stencil multiplies exactly: the same
IEEE operations in the same order, so their entries agree bit for bit on
either map.
eigenfunction_samples (_states_at on one whole-grid block, normalized)
is sampling.eigenfunction_lists from the same recurrence, and the tests'
reference for it; exp, log1p and the norm's sum differ, so the two agree
to within a few ulps of max|φ_n|.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

# errors, families and grid are compiled before numpy is loaded, not after
# it: in that order a `verify` request's peak RSS is 0.6-0.8 MB lower
from .errors import InvalidLambdaError, LengthMismatchError, refuse_overflow
from .families import (
    RESCALE_BELOW,
    ShapeInvariantFamily,
    alpha_at,
    hermite_rows,
    lowest_levels,
    mass_at,
    potential_full,
    potential_minus,
    potential_plus,
    remainder,
    require_bound,
    rescale_exponent,
    require_inside,
    require_resolved,
)
from .grid import Grid

import numpy as np


# === the grid samples and the stencil, on any run of nodes ===

def inner_product(f, g, grid: Grid) -> float:
    """∫fg dx as Σ w_i f_i g_i in the grid's node weights (Grid.weights),
    h·Σ f_i g_i on a uniform grid; Dirichlet ends contribute zero."""
    if len(f) != len(g) or len(f) != grid.n:
        raise LengthMismatchError(
            f"lengths {len(f)}, {len(g)} do not match grid size {grid.n}")
    return float(np.dot(np.multiply(grid.weights(), f), g))


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


def _rows(out, count: int, length: int):
    """The first `count` rows of the 2-D array `out`, cut to `length`
    entries, or `count` fresh rows where out is None."""
    if out is None:
        out = np.empty((count, length))
    return out[:count, :length]


def _states_at(family: ShapeInvariantFamily, count: int, x, out=None):
    """Yields (H_n(ζ, q)·φ_0·2^−e, e) at the nodes x for n = 0 … count − 1,
    with ζ = √(cα)·x.

    The states are not normalized, and families.hermite_rows chooses the
    divisions 2^e from these nodes alone.  ζ, φ_0 and the recurrence's
    two rows H_{m−1}, H_m take the first four rows of `out` (five rows of
    len(x) entries at least, fresh by default), and each state the fifth,
    which the next overwrites: the recurrence uses it as scratch.  H_0,
    a row of ones, is written only after ζ and φ_0 are formed, so its row
    may hold x until then.
    """
    zeta, g, *pair, state = _rows(out, 5, len(x))
    np.copyto(g, ground_state_unnormalized(family, x))
    np.multiply(math.sqrt(family.profile.c * family.alpha0), x, out=zeta)
    pair[0].fill(1.0)

    def step(a, z, cur, b, prev):
        # a·ζ·H_m − b·H_{m−1} into the row that does not hold H_m
        new = pair[1] if cur is pair[0] else pair[0]
        np.multiply(np.multiply(a, z, out=state), cur, out=state)
        np.multiply(b, prev, out=new)
        return np.subtract(state, new, out=new)

    for h, e in hermite_rows(family, count, zeta, pair[0], step,
                             lambda v: float(np.max(np.abs(v))),
                             lambda v, k: np.ldexp(v, k, out=v)):
        yield np.multiply(h, g, out=state), e


def eigenfunction_samples(family: ShapeInvariantFamily, n: int, grid: Grid):
    """φ_n(x) = N_n H_n(ζ, q) φ_0(x) sampled on the grid, with ζ = √(cα)·x.

    The leading coefficient of H_n, Π_{m<n}(2 − (2m+1)q), is positive for
    every bound level, so the right tail of φ_n is positive.  N_n makes
    the norm inner_product(φ_n, φ_n, grid) one, in the grid's node
    weights (endpoints are implicit zeros).
    """
    require_bound(family, n)
    # a level past a double overflows here and its norm refuses it; the
    # error state stays out of the _states_at generator
    x = grid.node(np.arange(1, grid.n + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for phi, _ in _states_at(family, n + 1, x):
            pass
    norm = math.sqrt(inner_product(phi, phi, grid))
    if norm < RESCALE_BELOW:  # a level sampled only far out in its tails
        np.ldexp(phi, rescale_exponent(float(np.max(np.abs(phi)))), out=phi)
        norm = math.sqrt(inner_product(phi, phi, grid))
    require_resolved(norm, n)
    return phi / norm


class Frame(namedtuple("Frame", "edges d g r")):
    """The nodes x = edges[1:-1] of a run of rows, with one more node at
    each end, and the symmetric frame ṽ = W^½φ on them: the node weights
    d_i = (x_{i+1} − x_{i−1})/2 (grid._node_weights), the coupling
    scales g_i = √(d_i d_{i+1}) and the factors r_i = √d_i that take a
    state into the frame.  On a uniform grid d and g are h and r is 1:
    nothing is rescaled, and h cancels in every residual's ratio."""

    __slots__ = ()


def _frame(grid: Grid, first: int, stop: int, out=None) -> Frame:
    """The Frame of rows first … stop − 1, nodes first + 1 … stop, in the
    rows of `out` in the order edges, d, g, r (rows of stop − first + 2
    entries at least, one on a uniform grid and four on a mapped one;
    fresh by default)."""
    m = stop - first
    out = _rows(out, 4, m + 2)
    edges = grid.node(np.arange(first, stop + 2), out=out[0])
    if not grid.map:
        return Frame(edges, grid.h, grid.h, 1.0)
    d = np.subtract(edges[2:], edges[:-2], out=out[1, :m])
    d *= 0.5
    g = np.multiply(d[:-1], d[1:], out=out[2, :m - 1])
    return Frame(edges, d, np.sqrt(g, out=g), np.sqrt(d, out=out[3, :m]))


def _kinetic_bands(grid: Grid, frame: Frame, w, out=None):
    """(diag, offdiag) of the kinetic stencil on the rows of a Frame, in
    that Frame: D^(−½)KD^(−½), from w, 1/m at the rows' midpoints (one
    more than the Frame has rows), which a mapped grid divides in place by
    the spacings.

    discrete's stencil at the symmetric ordering (0, −1, 0), less its
    products with the outer mass powers m⁰ = 1, which the float stencil
    multiplies exactly; what remains is the same sequence of operations
    on the same inputs (Grid.midpoint, and the spacings and weights of
    these nodes), on either map.  Where w mirrors, as 1/m of an even mass
    law does, the mirrored rows' bands are these reversed, bit for bit:
    the mirror image of an interval has its width, and that of a node
    its weight (Grid's invariant), and sums and products of two entries
    commute; verify_all relies on it.  The potential adds to diag.
    Entries past a double are inf, as are 1/m where m underflows to 0 and
    1/h² where h² does, and 0/0 is NaN: the overflow refusal names them
    all, as the float stencil does.
    The bands take the first two rows of `out` and the spacings the third
    (three rows of one more entry than the Frame has rows, at least;
    fresh by default).
    """
    edges, d, g, _ = frame
    m = len(edges) - 2
    diag, off, dx = _rows(out, 3, m + 1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if grid.map:  # the finite-volume scheme: m⁻¹/(x_{i+1} − x_i)
            w /= np.subtract(edges[1:], edges[:-1], out=dx)
        else:
            d = g = d * d  # h², in one rounding, as the float stencil
        diag = np.add(w[:-1], w[1:], out=diag[:m])
        diag *= 0.5
        diag /= d
        # −(win + win + win + win)/8, win = w/g, as two exact doublings
        win = np.divide(w[1:-1], g, out=off[:m - 1])
        win += win
        win += win
        win *= -0.125
        return diag, win


def _band_extent(diag, offdiag, prior):
    """(max |entry|, NaN seen) over both bands and the extent `prior` of
    other rows, (nan, False) for none: what the overflow refusal reads.
    fmax passes over a NaN, so the maximum is NaN only where every entry
    is; the sums propagate it, and overflow or meet inf − inf only where an
    entry squares past a double, which the refusal names anyway."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (float(np.fmax.reduce([prior[0], np.fmax.reduce(np.abs(diag)),
                                      np.fmax.reduce(np.abs(offdiag))])),
                prior[1] or math.isnan(np.sum(diag) + np.sum(offdiag)))


def _representable(extent) -> bool:
    """No NaN seen, and the largest entry squares to a double."""
    return math.isfinite(extent[0] * extent[0]) and not extent[1]


def _require_representable(extent):
    """Refuses an operator of this _band_extent that is not _representable,
    or whose nonzero largest entry squares below the smallest normal double
    (the eigensolver's rule for the norm), naming that entry."""
    top = extent[0]
    if not _representable(extent):
        refuse_overflow(top)
    if top and top * top < sys.float_info.min:
        raise InvalidLambdaError(
            f"the discretized Hamiltonian underflows: its largest entry is "
            f"only {top:.3g}, whose square falls below the smallest normal "
            f"double; raise alpha or refine the grid")


# === tridiagonal operators applied to states ===

class Banded(namedtuple("Banded", "lower diag upper")):
    """Tridiagonal operator: the ndarray diag and the bands below and above
    it, one entry shorter: lower[k] is at row k + 1, column k.

    `B @ v` applies the operator to a vector: diag·v, then the lower band's
    products, then the upper band's.  Operators are only ever applied,
    never multiplied, so A†A v is `Aᵀ @ (A @ v)`.  Transposition only swaps
    the off-bands, so the adjoint is exact.
    """

    __slots__ = ()

    def transpose(self) -> "Banded":
        return Banded(self.upper, self.diag, self.lower)

    def __matmul__(self, v):
        out = self.diag * v
        out[1:] += self.lower * v[:-1]
        out[:-1] += self.upper * v[1:]
        return out


class ResidualEntry(namedtuple("ResidualEntry", "value tolerance")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance


# Per residual, (tolerance at α = 1, power p).  The tolerances are
# calibrated at grid_n = 4000 and alpha = 1 on the reference deformations;
# the identity residuals there sit at 1e-3 or below and shrink ~4x per
# h-halving.
#
# At fixed q the box is ∝ 1/√(cα), so A ~ √α and H ~ α, and each residual
# grows as α^p: a check passes when value ≤ tolerance·α^p.  At α = 1 the
# scale is exactly 1.  superalgebra_offdiag is an identity for any A (see
# the module docstring): it is never measured and reports its exact 0.
RESIDUAL_TOLERANCES = {
    "factorization": (5e-3, 1.0),
    "annihilation": (1e-4, 0.5),
    "intertwine_minus": (5e-3, 1.5),
    "intertwine_plus": (5e-3, 1.5),
    "superalgebra_offdiag": (0.0, 0.0),
    "shift_identity": (5e-3, 1.0),
}


# rows per block of verify_all's walk over the left half: its 13 or 14
# rows of block arrays and the residuals' half-dozen temporaries (32 KB
# each) then take 0.6 MB, which sets a `verify` request's peak RSS.  On a
# 2-core Xeon (one BLAS thread, best of 7) the walk takes 33.5 ms at
# N = 200000 (case3 λ 0.3, uniform); blocks of 8192 rows take 26.6 ms,
# but twice the memory.
ROWS = 4096
# every identity applies at most two tridiagonal operators in a row, so a
# block's own rows are exact given two more rows on each side
HALO = 2


def _ladders(family: ShapeInvariantFamily, frame: Frame, alphas,
             out=None) -> list:
    """W^½AW^(−½), A(α) = diag(1/√(2m))·D_central + diag(W(·; α)), on
    the nodes x of a Frame, for each α in alphas; they share
    their off-bands ±s_i/(2g_i), s = 1/√(2m), which are 1/(2h) times s on
    a uniform grid.  In the frame A† is A.transpose(), the adjoint under
    the node weights, and at the ends of x the centered difference drops
    the exterior (zero) neighbor.  The off-bands and the diagonals take
    the rows of `out` in that order (2 + len(alphas) rows of len(x)
    entries at least, fresh by default)."""
    x = frame.edges[1:-1]
    m = len(x)
    lower, upper, *diags = _rows(out, 2 + len(alphas), m)
    # s holds the last diagonal's row until the diagonals are formed
    s = np.sqrt(np.multiply(2.0, mass_at(family.profile, x), out=diags[-1]),
                out=diags[-1])
    np.divide(1.0, s, out=s)
    inv2g = np.divide(1.0, np.multiply(2.0, frame.g, out=upper[:m - 1]),
                      out=upper[:m - 1])
    lower = np.multiply(np.negative(s[1:], out=lower[:m - 1]), inv2g,
                        out=lower[:m - 1])
    upper = np.multiply(s[:-1], inv2g, out=inv2g)
    for alpha, diag in zip(alphas, diags):
        np.copyto(diag, superpotential_at(family, alpha, x))
    return [Banded(lower, diag, upper) for diag in diags]


# === residual measurement on smooth states ===

def _scaled_sq_norm(v, shift: int, centre: bool):
    """(Σ(u/2^e)², e + shift) of the rows u of v and of their mirror
    images, 2^e > max|v|: each entry of v counts twice, and the last one
    once where `centre` says it is the grid's centre row, its own mirror
    image.  The scaling and the doubling are exact.

    That is the pair of u·2^shift.  Dividing by a power of two near the
    largest entry before squaring does not move ordinary residuals, and
    the squares cannot overflow at a large α.  v is scaled in place, with
    no temporary; it must not be read again.
    """
    _, e = math.frexp(max(float(v.max()), -float(v.min())))
    np.ldexp(v, -e, out=v)
    body = v[:len(v) - centre]
    c = float(v[-1]) if centre else 0.0
    return 2.0 * float(np.dot(body, body)) + c * c, e + shift


def _merged(a, b):
    """_scaled_sq_norm of a vector, from those of its two parts.

    Both sums are rescaled to the larger exponent of a nonzero part,
    exactly unless they fall below the smallest normal double, and added
    in one rounding.  (0.0, 0) is the pair of no part: merged with a part,
    it leaves that part's sum as it is.
    """
    e = max((ep for rr, ep in (a, b) if rr), default=0)
    return sum(math.ldexp(rr, 2 * (ep - e)) for rr, ep in (a, b)), e


def _block_hamiltonians(family: ShapeInvariantFamily, grid: Grid,
                        first: int, frame: Frame, out=None):
    """The bands of H₋, H₊ and H on rows first, first + 1, … in their
    Frame: three diagonals and their shared kinetic off-diagonal.

    H∓ are assembled from the closed-form partner potentials, not from the
    ladder, so the intertwinings exercise the Riccati forms independently.
    c·α² may overflow to inf, and inf·0 at a centre node is nan; the
    overflow refusal names both.  H's diagonal, the off-diagonal, H₋'s
    and H₊'s diagonals take the rows of `out` in that order (four rows of
    one more entry than the Frame has rows, at least; fresh by default):
    H₋'s after _kinetic_bands' spacings, H₊'s after the midpoints' 1/m,
    and H's after the kinetic diagonal.
    """
    x = frame.edges[1:-1]
    m = len(x)
    out = _rows(out, 4, m + 1)
    w = grid.midpoint(np.arange(first, first + m + 1), out=out[3])
    a0 = family.alpha0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.divide(1.0, mass_at(family.profile, w), out=w)
        kinetic, off = _kinetic_bands(grid, frame, w, out=out)
        minus = np.add(kinetic, potential_minus(family, a0, x), out=out[2, :m])
        plus = np.add(kinetic, potential_plus(family, a0, x), out=out[3, :m])
        kinetic += potential_full(family, x)
    return [minus, plus, kinetic], off


def _identity_residuals(ops, v, ground: bool, e0: float, r: float):
    """Yields (name, residual) of each identity on the state v, one at a time.

    ops is (A, A†, A(α₁), A†(α₁), H₋, H₊, H) on a block; Av and A†v are
    applied once and shared.  Each residual is subtracted in place into
    one of its own products, which rounds as the fresh difference does.
    """
    a, ad, a_next, ad_next, h_minus, h_plus, h = ops
    av, adv = a @ v, ad @ v
    # A†A = H − E₀
    res = h @ v
    res -= e0 * v
    yield "factorization", np.subtract(ad @ av, res, out=res)
    del res  # each residual is dropped before the next is formed
    # AH₋ = H₊A and A†H₊ = H₋A†
    res = a @ (h_minus @ v)
    res -= h_plus @ av
    yield "intertwine_minus", res
    del res
    res = ad @ (h_plus @ v)
    res -= h_minus @ adv
    yield "intertwine_plus", res
    del res
    # A(α₀)A†(α₀) = A†(α₁)A(α₁) + R(α₀)
    res = ad_next @ (a_next @ v)
    res += r * v
    yield "shift_identity", np.subtract(a @ adv, res, out=res)
    # Aφ₀ = 0; last, since _scaled_sq_norm overwrites Av
    if ground:
        yield "annihilation", av


def state_count(family: ShapeInvariantFamily) -> int:
    """How many test states verify_all takes: lowest_levels(family, 5).
    `verify` sizes its grid for the highest."""
    return lowest_levels(family, 5)


def verify_all(family: ShapeInvariantFamily, grid: Grid) -> dict:
    """{name: ResidualEntry} for every residual, in RESIDUAL_TOLERANCES'
    order, each judged against its α = 1 tolerance times α^p.

    Each entry keeps the raw residual value and the scaled tolerance.
    The residuals are taken on the rows of the left half and the centre,
    each counted for its mirror image too: the mass law is even and W
    odd, so the operators and states mirror, a parity the tests pin bit
    for bit and that is relied on here, as discrete's stencil and both
    samplers rely on it.  H₋, then H₊, then H is refused by
    _require_representable, by its largest entry on the whole grid, if it
    holds a NaN or an entry that squares past a double (residual work
    stops at the first block where one does), or if that entry is nonzero
    and squares below the smallest normal double.  Then a state that is
    zero at every node is refused.  The states of state_count(family) are
    tested, on any grid, in the symmetric frame of its node weights
    (Frame).
    """
    count = state_count(family)
    n, a0 = grid.n, family.alpha0
    a1, e0, r = alpha_at(family, 1), 0.5 * a0, remainder(family, a0)
    # the rows walked: the left half, and the centre row of an odd n
    half = n - n // 2
    # the running _merged pair of each (residual, state) and of each state
    sums, norms = {}, [(0.0, 0)] * count
    # one running _band_extent each for H₋, H₊ and H
    extents = [(math.nan, False)] * 3
    # every block's arrays, in rows as long as the longest block's edges,
    # refilled block by block: the Hamiltonians' bands (rows 0–3), the
    # ladders' (4–7), the states' rows (8–12) and on a mapped grid the
    # Frame's r (13).  Rows 10–12 hold the Frame's edges, d and g until
    # the states are taken; _states_at reads the nodes in row 10 before
    # it writes H_0's ones there
    work = np.empty((14 if grid.map else 13,
                     min(n, half + HALO, ROWS + 2 * HALO) + 2))
    for lo in range(0, half, ROWS):
        hi = min(lo + ROWS, half)
        first, stop = max(0, lo - HALO), min(n, hi + HALO)
        frame = _frame(grid, first, stop, out=work[10:])
        diags, off = _block_hamiltonians(family, grid, first, frame,
                                         out=work[:4])
        extents = [_band_extent(diag, off, ext)
                   for ext, diag in zip(extents, diags)]
        # past a block where an operator overflows, only its refusal is left
        if not all(map(_representable, extents)):
            continue
        a, a_next = _ladders(family, frame, (a0, a1), out=work[4:8])
        ops = (a, a.transpose(), a_next, a_next.transpose(),
               *(Banded(off, d, off) for d in diags))
        own = slice(lo - first, hi - first)
        # one-sided edge rows are artifacts of the stencil, not of the
        # algebra; the last row walked may be the centre, counted once
        trim = slice(max(lo, 2) - first, hi - first)
        centre = n % 2 == 1 and hi == half
        states = _states_at(family, count, frame.edges[1:-1], out=work[8:13])
        for k, (v, e) in enumerate(states):
            v *= frame.r
            if trim.start < trim.stop:
                for name, res in _identity_residuals(ops, v, k == 0, e0, r):
                    sums[name, k] = _merged(
                        sums.get((name, k), (0.0, 0)),
                        _scaled_sq_norm(res[trim], e, centre))
                    del res  # free before the next residual is formed
            # last, since _scaled_sq_norm overwrites v's own rows
            norms[k] = _merged(norms[k], _scaled_sq_norm(v[own], e, centre))
    for ext in extents:  # H₋, then H₊, then H, as they are assembled
        _require_representable(ext)
    for k, (vv, _) in enumerate(norms):
        require_resolved(vv, k)
    values = dict.fromkeys(RESIDUAL_TOLERANCES, 0.0)
    for (name, k), (rr, er) in sums.items():
        vv, ev = norms[k]
        values[name] = max(values[name], math.ldexp(
            math.sqrt(rr) / math.sqrt(vv), er - ev))
    return {name: ResidualEntry(values[name], tolerance * a0 ** power)
            for name, (tolerance, power) in RESIDUAL_TOLERANCES.items()}
