"""Grid geometry, shared by the closed-form side and the eigensolver.

A Grid is a box centred at 0 whose n interior nodes are uniform in u,
at x = u, x = sinh(βu)/β or x = sin(βu)/β, and whose nodes mirror bit
for bit; build_grid sizes it for a family, on the ground-state box or on
the level box of the highest level asked for, or for the energies of the
levels up to it, and Grid.weights is the one node-weight rule of every
sum over its nodes.  The level box and the energy box are bisected in
log ζ² by one rule, _bisect_log; the energy box's wall shift takes H_{n−1}
and H_n from families.hermite_rows, its one run of the recurrence, and
φ'/φ from the structure relation.  A MirroredArray stores
only the first ⌈n/2⌉ entries of an even or odd vector on such a grid.

`sampling`, `susy`, the algebraic `eigenfunctions` and `verify` take
their grids and columns from here and never load `discrete`, which holds
the stencil and the eigensolver and builds on this module.  Everything
here runs on Python floats; Grid.node and Grid.midpoint import numpy only
when given an array of indices, and MirroredArray only when copied into
one.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import chain, islice
from operator import neg

from .errors import InvalidCountError, InvalidLambdaError, LengthMismatchError
from .families import (
    ShapeInvariantFamily,
    hermite_rows,
    require_bound,
    require_inside,
    unified_deformation,
)


# the map of a mapped grid by its name, x = f(βu)/β; "" is the identity
_MAPS = {"sinh": math.sinh, "sin": math.sin}


class Grid(namedtuple("Grid", "hi n h map beta", defaults=("", 0.0))):
    """Interior grid of n nodes, uniform in u with spacing h on (−hi, hi),
    at x = u (map "", the identity) or at x = f(βu)/β for the map named
    "sinh" or "sin"; the endpoints carry implicit zeros.

    Node i (1 ≤ i ≤ n) is at u = h·(i − (n+1)/2) and midpoint i
    (0 ≤ i ≤ n) at u = h·(i − n/2), so node n+1−i is −(node i) and
    midpoint n−i is −(midpoint i) bit for bit (sinh and sin are odd); an
    even mass law and potential then give exactly mirror-symmetric bands,
    which the eigensolver splits into parity blocks.  `node` and
    `midpoint` are the one accessor of each kind of point: an index gives
    a float, a range of indices a list of floats and an ndarray of indices
    an ndarray, the one given as `out` where there is one, each through
    the same IEEE operations (math.sinh or math.sin entry by entry on a
    mapped grid), so a list and an array over the same indices agree bit
    for bit.  Node 0 and node n+1 are the walls, at about ∓`wall`.

    `weights()` is the one node-weight rule, the w_i of the quadrature
    Σ w_i f_i g_i of ∫fg dx: the scalar h on a uniform grid, a factor
    outside the sum, and the list of finite-volume weights
    d_i = (x_{i+1} − x_{i−1})/2 on a mapped one, which mirror bit for bit.
    """

    __slots__ = ()

    def _x(self, u):
        f = _MAPS.get(self.map)
        return f(self.beta * u) / self.beta if f else u

    def _x_at(self, i, mid: float, out):
        """x at u = h·(i − mid) of an index i, a range or an array of them."""
        h, b, f = self.h, self.beta, _MAPS.get(self.map)
        if isinstance(i, range):
            us = [h * (k - mid) for k in i]
            return [f(b * u) / b for u in us] if f else us
        if not hasattr(i, "__len__"):
            return self._x(h * (i - mid))
        import numpy as np
        u = np.subtract(i, mid, out=out)
        u *= h
        if f:
            u *= b
            # a memoryview yields the floats math.sinh and math.sin take,
            # and no list of them is made
            np.divide(np.fromiter(map(f, memoryview(u)), float, len(u)), b,
                      out=u)
        return u

    def node(self, i, out=None):
        return self._x_at(i, 0.5 * (self.n + 1), out)

    def midpoint(self, i, out=None):
        return self._x_at(i, 0.5 * self.n, out)

    @property
    def wall(self) -> float:
        """x at u = hi: where the box ends, hi itself on a uniform grid."""
        return self._x(self.hi)

    def weights(self):
        """h on a uniform grid, the list of n weights d_i on a mapped one."""
        if self.map:
            return _node_weights(self.node(range(self.n + 2)))
        return self.h


def _node_weights(edges: list) -> list:
    """d_i = (x_{i+1} − x_{i−1})/2 of the nodes x between the first and the
    last of `edges`, a run of consecutive nodes."""
    return [0.5 * (r - l) for l, r in zip(edges, edges[2:])]


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


def _ell(q: float, v: float) -> float:
    """−2·log g at ζ² = v of the ground factor g = (1 + qζ²)^(−1/2q),
    e^(−ζ²/2) at q = 0."""
    qv = q * v
    # where q·v is subnormal, log1p(q·v)/q is v to working precision
    return math.log1p(qv) / q if qv >= sys.float_info.min else v


def _bisect_log(above, lo: float, hi: float, width: float) -> float:
    """e^hi once [lo, hi] is at most `width` wide, or holds no double
    between its ends, each step keeping the half past its midpoint w where
    above(w) and the half below it otherwise."""
    mid = 0.5 * (lo + hi)
    while hi - lo > width and lo < mid < hi:
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
        mid = 0.5 * (lo + hi)
    return math.exp(hi)


def _level_box(q: float, n: int, tail: float) -> float:
    """ζ² past the peak where the envelope ζⁿ·g of level n ≥ 1 falls to
    `tail` times its peak, or inf past the range of a double.

    The envelope peaks at ζ² = n/(1 − nq).  The root of n·w − ℓ(eʷ) =
    (its peak value) + 2·log(tail), ℓ = _ell, is bisected in w = log ζ²
    down to adjacent doubles: the left side is concave in w and falls past
    the peak, so the root is unique.
    """
    if not n * q < 1.0:
        # n < 1/q − 1/2, but n·q rounds to 1 for q below 2.2e−16: a level
        # past 4e15, whose box is far past any grid that could hold it
        return math.inf
    peak = n / (1.0 - n * q)
    lo, hi = math.log(peak), math.log(0.5 * sys.float_info.max)
    drop = n * lo - _ell(q, peak) + 2.0 * math.log(tail)

    def above(w):
        return n * w - _ell(q, math.exp(w)) > drop

    return math.inf if above(hi) else _bisect_log(above, lo, hi, 0.0)


def _ground_box(s: float, c_alpha: float, tail: float) -> float:
    """x² where the ground state (1 + s x²)^(−cα/2s) falls to `tail`,
    expm1(2sL/(cα))/s with L = −log tail, or inf past a double."""
    u = 2.0 * math.log(1.0 / tail) / c_alpha
    try:
        # where s or s·u is subnormal, expm1(s·u)/s is u to working precision
        return (math.expm1(s * u) / s
                if min(abs(s), abs(s * u)) >= sys.float_info.min else u)
    except OverflowError:
        return math.inf


def _log_norm(q: float, n: int) -> float:
    """log ∫H_n(ζ, q)²·g² dζ, g² = (1 + qζ²)^(−1/q), for q ≥ 0 and a
    bound level n: h_0 = √(π/q)·Γ(1/q − ½)/Γ(1/q) (√π at q = 0, within
    q/8 below q = 1e−8) and h_n = h_0·(a_0/a_n)·Π_{m=1..n} b_m of the
    recurrence's a_m = 2 − (2m+1)q and b_m = m(2 − mq)."""
    if q > 1e-8:
        r = 1.0 / q
        log = (0.5 * math.log(math.pi * r) + math.lgamma(r - 0.5)
               - math.lgamma(r))
    else:
        log = 0.5 * math.log(math.pi)
    log += math.log(2.0 - q) - math.log(2.0 - (2 * n + 1) * q)
    return log + math.fsum(math.log(m * (2.0 - m * q)) for m in range(1, n + 1))


def _log_wall_shift(family: ShapeInvariantFamily, n: int, v: float,
                    log_norm: float) -> float:
    """log of the shift of level n, relative to α, that Dirichlet walls at
    ζ² = v cause: 2(1 + qv)·|φφ'| at the wall, of φ = H_n(ζ, q)·g
    normalized in ζ (log_norm = _log_norm(q, n)), the first-order shift
    of Green's identity.  Past the turning point it falls as v grows.  On
    the constant family it is within 4 % of the root of the Dirichlet
    problem at n ≤ 40.

    H_{n−1} and H_n come from families.hermite_rows at the one node
    ζ = √v, and φ'/φ = H_n'/H_n − ζ/(1 + qv) from the structure relation
    (1 + qζ²)H_n' = nqζ·H_n + b_n·H_{n−1}, b_n = n(2 − nq), so that
    (1 + qv)·φ'/φ = b_n·H_{n−1}/H_n − (1 − nq)ζ; the rows' exponents give
    the ratio H_{n−1}/H_n.
    """
    q, z = unified_deformation(family), math.sqrt(v)
    # H_{−1} = 0 stands before the rows, for n = 0
    *_, (h_prev, e_prev), (h, e) = (0.0, 0), *hermite_rows(
        family, n + 1, z, 1.0, lambda a, x, cur, b, old: a * x * cur - b * old,
        abs, math.ldexp)
    ratio = math.ldexp(h_prev / h, e_prev - e)
    slope = abs(n * (2.0 - n * q) * ratio - (1.0 - n * q) * z)
    return (math.log(2.0 * slope) + 2.0 * math.log(abs(h))
            + 2.0 * e * math.log(2.0) - _ell(q, v) - log_norm)


# the shift of the top level, relative to α, at which an energy grid's box
# ends on the whole line: the default tail tolerance, read as a shift
WALL_SHIFT = 1e-12
# (levels, γ): an energy grid for that many levels maps a compact wall
# with sin where its exponent γ = cα/(2|s|) lies below γ, the crossover of
# the sin map's and the uniform grid's worst level error at N = 4000 on
# case1 λ −0.45 (their ratio depends on γ and the level count only)
_SOFT_WALL = ((1, 1.60), (2, 1.17), (3, 1.03), (5, 1.11), (10, 1.52),
              (15, 2.03), (20, 2.61), (30, 3.81), (40, 5.0), (60, 7.4))


def soft_wall(levels: int) -> float:
    """The γ below which a compact wall is soft for a solve of `levels`
    levels: _SOFT_WALL, linear between its rows and past its last one,
    where it grows by 0.12 a level."""
    i = min(max(1, bisect_left(_SOFT_WALL, (levels,))), len(_SOFT_WALL) - 1)
    (k0, g0), (k1, g1) = _SOFT_WALL[i - 1], _SOFT_WALL[i]
    return g0 + (g1 - g0) * (levels - k0) / (k1 - k0)


def _energy_box(family: ShapeInvariantFamily, q: float, n: int,
                c_alpha: float, square: float) -> float:
    """x² past the turning point of level n where its walls shift it by
    WALL_SHIFT·α (_log_wall_shift), bisected in log ζ² to 1e−6, ζ² =
    cα·x²; or `square`, the x² of the level box, where the shift there is
    larger, or the turning point is not inside it."""
    v_a = c_alpha * square
    log_norm = _log_norm(q, n)
    target = math.log(WALL_SHIFT)
    # ζ_t²/(1 + qζ_t²) = 2E_n/α, and 1 − 2qE_n/α factors
    e = n + 0.5 - 0.5 * q * n * (n + 1)
    span = (1.0 - n * q) * (1.0 - (n + 1) * q)
    if not (0.0 < span and 2.0 * e < span * v_a) or not _log_wall_shift(
            family, n, v_a, log_norm) <= target:
        return square
    return _bisect_log(
        lambda w: _log_wall_shift(family, n, math.exp(w), log_norm) > target,
        math.log(2.0 * e / span), math.log(v_a), 1e-6) / c_alpha


def build_grid(family: ShapeInvariantFamily, n: int,
               tail_tolerance: float = 1e-12,
               n_max: int | None = None, energies: bool = False) -> Grid:
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

    `energies` asks for the grid of a solve for the levels 0 … n_max,
    read only for their energies.  On the whole line its box ends where
    the walls shift level n = n_max by WALL_SHIFT times α (_energy_box),
    and never past the level box: near the cutoff, where the tail falls
    as a power of x, the level box stays.  On a compact domain whose wall
    exponent γ = cα/(2|s|) lies below soft_wall(n_max + 1), the states
    vanish at the walls x_w = 1/√(−s) as d^γ, which a uniform grid
    resolves below second order where γ < 1 (at first order near γ = ½);
    there the nodes are x = sin(βu)/β with β = 1/x_w, uniform in u on
    (−π/2β, π/2β), on which the same finite-volume scheme is second
    order.  The 16-node guard counts the nodes of the grid so chosen.
    """
    if not 0.0 < tail_tolerance <= 1e-6:
        raise ValueError(
            f"tail tolerance must lie in (0, 1e-6], got {tail_tolerance}")
    if n_max is not None:
        require_bound(family, n_max)
    profile = family.profile
    s = profile.s
    c_alpha = profile.c * family.alpha0
    if math.isfinite(profile.hi):
        if energies and c_alpha < 2.0 * soft_wall((n_max or 0) + 1) * -s:
            beta = math.sqrt(-s)
            grid = uniform_grid(0.5 * math.pi / beta, n)._replace(map="sin",
                                                                  beta=beta)
        else:
            grid = uniform_grid(profile.hi, n)
        box = math.sqrt(_ground_box(s, c_alpha, tail_tolerance))
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
    q = unified_deformation(family)
    square = (_level_box(q, n_max, tail_tolerance) / c_alpha if n_max
              else _ground_box(s, c_alpha, tail_tolerance))
    if not math.isfinite(square):
        level = f"level {n_max}" if n_max else "the ground state"
        raise InvalidLambdaError(
            f"{level} decays too slowly to reach the tail tolerance "
            f"{tail_tolerance:g} within the range of a double; "
            f"loosen the tail tolerance or weaken the deformation")
    if n_max is None:
        return uniform_grid(math.sqrt(square), n)
    if energies:
        square = _energy_box(family, q, n_max, c_alpha, square)
    beta = math.sqrt(c_alpha)
    return uniform_grid(math.asinh(beta * math.sqrt(square)) / beta,
                        n)._replace(map="sinh", beta=beta)


class MirroredArray:
    """An even or odd vector of n entries that stores only its first ⌈n/2⌉.

    Entry n−1−i is entry i, negated when `.odd`; the centre of an odd n is
    its own mirror.  `left` holds the first n − n//2 entries: an
    array('d'), kept as it is, or any iterable of floats, copied into one;
    any other length is refused with LengthMismatchError.  The other
    entries are never stored; len and iteration read all n of them, and
    so do array('d', v) and np.asarray(v), each a fresh copy.  == is
    identity.
    """

    __slots__ = ("left", "n", "odd")

    def __init__(self, left, n: int, odd: bool):
        if not isinstance(left, array):
            left = array("d", left)
        if len(left) != n - n // 2:
            raise LengthMismatchError(
                f"a mirrored vector of {n} entries stores its first "
                f"{n - n // 2}, got {len(left)}")
        self.left, self.n, self.odd = left, n, odd

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        # entries n − n//2 … n − 1 mirror the stored ones, the centre skipped
        tail = islice(reversed(self.left), self.n % 2, None)
        return chain(self.left, map(neg, tail) if self.odd else tail)

    def __array__(self, dtype=None, copy=None):
        import numpy as np
        if copy is False:
            raise ValueError("a MirroredArray stores half of its entries, "
                             "so it has no array to share")
        return np.fromiter(self, float if dtype is None else dtype, self.n)
