"""Discrete intertwining operators and the SUSY residual suite: `verify`.

A = (1/√(2m)) d/dx + W and its adjoint connect the partner Hamiltonians:
H₋ = A†A, H₊ = AA†, AH₋ = H₊A, and H₊(α₁) = H₋(α₂) + R(α₁).  Here A is a
banded operator (centered difference plus diagonal) and A† is its exact
transpose, which IS the adjoint under the uniform trapezoid weights.
Every identity is checked by applying both of its sides to sampled
states, never by forming an operator product: the analytic identities
carry O(h²) residuals.  The superalgebra of Q = [[0, 0], [A, 0]] is not
measured: {Q, Q} = {Q†, Q†} = 0 and {Q, Q†} = diag(A†A, AA†) hold for
any A, so superalgebra_offdiag is reported as an exact 0 against a zero
tolerance (the tests prove the identity symbolically).

This is the only module of the package that imports numpy when it is
loaded (discrete's ndarray wrappers import it when called).  The
eigenvalue path, the exact polynomials and the closed-form samples of
`eigenfunctions` (`sampling`) run on Python floats and integers, so
every command but `verify` runs without numpy; `verify` evaluates on
grids of up to 200000 nodes, where Python floats would cost about 25
times as much.

verify_all walks the grid once, in blocks of ROWS rows, each with a halo
of two rows on either side, since no identity applies more than two
tridiagonal operators in a row.  Per block it evaluates the nodes, the
bands of H₋, H₊ and H (one shared kinetic part), of A(α₀) and A(α₁)
(shared off-bands), and the test states.  _nodes_between and
_kinetic_bands pass index arrays to Grid.node and Grid.midpoint, whose
IEEE operations are the same per entry, so a block's entries are the
whole grid's, bit for bit.  _states_at runs families.hermite_rows on
ndarrays and yields each state H_n·φ₀·2^−e with the exponent e of the
power of two its block divided it by, so a block's states are the whole
grid's up to one power of two per block.  Every identity is linear in
the state, so the states are not normalized: each residual's scaled sum
of squares and each state's, their exponents raised by the block's e,
are added up over the blocks, and ‖(L − R)v‖/‖v‖ is formed at the end.
The divisions are exact, so a grid of one block reproduces the
whole-grid residuals exactly, and more blocks change only the order of
those sums.  No array as long as the grid is made; the blocks' arrays
stay in a core's cache.

Two evaluations here restate others.  _kinetic_bands is discrete's
float stencil at the symmetric ordering, on ndarrays for speed, through
the same IEEE operations in the same order, so their entries agree bit
for bit.  eigenfunction_samples (_states_at on one whole-grid block,
normalized) is sampling.eigenfunction_lists from the same recurrence,
and the tests' reference for it; exp, log1p and the norm's sum differ,
so the two agree to within a few ulps of max|φ_n|.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

import numpy as np

from .discrete import Grid, refuse_overflow
from .errors import InvalidLambdaError, LengthMismatchError
from .families import (
    ShapeInvariantFamily,
    alpha_at,
    bound_state_count,
    hermite_rows,
    mass_at,
    potential_full,
    potential_minus,
    potential_plus,
    remainder,
    require_bound,
    require_inside,
    require_resolved,
)


# === the grid samples and the stencil, on any run of nodes ===

def inner_product(f, g, grid: Grid) -> float:
    """Trapezoid quadrature ∫fg dx; Dirichlet ends contribute zero."""
    if len(f) != len(g) or len(f) != grid.n:
        raise LengthMismatchError(
            f"lengths {len(f)}, {len(g)} do not match grid size {grid.n}")
    return grid.h * float(np.dot(f, g))


def _nodes_between(grid: Grid, lo: int, hi: int):
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


def _states_at(family: ShapeInvariantFamily, count: int, x):
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
    for phi, _ in _states_at(family, n + 1, _nodes_between(grid, 0, grid.n)):
        pass
    norm = math.sqrt(inner_product(phi, phi, grid))
    require_resolved(norm, n)
    phi /= norm
    return phi


def _kinetic_bands(family: ShapeInvariantFamily, grid: Grid, lo: int, hi: int):
    """(diag, offdiag) of the kinetic stencil on nodes lo … hi − 1.

    discrete's stencil at the symmetric ordering (0, −1, 0): there the
    outer mass powers are m⁰ = 1, so the float stencil's products with
    them are exact and are left out here; what remains is the same
    sequence of operations on the same inputs (Grid.midpoint).  The
    potential adds to diag.  Entries past a double are inf, as are 1/m
    where m underflows to 0 and 1/h² where h² does, and 0/0 is NaN: the
    overflow refusal names them all, as the float stencil does.
    """
    mids = grid.midpoint(np.arange(lo, hi + 1))
    h2 = grid.h * grid.h
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = 1.0 / mass_at(family.profile, mids)
        win = w[1:-1] / h2
        return (0.5 * (w[:-1] + w[1:]) / h2,
                -0.125 * ((win + win) + (win + win)))


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


# === banded operators applied to states ===

class Banded:
    """Square banded operator stored as {offset: diagonal values}.

    bands[off][k] is the entry at row k + max(0,−off), column k + max(0,off).
    `B @ v` applies the operator to a vector, starting from the main
    diagonal's product; operators are only ever applied, never multiplied,
    so A†A v is `Aᵀ @ (A @ v)`.  Transposition only relabels the bands, so
    the adjoint is exact.
    """

    def __init__(self, n: int, bands: dict):
        self.n = n
        self.bands = {}
        for off, arr in bands.items():
            arr = np.asarray(arr, dtype=float)
            if len(arr) != n - abs(off):
                raise LengthMismatchError(
                    f"band {off} has {len(arr)} entries, expected {n - abs(off)}")
            self.bands[off] = arr

    def transpose(self) -> "Banded":
        return Banded(self.n, {-off: arr for off, arr in self.bands.items()})

    def __matmul__(self, v):
        v = np.asarray(v, dtype=float)
        diag = self.bands.get(0)
        out = np.zeros(self.n) if diag is None else diag * v
        for off, arr in self.bands.items():
            if off:
                lo_r, lo_c = max(0, -off), max(0, off)
                out[lo_r:self.n - lo_c] += arr * v[lo_c:self.n - lo_r]
        return out


class ResidualEntry(namedtuple("ResidualEntry", "value tolerance")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance


ResidualReport = namedtuple("ResidualReport",
                            "family alpha lam grid_n residuals")


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


# rows per block of verify_all: its twenty-odd live block arrays (64 KB
# each) then fit in a core's 2 MB L2 cache.  At N = 200000 on a 2-core
# Xeon, 8192 and 16384 rows ran fastest, and 4096 rows 1.3–1.8 times as
# long.
ROWS = 8192
# every identity applies at most two tridiagonal operators in a row, so a
# block's own rows are exact given two more rows on each side
HALO = 2


def _ladders(family: ShapeInvariantFamily, grid: Grid, x, alphas) -> list:
    """A(α) = diag(1/√(2m))·D_central + diag(W(·; α)) on the nodes x for
    each α in alphas; they share their off-bands.  A† is A.transpose(), the
    adjoint under the uniform quadrature weights, and at the ends of x the
    centered difference drops the exterior (zero) neighbor."""
    s = 1.0 / np.sqrt(2.0 * mass_at(family.profile, x))
    inv2h = 1.0 / (2.0 * grid.h)
    lower, upper = -s[1:] * inv2h, s[:-1] * inv2h
    return [Banded(len(x), {-1: lower, 0: superpotential_at(family, alpha, x),
                            1: upper})
            for alpha in alphas]


# === residual measurement on smooth states ===

def _scaled_sq_norm(v, grid: Grid, shift: int):
    """(h·Σ(v/2^e)², e + shift) with 2^e > max|v|; the scaling is exact.

    That is the pair of v·2^shift.  Dividing by a power of two near the
    largest entry before squaring does not move ordinary residuals, and
    the squares cannot overflow at a large α.  v is scaled in place, with
    no temporary; it must not be read again.
    """
    _, e = math.frexp(max(float(v.max()), -float(v.min())))
    np.ldexp(v, -e, out=v)
    return grid.h * float(np.dot(v, v)), e + shift


def _merged(parts):
    """_scaled_sq_norm of a vector, from those of its blocks.

    The blocks' sums are rescaled to the largest exponent of a nonzero
    block, exactly unless they fall below the smallest normal double; one
    block is returned as it is.
    """
    e = max((eb for rr, eb in parts if rr), default=0)
    return math.fsum(math.ldexp(rr, 2 * (eb - e)) for rr, eb in parts), e


def _block_hamiltonians(family: ShapeInvariantFamily, grid: Grid, x,
                        first: int, stop: int):
    """The bands of H₋, H₊ and H on nodes first … stop − 1: three
    diagonals and their shared kinetic off-diagonal.

    H∓ are assembled from the closed-form partner potentials, not from the
    ladder, so the intertwinings exercise the Riccati forms independently.
    c·α² may overflow to inf, and inf·0 at a centre node is nan; the
    overflow refusal names both.
    """
    kinetic, off = _kinetic_bands(family, grid, first, stop)
    a0 = family.alpha0
    with np.errstate(over="ignore", invalid="ignore"):
        return [kinetic + v for v in (potential_minus(family, a0, x),
                                      potential_plus(family, a0, x),
                                      potential_full(family, x))], off


def _identity_residuals(ops, v, ground: bool, e0: float, r: float):
    """Yields (name, residual) of each identity on the state v, one at a time.

    ops is (A, A†, A(α₁), A†(α₁), H₋, H₊, H) on a block; Av and A†v are
    applied once and shared.
    """
    a, ad, a_next, ad_next, h_minus, h_plus, h = ops
    av, adv = a @ v, ad @ v
    # A†A = H − E₀
    yield "factorization", ad @ av - (h @ v - e0 * v)
    # AH₋ = H₊A and A†H₊ = H₋A†
    yield "intertwine_minus", a @ (h_minus @ v) - h_plus @ av
    yield "intertwine_plus", ad @ (h_plus @ v) - h_minus @ adv
    # A(α₀)A†(α₀) = A†(α₁)A(α₁) + R(α₀)
    yield "shift_identity", a @ adv - (ad_next @ (a_next @ v) + r * v)
    # Aφ₀ = 0; last, since _scaled_sq_norm overwrites Av
    if ground:
        yield "annihilation", av


def verify_all(family: ShapeInvariantFamily, grid: Grid) -> ResidualReport:
    """Every residual, each judged against its α = 1 tolerance times α^p.

    The report keeps the raw residual values and the scaled tolerances.
    H₋, then H₊, then H is refused by _require_representable, by its
    largest entry on the whole grid, if it holds a NaN or an entry that
    squares past a double (residual work stops at the first block where
    one does), or if that entry is nonzero and squares below the smallest
    normal double.  Then a state that is zero at every node is refused.
    """
    require_bound(family, 0)
    count = bound_state_count(family)
    count = 5 if count is None else min(5, count)
    n, a0 = grid.n, family.alpha0
    a1, e0, r = alpha_at(family, 1), 0.5 * a0, remainder(family, a0)
    sums, norms = {}, [[] for _ in range(count)]
    # one running _band_extent each for H₋, H₊ and H
    extents = [(math.nan, False)] * 3
    for lo in range(0, n, ROWS):
        hi = min(lo + ROWS, n)
        first, stop = max(0, lo - HALO), min(n, hi + HALO)
        x = _nodes_between(grid, first, stop)
        diags, off = _block_hamiltonians(family, grid, x, first, stop)
        extents = [_band_extent(diag, off, ext)
                   for ext, diag in zip(extents, diags)]
        # past a block where an operator overflows, only its refusal is left
        if not all(map(_representable, extents)):
            continue
        a, a_next = _ladders(family, grid, x, (a0, a1))
        ops = (a, a.transpose(), a_next, a_next.transpose(),
               *(Banded(len(x), {-1: off, 0: d, 1: off}) for d in diags))
        own = slice(lo - first, hi - first)
        # one-sided edge rows are artifacts of the stencil, not of the algebra
        trim = slice(max(lo, 2) - first, min(hi, n - 2) - first)
        for k, (v, e) in enumerate(_states_at(family, count, x)):
            if trim.start < trim.stop:
                for name, res in _identity_residuals(ops, v, k == 0, e0, r):
                    sums.setdefault((name, k), []).append(
                        _scaled_sq_norm(res[trim], grid, e))
            # last, since _scaled_sq_norm overwrites v's own rows
            norms[k].append(_scaled_sq_norm(v[own], grid, e))
    for ext in extents:  # H₋, then H₊, then H, as they are assembled
        _require_representable(ext)
    norms = [_merged(parts) for parts in norms]
    for k, (vv, _) in enumerate(norms):
        require_resolved(vv, k)
    values = dict.fromkeys(RESIDUAL_TOLERANCES, 0.0)
    for (name, k), parts in sums.items():
        (rr, er), (vv, ev) = _merged(parts), norms[k]
        values[name] = max(values[name], math.ldexp(
            math.sqrt(rr) / math.sqrt(vv), er - ev))
    residuals = {name: ResidualEntry(values[name], tolerance * a0 ** power)
                 for name, (tolerance, power) in RESIDUAL_TOLERANCES.items()}
    return ResidualReport(family.profile.kind.value, a0,
                          family.profile.lam, grid.n, residuals)


def report_to_json_dict(report: ResidualReport) -> dict:
    return {
        "family": report.family,
        "alpha": report.alpha,
        "lambda": report.lam,
        "grid_n": report.grid_n,
        "residuals": {
            name: {"value": entry.value, "tolerance": entry.tolerance,
                   "pass": entry.passed}
            for name, entry in report.residuals.items()
        },
    }
