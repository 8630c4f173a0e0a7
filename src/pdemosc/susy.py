"""Discrete intertwining operators and the SUSY residual suite.

A = (1/√(2m)) d/dx + W and its adjoint connect the partner Hamiltonians:
H₋ = A†A, H₊ = AA†, AH₋ = H₊A, and H₊(α₁) = H₋(α₂) + R(α₁).  Here A is a
banded operator (centered difference plus diagonal) and A† is its exact
transpose, which IS the adjoint under the uniform trapezoid weights.
Every identity is checked by applying both of its sides to sampled
states, never by forming an operator product: the analytic identities
carry O(h²) residuals, while the superalgebra closes exactly, with no
tolerance.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .arrays import (
    assemble_symmetric,
    eigenfunction_samples,
    potential_on_grid,
    superpotential_at,
)
from .discrete import Grid, TridiagonalOperator, eigen_tridiagonal
from .errors import LengthMismatchError
from .families import (
    ShapeInvariantFamily,
    alpha_at,
    bound_state_count,
    mass_at,
    potential_minus,
    potential_plus,
    remainder,
    require_bound,
)


# === banded operators applied to states ===

class Banded:
    """Square banded operator stored as {offset: diagonal values}.

    bands[off][k] is the entry at row k + max(0,−off), column k + max(0,off).
    `B @ v` applies the operator to a vector; operators are only ever
    applied, never multiplied, so A†A v is `Adag @ (A @ v)`.  Transposition
    only relabels the bands, so the adjoint is exact.
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

    @staticmethod
    def from_tridiagonal(t: TridiagonalOperator) -> "Banded":
        n = len(t.diag)
        return Banded(n, {-1: t.offdiag, 0: t.diag, 1: t.offdiag})

    def transpose(self) -> "Banded":
        return Banded(self.n, {-off: arr for off, arr in self.bands.items()})

    def __matmul__(self, v):
        v = np.asarray(v, dtype=float)
        out = np.zeros(self.n)
        for off, arr in self.bands.items():
            lo_r, lo_c = max(0, -off), max(0, off)
            out[lo_r:self.n - lo_c] += arr * v[lo_c:self.n - lo_r]
        return out


LadderMatrices = namedtuple("LadderMatrices", "A Adag")


class ResidualEntry(namedtuple("ResidualEntry", "value tolerance")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance


ResidualReport = namedtuple("ResidualReport",
                            "family alpha lam grid_n residuals")


# calibrated at grid_n = 4000 and alpha = 1 on the reference deformations;
# the identity residuals there sit at 1e-3 or below and shrink ~4x per
# h-halving
DEFAULT_TOLERANCES = {
    "factorization": 5e-3,
    "annihilation": 1e-4,
    "intertwine_minus": 5e-3,
    "intertwine_plus": 5e-3,
    "superalgebra_offdiag": 0.0,
    "shift_identity": 5e-3,
}

# At fixed q the box is ∝ 1/√(cα), so A ~ √α and H ~ α, and each residual
# grows as α^p: a check passes when value ≤ tolerance·α^p.  At α = 1 the
# scale is exactly 1.
RESIDUAL_POWERS = {
    "factorization": 1.0,
    "annihilation": 0.5,
    "intertwine_minus": 1.5,
    "intertwine_plus": 1.5,
    "superalgebra_offdiag": 0.0,
    "shift_identity": 1.0,
}


def build_ladder(family: ShapeInvariantFamily, alpha_n: float,
                 grid: Grid) -> LadderMatrices:
    """A = diag(1/√(2m))·D_central + diag(W(·; αₙ)); Adag = Aᵀ.

    The transpose is the adjoint under the uniform quadrature weights, and
    at Dirichlet ends the centered difference simply drops the exterior
    (zero) neighbor.
    """
    s = 1.0 / np.sqrt(2.0 * mass_at(family.profile, grid.points))
    w = superpotential_at(family, alpha_n, grid.points)
    inv2h = 1.0 / (2.0 * grid.h)
    a = Banded(grid.n, {-1: -s[1:] * inv2h, 0: w, 1: s[:-1] * inv2h})
    return LadderMatrices(a, a.transpose())


# === residual measurement on smooth states ===

def _test_states(family: ShapeInvariantFamily, grid: Grid) -> list:
    require_bound(family, 0)
    count = bound_state_count(family)
    k = 5 if count is None else min(5, count)
    return [eigenfunction_samples(family, n, grid) for n in range(k)]


# Every verify_* check takes the samples of _test_states as `states`, so
# verify_all samples them once; called alone, a check samples what it uses.

def _low_states(family: ShapeInvariantFamily, grid: Grid, states) -> list:
    return _test_states(family, grid) if states is None else states


def _ground(family: ShapeInvariantFamily, grid: Grid, states):
    return eigenfunction_samples(family, 0, grid) if states is None else states[0]


def _scaled_sq_norm(v, grid: Grid):
    """(h·Σ(v/2^e)², e) with 2^e > max|v|; the scaling is exact."""
    _, e = math.frexp(float(np.max(np.abs(v), initial=0.0)))
    u = np.ldexp(v, -e)
    return grid.h * float(np.dot(u, u)), e


def _max_residual(residual_fn, states, grid: Grid) -> float:
    """max over states v of ‖residual_fn(v)‖/‖v‖ in the trapezoid norm.

    Both vectors are divided by a power of two near their largest entry
    before they are squared.  That scaling is exact, so ordinary residuals
    do not move, and the squares cannot overflow at a large α.
    """
    worst = 0.0
    for v in states:
        # one-sided edge rows are artifacts of the stencil, not of the algebra
        rr, er = _scaled_sq_norm(residual_fn(v)[2:-2], grid)
        vv, ev = _scaled_sq_norm(v, grid)
        worst = max(worst, math.ldexp(math.sqrt(rr) / math.sqrt(vv), er - ev))
    return worst


def verify_annihilation(family: ShapeInvariantFamily, grid: Grid,
                        states=None) -> float:
    """‖Aφ₀‖/‖φ₀‖ for the sampled ground state; O(h²)."""
    a = build_ladder(family, family.alpha0, grid).A
    return _max_residual(lambda v: a @ v, [_ground(family, grid, states)], grid)


def verify_factorization(family: ShapeInvariantFamily, grid: Grid,
                         states=None) -> float:
    """max over low states of ‖(A†A − (H − E₀))v‖/‖v‖."""
    # H before the ladder: the peak memory is assembly's temporaries
    h = Banded.from_tridiagonal(
        assemble_symmetric(family, grid, potential_on_grid(family, grid)))
    ladder = build_ladder(family, family.alpha0, grid)
    e0 = 0.5 * family.alpha0
    return _max_residual(
        lambda v: ladder.Adag @ (ladder.A @ v) - (h @ v - e0 * v),
        _low_states(family, grid, states), grid)


def verify_intertwining(family: ShapeInvariantFamily, grid: Grid,
                        states=None):
    """Residuals of AH₋ = H₊A and A†H₊ = H₋A†.

    H∓ are assembled from the closed-form partner potentials, not from the
    ladder operators, so this exercises the Riccati forms independently.
    """
    # operators before the ladder: the peak memory is assembly's temporaries
    x = grid.points
    # c·α² may overflow to inf, and inf·0 at a centre node is nan, as in
    # potential_on_grid; assembly refuses both
    with np.errstate(over="ignore", invalid="ignore"):
        h_minus = Banded.from_tridiagonal(assemble_symmetric(
            family, grid, potential_minus(family, family.alpha0, x)))
        h_plus = Banded.from_tridiagonal(assemble_symmetric(
            family, grid, potential_plus(family, family.alpha0, x)))
    ladder = build_ladder(family, family.alpha0, grid)
    a, ad = ladder.A, ladder.Adag
    states = _low_states(family, grid, states)
    res_minus = _max_residual(lambda v: a @ (h_minus @ v) - h_plus @ (a @ v),
                              states, grid)
    res_plus = _max_residual(lambda v: ad @ (h_plus @ v) - h_minus @ (ad @ v),
                             states, grid)
    return res_minus, res_plus


def verify_superalgebra(family: ShapeInvariantFamily, grid: Grid,
                        states=None) -> float:
    """{Q,Q} = {Q†,Q†} = 0 and {Q,Q†} = diag(A†A, AA†), exactly.

    Q(u, w) = (0, Au) and Q†(u, w) = (A†w, 0) act on the sampled pair
    u = φ₀, w = x·φ₀.  A·0 = 0 and 0 + x = x hold in floating point, so
    max|·| over Q², Q†² and {Q,Q†} − diag(A†A, AA†) is an exact 0.0.
    """
    ladder = build_ladder(family, family.alpha0, grid)
    a, ad = ladder.A, ladder.Adag
    u = _ground(family, grid, states)
    w = grid.points * u
    zero = np.zeros(grid.n)

    def q(pair):
        return [zero, a @ pair[0]]

    def qd(pair):
        return [ad @ pair[1], zero]

    def anti(x, y):
        xy, yx = x(y((u, w))), y(x((u, w)))
        return [xy[0] + yx[0], xy[1] + yx[1]]

    def parts():  # one at a time: each is a grid-sized array
        yield from anti(q, q)
        yield from anti(qd, qd)
        qqd = anti(q, qd)
        yield qqd[0] - ad @ (a @ u)
        yield qqd[1] - a @ (ad @ w)

    return max(float(np.max(np.abs(p))) for p in parts())


def verify_shift_identity(family: ShapeInvariantFamily, grid: Grid,
                          states=None) -> float:
    """‖(A(α₁)A†(α₁) − A†(α₂)A(α₂) − R(α₁))v‖/‖v‖ on low states."""
    l1 = build_ladder(family, family.alpha0, grid)
    l2 = build_ladder(family, alpha_at(family, 1), grid)
    r_const = remainder(family, family.alpha0)
    return _max_residual(
        lambda v: l1.A @ (l1.Adag @ v) - (l2.Adag @ (l2.A @ v) + r_const * v),
        _low_states(family, grid, states), grid)


def verify_all(family: ShapeInvariantFamily, grid: Grid,
               tolerances: dict | None = None) -> ResidualReport:
    """Every residual, each judged against its α = 1 tolerance times α^p.

    `tolerances` overrides DEFAULT_TOLERANCES by name, in the same α = 1
    units.  The report keeps the raw residual values and the scaled
    tolerances.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    states = _test_states(family, grid)
    im, ip = verify_intertwining(family, grid, states)
    values = {
        "factorization": verify_factorization(family, grid, states),
        "annihilation": verify_annihilation(family, grid, states),
        "intertwine_minus": im,
        "intertwine_plus": ip,
        "superalgebra_offdiag": verify_superalgebra(family, grid, states),
        "shift_identity": verify_shift_identity(family, grid, states),
    }
    a = family.alpha0
    residuals = {name: ResidualEntry(values[name],
                                     tol[name] * a ** RESIDUAL_POWERS[name])
                 for name in values}
    return ResidualReport(family.profile.kind.value, family.alpha0,
                          family.profile.lam, grid.n, residuals)


def state_map_cosine(family: ShapeInvariantFamily, grid: Grid, n: int) -> float:
    """|cos| between A·φ_{n+1}^(−) and the n-th eigenvector of discrete H₊.

    The continuum map carries φ_{n+1}^(−) onto φ_n^(+) up to a scalar; only
    the direction is asserted because the discrete norm differs from the
    continuum factor [E_n^(+)]^(−1/2) at O(h).
    """
    ladder = build_ladder(family, family.alpha0, grid)
    mapped = ladder.A @ eigenfunction_samples(family, n + 1, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        vp = potential_plus(family, family.alpha0, grid.points)
    sol = eigen_tridiagonal(assemble_symmetric(family, grid, vp), n + 1, grid.h)
    v = sol.eigenvectors[n]
    denom = float(np.linalg.norm(mapped)) * float(np.linalg.norm(v))
    return abs(float(np.dot(mapped, v))) / denom


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
