"""Discrete intertwining operators and the SUSY residual suite.

A = (1/√(2m)) d/dx + W and its adjoint connect the partner Hamiltonians:
H₋ = A†A, H₊ = AA†, AH₋ = H₊A, and H₊(α₁) = H₋(α₂) + R(α₁).  Here A is a
banded operator (centered difference plus diagonal) and A† is its exact
transpose, which IS the adjoint under the uniform trapezoid weights.
Every identity is checked by applying both of its sides to sampled
states, never by forming an operator product: the analytic identities
carry O(h²) residuals, while the superalgebra closes exactly, with no
tolerance.

verify_all is the one pass over the suite: it samples the test states once
and builds A(α₀) and A(α₁) once each.  It runs in phases, H∓, then H, then
A(α₁), and drops each Hamiltonian when its phase ends: at N = 200000,
keeping every operator live raised the peak RSS of `verify` by a third.
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
from .discrete import Grid, eigen_tridiagonal
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
    applied, never multiplied, so A†A v is `Aᵀ @ (A @ v)`.  Transposition
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

    def transpose(self) -> "Banded":
        return Banded(self.n, {-off: arr for off, arr in self.bands.items()})

    def __matmul__(self, v):
        v = np.asarray(v, dtype=float)
        out = np.zeros(self.n)
        for off, arr in self.bands.items():
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
                 grid: Grid) -> Banded:
    """A = diag(1/√(2m))·D_central + diag(W(·; αₙ)); A† is A.transpose().

    The transpose is the adjoint under the uniform quadrature weights, and
    at Dirichlet ends the centered difference simply drops the exterior
    (zero) neighbor.
    """
    s = 1.0 / np.sqrt(2.0 * mass_at(family.profile, grid.points))
    w = superpotential_at(family, alpha_n, grid.points)
    inv2h = 1.0 / (2.0 * grid.h)
    return Banded(grid.n, {-1: -s[1:] * inv2h, 0: w, 1: s[:-1] * inv2h})


# === residual measurement on smooth states ===

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


def _hamiltonian(family: ShapeInvariantFamily, grid: Grid, potential) -> Banded:
    t = assemble_symmetric(family, grid, potential)
    return Banded(grid.n, {-1: t.offdiag, 0: t.diag, 1: t.offdiag})


def _superalgebra_offdiag(a: Banded, ad: Banded, u, x) -> float:
    """{Q,Q} = {Q†,Q†} = 0 and {Q,Q†} = diag(A†A, AA†), exactly.

    Q(u, w) = (0, Au) and Q†(u, w) = (A†w, 0) act on the sampled pair
    u = φ₀, w = x·φ₀.  A·0 = 0 and 0 + x = x hold in floating point, so
    max|·| over Q², Q†² and {Q,Q†} − diag(A†A, AA†) is an exact 0.0.
    """
    w = x * u
    zero = np.zeros(len(u))

    def q(pair):
        return [zero, a @ pair[0]]

    def qd(pair):
        return [ad @ pair[1], zero]

    def anti(f, g):
        fg, gf = f(g((u, w))), g(f((u, w)))
        return [fg[0] + gf[0], fg[1] + gf[1]]

    def parts():  # one at a time: each is a grid-sized array
        yield from anti(q, q)
        yield from anti(qd, qd)
        qqd = anti(q, qd)
        yield qqd[0] - ad @ (a @ u)
        yield qqd[1] - a @ (ad @ w)

    return max(float(np.max(np.abs(p))) for p in parts())


def verify_all(family: ShapeInvariantFamily, grid: Grid) -> ResidualReport:
    """Every residual, each judged against its α = 1 tolerance times α^p.

    The report keeps the raw residual values and the scaled tolerances.
    """
    require_bound(family, 0)
    count = bound_state_count(family)
    states = [eigenfunction_samples(family, n, grid)
              for n in range(5 if count is None else min(5, count))]
    a0, x = family.alpha0, grid.points
    values = dict.fromkeys(DEFAULT_TOLERANCES)
    # AH₋ = H₊A and A†H₊ = H₋A†, with H∓ assembled from the closed-form
    # partner potentials, not from the ladder, so this exercises the
    # Riccati forms independently.  c·α² may overflow to inf, and inf·0 at
    # a centre node is nan, as in potential_on_grid; assembly refuses both.
    with np.errstate(over="ignore", invalid="ignore"):
        h_minus = _hamiltonian(family, grid, potential_minus(family, a0, x))
        h_plus = _hamiltonian(family, grid, potential_plus(family, a0, x))
    a = build_ladder(family, a0, grid)
    ad = a.transpose()
    values["intertwine_minus"] = _max_residual(
        lambda v: a @ (h_minus @ v) - h_plus @ (a @ v), states, grid)
    values["intertwine_plus"] = _max_residual(
        lambda v: ad @ (h_plus @ v) - h_minus @ (ad @ v), states, grid)
    del h_minus, h_plus
    # A†A = H − E₀, Aφ₀ = 0 and the superalgebra
    h = _hamiltonian(family, grid, potential_on_grid(family, grid))
    e0 = 0.5 * a0
    values["factorization"] = _max_residual(
        lambda v: ad @ (a @ v) - (h @ v - e0 * v), states, grid)
    del h
    values["annihilation"] = _max_residual(lambda v: a @ v, states[:1], grid)
    values["superalgebra_offdiag"] = _superalgebra_offdiag(a, ad, states[0], x)
    # A(α₀)A†(α₀) = A†(α₁)A(α₁) + R(α₀)
    a1 = build_ladder(family, alpha_at(family, 1), grid)
    ad1 = a1.transpose()
    r = remainder(family, a0)
    values["shift_identity"] = _max_residual(
        lambda v: a @ (ad @ v) - (ad1 @ (a1 @ v) + r * v), states, grid)
    residuals = {name: ResidualEntry(
        value, DEFAULT_TOLERANCES[name] * a0 ** RESIDUAL_POWERS[name])
        for name, value in values.items()}
    return ResidualReport(family.profile.kind.value, a0,
                          family.profile.lam, grid.n, residuals)


def state_map_cosine(family: ShapeInvariantFamily, grid: Grid, n: int) -> float:
    """|cos| between A·φ_{n+1}^(−) and the n-th eigenvector of discrete H₊.

    The continuum map carries φ_{n+1}^(−) onto φ_n^(+) up to a scalar; only
    the direction is asserted because the discrete norm differs from the
    continuum factor [E_n^(+)]^(−1/2) at O(h).
    """
    a = build_ladder(family, family.alpha0, grid)
    mapped = a @ eigenfunction_samples(family, n + 1, grid)
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
