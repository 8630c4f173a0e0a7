"""Discrete intertwining operators and the SUSY residual suite.

A = (1/√(2m)) d/dx + W and its adjoint connect the partner Hamiltonians:
H₋ = A†A, H₊ = AA†, AH₋ = H₊A, and H₊(α₁) = H₋(α₂) + R(α₁).  Here A is a
banded operator (centered difference plus diagonal) and A† is its exact
transpose, which IS the adjoint under the uniform trapezoid weights.
Every identity is checked by applying both of its sides to sampled
states, never by forming an operator product: the analytic identities
carry O(h²) residuals, while the superalgebra closes exactly, with no
tolerance.

verify_all walks the grid once, in blocks of ROWS rows, each with a halo
of two rows on either side, since no identity applies more than two
tridiagonal operators in a row.  Per block it evaluates the nodes, the
bands of H₋, H₊ and H (one shared kinetic part), of A(α₀) and A(α₁)
(shared off-bands), each entry bit for bit as on the whole grid, and the
test states H_n·φ₀·2^−e from one recurrence, whose power-of-two
divisions 2^e each block chooses for itself.  Every identity is linear in
the state, so the states are not normalized: each residual's scaled sum
of squares and each state's, their exponents raised by the block's e, are
added up over the blocks, and ‖(L − R)v‖/‖v‖ is formed at the end.  The
divisions are exact, so a grid of one block reproduces the whole-grid
residuals exactly, and more blocks change only the order of those sums.
No array as long as the grid is made; the blocks' arrays stay in a
core's cache.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .arrays import (
    band_extent,
    eigenfunction_samples,
    kinetic_bands,
    nodes_between,
    representable,
    require_representable,
    states_at,
    superpotential_at,
)
from .discrete import Grid, TridiagonalOperator, eigenpair_lists
from .errors import LengthMismatchError
from .families import (
    ShapeInvariantFamily,
    alpha_at,
    bound_state_count,
    mass_at,
    potential_full,
    potential_minus,
    potential_plus,
    remainder,
    require_bound,
    require_resolved,
)


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
# scale is exactly 1.
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
    """A(α) on the nodes x for each α in alphas; they share their off-bands."""
    s = 1.0 / np.sqrt(2.0 * mass_at(family.profile, x))
    inv2h = 1.0 / (2.0 * grid.h)
    lower, upper = -s[1:] * inv2h, s[:-1] * inv2h
    return [Banded(len(x), {-1: lower, 0: superpotential_at(family, alpha, x),
                            1: upper})
            for alpha in alphas]


def build_ladder(family: ShapeInvariantFamily, alpha_n: float,
                 grid: Grid) -> Banded:
    """A = diag(1/√(2m))·D_central + diag(W(·; αₙ)); A† is A.transpose().

    The transpose is the adjoint under the uniform quadrature weights, and
    at Dirichlet ends the centered difference simply drops the exterior
    (zero) neighbor.
    """
    return _ladders(family, grid, nodes_between(grid, 0, grid.n), (alpha_n,))[0]


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
    kinetic, off = kinetic_bands(family, grid, first, stop)
    a0 = family.alpha0
    with np.errstate(over="ignore", invalid="ignore"):
        return [kinetic + v for v in (potential_minus(family, a0, x),
                                      potential_plus(family, a0, x),
                                      potential_full(family, x))], off


def _superalgebra_parts(a: Banded, ad: Banded, u, x, own) -> list:
    """max|·| over the rows `own` of each part of {Q,Q}, {Q†,Q†} and
    {Q,Q†} − diag(A†A, AA†), which vanish exactly.

    Q(u, w) = (0, Au) and Q†(u, w) = (A†w, 0) act on the sampled pair
    u = φ₀, w = x·φ₀.  A·0 = 0 and 0 + x = x hold in floating point, so
    every part is an exact 0.0.
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

    def parts():  # one at a time: each is a block-sized array
        yield from anti(q, q)
        yield from anti(qd, qd)
        qqd = anti(q, qd)
        yield qqd[0] - ad @ (a @ u)
        yield qqd[1] - a @ (ad @ w)

    return [float(np.max(np.abs(p[own]))) for p in parts()]


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
    H₋, then H₊, then H is refused by require_representable, by its
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
    superalgebra, extents, sound = [], ([], [], []), True
    for lo in range(0, n, ROWS):
        hi = min(lo + ROWS, n)
        first, stop = max(0, lo - HALO), min(n, hi + HALO)
        x = nodes_between(grid, first, stop)
        diags, off = _block_hamiltonians(family, grid, x, first, stop)
        for ext, diag in zip(extents, diags):
            ext.append(band_extent(diag, off))
        # past a block where an operator overflows, only its refusal is left
        sound = sound and all(representable(ext[-1:]) for ext in extents)
        if not sound:
            continue
        a, a_next = _ladders(family, grid, x, (a0, a1))
        ad = a.transpose()
        ops = (a, ad, a_next, a_next.transpose(),
               *(Banded(len(x), {-1: off, 0: d, 1: off}) for d in diags))
        own = slice(lo - first, hi - first)
        # one-sided edge rows are artifacts of the stencil, not of the algebra
        trim = slice(max(lo, 2) - first, min(hi, n - 2) - first)
        for k, (v, e) in enumerate(states_at(family, count, x)):
            if k == 0:
                superalgebra.append(_superalgebra_parts(a, ad, v, x, own))
            if trim.start < trim.stop:
                for name, res in _identity_residuals(ops, v, k == 0, e0, r):
                    sums.setdefault((name, k), []).append(
                        _scaled_sq_norm(res[trim], grid, e))
            # last, since _scaled_sq_norm overwrites v's own rows
            norms[k].append(_scaled_sq_norm(v[own], grid, e))
    for ext in extents:  # H₋, then H₊, then H, as they are assembled
        require_representable(ext)
    norms = [_merged(parts) for parts in norms]
    for k, (vv, _) in enumerate(norms):
        require_resolved(vv, k)
    values = dict.fromkeys(RESIDUAL_TOLERANCES, 0.0)
    for (name, k), parts in sums.items():
        (rr, er), (vv, ev) = _merged(parts), norms[k]
        values[name] = max(values[name], math.ldexp(
            math.sqrt(rr) / math.sqrt(vv), er - ev))
    values["superalgebra_offdiag"] = max(
        float(np.max(part)) for part in zip(*superalgebra))
    residuals = {name: ResidualEntry(values[name], tolerance * a0 ** power)
                 for name, (tolerance, power) in RESIDUAL_TOLERANCES.items()}
    return ResidualReport(family.profile.kind.value, a0,
                          family.profile.lam, grid.n, residuals)


def state_map_cosine(family: ShapeInvariantFamily, grid: Grid, n: int) -> float:
    """|cos| between A·φ_{n+1}^(−) and the n-th eigenvector of discrete H₊.

    The continuum map carries φ_{n+1}^(−) onto φ_n^(+) up to a scalar; only
    the direction is asserted because the discrete norm differs from the
    continuum factor [E_n^(+)]^(−1/2) at O(h).
    """
    x = nodes_between(grid, 0, grid.n)
    a = _ladders(family, grid, x, (family.alpha0,))[0]
    mapped = a @ eigenfunction_samples(family, n + 1, grid)
    (_, diag, _), off = _block_hamiltonians(family, grid, x, 0, grid.n)
    require_representable([band_extent(diag, off)])
    _, vectors = eigenpair_lists(TridiagonalOperator(diag, off), n + 1, grid.h)
    v = np.asarray(vectors[n])
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
