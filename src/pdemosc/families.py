"""Shape-invariant nonlinear oscillators with position-dependent mass.

Each family pairs a mass law m(x) with the confining potential
V(x) = ½ m(x) α² x², factorized through the superpotential
W(x) = α x √(m(x)/2).  The partner potentials obey

    V₊(x; αₙ) = V₋(x; αₙ₊₁) + R(αₙ),    αₙ₊₁ = αₙ + η,

with a remainder R(αₙ) = αₙ₊₁ that is independent of x, so the whole
spectrum follows from summing remainders: Eₙ = E₀ + Σ_{i=0..n−1} R(α_i).

Every built-in mass law is m(x) = c/(1 + s x²), so a family is the triple
(c, s, α) and each closed form below is one formula in it: the step is
η = −s/c and the deformation q = s/(cα).  The formulas are hand-expanded;
no symbolic differentiation happens at runtime.  Nothing here imports
numpy: the closed forms take a float or an ndarray alike, and so does
hermite_rows, the recurrence of the bound states that the grid samplers
in `sampling` (floats) and `susy` (numpy) run.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .errors import (
    ConstraintViolatedError,
    InvalidCountError,
    InvalidLambdaError,
    NonPositiveAlphaError,
    NotABoundStateError,
    OutOfDomainError,
)


class Kind(enum.Enum):
    """The named mass laws; make_family maps each to its (c, s)."""

    CASE1 = "case1"      # m(x) = 1/(1 + λx²)
    CASE2 = "case2"      # m(x) = (1 + x²/λ)⁻¹
    CASE3 = "case3"      # m(x) = 2/(1 − (λx)²)
    CONSTANT = "constant"  # m(x) = 1


# the first double past √DBL_MAX: x·x is a double exactly when |x| is below it
_SQUARABLE = 1.3407807929942597e154


class MassProfile(namedtuple("MassProfile", "c s")):
    """The mass law m(x) = c/(1 + s x²).

    The mass is positive on the whole line for s ≥ 0 and on |x| < 1/√(−s)
    for s < 0.
    """

    __slots__ = ()

    @property
    def hi(self) -> float:
        return 1.0 / math.sqrt(-self.s) if self.s < 0 else math.inf

    @property
    def lo(self) -> float:
        return -self.hi

    def contains(self, x) -> bool:
        """Whether a float, or every array entry, is inside and squares to a double."""
        inside = abs(x) < min(self.hi, _SQUARABLE)
        return bool(inside.all()) if hasattr(inside, "all") else inside


class ShapeInvariantFamily(namedtuple("ShapeInvariantFamily",
                                      "profile alpha0")):
    """A mass profile plus oscillator strength α.

    The parameter chain is α_n = alpha0 + n·eta (n ≥ 0) with the
    translation step η = −s/c, and the remainder is always the next
    parameter in the chain.
    """

    __slots__ = ()

    @property
    def eta(self) -> float:
        return -self.profile.s / self.profile.c


class VonRoosOrdering(namedtuple("VonRoosOrdering", "a b c")):
    """Kinetic-term ordering exponents, constrained by a + b + c = -1.

    The sum is checked to 1e-12 relative to the exponents' size, so decimal
    input such as (-0.7, -0.2, -0.1) is accepted.
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float, c: float):
        scale = max(1.0, abs(a), abs(b), abs(c))
        if not abs(a + b + c + 1.0) <= 1e-12 * scale:
            raise ConstraintViolatedError(
                f"ordering ({a}, {b}, {c}) violates a+b+c = -1")
        return super().__new__(cls, a, b, c)


SYMMETRIC_ORDERING = VonRoosOrdering(0.0, -1.0, 0.0)


def make_family(kind: Kind, alpha: float, lam: float = 0.0) -> ShapeInvariantFamily:
    """Build a family from its kind, oscillator strength and deformation.

    Every kind is the mass law c/(1 + s x²) for the (c, s) in the table
    below.  The Constant kind has no deformation, so it rejects lam ≠ 0
    (±0 is accepted).  Case 2 and Case 3 reject lam = 0: for Case 2 the
    mass is undefined there (its constant-mass limit is lam → ∞), and for
    Case 3 the mass would be the constant 2, which is a plain harmonic
    oscillator better served by Kind.CONSTANT.
    """
    if not (alpha > 0) or not math.isfinite(alpha):
        raise NonPositiveAlphaError(f"alpha must be positive and finite, got {alpha}")
    if not math.isfinite(lam):
        raise InvalidLambdaError(f"lambda must be finite, got {lam}")
    if kind == Kind.CASE2 and lam == 0:
        raise InvalidLambdaError("Case 2 requires lambda != 0; "
                                 "its constant-mass limit is lambda -> inf")
    if kind == Kind.CASE3 and lam == 0:
        raise InvalidLambdaError("Case 3 requires lambda != 0; "
                                 "the lambda = 0 mass is the constant 2 "
                                 "(use Kind.CONSTANT for a harmonic oscillator)")
    if kind == Kind.CONSTANT and lam != 0:
        raise InvalidLambdaError(f"the constant family has no deformation: "
                                 f"lambda must be 0, got {lam}")
    law = {
        Kind.CASE1: lambda: (1.0, lam),
        Kind.CASE2: lambda: (1.0, 1.0 / lam),
        Kind.CASE3: lambda: (2.0, -lam * lam),
        Kind.CONSTANT: lambda: (1.0, 0.0),
    }.get(kind)
    if law is None:
        raise ValueError(f"unknown kind {kind!r}")
    c, s = law()
    if not math.isfinite(s):
        raise InvalidLambdaError(f"lambda = {lam} puts s = {s} out of range")
    return ShapeInvariantFamily(MassProfile(c, s), alpha)


def require_inside(profile: MassProfile, x) -> None:
    """Refuse a float, or an array with an entry, outside the open domain
    or past √DBL_MAX: the one rule for every closed form, sampler and stencil."""
    if not profile.contains(x):
        raise OutOfDomainError(
            f"x outside the open domain ({profile.lo}, {profile.hi}) or at "
            f"|x| >= {_SQUARABLE}, where x*x leaves the range of a double")


# The closed forms below take a float or an ndarray x: x * x is the same
# IEEE operation as np.square, so both give the same bits.

def mass_at(profile: MassProfile, x):
    """m(x) = c/(1 + s x²) for scalar or array x strictly inside the domain."""
    require_inside(profile, x)
    return profile.c / (1.0 + profile.s * (x * x))


def masses_on(profile: MassProfile, xs: list) -> list:
    """[mass_at(profile, x) for x in xs] for an ascending list of floats.

    The ends of an ascending list bound the rest, so only they are checked
    against the domain.
    """
    require_inside(profile, xs[0])
    require_inside(profile, xs[-1])
    c, s = profile.c, profile.s
    return [c / (1.0 + s * (x * x)) for x in xs]


def potential_minus(family: ShapeInvariantFamily, alpha_n: float, x):
    """V₋(x; αₙ) = W² − (W/√(2m))′ = ½ c αₙ² x²/(1 + s x²) − ½ αₙ."""
    require_inside(family.profile, x)
    c, s = family.profile.c, family.profile.s
    x2 = x * x
    return 0.5 * c * alpha_n * alpha_n * x2 / (1.0 + s * x2) - 0.5 * alpha_n


def potential_plus(family: ShapeInvariantFamily, alpha_n: float, x):
    """Partner potential V₊(x; αₙ); equals V₋(x; αₙ + η) + R(αₙ).

    With b = αₙ + η it reads ½ c b² x²/(1 + s x²) + ½ b.
    """
    require_inside(family.profile, x)
    c, s = family.profile.c, family.profile.s
    b = alpha_n + family.eta
    x2 = x * x
    return 0.5 * c * b * b * x2 / (1.0 + s * x2) + 0.5 * b


def potential_full(family: ShapeInvariantFamily, x):
    """V(x) = ½ m(x) α² x², the confining potential of the Hamiltonian.

    Values past the range of a double are inf, which assembly refuses.
    """
    a = family.alpha0
    return 0.5 * mass_at(family.profile, x) * a * a * (x * x)


def potentials_on(family: ShapeInvariantFamily, xs: list, ms: list) -> list:
    """[potential_full(family, x) for x in xs], given ms = masses_on(xs)."""
    a = family.alpha0
    return [0.5 * m * a * a * (x * x) for m, x in zip(ms, xs)]


def alpha_at(family: ShapeInvariantFamily, n: int) -> float:
    """α_n = alpha0 + n·eta."""
    return family.alpha0 + n * family.eta


def remainder(family: ShapeInvariantFamily, alpha_n: float) -> float:
    """R(αₙ) = αₙ + η, the constant by which the partners differ."""
    return alpha_n + family.eta


def unified_deformation(family: ShapeInvariantFamily) -> float:
    """The single deformation parameter q = s/(cα), with Eₙ = α[(n+½) − q·n(n+1)/2].

    That is λ/α (Case 1), 1/(αλ) (Case 2), −λ²/(2α) (Case 3), 0 (Constant).
    """
    return family.profile.s / (family.profile.c * family.alpha0)


def hermite_rows(family: ShapeInvariantFamily, count: int, zeta, one,
                 step, top_of, scaled):
    """Yields (H_n(ζ, q)·2^−e, e) for n = 0 … count − 1 at the vector ζ,
    from H_{m+1} = a·ζ·H_m − b·H_{m−1}, a = 2 − (2m+1)q, b = m(2 − mq).

    Both grid samplers run it on vectors of their own kind: one is H_0,
    step(a, ζ, h, b, g) = a·ζ·h − b·g, top_of(v) = max|v| and
    scaled(v, k) = v·2^k.  H_0 may be the scalar 1 where these three take
    it; step may store its result over g, which the recurrence drops, and
    scaled may scale v in place.  H_n outgrows a double at high degree (on
    the default box, the squared norm of H_n φ_0 does from n = 150), so
    whenever a running bound on max|H_m| passes 2^256, the pair
    (H_{m−1}, H_m) is divided by the power of two just above max|H_m|,
    and e counts the divisions.  The bound depends on the degree only, so
    a division happens at the same step for every degree; it is exact, so
    any run of nodes gets the whole grid's H_n·2^−e up to a power of two.
    """
    q = unified_deformation(family)
    if not math.isfinite(q):  # a subnormal alpha can put it out of range
        raise InvalidLambdaError(
            f"the deformation q = s/(c*alpha) = {q} leaves the range of a "
            f"double, so the closed-form states cannot be sampled; raise "
            f"alpha or weaken the deformation")
    zeta_max = top_of(zeta)
    # H_{−1} = 0 enters the first step only, times b = 0, so H_0 stands in
    h_prev, h_cur, e = one, one, 0
    top_prev, top = 0.0, 1.0  # upper bounds on max|h_prev|, max|h_cur|
    yield h_cur, e
    for m in range(count - 1):
        a, b = 2.0 - (2 * m + 1) * q, m * (2.0 - m * q)
        h_prev, h_cur = h_cur, step(a, zeta, h_cur, b, h_prev)
        top_prev, top = top, abs(a) * zeta_max * top + abs(b) * top_prev
        if top > 2.0 ** 256:
            # a NaN or inf maximum divides by 2^0
            shift = math.frexp(top_of(h_cur))[1]
            h_prev, h_cur = scaled(h_prev, -shift), scaled(h_cur, -shift)
            top_prev, top, e = top_of(h_prev), 1.0, e + shift
        yield h_cur, e


def bound_state_count(family: ShapeInvariantFamily) -> int | None:
    """Number of normalizable levels, or None when the whole ladder is bound.

    For positive deformation the n-th state decays like x^(n - 1/q), so
    square integrability demands n < 1/q - 1/2.  Compact domains and
    Gaussian tails bind every level, and so does a q > 0 whose reciprocal
    overflows a double: no level index a double can hold reaches its cutoff.
    """
    q = unified_deformation(family)
    if q > 0 and 1.0 / q < math.inf:
        return max(0, math.ceil(1.0 / q - 0.5))
    return None


def require_bound(family: ShapeInvariantFamily, n: int) -> None:
    """Refuse a level index that is not a nonnegative integer, or one at or
    past the bound-state cutoff."""
    if not hasattr(type(n), "__index__") or n < 0:
        raise ValueError(f"level index must be a nonnegative integer, got {n!r}")
    count = bound_state_count(family)
    if count == 0:
        raise NotABoundStateError(
            f"this family binds no states: its deformation "
            f"q = {unified_deformation(family):g} is at least 2, so even the "
            f"ground state is not normalizable")
    if count is not None and n >= count:
        raise NotABoundStateError(
            f"level {n} is not bound: this family binds only {count} states "
            f"(n = 0..{count - 1}); levels at and above the cutoff are not "
            f"bound")


def require_resolved(norm: float, n: int) -> None:
    """Refuse level n when its sampled norm (or squared norm) is zero, as
    where every node lies where the state underflows, or is not finite,
    as where H_n leaves the range of a double."""
    if not norm:
        raise InvalidCountError(
            f"the grid does not resolve the bound states: level {n} is zero "
            f"at every node; narrow the box or refine the grid")
    if not norm < math.inf:  # NaN too, as from inf − inf in H_n
        raise InvalidLambdaError(
            f"level {n} leaves the range of a double on this grid; raise "
            f"alpha or weaken the deformation")


def energy(family: ShapeInvariantFamily, n: int) -> float:
    """Closed-form level Eₙ = α(n+½) − (s/2c)·n(n+1); refuses unbound or non-finite levels."""
    require_bound(family, n)
    p = family.profile
    e = family.alpha0 * (n + 0.5) - 0.5 * p.s / p.c * n * (n + 1)
    return _finite_energy(e, n, "closed-form ")


def energy_via_recursion(family: ShapeInvariantFamily, n: int) -> float:
    """Eₙ = E₀ + Σ_{i=1..n} R(α_i), the ladder route to the same number."""
    require_bound(family, n)
    total = 0.5 * family.alpha0
    for k in range(n):
        total += remainder(family, alpha_at(family, k))
    return _finite_energy(total, n, "")


def _finite_energy(e: float, n: int, route: str) -> float:
    if not math.isfinite(e):
        raise InvalidLambdaError(f"the {route}energy E_{n} is {e}: it leaves "
                                 f"the range of a double")
    return e
