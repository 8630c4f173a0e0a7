import math
import random
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from numpy.polynomial import hermite

from pdemosc import (
    ConstraintViolatedError,
    Kind,
    InvalidLambdaError,
    MassProfile,
    NonPositiveAlphaError,
    NotABoundStateError,
    OutOfDomainError,
    alpha_at,
    bound_state_count,
    build_grid,
    eigenfunction_lists,
    eigenfunction_samples,
    energy,
    energy_via_recursion,
    ground_state_unnormalized,
    make_family,
    mass_at,
    potential_full,
    potential_minus,
    potential_plus,
    remainder,
    ShapeInvariantFamily,
    superpotential_at,
    unified_deformation,
    uniform_grid,
    verify_all,
    VonRoosOrdering,
)
from pdemosc.families import require_bound
from pdemosc.susy import _frame, _ladders

# A handful of parameter points that exercise every mass profile, including
# deformations of both signs where the family allows them.
SAMPLE_FAMILIES = [
    (Kind.CASE1, 1.0, 0.1),
    (Kind.CASE1, 2.0, 0.35),
    (Kind.CASE1, 1.0, -0.4),
    (Kind.CASE2, 1.0, 10.0),
    (Kind.CASE2, 0.7, -3.0),
    (Kind.CASE3, 1.0, 0.2),
    (Kind.CASE3, 3.0, 1.5),
    (Kind.CONSTANT, 1.0, 0.0),
    (Kind.CONSTANT, 0.25, 0.0),
]


def interior_points(fam, count=7):
    # points strictly inside the domain, spread over most of it
    lo, hi = fam.profile.lo, fam.profile.hi
    if math.isinf(hi):
        lo, hi = -3.0, 3.0
    return np.linspace(0.8 * lo, 0.8 * hi, count)


def test_closed_form_matches_recursion():
    for kind, alpha, lam in SAMPLE_FAMILIES:
        fam = make_family(kind, alpha, lam)
        count = bound_state_count(fam)
        top = 12 if count is None else count - 1
        for n in range(0, top + 1):
            e_closed = energy(fam, n)
            e_rec = energy_via_recursion(fam, n)
            assert e_rec == pytest.approx(e_closed, abs=1e-12), (kind, n)


def test_energy_unified_formula():
    # E_n = alpha[(n + 1/2) - q n(n+1)/2] with the per-case deformation q.
    rng = random.Random(7)
    for _ in range(50):
        kind = rng.choice([Kind.CASE1, Kind.CASE2, Kind.CASE3, Kind.CONSTANT])
        alpha = rng.uniform(0.2, 4.0)
        if kind is Kind.CASE1:
            lam = rng.uniform(-0.5, 0.02)  # keep every level bound
        elif kind is Kind.CASE2:
            lam = rng.uniform(-9.0, -0.5)
        elif kind is Kind.CASE3:
            lam = rng.uniform(0.05, 1.0)
        else:
            lam = 0.0
        fam = make_family(kind, alpha, lam)
        q = unified_deformation(fam)
        n = rng.randrange(0, 12)
        want = alpha * ((n + 0.5) - q * n * (n + 1) / 2.0)
        assert energy(fam, n) == pytest.approx(want, rel=1e-14)


def test_ground_energy_is_half_alpha():
    for kind, alpha, lam in SAMPLE_FAMILIES:
        fam = make_family(kind, alpha, lam)
        assert energy(fam, 0) == pytest.approx(alpha / 2.0, rel=1e-15)


def test_parameter_walk_and_remainder():
    for kind, alpha, lam in SAMPLE_FAMILIES:
        fam = make_family(kind, alpha, lam)
        for n in range(6):
            a_n = alpha_at(fam, n)
            assert a_n == pytest.approx(alpha + n * fam.eta, rel=1e-14)
            # the remainder at alpha_n is the next parameter in the walk
            assert remainder(fam, a_n) == pytest.approx(alpha_at(fam, n + 1), rel=1e-14)


def test_riccati_pair():
    # V_minus = W^2 - (W/sqrt(2m))' and the derivative term is alpha_n/2 exactly,
    # because W/sqrt(2m) = alpha_n x / 2 for every profile.  Checked pointwise.
    for kind, alpha, lam in SAMPLE_FAMILIES:
        fam = make_family(kind, alpha, lam)
        xs = interior_points(fam)
        for n in (0, 1, 3):
            a_n = alpha_at(fam, n)
            w = superpotential_at(fam, a_n, xs)
            vm = potential_minus(fam, a_n, xs)
            assert np.allclose(vm, w * w - a_n / 2.0, rtol=1e-12, atol=1e-12), kind


def test_superpotential_over_sqrt_2m_is_linear():
    for kind, alpha, lam in SAMPLE_FAMILIES:
        fam = make_family(kind, alpha, lam)
        xs = interior_points(fam)
        for n in (0, 2):
            a_n = alpha_at(fam, n)
            w = superpotential_at(fam, a_n, xs)
            m = mass_at(fam.profile, xs)
            assert np.allclose(w / np.sqrt(2.0 * m), a_n * xs / 2.0, rtol=1e-13, atol=1e-13)


def test_partner_shift_is_constant():
    # V_plus(a_n) - V_minus(a_{n+1}) must be the constant remainder R(a_n),
    # independent of x.  This is the translational shape-invariance property.
    for kind, alpha, lam in SAMPLE_FAMILIES:
        fam = make_family(kind, alpha, lam)
        xs = interior_points(fam, count=11)
        for n in range(4):
            a_n = alpha_at(fam, n)
            gap = potential_plus(fam, a_n, xs) - potential_minus(fam, alpha_at(fam, n + 1), xs)
            scale = max(1.0, float(np.max(np.abs(potential_plus(fam, a_n, xs)))))
            assert np.max(np.abs(gap - remainder(fam, a_n))) < 1e-10 * scale, kind


def test_full_potential_is_minus_plus_ground_energy():
    for kind, alpha, lam in SAMPLE_FAMILIES:
        fam = make_family(kind, alpha, lam)
        xs = interior_points(fam)
        vfull = potential_full(fam, xs)
        vm = potential_minus(fam, alpha, xs)
        assert np.allclose(vfull, vm + alpha / 2.0, rtol=1e-12, atol=1e-12)
        # and the full potential is the mass-weighted square well
        m = mass_at(fam.profile, xs)
        assert np.allclose(vfull, 0.5 * m * alpha * alpha * xs * xs, rtol=1e-12, atol=1e-12)


def test_ground_state_log_derivative():
    # A annihilates the ground state, so phi0'/phi0 = -alpha m(x) x.
    for kind, alpha, lam in SAMPLE_FAMILIES:
        fam = make_family(kind, alpha, lam)
        xs = interior_points(fam)
        h = 1e-6 * max(1.0, float(np.max(np.abs(xs))))
        phi_p = ground_state_unnormalized(fam, xs + h)
        phi_m = ground_state_unnormalized(fam, xs - h)
        phi_0 = ground_state_unnormalized(fam, xs)
        logderiv = (phi_p - phi_m) / (2.0 * h * phi_0)
        want = -alpha * mass_at(fam.profile, xs) * xs
        assert np.allclose(logderiv, want, rtol=2e-5, atol=2e-5), kind


def test_mass_profiles_pointwise():
    xs = np.array([-0.9, -0.3, 0.0, 0.4, 0.8])
    f1 = make_family(Kind.CASE1, 1.0, 0.1)
    assert np.allclose(mass_at(f1.profile, xs), 1.0 / (1.0 + 0.1 * xs * xs))
    f2 = make_family(Kind.CASE2, 1.0, 10.0)
    assert np.allclose(mass_at(f2.profile, xs), 1.0 / (1.0 + xs * xs / 10.0))
    f3 = make_family(Kind.CASE3, 1.0, 0.2)
    assert np.allclose(mass_at(f3.profile, xs), 2.0 / (1.0 - (0.2 * xs) ** 2))
    f0 = make_family(Kind.CONSTANT, 1.0)
    assert np.allclose(mass_at(f0.profile, xs), 1.0)


def test_bound_state_counts():
    assert bound_state_count(make_family(Kind.CASE1, 1.0, 0.1)) == 10
    assert bound_state_count(make_family(Kind.CASE1, 1.0, 0.3)) == 3
    assert bound_state_count(make_family(Kind.CASE1, 1.0, 0.45)) == 2
    assert bound_state_count(make_family(Kind.CASE2, 1.0, 10.0)) == 10
    assert bound_state_count(make_family(Kind.CASE2, 1.0, 4.0)) == 4
    # negative deformation deepens the well: everything is bound
    assert bound_state_count(make_family(Kind.CASE1, 1.0, -0.2)) is None
    assert bound_state_count(make_family(Kind.CASE2, 1.0, -5.0)) is None
    assert bound_state_count(make_family(Kind.CASE3, 1.0, 0.2)) is None
    assert bound_state_count(make_family(Kind.CONSTANT, 1.0)) is None


def test_bound_count_scales_with_alpha():
    # q = lambda/alpha for the first profile, so doubling alpha doubles the count
    assert bound_state_count(make_family(Kind.CASE1, 2.0, 0.1)) == 20
    assert bound_state_count(make_family(Kind.CASE2, 2.0, 10.0)) == 20


def test_bound_count_at_the_ends_of_the_double_range():
    # the float rule decides the cutoff q = 2/(2n+1): the double nearest 2/3
    # sits just below it, where exact arithmetic would bind a second level
    assert bound_state_count(make_family(Kind.CASE1, 1.0, 2.0 / 3.0)) == 1
    # 1/q = 1e308 is finite and keeps its exact ceiling
    tiny = make_family(Kind.CASE1, 1.0, 1e-308)
    assert bound_state_count(tiny) == math.ceil(1e308)
    # a subnormal q has no finite reciprocal: every level is bound
    assert bound_state_count(make_family(Kind.CASE1, 1e10, 1e-300)) is None
    assert bound_state_count(make_family(Kind.CASE1, 1.7e308, 0.1)) is None


def test_bound_cutoff_against_norm_integral():
    # Independent check of the cutoff rule: |phi_n|^2 integrated over growing
    # truncations converges for the last bound level and keeps growing for the
    # first unbound one.  lam~ = 0.3 binds exactly three levels (n = 0, 1, 2).
    fam = make_family(Kind.CASE1, 1.0, 0.3)
    assert bound_state_count(fam) == 3

    # phi_n ~ zeta^n * phi_0 up to the polynomial's lower-order terms, so the
    # tail behavior is captured by x^(2n) |phi_0|^2.
    def tail_integral(n, box):
        xs = np.linspace(0.0, box, 200001)
        phi0 = ground_state_unnormalized(fam, xs)
        return np.trapezoid((xs ** n * phi0) ** 2, xs)

    bound = [tail_integral(2, box) for box in (100.0, 200.0, 400.0, 800.0)]
    unbound = [tail_integral(3, box) for box in (100.0, 200.0, 400.0, 800.0)]
    assert bound[-1] / bound[-2] < 1.001  # converged
    assert unbound[-1] / unbound[-2] > 1.3  # still growing


def test_energy_refuses_unbound_levels():
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    for n in (10, 11, 25):
        with pytest.raises(NotABoundStateError):
            energy(fam, n)
        with pytest.raises(NotABoundStateError):
            energy_via_recursion(fam, n)
    # the diagnostic names the cutoff
    with pytest.raises(NotABoundStateError, match="binds only 10 states"):
        energy(fam, 10)
    # a negative level is refused before the cutoff is looked at
    with pytest.raises(ValueError, match="nonnegative"):
        require_bound(fam, -1)


def test_energy_refuses_levels_past_the_range_of_a_double():
    # E_2 = 2.5·alpha overflows, and was returned as inf
    fam = make_family(Kind.CONSTANT, 1e308)
    assert energy(fam, 1) == 1.5e308
    with pytest.raises(InvalidLambdaError,
                       match="the closed-form energy E_2 is inf: it leaves "
                             "the range of a double"):
        energy(fam, 2)


def test_the_ladder_route_refuses_what_the_closed_form_refuses():
    # E_0 + R(α_0) + R(α_1) overflows as E_2 does, and was returned as inf
    fam = make_family(Kind.CONSTANT, 1e308)
    assert energy_via_recursion(fam, 1) == 1.5e308
    with pytest.raises(InvalidLambdaError,
                       match="^the energy E_2 is inf: it leaves the range of "
                             "a double$"):
        energy_via_recursion(fam, 2)


def test_a_level_index_that_is_not_an_integer_is_refused():
    # 2.5 gave the energy 2.5625 and 2.0 gave 2.2, while the samplers
    # ended in a TypeError from range(); an integer of any type is a level
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = uniform_grid(5.0, 100)
    calls = [energy, energy_via_recursion,
             lambda f, n: eigenfunction_lists(f, n, grid),
             lambda f, n: eigenfunction_samples(f, n, grid)]
    for call in calls:
        for n in (2.5, 2.0, "2", None):
            with pytest.raises(ValueError, match="nonnegative integer"):
                call(fam, n)
    assert energy(fam, np.int64(2)) == energy(fam, 2) == 2.2
    assert energy_via_recursion(fam, np.int64(2)) == energy_via_recursion(fam, 2)
    assert eigenfunction_samples(fam, np.int64(1), grid).tobytes() == \
        eigenfunction_samples(fam, 1, grid).tobytes()


def test_constant_family_refuses_a_deformation():
    with pytest.raises(InvalidLambdaError, match="lambda must be 0, got 5.0"):
        make_family(Kind.CONSTANT, 1.0, 5.0)
    for zero in (0.0, -0.0):
        fam = make_family(Kind.CONSTANT, 1.0, zero)
        assert fam.profile.s == 0.0 and fam.eta == 0.0


def test_a_family_is_its_mass_law_and_alpha():
    # no label of the request is stored: a family is (c, s) and alpha
    assert MassProfile._fields == ("c", "s")
    assert ShapeInvariantFamily._fields == ("profile", "alpha0")


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(list(Kind)),
       st.floats(0.0, None, exclude_min=True, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_eta_is_computed_from_the_mass_law(kind, alpha, lam):
    if kind == Kind.CONSTANT:
        lam = math.copysign(0.0, lam)
    try:
        fam = make_family(kind, alpha, lam)
    except InvalidLambdaError:  # lambda = 0 or an s past a double
        assume(False)
    assert fam.eta.hex() == (-fam.profile.s / fam.profile.c).hex()


def test_last_bound_level_is_accepted():
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    assert energy(fam, 9) == pytest.approx(5.0, rel=1e-14)


def test_validation_rejects_bad_parameters():
    with pytest.raises(NonPositiveAlphaError):
        make_family(Kind.CASE1, 0.0, 0.1)
    with pytest.raises(NonPositiveAlphaError):
        make_family(Kind.CASE1, -1.0, 0.1)
    with pytest.raises(NonPositiveAlphaError):
        make_family(Kind.CASE1, math.nan, 0.1)
    with pytest.raises(InvalidLambdaError):
        make_family(Kind.CASE1, 1.0, math.inf)
    # these two profiles have lambda in a denominator
    with pytest.raises(InvalidLambdaError):
        make_family(Kind.CASE2, 1.0, 0.0)
    with pytest.raises(InvalidLambdaError):
        make_family(Kind.CASE3, 1.0, 0.0)
    # a kind's value is not a kind
    with pytest.raises(ValueError, match="unknown kind 'case1'"):
        make_family("case1", 1.0, 0.1)


def test_domains():
    # positive deformation of the first profile: mass positive everywhere
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    assert math.isinf(fam.profile.hi) and fam.profile.hi > 0
    # negative deformation: mass blows up at |x| = 1/sqrt(|lam|)
    fam = make_family(Kind.CASE1, 1.0, -0.25)
    assert fam.profile.hi == pytest.approx(2.0)
    fam = make_family(Kind.CASE2, 1.0, -4.0)
    assert fam.profile.hi == pytest.approx(2.0)
    # third profile is always compact: |x| < 1/|lam|
    fam = make_family(Kind.CASE3, 1.0, 0.2)
    assert fam.profile.lo == pytest.approx(-5.0)
    assert fam.profile.hi == pytest.approx(5.0)
    assert fam.profile.contains(4.99)
    assert not fam.profile.contains(5.01)


# every public function that evaluates the mass law or a closed form at
# points x, and every one that samples on a grid's nodes
AT_POINTS = {
    "mass_at": lambda fam, x: mass_at(fam.profile, x),
    "potential_minus": lambda fam, x: potential_minus(fam, 1.0, x),
    "potential_plus": lambda fam, x: potential_plus(fam, 1.0, x),
    "potential_full": potential_full,
    "superpotential_at": lambda fam, x: superpotential_at(fam, 1.0, x),
    "ground_state_unnormalized": ground_state_unnormalized,
}
ON_GRIDS = {
    "eigenfunction_samples": lambda fam, grid: eigenfunction_samples(fam, 0, grid),
    "eigenfunction_lists": lambda fam, grid: eigenfunction_lists(fam, 0, grid),
    "ladders": lambda fam, grid: _ladders(fam, _frame(grid, 0, grid.n),
                                          (1.0,)),
    "verify_all": verify_all,
}


@pytest.mark.parametrize("kind, lam", [(Kind.CASE1, 1.0), (Kind.CONSTANT, 0.0)],
                         ids=["case1", "constant"])
@pytest.mark.parametrize("name", [*AT_POINTS, *ON_GRIDS])
def test_every_evaluation_refuses_x_that_squares_past_a_double(kind, lam, name):
    # x·x is inf at |x| = 1e200, where the closed forms would warn or give
    # inf, 0 and NaN samples; each refuses through the one domain rule
    fam = make_family(kind, 1.0, lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if name in AT_POINTS:
            for x in (1e200, -1e200, np.array([0.5, 1e200]),
                      np.array([-1e200, 0.5])):
                with pytest.raises(OutOfDomainError, match="x outside"):
                    AT_POINTS[name](fam, x)
        else:
            with pytest.raises(OutOfDomainError, match="x outside"):
                ON_GRIDS[name](fam, uniform_grid(1e200, 100))


@pytest.mark.parametrize("kind, lam", [(Kind.CASE1, 1.0), (Kind.CONSTANT, 0.0)],
                         ids=["case1", "constant"])
def test_mass_is_evaluated_up_to_the_root_of_the_largest_double(kind, lam):
    # √DBL_MAX rounds down, so it squares to a double; the next double
    # squares to inf and is refused, as a float and in an array
    root = math.sqrt(sys.float_info.max)
    past = math.nextafter(root, math.inf)
    profile = make_family(kind, 1.0, lam).profile
    bound = re.escape(f"|x| >= {past!r}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (root, -root):
            assert mass_at(profile, x) > 0
            assert mass_at(profile, np.array([0.0, x]))[1] > 0
        for x in (past, -past):
            with pytest.raises(OutOfDomainError, match=bound):
                mass_at(profile, x)
            with pytest.raises(OutOfDomainError, match=bound):
                mass_at(profile, np.array([0.0, x]))


def test_harmonic_limit_of_case1():
    # lam = 0 is allowed for the first profile and reproduces constant mass
    fam = make_family(Kind.CASE1, 1.3, 0.0)
    ref = make_family(Kind.CONSTANT, 1.3)
    xs = np.linspace(-3, 3, 13)
    assert np.allclose(mass_at(fam.profile, xs), 1.0)
    assert np.allclose(potential_full(fam, xs), potential_full(ref, xs))
    for n in range(8):
        assert energy(fam, n) == pytest.approx(energy(ref, n), rel=1e-15)
    assert np.allclose(ground_state_unnormalized(fam, xs), np.exp(-1.3 * xs * xs / 2.0))


def test_case3_harmonic_degeneration_is_spectral():
    # the third profile tends to mass 2, not 1, so only the energies degenerate;
    # the gap to the constant-mass spectrum is exactly lam^2 n(n+1)/4
    ref = make_family(Kind.CONSTANT, 1.0)
    for lam in (0.1, 0.02):
        fam = make_family(Kind.CASE3, 1.0, lam)
        for n in range(6):
            gap = energy(fam, n) - energy(ref, n)
            assert gap == pytest.approx(lam * lam * n * (n + 1) / 4.0, rel=1e-10, abs=1e-15)


# one-decimal triples whose float sum misses -1 by an ulp
@pytest.mark.parametrize("text", ["-0.7,-0.2,-0.1", "-0.2,-0.7,-0.1",
                                  "-0.3,-0.6,-0.1", "-0.6,-0.3,-0.1",
                                  "-0.7,0.4,-0.7"])
def test_decimal_orderings_are_accepted(text):
    a, b, c = (float(t) for t in text.split(","))
    assert VonRoosOrdering(a, b, c).b == b


@pytest.mark.parametrize("abc", [(0.0, 0.0, 0.0), (-0.7, -0.2, -0.2),
                                 (math.nan, -1.0, 0.0)])
def test_orderings_off_the_constraint_are_refused(abc):
    with pytest.raises(ConstraintViolatedError):
        VonRoosOrdering(*abc)


@pytest.mark.parametrize("n", [40, 60])
def test_samples_match_hermval_at_high_degree(n):
    fam = make_family(Kind.CONSTANT, 1.0)
    grid = build_grid(fam, 4000)
    unit = np.zeros(n + 1)
    unit[n] = 1.0
    x = np.array(grid.nodes())
    ref = hermite.hermval(x, unit) * np.exp(-0.5 * x ** 2)
    ref /= math.sqrt(grid.h * float(np.dot(ref, ref)))
    phi = eigenfunction_samples(fam, n, grid)
    assert np.max(np.abs(phi - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [150, 200, 400])
def test_samples_stay_finite_past_double_range(n):
    # unscaled, the squared norm of H_n φ_0 overflows from n = 150 on this
    # box; the normalized Hermite functions obey a recurrence that does not
    fam = make_family(Kind.CONSTANT, 1.0)
    grid = build_grid(fam, 2000)
    x = np.array(grid.nodes())
    prev, ref = np.zeros_like(x), math.pi ** -0.25 * np.exp(-0.5 * x * x)
    for m in range(n):
        prev, ref = ref, (math.sqrt(2.0 / (m + 1)) * x * ref
                          - math.sqrt(m / (m + 1)) * prev)
    ref /= math.sqrt(grid.h * float(np.dot(ref, ref)))
    phi = eigenfunction_samples(fam, n, grid)
    assert np.max(np.abs(phi - ref)) < 1e-12 * np.max(np.abs(ref))


def test_tiny_lambda_matches_constant():
    # lambda = 1e-300 is the harmonic oscillator to double precision
    fam = make_family(Kind.CASE1, 1.0, 1e-300)
    ref = make_family(Kind.CONSTANT, 1.0)
    grid, ref_grid = build_grid(fam, 800), build_grid(ref, 800)
    assert grid.hi == pytest.approx(ref_grid.hi, rel=1e-14)
    xs = np.linspace(-5.0, 5.0, 11)
    assert np.allclose(ground_state_unnormalized(fam, xs),
                       np.exp(-0.5 * xs * xs), rtol=1e-14, atol=0.0)
    for n in (0, 3, 9):
        assert np.allclose(eigenfunction_samples(fam, n, grid),
                           eigenfunction_samples(ref, n, ref_grid),
                           rtol=0.0, atol=1e-12)


def test_box_overflow_is_refused():
    fam = make_family(Kind.CASE1, 1.0, 1.9)
    with pytest.raises(InvalidLambdaError, match="tail tolerance"):
        build_grid(fam, 400, tail_tolerance=1e-300)
