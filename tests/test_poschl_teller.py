"""The families seen through a change of variable: Pöschl–Teller wells.

For m = c/(1 + s x²) and s > 0, x = sinh(√s u)/√s gives m·(dx/du)² = c,
and χ = (dx/du)^½·ψ turns H = −½ D m⁻¹ D + ½ m α² x² into the
constant-mass operator

    −(1/2c) d²/du² + (cα²/2s − s/8c)·tanh²(√s u) + s/4c,

the modified Pöschl–Teller well with ν(ν + 1) = c²α²/s² − ¼, that is
ν = 1/q − ½.  For s < 0, x = sin(√|s| u)/√|s| gives the trigonometric
well (cα²/2|s| − |s|/8c)·tan²(√|s| u) − |s|/4c.  The states of both wells
are Gegenbauer polynomials, so the paper's H_n(ζ, q) are too.  These
tests derive all of it again with sympy, independently of the package,
and hold `gf_polynomial`, `energy` and `bound_state_count` to it.
"""

from fractions import Fraction

import pytest
import sympy as sp

from pdemosc import (
    Kind,
    Parameterization,
    bound_state_count,
    energy,
    gf_polynomial,
    make_family,
    unified_deformation,
)

HALF = sp.Rational(1, 2)


def _gf_rows(n, par, q, one):
    """H_n(ζ, q) as its coefficients of ζ⁰ … ζⁿ, in the unified q: Case 3
    stores υ² = −q."""
    v = -q if par == Parameterization.CASE3 else q
    rows = [one * 0] * (n + 1)
    for k, row in gf_polynomial(n, par).coeffs.items():
        rows[k] = sum((one * c.numerator / c.denominator * v ** j
                       for j, c in row.items()), one * 0)
    return rows


def _gegenbauer_rows(n, q, one):
    """q^(−n/2)·(1 + qζ²)^(n/2)·C_n^(λ)(√q ζ/√(1 + qζ²)), λ = 1/q − n, as
    its coefficients of ζ⁰ … ζⁿ.

    C_n comes from its three-term recurrence (sympy.gegenbauer with a
    symbolic order gives wrong odd degrees), m C_m = 2y(m + λ − 1) C_{m−1}
    − (m + 2λ − 2) C_{m−2}.  Multiplied by q^(−m/2)·(1 + qζ²)^(m/2) it
    holds with y·√(1 + qζ²)/√q = ζ and (1 + qζ²)/q = 1/q + ζ², so no root
    appears and every coefficient is rational in q.
    """
    lam = 1 / q - n
    prev, cur = [one], [one * 0, 2 * lam * one]
    if n == 0:
        return prev
    for m in range(2, n + 1):
        a, b = 2 * (m + lam - 1), m + 2 * lam - 2
        new = [one * 0] * (m + 1)
        for i, x in enumerate(cur):
            new[i + 1] += a * x
        for i, x in enumerate(prev):
            new[i] -= b * x / q
            new[i + 2] -= b * x
        prev, cur = cur, [x / m for x in new]
    return cur


def _proportional(h, g):
    """Whether h and g, of the same degree, differ by a factor free of ζ."""
    return bool(g[-1]) and all(x * g[-1] == y * h[-1] for x, y in zip(h, g))


def test_gf_polynomials_are_gegenbauer_polynomials_in_disguise():
    # H_n(ζ, q) / [(1 + qζ²)^(n/2)·C_n^(1/q − n)(√q ζ/√(1 + qζ²))] is free
    # of ζ, on every parameterization: as an identity of rational functions
    # of q through degree 10 (so as a polynomial identity in q, also for
    # Case 3's υ² = −q), and at exact rational q of both signs through
    # degree 20, where 2/q is no integer, so C_n keeps degree n
    field = sp.QQ.frac_field(sp.Symbol("q"))
    for par in Parameterization:
        for n in range(11):
            q = field.gens[0]
            assert _proportional(_gf_rows(n, par, q, field.one),
                                 _gegenbauer_rows(n, q, field.one)), (par, n)
        for q in (Fraction(3, 7), Fraction(-3, 5), Fraction(5, 61)):
            for n in range(21):
                assert _proportional(_gf_rows(n, par, q, Fraction(1)),
                                     _gegenbauer_rows(n, q, Fraction(1))), \
                    (par, q, n)
    # the check sees a wrong coefficient
    q = field.gens[0]
    wrong = _gf_rows(6, Parameterization.CASE1, q, field.one)
    wrong[2] += 1
    assert not _proportional(wrong, _gegenbauer_rows(6, q, field.one))


def _transformed(sign):
    """(√x′·H(χ/√x′), the well it should equal, χ, m·x′² − c) for
    x = sinh(√s u)/√s (sign 1) or sin(√s u)/√s (sign −1, where s stands
    for |s|)."""
    u, c, s, alpha = sp.symbols("u c s alpha", positive=True)
    chi = sp.Function("chi")(u)
    root = sp.sqrt(s)
    x = (sp.sinh if sign > 0 else sp.sin)(root * u) / root
    dx = sp.diff(x, u)
    m = c / (1 + sign * s * x**2)

    def d(f):
        return sp.diff(f, u) / dx
    psi = chi / sp.sqrt(dx)
    got = sp.sqrt(dx) * (-d(d(psi) / m) / 2 + m * alpha**2 * x**2 * psi / 2)
    well = (sp.tanh if sign > 0 else sp.tan)(root * u) ** 2
    want = (-sp.diff(chi, u, 2) / (2 * c)
            + (c * alpha**2 / (2 * s) - s / (8 * c)) * well * chi
            + sign * s / (4 * c) * chi)
    return got, want, chi, m * dx**2 - c


@pytest.mark.parametrize("sign", [1, -1], ids=["sinh", "sin"])
def test_the_change_of_variable_gives_a_poschl_teller_well(sign):
    got, want, chi, constant_mass = _transformed(sign)
    assert sp.simplify(constant_mass) == 0
    rest = sp.expand(got - want)
    for term in (chi.diff(chi.args[0], 2), chi.diff(chi.args[0]), chi):
        coefficient = rest.coeff(term)
        assert sp.simplify(coefficient.rewrite(sp.exp)) == 0, (sign, term)
        rest = sp.expand(rest - coefficient * term)
    assert rest == 0


def _gegenbauer(n, lam, y):
    prev, cur = sp.Integer(1), 2 * lam * y
    if n == 0:
        return prev
    for m in range(2, n + 1):
        prev, cur = cur, sp.expand(
            (2 * y * (m + lam - 1) * cur - (m + 2 * lam - 2) * prev) / m)
    return cur


def _over_power(p, poly, y):
    """(F′, F″)/(1 − y²)^p for F = (1 − y²)^p·poly."""
    w = 1 - y**2
    d1 = sp.diff(poly, y) - 2 * p * y * poly / w
    return d1, sp.diff(d1, y) - 2 * p * y * d1 / w


def test_poschl_teller_levels_are_the_closed_form():
    # the wells' textbook states solve them at the textbook levels, which
    # are α(n + ½) − (s/2c)·n(n + 1) for both signs of s.  Writing
    # α = s(ν + ½)/c keeps ν = 1/q − ½ symbolic.
    y, c, s, nu = sp.symbols("y c s nu", positive=True)
    w = 1 - y**2
    alpha = s * (nu + HALF) / c
    strength = c * alpha**2 / (2 * s) - s / (8 * c)
    assert sp.expand(nu * (nu + 1) - (c * alpha / s) ** 2 + HALF**2) == 0
    for n in range(4):
        closed_form = alpha * (n + HALF) - s / (2 * c) * n * (n + 1)
        # s > 0, y = tanh(√s u): χ_n = (1 − y²)^((ν−n)/2)·C_n^(ν−n+½)(y)
        # at ½s/c·ν(ν + 1) − ½s/c·(ν − n)² + s/4c
        poly = _gegenbauer(n, nu - n + HALF, y)
        d1, d2 = _over_power((nu - n) / 2, poly, y)
        textbook = (strength + s / (4 * c) - s / (2 * c) * (nu - n) ** 2)
        assert sp.simplify(textbook - closed_form) == 0
        well = (-s / (2 * c) * w * (w * d2 - 2 * y * d1)
                + (strength * y**2 + s / (4 * c)) * poly)
        assert sp.cancel(well - textbook * poly) == 0, n
        # s = −|s| < 0, y = sin(√|s| u): χ_n = (1 − y²)^(κ/2)·C_n^(κ)(y)
        # with κ = 1/|q| + ½, here s stands for |s| and ν for 1/|q| − ½
        kappa = nu + 1
        poly = _gegenbauer(n, kappa, y)
        d1, d2 = _over_power(kappa / 2, poly, y)
        well = (-s / (2 * c) * (w * d2 - y * d1)
                + (strength * y**2 / w - s / (4 * c)) * poly)
        closed_form = alpha * (n + HALF) + s / (2 * c) * n * (n + 1)
        assert sp.cancel(well - closed_form * poly) == 0, n


FAMILIES = [(Kind.CASE1, 1.0, 0.1), (Kind.CASE1, 1.5, 0.3),
            (Kind.CASE1, 1.0, 0.45), (Kind.CASE2, 2.0, 10.0),
            (Kind.CASE2, 1.0, 0.7), (Kind.CASE1, 3.0, 5.0)]


@pytest.mark.parametrize("kind, alpha, lam", FAMILIES)
def test_poschl_teller_levels_and_cutoff_are_the_packages(kind, alpha, lam):
    # the modified well binds the levels n < ν = 1/q − ½, where its state
    # sech^(ν−n)(√s u)·C_n(tanh √s u) is square integrable in u, at
    # V₀ + s/4c − (s/2c)(ν − n)²; on a compact domain (s < 0) the
    # trigonometric well binds every level
    fam = make_family(kind, alpha, lam)
    p = fam.profile
    q = Fraction(unified_deformation(fam))
    bound = [n for n in range(100) if n < 1 / q - Fraction(1, 2)]
    assert bound_state_count(fam) == len(bound) < 100
    nu = 1 / float(q) - 0.5
    strength = p.c * alpha**2 / (2 * p.s) - p.s / (8 * p.c)
    for n in bound:
        want = strength + p.s / (4 * p.c) - p.s / (2 * p.c) * (nu - n) ** 2
        assert energy(fam, n) == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert bound_state_count(make_family(Kind.CASE3, alpha, lam)) is None
