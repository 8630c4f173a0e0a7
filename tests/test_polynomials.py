import hashlib
from fractions import Fraction as F

import numpy as np
import pytest
import sympy

from pdemosc import (
    DegreeMismatchError,
    FamilyTag,
    Kind,
    LambdaPoly,
    NotABoundStateError,
    NotProportionalError,
    OutOfDomainError,
    Parameterization,
    bound_state_count,
    build_grid,
    coefficient_rows,
    derivative_relation_residual,
    eigenfunction_samples,
    evaluate,
    gf_polynomial,
    gf_polynomials,
    harmonic_limit,
    inner_product,
    make_family,
    proportionality_ratio,
    rodrigues_polynomial,
    three_term_next,
    to_json_dict,
    uniform_grid,
)
from pdemosc import polynomials

C1 = Parameterization.CASE1
C2 = Parameterization.CASE2
C3 = Parameterization.CASE3


def poly_from_factored(pairs):
    """Expand {zeta_exp: polynomial-in-d as {d_exp: Fraction}} given as plain ints."""
    return {
        ze: {de: F(c) for de, c in qpoly.items() if c != 0}
        for ze, qpoly in pairs.items()
        if any(c != 0 for c in qpoly.values())
    }


def qmul(a, b):
    out = {}
    for i, ai in a.items():
        for j, bj in b.items():
            out[i + j] = out.get(i + j, F(0)) + F(ai) * F(bj)
    return {k: v for k, v in out.items() if v != 0}


def qscale(a, s):
    return {k: F(s) * F(v) for k, v in a.items() if F(s) * F(v) != 0}


# ---------------------------------------------------------------------------
# The published series coefficients, expanded from their factored form with
# exact rationals.  First family, variable d = lam~:
#   H0 = 1
#   H1 = (2-d) z
#   H2 = (-1)(2-d) [1 + (3d-2) z^2]
#   H3 = (-3)(2-d)(2-3d) [z + 1/3 (5d-2) z^3]
#   H4 = (3)(2-d)(2-3d) [1 + 2(5d-2) z^2 + 1/3 (5d-2)(7d-2) z^4]
#   H5 = (15)(2-d)(2-3d)(2-5d) [z + 2/3 (7d-2) z^3 + 1/15 (7d-2)(9d-2) z^5]
# ---------------------------------------------------------------------------

D2 = {0: 2, 1: -1}          # (2 - d)
D2_3 = {0: 2, 1: -3}        # (2 - 3d)
D2_5 = {0: 2, 1: -5}        # (2 - 5d)
D3 = {0: -2, 1: 3}          # (3d - 2)
D5 = {0: -2, 1: 5}          # (5d - 2)
D7 = {0: -2, 1: 7}          # (7d - 2)
D9 = {0: -2, 1: 9}          # (9d - 2)


def printed_case1(n):
    if n == 0:
        return {0: {0: F(1)}}
    if n == 1:
        return {1: dict(D2)}
    if n == 2:
        lead = qscale(D2, -1)
        return poly_from_factored({0: lead, 2: qmul(lead, D3)})
    if n == 3:
        lead = qscale(qmul(D2, D2_3), -3)
        return poly_from_factored({1: lead, 3: qmul(lead, qscale(D5, F(1, 3)))})
    if n == 4:
        lead = qscale(qmul(D2, D2_3), 3)
        return poly_from_factored({
            0: lead,
            2: qmul(lead, qscale(D5, 2)),
            4: qmul(lead, qscale(qmul(D5, D7), F(1, 3))),
        })
    if n == 5:
        lead = qscale(qmul(qmul(D2, D2_3), D2_5), 15)
        return poly_from_factored({
            1: lead,
            3: qmul(lead, qscale(D7, F(2, 3))),
            5: qmul(lead, qscale(qmul(D7, D9), F(1, 15))),
        })
    raise ValueError(n)


# Second family, variable d = 1/mu; published with the signs arranged
# differently but the same content:
#   H0 = 1
#   H1 = (2-d) z
#   H2 = (-1)(2-d) [1 - (2-3d) z^2]
#   H3 = (-3)(2-d)(2-3d) [z - 1/3 (2-5d) z^3]
#   H4 = (3)(2-d)(2-3d) [1 - 2(2-5d) z^2 + 1/3 (2-5d)(2-7d) z^4]

D2_7 = {0: 2, 1: -7}


def printed_case2(n):
    if n == 0:
        return {0: {0: F(1)}}
    if n == 1:
        return {1: dict(D2)}
    if n == 2:
        lead = qscale(D2, -1)
        return poly_from_factored({0: lead, 2: qmul(lead, qscale(D2_3, -1))})
    if n == 3:
        lead = qscale(qmul(D2, D2_3), -3)
        return poly_from_factored({1: lead, 3: qmul(lead, qscale(D2_5, F(-1, 3)))})
    if n == 4:
        lead = qscale(qmul(D2, D2_3), 3)
        return poly_from_factored({
            0: lead,
            2: qmul(lead, qscale(D2_5, -2)),
            4: qmul(lead, qscale(qmul(D2_5, D2_7), F(1, 3))),
        })
    raise ValueError(n)


# Third family, variable d = v^2 (compact support; deformation enters with
# the opposite sign).  The published list is reliable through n = 3; the
# printed n = 4 and n = 5 entries are garbled, so those degrees are covered
# by the recurrence and continuation tests instead.
#   H0 = 1
#   H1 = (2+d) z
#   H2 = (-1)(2+d) [1 - (2+3d) z^2]
#   H3 = (-3)(2+d)(2+3d) [z - 1/3 (2+5d) z^3]

P2 = {0: 2, 1: 1}
P2_3 = {0: 2, 1: 3}
P2_5 = {0: 2, 1: 5}


def printed_case3(n):
    if n == 0:
        return {0: {0: F(1)}}
    if n == 1:
        return {1: dict(P2)}
    if n == 2:
        lead = qscale(P2, -1)
        return poly_from_factored({0: lead, 2: qmul(lead, qscale(P2_3, -1))})
    if n == 3:
        lead = qscale(qmul(P2, P2_3), -3)
        return poly_from_factored({1: lead, 3: qmul(lead, qscale(P2_5, F(-1, 3)))})
    raise ValueError(n)


def as_plain(coeffs):
    return {ze: {de: F(c) for de, c in qp.items()} for ze, qp in coeffs.items()}


def test_series_matches_printed_case1():
    for n in range(6):
        got = as_plain(gf_polynomial(n, C1).coeffs)
        assert got == printed_case1(n), f"degree {n}"


def test_series_matches_printed_case2():
    for n in range(5):
        got = as_plain(gf_polynomial(n, C2).coeffs)
        assert got == printed_case2(n), f"degree {n}"


def test_series_matches_printed_case3():
    for n in range(4):
        got = as_plain(gf_polynomial(n, C3).coeffs)
        assert got == printed_case3(n), f"degree {n}"


def test_series_against_sympy_generating_function():
    # Independent construction: expand [1 + q(2tz - t^2)]^(1/q - 1/2) in t and
    # read off n! times the t^n coefficient, at a few exact rational q.
    t, z = sympy.symbols("t z")
    for qval in (sympy.Rational(1, 7), sympy.Rational(3, 5), sympy.Rational(-2, 9)):
        g = (1 + qval * (2 * t * z - t * t)) ** (sympy.Rational(1, 1) / qval - sympy.Rational(1, 2))
        series = sympy.series(g, t, 0, 7).removeO()
        for n in range(7):
            want = sympy.expand(series.coeff(t, n) * sympy.factorial(n))
            mine = gf_polynomial(n, C1)
            got = sum(
                sympy.Rational(c) * sympy.Rational(qval) ** de * z ** ze
                for ze, qp in mine.coeffs.items()
                for de, c in qp.items()
            )
            assert sympy.expand(got - want) == 0, (qval, n)


def test_rodrigues_against_sympy_differentiation():
    # Independent construction of the alternative family: the n-fold
    # derivative formula (-1)^n (1+q z^2)^(1/q) d^n/dz^n (1+q z^2)^(n - 1/q),
    # evaluated symbolically at exact rational q.
    z = sympy.symbols("z")
    for qval in (sympy.Rational(1, 7), sympy.Rational(-2, 9)):
        for n in range(6):
            inner = (1 + qval * z * z) ** (n - sympy.Rational(1, 1) / qval)
            expr = (-1) ** n * (1 + qval * z * z) ** (sympy.Rational(1, 1) / qval) * sympy.diff(inner, z, n)
            want = sympy.expand(sympy.simplify(expr))
            mine = rodrigues_polynomial(n, C1)
            got = sum(
                sympy.Rational(c) * sympy.Rational(qval) ** de * z ** ze
                for ze, qp in mine.coeffs.items()
                for de, c in qp.items()
            )
            assert sympy.expand(got - want) == 0, (qval, n)


def test_rodrigues_small_degrees():
    # H1 = (2-2d) z and H2 = (4d-2)[1 + (3d-2) z^2]; these differ from the
    # series family by a degree-dependent scalar only.
    p1 = rodrigues_polynomial(1, C1)
    assert as_plain(p1.coeffs) == {1: {0: F(2), 1: F(-2)}}
    p2 = rodrigues_polynomial(2, C1)
    lead = {0: F(-2), 1: F(4)}
    assert as_plain(p2.coeffs) == {0: lead, 2: qmul(lead, D3)}


def test_recurrence_equals_series():
    # build the whole family three-term style and compare exactly
    for par in (C1, C2, C3):
        prev, cur = None, gf_polynomial(0, par)
        assert as_plain(cur.coeffs) == {0: {0: F(1)}}
        for m in range(0, 15):
            nxt = three_term_next(cur, prev, m)
            assert as_plain(nxt.coeffs) == as_plain(gf_polynomial(m + 1, par).coeffs), (par, m)
            prev, cur = cur, nxt


@pytest.mark.parametrize("par", [C1, C2, C3])
def test_shared_products_match_single_degrees_and_recurrence(par):
    # every degree read from one set of Pi_k equals the degree built alone
    # and the three-term chain, dict for dict
    family = gf_polynomials(40, par)
    assert [p.degree for p in family] == list(range(41))
    prev, cur = None, gf_polynomial(0, par)
    for n, p in enumerate(family):
        assert p.coeffs == gf_polynomial(n, par).coeffs, n
        assert p.coeffs == cur.coeffs, n
        assert p.family_tag is FamilyTag.GENERATING_FUNCTION
        assert p.parameterization is par
        prev, cur = cur, three_term_next(cur, prev, n)
    with pytest.raises(ValueError):
        gf_polynomials(-1, par)


def test_recurrence_rejects_mismatched_degrees():
    h0 = gf_polynomial(0, C1)
    h1 = gf_polynomial(1, C1)
    h2 = gf_polynomial(2, C1)
    with pytest.raises(DegreeMismatchError):
        three_term_next(h2, h0, 2)  # companion must have degree m-1
    with pytest.raises(DegreeMismatchError):
        three_term_next(h1, None, 1)  # None only allowed at m = 0
    with pytest.raises(DegreeMismatchError):
        three_term_next(h0, None, 3)  # degree of h_m must be m
    # mixing tags is refused too: the scalar normalizations differ
    r1 = rodrigues_polynomial(1, C1)
    with pytest.raises(ValueError):
        three_term_next(r1, h0, 1)
    # and so is a companion of another parameterization or tag
    for companion in (gf_polynomial(0, C3), rodrigues_polynomial(0, C1)):
        with pytest.raises(ValueError, match="mismatched companion polynomial"):
            three_term_next(h1, companion, 1)


def test_derivative_relation_residual_is_zero():
    for par in (C1, C2, C3):
        for m in range(0, 13):
            res = derivative_relation_residual(m, par)
            assert res.coeffs == {}, (par, m)


def _integer_terms(p, shift):
    """{(ζ-exponent, stored-variable exponent): integer} of p·2^shift."""
    return {(k, j): c << (shift - p.shift)
            for k, cs in p.terms.items() for j, c in enumerate(cs) if c}


def _times(terms, factor):
    """The product of integer terms and a factor {(ζ, q) exponents: int}."""
    out = {}
    for (k, j), c in terms.items():
        for (dk, dj), f in factor.items():
            out[k + dk, j + dj] = out.get((k + dk, j + dj), 0) + c * f
    return {key: c for key, c in out.items() if c}


@pytest.mark.parametrize("par", [C1, C2, C3])
def test_structure_relation_holds_exactly(par):
    # (1 + qζ²)·H_n' = nqζ·H_n + b_n·H_{n−1}, b_n = n(2 − nq), in the
    # unified q, which is the stored variable times its sign
    sign = polynomials.STORED_VARIABLE[par][0]
    members = gf_polynomials(30, par)
    for n in range(1, 31):
        shift = max(members[n].shift, members[n - 1].shift)
        h = _integer_terms(members[n], shift)
        h_prev = _integer_terms(members[n - 1], shift)
        derivative = {(k - 1, j): k * c for (k, j), c in h.items() if k}
        left = _times(derivative, {(0, 0): 1, (2, 1): sign})
        right = _times(h, {(1, 1): n * sign})
        b_n = {(0, 0): 2 * n, (0, 1): -n * n * sign}
        for key, c in _times(h_prev, b_n).items():
            right[key] = right.get(key, 0) + c
        assert left == {key: c for key, c in right.items() if c}, (par, n)


def test_parity():
    for par in (C1, C3):
        for n in range(11):
            p = gf_polynomial(n, par)
            assert all((n - ze) % 2 == 0 for ze in p.coeffs), (par, n)
            # evaluating at -z flips odd degrees
            val_plus = evaluate(p, F(3, 2), F(1, 8))
            val_minus = evaluate(p, F(-3, 2), F(1, 8))
            assert val_minus == (-1) ** n * val_plus


def test_harmonic_limit_matches_standard_hermite():
    z = sympy.symbols("z")
    for n in range(11):
        limit = harmonic_limit(gf_polynomial(n, C1))
        want = sympy.Poly(sympy.hermite(n, z), z).all_coeffs()[::-1]
        got = [limit.get(k, F(0)) for k in range(n + 1)]
        assert got == [F(sympy.Integer(c)) for c in want], n
        # the alternative family has the same harmonic limit
        assert harmonic_limit(rodrigues_polynomial(n, C1)) == limit


def test_proportionality_known_ratios():
    r0 = proportionality_ratio(0, C1)
    r1 = proportionality_ratio(1, C1)
    r2 = proportionality_ratio(2, C1)
    q = sympy.symbols("q")

    def as_expr(r):
        num = sum(sympy.Rational(c) * q ** k for k, c in r.num.items())
        den = sum(sympy.Rational(c) * q ** k for k, c in r.den.items())
        return num / den

    assert sympy.simplify(as_expr(r0) - 1) == 0
    assert sympy.simplify(as_expr(r1) - (2 - 2 * q) / (2 - q)) == 0
    assert sympy.simplify(as_expr(r2) - (4 * q - 2) / (q - 2)) == 0


def test_proportionality_is_exact_and_unity_at_zero():
    # the two constructions differ by a scalar rational function of the
    # deformation alone; at q = 0 both reduce to the standard family
    for par in (C1, C2, C3):
        for n in range(11):
            r = proportionality_ratio(n, par)
            assert r.at(F(0)) == 1, (par, n)
            # cross-check the ratio at a random-ish rational point
            qv = F(1, 17)
            num = sum(c * qv ** k for k, c in r.num.items())
            den = sum(c * qv ** k for k, c in r.den.items())
            zv = F(5, 3)
            lhs = evaluate(rodrigues_polynomial(n, par), zv, qv) * den
            rhs = evaluate(gf_polynomial(n, par), zv, qv) * num
            assert lhs == rhs, (par, n)


def test_perturbed_construction_is_not_proportional(monkeypatch):
    honest = polynomials.rodrigues_polynomial

    def perturbed(n, par):
        p = honest(n, par)
        terms = {k: list(qp) for k, qp in p.terms.items()}
        terms[n - 2][0] += 1 << p.shift  # + 1 on the zeta^(n-2) constant
        return LambdaPoly(n, terms, p.shift, p.family_tag, par)

    proportionality_ratio(6, C1)
    monkeypatch.setattr(polynomials, "rodrigues_polynomial", perturbed)
    with pytest.raises(NotProportionalError):
        proportionality_ratio(6, C1)


@pytest.mark.parametrize("construction", [
    proportionality_ratio, gf_polynomial, rodrigues_polynomial,
    derivative_relation_residual,
], ids=lambda f: f.__name__)
def test_negative_degrees_are_refused(construction):
    with pytest.raises(ValueError, match="must be nonnegative, got -1"):
        construction(-1, C1)


@pytest.mark.parametrize("par", [C1, C2, C3])
@pytest.mark.parametrize("n", [12, 18, 24])
def test_ratio_is_in_lowest_terms_at_high_degree(n, par):
    q = sympy.symbols("q")
    r = proportionality_ratio(n, par)
    num = sum(sympy.Rational(c) * q ** k for k, c in r.num.items())
    den = sum(sympy.Rational(c) * q ** k for k, c in r.den.items())
    assert sympy.gcd(num, den) == 1
    assert r.den[0] > 0
    rod, gf = rodrigues_polynomial(n, par), gf_polynomial(n, par)
    for zv, qv in ((F(5, 3), F(1, 17)), (F(-2, 7), F(-3, 11))):
        lhs = evaluate(rod, zv, qv) * sum(c * qv ** k for k, c in r.den.items())
        rhs = evaluate(gf, zv, qv) * sum(c * qv ** k for k, c in r.num.items())
        assert lhs == rhs


def test_case3_is_continuation_of_case1():
    # the compact family is the first family with the deformation negated:
    # evaluating one at d equals evaluating the other at -d, exactly
    for n in range(13):
        p3 = gf_polynomial(n, C3)
        p1 = gf_polynomial(n, C1)
        for d in (F(1, 10), F(3, 7), F(-1, 5)):
            for zv in (F(0), F(1, 2), F(7, 3)):
                assert evaluate(p3, zv, d) == evaluate(p1, zv, -d), (n, d, zv)


def test_case1_and_case2_share_coefficients():
    # in their own natural variables the two non-compact families coincide
    for n in range(13):
        assert gf_polynomial(n, C1).coeffs == gf_polynomial(n, C2).coeffs
        assert gf_polynomial(n, C1).parameterization is C1
        assert gf_polynomial(n, C2).parameterization is C2


def test_leading_coefficient_positive_for_bound_range():
    # for q below the binding threshold 2/(2n+1) the leading coefficient
    # prod_{j<n} (2 - (2j+1) q) is positive
    for n in range(1, 8):
        p = gf_polynomial(n, C1)
        lead = p.coeffs[n]
        threshold = F(2, 2 * n - 1)  # largest factor to vanish
        for qv in (F(0), threshold / 2, F(-3)):
            val = sum(c * qv ** k for k, c in lead.items())
            assert val > 0, (n, qv)


def test_evaluate_floats_and_fractions_agree():
    p = gf_polynomial(6, C1)
    exact = evaluate(p, F(7, 8), F(1, 10))
    approx = evaluate(p, 0.875, 0.1)
    assert approx == pytest.approx(float(exact), rel=1e-13)


def test_json_round_trip_schema():
    p = gf_polynomial(3, C2)
    d = to_json_dict(p)
    assert d["degree"] == 3
    assert d["parameterization"] == "case2"
    rows = d["coeffs"]
    assert rows == sorted(rows, key=lambda r: (r["zeta_exp"], r["q_exp"]))
    rebuilt = {}
    for r in rows:
        rebuilt.setdefault(r["zeta_exp"], {})[r["q_exp"]] = F(r["num"], r["den"])
    assert rebuilt == as_plain(p.coeffs)


@pytest.mark.parametrize("terms, message", [
    ({1: [1]}, "zeta exponent 1 breaks the parity of degree 2"),
    ({4: [1]}, r"zeta exponent 4 outside \[0, 2\]"),
    ({-2: [1]}, r"zeta exponent -2 outside \[0, 2\]"),
], ids=["odd-power", "above-degree", "negative"])
def test_lambda_poly_validates_parity(terms, message):
    from pdemosc import ConstraintViolatedError

    with pytest.raises(ConstraintViolatedError, match=message):
        LambdaPoly(
            degree=2,
            terms=terms,
            shift=0,
            family_tag=FamilyTag.GENERATING_FUNCTION,
            parameterization=C1,
        )


# ---------------------------------------------------------------------------
# sampled eigenfunctions
# ---------------------------------------------------------------------------


def test_samples_are_normalized_and_oscillate():
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    grid = build_grid(fam, 1200)
    for n in range(6):
        phi = eigenfunction_samples(fam, n, grid)
        assert inner_product(phi, phi, grid) == pytest.approx(1.0, rel=1e-12)
        body = phi[np.abs(phi) > 1e-5 * np.max(np.abs(phi))]
        assert int(np.sum(body[1:] * body[:-1] < 0)) == n
        # sign convention: positive leading polynomial coefficient makes the
        # right tail positive
        assert phi[-1] > 0


def test_samples_refuse_unbound_levels():
    fam = make_family(Kind.CASE1, 1.0, 0.3)
    grid = build_grid(fam, 400)
    assert bound_state_count(fam) == 3
    eigenfunction_samples(fam, 2, grid)
    with pytest.raises(NotABoundStateError):
        eigenfunction_samples(fam, 3, grid)


def test_samples_refuse_grid_outside_domain():
    fam = make_family(Kind.CASE3, 1.0, 0.2)  # domain (-5, 5)
    bad = uniform_grid(6.0, 300)
    with pytest.raises(OutOfDomainError):
        eigenfunction_samples(fam, 0, bad)


def test_sampled_states_are_mutually_orthogonal():
    fam = make_family(Kind.CASE2, 1.0, 10.0)
    grid = build_grid(fam, 1500)
    states = [eigenfunction_samples(fam, n, grid) for n in range(6)]
    for i in range(6):
        for j in range(i):
            assert abs(inner_product(states[i], states[j], grid)) < 1e-7, (i, j)


def test_rodrigues_members_and_ratios_are_pinned():
    # SHA-256 of every Rodrigues member and ratio for n <= 15, as the earlier
    # construction in Fraction arithmetic wrote them
    lines = []
    for par in (C1, C2, C3):
        for n in range(16):
            lines.append(repr(coefficient_rows(rodrigues_polynomial(n, par))))
            r = proportionality_ratio(n, par)
            lines.append(repr([sorted(r.num.items()), sorted(r.den.items())]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ("b513282f4211f24a3b3b6b73cebef435"
                      "41ee9c83e24d236ea67343e7ec97ed2c")


def test_lambda_poly_form_is_canonical():
    # trailing zeros, empty lists and shared powers of two are taken out,
    # so one value has one stored form
    tag = FamilyTag.GENERATING_FUNCTION
    p = LambdaPoly(2, {0: [4, 0, 8, 0], 2: [-12], 4: [0, 0]}, 3, tag, C1)
    assert p == LambdaPoly(2, {0: [1, 0, 2], 2: [-3]}, 1, tag, C1)
    assert p.coeffs == {0: {0: F(1, 2), 2: F(1)}, 2: {0: F(-3, 2)}}
    assert coefficient_rows(p) == [(0, 0, 1, 2), (0, 2, 1, 1), (2, 0, -3, 2)]
    zero = LambdaPoly(3, {1: [0]}, 5, tag, C1)
    assert zero.terms == {} and zero.shift == 0
