"""Deformed Hermite polynomial families in exact integer arithmetic.

Two independent constructions of the same one-parameter deformation of the
physicists' Hermite polynomials:

* generating function:  (1 + q(2tζ − t²))^(1/q − ½) = Σ_n H_n(ζ, q) tⁿ/n!
* Rodrigues formula:    H_n = (−1)ⁿ(1+qζ²)^(1/q) dⁿ/dζⁿ (1+qζ²)^(n − 1/q)

Both reduce to the standard H_n at q = 0, but differ at q ≠ 0 by the ratio
of their leading coefficients,

    r_n(q) = Π_{even i ∈ (n, 2n]} (2 − iq) / Π_{odd i ≤ n} (2 − iq),

which proportionality_ratio returns once every coefficient pair has been
checked against it.  The generating function family is canonical: it
satisfies the three-term recurrence

    H_{m+1} = ζ[(2−q) − 2qm] H_m − m[(2−q) − q(m−1)] H_{m−1}

and the derivative relation checked by derivative_relation_residual.

Every coefficient is an integer over a power of two, so a member stores
integer q-polynomials over one 2^shift: terms maps each ζ-exponent k to a
list whose entry j is the integer coefficient of ζᵏqʲ.  Every construction
is integer arithmetic on these lists.  Fraction appears only at the edges
(LambdaPoly.coeffs and Ratio.at), and coefficient_rows reduces each
num/2^shift by their common power of two into sorted (ζ-exponent,
q-exponent, numerator, denominator) rows, the one interchange form.
Case 1 stores q = λ̃ = λ/α, Case 2 stores q = 1/μ = 1/(αλ), and Case 3
stores the positive variable υ² = λ²/(2α), which is −q, so its
coefficients are the Case 1 ones with odd q-powers sign-flipped.  That
flip is made once, in the linear factors (2 − iq) every construction
multiplies, by writing them in the stored variable, whose sign against
q is read, with what --symbolic prints for it, from STORED_VARIABLE.

The coefficient of ζ^(2k−n) in the generating-function H_n is the integer
n!/((n−k)!(2k−n)!) times (−1)^(n−k)/2^(n−k) times the integer polynomial
Π_k(q) = Π_{j<k}(2 − (2j+1)q).  Π_k does not depend on n, so gf_polynomials
builds the Π_k once and reads every degree up to n_max from them.  No
floating point enters here, and numpy is not imported; grid sampling
(sampling.eigenfunction_lists, and its numpy twin
susy.eigenfunction_samples) runs the three-term recurrence in floating
point on the unified q instead.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .errors import (
    ConstraintViolatedError,
    DegreeMismatchError,
    NotProportionalError,
)
from .families import Kind


class FamilyTag(enum.Enum):
    GENERATING_FUNCTION = "generating_function"
    RODRIGUES = "rodrigues"


class Parameterization(enum.Enum):
    CASE1 = "case1"
    CASE2 = "case2"
    CASE3 = "case3"


def parameterization_for(kind: Kind) -> Parameterization:
    """Constant-mass families use Case 1, whose q = 0 member is Hermite's."""
    return {Kind.CASE2: Parameterization.CASE2,
            Kind.CASE3: Parameterization.CASE3}.get(kind, Parameterization.CASE1)


# each parameterization's stored variable: its sign against the unified q
# (Case 3 stores υ² = −q), and what it is in lambda and alpha, as
# `polynomials --symbolic` prints it
STORED_VARIABLE = {
    Parameterization.CASE1: (1, "q = lambda/alpha"),
    Parameterization.CASE2: (1, "q = 1/(alpha*lambda)"),
    Parameterization.CASE3: (-1, "q = lambda^2/(2*alpha)"),
}


# === integer q-polynomials: entry j of a list is the coefficient of q^j ===

def _trim(p: list) -> list:
    end = len(p)
    while end and not p[end - 1]:
        end -= 1
    return p[:end]


def _mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _add_into(acc: list, p: list) -> None:
    acc.extend([0] * (len(p) - len(acc)))
    for j, c in enumerate(p):
        acc[j] += c


def _lin(c0: int, c1: int, par: Parameterization) -> list:
    """c0 + c1*q written in the stored variable of `par`."""
    return [c0, c1 * STORED_VARIABLE[par][0]]


def _dzeta(terms: dict) -> dict:
    return {k - 1: [k * c for c in p] for k, p in terms.items() if k}


def _combine(parts) -> tuple:
    """Σ factor(q)·ζ^zpow·terms/2^shift over parts (terms, shift, factor, zpow).

    Returns (terms, shift) over the largest shift of the parts.
    """
    shift = max(s for _, s, _, _ in parts)
    out: dict = {}
    for terms, s, factor, zpow in parts:
        factor = [c << (shift - s) for c in factor]
        for k, p in terms.items():
            _add_into(out.setdefault(k + zpow, []), _mul(p, factor))
    return out, shift


class LambdaPoly(namedtuple("LambdaPoly",
                            "degree terms shift family_tag parameterization")):
    """One member of a deformed Hermite family: Σ terms[k][j]·ζᵏqʲ / 2^shift.

    q is the stored deformation variable.  Only ζ-exponents of the same
    parity as the degree may appear.  The stored form is canonical (no
    trailing zero in a list, no empty list, the least shift), so equal
    polynomials compare equal.
    """

    __slots__ = ()

    def __new__(cls, degree: int, terms: dict, shift: int,
                family_tag: FamilyTag, parameterization: Parameterization):
        terms = {k: p for k, p in ((k, _trim(p)) for k, p in terms.items()) if p}
        for k in terms:
            if k < 0 or k > degree:
                raise ConstraintViolatedError(
                    f"zeta exponent {k} outside [0, {degree}]")
            if (k - degree) % 2 != 0:
                raise ConstraintViolatedError(
                    f"zeta exponent {k} breaks the parity of degree {degree}")
        # the least power of two in any coefficient, (c & -c) its lowest set bit
        e = min([shift] + [(c & -c).bit_length() - 1
                           for p in terms.values() for c in p if c])
        if e:
            terms = {k: [c >> e for c in p] for k, p in terms.items()}
        return super().__new__(cls, degree, terms, shift - e, family_tag,
                               parameterization)

    @property
    def coeffs(self) -> dict:
        """{ζ-exponent: {q-exponent: Fraction}}, nonzero coefficients only."""
        from fractions import Fraction
        den = 1 << self.shift
        return {k: {j: Fraction(c, den) for j, c in enumerate(p) if c}
                for k, p in self.terms.items()}


def evaluate(p: LambdaPoly, zeta, q):
    """H(ζ, q), exact for Fraction arguments and a float for float ones.

    `q` is the value of the *stored* deformation variable: λ̃, 1/μ or υ².
    """
    total = zeta * 0
    for k in sorted(p.terms):
        total = total + sum(c * q ** j for j, c in enumerate(p.terms[k])) * zeta ** k
    return total / (1 << p.shift) if p.shift else total


def _pi_products(k_max: int, parameterization: Parameterization) -> list:
    """Π_k(q) = Π_{j<k} (2 − (2j+1)q) for k = 0..k_max, as integer lists.

    Entry i of Π_k is its coefficient of the i-th power of the stored
    variable, so Case 3's sign flip sits in the factors, not in the result.
    """
    pis = [[1]]
    for j in range(k_max):
        prev, (a, b) = pis[-1], _lin(2, -(2 * j + 1), parameterization)
        pis.append([a * c + b * d for c, d in zip(prev + [0], [0] + prev)])
    return pis


def _require_degree(n: int) -> None:
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")


def _gf_from_products(n: int, pis: list,
                      parameterization: Parameterization) -> LambdaPoly:
    """H_n from the shared integer products pis[k] = Π_k, k ≤ n."""
    shift = n // 2  # the largest n − k, at k = ⌈n/2⌉
    terms: dict = {}
    for k in range((n + 1) // 2, n + 1):
        # n!/((n−k)!(2k−n)!) = C(n, k)·k!/(2k−n)!, over 2^(n−k)
        scale = ((-1) ** (n - k) * math.comb(n, k) * math.perm(k, n - k)
                 << (shift - n + k))
        terms[2 * k - n] = [scale * c for c in pis[k]]
    return LambdaPoly(n, terms, shift, FamilyTag.GENERATING_FUNCTION,
                      parameterization)


def gf_polynomial(n: int, parameterization: Parameterization) -> LambdaPoly:
    """H_n from the generating-function expansion.

    Expanding (1 + q(2tζ − t²))^(1/q − ½) binomially, the falling product
    (1/q − ½)(1/q − ³⁄₂)···(1/q − (2k−1)/2) times qᵏ is Π_k(q)/2ᵏ with the
    integer polynomial Π_k(q) = Π_{j<k} (2 − (2j+1)q), so every tⁿ
    coefficient is polynomial in q:

        H_n = Σ_{k=⌈n/2⌉}^{n} n! (−1)^(n−k) Π_k(q) ζ^(2k−n)
              / ((n−k)! (2k−n)! 2^(n−k))
    """
    _require_degree(n)
    return _gf_from_products(n, _pi_products(n, parameterization),
                             parameterization)


def gf_polynomials(n_max: int, parameterization: Parameterization) -> list:
    """[H_0, …, H_{n_max}], every degree read from one set of Π_k."""
    _require_degree(n_max)
    pis = _pi_products(n_max, parameterization)
    return [_gf_from_products(n, pis, parameterization)
            for n in range(n_max + 1)]


def rodrigues_polynomial(n: int, parameterization: Parameterization) -> LambdaPoly:
    """H_n by exact differentiation of the Rodrigues kernel.

    Terms of dⁿ/dζⁿ (1+qζ²)^(n−1/q) are tracked as c(q)·ζᵃ·(1+qζ²)^(β+j)
    with β = n − 1/q.  One derivative maps (a, j) to (a−1, j) with weight a
    and to (a+1, j−1) with weight 2q(n+j) − 2; the q from the chain rule
    cancels the 1/q in β, so weights stay integer polynomials.  The final
    factor (1+qζ²)^(1/q) lifts every surviving power to the nonnegative
    integer n+j, which is expanded binomially.
    """
    _require_degree(n)
    par = parameterization
    terms = {(0, 0): [1]}
    for _ in range(n):
        nxt: dict = {}
        for (a, j), c in terms.items():
            if a >= 1:
                _add_into(nxt.setdefault((a - 1, j), []), [a * x for x in c])
            _add_into(nxt.setdefault((a + 1, j - 1), []),
                      _mul(c, _lin(-2, 2 * (n + j), par)))
        terms = {key: p for key, p in nxt.items() if any(p)}
    out: dict = {}
    sign = STORED_VARIABLE[par][0]
    for (a, j), c in terms.items():
        for i in range(n + j + 1):
            # (qζ²)^i of the binomial, written in the stored variable
            scale = (-1) ** n * sign ** i * math.comb(n + j, i)
            _add_into(out.setdefault(a + 2 * i, []), [0] * i + [scale * x for x in c])
    return LambdaPoly(n, out, 0, FamilyTag.RODRIGUES, par)


def three_term_next(h_m: LambdaPoly, h_m_minus_1, m: int) -> LambdaPoly:
    """H_{m+1} = ζ[(2−q) − 2qm] H_m − m[(2−q) − q(m−1)] H_{m−1}.

    For m = 0 pass h_m_minus_1 = None; the m-weighted term vanishes.
    """
    if h_m.family_tag != FamilyTag.GENERATING_FUNCTION:
        raise ValueError("recurrence applies to generating-function polynomials")
    if h_m.degree != m:
        raise DegreeMismatchError(f"expected degree {m}, got {h_m.degree}")
    par = h_m.parameterization
    parts = [(h_m.terms, h_m.shift, _lin(2, -(2 * m + 1), par), 1)]
    if m > 0:
        if h_m_minus_1 is None or h_m_minus_1.degree != m - 1:
            raise DegreeMismatchError(f"expected companion of degree {m - 1}")
        if h_m_minus_1.family_tag != FamilyTag.GENERATING_FUNCTION \
                or h_m_minus_1.parameterization != par:
            raise ValueError("mismatched companion polynomial")
        parts.append((h_m_minus_1.terms, h_m_minus_1.shift,
                      _lin(-2 * m, m * m, par), 0))
    terms, shift = _combine(parts)
    return LambdaPoly(m + 1, terms, shift, FamilyTag.GENERATING_FUNCTION, par)


def derivative_relation_residual(m: int, parameterization: Parameterization) -> LambdaPoly:
    """m(2−q)H_{m−1} − H′_m − 2ζqm H′_{m−1} + qm(m−1) H′_{m−2}.

    Identically zero for the generating-function family; returned as a
    polynomial so the caller can assert exact vanishing.  Terms whose index
    would be negative carry a zero weight and are skipped.
    """
    if m < 0:
        raise ValueError(f"index must be nonnegative, got {m}")
    par = parameterization
    h = gf_polynomial(m, par)
    parts = [(_dzeta(h.terms), h.shift, [-1], 0)]                  # -H'_m
    if m >= 1:
        h1 = gf_polynomial(m - 1, par)
        parts.append((h1.terms, h1.shift, _lin(2 * m, -m, par), 0))
        parts.append((_dzeta(h1.terms), h1.shift,
                      _lin(0, -2 * m, par), 1))                     # -2ζqm H'_{m-1}
    if m >= 2:
        h2 = gf_polynomial(m - 2, par)
        parts.append((_dzeta(h2.terms), h2.shift, _lin(0, m * (m - 1), par), 0))
    terms, shift = _combine(parts)
    return LambdaPoly(max(m - 1, 0), terms, shift,
                      FamilyTag.GENERATING_FUNCTION, par)


# === reconciling the two constructions ===

class Ratio(namedtuple("Ratio", "num den")):
    """A scalar rational function num(q)/den(q), kept in lowest terms.

    num and den map q-exponents to nonzero integer coefficients.
    """

    __slots__ = ()

    def at(self, q):
        from fractions import Fraction
        return (Fraction(sum(c * q ** j for j, c in self.num.items()))
                / Fraction(sum(c * q ** j for j, c in self.den.items())))


def proportionality_ratio(n: int, parameterization: Parameterization) -> Ratio:
    """r_n(q) with rodrigues_polynomial(n) = r_n(q) · gf_polynomial(n).

    The leading coefficients are Π_{odd i<2n}(2 − iq) (generating function)
    and Π_{n<i≤2n}(2 − iq) (Rodrigues), so

        r_n = Π_{even i ∈ (n, 2n]} (2 − iq) / Π_{odd i ≤ n} (2 − iq).

    The factors are distinct, and those of the denominator have content 1
    and constant term 2, so num and den are coprime, their coefficients are
    integers with no common content and den(0) > 0: equal ratios compare
    equal field by field.  The formula is not assumed: every coefficient
    pair is cross-multiplied in integers, and a mismatch raises
    NotProportionalError.  r_n(0) = 1 always, so the two constructions
    share the harmonic limit.
    """
    _require_degree(n)
    par = parameterization
    num, den = [1], [1]
    for i in range(2 * n, n, -2):
        num = _mul(num, _lin(2, -i, par))
    for i in range(1, n + 1, 2):
        den = _mul(den, _lin(2, -i, par))
    rod = rodrigues_polynomial(n, par)
    gf = gf_polynomial(n, par)
    # rod·den = gf·num, both sides over 2^(rod.shift + gf.shift)
    rod_den = [c << gf.shift for c in den]
    gf_num = [c << rod.shift for c in num]
    for k in set(rod.terms) | set(gf.terms):
        if _mul(rod.terms.get(k, []), rod_den) != _mul(gf.terms.get(k, []), gf_num):
            raise NotProportionalError(
                f"coefficient of zeta^{k} breaks proportionality at degree {n}")
    return Ratio({j: c for j, c in enumerate(num) if c},
                 {j: c for j, c in enumerate(den) if c})


def harmonic_limit(p: LambdaPoly) -> dict:
    """Evaluate every coefficient at q = 0: the standard Hermite H_n."""
    return {k: qp[0] for k, qp in p.coeffs.items() if 0 in qp}


def coefficient_rows(p: LambdaPoly) -> list:
    """(ζ-exponent, q-exponent, numerator, denominator), sorted by exponents.

    Each c/2^shift is reduced by the power of two that c and 2^shift share.
    """
    rows = []
    for k in sorted(p.terms):
        for j, c in enumerate(p.terms[k]):
            if c:
                e = min((c & -c).bit_length() - 1, p.shift)
                rows.append((k, j, c >> e, 1 << (p.shift - e)))
    return rows


def to_json_dict(p: LambdaPoly) -> dict:
    """The interchange form: one row per (ζ-exponent, q-exponent) pair."""
    return {"degree": p.degree,
            "parameterization": p.parameterization.value,
            "coeffs": [{"zeta_exp": k, "q_exp": j, "num": num, "den": den}
                       for k, j, num, den in coefficient_rows(p)]}


def __getattr__(name):
    # the grid sampler is also reachable through this module, resolved on
    # first use so that importing this module never loads numpy; the
    # benchmark's tracer looks it up here, and wraps susy's binding of it
    if name == "eigenfunction_samples":
        from .susy import eigenfunction_samples
        return eigenfunction_samples
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
