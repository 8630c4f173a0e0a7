"""Deformed Hermite polynomial families in exact rational arithmetic.

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

Coefficients are bivariate exact rationals: a polynomial maps each ζ-exponent
to a dict {q-exponent: Fraction}.  Case 1 stores q = λ̃ = λ/α, Case 2 stores
q = 1/μ = 1/(αλ), and Case 3 stores the positive variable υ² = λ²/(2α),
which is −q, so its coefficients are the Case 1 ones with odd q-powers
sign-flipped.  That flip is made once, in the linear factors (2 − iq) every
construction multiplies, by writing them in the stored variable.

The generating-function family is built in Python integers: the
coefficient of ζ^(2k−n) in H_n is the integer n!/((n−k)!(2k−n)!) times
(−1)^(n−k)/2^(n−k) times the integer polynomial Π_k(q) = Π_{j<k}(2 − (2j+1)q).
Π_k does not depend on n, so gf_polynomials builds the Π_k once and reads
every degree up to n_max from them.  coefficient_rows flattens a member to
sorted (ζ-exponent, q-exponent, numerator, denominator) rows, the one
interchange form.  No floating point enters here, and numpy is not
imported; grid sampling (sampling.eigenfunction_lists, and its numpy twin
arrays.eigenfunction_samples) runs the three-term recurrence in floating
point on the unified q instead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

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


def _sign_of(par: Parameterization) -> int:
    # stored variable = _sign_of(par) * unified q
    return -1 if par == Parameterization.CASE3 else 1


# === exact polynomials in the deformation variable (dict exp -> Fraction) ===

def _qp_trim(p: dict) -> dict:
    return {j: c for j, c in p.items() if c}


def _qp_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for j, c in b.items():
        out[j] = out.get(j, Fraction(0)) + c
    return _qp_trim(out)


def _qp_scale(a: dict, s: Fraction) -> dict:
    if s == 0:
        return {}
    return {j: c * s for j, c in a.items()}


def _qp_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ja, ca in a.items():
        for jb, cb in b.items():
            j = ja + jb
            out[j] = out.get(j, Fraction(0)) + ca * cb
    return _qp_trim(out)


def _qp_eval(a: dict, q):
    total = q * 0
    for j in sorted(a):
        coeff = float(a[j]) if isinstance(q, float) else a[j]
        total = total + coeff * q ** j
    return total


def _q_lin(c0, c1, par: Parameterization) -> dict:
    """c0 + c1*q written in the stored variable of `par`."""
    return _qp_trim({0: Fraction(c0), 1: Fraction(c1) * _sign_of(par)})


# === bivariate layer: dict {zeta_exp -> q-polynomial} ===

def _lpd_trim(d: dict) -> dict:
    return {k: p for k, p in ((k, _qp_trim(p)) for k, p in d.items()) if p}


def _lpd_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, p in b.items():
        out[k] = _qp_add(out.get(k, {}), p)
    return _lpd_trim(out)


def _lpd_scale_qp(a: dict, qp: dict) -> dict:
    return _lpd_trim({k: _qp_mul(p, qp) for k, p in a.items()})


def _lpd_zeta_shift(a: dict, power: int = 1) -> dict:
    return {k + power: p for k, p in a.items()}


def _lpd_dzeta(a: dict) -> dict:
    return _lpd_trim({k - 1: _qp_scale(p, Fraction(k)) for k, p in a.items() if k > 0})


@dataclass
class LambdaPoly:
    """One member of a deformed Hermite family.

    coeffs maps the ζ-exponent to an exact polynomial in the stored
    deformation variable.  Only exponents of the same parity as the degree
    may appear, and no stored coefficient is zero.
    """

    degree: int
    coeffs: dict
    family_tag: FamilyTag
    parameterization: Parameterization

    def __post_init__(self):
        self.coeffs = _lpd_trim(self.coeffs)
        for k in self.coeffs:
            if k < 0 or k > self.degree:
                raise ConstraintViolatedError(
                    f"zeta exponent {k} outside [0, {self.degree}]")
            if (k - self.degree) % 2 != 0:
                raise ConstraintViolatedError(
                    f"zeta exponent {k} breaks the parity of degree {self.degree}")

    def is_zero(self) -> bool:
        return not self.coeffs


def evaluate(p: LambdaPoly, zeta, q):
    """H(ζ, q) with exact (Fraction) or float arguments.

    `q` is the value of the *stored* deformation variable: λ̃, 1/μ or υ².
    """
    total = zeta * 0
    for k in sorted(p.coeffs):
        total = total + _qp_eval(p.coeffs[k], q) * zeta ** k
    return total


def _pi_products(k_max: int, parameterization: Parameterization) -> list:
    """Π_k(q) = Π_{j<k} (2 − (2j+1)q) for k = 0..k_max, as integer lists.

    Entry i of Π_k is its coefficient of the i-th power of the stored
    variable, so Case 3's sign flip sits in the factors, not in the result.
    """
    sign = _sign_of(parameterization)
    pis = [[1]]
    for j in range(k_max):
        prev, b = pis[-1], -(2 * j + 1) * sign
        pis.append([2 * c + b * d for c, d in zip(prev + [0], [0] + prev)])
    return pis


def _gf_from_products(n: int, pis: list,
                      parameterization: Parameterization) -> LambdaPoly:
    """H_n from the shared integer products pis[k] = Π_k, k ≤ n."""
    coeffs: dict = {}
    for k in range((n + 1) // 2, n + 1):
        # n!/((n−k)!(2k−n)!) = C(n, k)·k!/(2k−n)!
        scale = (-1) ** (n - k) * math.comb(n, k) * math.perm(k, n - k)
        den = 1 << (n - k)
        coeffs[2 * k - n] = {j: Fraction(scale * c, den)
                             for j, c in enumerate(pis[k])}
    return LambdaPoly(n, coeffs, FamilyTag.GENERATING_FUNCTION, parameterization)


def gf_polynomial(n: int, parameterization: Parameterization) -> LambdaPoly:
    """H_n from the generating-function expansion.

    Expanding (1 + q(2tζ − t²))^(1/q − ½) binomially, the falling product
    (1/q − ½)(1/q − ³⁄₂)···(1/q − (2k−1)/2) times qᵏ is Π_k(q)/2ᵏ with the
    integer polynomial Π_k(q) = Π_{j<k} (2 − (2j+1)q), so every tⁿ
    coefficient is polynomial in q:

        H_n = Σ_{k=⌈n/2⌉}^{n} n! (−1)^(n−k) Π_k(q) ζ^(2k−n)
              / ((n−k)! (2k−n)! 2^(n−k))
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    return _gf_from_products(n, _pi_products(n, parameterization),
                             parameterization)


def gf_polynomials(n_max: int, parameterization: Parameterization) -> list:
    """[H_0, …, H_{n_max}], every degree read from one set of Π_k."""
    if n_max < 0:
        raise ValueError(f"degree must be nonnegative, got {n_max}")
    pis = _pi_products(n_max, parameterization)
    return [_gf_from_products(n, pis, parameterization)
            for n in range(n_max + 1)]


def rodrigues_polynomial(n: int, parameterization: Parameterization) -> LambdaPoly:
    """H_n by exact differentiation of the Rodrigues kernel.

    Terms of dⁿ/dζⁿ (1+qζ²)^(n−1/q) are tracked as c(q)·ζᵃ·(1+qζ²)^(β+j)
    with β = n − 1/q.  One derivative maps (a, j) to (a−1, j) with weight a
    and to (a+1, j−1) with weight 2q(n+j) − 2; the q from the chain rule
    cancels the 1/q in β, so weights stay polynomial.  The final factor
    (1+qζ²)^(1/q) lifts every surviving power to the nonnegative integer
    n+j, which is expanded binomially.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    par = parameterization
    terms = {(0, 0): {0: Fraction(1)}}
    for _ in range(n):
        nxt: dict = {}

        def _acc(key, qp):
            nxt[key] = _qp_add(nxt.get(key, {}), qp)

        for (a, j), c in terms.items():
            if a >= 1:
                _acc((a - 1, j), _qp_scale(c, Fraction(a)))
            _acc((a + 1, j - 1), _qp_mul(c, _q_lin(-2, 2 * (n + j), par)))
        terms = {key: qp for key, qp in nxt.items() if qp}
    coeffs: dict = {}
    sign = _sign_of(par)
    for (a, j), c in terms.items():
        for i in range(n + j + 1):
            # (qζ²)^i of the binomial, written in the stored variable
            shifted = {jj + i: cc for jj, cc in c.items()}
            contrib = _qp_scale(shifted, (-1) ** n * sign ** i * math.comb(n + j, i))
            coeffs[a + 2 * i] = _qp_add(coeffs.get(a + 2 * i, {}), contrib)
    return LambdaPoly(n, coeffs, FamilyTag.RODRIGUES, par)


def three_term_next(h_m: LambdaPoly, h_m_minus_1, m: int) -> LambdaPoly:
    """H_{m+1} = ζ[(2−q) − 2qm] H_m − m[(2−q) − q(m−1)] H_{m−1}.

    For m = 0 pass h_m_minus_1 = None; the m-weighted term vanishes.
    """
    if h_m.family_tag != FamilyTag.GENERATING_FUNCTION:
        raise ValueError("recurrence applies to generating-function polynomials")
    if h_m.degree != m:
        raise DegreeMismatchError(f"expected degree {m}, got {h_m.degree}")
    par = h_m.parameterization
    out = _lpd_zeta_shift(_lpd_scale_qp(h_m.coeffs, _q_lin(2, -(2 * m + 1), par)))
    if m > 0:
        if h_m_minus_1 is None or h_m_minus_1.degree != m - 1:
            raise DegreeMismatchError(f"expected companion of degree {m - 1}")
        if h_m_minus_1.family_tag != FamilyTag.GENERATING_FUNCTION \
                or h_m_minus_1.parameterization != par:
            raise ValueError("mismatched companion polynomial")
        back = _lpd_scale_qp(h_m_minus_1.coeffs, _q_lin(2 * m, -m * m, par))
        out = _lpd_add(out, {k: _qp_scale(p, Fraction(-1)) for k, p in back.items()})
    return LambdaPoly(m + 1, out, FamilyTag.GENERATING_FUNCTION, par)


def derivative_relation_residual(m: int, parameterization: Parameterization) -> LambdaPoly:
    """m(2−q)H_{m−1} − H′_m − 2ζqm H′_{m−1} + qm(m−1) H′_{m−2}.

    Identically zero for the generating-function family; returned as a
    polynomial so the caller can assert exact vanishing.  Terms whose index
    would be negative carry a zero weight and are skipped.
    """
    if m < 0:
        raise ValueError(f"index must be nonnegative, got {m}")
    par = parameterization
    res = _lpd_scale_qp(gf_polynomial(m, par).coeffs, {0: Fraction(-1)})
    res = _lpd_dzeta(res)                                   # -H'_m
    if m >= 1:
        h1 = gf_polynomial(m - 1, par)
        res = _lpd_add(res, _lpd_scale_qp(h1.coeffs, _q_lin(2 * m, -m, par)))
        dh1 = _lpd_dzeta(h1.coeffs)
        res = _lpd_add(res, _lpd_zeta_shift(
            _lpd_scale_qp(dh1, _q_lin(0, -2 * m, par))))     # -2ζqm H'_{m-1}
    if m >= 2:
        dh2 = _lpd_dzeta(gf_polynomial(m - 2, par).coeffs)
        res = _lpd_add(res, _lpd_scale_qp(dh2, _q_lin(0, m * (m - 1), par)))
    return LambdaPoly(max(m - 1, 0), res, FamilyTag.GENERATING_FUNCTION, par)


# === reconciling the two constructions ===

@dataclass
class Ratio:
    """A scalar rational function num(q)/den(q), kept in lowest terms."""

    num: dict
    den: dict

    def at(self, q: Fraction) -> Fraction:
        return Fraction(_qp_eval(self.num, q)) / Fraction(_qp_eval(self.den, q))


def proportionality_ratio(n: int, parameterization: Parameterization) -> Ratio:
    """r_n(q) with rodrigues_polynomial(n) = r_n(q) · gf_polynomial(n).

    The leading coefficients are Π_{odd i<2n}(2 − iq) (generating function)
    and Π_{n<i≤2n}(2 − iq) (Rodrigues), so

        r_n = Π_{even i ∈ (n, 2n]} (2 − iq) / Π_{odd i ≤ n} (2 − iq).

    The factors are distinct, and those of the denominator have content 1
    and constant term 2, so num and den are coprime, their coefficients are
    integers with no common content and den(0) > 0: equal ratios compare
    equal field by field.  The formula is not assumed: every coefficient
    pair is cross-multiplied, and a mismatch raises NotProportionalError.
    r_n(0) = 1 always, so the two constructions share the harmonic limit.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    par = parameterization
    num, den = {0: Fraction(1)}, {0: Fraction(1)}
    for i in range(2 * n, n, -2):
        num = _qp_mul(num, _q_lin(2, -i, par))
    for i in range(1, n + 1, 2):
        den = _qp_mul(den, _q_lin(2, -i, par))
    rod = rodrigues_polynomial(n, par)
    gf = gf_polynomial(n, par)
    for k in set(rod.coeffs) | set(gf.coeffs):
        if _qp_mul(rod.coeffs.get(k, {}), den) != _qp_mul(gf.coeffs.get(k, {}), num):
            raise NotProportionalError(
                f"coefficient of zeta^{k} breaks proportionality at degree {n}")
    return Ratio(num, den)


def harmonic_limit(p: LambdaPoly) -> dict:
    """Evaluate every coefficient at q = 0: the standard Hermite H_n."""
    out = {k: qp.get(0, Fraction(0)) for k, qp in p.coeffs.items()}
    return {k: c for k, c in out.items() if c != 0}


def coefficient_rows(p: LambdaPoly) -> list:
    """(ζ-exponent, q-exponent, numerator, denominator), sorted by exponents."""
    return [(k, j, c.numerator, c.denominator)
            for k in sorted(p.coeffs) for j, c in sorted(p.coeffs[k].items())]


def to_json_dict(p: LambdaPoly) -> dict:
    """The interchange form: one row per (ζ-exponent, q-exponent) pair."""
    return {"degree": p.degree,
            "parameterization": p.parameterization.value,
            "coeffs": [{"zeta_exp": k, "q_exp": j, "num": num, "den": den}
                       for k, j, num, den in coefficient_rows(p)]}


def __getattr__(name):
    # the grid sampler is also reachable through this module (the benchmark's
    # tracer wraps it here), resolved on first use so that importing this
    # module never loads numpy
    if name == "eigenfunction_samples":
        from .arrays import eigenfunction_samples
        return eigenfunction_samples
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
