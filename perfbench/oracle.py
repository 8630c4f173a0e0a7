"""Independent references for the accuracy metrics (benchmark side only).

The constant-mass eigenfunctions are checked against numpy's Hermite
series times the Gaussian.  The deformed families have no library
reference, so their samples are checked against a 40-digit mpmath
evaluation of the exact generating-function coefficients, which isolates
the error of the program's floating-point evaluation.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from numpy.polynomial import hermite

from workloads import Request

mpmath.mp.dps = 40


def _normalized(phi, x):
    h = (x[-1] - x[0]) / (len(x) - 1)
    return phi / math.sqrt(h * float(np.dot(phi, phi)))


def _hermite_state(n, x, alpha):
    e = np.zeros(n + 1)
    e[n] = 1.0
    return hermite.hermval(math.sqrt(alpha) * x, e) * np.exp(-0.5 * alpha * x * x)


_mpf = np.frompyfunc(mpmath.mpf, 1, 1)
_to_float = np.frompyfunc(float, 1, 1)


def _deformed_state(pdem, req, n, x):
    """N H_n(zeta, q) phi_0(x), with H_n and phi_0 evaluated in 40 digits."""
    alpha, lam = mpmath.mpf(req.alpha), mpmath.mpf(req.lam)
    if req.family == "case1":
        q, scale = lam / alpha, mpmath.sqrt(alpha)
        par = pdem.Parameterization.CASE1
    elif req.family == "case2":
        q, scale = 1 / (alpha * lam), mpmath.sqrt(alpha)
        par = pdem.Parameterization.CASE2
    else:  # case3 stores upsilon^2 = lam^2/(2 alpha), on rho = sqrt(2 alpha) x
        q, scale = lam * lam / (2 * alpha), mpmath.sqrt(2 * alpha)
        par = pdem.Parameterization.CASE3
    poly = pdem.gf_polynomial(n, par)
    coeffs = [sum((mpmath.mpf(c.numerator) / c.denominator * q ** j
                   for j, c in poly.coeffs.get(k, {}).items()), mpmath.mpf(0))
              for k in range(n + 1)]
    if coeffs[n] < 0:
        coeffs = [-c for c in coeffs]
    xm = _mpf(x)
    zeta = xm * scale
    acc = np.full(len(x), coeffs[n], dtype=object)
    for c in reversed(coeffs[:-1]):
        acc = acc * zeta + c
    x2 = xm * xm
    if req.family == "case1":
        ground = [mpmath.power(1 + lam * v, -alpha / (2 * lam)) for v in x2]
    elif req.family == "case2":
        ground = [mpmath.power(1 + v / lam, -alpha * lam / 2) for v in x2]
    else:
        ground = [mpmath.power(1 - lam * lam * v, alpha / (lam * lam)) for v in x2]
    return _to_float(acc * np.array(ground, dtype=object)).astype(float)


def sample_error(pdem, req: Request, x, phi) -> float:
    """max over checked levels of sup|phi - oracle| / sup|oracle|.

    Every level is checked for the constant mass.  For deformed families
    the two highest levels are checked, where the floating-point
    evaluation is worst.
    """
    n_top = len(phi) - 1
    worst = 0.0
    if req.family == "constant":
        checked = range(n_top + 1)
    else:
        checked = sorted({max(n_top - 1, 0), n_top})
    for n in checked:
        if req.family == "constant":
            ref = _hermite_state(n, x, req.alpha)
        else:
            ref = _deformed_state(pdem, req, n, x)
        ref = _normalized(ref, x)
        worst = max(worst, float(np.max(np.abs(phi[n] - ref)) / np.max(np.abs(ref))))
    return worst
