"""Tail probabilities used by the split-selection tests.

Everything here is scalar and deterministic: the regularized upper
incomplete gamma function (series expansion plus Lentz continued
fraction, see Numerical Recipes ch. 6), the chi-square survival function
built on it, and the normal tail via the complementary error function.
Absolute error is well below 1e-10 over the ranges exercised by the tests.
"""

from __future__ import annotations

import math

__all__ = ["regularized_gamma_q", "chi2_sf", "normal_sf"]

_MAX_ITER = 600
_EPS = 1e-16
_FPMIN = 1e-300


def _gamma_p_series(a: float, x: float) -> float:
    # lower tail by power series: P(a, x) = x^a e^-x / Gamma(a) * sum_k x^k / (a)_k+1
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if term < total * _EPS:  # every term is positive
            break
    log_prefix = a * math.log(x) - x - math.lgamma(a)
    return total * math.exp(log_prefix)


def _gamma_q_contfrac(a: float, x: float) -> float:
    # upper tail by modified Lentz continued fraction
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b if b != 0.0 else 1.0 / _FPMIN
    frac = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        frac *= delta
        if abs(delta - 1.0) < _EPS:
            break
    log_prefix = a * math.log(x) - x - math.lgamma(a)
    return frac * math.exp(log_prefix)


def regularized_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x)."""
    if a <= 0.0:
        raise ValueError("shape parameter must be positive")
    if x < 0.0:
        raise ValueError("argument must be nonnegative")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function P(X >= x) with df degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be at least 1")
    if x <= 0.0:
        return 1.0
    return regularized_gamma_q(0.5 * df, 0.5 * x)


def normal_sf(z: float) -> float:
    """Standard normal survival function P(Z >= z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))
