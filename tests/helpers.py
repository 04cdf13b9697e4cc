"""Builders and reference functions shared by the test modules."""

import math

import numpy as np

from lmtrees.dataset import NUMERIC, SplitColumn
from lmtrees.inference import run_strategy
from lmtrees.linmod import fit_ols
from lmtrees.special import _gamma_p_series, _gamma_q_contfrac
from lmtrees.transform import make_gof
from lmtrees.tree import iter_nodes


def ncol(values, name="z1"):
    return SplitColumn(name, NUMERIC, np.asarray(values, dtype=float))


def run_alone(config, y, x, col):
    # one column tested against the gof matrix of its own node fit
    gof = make_gof(fit_ols(y, x), y, x, config.use_scores, config.dichotomize)
    return run_strategy(config, gof, col)


def tree_depth(node):
    return max(n.depth for n in iter_nodes(node))


def regularized_gamma_p(a, x):
    """Regularized lower incomplete gamma function P(a, x), from the
    series and continued fraction that ``regularized_gamma_q`` uses."""
    if a <= 0.0:
        raise ValueError("shape parameter must be positive")
    if x < 0.0:
        raise ValueError("argument must be nonnegative")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_contfrac(a, x)


def normal_cdf(z):
    """Standard normal distribution function P(Z <= z)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))
