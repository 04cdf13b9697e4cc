"""Builders shared by the test modules."""

import numpy as np

from lmtrees.dataset import NUMERIC, SplitColumn
from lmtrees.inference import run_strategy
from lmtrees.linmod import fit_ols
from lmtrees.transform import make_gof


def ncol(values, name="z1"):
    return SplitColumn(name, NUMERIC, np.asarray(values, dtype=float))


def run_alone(config, y, x, col):
    # one column tested against the gof matrix of its own node fit
    gof = make_gof(fit_ols(y, x), y, x, config.use_scores, config.dichotomize)
    return run_strategy(config, gof, col)
