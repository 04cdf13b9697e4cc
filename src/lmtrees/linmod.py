"""Per-node simple linear regression and its estimating-function values.

Every tree node carries ``y = beta0 + beta1 * x + error`` fitted by
least squares.  The row-wise scores are the gradient of the squared-error
objective at the fitted coefficients,

    score_i = -2 * r_i * (1, x_i),

which sum to zero at the optimum.  All downstream split tests consume
either the residuals or these scores; every test statistic is invariant
to the constant factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InsufficientDataError",
    "DegenerateRegressorError",
    "LinearFit",
    "fit_ols",
    "predict",
]


class InsufficientDataError(ValueError):
    """Fewer observations than the fit requires."""


class DegenerateRegressorError(ValueError):
    """The regressor is constant, so the slope is unidentified."""


@dataclass(frozen=True)
class LinearFit:
    """Closed-form least-squares fit of a line.

    ``residuals`` and ``scores`` are ``None`` only on fits rebuilt from
    a serialized tree, where the training rows are no longer available.
    """

    beta0: float
    beta1: float
    n: int
    rss: float
    residuals: np.ndarray | None = None
    scores: np.ndarray | None = None


def fit_ols(y: np.ndarray, x: np.ndarray) -> LinearFit:
    """Fit ``y = beta0 + beta1 * x`` by ordinary least squares.

    Raises
    ------
    InsufficientDataError
        If fewer than three observations are supplied.
    DegenerateRegressorError
        If the regressor has zero variance.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = y.shape[0]
    if n < 3:
        raise InsufficientDataError(f"need at least 3 observations, got {n}")
    xbar = x.mean()
    ybar = y.mean()
    xc = x - xbar
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise DegenerateRegressorError("regressor is constant within the node")
    beta1 = float(xc @ (y - ybar)) / sxx
    beta0 = ybar - beta1 * xbar
    residuals = y - beta0 - beta1 * x
    rss = float(residuals @ residuals)
    scores = np.column_stack((-2.0 * residuals, -2.0 * residuals * x))
    return LinearFit(beta0=beta0, beta1=beta1, n=n, rss=rss, residuals=residuals, scores=scores)


def predict(fit: LinearFit, x: np.ndarray) -> np.ndarray:
    """Evaluate the fitted line at new regressor values."""
    return fit.beta0 + fit.beta1 * np.asarray(x, dtype=float)
