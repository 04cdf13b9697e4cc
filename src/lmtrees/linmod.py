"""Per-node simple linear regression.

Every tree node carries ``y = beta0 + beta1 * x + error`` fitted by
least squares, four numbers a tree file stores.  The split tests read
its residuals ``r_i`` at the node's rows or the row-wise scores, the
gradient of the squared-error objective at the fitted coefficients,

    score_i = -2 * r_i * (1, x_i),

which sum to zero at the optimum (``transform.make_gof`` derives both).
Every test statistic is invariant to the constant factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InsufficientDataError",
    "DegenerateRegressorError",
    "LinearFit",
    "fit_ols",
    "residuals",
    "predict",
]


class InsufficientDataError(ValueError):
    """Fewer observations than the fit requires."""


class DegenerateRegressorError(ValueError):
    """The regressor is constant, so the slope is unidentified."""


@dataclass(frozen=True)
class LinearFit:
    """Closed-form least-squares line fitted to ``n`` rows, with its RSS."""

    beta0: float
    beta1: float
    n: int
    rss: float


def residuals(beta0: float, beta1: float, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Residuals ``y - beta0 - beta1 * x`` of a line at the rows ``(y, x)``."""
    return y - beta0 - beta1 * x


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
    # sum / n is mean() to the bit, without its Python wrapper
    xbar = x.sum() / n
    ybar = y.sum() / n
    xc = x - xbar
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise DegenerateRegressorError("regressor is constant within the node")
    beta1 = float(xc @ (y - ybar)) / sxx
    beta0 = float(ybar - beta1 * xbar)
    r = residuals(beta0, beta1, y, x)
    return LinearFit(beta0=beta0, beta1=beta1, n=n, rss=float(r @ r))


def predict(fit: LinearFit, x: np.ndarray) -> np.ndarray:
    """Evaluate the fitted line at new regressor values."""
    return fit.beta0 + fit.beta1 * np.asarray(x, dtype=float)
