"""Residual/score matrices and candidate-split designs.

``make_gof`` turns a node fit into the row-wise matrix a split test
consumes: raw residuals, the two score columns, or their elementwise
sign indicators.  ``make_split_transform`` turns a split column into the
one-hot design the binned route pairs with it: quartile-bin columns for
a numeric column, level columns for a categorical one.  The linear
route pairs the gof matrix with the raw column, and the
maximally-selected route orders the rows by the column, so neither
needs a design built here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CATEGORICAL, SplitColumn, empirical_quartiles
from .linmod import LinearFit

__all__ = [
    "TransformError",
    "NoAdmissibleSplitError",
    "GofMatrix",
    "make_gof",
    "make_split_transform",
]


class TransformError(ValueError):
    """Raised when a transform cannot be built for a column."""


class NoAdmissibleSplitError(TransformError):
    """The column admits no split: too few rows, or no boundary that
    satisfies the minimum-segment constraint."""


@dataclass(frozen=True)
class GofMatrix:
    """Row-wise goodness-of-fit contributions, one column per component."""

    values: np.ndarray
    dichotomized: bool

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise TransformError("gof values must be a 2-d array")
        if not np.all(np.isfinite(values)):
            raise TransformError("gof values must be finite")
        if self.dichotomized and not np.all((values == 0.0) | (values == 1.0)):
            raise TransformError("dichotomized gof must be 0/1 valued")
        object.__setattr__(self, "values", values)

    @property
    def k(self) -> int:
        return int(self.values.shape[1])

    @property
    def n(self) -> int:
        return int(self.values.shape[0])


def make_gof(fit: LinearFit, use_scores: bool, dichotomize: bool) -> GofMatrix:
    """Build the per-row test input from a node fit.

    With ``use_scores`` the matrix has the two score columns, otherwise
    the single residual column.  ``dichotomize`` replaces each entry by
    the indicator of nonnegativity (zeros map to one).
    """
    if use_scores:
        if fit.scores is None:
            raise TransformError("fit carries no per-row scores")
        values = np.array(fit.scores, dtype=float)
    else:
        if fit.residuals is None:
            raise TransformError("fit carries no residuals")
        values = np.asarray(fit.residuals, dtype=float)[:, None]
    if dichotomize:
        values = (values >= 0.0).astype(float)
    return GofMatrix(values=values, dichotomized=dichotomize)


def make_split_transform(col: SplitColumn) -> np.ndarray:
    """One-hot design of a split column for the binned route.

    The design's columns indicate integer codes: the level codes of a
    categorical column, or the right-closed quartile bin of each value
    of a numeric one; codes that no row takes are dropped.  A numeric
    column of fewer than four rows has no quartiles and raises
    ``NoAdmissibleSplitError``.
    """
    if col.kind == CATEGORICAL:
        codes = col.values
    elif col.n < 4:
        raise NoAdmissibleSplitError(f"column {col.name!r} has too few rows for quartile bins")
    else:
        breaks = np.unique(np.asarray(empirical_quartiles(col)))
        # right-closed intervals (-inf, b1], (b1, b2], ..., (bk, +inf)
        codes = np.searchsorted(breaks, col.values, side="left")
    kept = np.flatnonzero(np.bincount(codes))
    if kept.size == 0:
        raise TransformError(f"column {col.name!r} is empty")
    return (codes[:, None] == kept).astype(float)
