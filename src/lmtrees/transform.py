"""Residual/score matrices and candidate-split designs.

``make_gof`` turns a node fit into the row-wise matrix a split test
consumes: raw residuals, the two score columns, or their elementwise
sign indicators.  ``make_split_transform`` turns a split column into the
design the test statistic pairs with it: the identity for the linear
route and quartile-bin or level one-hot columns for the categorized
route.  The maximally-selected route needs no design: its fluctuation
test orders the rows of the column directly.
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
    "SplitTransform",
    "make_gof",
    "make_split_transform",
]

MODE_LIN = "lin"
MODE_CAT = "cat"
MODE_MAX = "max"
MODES = (MODE_LIN, MODE_CAT, MODE_MAX)


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


@dataclass(frozen=True)
class SplitTransform:
    """Design matrix a split column contributes to a test statistic.

    ``labels`` names the design columns for reporting: the observed
    levels of a categorical column, ``bin1``, ``bin2``, ... for the
    nonempty quartile bins of a numeric one, or the column name for the
    linear route.
    """

    mode: str
    design: np.ndarray
    labels: tuple[str, ...]


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


def make_split_transform(col: SplitColumn, mode: str) -> SplitTransform:
    """Build the design matrix for one split column.

    ``"lin"`` (numeric columns only) is the raw column.  ``"cat"`` is a
    one-hot design over integer codes: the level codes of a categorical
    column, or the right-closed quartile bin of each value of a numeric
    one; codes that no row takes are dropped.  A numeric column of fewer
    than four rows has no quartiles and raises ``NoAdmissibleSplitError``.
    The ``"max"`` route scans the ordered column directly and has no
    design, so it is rejected here.
    """
    if mode == MODE_MAX:
        raise TransformError("the max route has no design: its test scans the ordered column")
    if mode not in MODES:
        raise TransformError(f"unknown transform mode {mode!r}")
    if col.kind == CATEGORICAL:
        if mode != MODE_CAT:
            raise TransformError(
                f"mode {mode!r} needs a numeric column, {col.name!r} is categorical"
            )
        codes = col.values
    elif mode == MODE_LIN:
        return SplitTransform(mode=MODE_LIN, design=col.values[:, None], labels=(col.name,))
    elif col.n < 4:
        raise NoAdmissibleSplitError(f"column {col.name!r} has too few rows for quartile bins")
    else:
        breaks = np.unique(np.asarray(empirical_quartiles(col)))
        # right-closed intervals (-inf, b1], (b1, b2], ..., (bk, +inf)
        codes = np.searchsorted(breaks, col.values, side="left")
    kept = np.flatnonzero(np.bincount(codes))
    if kept.size == 0:
        raise TransformError(f"column {col.name!r} is empty")
    design = (codes[:, None] == kept).astype(float)
    if col.kind == CATEGORICAL:
        labels = tuple(col.levels[i] for i in kept)
    else:
        labels = tuple(f"bin{i + 1}" for i in range(kept.size))
    return SplitTransform(mode=MODE_CAT, design=design, labels=labels)
