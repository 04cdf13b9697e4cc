"""Residual/score matrices and candidate-split designs.

``make_gof`` turns a node fit into the row-wise matrix a split test
consumes: raw residuals, the two score columns, or their elementwise
sign indicators.  ``make_split_transform`` turns a split column into the
one-hot design the binned route pairs with it: quartile-bin columns for
a numeric column, level columns for a categorical one.  The linear
route pairs the gof matrix with the raw column, and the
maximally-selected route orders the rows by the column, so neither
needs a design built here.

A node builds one gof matrix for all its split columns, which keeps
what the column tests derive from it; ``quartile_breaks`` takes the
quartiles of all numeric columns of a node in one pass.

``DegenerateTestError`` is the one signal by which every split test, and
the design builder here, says that its input can discriminate nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .dataset import CATEGORICAL, NUMERIC, SplitColumn, empirical_quartiles
from .linmod import LinearFit

__all__ = [
    "TransformError",
    "DegenerateTestError",
    "GofMatrix",
    "make_gof",
    "quartile_breaks",
    "make_split_transform",
]

_EIG_RTOL = 1e-12


class TransformError(ValueError):
    """Raised when a transform cannot be built for a column."""


class DegenerateTestError(ValueError):
    """The test cannot discriminate anything on this input (p = 1)."""


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

    @cached_property
    def centred(self) -> np.ndarray:
        return self.values - self.values.mean(axis=0)

    @cached_property
    def covariance(self) -> np.ndarray:
        """Maximum-likelihood covariance of the gof rows."""
        return (self.centred.T @ self.centred) / self.n

    @cached_property
    def inverse_root(self) -> tuple[np.ndarray, int]:
        """Inverse symmetric square root of ``covariance`` on its numerical
        range, and the dimension of that range."""
        eigval, eigvec, rank = eig_pinv_parts(self.covariance)
        return eigvec @ np.diag(1.0 / np.sqrt(eigval)) @ eigvec.T, rank


def eig_pinv_parts(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Eigenpairs of a symmetric matrix above ``dim * max eigenvalue * 1e-12``
    and their count, the numerical rank."""
    sym = 0.5 * (sym + sym.T)
    eigval, eigvec = np.linalg.eigh(sym)
    lam_max = float(eigval.max(initial=0.0))
    keep = eigval > sym.shape[0] * lam_max * _EIG_RTOL
    return eigval[keep], eigvec[:, keep], int(keep.sum())


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


def quartile_breaks(cols: Sequence[SplitColumn]) -> dict[str, np.ndarray]:
    """Distinct quartiles of each numeric column of four or more rows, by
    name, from one ``np.quantile`` call; each equals
    ``np.unique(empirical_quartiles(col))`` bit for bit."""
    numeric = [col for col in cols if col.kind == NUMERIC and col.n >= 4]
    if not numeric:
        return {}
    stacked = np.stack([col.values for col in numeric], axis=1)
    quartiles = np.quantile(stacked, (0.25, 0.5, 0.75), axis=0)
    return {col.name: np.unique(quartiles[:, i]) for i, col in enumerate(numeric)}


def make_split_transform(col: SplitColumn, breaks: np.ndarray | None = None) -> np.ndarray:
    """One-hot design of a split column for the binned route.

    The design's columns indicate integer codes: the level codes of a
    categorical column, or the right-closed quartile bin of each value
    of a numeric one; codes that no row takes are dropped.  ``breaks``
    are the numeric column's distinct quartiles when already known
    (``quartile_breaks``).  A numeric column of fewer than four rows has
    no quartiles and raises ``DegenerateTestError``.
    """
    if col.kind == CATEGORICAL:
        codes = col.values
    elif col.n < 4:
        raise DegenerateTestError(f"column {col.name!r} has too few rows for quartile bins")
    else:
        if breaks is None:
            breaks = np.unique(np.asarray(empirical_quartiles(col)))
        # right-closed intervals (-inf, b1], (b1, b2], ..., (bk, +inf)
        codes = np.searchsorted(breaks, col.values, side="left")
    kept = np.flatnonzero(np.bincount(codes))
    if kept.size == 0:
        raise TransformError(f"column {col.name!r} is empty")
    return (codes[:, None] == kept).astype(float)
