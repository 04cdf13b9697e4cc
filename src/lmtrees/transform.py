"""Residual/score matrices and candidate-split designs.

``make_gof`` turns a node fit at its rows into the row-wise matrix a
split test consumes: raw residuals, the two score columns, or their
sign indicators.  ``design_groups`` turns a block of split columns into
the one-hot designs the binned route pairs with them (quartile bins or
levels), stacked by width; ``make_split_transform`` is one column's.
The linear route pairs the gof matrix with the raw column and the max
route orders the rows by it, so neither needs a design built here.
``DegenerateTestError`` is the one signal by which every split test, and
the design builder here, says that its input can discriminate nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .dataset import CATEGORICAL, SplitColumn
from .linmod import LinearFit, residuals

__all__ = [
    "TransformError",
    "DegenerateTestError",
    "GofMatrix",
    "make_gof",
    "quartile_breaks",
    "design_groups",
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
        eigval, eigvec, keep = eig_pinv_parts(self.covariance)
        eigval, eigvec = eigval[keep], eigvec[:, keep]
        return eigvec @ np.diag(1.0 / np.sqrt(eigval)) @ eigvec.T, int(keep.sum())


def eig_pinv_parts(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of symmetric matrices (stacked on
    leading axes, one LAPACK call each) and the mask of the eigenvalues
    above ``dim * max eigenvalue * 1e-12``, the numerical range."""
    sym = 0.5 * (sym + np.swapaxes(sym, -1, -2))
    eigval, eigvec = np.linalg.eigh(sym)
    lam_max = eigval.max(axis=-1, initial=0.0)
    return eigval, eigvec, eigval > sym.shape[-1] * lam_max[..., None] * _EIG_RTOL


def make_gof(fit: LinearFit, y: np.ndarray, x: np.ndarray, use_scores: bool,
             dichotomize: bool) -> GofMatrix:
    """The per-row test input of a node fit at the node's float rows
    ``(y, x)``: the two score columns with ``use_scores``, else the
    residual column; ``dichotomize`` replaces each entry by the indicator
    of nonnegativity (zeros map to one)."""
    r = residuals(fit.beta0, fit.beta1, y, x)
    values = np.column_stack((-2.0 * r, -2.0 * r * x)) if use_scores else r[:, None]
    if dichotomize:
        values = (values >= 0.0).astype(float)
    return GofMatrix(values=values, dichotomized=dichotomize)


def quartile_breaks(values: np.ndarray) -> np.ndarray:
    """The three sample quartiles (type 7, as ``empirical_quartiles``) of
    each row of a matrix of four or more columns, in one call."""
    return np.moveaxis(np.quantile(values, (0.25, 0.5, 0.75), axis=-1), 0, -1)


def design_groups(values: np.ndarray, numeric: np.ndarray) -> Iterator[tuple]:
    """One-hot designs of the split columns stacked as the rows of
    ``values``, by width w: the rows of w codes and their (g, n, w)
    designs, whose columns indicate the codes taken, in increasing order:
    levels of a categorical row, right-closed quartile bins ``(-inf, q1],
    (q1, q2], ...`` of a ``numeric`` one (coincident quartiles merge)."""
    codes = np.zeros(values.shape, dtype=np.intp)
    codes[~numeric] = values[~numeric]
    if numeric.any():
        # each value's bin is the number of quartiles below it
        bins = values[numeric]
        codes[numeric] = (quartile_breaks(bins)[:, None, :] < bins[:, :, None]).sum(axis=-1)
    width = int(codes.max(initial=0)) + 1
    offsets = codes + width * np.arange(codes.shape[0])[:, None]
    taken = np.bincount(offsets.ravel(), minlength=codes.shape[0] * width).reshape(-1, width) > 0
    widths = taken.sum(axis=1)
    for w in np.unique(widths):
        rows = np.flatnonzero(widths == w)
        kept = np.nonzero(taken[rows])[1].reshape(rows.shape[0], w)
        yield rows, (codes[rows][:, :, None] == kept[:, None, :]).astype(float)


def make_split_transform(col: SplitColumn) -> np.ndarray:
    """One-hot design of a split column for the binned route, as
    ``design_groups`` builds it; a numeric column of fewer than four rows
    has no quartiles and raises ``DegenerateTestError``."""
    if col.kind != CATEGORICAL and col.n < 4:
        raise DegenerateTestError(f"column {col.name!r} has too few rows for quartile bins")
    if col.n == 0:
        raise TransformError(f"column {col.name!r} is empty")
    numeric = np.array([col.kind != CATEGORICAL])
    ((_, designs),) = design_groups(col.values[None].astype(float), numeric)
    return designs[0]
