"""Residual/score matrices and candidate-split designs.

``make_gof`` turns a node fit at its rows into the row-wise matrix a
split test consumes: raw residuals, the two score columns, or their
sign indicators.  ``design_groups`` codes a block of split columns by
level or quartile bin (breaks read at the node's presort), then per width
counts their sign-by-code tables or builds their one-hot designs, and
``make_split_transform`` builds one column's.  The linear route pairs the
gof matrix with the raw column and the max route orders the rows by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .dataset import CATEGORICAL, ColumnMatrix, SplitColumn
from .linmod import LinearFit, residuals

__all__ = [
    "TransformError",
    "GofMatrix",
    "make_gof",
    "quartile_breaks",
    "design_groups",
    "make_split_transform",
]

_EIG_RTOL = 1e-12


class TransformError(ValueError):
    """Raised when a transform cannot be built for a column."""


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
    def mean(self) -> np.ndarray:
        return self.values.mean(axis=0)

    @cached_property
    def centred(self) -> np.ndarray:
        return self.values - self.mean

    @cached_property
    def covariance(self) -> np.ndarray:
        """Maximum-likelihood covariance of the gof rows."""
        return (self.centred.T @ self.centred) / self.n

    @cached_property
    def whitened(self) -> tuple[np.ndarray, int]:
        """``centred`` decorrelated by the inverse symmetric square root of
        ``covariance`` on its numerical range and scaled by ``n**-0.5``, and
        the dimension of that range (each row is a product of its own)."""
        eigval, eigvec, keep = eig_pinv_parts(self.covariance)
        root_inv = eigvec[:, keep] @ np.diag(1.0 / np.sqrt(eigval[keep])) @ eigvec[:, keep].T
        return (self.centred @ root_inv) / np.sqrt(self.n), int(keep.sum())


def eig_pinv_parts(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of symmetric matrices (stacked on
    leading axes, one LAPACK call each) and the mask of the eigenvalues above
    ``dim * max eigenvalue * 1e-12``, the numerical range: the last ones (``eigh`` ascends)."""
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


def quartile_breaks(values: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """The three sample quartiles (type 7) of each row of a matrix of four
    or more columns, ``np.quantile``'s interpolation of the order statistics
    read at the rows' stable sorts ``orders``: its bytes but a zero's sign."""
    t, lo = np.modf((values.shape[-1] - 1) * np.array((0.25, 0.5, 0.75)))
    at = orders[:, np.concatenate((lo, lo + 1)).astype(np.intp)]
    a, b = values[np.arange(len(values))[:, None], at].reshape(-1, 2, 3).swapaxes(0, 1)
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def _quartile_codes(values: np.ndarray, orders: np.ndarray) -> np.ndarray:
    q1, q2, q3 = quartile_breaks(values, orders).T[:, :, None]
    return (q1 < values).astype(np.intp) + (q2 < values) + (q3 < values)  # bin = quartiles below


def design_groups(values: np.ndarray, numeric: np.ndarray, orders: np.ndarray | None,
                  signs: np.ndarray | None) -> Iterator[tuple]:
    """The split columns stacked as the rows of ``values``, coded and
    grouped by the number w of codes taken: levels of a categorical row,
    right-closed quartile bins ``(-inf, q1], (q1, q2], ...`` of a
    ``numeric`` one, read at its stable sort in ``orders`` (``None`` with
    no numeric row); coincident quartiles merge.  Yields each group's rows and their
    (g, n, w) one-hot designs and (g, w) code counts with ``signs`` None, else their
    (g, k, 2, w) tables of rows by sign in each column of the dichotomized gof
    ``signs`` (n, k) and by code, counted; codes go in increasing order."""
    if numeric.all():  # coded whole, with no masked copies
        codes = _quartile_codes(values, orders)
    else:
        codes = np.where(numeric[:, None], 0.0, values).astype(np.intp)
        if numeric.any():
            codes[numeric] = _quartile_codes(values[numeric], orders[numeric])
    width = int(codes.max(initial=0)) + 1
    # each value's cell: (column, code), then its gof column and sign
    per = 1 if signs is None else 2 * signs.shape[1]
    cell = codes + width * np.arange(codes.shape[0])[:, None]
    if signs is not None:
        # a C-ordered sign matrix keeps the broadcast sum's inner loop along the rows
        sign = np.ascontiguousarray(signs.T, np.intp) + np.arange(0, per, 2)[:, None]
        cell = cell[:, None, :] * per + sign
    counts = np.bincount(cell.ravel(), minlength=len(codes) * width * per).reshape(-1, width, per)
    taken = counts.any(axis=-1)
    widths = taken.sum(axis=1)
    for w in np.flatnonzero(np.bincount(widths)):
        rows = np.flatnonzero(widths == w)
        kept = np.nonzero(taken[rows])[1].reshape(rows.shape[0], w)
        grouped = counts[rows[:, None], kept].astype(float)
        if signs is None:
            yield rows, (codes[rows][:, :, None] == kept[:, None, :]).astype(float), grouped[..., 0]
        else:
            yield rows, np.ascontiguousarray(grouped.swapaxes(1, 2)).reshape(len(rows), -1, 2, w)


def make_split_transform(col: SplitColumn) -> np.ndarray:
    """One-hot design of a split column for the binned route, as
    ``design_groups`` builds it; an empty column, or a numeric one of fewer
    than four rows (no quartiles), raises ``TransformError``."""
    if col.n < (1 if col.kind == CATEGORICAL else 4):
        raise TransformError(f"column {col.name!r} has too few rows for its bins")
    block = ColumnMatrix([col], col.n)
    ((_, designs, _),) = design_groups(block.values, block.numeric, block.orders, None)
    return designs[0]
