"""Split-variable tests: one unified interface over three engines.

A strategy is the triple (residuals or scores, dichotomize or not,
split mode).  Dispatch on the split mode picks the engine:

* ``lin``  - linear cross-statistic between the gof matrix and the raw
  column, standardized by its exact permutation mean and covariance;
  quadratic form against chi-square, or the absolute standardized
  scalar against the normal when the statistic is one-dimensional.
* ``max``  - maximally-selected score fluctuation: the bridge of partial
  sums of decorrelated gof rows in column order, scanned at tie-block
  ends (the cuts a split could use), against a simulated null table.
* ``cat``  - with dichotomized gof, summed Pearson chi-square tests of
  the sign-by-bin tables, one per gof column, counted from the bin
  codes; without, the quadratic form above with one-hot bins.
  Categorical columns always take this route, through their levels.

``column_entries`` tests a node's columns in blocks, one array pass per
route.  The engines are internal: each takes a block's inputs stacked on
a leading axis and returns arrays.  An entry that can discriminate
nothing is marked (df 0, statistic 0, p 1, boundary -1), never raised;
its outcome is ``degenerate``, with p = 1.  Every engine is invariant to
rescaling the gof columns; p-values are raw, and the selection gate
optionally applies a Bonferroni factor across the tested columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import ColumnMatrix, Dataset, SplitColumn, typed_fields
from .linmod import LinearFit
from .special import chi2_sf, normal_sf
from .transform import GofMatrix, design_groups, eig_pinv_parts, make_gof

__all__ = [
    "UnsupportedConfigurationError",
    "StrategyConfig",
    "TestOutcome",
    "STRATEGIES",
    "parse_strategy",
    "resolve_min_segment",
    "linear_statistic",
    "conditional_moments",
    "quad_form_test",
    "max_abs_test",
    "fluctuation_process",
    "suplm_statistic",
    "suplm_pvalue",
    "chisq_statistic",
    "column_entries",
    "run_strategy",
    "select_variable",
    "argmin_outcome",
]

MODE_LIN = "lin"
MODE_CAT = "cat"
MODE_MAX = "max"
MODES = (MODE_LIN, MODE_CAT, MODE_MAX)

LAW_CHI2 = "chi2"
LAW_NORMAL = "normal"
LAW_SUPLM = "suplm"
LAW_DEGENERATE = "degenerate"

# Null-table simulation contract: 20000 replicates of the weighted
# squared Brownian-bridge functional on a 1000-step grid, fixed seed.
NULL_TABLE_GRID = 1000
NULL_TABLE_REPLICATES = 20000
NULL_TABLE_SEED = 987153522

# columns times rows in one block of a node's column tests: it bounds the
# stacked and one-hot arrays of a large node (uncapped, a 100 000-row fit
# peaked 34 MB higher); a small node fits one block
COLUMN_BLOCK = 65536


class UnsupportedConfigurationError(ValueError):
    """A test was asked for outside its supported shape."""


@dataclass(frozen=True)
class StrategyConfig:
    """Complete description of one split-selection strategy.

    ``min_segment`` of ``None`` resolves per node to ``max(10, ceil(0.1 n))``.
    ``multiplicity`` controls only the selection gate, never the reported
    p-values: ``"bonferroni"`` compares ``min(1, J * p)`` against
    ``alpha`` across the J tested columns, ``"none"`` the raw minimum.
    """

    use_scores: bool
    dichotomize: bool
    split_mode: str
    alpha: float = 0.05
    min_segment: int | None = None
    multiplicity: str = "bonferroni"

    def __post_init__(self) -> None:
        typed_fields(self)
        if self.split_mode not in MODES:
            raise UnsupportedConfigurationError(f"unknown split_mode {self.split_mode!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise UnsupportedConfigurationError("alpha must lie in (0, 1]")
        if self.min_segment is not None and self.min_segment < 1:
            raise UnsupportedConfigurationError("min_segment must be at least 1")
        if self.multiplicity not in ("bonferroni", "none"):
            raise UnsupportedConfigurationError(f"unknown multiplicity {self.multiplicity!r}")


STRATEGIES: dict[str, StrategyConfig] = {
    "ctree": StrategyConfig(use_scores=True, dichotomize=False, split_mode=MODE_LIN),
    "mob": StrategyConfig(use_scores=True, dichotomize=False, split_mode=MODE_MAX),
    "guide": StrategyConfig(use_scores=False, dichotomize=True, split_mode=MODE_CAT),
    "guide+scores": StrategyConfig(use_scores=True, dichotomize=True, split_mode=MODE_CAT),
    "ctree+max": StrategyConfig(use_scores=True, dichotomize=False, split_mode=MODE_MAX),
    "ctree+cat": StrategyConfig(use_scores=True, dichotomize=False, split_mode=MODE_CAT),
    "ctree+dich": StrategyConfig(use_scores=True, dichotomize=True, split_mode=MODE_LIN),
    "mob+cat": StrategyConfig(use_scores=True, dichotomize=False, split_mode=MODE_CAT),
    "mob+dich": StrategyConfig(use_scores=True, dichotomize=True, split_mode=MODE_MAX),
}

_GOF_TOKENS = {"residuals": False, "scores": True}
_DICH_TOKENS = {"dich": True, "nodich": False}


def parse_strategy(text: str, **overrides) -> StrategyConfig:
    """Resolve a strategy name or a ``gof,dich,mode`` triple.

    Examples: ``"mob"``, ``"guide+scores"``, ``"residuals,nodich,lin"``.
    """
    key = text.strip().lower()
    if key in STRATEGIES:
        return replace(STRATEGIES[key], **overrides)
    parts = [p.strip() for p in key.split(",")]
    if len(parts) == 3 and parts[0] in _GOF_TOKENS and parts[1] in _DICH_TOKENS and parts[2] in MODES:
        return StrategyConfig(
            use_scores=_GOF_TOKENS[parts[0]],
            dichotomize=_DICH_TOKENS[parts[1]],
            split_mode=parts[2],
            **overrides,
        )
    names = ", ".join(sorted(STRATEGIES))
    raise UnsupportedConfigurationError(
        f"unknown strategy {text!r}; pick one of {names} or a "
        "'residuals|scores,dich|nodich,lin|cat|max' triple"
    )


@dataclass(frozen=True)
class TestOutcome:
    """Result of one split-variable test."""

    variable: str
    statistic: float
    p_value: float
    law: str
    df: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p-value outside [0, 1]")


def resolve_min_segment(n: int, override: int | None = None) -> int:
    """Per-node minimum segment size: ``max(10, ceil(0.1 n))`` by default."""
    if override is not None:
        return int(override)
    return max(10, -(-n // 10))


# ---------------------------------------------------------------------------
# linear statistic and its permutation moments


def linear_statistic(gof: GofMatrix, design: np.ndarray) -> np.ndarray:
    """Column-major vectorization of ``design' * gof`` cross sums: entry
    ``p + P * (q - 1)`` is ``sum_i design[i, p] * gof[i, q]`` (one row per
    design of a stack)."""
    design = np.asarray(design, dtype=float)
    cross = np.swapaxes(design, -1, -2) @ gof.values
    return np.swapaxes(cross, -1, -2).reshape(*design.shape[:-2], -1)


def conditional_moments(gof: GofMatrix, design: np.ndarray,
                        counts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(mean, covariance)`` of the linear statistic under random
    row permutations (stacked as the designs are) of two or more rows.
    For unit weights they are

        mean = vec(colsum(design) * rowmean(gof)')
        cov  = n/(n-1) * V ox S  -  1/(n-1) * V ox (c c')

    with ``V`` the maximum-likelihood covariance of the gof rows, ``S = design' design``,
    ``c = colsum(design)``, and ``ox`` the Kronecker product matching the vectorization;
    one-hot designs' code ``counts`` give ``c`` and ``S``, their diagonal, with no sum.
    """
    design = np.asarray(design, dtype=float)
    n, lead = design.shape[-2], design.shape[:-2]
    v_h = gof.covariance
    csum, s = ((design.sum(axis=-2), np.swapaxes(design, -1, -2) @ design) if counts is None
               else (counts, counts[..., None] * np.eye(counts.shape[-1])))
    mean = (gof.mean[:, None] * csum[..., None, :]).reshape(*lead, -1)
    q, p = v_h.shape[0], s.shape[-1]

    def kron(m: np.ndarray) -> np.ndarray:
        # entry (a p + i, b p + j) is v_h[a, b] * m[i, j], one product each
        return (v_h[:, None, :, None] * m[..., None, :, None, :]).reshape(*lead, q * p, q * p)

    outer = csum[..., :, None] * csum[..., None, :]
    return mean, (n / (n - 1)) * kron(s) - (1.0 / (n - 1)) * kron(outer)


def _chi2_pvalues(stat: np.ndarray, df: np.ndarray) -> list[float]:
    return [chi2_sf(s, d) if d else 1.0 for s, d in zip(stat.tolist(), df.tolist())]


def quad_form_test(statistic: np.ndarray, mean: np.ndarray,
                   covariance: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Quadratic forms of (g, m) centered statistics in their pseudo-inverted
    (g, m, m) covariances against chi-square with the numerical rank as df,
    as ``(statistics, df, p-values)``.  The stack shares one ``eigh`` call;
    its projections and dots stay one BLAS call each, as batched they
    change last bits; so would the kept eigenvectors read in any layout but C-ordered rows."""
    d = np.asarray(statistic, dtype=float) - mean
    eigval, eigvec, keep = eig_pinv_parts(covariance)
    df, rows_t = keep.sum(axis=-1), np.ascontiguousarray(np.swapaxes(eigvec, -1, -2))
    stat = np.zeros(d.shape[0])
    for j, lo in zip(np.flatnonzero(df).tolist(), (d.shape[-1] - df[df > 0]).tolist()):
        proj = rows_t[j, lo:] @ d[j]
        stat[j] = proj @ (proj / eigval[j, lo:])
    return stat, df, _chi2_pvalues(stat, df)


def max_abs_test(statistic: np.ndarray, mean: np.ndarray,
                 covariance: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Two-sided normal tests of (g, 1) linear statistics with (g, 1, 1)
    covariances, as ``(statistics, p-values)``; the quadratic form covers
    every higher-dimensional case.  A zero or non-finite variance, or a
    zero statistic, is degenerate."""
    d = np.asarray(statistic, dtype=float) - mean
    var = np.asarray(covariance, dtype=float).reshape(*d.shape[:-1], -1)[..., 0]
    spread = (var > 0.0) & np.isfinite(var)
    stat = np.where(spread, np.abs(d[..., 0]) / np.sqrt(np.where(spread, var, 1.0)), 0.0)
    return stat, [2.0 * normal_sf(s) if s else 1.0 for s in stat.tolist()]


# ---------------------------------------------------------------------------
# maximally-selected fluctuation test


def fluctuation_process(gof: GofMatrix, values: np.ndarray,
                        order: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Partial-sum processes of the whitened gof rows (``GofMatrix.whitened``)
    along (g, n) numeric columns ``values`` in their stable sort ``order``,
    both gathered with ``np.take``, as ``(cumulative, tie_ends, k_eff)``:
    row i of a process's (n + 1, k) ``cumulative`` sums the first i sorted
    rows, so its first and last rows are zero; ``tie_ends`` marks the
    boundaries that end a block of tied values; ``k_eff`` is the rank."""
    n = gof.n
    white, rank = gof.whitened
    cumulative = np.zeros((*order.shape[:-1], n + 1, gof.k))
    np.cumsum(np.take(white, order, axis=0), axis=-2, out=cumulative[..., 1:, :])
    vs = np.take(values, order + n * np.arange(order.size // n).reshape(*order.shape[:-1], 1))
    tie_ends = np.ones(cumulative.shape[:-1], dtype=bool)
    tie_ends[..., 1:-1] = vs[..., :-1] != vs[..., 1:]
    return cumulative, tie_ends, rank


def suplm_statistic(cumulative: np.ndarray, tie_ends: np.ndarray,
                    min_segment: int) -> tuple[np.ndarray, np.ndarray]:
    """Largest variance-weighted squared bridge norm of each process from
    ``fluctuation_process`` over its admissible cuts.

    Candidate boundaries are the tie-block ends: row counts ``i`` after
    which the sorted column value changes, with at least
    ``min_segment`` rows on each side; the weight at boundary ``i`` is
    ``((i/n) * (1 - i/n))**-1``.  Returns the statistics and the boundaries
    where the maxima are attained (ties keep the smallest); a process
    without an admissible cut is marked with statistic 0 and boundary -1."""
    n = tie_ends.shape[-1] - 1
    lo, hi = min_segment, n - min_segment
    if lo > hi:
        return np.zeros(tie_ends.shape[:-1]), np.full(tie_ends.shape[:-1], -1)
    ends = tie_ends[..., lo : hi + 1]
    frac = np.arange(lo, hi + 1) / n
    path = cumulative[..., lo : hi + 1, :]
    norm = sum(path[..., j] * path[..., j] for j in range(path.shape[-1]))
    values = 1.0 / (frac * (1.0 - frac)) * norm
    values[~ends] = -np.inf
    peak, stat = np.argmax(values, axis=-1), values.max(axis=-1)
    found = ends.any(axis=-1)
    return np.where(found, stat, 0.0), np.where(found, lo + peak, -1)


class _NullTableCache:
    """Sorted Monte-Carlo samples of the limiting sup functional: one set
    of bridge paths per dimension ``k``, fixed seed; each trimming reads
    its sup law off the per-path running maxima, whatever the order of
    requests.  Those float32 maxima are kept as runs of equal values: each
    run's last key ``path * grid / 2 + trimming - 1``, ascending, and value."""

    def __init__(self) -> None:
        self._run_ends: dict[int, np.ndarray] = {}
        self._run_values: dict[int, np.ndarray] = {}
        self._tables: dict[tuple[int, int], np.ndarray] = {}

    def _build_runs(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        grid, half, batch = NULL_TABLE_GRID, NULL_TABLE_GRID // 2, 64
        rng = np.random.Generator(np.random.Philox(key=np.array([NULL_TABLE_SEED, k], np.uint64)))
        t = (np.arange(1, grid) / grid)[:, None]
        weight = 1.0 / (t * (1.0 - t))
        # cache-sized batches: drawn path-major into one reused buffer, which
        # reads the stream in the same order whatever the batch size, then
        # laid out path-minor as (k, grid, paths), so that each step is a
        # vector op across paths that keeps each path's order of arithmetic
        draws, walk = np.empty((batch, grid, k)), np.empty((k, grid, batch))
        w, m = np.empty((grid - 1, batch)), np.empty((half, batch))
        block = np.empty((batch, half), np.float32)
        ends, keys, values = np.ones((batch, half), bool), [], []  # ends' last column is never cleared
        for done in range(0, NULL_TABLE_REPLICATES, batch):
            b = min(batch, NULL_TABLE_REPLICATES - done)
            rng.standard_normal(out=draws[:b])
            path = walk[..., :b]
            np.divide(draws[:b].transpose(2, 1, 0), math.sqrt(grid), out=path)
            np.cumsum(path, axis=1, out=path)
            bridge = path[:, :-1]
            bridge -= t * path[:, -1:]
            np.multiply(np.einsum("kgp,kgp->gp", bridge, bridge, out=w[:, :b]), weight, out=w[:, :b])
            # fold boundary g onto grid - 2 - g, then take running maxima
            # from the centre outwards: row j is the sup over [j, grid - 2 - j];
            # rounding is monotone, so one cast to float32 at the end suffices
            np.maximum(w[:half, :b], w[grid - 2 : half - 2 : -1, :b], out=m[:, :b])
            np.maximum.accumulate(m[::-1, :b], axis=0, out=m[::-1, :b])
            block[:b] = m[:, :b].T
            np.not_equal(block[:b, :-1], block[:b, 1:], out=ends[:b, :-1])
            at = np.flatnonzero(ends[:b])
            keys.append(at.astype(np.int32) + done * half)
            values.append(block.ravel()[at])
        return np.concatenate(keys), np.concatenate(values)

    def column(self, k: int, trim_index: int) -> np.ndarray:
        if k not in self._run_ends:
            self._run_ends[k], self._run_values[k] = self._build_runs(k)
        ends = self._run_ends[k]
        wanted = np.arange(trim_index - 1, ends[-1] + 1, NULL_TABLE_GRID // 2, dtype=np.int32)
        return self._run_values[k][np.searchsorted(ends, wanted)]  # the run ending there or next

    def table(self, k: int, trim_index: int) -> np.ndarray:
        if (k, trim_index) not in self._tables:
            self._tables[k, trim_index] = np.sort(self.column(k, trim_index))
        return self._tables[k, trim_index]


_NULL_TABLES = _NullTableCache()


def suplm_pvalue(statistic: float | np.ndarray, k: int, min_segment: int,
                 n: int) -> float | np.ndarray:
    """Upper-tail probability of the sup functional's limit law.

    The law is the supremum over ``t`` in ``[ms/n, 1 - ms/n]`` of
    ``||B(t)||^2 / (t (1 - t))`` for a k-dimensional Brownian bridge; the
    p-value is the fraction of the cached Monte-Carlo sample at or above
    the statistic (or each of an array of them).
    """
    if k < 1:
        raise UnsupportedConfigurationError("dimension must be at least 1")
    if min_segment < 1 or 2 * min_segment > n:
        raise UnsupportedConfigurationError("trimming admits no boundary")
    trim_index = (NULL_TABLE_GRID * min_segment + n - 1) // n
    trim_index = min(max(trim_index, 1), NULL_TABLE_GRID // 2)
    table, statistic = _NULL_TABLES.table(k, trim_index), np.asarray(statistic, dtype=float)
    # float32 v >= statistic exactly when v >= the least float32 at or above it
    with np.errstate(over="ignore"):
        key = statistic.astype(np.float32)
        key = np.where(key < statistic, np.nextafter(key, np.float32(np.inf)), key)
    count_ge = table.shape[0] - np.searchsorted(table, key, side="left")
    return count_ge / table.shape[0]


# ---------------------------------------------------------------------------
# contingency chi-square over sign-by-bin tables


def chisq_statistic(gof: GofMatrix, design: np.ndarray) -> tuple[float, int]:
    """Pearson chi-square of sign indicators against one-hot bins.

    One 2-by-P table per gof column: row 0 counts zeros, row 1 counts
    ones, columns follow the design.  Empty design columns are dropped;
    a column of constant sign contributes nothing.  Statistics and
    degrees of freedom add across gof columns; fewer than two non-empty
    bins, or no gof column of both signs, give ``(0.0, 0)``.  The binned
    route counts its tables from the bin codes and shares the arithmetic.
    """
    if not gof.dichotomized:
        raise UnsupportedConfigurationError("contingency test requires a dichotomized gof")
    design = np.asarray(design, dtype=float)
    totals, ones = design.sum(axis=0), gof.values.T @ design
    stat, df = _pearson_tables(np.stack((totals - ones, ones), axis=-2)[None, ..., totals > 0], gof.n)
    return float(stat[0]), int(df[0])


def _pearson_tables(observed: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Summed chi-square statistics and df of (g, k, 2, w) sign-by-bin tables
    of n rows and no empty bin, each table summed in its flattened order."""
    row_totals = observed.sum(axis=-1)
    used = (row_totals > 0.0).all(axis=-1) & (observed.shape[-1] > 1)
    expected = row_totals[..., None] * observed.sum(axis=-2)[..., None, :] / n
    # an unused table may expect zero counts; a used one never does
    cells = (observed - expected) ** 2 / np.where(expected > 0.0, expected, 1.0)
    stat = np.where(used, cells.reshape(*used.shape, -1).sum(axis=-1), 0.0).sum(axis=-1)
    return stat, used.sum(axis=-1) * (observed.shape[-1] - 1)


# ---------------------------------------------------------------------------
# strategy dispatch and variable selection


def _route_tests(config: StrategyConfig, gof: GofMatrix, values: np.ndarray,
                 orders: np.ndarray | None, numeric: np.ndarray):
    """``(columns, statistics, df, p-values, law)`` per route and design
    width of a block's columns (the rows of ``values``); df 0 is degenerate."""
    n, mode = gof.n, config.split_mode
    direct = np.flatnonzero(numeric) if mode != MODE_CAT else np.arange(0)
    if direct.size and mode == MODE_MAX:
        cumulative, tie_ends, k_eff = fluctuation_process(gof, values[direct], orders[direct])
        ms = resolve_min_segment(n, config.min_segment)
        stat, peak = suplm_statistic(cumulative, tie_ends, ms)
        df = np.where(peak >= 0, k_eff, 0)
        # the null law needs k_eff >= 1 and a cut in the trimming window
        if df.any():
            yield direct, stat, df, suplm_pvalue(stat, k_eff, ms, n), LAW_SUPLM
    elif direct.size:
        designs = values[direct][:, :, None]
        # exact power-of-two scale to max |value| in [0.5, 1), so no moment overflows or underflows
        designs = np.ldexp(designs, -np.frexp(np.abs(designs).max(axis=1, keepdims=True))[1])
        t, (mean, cov) = linear_statistic(gof, designs), conditional_moments(gof, designs)
        if gof.k == 1:
            stat, p = max_abs_test(t, mean, cov)
            yield direct, stat, (stat != 0.0).astype(int), p, LAW_NORMAL
        else:
            yield direct, *quad_form_test(t, mean, cov), LAW_CHI2
    # a numeric column of fewer than four rows has no quartile bins
    binned = np.flatnonzero(~numeric | ((mode == MODE_CAT) & (n >= 4)))
    if binned.size == 0:
        return
    if binned.size < numeric.size:  # gather the binned part; a whole block serves as it is
        values, numeric = values[binned], numeric[binned]
        orders = orders[binned] if numeric.any() else None
    signs = gof.values if config.dichotomize else None
    for group, *arrays in design_groups(values, numeric, orders, signs):
        if config.dichotomize:
            stat, df = _pearson_tables(*arrays, n)
            yield binned[group], stat, df, _chi2_pvalues(stat, df), LAW_CHI2
        else:
            t, (mean, cov) = linear_statistic(gof, arrays[0]), conditional_moments(gof, *arrays)
            yield binned[group], *quad_form_test(t, mean, cov), LAW_CHI2


def column_entries(config: StrategyConfig, gof: GofMatrix, columns: ColumnMatrix,
                   rows: np.ndarray | None = None, orders: np.ndarray | None = None) -> list[tuple]:
    """Each column's ``(statistic, p, law, df)`` against a node's gof
    matrix under ``config``: the node is ``rows`` (increasing) of
    ``columns``, all of them by default, and ``orders`` its (J, n) column
    orders, read off the presort of ``columns`` when numeric columns take
    the max route or quartile bins and none are given.  Columns are
    gathered and tested in blocks of at most ``COLUMN_BLOCK`` values."""
    numeric = columns.numeric
    if orders is None and config.split_mode != MODE_LIN and numeric.any():
        orders = columns.orders_of(rows)
    rows = np.arange(gof.n) if rows is None else rows
    entries = [(0.0, 1.0, LAW_DEGENERATE, 0)] * numeric.size
    step = max(1, COLUMN_BLOCK // gof.n)
    for start in range(0, numeric.size, step):
        span = slice(start, start + step)
        values = np.take(columns.values[span], rows, axis=1)
        block_orders = None if orders is None else orders[span]
        for sel, stat, df, p, law in _route_tests(config, gof, values, block_orders, numeric[span]):
            for j, s, d, pj in zip((sel + start).tolist(), stat.tolist(), df.tolist(), p):
                if d > 0:
                    entries[j] = (s, float(pj), law, d)
    return entries


def run_strategy(config: StrategyConfig, gof: GofMatrix, col: SplitColumn,
                 entry: tuple | None = None) -> TestOutcome:
    """Test one split column against a node's gof matrix under ``config``.

    ``gof`` is ``make_gof(fit, y, x, config.use_scores, config.dichotomize)``
    and ``entry`` the column's from ``column_entries`` over the node, or
    the column is tested alone, as a block of one.  A degenerate test is
    an outcome with p = 1, not an error.
    """
    stat, p, law, df = entry or column_entries(config, gof, ColumnMatrix([col], col.n))[0]
    return TestOutcome(variable=col.name, statistic=stat, p_value=p, law=law, df=df)


def argmin_outcome(outcomes: list[TestOutcome]) -> TestOutcome | None:
    """Smallest p-value, ties broken by column position; ``None`` when
    every test is degenerate."""
    tested = [outcome for outcome in outcomes if outcome.law != LAW_DEGENERATE]
    return min(tested, key=lambda outcome: outcome.p_value, default=None)


def select_variable(
    config: StrategyConfig, fit: LinearFit, data: Dataset,
    rows: np.ndarray | None = None, orders: np.ndarray | None = None,
    yx: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[list[TestOutcome], str | None]:
    """Test every split column and apply the selection gate.

    The node is ``rows`` (increasing) of ``data``, all of it by default,
    ``fit`` its fit, grown or stored, and ``orders`` its column orders if
    kept (see ``column_entries``), and ``yx`` its response and regressor
    if already gathered; its gof matrix and columns are read off ``data``,
    whose presort every call shares.  Returns all outcomes in
    column order and the chosen variable, or ``None`` when the (possibly
    adjusted) minimum p-value misses ``alpha``.
    """
    if yx is None:
        yx = (data.y, data.x) if rows is None else (data.y[rows], data.x[rows])
    gof = make_gof(fit, *yx, config.use_scores, config.dichotomize)
    entries = column_entries(config, gof, data.columns, rows, orders)
    outcomes = [run_strategy(config, gof, col, entry) for col, entry in zip(data.z, entries)]
    best = argmin_outcome(outcomes)
    if best is None:
        return outcomes, None
    tested = sum(1 for o in outcomes if o.law != LAW_DEGENERATE)
    gate_p = min(1.0, tested * best.p_value) if config.multiplicity == "bonferroni" else best.p_value
    chosen = best.variable if gate_p < config.alpha else None
    return outcomes, chosen
