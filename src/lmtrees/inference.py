"""Split-variable tests: one unified interface over three engines.

A strategy is the triple (residuals or scores, dichotomize or not,
split mode).  Dispatch on the split mode picks the engine:

* ``lin``  - linear cross-statistic between the gof matrix and the raw
  column, standardized by its exact permutation mean and covariance;
  quadratic form against chi-square, or the absolute standardized
  scalar against the normal when the statistic is one-dimensional.
* ``max``  - maximally-selected score fluctuation: the column orders the
  rows and partial sums of the decorrelated gof columns form a bridge
  (``fluctuation_process``); ``suplm_statistic``, the one scan, takes
  the largest variance-weighted squared norm over the tie-block ends
  (the cut points a split could use) in the admissible range, and it
  is referred to a simulated null table.
* ``cat``  - with dichotomized gof, summed Pearson chi-square tests of
  the sign-by-bin contingency tables, one table per gof column;
  without dichotomization, the quadratic form above with one-hot bins
  (a one-way analysis-of-variance flavour).  ``make_split_transform``
  builds the one-hot design.

Categorical split columns always enter through their natural one-hot
design, whatever the configured split mode.

``select_variable`` builds what a node's column tests share once: the
gof matrix (which keeps its covariance and decorrelation), one quartile
pass over the numeric columns and the column orders from the root
presort; ``run_strategy`` does only the column-specific work.

An engine that can discriminate nothing on its input raises
``DegenerateTestError``; ``run_strategy`` reports that as p = 1.

Every engine is invariant to rescaling the gof columns by a nonzero
constant, so the constant factor in the score definition never matters.
All p-values are reported raw; the variable-selection gate optionally
applies a Bonferroni factor across the tested columns so that the
family-level decision holds its nominal size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import CATEGORICAL, Dataset, SplitColumn, order_permutation, subset_order
from .linmod import LinearFit
from .special import chi2_sf, normal_sf
from .transform import (DegenerateTestError, GofMatrix, eig_pinv_parts, make_gof,
                        make_split_transform, quartile_breaks)

__all__ = [
    "UnsupportedConfigurationError",
    "DegenerateTestError",
    "StrategyConfig",
    "TestOutcome",
    "FluctuationProcess",
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


class UnsupportedConfigurationError(ValueError):
    """A test was asked for outside its supported shape."""


@dataclass(frozen=True)
class StrategyConfig:
    """Complete description of one split-selection strategy.

    ``min_segment`` of ``None`` resolves per node to
    ``max(10, ceil(0.1 * n))``.  ``multiplicity`` controls only the
    selection gate, never the reported p-values: ``"bonferroni"``
    compares ``min(1, J * p)`` against ``alpha`` across the J tested
    columns, ``"none"`` compares the raw minimum.
    """

    use_scores: bool
    dichotomize: bool
    split_mode: str
    alpha: float = 0.05
    min_segment: int | None = None
    multiplicity: str = "bonferroni"

    def __post_init__(self) -> None:
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
    """Column-major vectorization of ``design' * gof`` cross sums.

    With design columns ``p = 1..P`` and gof columns ``q = 1..Q`` the
    entry at position ``p + P * (q - 1)`` is ``sum_i design[i, p] *
    gof[i, q]``.
    """
    design = np.asarray(design, dtype=float)
    return (design.T @ gof.values).flatten(order="F")


def conditional_moments(gof: GofMatrix, design: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(mean, covariance)`` of the linear statistic under random
    row permutations; fewer than two rows raise ``DegenerateTestError``.

    For unit weights the permutation distribution of the statistic has

        mean = vec(colsum(design) * rowmean(gof)')
        cov  = n/(n-1) * V ox S  -  1/(n-1) * V ox (c c')

    with ``V`` the maximum-likelihood covariance of the gof rows,
    ``S = design' design``, ``c = colsum(design)``, and ``ox`` the
    Kronecker product arranged to match the column-major vectorization.
    """
    design = np.asarray(design, dtype=float)
    n = design.shape[0]
    if n < 2:
        raise DegenerateTestError("permutation moments need at least two rows")
    v_h = gof.covariance
    csum = design.sum(axis=0)
    s = design.T @ design
    mean = np.outer(csum, gof.values.mean(axis=0)).flatten(order="F")
    q, p = v_h.shape[0], s.shape[0]

    def kron(m: np.ndarray) -> np.ndarray:
        # entry (a p + i, b p + j) is v_h[a, b] * m[i, j], one product each
        return (v_h[:, None, :, None] * m[None, :, None, :]).reshape(q * p, q * p)

    cov = (n / (n - 1)) * kron(s) - (1.0 / (n - 1)) * kron(np.outer(csum, csum))
    return mean, cov


def quad_form_test(statistic: np.ndarray, mean: np.ndarray,
                   covariance: np.ndarray) -> tuple[float, int, float]:
    """Quadratic form of the centered statistic in the pseudo-inverted
    covariance, referred to chi-square with the numerical rank as
    degrees of freedom.  Returns ``(statistic, df, p)``; a covariance of
    rank zero raises ``DegenerateTestError``.
    """
    d = np.asarray(statistic, dtype=float) - mean
    eigval, eigvec, rank = eig_pinv_parts(covariance)
    if rank == 0:
        raise DegenerateTestError("covariance of the linear statistic has rank zero")
    proj = eigvec.T @ d
    stat = float(proj @ (proj / eigval))
    return stat, rank, chi2_sf(stat, rank)


def max_abs_test(statistic: np.ndarray, mean: np.ndarray,
                 covariance: np.ndarray) -> tuple[float, float]:
    """Two-sided normal test of a one-dimensional linear statistic.

    Only defined when the statistic has a single component; the
    quadratic form covers every higher-dimensional case.  A zero or
    non-finite variance, or a zero statistic, raises ``DegenerateTestError``.
    """
    d = np.atleast_1d(np.asarray(statistic, dtype=float)) - mean
    if d.shape[0] != 1:
        raise UnsupportedConfigurationError(
            f"max-abs test requires a one-dimensional statistic, got {d.shape[0]}"
        )
    var = float(np.asarray(covariance).reshape(-1)[0])
    if var <= 0.0 or not math.isfinite(var):
        raise DegenerateTestError("variance of the linear statistic is not positive")
    stat = abs(float(d[0])) / math.sqrt(var)
    if stat == 0.0:
        raise DegenerateTestError("linear statistic equals its permutation mean")
    return stat, 2.0 * normal_sf(stat)


# ---------------------------------------------------------------------------
# maximally-selected fluctuation test


@dataclass(frozen=True)
class FluctuationProcess:
    """Partial-sum process of decorrelated gof rows in column order.

    ``cumulative`` holds n+1 rows; row i is the scaled partial sum of
    the first i sorted rows, so the first and last rows are zero (gof
    columns are centered before decorrelation, which for score columns
    changes nothing because they already sum to zero).  ``tie_ends``
    marks the n+1 boundaries that end a block of tied column values.
    """

    cumulative: np.ndarray
    tie_ends: np.ndarray
    k_eff: int

    @property
    def n(self) -> int:
        return int(self.cumulative.shape[0] - 1)


def fluctuation_process(gof: GofMatrix, col: SplitColumn,
                        order: np.ndarray | None = None) -> FluctuationProcess:
    """Build the cumulative-score process along a numeric column's order.

    The gof columns are centered, decorrelated by the inverse symmetric
    square root of their average outer product, scaled by ``n**-0.5``,
    and cumulated in the column's stable sort order (``order`` when
    already known).  Only the boundaries in ``tie_ends`` are cut points
    a split could use.
    """
    if order is None:
        order = order_permutation(col)
    n = gof.n
    root_inv, rank = gof.inverse_root
    if rank == 0:
        raise DegenerateTestError("gof covariance is numerically zero")
    walk = (gof.centred[order] @ root_inv) / math.sqrt(n)
    cumulative = np.zeros((n + 1, gof.k))
    np.cumsum(walk, axis=0, out=cumulative[1:])
    vs = col.values[order]
    tie_ends = np.concatenate(([True], vs[:-1] != vs[1:], [True]))
    return FluctuationProcess(cumulative=cumulative, tie_ends=tie_ends, k_eff=rank)


def suplm_statistic(proc: FluctuationProcess, min_segment: int) -> tuple[float, int]:
    """Largest variance-weighted squared bridge norm over admissible cuts.

    Candidate boundaries are the tie-block ends: row counts ``i`` after
    which the sorted column value changes, with at least
    ``min_segment`` rows on each side; the weight at boundary ``i`` is
    ``((i/n) * (1 - i/n))**-1``.  Returns the statistic and the
    boundary where the maximum is attained (ties keep the smallest);
    no admissible boundary raises ``DegenerateTestError``.
    """
    n = proc.n
    if min_segment < 1:
        raise UnsupportedConfigurationError("min_segment must be at least 1")
    lo, hi = min_segment, n - min_segment
    ends = proc.tie_ends[lo : hi + 1]
    if not ends.any():
        raise DegenerateTestError(f"segments of {min_segment} leave no cut in {n} rows")
    frac = np.arange(lo, hi + 1) / n
    path = proc.cumulative[lo : hi + 1]
    values = 1.0 / (frac * (1.0 - frac)) * np.einsum("ij,ij->i", path, path)
    values[~ends] = -np.inf
    peak = int(np.argmax(values))
    return float(values[peak]), lo + peak


class _NullTableCache:
    """Sorted Monte-Carlo samples of the limiting sup functional.

    One set of bridge paths is simulated per dimension ``k`` with a
    fixed seed; each trimming then reads its sup distribution from the
    per-path running maxima, so every (k, trim) table is reproducible
    regardless of request order.
    """

    def __init__(self) -> None:
        self._trim_max: dict[int, np.ndarray] = {}
        self._tables: dict[tuple[int, int], np.ndarray] = {}

    def _build_trim_max(self, k: int) -> np.ndarray:
        grid = NULL_TABLE_GRID
        half = grid // 2
        rng = np.random.Generator(
            np.random.Philox(key=np.array([NULL_TABLE_SEED, k], dtype=np.uint64))
        )
        out = np.empty((NULL_TABLE_REPLICATES, half), dtype=np.float32)
        t = np.arange(1, grid) / grid
        weight = 1.0 / (t * (1.0 - t))
        done = 0
        batch = 500
        while done < NULL_TABLE_REPLICATES:
            b = min(batch, NULL_TABLE_REPLICATES - done)
            # steps, walk and bridge share one array per batch to keep the
            # resident peak low
            walk = rng.standard_normal((b, grid, k))
            walk /= math.sqrt(grid)
            np.cumsum(walk, axis=1, out=walk)
            bridge = walk[:, : grid - 1, :]
            bridge -= t[None, :, None] * walk[:, -1:, :]
            w = np.einsum("igk,igk->ig", bridge, bridge) * weight[None, :]
            m = out[done : done + b]
            # fold boundary g onto grid - 2 - g, then take running maxima
            # from the centre outwards: column j is the sup over [j, grid - 2 - j]
            np.maximum(w[:, :half], w[:, grid - 2 : half - 2 : -1], out=m)
            np.maximum.accumulate(m[:, ::-1], axis=1, out=m[:, ::-1])
            done += b
        return out

    def table(self, k: int, trim_index: int) -> np.ndarray:
        key = (k, trim_index)
        if key not in self._tables:
            if k not in self._trim_max:
                self._trim_max[k] = self._build_trim_max(k)
            self._tables[key] = np.sort(self._trim_max[k][:, trim_index - 1].astype(float))
        return self._tables[key]


_NULL_TABLES = _NullTableCache()


def suplm_pvalue(statistic: float, k: int, min_segment: int, n: int) -> float:
    """Upper-tail probability of the sup functional's limit law.

    The law is the supremum over ``t`` in ``[ms/n, 1 - ms/n]`` of
    ``||B(t)||^2 / (t (1 - t))`` for a k-dimensional Brownian bridge,
    estimated as the fraction of the cached Monte-Carlo sample at or
    above the statistic.
    """
    if k < 1:
        raise UnsupportedConfigurationError("dimension must be at least 1")
    if min_segment < 1 or 2 * min_segment > n:
        raise UnsupportedConfigurationError("trimming admits no boundary")
    trim_index = (NULL_TABLE_GRID * min_segment + n - 1) // n
    trim_index = min(max(trim_index, 1), NULL_TABLE_GRID // 2)
    table = _NULL_TABLES.table(k, trim_index)
    count_ge = table.shape[0] - int(np.searchsorted(table, statistic, side="left"))
    return count_ge / table.shape[0]


# ---------------------------------------------------------------------------
# contingency chi-square over sign-by-bin tables


def chisq_statistic(gof: GofMatrix, design: np.ndarray) -> tuple[float, int]:
    """Pearson chi-square of sign indicators against one-hot bins.

    One 2-by-P table per gof column: row 0 counts zeros, row 1 counts
    ones, columns follow the design.  Empty design columns are dropped;
    a column of constant sign contributes nothing.  Statistics and
    degrees of freedom add across gof columns; fewer than two non-empty
    bins or zero summed df raise ``DegenerateTestError``.
    """
    if not gof.dichotomized:
        raise UnsupportedConfigurationError("contingency test requires a dichotomized gof")
    design = np.asarray(design, dtype=float)
    n = design.shape[0]
    col_totals = design.sum(axis=0)
    keep = col_totals > 0
    design = design[:, keep]
    col_totals = col_totals[keep]
    if design.shape[1] < 2:
        raise DegenerateTestError("fewer than two non-empty bins")
    total_stat = 0.0
    total_df = 0
    for q in range(gof.k):
        ones = gof.values[:, q] @ design
        observed = np.vstack((col_totals - ones, ones))
        row_totals = observed.sum(axis=1)
        if np.any(row_totals == 0.0):
            continue
        expected = np.outer(row_totals, col_totals) / n
        total_stat += float(((observed - expected) ** 2 / expected).sum())
        total_df += design.shape[1] - 1
    if total_df == 0:
        raise DegenerateTestError("every gof column has a constant sign")
    return total_stat, total_df


# ---------------------------------------------------------------------------
# strategy dispatch and variable selection


def run_strategy(config: StrategyConfig, gof: GofMatrix, col: SplitColumn,
                 order: np.ndarray | None = None, breaks: np.ndarray | None = None) -> TestOutcome:
    """Test one split column against a node's gof matrix under ``config``.

    ``gof`` is ``make_gof(fit, config.use_scores, config.dichotomize)``;
    the column's stable sort ``order`` (max route) and distinct quartile
    ``breaks`` (binned route) are computed when not given.  An engine's
    ``DegenerateTestError`` (constant columns, empty trimming ranges,
    vanishing covariances) yields a degenerate outcome with p = 1 rather
    than an error, so callers can rank columns uniformly.
    """
    mode = MODE_CAT if col.kind == CATEGORICAL else config.split_mode
    try:
        if mode == MODE_MAX:
            ms = resolve_min_segment(gof.n, config.min_segment)
            proc = fluctuation_process(gof, col, order)
            stat, _ = suplm_statistic(proc, ms)
            law, df, p = LAW_SUPLM, proc.k_eff, suplm_pvalue(stat, proc.k_eff, ms, gof.n)
        elif mode == MODE_CAT and config.dichotomize:
            stat, df = chisq_statistic(gof, make_split_transform(col, breaks))
            law, p = LAW_CHI2, chi2_sf(stat, df)
        else:
            design = col.values[:, None] if mode == MODE_LIN else make_split_transform(col, breaks)
            t = linear_statistic(gof, design)
            mean, cov = conditional_moments(gof, design)
            if mode == MODE_LIN and t.shape[0] == 1:
                (stat, p), df, law = max_abs_test(t, mean, cov), 1, LAW_NORMAL
            else:
                (stat, df, p), law = quad_form_test(t, mean, cov), LAW_CHI2
    except DegenerateTestError:
        stat, p, law, df = 0.0, 1.0, LAW_DEGENERATE, 0
    return TestOutcome(variable=col.name, statistic=stat, p_value=p, law=law, df=df)


def argmin_outcome(outcomes: list[TestOutcome]) -> TestOutcome | None:
    """Smallest p-value, ties broken by column position; ``None`` when
    every test is degenerate."""
    best = None
    best_p = math.inf
    for outcome in outcomes:
        if outcome.law == LAW_DEGENERATE:
            continue
        if outcome.p_value < best_p:
            best = outcome
            best_p = outcome.p_value
    return best


def select_variable(
    config: StrategyConfig, fit: LinearFit, data: Dataset,
    rows: np.ndarray | None = None, orders: dict[str, np.ndarray] | None = None,
) -> tuple[list[TestOutcome], str | None]:
    """Test every split column and apply the selection gate.

    The node is ``rows`` (increasing) of ``data``, all of it by default;
    ``fit`` is its fit.  ``orders`` may map numeric column names to their
    stable sort orders over all of ``data``, which the max route filters
    to the node.  Returns all outcomes in column order plus the chosen
    variable name, or ``None`` when the (possibly multiplicity-adjusted)
    minimum p-value does not clear ``alpha``.
    """
    gof = make_gof(fit, config.use_scores, config.dichotomize)
    cols = data.z if rows is None else [col.take(rows) for col in data.z]
    breaks = quartile_breaks(cols) if config.split_mode == MODE_CAT else {}
    if config.split_mode != MODE_MAX or not orders:
        orders = {}
    elif rows is not None:
        orders = {name: subset_order(order, rows) for name, order in orders.items()}
    outcomes = [run_strategy(config, gof, col, orders.get(col.name), breaks.get(col.name))
                for col in cols]
    best = argmin_outcome(outcomes)
    if best is None:
        return outcomes, None
    tested = sum(1 for o in outcomes if o.law != LAW_DEGENERATE)
    gate_p = min(1.0, tested * best.p_value) if config.multiplicity == "bonferroni" else best.p_value
    chosen = best.variable if gate_p < config.alpha else None
    return outcomes, chosen
