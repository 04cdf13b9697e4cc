"""Power-study harness for the split-selection strategies.

Data-generating processes
-------------------------
All scenarios draw one regressor ``x ~ U(-1, 1)``, ten candidate split
variables, and standard normal noise, then set per-row coefficients:

* ``stump``: two regimes split at ``z1 <= xi``.  The intercept jumps
  from ``-delta`` to ``+delta`` and/or the slope from ``+delta`` to
  ``-delta``; whichever coefficient does not vary is pinned (intercept
  0, slope 1).
* ``tree``: three regimes.  Rows with ``z2 <= xi`` share coefficients
  ``(0, +delta)``; the rest split once more at ``z1 <= xi`` into
  intercepts ``-delta`` and ``+delta``, all with slope ``-delta``.
* ``stump_continuous``: the stump with the jump replaced by a linear
  drift, intercept ``+delta * z1`` and slope ``-delta * z1``.

``z1`` (and ``z2``) are uniform on (-1, 1); the remaining variables
alternate uniform and standard normal by position.  Within one grid
cell every strategy sees identical datasets, replication by
replication, so strategy comparisons are paired.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dataset import NUMERIC, Dataset, RngStream, SplitColumn
from .inference import StrategyConfig, select_variable
from .linmod import fit_ols
from .prune import cv_prune
from .tree import GrowControl, grow, leaves, partition_labels

__all__ = [
    "ScenarioConfig",
    "ReplicationRecord",
    "gen_stump",
    "gen_tree",
    "gen_stump_continuous",
    "generate",
    "true_partition",
    "adjusted_rand_index",
    "run_study",
    "aggregate_records",
    "write_records_csv",
    "write_aggregate_csv",
]

SCENARIOS = ("stump", "tree", "stump_continuous")
VARIATIONS = ("intercept", "slope", "both")


@dataclass(frozen=True)
class ScenarioConfig:
    """One grid cell of a power study."""

    scenario: str
    variation: str
    xi: float
    delta: float
    n: int = 250
    replications: int = 100
    j_noise: int = 9

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.variation not in VARIATIONS:
            raise ValueError(f"unknown variation {self.variation!r}")
        if self.scenario == "tree" and self.variation != "both":
            raise ValueError("the tree scenario varies both coefficients")
        if self.n < 20:
            raise ValueError("scenario needs at least 20 observations")
        if self.j_noise < 1:
            raise ValueError("need at least one extra split variable")
        if self.scenario == "tree" and self.j_noise < 2:
            raise ValueError("the tree scenario needs z2")


@dataclass(frozen=True)
class ReplicationRecord:
    """Outcome of one strategy on one simulated dataset."""

    scenario: str
    strategy: str
    variation: str
    xi: float
    delta: float
    rep: int
    p_values: dict[str, float]
    chosen: str | None
    ari: float | None
    leaf_count: int | None


def _draw_columns(config: ScenarioConfig, rng: RngStream) -> tuple[np.ndarray, list[np.ndarray]]:
    # fixed draw order: x, then z1..zJ, then the noise is drawn by the caller
    n = config.n
    x = rng.uniform(-1.0, 1.0, n)
    columns = []
    for j in range(1, config.j_noise + 2):
        if j == 1 or j % 2 == 0:
            columns.append(rng.uniform(-1.0, 1.0, n))
        else:
            columns.append(rng.standard_normal(n))
    return x, columns


def _assemble(config: ScenarioConfig, x, columns, beta0, beta1, rng) -> Dataset:
    eps = rng.standard_normal(config.n)
    y = beta0 + beta1 * x + eps
    z = tuple(
        SplitColumn(f"z{j + 1}", NUMERIC, values) for j, values in enumerate(columns)
    )
    return Dataset(y, x, z)


def gen_stump(config: ScenarioConfig, rng: RngStream) -> Dataset:
    """Two-regime data split at ``z1 <= xi``."""
    x, columns = _draw_columns(config, rng)
    right = columns[0] > config.xi
    sign = np.where(right, 1.0, -1.0)
    beta0 = sign * config.delta if config.variation in ("intercept", "both") else np.zeros(config.n)
    beta1 = -sign * config.delta if config.variation in ("slope", "both") else np.ones(config.n)
    return _assemble(config, x, columns, beta0, beta1, rng)


def gen_tree(config: ScenarioConfig, rng: RngStream) -> Dataset:
    """Three-regime data split at ``z2 <= xi`` and then ``z1 <= xi``."""
    x, columns = _draw_columns(config, rng)
    upper = columns[1] > config.xi
    right = columns[0] > config.xi
    beta0 = np.where(upper, np.where(right, config.delta, -config.delta), 0.0)
    beta1 = np.where(upper, -config.delta, config.delta)
    return _assemble(config, x, columns, beta0, beta1, rng)


def gen_stump_continuous(config: ScenarioConfig, rng: RngStream) -> Dataset:
    """Stump counterpart with coefficients drifting linearly in ``z1``."""
    x, columns = _draw_columns(config, rng)
    z1 = columns[0]
    beta0 = config.delta * z1 if config.variation in ("intercept", "both") else np.zeros(config.n)
    beta1 = -config.delta * z1 if config.variation in ("slope", "both") else np.ones(config.n)
    return _assemble(config, x, columns, beta0, beta1, rng)


_GENERATORS = {
    "stump": gen_stump,
    "tree": gen_tree,
    "stump_continuous": gen_stump_continuous,
}


def generate(config: ScenarioConfig, rng: RngStream) -> Dataset:
    return _GENERATORS[config.scenario](config, rng)


def true_partition(config: ScenarioConfig, data: Dataset) -> np.ndarray:
    """Regime labels implied by the generating coefficients."""
    z1 = data.column("z1").values
    if config.scenario == "stump":
        return (z1 > config.xi).astype(np.int64)
    if config.scenario == "tree":
        z2 = data.column("z2").values
        return np.where(z2 <= config.xi, 0, np.where(z1 <= config.xi, 1, 2)).astype(np.int64)
    raise ValueError(f"scenario {config.scenario!r} has no finite regime partition")


def adjusted_rand_index(labels_a: Sequence[int], labels_b: Sequence[int]) -> float:
    """Chance-corrected pair-counting agreement of two partitions.

    1 for identical partitions up to relabeling, about 0 for unrelated
    ones; defined as 1 when both partitions are trivial.
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("label vectors must be one-dimensional and equally long")
    n = a.shape[0]
    if n == 0:
        raise ValueError("label vectors are empty")
    if n == 1:
        return 1.0  # one row has no pairs; both partitions are trivial
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    r = ai.max() + 1
    c = bi.max() + 1
    table = np.zeros((r, c), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def comb2(values: np.ndarray) -> float:
        values = values.astype(float)
        return float((values * (values - 1.0) / 2.0).sum())

    sum_cells = comb2(table)
    sum_rows = comb2(table.sum(axis=1))
    sum_cols = comb2(table.sum(axis=0))
    total = n * (n - 1.0) / 2.0
    expected = sum_rows * sum_cols / total
    top = sum_cells - expected
    bottom = 0.5 * (sum_rows + sum_cols) - expected
    if bottom == 0.0:
        return 1.0
    return top / bottom


def _argmin_variable(p_values: dict[str, float]) -> str | None:
    best = None
    best_p = math.inf
    for name, p in p_values.items():
        if p < best_p:
            best = name
            best_p = p
    return best


def _run_replication(
    cell: ScenarioConfig,
    rep: int,
    strategies: Sequence[tuple[str, StrategyConfig]],
    control: GrowControl,
    pruning: str,
    seed: int,
    folds: int,
) -> list[ReplicationRecord]:
    data_rng = RngStream(seed, 0).substream(
        "data", cell.scenario, cell.variation, float(cell.xi), float(cell.delta), cell.n, rep
    )
    data = generate(cell, data_rng)
    if cell.scenario == "tree":
        truth = true_partition(cell, data)
        fold_seed = RngStream(seed, 0).substream(
            "cv", cell.scenario, cell.variation, float(cell.xi), float(cell.delta), cell.n, rep
        ).stream
    else:
        fit = fit_ols(data.y, data.x)
    records = []
    for name, strat in strategies:
        if cell.scenario == "tree":
            if pruning == "post":
                tree = cv_prune(data, strat, control, folds=folds, seed=fold_seed).tree
            else:
                tree = grow(data, strat, replace(control, prepruning=True))
            p_values = dict(tree.p_values)
            chosen = tree.split.variable if tree.split is not None else None
            ari = float(adjusted_rand_index(truth, partition_labels(tree, data)))
            leaf_count = len(leaves(tree))
        else:
            outcomes, chosen = select_variable(strat, fit, data)
            p_values = {o.variable: o.p_value for o in outcomes}
            ari = leaf_count = None
        records.append(
            ReplicationRecord(
                scenario=cell.scenario,
                strategy=name,
                variation=cell.variation,
                xi=cell.xi,
                delta=cell.delta,
                rep=rep,
                p_values=p_values,
                chosen=chosen,
                ari=ari,
                leaf_count=leaf_count,
            )
        )
    return records


def run_study(
    cells: Sequence[ScenarioConfig],
    strategies: Sequence[tuple[str, StrategyConfig]],
    control: GrowControl | None = None,
    pruning: str = "pre",
    seed: int = 0,
    folds: int = 10,
    threads: int = 1,
) -> list[ReplicationRecord]:
    """Run every strategy over every cell's replications.

    Dataset and fold seeds depend on the cell and replication but not
    on the strategy, so all strategies face identical data.  Results
    are returned in (cell, replication, strategy) order.  ``threads``
    is accepted for compatibility and has no effect: replications run
    serially, since the work is Python-bound and a thread pool only
    slowed it down.
    """
    if pruning not in ("pre", "post"):
        raise ValueError("pruning must be 'pre' or 'post'")
    if control is None:
        control = GrowControl()
    return [
        record
        for cell in cells
        for rep in range(cell.replications)
        for record in _run_replication(cell, rep, strategies, control, pruning, seed, folds)
    ]


def aggregate_records(records: Sequence[ReplicationRecord]) -> list[dict]:
    """Per-cell summary rows.

    ``selection_probability`` is the fraction of replications whose
    gate-passing chosen variable is ``z1``; ``argmin_probability``
    ignores the gate and only asks whether ``z1`` attains the smallest
    p-value; ``mean_p`` averages the raw p-value of ``z1``.
    """
    groups: dict[tuple, list[ReplicationRecord]] = {}
    order: list[tuple] = []
    for record in records:
        key = (record.scenario, record.strategy, record.variation, record.xi, record.delta)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(record)
    rows = []
    for key in order:
        group = groups[key]
        reps = len(group)
        chosen_hits = sum(1 for r in group if r.chosen == "z1")
        argmin_hits = sum(1 for r in group if _argmin_variable(r.p_values) == "z1")
        p_z1 = [r.p_values["z1"] for r in group if "z1" in r.p_values]
        aris = [r.ari for r in group if r.ari is not None]
        leaf_counts = [r.leaf_count for r in group if r.leaf_count is not None]
        rows.append(
            {
                "scenario": key[0],
                "strategy": key[1],
                "variation": key[2],
                "xi": key[3],
                "delta": key[4],
                "reps": reps,
                "selection_probability": chosen_hits / reps,
                "argmin_probability": argmin_hits / reps,
                "mean_p": sum(p_z1) / len(p_z1) if p_z1 else None,
                "mean_ari": sum(aris) / len(aris) if aris else None,
                "mean_leaves": sum(leaf_counts) / len(leaf_counts) if leaf_counts else None,
            }
        )
    return rows


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


LONG_COLUMNS = (
    "scenario",
    "strategy",
    "variation",
    "xi",
    "delta",
    "rep",
    "variable",
    "p_value",
    "chosen",
    "ari",
    "leaves",
)

AGG_COLUMNS = (
    "scenario",
    "strategy",
    "variation",
    "xi",
    "delta",
    "reps",
    "selection_probability",
    "argmin_probability",
    "mean_p",
    "mean_ari",
    "mean_leaves",
)


def write_records_csv(records: Sequence[ReplicationRecord], path: str) -> None:
    """Long format: one row per tested variable per replication."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(LONG_COLUMNS)
        for r in records:
            for variable, p in r.p_values.items():
                writer.writerow(
                    [
                        r.scenario,
                        r.strategy,
                        r.variation,
                        _cell_text(r.xi),
                        _cell_text(r.delta),
                        r.rep,
                        variable,
                        _cell_text(p),
                        _cell_text(r.chosen),
                        _cell_text(r.ari),
                        _cell_text(r.leaf_count),
                    ]
                )


def write_aggregate_csv(rows: Sequence[dict], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(AGG_COLUMNS)
        for row in rows:
            writer.writerow([_cell_text(row[c]) for c in AGG_COLUMNS])
