"""Power-study harness for the split-selection strategies.

Data-generating processes
-------------------------
All scenarios draw one regressor ``x ~ U(-1, 1)``, ten candidate split
variables, and standard normal noise; ``y = beta0 + beta1 * x + noise``
with per-row coefficients from the scenario's regime table:

========  ================================  ===========  ===========
scenario  regime                            ``beta0``    ``beta1``
========  ================================  ===========  ===========
stump     0: ``z1 <= xi``                   ``-delta``   ``+delta``
stump     1: ``z1 > xi``                    ``+delta``   ``-delta``
tree      0: ``z2 <= xi``                   ``0``        ``+delta``
tree      1: ``z2 > xi``, ``z1 <= xi``      ``-delta``   ``-delta``
tree      2: ``z2 > xi``, ``z1 > xi``       ``+delta``   ``-delta``
========  ================================  ===========  ===========

``stump_continuous`` replaces the stump's jump by a linear drift,
``beta0 = delta * z1`` and ``beta1 = -delta * z1``.  The variation
pins the coefficient that does not vary: ``intercept`` sets every slope
to 1, ``slope`` every intercept to 0 (the tree varies ``both``).  The
regimes are the truth :func:`true_partition` returns.

``z1`` (and ``z2``) are uniform on (-1, 1); the remaining variables
alternate uniform and standard normal by position.  Within one grid
cell every strategy sees identical datasets, replication by
replication, so strategy comparisons are paired.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dataset import NUMERIC, Dataset, RngStream, SplitColumn, typed_fields
from .inference import StrategyConfig, select_variable
from .linmod import fit_ols
from .prune import cv_prune
from .tree import GrowControl, _NodeCache, grow, leaves, partition_labels

__all__ = [
    "ScenarioConfig",
    "ReplicationRecord",
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
        typed_fields(self)
        for key in ("xi", "delta"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.variation not in VARIATIONS:
            raise ValueError(f"unknown variation {self.variation!r}")
        if self.scenario == "tree" and self.variation != "both":
            raise ValueError("the tree scenario varies both coefficients")
        if self.n < 20:
            raise ValueError("scenario needs at least 20 observations")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
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


def _regimes(config: ScenarioConfig, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Each row's regime: the stump's 0/1 at ``z1 <= xi``; the tree's 0
    at ``z2 <= xi``, then 1/2 at ``z1 <= xi``."""
    if config.scenario == "stump":
        return (z1 > config.xi).astype(np.int64)
    if config.scenario == "tree":
        return np.where(z2 <= config.xi, 0, np.where(z1 <= config.xi, 1, 2)).astype(np.int64)
    raise ValueError(f"scenario {config.scenario!r} has no finite regime partition")


def generate(config: ScenarioConfig, rng: RngStream) -> Dataset:
    """One dataset of ``config``'s scenario, drawn from ``rng`` in a fixed
    order: x, then z1..zJ, then the noise."""
    n, d = config.n, float(config.delta)
    x = rng.uniform(-1.0, 1.0, n)
    columns = [
        rng.uniform(-1.0, 1.0, n) if j == 1 or j % 2 == 0 else rng.standard_normal(n)
        for j in range(1, config.j_noise + 2)
    ]
    if config.scenario == "stump_continuous":
        beta0, beta1 = d * columns[0], -d * columns[0]
    else:
        # (intercept, slope) of each regime, in _regimes' numbering
        table = {"stump": [(-d, d), (d, -d)], "tree": [(0.0, d), (-d, -d), (d, -d)]}
        beta0, beta1 = np.array(table[config.scenario]).T[:, _regimes(config, *columns[:2])]
    if config.variation == "intercept":
        beta1 = np.ones(n)
    elif config.variation == "slope":
        beta0 = np.zeros(n)
    y = beta0 + beta1 * x + rng.standard_normal(n)
    z = tuple(SplitColumn(f"z{j + 1}", NUMERIC, values) for j, values in enumerate(columns))
    return Dataset(y, x, z)


def true_partition(config: ScenarioConfig, data: Dataset) -> np.ndarray:
    """Regime labels implied by the generating coefficients."""
    return _regimes(config, data.column("z1").values, data.column("z2").values)


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


def _run_replication(
    cell: ScenarioConfig,
    rep: int,
    strategies: Sequence[tuple[str, StrategyConfig]],
    control: GrowControl,
    pruning: str,
    seed: int,
    folds: int,
) -> list[ReplicationRecord]:
    key = (cell.scenario, cell.variation, float(cell.xi), float(cell.delta), cell.n, rep)
    data = generate(cell, RngStream(seed, 0).substream("data", *key))
    if cell.scenario == "tree":
        truth = true_partition(cell, data)
        cache = _NodeCache(data)  # every strategy's trees share it; dropped with the replication
        fold_seed = RngStream(seed, 0).substream("cv", *key).stream
    else:
        fit = fit_ols(data.y, data.x)
    records = []
    for name, strat in strategies:
        if cell.scenario == "tree":
            if pruning == "post":
                tree = cv_prune(data, strat, control, folds=folds, seed=fold_seed,
                                _cache=cache).tree
            else:
                tree = grow(data, strat, control, _cache=cache)
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
    are returned in (cell, replication, strategy) order; a repeated
    strategy name or (scenario, variation, xi, delta) cell, which
    ``aggregate_records`` would count twice, raises.  ``threads`` is
    deprecated and warns unless 1: replications run serially, as the
    Python-bound work only slowed down in a thread pool.
    """
    if threads != 1:
        warnings.warn("threads has no effect and will be removed", FutureWarning, stacklevel=2)
    if pruning not in ("pre", "post"):
        raise ValueError("pruning must be 'pre' or 'post'")
    for kind, keys in (("strategy", [name for name, _ in strategies]),
                       ("cell", [(c.scenario, c.variation, c.xi, c.delta) for c in cells])):
        if repeats := [key for i, key in enumerate(keys) if key in keys[:i]]:
            raise ValueError(f"repeated {kind} {repeats[0]!r}: its records would count twice")
    control = GrowControl() if control is None else control
    if pruning == "pre":  # the pre-pruned arm's control and each strategy under it, made once
        control = replace(control, prepruning=True)
    strategies = [(name, control.apply_to(strat)) for name, strat in strategies]
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
    # cells keep the order of their first record
    groups: dict[tuple, list[ReplicationRecord]] = {}
    for record in records:
        key = (record.scenario, record.strategy, record.variation, record.xi, record.delta)
        groups.setdefault(key, []).append(record)
    rows = []
    for key, group in groups.items():
        reps = len(group)
        chosen_hits = sum(1 for r in group if r.chosen == "z1")
        # the first smallest p-value, degenerate tests included
        argmin_hits = sum(min(r.p_values, key=r.p_values.get, default=None) == "z1" for r in group)
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


LONG_COLUMNS = ("scenario", "strategy", "variation", "xi", "delta", "rep", "variable", "p_value",
                "chosen", "ari", "leaves")

AGG_COLUMNS = ("scenario", "strategy", "variation", "xi", "delta", "reps", "selection_probability",
               "argmin_probability", "mean_p", "mean_ari", "mean_leaves")


def write_records_csv(records: Sequence[ReplicationRecord], path: str) -> None:
    """Long format: one row per tested variable per replication."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(LONG_COLUMNS)
        for r in records:
            for variable, p in r.p_values.items():
                cells = (r.scenario, r.strategy, r.variation, r.xi, r.delta, r.rep, variable, p,
                         r.chosen, r.ari, r.leaf_count)
                writer.writerow([_cell_text(cell) for cell in cells])


def write_aggregate_csv(rows: Sequence[dict], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(AGG_COLUMNS)
        for row in rows:
            writer.writerow([_cell_text(row[c]) for c in AGG_COLUMNS])
