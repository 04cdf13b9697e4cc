"""Recursive partitioning around per-node linear fits.

Growth alternates two separated decisions: pick the split variable by
the configured instability test, then pick the split point on that
variable alone by exhaustive residual-sum-of-squares search.  Node ids
are assigned in preorder.  Stopping is structural (depth, node size,
no admissible point) or inferential (no significant variable while
prepruning is on).

A growing node is an increasing index set into the root arrays, validated
once per dataset.  The split columns are stacked and sorted once per dataset
(``Dataset.columns``, the CART presort), so every tree grown on it shares
them, fold trees of cross-validation included.  A node carries its
columns' orders as node-local positions; a split hands each child its
part of them by one stable partition (``partition_orders``), never a
sort.  Trees grown on one dataset may share a node cache (``sim`` keeps
one per replication, for every strategy and fold tree): one record per row
set, so a row set reached again reuses its gather, fit, column orders and
cut searches, none of which depends on the strategy.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Iterator

import numpy as np

from .dataset import (NUMERIC, CsvSchema, DataError, Dataset, SplitColumn, order_permutation,
                      partition_orders, typed, typed_fields)
from .inference import StrategyConfig, TestOutcome, argmin_outcome, parse_strategy, select_variable
from .linmod import LinearFit, fit_ols, predict

__all__ = [
    "GrowControl",
    "Split",
    "TreeNode",
    "best_split_point",
    "grow",
    "partition_labels",
    "route_rows",
    "predict_tree",
    "iter_nodes",
    "leaves",
    "tree_to_dict",
    "tree_from_dict",
    "tree_to_json",
    "tree_from_json",
    "format_tree",
]

TREE_FORMAT = "lmtrees-tree/1"


@dataclass(frozen=True)
class GrowControl:
    """Growth knobs shared by every strategy.

    ``min_segment`` of ``None`` keeps the per-node default used by the
    fluctuation test.  With ``prepruning`` off the tree splits on the
    smallest p-value regardless of ``alpha`` (post-pruning workflows).
    """

    alpha: float = 0.05
    min_node_size: int = 20
    min_segment: int | None = None
    max_depth: int = 5
    prepruning: bool = True

    def __post_init__(self) -> None:
        typed_fields(self)
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.min_node_size < 3:
            raise ValueError("min_node_size must be at least 3")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.min_segment is not None and self.min_segment < 1:
            raise ValueError("min_segment must be at least 1")

    def apply_to(self, strategy: StrategyConfig) -> StrategyConfig:
        """``strategy`` with the control's ``alpha`` and ``min_segment`` in place of its own."""
        return replace(strategy, alpha=self.alpha, min_segment=self.min_segment)


@dataclass(frozen=True)
class Split:
    """A routing rule: numeric rows go left when ``value <= point``,
    categorical rows when their level is in ``left_levels``."""

    variable: str
    point: float | None = None
    left_levels: tuple[str, ...] | None = None
    right_levels: tuple[str, ...] | None = None


@dataclass(eq=False)
class TreeNode:
    """One node of a fitted tree: a leaf, or a split with two children."""

    id: int
    depth: int
    fit: LinearFit
    p_values: dict[str, float]
    outcomes: tuple[TestOutcome, ...] = ()
    split: Split | None = None
    children: tuple["TreeNode", ...] = ()

    def __post_init__(self) -> None:
        if len(self.children) != (0 if self.split is None else 2):
            raise ValueError(f"node {self.id}: {len(self.children)} children and "
                             f"{'no' if self.split is None else 'a'} split")

    @property
    def n(self) -> int:
        return self.fit.n

    @property
    def is_leaf(self) -> bool:
        return not self.children


def iter_nodes(node: TreeNode) -> Iterator[TreeNode]:
    """Preorder traversal."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def leaves(node: TreeNode) -> list[TreeNode]:
    return [n for n in iter_nodes(node) if n.is_leaf]


def _segment_rss(sums: np.ndarray, sxx_tol: float) -> tuple[np.ndarray, np.ndarray]:
    # least-squares RSS of every segment from its moment sums (size, sx,
    # sy, sxx, syy, sxy of the node-centred data); a segment whose
    # regressor spread is at or below sxx_tol (empty ones too) admits no
    # slope fit and is masked out
    size, sx, sy, sxx, syy, sxy = sums
    with np.errstate(invalid="ignore", divide="ignore"):
        vxx = sxx - sx * sx / size
        vyy = syy - sy * sy / size
        vxy = sxy - sx * sy / size
        ok = vxx > sxx_tol
        rss = np.where(ok, vyy - np.divide(vxy * vxy, vxx, out=np.zeros_like(vxx), where=ok),
                       np.inf)
    return np.maximum(rss, 0.0), ok


def _best_cut(yc: np.ndarray, xc: np.ndarray, left_sums: Callable[[np.ndarray], np.ndarray],
              admissible: np.ndarray | bool, min_node_size: int) -> int | None:
    # left_sums maps the 6 x n per-row moments to the left sums of every
    # candidate; the last candidate holds all rows, so each right side is
    # that total minus the left, written beside it to score both in one pass
    moments = np.empty((6, xc.shape[0]))
    moments[0], moments[1], moments[2], moments[5] = 1.0, xc, yc, xc * yc
    np.multiply(moments[1:3], moments[1:3], out=moments[3:5])
    left = left_sums(moments)
    sides = np.empty((6, 2, left.shape[1]))
    sides[:, 0] = left
    np.subtract(left[:, -1:], left, out=sides[:, 1])
    sxx_tol = max(float(xc @ xc), 1.0) * 1e-12
    (left_rss, right_rss), sides_ok = _segment_rss(sides, sxx_tol)
    ok = admissible & (sides_ok & (sides[0] >= max(min_node_size, 3))).all(axis=0)
    if not ok.any():
        return None
    # argmin keeps the first minimum: ties go to the earliest candidate
    return int(np.argmin(np.where(ok, left_rss + right_rss, np.inf)))


def _best_numeric_split(yc: np.ndarray, xc: np.ndarray, col: SplitColumn, order: np.ndarray,
                        min_node_size: int) -> Split | None:
    # candidate i puts the first i + 1 sorted rows on the left
    vs = col.values[order]
    admissible = np.concatenate((vs[:-1] != vs[1:], [False]))
    best = _best_cut(yc[order], xc[order], lambda m: np.cumsum(m, axis=1), admissible,
                     min_node_size)
    if best is None:
        return None
    point = 0.5 * (vs[best] + vs[best + 1])
    if not (vs[best] < point < vs[best + 1]):
        point = float(vs[best])
    return Split(variable=col.name, point=float(point))


def _best_categorical_split(yc: np.ndarray, xc: np.ndarray, col: SplitColumn,
                            min_node_size: int) -> Split | None:
    observed = np.flatnonzero(np.bincount(col.values))
    # past 16 observed levels the 2**15 partitions are too many to search
    if not 2 <= observed.size <= 16:
        return None
    # candidate b holds the first observed level plus rest level j when
    # bit j of b is set; the last candidate holds every level
    bits = np.arange(2 ** (observed.size - 1))
    member = np.vstack((np.ones_like(bits), bits >> np.arange(observed.size - 1)[:, None] & 1))

    def left_sums(moments: np.ndarray) -> np.ndarray:
        by_level = np.stack([np.bincount(col.values, weights=m) for m in moments])
        return by_level[:, observed] @ member

    best = _best_cut(yc, xc, left_sums, True, min_node_size)
    if best is None:
        return None
    return Split(
        variable=col.name,
        left_levels=col.labels(observed[member[:, best] == 1]),
        right_levels=col.labels(observed[member[:, best] == 0]),
    )


def best_split_point(
    y: np.ndarray, x: np.ndarray, col: SplitColumn, min_node_size: int,
    order: np.ndarray | None = None,
) -> Split | None:
    """Exhaustive least-squares search for the best cut on one column.

    Each candidate left set is scored from the moment sums of the
    node-centred data; both children must hold ``min_node_size`` rows and
    admit a slope fit, and the smallest total child residual sum of
    squares wins, ties going to the first candidate.  Numeric: the sorted
    prefixes (``order`` when known), cut halfway between consecutive
    distinct values.  Categorical: the binary partitions of the observed
    levels, as the subsets holding the first one.  ``None`` when no
    admissible cut exists, and for a categorical column of more than 16
    observed levels, whose partitions are too many to search.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    yc = y - y.sum() / y.shape[0]  # mean() to the bit, as in fit_ols
    xc = x - x.sum() / x.shape[0]
    if col.kind == NUMERIC:
        order = order_permutation(col) if order is None else order
        return _best_numeric_split(yc, xc, col, order, min_node_size)
    return _best_categorical_split(yc, xc, col, min_node_size)


def _goes_left(split: Split, col: SplitColumn, values: np.ndarray, unseen_left: bool) -> np.ndarray:
    # categorical splits route by label, not code: the level list of the
    # data being routed may differ from the training one (prune --data)
    if split.point is not None:
        return values <= split.point
    code = {label: c for c, label in enumerate(col.levels)}
    if unseen_left:
        return ~np.isin(values, [code[lab] for lab in split.right_levels or () if lab in code])
    return np.isin(values, [code[lab] for lab in split.left_levels or () if lab in code])


class _Record:
    """What trees grown on one dataset share of a row set: the gathered
    response and regressor with their fit, the column orders once a test
    needs them, and by (column, ``min_node_size``) the cut with its left
    mask.  Each depends on the rows alone, never on the strategy or tree."""

    __slots__ = ("y", "x", "fit", "orders", "cuts")

    def __init__(self, data: Dataset, rows: np.ndarray) -> None:
        self.y, self.x = data.y[rows], data.x[rows]
        self.fit = fit_ols(self.y, self.x)
        self.orders, self.cuts = None, {}


class _NodeCache(dict):
    """The node records of the trees grown on one dataset, by row set
    (``rows.tobytes()``)."""

    def __init__(self, data: Dataset) -> None:
        super().__init__()
        self.data = data


def grow(data: Dataset, strategy: StrategyConfig | str, control: GrowControl,
         rows: np.ndarray | None = None, *, _cache: _NodeCache | None = None) -> TreeNode:
    """Grow a tree by test-based variable selection and RSS point search.

    A node is split when it is shallower than ``max_depth``, holds at
    least twice ``min_node_size`` rows, the selection gate names a
    variable (or, without prepruning, any non-degenerate test exists),
    and that variable admits a cut.  Test degeneracies never abort the
    recursion; they terminate the node.  ``rows`` (strictly increasing)
    grows the tree on those rows of ``data`` alone, as on ``data.take(rows)``;
    ``route_rows(tree, data, rows)`` gives each node's rows.  A ``_cache``
    made for ``data`` shares node work among the trees grown with it.
    """
    if isinstance(strategy, str):
        strategy = parse_strategy(strategy)
    strategy = control.apply_to(strategy)
    if _cache is not None and _cache.data is not data:
        raise ValueError("a node cache serves only the dataset it was made for")
    if rows is not None:
        rows = np.asarray(rows)
        if not (rows.ndim == 1 and rows.dtype.kind in "iu" and np.all(rows[1:] > rows[:-1])
                and (rows.size == 0 or 0 <= rows[0] and rows[-1] < data.n)):
            raise ValueError(f"rows must be a strictly increasing 1-D integer index set "
                             f"into the {data.n} rows")
        rows = rows.astype(np.intp, copy=False)
    counter = itertools.count()
    names = [col.name for col in data.z]

    def record(rows: np.ndarray) -> _Record:
        # without a cache a record lives only as long as its node's recursion
        if _cache is None:
            return _Record(data, rows)
        key = rows.tobytes()  # a copy of the rows, made only to share
        return _cache[key] if key in _cache else _cache.setdefault(key, _Record(data, rows))

    def tested(rows: np.ndarray, depth: int) -> bool:
        return depth < control.max_depth and rows.shape[0] >= 2 * control.min_node_size

    def build(rows: np.ndarray, node: _Record, depth: int) -> TreeNode:
        node_id = next(counter)
        outcomes, split, children = (), None, ()
        if tested(rows, depth):
            outcome_list, chosen = select_variable(strategy, node.fit, data, rows, node.orders,
                                                   (node.y, node.x))
            outcomes = tuple(outcome_list)
            if not control.prepruning:
                best = argmin_outcome(outcome_list)
                chosen = best.variable if best is not None else None
            if chosen is not None:
                j = names.index(chosen)
                if (j, control.min_node_size) not in node.cuts:
                    col = data.z[j].take(rows)
                    cut = best_split_point(node.y, node.x, col, control.min_node_size, node.orders[j])
                    # growth sees every level of the split, so none is unseen
                    mask = None if cut is None else _goes_left(cut, col, col.values, False)
                    node.cuts[j, control.min_node_size] = cut, mask
                split, mask = node.cuts[j, control.min_node_size]
                if split is not None:
                    parts = rows[mask], rows[~mask]
                    kids = [record(part) for part in parts]
                    # a child met before may hold its orders; only a tested one needs them
                    if any(kid.orders is None and tested(part, depth + 1)
                           for part, kid in zip(parts, kids)):
                        for kid, orders in zip(kids, partition_orders(node.orders, mask)):
                            kid.orders = orders if kid.orders is None else kid.orders
                    children = tuple(build(part, kid, depth + 1) for part, kid in zip(parts, kids))
        return TreeNode(id=node_id, depth=depth, fit=node.fit, outcomes=outcomes, split=split,
                        p_values={o.variable: o.p_value for o in outcomes}, children=children)

    root = np.arange(data.n) if rows is None else rows
    node = record(root)
    # a fold tree's root orders, as its nodes' work, depend on its rows alone
    node.orders = data.columns.orders_of(rows) if node.orders is None else node.orders
    tree = build(root, node, 0)
    del build  # a reference cycle that would hold the data until the next gc
    return tree


def route_rows(tree: TreeNode, data: Dataset, rows: np.ndarray) -> dict[int, np.ndarray]:
    """The ``rows`` of ``data`` that reach each node of ``tree``, by node
    id, every parent before its children."""
    reach, stack = {}, [(tree, rows)]
    while stack:
        node, idx = stack.pop()
        reach[node.id] = idx
        if node.split is not None:
            col = data.column(node.split.variable)
            # an unseen level follows the child that saw more training rows
            unseen_left = node.children[0].n >= node.children[1].n
            mask = _goes_left(node.split, col, col.values[idx], unseen_left)
            stack += ((node.children[1], idx[~mask]), (node.children[0], idx[mask]))
    return reach


def partition_labels(tree: TreeNode, data: Dataset) -> np.ndarray:
    """Leaf id reached by every row of ``data``."""
    out = np.empty(data.n, dtype=np.int64)
    # children overwrite their parent's rows
    for node_id, idx in route_rows(tree, data, np.arange(data.n)).items():
        out[idx] = node_id
    return out


def predict_tree(tree: TreeNode, data: Dataset) -> np.ndarray:
    """Evaluate each row's leaf model at its regressor value."""
    reach = route_rows(tree, data, np.arange(data.n))
    out = np.empty(data.n, dtype=float)
    for node in iter_nodes(tree):
        if node.is_leaf:
            out[reach[node.id]] = predict(node.fit, data.x[reach[node.id]])
    return out


# ---------------------------------------------------------------------------
# serialization


def _node_to_dict(node: TreeNode) -> dict:
    payload: dict = {
        "id": node.id,
        "depth": node.depth,
        "n": node.n,
        "coefficients": {"intercept": node.fit.beta0, "slope": node.fit.beta1},
        "rss": node.fit.rss,
        "p_values": {k: float(v) for k, v in node.p_values.items()},
    }
    if node.split is None:
        payload["split"] = None
    elif node.split.point is not None:
        payload["split"] = {"variable": node.split.variable, "point": node.split.point}
    else:
        payload["split"] = {
            "variable": node.split.variable,
            "left_levels": list(node.split.left_levels or ()),
            "right_levels": list(node.split.right_levels or ()),
        }
    payload["children"] = [_node_to_dict(child) for child in node.children]
    return payload


# the settings keys the format gained after its first files, with the value older files imply
_ADDED_KEYS = {StrategyConfig: {"multiplicity": "bonferroni"}}


def _known(block, key: str, keys) -> dict:
    # block, the JSON object under key, refused if it holds a key the writer never writes there
    unknown = sorted(typed(block, dict, key).keys() - set(keys))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    return block


def _node_from_dict(payload) -> TreeNode:
    payload = _known(payload, "node", ("id", "depth", "n", "coefficients", "rss", "p_values",
                                       "split", "children"))

    def get(key: str, hint, block: dict = payload):
        return typed(block[key], hint, key)

    children = tuple(_node_from_dict(c) for c in get("children", list))
    raw = get("split", dict | None)
    if raw is None:
        split = None
    elif "point" in raw:
        _known(raw, "split", ("variable", "point"))
        split = Split(variable=get("variable", str, raw), point=get("point", float, raw))
    else:
        _known(raw, "split", ("variable", "left_levels", "right_levels"))
        left, right = (tuple(typed(level, str, key) for level in get(key, list, raw))
                       for key in ("left_levels", "right_levels"))
        split = Split(variable=get("variable", str, raw), left_levels=left, right_levels=right)
    coefficients = _known(payload["coefficients"], "coefficients", ("intercept", "slope"))
    fit = LinearFit(beta0=get("intercept", float, coefficients),
                    beta1=get("slope", float, coefficients), n=get("n", int), rss=get("rss", float))
    p_values = {k: typed(v, float, "p_values") for k, v in get("p_values", dict).items()}
    return TreeNode(id=get("id", int), depth=get("depth", int), fit=fit, p_values=p_values,
                    split=split, children=children)


def _schema_to_dict(schema: CsvSchema) -> dict:
    return {
        "response": schema.response,
        "regressor": schema.regressor,
        "splits": [{"name": n, "kind": k} for n, k in schema.splits],
    }


def _schema_from_dict(payload) -> CsvSchema:
    payload = _known(payload, "schema", ("response", "regressor", "splits"))
    splits = [_known(s, "splits", ("name", "kind")) for s in typed(payload["splits"], list, "splits")]
    return CsvSchema(payload["response"], payload["regressor"],
                     tuple((s["name"], s["kind"]) for s in splits))


def _settings_from_dict(cls: type, payload, key: str):
    names = [f.name for f in fields(cls)]
    block = {**_ADDED_KEYS.get(cls, {}), **_known(payload, key, names)}
    return cls(**{name: block[name] for name in names})


def tree_to_dict(
    tree: TreeNode, schema: CsvSchema, strategy: StrategyConfig, control: GrowControl
) -> dict:
    return {
        "format": TREE_FORMAT,
        "schema": _schema_to_dict(schema),
        "strategy": asdict(strategy),
        "control": asdict(control),
        "root": _node_to_dict(tree),
    }


def tree_from_dict(payload: dict) -> tuple[TreeNode, CsvSchema, StrategyConfig, GrowControl]:
    """Rebuild a tree and its settings; ``DataError`` unless the payload is a
    well-formed ``lmtrees-tree/1`` document: each key the writer writes
    present (older files may lack ``multiplicity``) and of its JSON type, no
    other key, each node a leaf or split in two, and no node id used twice."""
    if not isinstance(payload, dict):
        raise DataError(f"a tree file holds a JSON object, not {type(payload).__name__}")
    if payload.get("format") != TREE_FORMAT:
        raise DataError(f"unsupported tree format {payload.get('format')!r}")
    try:
        _known(payload, "tree file", ("format", "schema", "strategy", "control", "root"))
        loaded = (
            _node_from_dict(payload["root"]),
            _schema_from_dict(payload["schema"]),
            _settings_from_dict(StrategyConfig, payload["strategy"], "strategy"),
            _settings_from_dict(GrowControl, payload["control"], "control"),
        )
    except KeyError as exc:
        raise DataError(f"malformed tree file: missing key {exc.args[0]!r}") from None
    except (TypeError, AttributeError) as exc:
        raise DataError(f"malformed tree file: wrong type ({exc})") from None
    except ValueError as exc:
        raise DataError(f"malformed tree file: {exc}") from None
    ids = [node.id for node in iter_nodes(loaded[0])]  # route_rows keys its result by id
    if len(set(ids)) < len(ids):
        raise DataError(f"malformed tree file: node id {max(ids, key=ids.count)} is used twice")
    return loaded


def tree_to_json(
    tree: TreeNode, schema: CsvSchema, strategy: StrategyConfig, control: GrowControl
) -> str:
    return json.dumps(tree_to_dict(tree, schema, strategy, control), indent=2)


def tree_from_json(text: str) -> tuple[TreeNode, CsvSchema, StrategyConfig, GrowControl]:
    return tree_from_dict(json.loads(text))


def format_tree(tree: TreeNode) -> str:
    """Indented one-line-per-node summary for terminal output."""
    lines: list[str] = []
    for node in iter_nodes(tree):
        pad = "  " * node.depth
        model = f"y = {node.fit.beta0:.4g} + {node.fit.beta1:.4g} x"
        if node.split is None:
            tail = "leaf"
        else:
            p = node.p_values.get(node.split.variable)
            shown = "n/a" if p is None else f"{p:.3g}"
            if node.split.point is not None:
                tail = f"split {node.split.variable} <= {node.split.point:.6g} (p={shown})"
            else:
                tail = f"split {node.split.variable} in {list(node.split.left_levels or ())} (p={shown})"
        lines.append(f"{pad}[{node.id}] n={node.n} {model} | {tail}")
    return "\n".join(lines)
