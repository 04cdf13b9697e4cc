"""Post-pruning of grown trees.

Two routes: weakest-link cost-complexity pruning tuned by k-fold
cross-validation, and bottom-up information-criterion pruning on the
per-leaf Gaussian profile likelihood.  Both consume trees grown without
prepruning and only ever collapse internal nodes, so the result is a
subtree of the input.

The weakest-link search runs once per tree, on its preorder node arrays
(``_Path``).  That one pass feeds the knot table, ``prune_at`` and the
cross-validated scoring; a subtree is built only when one is asked for.
"""

from __future__ import annotations

import itertools
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .dataset import DataError, Dataset, RngStream
from .inference import StrategyConfig
from .linmod import predict
from .tree import GrowControl, TreeNode, _NodeCache, grow, iter_nodes, route_rows

__all__ = ["PruneResult", "cost_complexity_path", "prune_at", "cv_prune", "ic_prune"]


@dataclass(frozen=True)
class PruneResult:
    """Pruned tree plus the evidence behind the choice.

    ``alpha_path`` rows are ``(alpha, leaf_count, cv_loss)`` per
    cost-complexity knot; cv_loss is ``None`` for criterion pruning.
    """

    tree: TreeNode
    method: str
    chosen_alpha: float | None = None
    alpha_path: tuple[tuple[float, int, float | None], ...] = ()
    score: float | None = None


def _as_leaf(node: TreeNode) -> TreeNode:
    return replace(node, split=None, children=())


class _Path:
    """The cost-complexity path of a tree, from one weakest-link pass.

    ``nodes`` is the tree in preorder, ``nodes[i + 1:end[i]]`` are node
    ``i``'s descendants, and it is a leaf of path subtree ``k >= step[i]``,
    optimal from ``knots[k]`` on.  A step collapses the internal nodes whose
    rate ties with the running minimum within 1e-15, in preorder; a rate
    sums the current leaves' rss as a left fold from 0.0 in preorder.
    """

    def __init__(self, tree: TreeNode) -> None:
        self.nodes = nodes = list(iter_nodes(tree))
        m = len(nodes)
        self.end = end = [0] * m
        for i in reversed(range(m)):  # each child's range starts where the one before ends
            end[i] = i + 1
            for _ in nodes[i].children:
                end[i] = end[end[i]]
        self.step = step = [0 if node.is_leaf else m for node in nodes]
        rss = [node.fit.rss for node in nodes]

        def rate(i: int) -> float:
            below = self.leaves(m - 1, i)  # collapsed nodes have steps below m
            total = 0.0
            for j in below:
                total += rss[j]
            return (rss[i] - total) / (len(below) - 1)

        rates = {i: rate(i) for i in range(m) if step[i] == m}  # the internal nodes, in preorder
        self.knots = [0.0]
        while rates:
            best, ids = math.inf, []
            for i, g in rates.items():
                if g < best - 1e-15:
                    best, ids = g, [i]
                elif g <= best + 1e-15:
                    ids.append(i)
            for j in (j for i in ids for j in range(i, end[i]) if j in rates):
                del rates[j]
                step[j] = len(self.knots)
            for i in rates:  # only the rates above a collapse change
                if any(i < j < end[i] for j in ids):
                    rates[i] = rate(i)
            self.knots.append(max(best, 0.0))

    def at(self, alpha: float) -> int:
        # the step before the first knot above alpha, found on the knots' running
        # maximum: the knots themselves unless rounding ever lets one fall
        return bisect_right(list(itertools.accumulate(self.knots, max)), alpha, 1) - 1

    def leaves(self, k: int, i: int = 0) -> list[int]:
        """Positions of the leaves of subtree ``k`` at or below node ``i``."""
        out, stop = [], self.end[i]
        while i < stop:
            if self.step[i] <= k:
                out.append(i)
                i = self.end[i]
            else:
                i += 1
        return out

    def subtree(self, k: int) -> TreeNode:
        """Subtree ``k`` as nodes; subtree 0 is the tree itself."""
        position = {id(node): i for i, node in enumerate(self.nodes)}

        def build(node: TreeNode) -> TreeNode:
            if self.step[position[id(node)]] <= k:
                return node if node.is_leaf else _as_leaf(node)
            return replace(node, children=tuple(map(build, node.children)))

        return self.nodes[0] if k == 0 else build(self.nodes[0])


def cost_complexity_path(tree: TreeNode) -> list[tuple[float, TreeNode]]:
    """Nested sequence of subtrees from the full tree down to the root.

    Entry ``k`` holds the complexity parameter at which subtree ``k``
    becomes optimal; the first entry is ``(0.0, tree)``.  At each step
    every internal node minimizing the per-split improvement rate

        g(t) = (rss(t) - rss(subtree under t)) / (leaves under t - 1)

    is collapsed, so parameters are nondecreasing along the path.
    """
    path = _Path(tree)
    return [(alpha, path.subtree(k)) for k, alpha in enumerate(path.knots)]


def prune_at(tree: TreeNode, alpha: float) -> TreeNode:
    """Subtree of ``tree`` on its cost-complexity path at parameter ``alpha``.

    Every collapse whose knot is <= ``alpha`` is applied, in path order,
    up to the first knot above it.  Knots are never negative, so a
    negative ``alpha`` returns the full tree.
    """
    path = _Path(tree)
    return path.subtree(path.at(alpha))


def _candidate_alphas(knots: list[float]) -> list[float]:
    # one evaluation point per path subtree: zero, geometric midpoints
    # of consecutive positive knots, then the last knot itself
    mids = [math.sqrt(a * b) for a, b in zip(knots[1:-1], knots[2:])]
    return [0.0] + mids + knots[-1:] if len(knots) > 1 else [0.0]


def _simplest_within(candidates: list[float], loss: np.ndarray, threshold: float, best: int) -> int:
    # the largest candidate (simplest tree) of loss within threshold, or best; ties go last
    return max((a, c) for c, a in enumerate(candidates) if c == best or loss[c] <= threshold)[1]


def cv_prune(data: Dataset, strategy: StrategyConfig, control: GrowControl, folds: int = 10,
             seed: int = 0, one_se: bool = False, *,
             _cache: _NodeCache | None = None) -> PruneResult:
    """Cost-complexity pruning tuned by k-fold cross-validation.

    The main tree is grown without prepruning and its path knots define
    one candidate parameter per subtree.  A candidate scores the held-out
    squared prediction error of the fold trees pruned at it; each fold
    tree grows on its training rows of ``data`` as an index set sharing
    the presort of ``data``, and its held-out rows are routed through it
    once and predicted at most once per node.  The smallest mean loss
    wins; with ``one_se`` the simplest tree within one standard error of
    that minimum wins.  Folds whose tree cannot be grown are skipped with
    a warning; more than half must survive.
    """
    if folds < 2:
        raise ValueError("need at least two folds")
    control = replace(control, prepruning=False)
    path = _Path(grow(data, strategy, control, _cache=_cache))
    candidates = _candidate_alphas(path.knots)
    fold_ids = np.empty(data.n, dtype=np.int64)
    fold_ids[RngStream(seed, 0).permutation(data.n)] = np.arange(data.n) % folds
    sq_err, held_out, fold_means = np.zeros(len(candidates)), 0, []
    for f in range(folds):
        train, test = np.flatnonzero(fold_ids != f), np.flatnonzero(fold_ids == f)
        if test.size == 0:
            continue
        try:
            fold_tree = grow(data, strategy, control, rows=train, _cache=_cache)
        except ValueError as exc:
            warnings.warn(f"fold {f} skipped: {exc}")
            continue
        fold_path = _Path(fold_tree)
        # a held-out row reaches each node of a candidate subtree as it
        # reaches that node in the fold tree
        reach = route_rows(fold_tree, data, test)
        steps = [fold_path.at(alpha) for alpha in candidates]
        node_pred, step_err, pred = {}, {}, np.empty(data.n)
        for k in dict.fromkeys(steps):
            for leaf in (fold_path.nodes[i] for i in fold_path.leaves(k)):
                if leaf.id not in node_pred:
                    node_pred[leaf.id] = predict(leaf.fit, data.x[reach[leaf.id]])
                pred[reach[leaf.id]] = node_pred[leaf.id]
            resid = data.y[test] - pred[test]
            step_err[k] = float(resid @ resid)
        fold_err = np.array([step_err[k] for k in steps])
        sq_err += fold_err
        held_out += test.size
        fold_means.append(fold_err / test.size)
    if len(fold_means) <= folds // 2:
        raise DataError(f"only {len(fold_means)} of {folds} folds usable")
    mean_loss = sq_err / held_out
    best_idx = int(np.argmin(mean_loss))
    threshold = mean_loss[best_idx]
    if one_se and len(fold_means) > 1:
        stacked = np.vstack(fold_means)
        threshold += float(stacked[:, best_idx].std(ddof=1)) / math.sqrt(stacked.shape[0])
    chosen_alpha = candidates[_simplest_within(candidates, mean_loss, threshold, best_idx)]
    sizes = [len(path.leaves(k)) for k in range(len(path.knots))]
    alpha_path = tuple(zip(path.knots, sizes, mean_loss.tolist()))
    return PruneResult(tree=path.subtree(path.at(chosen_alpha)), method="cc",
                       chosen_alpha=float(chosen_alpha), alpha_path=alpha_path)


def _neg2_profile_loglik(rss: float, n: int) -> float:
    # Gaussian per-leaf likelihood profiled over the error variance
    if rss <= 0.0:
        return -math.inf
    return n * (math.log(2.0 * math.pi * rss / n) + 1.0)


def ic_prune(tree: TreeNode, criterion: str = "aic", split_df: int = 1) -> PruneResult:
    """Bottom-up pruning by AIC or BIC.

    Each leaf spends three parameters (intercept, slope, variance) and
    each retained split ``split_df`` more.  An internal node keeps its
    subtree only when the subtree criterion strictly beats the collapsed
    leaf; ties collapse.  A negative ``split_df`` raises ``ValueError``.
    """
    if split_df < 0:
        raise ValueError(f"split_df must be non-negative, got {split_df}")
    criterion = criterion.lower()
    if criterion not in ("aic", "bic"):
        raise ValueError(f"unknown criterion {criterion!r}")
    penalty = 2.0 if criterion == "aic" else math.log(tree.n)

    def visit(node: TreeNode) -> tuple[TreeNode, float, int, int]:
        leaf_neg2ll = _neg2_profile_loglik(node.fit.rss, node.n)
        if node.is_leaf:
            return node, leaf_neg2ll, 1, 0
        rebuilt, sub_neg2ll, sub_leaves, sub_splits = [], 0.0, 0, 1
        for child in node.children:
            pruned_child, child_neg2ll, child_leaves, child_splits = visit(child)
            rebuilt.append(pruned_child)
            sub_neg2ll += child_neg2ll
            sub_leaves += child_leaves
            sub_splits += child_splits
        crit_sub = sub_neg2ll + penalty * (3 * sub_leaves + split_df * sub_splits)
        crit_leaf = leaf_neg2ll + penalty * 3
        if crit_leaf <= crit_sub:
            return _as_leaf(node), leaf_neg2ll, 1, 0
        return replace(node, children=tuple(rebuilt)), sub_neg2ll, sub_leaves, sub_splits

    pruned, neg2ll, leaf_count, split_count = visit(tree)
    score = neg2ll + penalty * (3 * leaf_count + split_df * split_count)
    return PruneResult(tree=pruned, method=criterion, score=score)
