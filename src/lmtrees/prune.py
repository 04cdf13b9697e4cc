"""Post-pruning of grown trees.

Two routes: weakest-link cost-complexity pruning tuned by k-fold
cross-validation, and bottom-up information-criterion pruning on the
per-leaf Gaussian profile likelihood.  Both consume trees grown without
prepruning and only ever collapse internal nodes, so the result is a
subtree of the input.

The weakest-link search runs only in ``cost_complexity_path``, once per
tree.  That one path feeds the knot table, ``prune_at`` and the
cross-validated scoring: a subtree for a given complexity parameter is
read off the path, never searched for again.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dataset import DataError, Dataset, RngStream
from .inference import StrategyConfig
from .linmod import predict
from .tree import GrowControl, TreeNode, grow, iter_nodes, leaves, route_rows

__all__ = [
    "PruneResult",
    "cost_complexity_path",
    "prune_at",
    "cv_prune",
    "ic_prune",
]


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


def _subtree_cost(node: TreeNode) -> tuple[float, int]:
    rss = 0.0
    count = 0
    for leaf in leaves(node):
        rss += leaf.fit.rss
        count += 1
    return rss, count


def _weakest_links(node: TreeNode) -> tuple[float, set[int]]:
    """Smallest per-split improvement rate and the node ids attaining it."""
    best = math.inf
    ids: set[int] = set()
    for inner in iter_nodes(node):
        if inner.is_leaf:
            continue
        sub_rss, sub_leaves = _subtree_cost(inner)
        g = (inner.fit.rss - sub_rss) / (sub_leaves - 1)
        if g < best - 1e-15:
            best = g
            ids = {inner.id}
        elif g <= best + 1e-15:
            ids.add(inner.id)
    return best, ids


def _collapse(node: TreeNode, ids: set[int]) -> TreeNode:
    if node.id in ids:
        return _as_leaf(node)
    if node.is_leaf:
        return node
    return replace(node, children=tuple(_collapse(c, ids) for c in node.children))


def cost_complexity_path(tree: TreeNode) -> list[tuple[float, TreeNode]]:
    """Nested sequence of subtrees from the full tree down to the root.

    Entry ``k`` holds the complexity parameter at which subtree ``k``
    becomes optimal; the first entry is ``(0.0, full tree)``.  At each
    step every internal node minimizing the per-split improvement rate

        g(t) = (rss(t) - rss(subtree under t)) / (leaves under t - 1)

    is collapsed, so parameters are nondecreasing along the path.
    """
    path = [(0.0, tree)]
    current = tree
    while not current.is_leaf:
        alpha, ids = _weakest_links(current)
        current = _collapse(current, ids)
        path.append((max(alpha, 0.0), current))
    return path


def _subtree_at(path: list[tuple[float, TreeNode]], alpha: float) -> TreeNode:
    # take the path's collapses in order, stopping at the first knot above alpha
    k = 1
    while k < len(path) and path[k][0] <= alpha:
        k += 1
    return path[k - 1][1]


def prune_at(tree: TreeNode, alpha: float) -> TreeNode:
    """Subtree of ``tree`` on its cost-complexity path at parameter ``alpha``.

    Every collapse whose knot is <= ``alpha`` is applied, in path order,
    up to the first knot above it.  Knots are never negative, so a
    negative ``alpha`` returns the full tree.
    """
    return _subtree_at(cost_complexity_path(tree), alpha)


def _candidate_alphas(knots: list[float]) -> list[float]:
    # one evaluation point per path subtree: zero, geometric midpoints
    # of consecutive positive knots, then the last knot itself
    if len(knots) == 1:
        return [0.0]
    mids = [0.0]
    for k in range(1, len(knots) - 1):
        mids.append(math.sqrt(knots[k] * knots[k + 1]))
    mids.append(knots[-1])
    return mids


def cv_prune(
    data: Dataset,
    strategy: StrategyConfig,
    control: GrowControl,
    folds: int = 10,
    seed: int = 0,
    one_se: bool = False,
) -> PruneResult:
    """Cost-complexity pruning tuned by k-fold cross-validation.

    The main tree is grown without prepruning, its path knots define
    one candidate parameter per subtree, and each candidate is scored
    by held-out squared prediction error of the correspondingly pruned
    fold trees, each grown on its training rows of ``data`` as an index
    set that shares the presort of ``data``, with its held-out rows routed
    through it once.  Each tree grown here gets one cost-complexity path,
    from which every candidate subtree and the returned tree are read.
    The smallest mean loss wins; with ``one_se`` the simplest tree
    within one standard error of that minimum wins.  Folds whose tree
    cannot be grown are skipped with a warning; more than half must
    survive.
    """
    if folds < 2:
        raise ValueError("need at least two folds")
    control = replace(control, prepruning=False)
    main = grow(data, strategy, control)
    path = cost_complexity_path(main)
    knots = [alpha for alpha, _ in path]
    candidates = _candidate_alphas(knots)
    n = data.n
    perm = RngStream(seed, 0).permutation(n)
    fold_ids = np.empty(n, dtype=np.int64)
    fold_ids[perm] = np.arange(n) % folds
    sq_err = np.zeros(len(candidates))
    held_out = 0
    fold_means = []
    for f in range(folds):
        train = np.flatnonzero(fold_ids != f)
        test = np.flatnonzero(fold_ids == f)
        if test.size == 0:
            continue
        try:
            fold_tree = grow(data, strategy, control, rows=train)
        except ValueError as exc:
            warnings.warn(f"fold {f} skipped: {exc}")
            continue
        fold_path = cost_complexity_path(fold_tree)
        # a held-out row reaches each node of a candidate subtree as it
        # reaches that node in the fold tree
        reach = route_rows(fold_tree, data, test)
        fold_err = np.empty(len(candidates))
        pred = np.empty(n)
        for c, alpha in enumerate(candidates):
            for leaf in leaves(_subtree_at(fold_path, alpha)):
                pred[reach[leaf.id]] = predict(leaf.fit, data.x[reach[leaf.id]])
            resid = data.y[test] - pred[test]
            fold_err[c] = float(resid @ resid)
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
        se = float(stacked[:, best_idx].std(ddof=1)) / math.sqrt(stacked.shape[0])
        threshold = mean_loss[best_idx] + se
    chosen_idx = best_idx
    for c in range(len(candidates)):
        if mean_loss[c] <= threshold and candidates[c] >= candidates[chosen_idx]:
            chosen_idx = c
    chosen_alpha = candidates[chosen_idx]
    pruned = _subtree_at(path, chosen_alpha)
    alpha_path = tuple(
        (knots[k], len(leaves(path[k][1])), float(mean_loss[k])) for k in range(len(path))
    )
    return PruneResult(
        tree=pruned, method="cc", chosen_alpha=float(chosen_alpha), alpha_path=alpha_path
    )


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
        rebuilt = []
        sub_neg2ll = 0.0
        sub_leaves = 0
        sub_splits = 1
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
