"""Post-pruning: cost-complexity path, cross-validated choice, AIC/BIC."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lmtrees.dataset import CATEGORICAL, NUMERIC, CsvSchema, DataError, Dataset, RngStream
from lmtrees.dataset import SplitColumn
from lmtrees.inference import parse_strategy
from lmtrees.prune import PruneResult, _candidate_alphas, cost_complexity_path, cv_prune, ic_prune
from lmtrees.prune import prune_at
from lmtrees.tree import GrowControl, grow, iter_nodes, leaves, predict_tree, route_rows
from lmtrees.tree import tree_to_json

from helpers import all_pruned_costs, hand_node, null_data, stump_data


# -------------------------------------------------------- cost-complexity path


def _weakest_links(node):
    """The former path's step: the smallest per-split improvement rate
    over the internal nodes in preorder, with the ids within 1e-15 of it."""
    best = math.inf
    ids = set()
    for inner in iter_nodes(node):
        if inner.is_leaf:
            continue
        sub_rss = 0.0
        for leaf in leaves(inner):
            sub_rss += leaf.fit.rss
        g = (inner.fit.rss - sub_rss) / (len(leaves(inner)) - 1)
        if g < best - 1e-15:
            best = g
            ids = {inner.id}
        elif g <= best + 1e-15:
            ids.add(inner.id)
    return best, ids


def _collapse(node, ids):
    if node.id in ids:
        return replace(node, split=None, children=())
    if node.is_leaf:
        return node
    return replace(node, children=tuple(_collapse(c, ids) for c in node.children))


def former_path(tree):
    """The cost-complexity path as it was built before node arrays: the
    weakest links searched afresh and the tree copied at every step."""
    path = [(0.0, tree)]
    current = tree
    while not current.is_leaf:
        alpha, ids = _weakest_links(current)
        current = _collapse(current, ids)
        path.append((max(alpha, 0.0), current))
    return path


def _subtree_at(path, alpha):
    # take the path's collapses in order, stopping at the first knot above alpha
    k = 1
    while k < len(path) and path[k][0] <= alpha:
        k += 1
    return path[k - 1][1]


def test_path_of_hand_built_stump():
    stump = hand_node(0, 0, 40, 10.0, children=(hand_node(1, 1, 20, 3.0), hand_node(2, 1, 20, 2.0)))
    path = cost_complexity_path(stump)
    assert len(path) == 2
    assert path[0][0] == 0.0 and path[0][1] is stump
    # collapsing the root costs (10 - 5) rss for 1 split: knot at 5
    assert path[1][0] == pytest.approx(5.0)
    assert path[1][1].is_leaf


def test_path_of_hand_built_chain_collapses_weakest_first():
    inner = hand_node(1, 1, 20, 12.0, children=(hand_node(2, 2, 10, 2.0), hand_node(3, 2, 10, 3.0)))
    root = hand_node(0, 0, 40, 30.0, children=(inner, hand_node(4, 1, 20, 4.0)))
    path = cost_complexity_path(root)
    # g(inner) = (12-5)/1 = 7, g(root over 3 leaves) = (30-9)/2 = 10.5 -> inner first
    assert [alpha for alpha, _ in path] == pytest.approx([0.0, 7.0, 14.0])
    assert [len(leaves(t)) for _, t in path] == [3, 2, 1]
    # after the first collapse the root's rate is (30 - (12+4)) / 1 = 14
    assert path[1][1].children[0].is_leaf


def grown_forced_tree(seed=50):
    data = stump_data(seed=seed, n=300, delta=1.0)
    control = GrowControl(alpha=0.05, min_node_size=30, max_depth=3, prepruning=False)
    return grow(data, "ctree", control)


def test_path_subtrees_minimize_penalized_loss():
    tree = grown_forced_tree()
    assert not tree.is_leaf
    path = cost_complexity_path(tree)
    options = all_pruned_costs(tree)
    knots = [alpha for alpha, _ in path]
    for k, (alpha, subtree) in enumerate(path):
        rss = sum(leaf.fit.rss for leaf in leaves(subtree))
        count = len(leaves(subtree))
        # probe at the knot itself and inside the interval to the next knot
        probes = [alpha]
        if k + 1 < len(path):
            nxt = knots[k + 1]
            probes.append(alpha + 0.5 * (nxt - alpha))
        for a in probes:
            best = min(orss + a * ocount for orss, ocount in options)
            assert rss + a * count <= best + 1e-9 * max(1.0, best)
        # among minimizers at the knot, the path tree has the fewest leaves
        best_at_knot = min(orss + alpha * ocount for orss, ocount in options)
        minimal_counts = [
            ocount
            for orss, ocount in options
            if orss + alpha * ocount <= best_at_knot + 1e-9 * max(1.0, best_at_knot)
        ]
        assert count == min(minimal_counts)


def test_path_is_nested_with_nondecreasing_knots():
    tree = grown_forced_tree(seed=51)
    path = cost_complexity_path(tree)
    alphas = [alpha for alpha, _ in path]
    assert alphas[0] == 0.0
    assert all(a2 >= a1 for a1, a2 in zip(alphas, alphas[1:]))
    counts = [len(leaves(t)) for _, t in path]
    assert all(c2 < c1 for c1, c2 in zip(counts, counts[1:]))
    assert counts[-1] == 1
    ids = [set(n.id for n in iter_nodes(t)) for _, t in path]
    for smaller, larger in zip(ids[1:], ids):
        assert smaller <= larger


def test_prune_at_tracks_the_path():
    tree = grown_forced_tree(seed=52)
    path = cost_complexity_path(tree)
    for k, (alpha, subtree) in enumerate(path):
        nxt = path[k + 1][0] if k + 1 < len(path) else alpha + 1.0
        probe = alpha + 0.25 * (nxt - alpha) if nxt > alpha else alpha
        got = prune_at(tree, probe)
        assert {n.id for n in iter_nodes(got)} == {n.id for n in iter_nodes(subtree)}
    assert prune_at(tree, -1e-9) is tree or {n.id for n in iter_nodes(prune_at(tree, -1e-9))} == {
        n.id for n in iter_nodes(tree)
    }
    assert prune_at(tree, 1e12).is_leaf


def prune_by_repeated_search(tree, alpha):
    """Reference: search the weakest links afresh after every collapse."""
    current = tree
    while not current.is_leaf:
        g, ids = _weakest_links(current)
        if g > alpha:
            break
        current = _collapse(current, ids)
    return current


@pytest.mark.parametrize("name", ["ctree", "mob", "guide"])
@pytest.mark.parametrize("seed", [53, 54])
def test_prune_at_matches_repeated_search(name, seed):
    data = stump_data(seed=seed, n=300, delta=0.7)
    control = GrowControl(alpha=0.05, min_node_size=20, max_depth=4, prepruning=False)
    tree = grow(data, name, control)
    knots = [alpha for alpha, _ in cost_complexity_path(tree)]
    assert len(knots) >= 3
    probes = knots + [0.5 * (a + b) for a, b in zip(knots, knots[1:])] + [2.0 * knots[-1] + 1.0]
    for alpha in probes:
        got = {n.id for n in iter_nodes(prune_at(tree, alpha))}
        want = {n.id for n in iter_nodes(prune_by_repeated_search(tree, alpha))}
        assert got == want
    assert prune_at(tree, -1.0) is tree


def pair(nid, depth, rss):
    """An internal node over two leaves of rss 1: its rate is rss - 2."""
    return hand_node(nid, depth, 20, rss, children=(hand_node(nid + 1, depth + 1, 10, 1.0),
                                                hand_node(nid + 2, depth + 1, 10, 1.0)))


# rates that tie exactly or within 1e-15; 5 +- 1 ulp gives rates 3 +- 2 ulp
TIED_TREES = {
    # two sibling rates of 3 collapse at one step
    "siblings": hand_node(0, 0, 40, 100.0, children=(pair(1, 1, 5.0), pair(4, 1, 5.0))),
    # node 1's rate (10 - 4) / 2 = 3 ties with its descendant node 2
    "ancestor": hand_node(0, 0, 60, 100.0, children=(
        hand_node(1, 1, 40, 10.0, children=(pair(2, 2, 5.0), hand_node(5, 2, 10, 2.0))),
        hand_node(6, 1, 20, 10.0))),
    # in preorder 3 + 2 ulp, then 3 (its tie), then 3 - 2 ulp, which is
    # more than 1e-15 below the first and so drops both before it
    "within_1e-15": hand_node(0, 0, 60, 100.0, children=(
        hand_node(1, 1, 40, 50.0, children=(pair(2, 2, 5.000000000000001), pair(5, 2, 5.0))),
        pair(8, 1, 4.999999999999999))),
}
TIED_STEPS = {"siblings": 3, "ancestor": 3, "within_1e-15": 5}


def node_fields(tree, data=None):
    # with data, also each node's rows of it as route_rows gives them
    reach = {} if data is None else route_rows(tree, data, np.arange(data.n))
    return [(n.id, n.depth, n.n, n.fit, n.p_values, n.outcomes, n.split,
             [c.id for c in n.children], None if data is None else reach[n.id].tobytes())
            for n in iter_nodes(tree)]


def assert_same_path(tree, data=None):
    got, want = cost_complexity_path(tree), former_path(tree)
    knots = [alpha for alpha, _ in want]
    assert [float(a).hex() for a, _ in got] == [float(a).hex() for a in knots]
    assert got[0][1] is tree and prune_at(tree, -1.0) is tree
    for (_, new), (_, old) in zip(got, want):
        assert node_fields(new, data) == node_fields(old, data)
    probes = knots + [0.5 * (a + b) for a, b in zip(knots, knots[1:])] + [-1.0]
    for alpha in probes:
        assert node_fields(prune_at(tree, alpha), data) == node_fields(_subtree_at(want, alpha),
                                                                       data)


@pytest.mark.parametrize("name", sorted(TIED_TREES))
def test_path_on_node_arrays_equals_the_former_path_on_tied_rates(name):
    tree = TIED_TREES[name]
    # every tie is one step of the former path
    assert len(former_path(tree)) == TIED_STEPS[name]
    assert_same_path(tree)


@pytest.mark.parametrize("name", ["ctree", "mob", "guide", "guide+scores"])
def test_path_on_node_arrays_equals_the_former_path_on_grown_trees(name):
    data, _ = mixed_data(seed=17)
    control = GrowControl(alpha=0.5, min_node_size=8, max_depth=4, prepruning=False)
    tree = grow(data, name, control)
    assert len(leaves(tree)) >= 8
    assert_same_path(tree, data)
    for f in range(3):
        train = np.flatnonzero(np.arange(data.n) % 3 != f)
        assert_same_path(grow(data, name, control, rows=train), data)


# -------------------------------------------------------------- cross-validation


def test_cv_prune_keeps_strong_stump():
    data = stump_data(seed=60, n=300, delta=3.0)
    control = GrowControl(alpha=0.05, min_node_size=30, max_depth=3)
    res = cv_prune(data, parse_strategy("mob"), control, folds=5, seed=1)
    assert isinstance(res, PruneResult)
    assert res.method == "cc"
    assert len(leaves(res.tree)) >= 2
    assert res.tree.split.variable == "z1"


def test_cv_prune_mostly_returns_root_under_the_null():
    control = GrowControl(alpha=0.05, min_node_size=25, max_depth=3)
    strategy = parse_strategy("ctree")
    reps = 40
    root_plain = root_one_se = 0
    for rep in range(reps):
        data = null_data(2000 + rep, n=120)
        plain = cv_prune(data, strategy, control, folds=5, seed=rep)
        conservative = cv_prune(data, strategy, control, folds=5, seed=rep, one_se=True)
        root_plain += len(leaves(plain.tree)) == 1
        root_one_se += len(leaves(conservative.tree)) == 1
    assert root_plain / reps >= 0.5
    assert root_one_se / reps >= 0.85
    assert root_one_se >= root_plain  # the one-SE rule never prunes less


def test_cv_prune_is_deterministic_given_seed():
    data = stump_data(seed=61, n=240, delta=1.0)
    control = GrowControl(alpha=0.05, min_node_size=25, max_depth=3)
    strategy = parse_strategy("ctree")
    a = cv_prune(data, strategy, control, folds=5, seed=7)
    b = cv_prune(data, strategy, control, folds=5, seed=7)
    assert a.chosen_alpha == b.chosen_alpha
    assert a.alpha_path == b.alpha_path
    assert {n.id for n in iter_nodes(a.tree)} == {n.id for n in iter_nodes(b.tree)}


def test_cv_prune_result_invariants():
    data = stump_data(seed=62, n=300, delta=1.5)
    control = GrowControl(alpha=0.05, min_node_size=30, max_depth=3)
    strategy = parse_strategy("mob")
    res = cv_prune(data, strategy, control, folds=5, seed=3)
    alphas = [row[0] for row in res.alpha_path]
    counts = [row[1] for row in res.alpha_path]
    losses = [row[2] for row in res.alpha_path]
    assert alphas[0] == 0.0
    assert all(a2 >= a1 for a1, a2 in zip(alphas, alphas[1:]))
    assert all(c2 < c1 for c1, c2 in zip(counts, counts[1:]))
    assert counts[-1] == 1
    assert all(isinstance(l, float) and l >= 0.0 for l in losses)
    assert res.chosen_alpha is not None and res.chosen_alpha >= 0.0
    # the returned tree is what pruning the (deterministic) main tree gives
    main = grow(data, strategy, replace(control, prepruning=False))
    expect = prune_at(main, res.chosen_alpha)
    assert {n.id for n in iter_nodes(res.tree)} == {n.id for n in iter_nodes(expect)}


def former_cv_prune(data, strategy, control, folds=10, seed=0, one_se=False):
    """The fold loop before fold trees grew on index sets, on the former
    path: each fold's training rows are copied (``Dataset.take``) and
    grown as their own data, and its held-out rows scored as a copy too."""
    control = replace(control, prepruning=False)
    path = former_path(grow(data, strategy, control))
    knots = [alpha for alpha, _ in path]
    candidates = _candidate_alphas(knots)
    fold_ids = np.empty(data.n, dtype=np.int64)
    fold_ids[RngStream(seed, 0).permutation(data.n)] = np.arange(data.n) % folds
    sq_err, held_out, fold_means = np.zeros(len(candidates)), 0, []
    for f in range(folds):
        train, test = np.flatnonzero(fold_ids != f), np.flatnonzero(fold_ids == f)
        if test.size == 0:
            continue
        try:
            fold_path = former_path(grow(data.take(train), strategy, control))
        except ValueError as exc:
            warnings.warn(f"fold {f} skipped: {exc}")
            continue
        test_data = data.take(test)
        fold_err = np.empty(len(candidates))
        for c, alpha in enumerate(candidates):
            resid = test_data.y - predict_tree(_subtree_at(fold_path, alpha), test_data)
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
        threshold += float(stacked[:, best_idx].std(ddof=1)) / math.sqrt(stacked.shape[0])
    chosen_idx = best_idx
    for c in range(len(candidates)):
        if mean_loss[c] <= threshold and candidates[c] >= candidates[chosen_idx]:
            chosen_idx = c
    alpha_path = tuple((knots[k], len(leaves(path[k][1])), float(mean_loss[k]))
                       for k in range(len(path)))
    return PruneResult(tree=_subtree_at(path, candidates[chosen_idx]), method="cc",
                       chosen_alpha=float(candidates[chosen_idx]), alpha_path=alpha_path)


def mixed_data(seed, n=240):
    """Tied numeric columns, a smooth one and a categorical column whose
    rare level, held by one row, is missing from one training fold."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    tied = rng.integers(0, 4, n).astype(float)
    codes = rng.integers(0, 2, n)
    codes[0] = 2
    y = np.where(tied >= 2, 1.0, -1.0) * x + (codes == 1) + 0.5 * rng.normal(size=n)
    z = (
        SplitColumn("tied", NUMERIC, tied),
        SplitColumn("coarse", NUMERIC, np.round(rng.normal(size=n), 1)),
        SplitColumn("region", CATEGORICAL, codes, levels=("a", "b", "rare")),
        SplitColumn("smooth", NUMERIC, rng.uniform(-1, 1, n)),
    )
    return Dataset(y, x, z), CsvSchema("y", "x", tuple((c.name, c.kind) for c in z))


@pytest.mark.parametrize("name", ["ctree", "mob", "guide", "guide+scores", "mob+dich"])
@pytest.mark.parametrize("one_se", [False, True])
def test_cv_prune_on_index_sets_equals_the_fold_copies(name, one_se):
    data, schema = mixed_data(seed=17)
    strategy = parse_strategy(name)
    control = GrowControl(alpha=0.5, min_node_size=8, max_depth=4)
    folds, seed = 6, 5
    fold_ids = np.empty(data.n, dtype=np.int64)
    fold_ids[RngStream(seed, 0).permutation(data.n)] = np.arange(data.n) % folds
    rare = data.column("region").values == 2
    # the rare level is absent from some training folds, present in others
    assert {bool(rare[fold_ids != f].any()) for f in range(folds)} == {False, True}
    got = cv_prune(data, strategy, control, folds=folds, seed=seed, one_se=one_se)
    want = former_cv_prune(data, strategy, control, folds=folds, seed=seed, one_se=one_se)
    assert [row[0] for row in got.alpha_path] == [row[0] for row in want.alpha_path]
    assert got.alpha_path == want.alpha_path
    # equal bits: the knot table prints repr
    assert repr(got.alpha_path) == repr(want.alpha_path)
    assert got.chosen_alpha == want.chosen_alpha
    assert tree_to_json(got.tree, schema, strategy, control) == tree_to_json(
        want.tree, schema, strategy, control)


def test_data_without_split_columns_grows_and_prunes_to_one_leaf():
    rng = np.random.default_rng(5)
    data = Dataset(rng.normal(size=120), rng.uniform(-1, 1, 120), ())
    assert data.columns.values.shape == (0, 120) and data.columns.orders.shape == (0, 120)
    control = GrowControl(alpha=1.0, min_node_size=10, prepruning=False)
    assert len(leaves(grow(data, "mob", control))) == 1
    assert len(leaves(grow(data, "mob", control, rows=np.arange(0, 120, 2)))) == 1
    res = cv_prune(data, parse_strategy("ctree"), control, folds=5, seed=1)
    assert len(leaves(res.tree)) == 1 and len(res.alpha_path) == 1


def test_cv_prune_validates_folds():
    data = stump_data(seed=63, n=120)
    with pytest.raises(ValueError):
        cv_prune(data, parse_strategy("ctree"), GrowControl(), folds=1)


def test_cv_prune_skips_a_fold_whose_tree_cannot_grow():
    # x is 0 but on row 7, so the fold that holds row 7 out (fold 9 at seed 0)
    # trains on a constant regressor
    rng = np.random.default_rng(0)
    x = np.zeros(30)
    x[7] = 1.0
    data = Dataset(rng.normal(size=30), x, (SplitColumn("z", NUMERIC, rng.normal(size=30)),))
    with pytest.warns(UserWarning, match="fold 9 skipped: regressor is constant within the node"):
        res = cv_prune(data, parse_strategy("ctree"), GrowControl(), folds=10, seed=0)
    assert len(leaves(res.tree)) == 1


def test_cv_prune_needs_more_than_half_the_folds():
    # five rows leave folds 5 to 9 empty; they are skipped without a warning
    rng = np.random.default_rng(1)
    data = Dataset(rng.normal(size=5), rng.uniform(-1, 1, 5), ())
    with pytest.raises(DataError, match="only 5 of 10 folds usable"):
        cv_prune(data, parse_strategy("ctree"), GrowControl(), folds=10, seed=0)


# -------------------------------------------------------------------- AIC / BIC


def neg2ll(rss, n):
    return n * (math.log(2.0 * math.pi * rss / n) + 1.0)


def test_ic_prune_hand_stump_keep_and_collapse():
    # split kept: subtree fits much better than the pooled leaf
    good = hand_node(0, 0, 40, 40.0, children=(hand_node(1, 1, 20, 5.0), hand_node(2, 1, 20, 5.0)))
    kept = ic_prune(good, criterion="aic")
    assert not kept.tree.is_leaf
    want = neg2ll(5.0, 20) * 2 + 2.0 * (3 * 2 + 1)
    assert kept.score == pytest.approx(want)
    assert kept.method == "aic"

    # split dropped: children fit exactly as poorly as the pooled leaf
    flat = hand_node(0, 0, 40, 40.0,
                     children=(hand_node(1, 1, 20, 20.0), hand_node(2, 1, 20, 20.0)))
    dropped = ic_prune(flat, criterion="aic")
    assert dropped.tree.is_leaf
    assert dropped.score == pytest.approx(neg2ll(40.0, 40) + 2.0 * 3)


def test_ic_prune_threshold_matches_hand_arithmetic():
    # keep the split exactly when neg2ll(children) + 2*(6+1) < neg2ll(root) + 2*3
    root_rss, n = 40.0, 40
    bound = neg2ll(root_rss, n) - 8.0  # subtree neg2ll must beat this
    # child rss r on each side: subtree neg2ll = 2 * neg2ll(r, 20); solve near the edge
    r_keep, r_drop = 14.0, 17.0
    assert 2 * neg2ll(r_keep, 20) + 14.0 < neg2ll(root_rss, n) + 6.0
    assert 2 * neg2ll(r_drop, 20) + 14.0 > neg2ll(root_rss, n) + 6.0
    keep = hand_node(0, 0, n, root_rss,
                     children=(hand_node(1, 1, 20, r_keep), hand_node(2, 1, 20, r_keep)))
    drop = hand_node(0, 0, n, root_rss,
                     children=(hand_node(1, 1, 20, r_drop), hand_node(2, 1, 20, r_drop)))
    assert not ic_prune(keep, "aic").tree.is_leaf
    assert ic_prune(drop, "aic").tree.is_leaf
    assert bound == pytest.approx(neg2ll(root_rss, n) - 8.0)


def test_ic_prune_zero_rss_split_is_retained():
    exact = hand_node(0, 0, 40, 25.0, children=(hand_node(1, 1, 20, 0.0), hand_node(2, 1, 20, 0.0)))
    res = ic_prune(exact, "aic")
    assert not res.tree.is_leaf
    assert res.score == -math.inf


def test_bic_prunes_at_least_as_hard_as_aic():
    data = stump_data(seed=70, n=400, delta=0.8)
    control = GrowControl(alpha=0.05, min_node_size=30, max_depth=4, prepruning=False)
    tree = grow(data, "ctree", control)
    aic = ic_prune(tree, "aic")
    bic = ic_prune(tree, "bic")
    assert bic.method == "bic"
    assert len(leaves(bic.tree)) <= len(leaves(aic.tree))
    # both results are genuine subtrees of the input
    full_ids = {n.id for n in iter_nodes(tree)}
    for res in (aic, bic):
        assert {n.id for n in iter_nodes(res.tree)} <= full_ids
        assert res.chosen_alpha is None


def test_ic_prune_is_idempotent_and_validates_criterion():
    tree = grown_forced_tree(seed=71)
    once = ic_prune(tree, "aic")
    twice = ic_prune(once.tree, "aic")
    assert {n.id for n in iter_nodes(twice.tree)} == {n.id for n in iter_nodes(once.tree)}
    assert twice.score == pytest.approx(once.score)
    with pytest.raises(ValueError):
        ic_prune(tree, "aicc")
