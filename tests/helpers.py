"""Builders and reference functions shared by the test modules."""

import itertools
import math

import numpy as np

from lmtrees.dataset import NUMERIC, Dataset, SplitColumn
from lmtrees import inference
from lmtrees.inference import NULL_TABLE_GRID, parse_strategy, run_strategy
from lmtrees.linmod import LinearFit, fit_ols
from lmtrees.special import _gamma_p_series, _gamma_q_contfrac
from lmtrees.transform import eig_pinv_parts, make_gof
from lmtrees.tree import Split, TreeNode, iter_nodes, route_rows


def stable_orders(values):
    """Each row's stable sort, as the presort of ``ColumnMatrix``."""
    return np.argsort(values, axis=1, kind="stable")


def dense_trim_max(cache, k):
    """The (paths, grid / 2) float32 running maxima of ``cache``'s null
    paths for ``k``, read back one trimming at a time by the column read
    that ``table`` sorts."""
    half = NULL_TABLE_GRID // 2
    out = np.empty((cache.column(k, 1).size, half), dtype=np.float32)
    for trim in range(1, half + 1):
        out[:, trim - 1] = cache.column(k, trim)
    return out


def float64_table_pvalue(statistic, k, trim_index):
    """``suplm_pvalue`` at trimming ``trim_index``, read off the float32
    null column sorted as float64, as the cache once kept it."""
    table = np.sort(inference._NULL_TABLES.column(k, trim_index).astype(float))
    return (table.size - np.searchsorted(table, statistic, side="left")) / table.size


def masked_quad_form(statistic, mean, covariance):
    """``quad_form_test``'s statistics and df with the kept eigenpairs read
    by boolean mask, one copy of each per stack entry, as the engine once
    read them."""
    d = statistic - mean
    eigval, eigvec, keep = eig_pinv_parts(covariance)
    stat = np.zeros(d.shape[0])
    for j in np.flatnonzero(keep.any(axis=-1)):
        proj = eigvec[j][:, keep[j]].T @ d[j]
        stat[j] = proj @ (proj / eigval[j][keep[j]])
    return stat, keep.sum(axis=-1)


def rank_deficient_covariances(rng, g, m):
    """(g, m, m) symmetric positive semi-definite matrices, each of a rank
    drawn from 0 to m and a scale from 1e-4 to 1e4."""
    factors = rng.normal(size=(g, m, m)) * 10.0 ** rng.integers(-4, 5, (g, 1, 1))
    factors *= np.arange(m) < rng.integers(0, m + 1, (g, 1, 1))
    return factors @ np.swapaxes(factors, -1, -2)


def groups_by_row(groups):
    """Each row's arrays of ``design_groups``' output, as bytes and shapes."""
    return {row: [(a[i].shape, a[i].tobytes()) for a in arrays]
            for rows, *arrays in groups for i, row in enumerate(rows.tolist())}


def ncol(values, name="z1"):
    return SplitColumn(name, NUMERIC, np.asarray(values, dtype=float))


def null_data(seed, n):
    """Two numeric split columns that carry no signal for ``y``."""
    rng = np.random.default_rng(seed)
    cols = (
        SplitColumn("z1", NUMERIC, rng.uniform(-1, 1, n)),
        SplitColumn("z2", NUMERIC, rng.normal(size=n)),
    )
    return Dataset(rng.normal(size=n), rng.uniform(-1, 1, n), cols)


def stump_data(seed=0, n=400, delta=2.0):
    rng = np.random.default_rng(seed)
    z1 = rng.uniform(-1, 1, n)
    x = rng.uniform(-1, 1, n)
    y = 1.0 + delta * (z1 > 0.0) + x + 0.3 * rng.normal(size=n)
    cols = (
        SplitColumn("z1", NUMERIC, z1),
        SplitColumn("z2", NUMERIC, rng.uniform(-1, 1, n)),
        SplitColumn("z3", NUMERIC, rng.normal(size=n)),
    )
    return Dataset(y, x, cols)


def strat_list(*names):
    return [(name, parse_strategy(name)) for name in names]


def hand_node(nid, depth, n, rss, children=(), variable="z1"):
    """A node of ``n`` rows and residual sum of squares ``rss``, split on
    ``variable`` at 0 when it has children."""
    split = Split(variable=variable, point=0.0) if children else None
    return TreeNode(
        id=nid,
        depth=depth,
        fit=LinearFit(beta0=0.0, beta1=0.0, n=n, rss=rss),
        p_values={},
        split=split,
        children=tuple(children),
    )


def all_pruned_costs(tree):
    """Every (rss, leaf_count) achievable by collapsing internal nodes."""
    if tree.is_leaf:
        return [(tree.fit.rss, 1)]
    options = [(tree.fit.rss, 1)]
    for lrss, lcount in all_pruned_costs(tree.children[0]):
        for rrss, rcount in all_pruned_costs(tree.children[1]):
            options.append((lrss + rrss, lcount + rcount))
    return options


def assert_fits_follow_routing(tree, data, rows):
    """Every node's fit is ``fit_ols`` on the rows ``route_rows`` sends it,
    bit for bit; returns those rows by node id."""
    reach = route_rows(tree, data, rows)
    for node in iter_nodes(tree):
        assert repr(node.fit) == repr(fit_ols(data.y[reach[node.id]], data.x[reach[node.id]]))
    return reach


def enumeration_moments(gof_values, design):
    """Exact mean/covariance of the statistic over all row permutations."""
    n = gof_values.shape[0]
    stats = []
    for perm in itertools.permutations(range(n)):
        t = (design.T @ gof_values[list(perm)]).flatten(order="F")
        stats.append(t)
    stats = np.array(stats)
    mean = stats.mean(axis=0)
    centered = stats - mean
    cov = (centered.T @ centered) / stats.shape[0]
    return mean, cov


def run_alone(config, y, x, col):
    # one column tested against the gof matrix of its own node fit
    gof = make_gof(fit_ols(y, x), y, x, config.use_scores, config.dichotomize)
    return run_strategy(config, gof, col)


def tree_depth(node):
    return max(n.depth for n in iter_nodes(node))


def regularized_gamma_p(a, x):
    """Regularized lower incomplete gamma function P(a, x), from the
    series and continued fraction that ``regularized_gamma_q`` uses."""
    if a <= 0.0:
        raise ValueError("shape parameter must be positive")
    if x < 0.0:
        raise ValueError("argument must be nonnegative")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_contfrac(a, x)


def normal_cdf(z):
    """Standard normal distribution function P(Z <= z)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))
