"""The index-based node engine against the per-node path it replaced.

The former grower copied and re-validated a ``Dataset`` at every node
(``Dataset.take``) and tested each split column on its own: a fresh gof
matrix, quartiles and decorrelation per column, and a fresh stable
argsort of every numeric column at every node.  That path is kept here
as the oracle; the engine must reproduce it exactly, bit for bit.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmtrees.dataset import CATEGORICAL, NUMERIC, CsvSchema, Dataset, SplitColumn
from lmtrees.dataset import order_permutation, subset_order
from lmtrees import inference
from lmtrees.inference import (
    FluctuationProcess,
    argmin_outcome,
    chisq_statistic,
    linear_statistic,
    max_abs_test,
    parse_strategy,
    quad_form_test,
    resolve_min_segment,
    suplm_pvalue,
    suplm_statistic,
)
from lmtrees.linmod import fit_ols
from lmtrees.special import chi2_sf
from lmtrees.transform import DegenerateTestError, eig_pinv_parts, make_gof, make_split_transform
from lmtrees.tree import GrowControl, TreeNode, best_split_point, grow, iter_nodes, tree_to_json

NAMES = ("ctree", "mob", "guide", "guide+scores", "ctree+max", "ctree+cat", "ctree+dich",
         "mob+cat", "mob+dich", "residuals,nodich,lin")


# ---------------------------------------------------------------- the oracle


def former_conditional_moments(gof, design):
    n = design.shape[0]
    if n < 2:
        raise DegenerateTestError("permutation moments need at least two rows")
    h = gof.values
    hbar = h.mean(axis=0)
    hc = h - hbar
    v_h = (hc.T @ hc) / n
    csum = design.sum(axis=0)
    s = design.T @ design
    mean = np.outer(csum, hbar).flatten(order="F")
    cov = (n / (n - 1)) * np.kron(v_h, s) - (1.0 / (n - 1)) * np.kron(v_h, np.outer(csum, csum))
    return mean, cov


def former_fluctuation_process(gof, col):
    order = np.argsort(col.values, kind="stable")
    s = gof.values - gof.values.mean(axis=0)
    n = s.shape[0]
    vhat = (s.T @ s) / n
    eigval, eigvec, rank = eig_pinv_parts(vhat)
    if rank == 0:
        raise DegenerateTestError("gof covariance is numerically zero")
    root_inv = eigvec @ np.diag(1.0 / np.sqrt(eigval)) @ eigvec.T
    walk = (s[order] @ root_inv) / math.sqrt(n)
    cumulative = np.zeros((n + 1, gof.k))
    np.cumsum(walk, axis=0, out=cumulative[1:])
    vs = col.values[order]
    tie_ends = np.concatenate(([True], vs[:-1] != vs[1:], [True]))
    return FluctuationProcess(cumulative=cumulative, tie_ends=tie_ends, k_eff=rank)


def former_run_strategy(config, fit, col):
    gof = make_gof(fit, config.use_scores, config.dichotomize)
    mode = "cat" if col.kind == CATEGORICAL else config.split_mode
    try:
        if mode == "max":
            ms = resolve_min_segment(gof.n, config.min_segment)
            proc = former_fluctuation_process(gof, col)
            stat, _ = suplm_statistic(proc, ms)
            law, df, p = "suplm", proc.k_eff, suplm_pvalue(stat, proc.k_eff, ms, gof.n)
        elif mode == "cat" and config.dichotomize:
            # the design builder without breaks takes one column's quartiles
            stat, df = chisq_statistic(gof, make_split_transform(col))
            law, p = "chi2", chi2_sf(stat, df)
        else:
            design = col.values[:, None] if mode == "lin" else make_split_transform(col)
            t = linear_statistic(gof, design)
            mean, cov = former_conditional_moments(gof, design)
            if mode == "lin" and t.shape[0] == 1:
                (stat, p), df, law = max_abs_test(t, mean, cov), 1, "normal"
            else:
                (stat, df, p), law = quad_form_test(t, mean, cov), "chi2"
    except DegenerateTestError:
        stat, p, law, df = 0.0, 1.0, "degenerate", 0
    return inference.TestOutcome(variable=col.name, statistic=stat, p_value=p, law=law, df=df)


def former_select_variable(config, fit, data):
    outcomes = [former_run_strategy(config, fit, col) for col in data.z]
    best = argmin_outcome(outcomes)
    if best is None:
        return outcomes, None
    tested = sum(1 for o in outcomes if o.law != "degenerate")
    gate_p = best.p_value
    if config.multiplicity == "bonferroni":
        gate_p = min(1.0, tested * best.p_value)
    return outcomes, best.variable if gate_p < config.alpha else None


def former_grow(data, strategy, control):
    strategy = replace(strategy, alpha=control.alpha, min_segment=control.min_segment)
    counter = itertools.count()

    def build(rows, depth):
        node_id = next(counter)
        sub = data.take(rows)
        fit = fit_ols(sub.y, sub.x)
        outcomes, split, children = (), None, ()
        if depth < control.max_depth and rows.shape[0] >= 2 * control.min_node_size:
            outcome_list, chosen = former_select_variable(strategy, fit, sub)
            outcomes = tuple(outcome_list)
            if not control.prepruning:
                best = argmin_outcome(outcome_list)
                chosen = best.variable if best is not None else None
            if chosen is not None:
                col = sub.column(chosen)
                candidate = best_split_point(sub.y, sub.x, col, control.min_node_size)
                if candidate is not None:
                    if candidate.point is not None:
                        mask = col.values <= candidate.point
                    else:
                        left = [col.levels.index(v) for v in candidate.left_levels]
                        mask = np.isin(col.values, left)
                    split = candidate
                    children = (build(rows[mask], depth + 1), build(rows[~mask], depth + 1))
        return TreeNode(id=node_id, depth=depth, n=rows.shape[0], fit=fit,
                        p_values={o.variable: o.p_value for o in outcomes}, outcomes=outcomes,
                        split=split, children=children, rows=rows)

    return build(np.arange(data.n), 0)


# ----------------------------------------------------------------- the data


def node_data(seed, n, distinct):
    """Heavily tied, constant and continuous numeric columns, and a
    categorical column that leaves some of its levels unobserved."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    tied = rng.integers(0, distinct, n).astype(float)
    rounded = np.round(rng.normal(size=n), 1)
    smooth = rng.uniform(-1.0, 1.0, n)
    codes = rng.choice([0, 2, 3], size=n)
    y = np.where(tied > distinct / 2, 1.0, -1.0) * x + (codes == 2) + rng.normal(size=n) * 0.5
    z = (
        SplitColumn("tied", NUMERIC, tied),
        SplitColumn("flat", NUMERIC, np.full(n, 0.5)),
        SplitColumn("region", CATEGORICAL, codes, levels=("a", "b", "c", "d", "e")),
        SplitColumn("rounded", NUMERIC, rounded),
        SplitColumn("smooth", NUMERIC, smooth),
    )
    schema = CsvSchema("y", "x", tuple((c.name, c.kind) for c in z))
    return Dataset(y, x, z), schema


# ------------------------------------------------------------ the properties


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 160),
    distinct=st.integers(1, 4),
    min_node_size=st.integers(3, 12),
    max_depth=st.integers(1, 4),
    prepruning=st.booleans(),
)
def test_engine_matches_the_per_node_path(name, seed, n, distinct, min_node_size, max_depth,
                                          prepruning):
    data, schema = node_data(seed, n, distinct)
    strategy = parse_strategy(name)
    control = GrowControl(alpha=0.5, min_node_size=min_node_size, max_depth=max_depth,
                          prepruning=prepruning)
    got = grow(data, strategy, control)
    want = former_grow(data, strategy, control)
    pairs = list(zip(iter_nodes(got), iter_nodes(want), strict=True))
    for a, b in pairs:
        assert a.outcomes == b.outcomes
        assert (a.split, a.n, a.id, a.depth) == (b.split, b.n, b.id, b.depth)
        assert np.array_equal(a.rows, b.rows)
        assert (a.fit.beta0, a.fit.beta1, a.fit.rss) == (b.fit.beta0, b.fit.beta1, b.fit.rss)
    assert tree_to_json(got, schema, strategy, control) == tree_to_json(want, schema, strategy,
                                                                        control)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    distinct=st.integers(1, 5),
    keep=st.floats(0.0, 1.0),
)
def test_presort_partition_equals_the_node_sort(seed, n, distinct, keep):
    rng = np.random.default_rng(seed)
    col = SplitColumn("z", NUMERIC, rng.integers(0, distinct, n) * 0.5 - 1.0)
    root = order_permutation(col)
    rows = np.flatnonzero(rng.uniform(size=n) < keep)
    # two levels deep: a node's order filtered again for its child
    child = rows[rng.uniform(size=rows.shape[0]) < 0.5]
    for subset in (rows, child):
        want = order_permutation(col.take(subset))
        assert np.array_equal(subset_order(root, subset), want)
