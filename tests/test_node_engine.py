"""The index-based, column-blocked node engine against the per-node,
per-column path it replaced.

The former grower copied and re-validated a ``Dataset`` at every node
(``Dataset.take``) and tested each split column on its own: a fresh gof
matrix, quartiles and decorrelation per column, a fresh stable argsort
of every numeric column at every node, and one design, one set of
moments and one eigendecomposition per column.  That path is kept here
as the oracle, written out in full so that it shares no arithmetic with
the engine; the engine must reproduce it exactly, bit for bit.
"""

import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmtrees.dataset import CATEGORICAL, NUMERIC, ColumnMatrix, CsvSchema, Dataset, SplitColumn
from lmtrees.dataset import empirical_quartiles, order_permutation, partition_orders
from lmtrees import inference
from lmtrees.inference import argmin_outcome, parse_strategy, resolve_min_segment, select_variable
from lmtrees.inference import suplm_pvalue
from lmtrees.linmod import InsufficientDataError, fit_ols
from lmtrees.special import chi2_sf, normal_sf
from lmtrees.transform import GofMatrix, design_groups, make_gof
from lmtrees.tree import GrowControl, TreeNode, best_split_point, grow, iter_nodes, tree_to_json

from helpers import assert_fits_follow_routing, stable_orders

NAMES = ("ctree", "mob", "guide", "guide+scores", "ctree+max", "ctree+cat", "ctree+dich",
         "mob+cat", "mob+dich", "residuals,nodich,lin", "residuals,nodich,max",
         "residuals,dich,max")
MAX_NAMES = tuple(name for name in NAMES if parse_strategy(name).split_mode == "max")


# ---------------------------------------------------------------- the oracle


class DegenerateTestError(ValueError):
    """The per-column path's signal that a test can discriminate nothing."""


def former_eig_pinv_parts(sym):
    sym = 0.5 * (sym + sym.T)
    eigval, eigvec = np.linalg.eigh(sym)
    keep = eigval > sym.shape[0] * float(eigval.max(initial=0.0)) * 1e-12
    return eigval[keep], eigvec[:, keep], int(keep.sum())


def former_design(col):
    if col.kind == CATEGORICAL:
        codes = col.values
    elif col.n < 4:
        raise DegenerateTestError("too few rows for quartile bins")
    else:
        breaks = np.unique(np.asarray(empirical_quartiles(col)))
        codes = np.searchsorted(breaks, col.values, side="left")
    return (codes[:, None] == np.flatnonzero(np.bincount(codes))).astype(float)


def former_linear_statistic(gof, design):
    return (design.T @ gof.values).flatten(order="F")


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


def former_quad_form_test(t, mean, cov):
    eigval, eigvec, rank = former_eig_pinv_parts(cov)
    if rank == 0:
        raise DegenerateTestError("rank zero")
    proj = eigvec.T @ (t - mean)
    stat = float(proj @ (proj / eigval))
    return stat, rank, chi2_sf(stat, rank)


def former_max_abs_test(t, mean, cov):
    var = float(cov.reshape(-1)[0])
    if var <= 0.0 or not math.isfinite(var):
        raise DegenerateTestError("variance not positive")
    stat = abs(float((t - mean)[0])) / math.sqrt(var)
    if stat == 0.0:
        raise DegenerateTestError("zero statistic")
    return stat, 2.0 * normal_sf(stat)


def former_suplm_statistic(gof, col, ms):
    order = np.argsort(col.values, kind="stable")
    s = gof.values - gof.values.mean(axis=0)
    n = s.shape[0]
    eigval, eigvec, rank = former_eig_pinv_parts((s.T @ s) / n)
    if rank == 0:
        raise DegenerateTestError("gof covariance is numerically zero")
    root_inv = eigvec @ np.diag(1.0 / np.sqrt(eigval)) @ eigvec.T
    cumulative = np.zeros((n + 1, gof.k))
    np.cumsum((s[order] @ root_inv) / math.sqrt(n), axis=0, out=cumulative[1:])
    vs = col.values[order]
    tie_ends = np.concatenate(([True], vs[:-1] != vs[1:], [True]))
    lo, hi = ms, n - ms
    ends = tie_ends[lo : hi + 1]
    if not ends.any():
        raise DegenerateTestError("no admissible cut")
    frac = np.arange(lo, hi + 1) / n
    path = cumulative[lo : hi + 1]
    values = 1.0 / (frac * (1.0 - frac)) * np.einsum("ij,ij->i", path, path)
    values[~ends] = -np.inf
    return float(values[int(np.argmax(values))]), rank


def former_chisq_statistic(gof, design):
    n = design.shape[0]
    col_totals = design.sum(axis=0)
    if design.shape[1] < 2:
        raise DegenerateTestError("fewer than two non-empty bins")
    total_stat, total_df = 0.0, 0
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


def former_run_strategy(config, gof, col):
    mode = "cat" if col.kind == CATEGORICAL else config.split_mode
    try:
        if mode == "max":
            ms = resolve_min_segment(gof.n, config.min_segment)
            stat, df = former_suplm_statistic(gof, col, ms)
            law, p = "suplm", suplm_pvalue(stat, df, ms, gof.n)
        elif mode == "cat" and config.dichotomize:
            stat, df = former_chisq_statistic(gof, former_design(col))
            law, p = "chi2", chi2_sf(stat, df)
        else:
            design = col.values[:, None] if mode == "lin" else former_design(col)
            t = former_linear_statistic(gof, design)
            mean, cov = former_conditional_moments(gof, design)
            if mode == "lin" and t.shape[0] == 1:
                (stat, p), df, law = former_max_abs_test(t, mean, cov), 1, "normal"
            else:
                (stat, df, p), law = former_quad_form_test(t, mean, cov), "chi2"
    except DegenerateTestError:
        stat, p, law, df = 0.0, 1.0, "degenerate", 0
    return inference.TestOutcome(variable=col.name, statistic=stat, p_value=float(p), law=law,
                                 df=df)


def former_select_variable(config, fit, data):
    gof = make_gof(fit, data.y, data.x, config.use_scores, config.dichotomize)
    outcomes = [former_run_strategy(config, gof, col) for col in data.z]
    best = argmin_outcome(outcomes)
    if best is None:
        return outcomes, None
    tested = sum(1 for o in outcomes if o.law != "degenerate")
    gate_p = best.p_value
    if config.multiplicity == "bonferroni":
        gate_p = min(1.0, tested * best.p_value)
    return outcomes, best.variable if gate_p < config.alpha else None


def former_grow(data, strategy, control):
    """The former tree and the rows of ``data`` each of its nodes grew on, by id."""
    strategy = replace(strategy, alpha=control.alpha, min_segment=control.min_segment)
    counter = itertools.count()
    grown_rows = {}

    def build(rows, depth):
        node_id = next(counter)
        grown_rows[node_id] = rows
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
        return TreeNode(id=node_id, depth=depth, fit=fit,
                        p_values={o.variable: o.p_value for o in outcomes}, outcomes=outcomes,
                        split=split, children=children)

    return build(np.arange(data.n), 0), grown_rows


# ----------------------------------------------------------------- the data


def node_data(seed, n, distinct):
    """Heavily tied, constant and continuous numeric columns, whose
    quartile bins take one to four widths, one of them mostly tied zeros
    of both signs, on which quartiles land, and categorical columns of
    two to six observed levels, one of which leaves levels unobserved."""
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
        SplitColumn("zone", CATEGORICAL, rng.integers(0, distinct + 2, n), levels=tuple("abcdef")),
        SplitColumn("pair", CATEGORICAL, rng.integers(0, 2, n), levels=("no", "yes")),
        SplitColumn("signed", NUMERIC, np.round(0.3 * rng.normal(size=n))),
    )
    schema = CsvSchema("y", "x", tuple((c.name, c.kind) for c in z))
    return Dataset(y, x, z), schema


def assert_same_trees(got, data, former, schema, strategy, control):
    want, want_rows = former
    reach = assert_fits_follow_routing(got, data, np.arange(data.n))
    for a, b in zip(iter_nodes(got), iter_nodes(want), strict=True):
        assert a.outcomes == b.outcomes
        assert (a.split, a.n, a.id, a.depth) == (b.split, b.n, b.id, b.depth)
        assert np.array_equal(reach[a.id], want_rows[b.id])
        assert (a.fit.beta0, a.fit.beta1, a.fit.rss) == (b.fit.beta0, b.fit.beta1, b.fit.rss)
    assert tree_to_json(got, schema, strategy, control) == tree_to_json(want, schema, strategy,
                                                                        control)


def assert_same_selection(got, want):
    (outcomes, chosen), (former_outcomes, former_chosen) = got, want
    assert outcomes == former_outcomes and chosen == former_chosen
    # equal floats, and equal bits: the CSV writers print repr
    assert [repr((o.statistic, o.p_value)) for o in outcomes] == [
        repr((o.statistic, o.p_value)) for o in former_outcomes]


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
    block=st.sampled_from([None, 1, 40, 300]),
)
def test_engine_matches_the_per_node_path(name, seed, n, distinct, min_node_size, max_depth,
                                          prepruning, block):
    data, schema = node_data(seed, n, distinct)
    strategy = parse_strategy(name)
    control = GrowControl(alpha=0.5, min_node_size=min_node_size, max_depth=max_depth,
                          prepruning=prepruning)
    # a small budget splits every node into several column blocks
    budget = inference.COLUMN_BLOCK if block is None else block
    with mock.patch.object(inference, "COLUMN_BLOCK", budget):
        got = grow(data, strategy, control)
        # the stump call of the simulation: the whole data, no kept presort
        fit = fit_ols(data.y, data.x)
        stump = select_variable(strategy, fit, data)
    assert_same_trees(got, data, former_grow(data, strategy, control), schema, strategy, control)
    assert_same_selection(stump, former_select_variable(strategy, fit, data))


@pytest.mark.parametrize("name", NAMES)
def test_one_node_mixing_design_widths_matches_the_per_column_path(name):
    data, _ = node_data(seed=3, n=90, distinct=4)
    rows = np.flatnonzero(np.arange(data.n) % 7 != 3)
    # the node's binned designs: quartile bins and levels of several widths
    numeric = np.array([col.kind == NUMERIC for col in data.z])
    values = data.columns.values[:, rows]
    groups = list(design_groups(values, numeric, stable_orders(values), None))
    widths = {designs.shape[2] for _, designs, _ in groups}
    levels = {len(np.unique(col.values[rows])) for col in data.z if col.kind == CATEGORICAL}
    assert {1, 2, 3, 6} <= widths and levels == {2, 3, 6} and len(groups) > 3
    config = parse_strategy(name)
    fit = fit_ols(data.y[rows], data.x[rows])
    got = select_variable(config, fit, data, rows)
    assert_same_selection(got, former_select_variable(config, fit, data.take(rows)))
    # the node's response and regressor handed in, as grow gathers them
    yx = (data.y[rows], data.x[rows])
    assert_same_selection(select_variable(config, fit, data, rows, None, yx), got)


@pytest.mark.parametrize("name", NAMES)
def test_a_node_of_several_column_blocks_matches_the_per_column_path(name):
    data, _ = node_data(seed=11, n=14_000, distinct=3)
    rows = np.flatnonzero(np.random.default_rng(4).uniform(size=data.n) < 0.93)
    # the node's columns do not fit one block at the module's own budget
    assert inference.COLUMN_BLOCK // rows.shape[0] < len(data.z)
    config = parse_strategy(name)
    fit = fit_ols(data.y[rows], data.x[rows])
    got = select_variable(config, fit, data, rows)
    assert_same_selection(got, former_select_variable(config, fit, data.take(rows)))


@pytest.mark.parametrize("name", MAX_NAMES)
@pytest.mark.parametrize("seed", [5, 6])
def test_a_node_of_one_column_per_block_matches_the_per_column_path(name, seed):
    # tied columns, each gathered, whitened and scanned as a block of its own
    data, _ = node_data(seed=seed, n=600, distinct=3)
    rows = np.flatnonzero(np.random.default_rng(seed).uniform(size=data.n) < 0.8)
    config = parse_strategy(name)
    fit = fit_ols(data.y[rows], data.x[rows])
    with mock.patch.object(inference, "COLUMN_BLOCK", rows.shape[0] - 1):
        got = select_variable(config, fit, data, rows)
    assert_same_selection(got, former_select_variable(config, fit, data.take(rows)))
    assert {o.law for o in got[0]} >= {"suplm", "degenerate"}


@pytest.mark.parametrize("name", ["guide", "guide+scores"])
def test_wide_and_degenerate_sign_tables_match_the_per_column_chisq(name):
    # tables of 9 to 16 levels, whose 2 w > 8 cells numpy sums pairwise, so
    # that only their flattened order reproduces the per-column sum; a
    # column of one level and one of one bin; gof columns of constant sign
    rng = np.random.default_rng(17)
    n, widths, levels = 240, (9, 11, 13, 16), tuple(f"l{i}" for i in range(16))
    cols = [SplitColumn(f"cat{w}", CATEGORICAL, rng.integers(0, w, n), levels=levels)
            for w in widths]
    cols += [SplitColumn("one", CATEGORICAL, np.full(n, 3), levels=levels),
             SplitColumn("flat", NUMERIC, np.full(n, -0.5)),
             SplitColumn("tied", NUMERIC, rng.integers(0, 3, n) * 1.0),
             SplitColumn("smooth", NUMERIC, rng.normal(size=n))]
    columns = ColumnMatrix(cols, n)
    config = parse_strategy(name)
    k = 2 if config.use_scores else 1
    signs = (rng.uniform(size=(n, k)) < 0.4).astype(float)
    constant_last = np.column_stack((signs[:, :-1], np.ones(n)))
    for values, varying in ((signs, k), (constant_last, k - 1), (np.zeros((n, k)), 0)):
        gof = GofMatrix(values, dichotomized=True)
        want = []
        for col in cols:
            try:
                stat, df = former_chisq_statistic(gof, former_design(col))
                want.append((stat, float(chi2_sf(stat, df)), "chi2", df))
            except DegenerateTestError:
                want.append((0.0, 1.0, "degenerate", 0))
        assert [entry[3] for entry in want] == [(w - 1) * varying for w in widths] + [
            0, 0, 2 * varying, 3 * varying]
        # one block, then blocks of two columns: ("one", "flat") is degenerate throughout
        for block in (inference.COLUMN_BLOCK, 2 * n):
            with mock.patch.object(inference, "COLUMN_BLOCK", block):
                got = inference.column_entries(config, gof, columns)
            assert repr(got) == repr(want)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 3000),
    k=st.sampled_from([1, 2]),
    columns=st.integers(1, 3),
    distinct=st.integers(1, 6),
    scale=st.floats(1e-6, 1e6),
)
def test_gathering_whitened_rows_equals_whitening_gathered_rows(seed, n, k, columns, distinct,
                                                                scale):
    # each whitened row is the BLAS product of its own centred row, so a
    # gather before whitening and one after it give the same bytes
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, k)) * scale
    if k == 2 and seed % 3 == 0:
        values[:, 1] = values[:, 0] * rng.integers(-2, 3, n)
    gof = GofMatrix(values=values, dichotomized=False)
    eigval, eigvec, rank = former_eig_pinv_parts(gof.covariance)
    root_inv = eigvec @ np.diag(1.0 / np.sqrt(eigval)) @ eigvec.T
    order = stable_orders(rng.integers(0, distinct, (columns, n)))
    got = np.take(gof.whitened[0], order, axis=0)
    assert got.tobytes() == ((gof.centred[order] @ root_inv) / math.sqrt(n)).tobytes()
    assert gof.whitened[1] == rank


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    distinct=st.integers(1, 5),
    keep=st.floats(0.0, 1.0),
)
def test_presort_partition_equals_the_node_sort(seed, n, distinct, keep):
    # the partition of a numeric column's whole-data order against a
    # fresh sort of each row subset, two levels deep
    rng = np.random.default_rng(seed)
    col = SplitColumn("z", NUMERIC, rng.integers(0, distinct, n) * 0.5 - 1.0)
    data = Dataset(np.zeros(n), np.zeros(n), (col,))
    rows = np.flatnonzero(rng.uniform(size=n) < keep)
    child = rows[rng.uniform(size=rows.shape[0]) < 0.5]
    for subset in (rows, child):
        want = order_permutation(col.take(subset))
        assert np.array_equal(data.columns.orders_of(subset)[0], want)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 200),
    columns=st.integers(0, 5),
    distinct=st.integers(1, 5),
    keep=st.floats(0.0, 1.0),
)
def test_partitioned_orders_equal_each_childs_sort(seed, n, columns, distinct, keep):
    # tied numeric rows and categorical-code rows, split by random masks
    # two levels deep: each child's partitioned orders are its own sort
    rng = np.random.default_rng(seed)
    values = np.vstack([rng.integers(0, distinct, n) * (0.25 if j % 2 else 1.0)
                        for j in range(columns)] or [np.empty((0, n))])
    nodes = [(np.arange(n), stable_orders(values))]
    for _ in range(2):
        children = []
        for rows, orders in nodes:
            mask = rng.uniform(size=rows.shape[0]) < keep
            for side, part in zip((mask, ~mask), partition_orders(orders, mask)):
                assert part.shape == (columns, int(side.sum()))
                assert np.array_equal(part, stable_orders(values[:, rows[side]]))
                children.append((rows[side], part))
        nodes = children


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 160),
    distinct=st.integers(1, 4),
    keep=st.floats(0.3, 1.0),
    prepruning=st.booleans(),
)
def test_growing_on_an_index_set_equals_growing_on_its_copy(name, seed, n, distinct, keep,
                                                            prepruning):
    data, schema = node_data(seed, n, distinct)
    subset = np.flatnonzero(np.random.default_rng(seed).uniform(size=n) < keep)
    strategy = parse_strategy(name)
    control = GrowControl(alpha=0.5, min_node_size=4, max_depth=3, prepruning=prepruning)
    if subset.size < 3:
        # a root of fewer than three rows has no fit on either path
        with pytest.raises(InsufficientDataError):
            grow(data, strategy, control, rows=subset)
        with pytest.raises(InsufficientDataError):
            grow(data.take(subset), strategy, control)
        return
    got = grow(data, strategy, control, rows=subset)
    want = grow(data.take(subset), strategy, control)
    reach = assert_fits_follow_routing(got, data, subset)
    want_reach = assert_fits_follow_routing(want, data.take(subset), np.arange(subset.size))
    for a, b in zip(iter_nodes(got), iter_nodes(want), strict=True):
        assert a.outcomes == b.outcomes
        assert (a.split, a.n, a.id, a.depth) == (b.split, b.n, b.id, b.depth)
        assert np.array_equal(reach[a.id], subset[want_reach[b.id]])
        assert (a.fit.beta0, a.fit.beta1, a.fit.rss) == (b.fit.beta0, b.fit.beta1, b.fit.rss)
    assert tree_to_json(got, schema, strategy, control) == tree_to_json(want, schema, strategy,
                                                                        control)
