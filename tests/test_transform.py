"""Goodness-of-fit inputs and split-variable designs: signs, bins, levels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmtrees.dataset import CATEGORICAL, NUMERIC, SplitColumn, empirical_quartiles
from lmtrees.inference import (
    conditional_moments,
    linear_statistic,
    parse_strategy,
    quad_form_test,
    run_strategy,
)
from lmtrees.linmod import fit_ols
from lmtrees.transform import GofMatrix, TransformError, make_gof, make_split_transform


def ncol(values, name="z1"):
    return SplitColumn(name, NUMERIC, np.asarray(values, dtype=float))


def small_fit():
    return fit_ols(np.array([0.0, 1.0, 1.0, 2.0]), np.array([0.0, 0.0, 1.0, 1.0]))


# ------------------------------------------------------------------ gof side


def test_residual_gof_is_single_column():
    gof = make_gof(small_fit(), use_scores=False, dichotomize=False)
    assert gof.values.shape == (4, 1)
    assert gof.values[:, 0] == pytest.approx([-0.5, 0.5, -0.5, 0.5])
    assert not gof.dichotomized
    assert gof.k == 1 and gof.n == 4


def test_score_gof_has_two_columns():
    fit = small_fit()
    gof = make_gof(fit, use_scores=True, dichotomize=False)
    assert gof.values.shape == (4, 2)
    assert np.allclose(gof.values, fit.scores)


def test_dichotomization_maps_nonnegative_to_one():
    gof = make_gof(small_fit(), use_scores=False, dichotomize=True)
    assert gof.values[:, 0].tolist() == [0.0, 1.0, 0.0, 1.0]
    assert gof.dichotomized
    # an exact zero lands in the "one" class
    z = GofMatrix(np.array([[0.0], [1.0]]), dichotomized=True)
    assert z.values[0, 0] == 0.0  # already binary input is taken as-is
    values = np.array([[-1.0], [0.0], [2.0]])
    signs = (values >= 0.0).astype(float)
    assert signs[:, 0].tolist() == [0.0, 1.0, 1.0]


def test_gof_matrix_validation():
    with pytest.raises(TransformError):
        GofMatrix(np.array([[np.nan]]), dichotomized=False)
    with pytest.raises(TransformError):
        GofMatrix(np.array([[0.5]]), dichotomized=True)  # not 0/1


# ------------------------------------------------------------- numeric modes


def test_linear_mode_uses_raw_values():
    # the linear route pairs the gof matrix with the raw column itself
    rng = np.random.default_rng(4)
    fit = fit_ols(rng.normal(size=40), rng.normal(size=40))
    col = ncol(rng.uniform(-1, 1, 40))
    gof = make_gof(fit, use_scores=True, dichotomize=False)
    design = col.values.reshape(-1, 1)
    expected = quad_form_test(linear_statistic(gof, design), conditional_moments(gof, design))
    outcome = run_strategy(parse_strategy("ctree"), fit, col)
    assert (outcome.statistic, outcome.df, outcome.p_value) == expected


def test_quartile_bins_of_one_to_eight():
    design = make_split_transform(ncol(range(1, 9)))
    assert design.shape == (8, 4)
    # right-closed intervals at breaks (2.75, 4.5, 6.25)
    expected_bins = [0, 0, 1, 1, 2, 2, 3, 3]
    assert np.argmax(design, axis=1).tolist() == expected_bins
    assert np.all(design.sum(axis=1) == 1.0)


def test_bin_boundary_values_go_left():
    # a value exactly on a break belongs to the lower bin
    values = [0.0, 1.0, 2.0, 3.0, 4.0]  # quartiles (1, 2, 3)
    design = make_split_transform(ncol(values))
    assert np.argmax(design, axis=1).tolist() == [0, 0, 1, 2, 3]


def test_constant_column_collapses_to_single_bin():
    design = make_split_transform(ncol([5.0] * 6))
    assert design.shape == (6, 1)
    assert np.all(design == 1.0)


def test_duplicate_quartiles_merge_bins():
    # heavy ties: quartiles of [0,0,0,0,1,1,9,9] are (0, 0.5, 3.0)
    design = make_split_transform(ncol([0, 0, 0, 0, 1, 1, 9, 9]))
    assert design.shape[1] == 3
    assert np.argmax(design, axis=1).tolist() == [0, 0, 0, 0, 1, 1, 2, 2]


# ---------------------------------------------------------------- categorical


def cat_col(codes, levels):
    return SplitColumn("g", CATEGORICAL, np.asarray(codes), levels=levels)


def test_categorical_one_hot_in_level_order():
    col = cat_col([2, 0, 1, 2], ("a", "b", "c"))
    design = make_split_transform(col)
    assert design.shape == (4, 3)
    assert np.argmax(design, axis=1).tolist() == [2, 0, 1, 2]


def test_categorical_drops_unobserved_levels():
    col = cat_col([0, 2, 2], ("a", "b", "c"))
    design = make_split_transform(col)
    assert design.shape == (3, 2)
    assert np.all(design.sum(axis=1) == 1.0)


# ------------------------------------------------------------------ properties


@given(
    seed=st.integers(min_value=0, max_value=5000),
    n=st.integers(min_value=4, max_value=80),
)
@settings(max_examples=100, deadline=None)
def test_bin_design_is_a_partition(seed, n):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n)
    design = make_split_transform(ncol(values))
    assert 1 <= design.shape[1] <= 4
    assert np.all(design.sum(axis=1) == 1.0)
    assert set(np.unique(design)) <= {0.0, 1.0}


# ------------------------------------------- differential: former builder


def _former_one_hot(col):
    """The builder's earlier construction: bins or levels, recode, one-hot."""

    def one_hot(codes, count):
        design = np.zeros((codes.shape[0], count))
        design[np.arange(codes.shape[0]), codes] = 1.0
        return design

    if col.kind == CATEGORICAL:
        counts = np.bincount(col.values, minlength=len(col.levels))
        kept = np.flatnonzero(counts)
        recode = np.zeros(len(col.levels), dtype=np.int64)
        recode[kept] = np.arange(kept.size)
        return one_hot(recode[col.values], kept.size)
    breaks = np.unique(np.asarray(empirical_quartiles(col)))
    bins = np.searchsorted(breaks, col.values, side="left")
    counts = np.bincount(bins, minlength=len(breaks) + 1)
    kept = np.flatnonzero(counts)
    recode = np.zeros(len(breaks) + 1, dtype=np.int64)
    recode[kept] = np.arange(kept.size)
    return one_hot(recode[bins], kept.size)


tied_values = st.lists(st.integers(-2, 2).map(float), min_size=4, max_size=60)
constant_values = st.builds(lambda v, n: [v] * n, st.floats(-1e3, 1e3), st.integers(4, 40))
spread_values = st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=60)
numeric_columns = st.one_of(tied_values, constant_values, spread_values).map(ncol)
# up to six levels, some of them unobserved
categorical_columns = st.integers(1, 6).flatmap(
    lambda m: st.lists(st.integers(0, m - 1), min_size=1, max_size=40).map(
        lambda codes: cat_col(codes, tuple("abcdef"[:m]))
    )
)


@given(col=st.one_of(numeric_columns, categorical_columns))
@settings(max_examples=300, deadline=None)
def test_one_hot_design_matches_former_builder(col):
    assert np.array_equal(make_split_transform(col), _former_one_hot(col))
