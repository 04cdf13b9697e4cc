"""Goodness-of-fit inputs and split-variable designs: signs, bins, levels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmtrees.dataset import CATEGORICAL, NUMERIC, SplitColumn, empirical_quartiles
from lmtrees.linmod import fit_ols
from lmtrees.transform import (
    MODE_CAT,
    MODE_LIN,
    MODE_MAX,
    GofMatrix,
    TransformError,
    make_gof,
    make_split_transform,
)


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
    t = make_split_transform(ncol([3.0, 1.0, 2.0]), MODE_LIN)
    assert t.mode == MODE_LIN
    assert t.design.shape == (3, 1)
    assert t.design[:, 0].tolist() == [3.0, 1.0, 2.0]


def test_quartile_bins_of_one_to_eight():
    t = make_split_transform(ncol(range(1, 9)), MODE_CAT)
    assert t.mode == MODE_CAT
    assert t.design.shape == (8, 4)
    # right-closed intervals at breaks (2.75, 4.5, 6.25)
    expected_bins = [0, 0, 1, 1, 2, 2, 3, 3]
    assert np.argmax(t.design, axis=1).tolist() == expected_bins
    assert np.all(t.design.sum(axis=1) == 1.0)


def test_bin_boundary_values_go_left():
    # a value exactly on a break belongs to the lower bin
    values = [0.0, 1.0, 2.0, 3.0, 4.0]  # quartiles (1, 2, 3)
    t = make_split_transform(ncol(values), MODE_CAT)
    labels = np.argmax(t.design, axis=1)
    assert labels.tolist() == [0, 0, 1, 2, 3]


def test_constant_column_collapses_to_single_bin():
    t = make_split_transform(ncol([5.0] * 6), MODE_CAT)
    assert t.design.shape == (6, 1)
    assert np.all(t.design == 1.0)


def test_duplicate_quartiles_merge_bins():
    # heavy ties: quartiles of [0,0,0,0,1,1,9,9] are (0, 0.5, 3.0)
    t = make_split_transform(ncol([0, 0, 0, 0, 1, 1, 9, 9]), MODE_CAT)
    assert t.design.shape[1] == 3
    labels = np.argmax(t.design, axis=1)
    assert labels.tolist() == [0, 0, 0, 0, 1, 1, 2, 2]


def test_unknown_mode_rejected():
    # the max route scans the ordered column and builds no design
    for mode, message in (("spline", "unknown"), (MODE_MAX, "no design")):
        with pytest.raises(TransformError, match=message):
            make_split_transform(ncol([1, 2, 3, 4]), mode)


# ---------------------------------------------------------------- categorical


def cat_col(codes, levels):
    return SplitColumn("g", CATEGORICAL, np.asarray(codes), levels=levels)


def test_categorical_one_hot_in_level_order():
    col = cat_col([2, 0, 1, 2], ("a", "b", "c"))
    t = make_split_transform(col, MODE_CAT)
    assert t.design.shape == (4, 3)
    assert np.argmax(t.design, axis=1).tolist() == [2, 0, 1, 2]
    assert t.labels is not None


def test_categorical_drops_unobserved_levels():
    col = cat_col([0, 2, 2], ("a", "b", "c"))
    t = make_split_transform(col, MODE_CAT)
    assert t.design.shape == (3, 2)
    assert np.all(t.design.sum(axis=1) == 1.0)


def test_categorical_requires_category_mode():
    col = cat_col([0, 1], ("a", "b"))
    for mode in (MODE_LIN, MODE_MAX):
        with pytest.raises(TransformError):
            make_split_transform(col, mode)


# ------------------------------------------------------------------ properties


@given(
    seed=st.integers(min_value=0, max_value=5000),
    n=st.integers(min_value=4, max_value=80),
)
@settings(max_examples=100, deadline=None)
def test_bin_design_is_a_partition(seed, n):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n)
    t = make_split_transform(ncol(values), MODE_CAT)
    assert 1 <= t.design.shape[1] <= 4
    assert np.all(t.design.sum(axis=1) == 1.0)
    assert set(np.unique(t.design)) <= {0.0, 1.0}


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
        return one_hot(recode[col.values], kept.size), tuple(col.levels[i] for i in kept)
    breaks = np.unique(np.asarray(empirical_quartiles(col)))
    bins = np.searchsorted(breaks, col.values, side="left")
    counts = np.bincount(bins, minlength=len(breaks) + 1)
    kept = np.flatnonzero(counts)
    recode = np.zeros(len(breaks) + 1, dtype=np.int64)
    recode[kept] = np.arange(kept.size)
    return one_hot(recode[bins], kept.size), tuple(f"bin{i + 1}" for i in range(kept.size))


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
    t = make_split_transform(col, MODE_CAT)
    design, labels = _former_one_hot(col)
    assert t.mode == MODE_CAT
    assert np.array_equal(t.design, design)
    assert t.labels == labels
