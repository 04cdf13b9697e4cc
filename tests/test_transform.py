"""Goodness-of-fit inputs and split-variable designs: signs, bins, levels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmtrees.dataset import CATEGORICAL, SplitColumn, empirical_quartiles
from lmtrees.inference import (
    conditional_moments,
    linear_statistic,
    parse_strategy,
    quad_form_test,
)
from lmtrees.linmod import fit_ols
from lmtrees.transform import (
    GofMatrix,
    TransformError,
    make_gof,
    design_groups,
    eig_pinv_parts,
    make_split_transform,
    quartile_breaks,
)

from helpers import groups_by_row, ncol, rank_deficient_covariances, run_alone, stable_orders


def small_gof(use_scores, dichotomize):
    y, x = np.array([0.0, 1.0, 1.0, 2.0]), np.array([0.0, 0.0, 1.0, 1.0])
    return make_gof(fit_ols(y, x), y, x, use_scores, dichotomize)


# ------------------------------------------------------------------ gof side


def test_residual_gof_is_single_column():
    gof = small_gof(use_scores=False, dichotomize=False)
    assert gof.values.shape == (4, 1)
    assert gof.values[:, 0] == pytest.approx([-0.5, 0.5, -0.5, 0.5])
    assert not gof.dichotomized
    assert gof.k == 1 and gof.n == 4


def test_score_gof_has_two_columns():
    gof = small_gof(use_scores=True, dichotomize=False)
    assert gof.values.shape == (4, 2)
    # residuals (-0.5, 0.5, -0.5, 0.5) at x = (0, 0, 1, 1), scores -2 r (1, x)
    assert np.allclose(gof.values, [[1.0, 0.0], [-1.0, 0.0], [1.0, 1.0], [-1.0, -1.0]])


def test_dichotomization_maps_nonnegative_to_one():
    gof = small_gof(use_scores=False, dichotomize=True)
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
    with pytest.raises(TransformError, match="2-d array"):
        GofMatrix(np.array([0.5, 1.0]), dichotomized=False)


# ------------------------------------------------------------- numeric modes


def test_linear_mode_uses_raw_values():
    # the linear route pairs the gof matrix with the raw column itself
    rng = np.random.default_rng(4)
    y, x = rng.normal(size=40), rng.normal(size=40)
    col = ncol(rng.uniform(-1, 1, 40))
    gof = make_gof(fit_ols(y, x), y, x, use_scores=True, dichotomize=False)
    design = col.values.reshape(1, -1, 1)
    (stat,), (df,), (p,) = quad_form_test(linear_statistic(gof, design),
                                          *conditional_moments(gof, design))
    outcome = run_alone(parse_strategy("ctree"), y, x, col)
    assert (outcome.statistic, outcome.df, outcome.p_value) == (stat, df, p)


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


def test_quartile_breaks_equal_the_per_column_quartiles_bit_for_bit():
    rng = np.random.default_rng(2024)
    for trial in range(2000):
        n, j = int(rng.integers(4, 120)), int(rng.integers(1, 8))
        values = rng.normal(size=(j, n)) * 10.0 ** int(rng.integers(-3, 4))
        if trial % 2:
            values = np.round(values, int(rng.integers(0, 2)))
        got = quartile_breaks(values, stable_orders(values))
        assert got.shape == (j, 3)
        codes = rng.integers(0, 3, n)
        block = np.vstack([values, codes])
        rows = list(design_groups(block, np.arange(j + 1) < j, stable_orders(block), None))
        for i in range(j):
            c = ncol(values[i])
            want = np.array(empirical_quartiles(c))
            # equal floats; equal bytes but for the sign of a zero break
            assert np.array_equal(got[i], want)
            assert got[i][want != 0.0].tobytes() == want[want != 0.0].tobytes()
            # the block's design of each column is the one built alone
            (design,) = [d[list(r).index(i)] for r, d, _ in rows if i in r]
            assert np.array_equal(design, make_split_transform(c))
            assert np.array_equal(design, _former_one_hot(c))


def np_quantile_codes(values):
    # each value's bin from the np.quantile breaks of its row
    breaks = np.quantile(values, (0.25, 0.5, 0.75), axis=-1).T
    return (breaks[:, :, None] < values[:, None, :]).sum(axis=1)


def test_presort_bins_equal_the_np_quantile_bins_on_signed_zero_ties():
    rng = np.random.default_rng(18)
    for trial in range(5000):
        n, j = int(rng.integers(4, 80)), int(rng.integers(1, 6))
        # mostly tied zeros of both signs, where np.quantile's partition
        # may put a zero of either sign at a quartile
        values = np.round(0.3 * rng.normal(size=(j, n))) * rng.choice([-1.0, 1.0], size=(j, n))
        if trial % 3 == 0:
            # a constant row: zeros of both signs, or one value
            values[0] = rng.choice([-0.0, 0.0], size=n) if trial % 2 else -2.5
        orders = stable_orders(values)
        codes = np_quantile_codes(values)
        breaks = quartile_breaks(values, orders)
        assert np.array_equal(breaks, np.quantile(values, (0.25, 0.5, 0.75), axis=-1).T)
        assert np.array_equal((breaks[:, :, None] < values[:, None, :]).sum(axis=1), codes)
        for rows, designs, _ in design_groups(values, np.ones(j, dtype=bool), orders, None):
            for i, design in zip(rows, designs):
                kept = np.unique(codes[i])
                assert np.array_equal(design, (codes[i][:, None] == kept).astype(float))


def test_a_median_between_tied_zeros_keeps_the_sign_of_the_stable_order():
    values = np.array([[-0.0, -0.0, 0.0, -1.0]])
    breaks = quartile_breaks(values, stable_orders(values))
    # the stable order reads the median between the two -0.0 entries
    assert breaks.tobytes() == np.array([[-0.25, -0.0, 0.0]]).tobytes()
    assert np.array_equal(breaks, np.quantile(values, (0.25, 0.5, 0.75), axis=-1).T)
    ((_, (design,), _),) = design_groups(values, np.array([True]), stable_orders(values), None)
    assert np.array_equal(design, [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(np_quantile_codes(values), [[1, 1, 1, 0]])
    assert np.array_equal(make_split_transform(ncol(values[0])), design)


def test_design_groups_stack_the_designs_of_each_width():
    rng = np.random.default_rng(5)
    codes = np.stack([rng.integers(0, w, 40) for w in (1, 3, 6, 3, 2, 6, 4)])
    codes[2, codes[2] == 1] = 2  # width 2 with a gap
    seen = []
    for rows, designs, _ in design_groups(codes.astype(float), np.zeros(7, dtype=bool), None, None):
        assert designs.shape == (rows.shape[0], 40, len(np.unique(codes[rows[0]])))
        for row, design in zip(rows, designs):
            levels = np.unique(codes[row])
            assert np.array_equal(design, (codes[row][:, None] == levels).astype(float))
        seen += rows.tolist()
    assert sorted(seen) == list(range(codes.shape[0]))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 200),
    j=st.integers(1, 7),
    k=st.sampled_from([1, 2]),
    levels=st.integers(1, 17),
)
def test_moments_from_the_code_counts_equal_the_moments_from_the_designs(seed, n, j, k, levels):
    # numeric rows of one to four bins and categorical rows of up to 17
    # levels with gaps, stacked by width: each group's code counts are its
    # designs' column sums, and the moments read off them keep every bit
    rng = np.random.default_rng(seed)
    numeric = rng.uniform(size=j) < 0.5
    values = np.where(numeric[:, None], np.round(rng.normal(size=(j, n)), int(rng.integers(0, 2))),
                      rng.integers(0, levels, (j, n)) * int(rng.integers(1, 3)))
    gof = GofMatrix(rng.normal(size=(n, k)) * 10.0 ** int(rng.integers(-3, 4)), dichotomized=False)
    seen = []
    for rows, designs, counts in design_groups(values, numeric, stable_orders(values), None):
        assert counts.shape == designs.shape[::2] and counts.dtype == np.float64
        assert counts.tobytes() == designs.sum(axis=-2).tobytes()
        for got, want in zip(conditional_moments(gof, designs, counts),
                             conditional_moments(gof, designs)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        seen += rows.tolist()
    assert sorted(seen) == list(range(j))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 200),
    j=st.integers(1, 7),
    k=st.sampled_from([1, 2]),
    levels=st.integers(1, 17),
)
def test_sign_tables_counted_from_the_codes_equal_the_design_counts(seed, n, j, k, levels):
    # numeric rows of one to four bins and categorical rows of up to 17
    # levels with gaps; each group's tables are the stack a 0/1 matmul of
    # its designs gave, in bytes and C layout, and the groups coincide
    rng = np.random.default_rng(seed)
    numeric = rng.uniform(size=j) < 0.5
    values = np.where(numeric[:, None], np.round(rng.normal(size=(j, n)), int(rng.integers(0, 2))),
                      rng.integers(0, levels, (j, n)) * int(rng.integers(1, 3)))
    orders = stable_orders(values)
    signs = (rng.uniform(size=(n, k)) < rng.uniform()).astype(float)
    designs = list(design_groups(values, numeric, orders, None))
    tables = list(design_groups(values, numeric, orders, signs))
    assert len(tables) == len(designs)
    for (rows, design, _), (table_rows, table) in zip(designs, tables):
        assert np.array_equal(rows, table_rows)
        ones = signs.T @ design
        want = np.stack((design.sum(axis=-2)[:, None, :] - ones, ones), axis=-2)
        assert table.flags.c_contiguous and table.dtype == np.float64
        assert table.shape == want.shape and table.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), g=st.integers(1, 6), m=st.integers(1, 12))
def test_the_kept_eigenpairs_are_the_last_ones(seed, g, m):
    # eigh sorts each matrix's eigenvalues ascending and the cut-off is one
    # number per matrix, so the numerical range is always a suffix
    eigval, _, keep = eig_pinv_parts(rank_deficient_covariances(np.random.default_rng(seed), g, m))
    assert (np.diff(eigval, axis=-1) >= 0.0).all()
    assert np.array_equal(keep, np.arange(m) >= m - keep.sum(axis=-1)[:, None])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 120),
    j=st.integers(1, 6),
    k=st.sampled_from([1, 2]),
    levels=st.integers(1, 17),
    at=st.integers(0, 6),
)
def test_an_all_numeric_block_codes_its_rows_as_a_mixed_block_does(seed, n, j, k, levels, at):
    # the all-numeric block codes its bins without masks; each numeric row
    # yields the same arrays, in bytes, as inside a block with a level row
    rng = np.random.default_rng(seed)
    values = np.round(rng.normal(size=(j, n)), int(rng.integers(0, 2)))
    at = min(at, j)
    mixed = np.insert(values, at, rng.integers(0, levels, n), axis=0)
    numeric = np.arange(j + 1) != at
    signs = (rng.uniform(size=(n, k)) < rng.uniform()).astype(float)
    for sign in (None, signs):
        alone = groups_by_row(design_groups(values, np.ones(j, dtype=bool), stable_orders(values),
                                            sign))
        inside = groups_by_row(design_groups(mixed, numeric, stable_orders(mixed), sign))
        assert alone == {i: inside[i + (i >= at)] for i in range(j)}
