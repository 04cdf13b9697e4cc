"""Split-variable testing engines against hand oracles and enumeration."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmtrees import inference
from lmtrees.dataset import CATEGORICAL, NUMERIC, Dataset, RngStream, SplitColumn, order_permutation
from lmtrees.inference import (
    StrategyConfig,
    UnsupportedConfigurationError,
    argmin_outcome,
    chisq_statistic,
    conditional_moments,
    fluctuation_process,
    linear_statistic,
    max_abs_test,
    parse_strategy,
    quad_form_test,
    resolve_min_segment,
    select_variable,
    suplm_pvalue,
    suplm_statistic,
    MODE_CAT,
    MODE_LIN,
    MODE_MAX,
    STRATEGIES,
)
from lmtrees.linmod import fit_ols
from lmtrees.special import chi2_sf
from lmtrees.transform import (GofMatrix, TransformError, design_groups, make_gof,
                               make_split_transform)

from helpers import (dense_trim_max, enumeration_moments, float64_table_pvalue, masked_quad_form,
                     ncol, rank_deficient_covariances, run_alone)


def bridge(gof, col):
    # the fluctuation process along the column's own stable order, a stack of one
    return fluctuation_process(gof, col.values[None], order_permutation(col)[None])


def scan(gof, col, min_segment):
    # the supLM statistic of one column and the boundary where it peaks
    cumulative, tie_ends, _ = bridge(gof, col)
    stat, peak = suplm_statistic(cumulative, tie_ends, min_segment)
    return stat[0], peak[0]


def random_node(seed, n):
    # the (y, x) rows of a node and the generator that drew them
    rng = np.random.default_rng(seed)
    return (rng.normal(size=n), rng.uniform(-1, 1, n)), rng


def node_gof(node, use_scores, dichotomize):
    y, x = node
    return make_gof(fit_ols(y, x), y, x, use_scores, dichotomize)


# ----------------------------------------------------------- linear statistic


def test_linear_statistic_single_column_is_cross_product():
    gof = GofMatrix(np.array([[1.0], [2.0], [-1.0]]), dichotomized=False)
    design = np.array([[0.5], [1.0], [2.0]])
    t = linear_statistic(gof, design)
    assert t == pytest.approx([0.5 + 2.0 - 2.0])


def test_linear_statistic_stacks_design_blocks_per_gof_column():
    gof = GofMatrix(np.array([[1.0, 10.0], [2.0, 20.0]]), dichotomized=False)
    design = np.array([[1.0, 0.0], [0.0, 1.0]])
    t = linear_statistic(gof, design)
    # all design entries against gof column 1, then against gof column 2
    assert t == pytest.approx([1.0, 2.0, 10.0, 20.0])


def test_linear_statistic_one_hot_is_per_bin_sums():
    gof = GofMatrix(np.array([[1.0], [2.0], [4.0], [8.0]]), dichotomized=False)
    design = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
    assert linear_statistic(gof, design) == pytest.approx([3.0, 12.0])


# ------------------------------------------------- permutation moment oracle


@pytest.mark.parametrize(
    "seed,n,k,onehot",
    [(11, 5, 1, False), (12, 6, 1, True), (13, 6, 2, False), (14, 5, 2, True), (15, 6, 2, True)],
)
def test_conditional_moments_match_exhaustive_enumeration(seed, n, k, onehot):
    rng = np.random.default_rng(seed)
    gof_values = rng.normal(size=(n, k))
    if onehot:
        labels = rng.integers(0, 3, size=n)
        design = np.zeros((n, 3))
        design[np.arange(n), labels] = 1.0
        design = design[:, design.sum(axis=0) > 0]
    else:
        design = rng.normal(size=(n, 1))
    gof = GofMatrix(gof_values, dichotomized=False)
    mom_mean, mom_cov = conditional_moments(gof, design)
    mean, cov = enumeration_moments(gof_values, design)
    assert np.allclose(mom_mean, mean, atol=1e-10)
    assert np.allclose(mom_cov, cov, atol=1e-10)


def test_conditional_moments_of_constant_gof_are_degenerate():
    gof = GofMatrix(np.full((5, 1), 2.0), dichotomized=False)
    design = np.arange(5.0)[:, None]
    _, cov = conditional_moments(gof, design)
    assert np.allclose(cov, 0.0, atol=1e-12)


# ------------------------------------------------------------ quadratic form


def test_quad_form_scalar_example():
    stat, df, p = quad_form_test(np.array([[3.0]]), np.array([[1.0]]), np.array([[[4.0]]]))
    assert stat[0] == pytest.approx(1.0, abs=1e-12)
    assert df[0] == 1
    assert p[0] == pytest.approx(0.3173105078629141, abs=1e-10)


def test_quad_form_zero_covariance_is_degenerate():
    stat, df, p = quad_form_test(np.array([[1.0]]), np.array([[1.0]]), np.array([[[0.0]]]))
    assert (stat.tolist(), df.tolist(), p) == ([0.0], [0], [1.0])


def test_quad_form_uses_rank_of_singular_covariance():
    # duplicated coordinate: covariance rank 1, the duplicate adds nothing
    stat1, df1, _ = quad_form_test(np.array([[1.5]]), np.array([[0.0]]), np.array([[[2.0]]]))
    cov2 = np.array([[[2.0, 2.0], [2.0, 2.0]]])
    stat2, df2, _ = quad_form_test(np.array([[1.5, 1.5]]), np.zeros((1, 2)), cov2)
    assert df1[0] == df2[0] == 1
    assert stat2[0] == pytest.approx(stat1[0], rel=1e-10)


def test_quad_form_is_invariant_to_coordinate_scaling():
    rng = np.random.default_rng(21)
    a = rng.normal(size=(3, 3))
    cov = a @ a.T
    mean = rng.normal(size=3)
    t = rng.normal(size=3)
    stat, df, p = quad_form_test(t[None], mean[None], cov[None])
    scale = np.diag([2.0, 0.5, 7.0])
    stat2, df2, p2 = quad_form_test((scale @ t)[None], (scale @ mean)[None],
                                    (scale @ cov @ scale)[None])
    assert df2[0] == df[0]
    assert stat2[0] == pytest.approx(stat[0], rel=1e-9)
    assert p2[0] == pytest.approx(p[0], rel=1e-9)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), g=st.integers(1, 6), m=st.integers(1, 12))
def test_quad_form_equals_the_masked_eigenpairs_bit_for_bit(seed, g, m):
    # the kept eigenpairs read as slices project as their boolean-mask
    # copies did: statistics in bytes, df and p-values, at every rank
    rng = np.random.default_rng(seed)
    cov = rank_deficient_covariances(rng, g, m)
    t, mean = rng.normal(size=(g, m)), rng.normal(size=(g, m))
    stat, df, p = quad_form_test(t, mean, cov)
    want_stat, want_df = masked_quad_form(t, mean, cov)
    assert stat.tobytes() == want_stat.tobytes() and df.tolist() == want_df.tolist()
    assert p == [chi2_sf(s, d) if d else 1.0 for s, d in zip(want_stat.tolist(), want_df.tolist())]


@pytest.mark.parametrize("k", [1, 2])
def test_quad_form_of_one_hot_moments_equals_the_masked_eigenpairs(k):
    # a one-hot design's permutation covariance drops rank, as its codes
    # sum to one in every row (a design of one code drops all of it, up to
    # rounding); stacks of 1 to 12 codes against k gof columns
    rng = np.random.default_rng(11 + k)
    values = rng.integers(0, rng.integers(1, 13, 24)[:, None], (24, 90)).astype(float)
    gof = GofMatrix(rng.normal(size=(90, k)), dichotomized=False)
    for _, designs, counts in design_groups(values, np.zeros(24, dtype=bool), None, None):
        t, (mean, cov) = linear_statistic(gof, designs), conditional_moments(gof, designs, counts)
        stat, df, _ = quad_form_test(t, mean, cov)
        want_stat, want_df = masked_quad_form(t, mean, cov)
        assert designs.shape[-1] == 1 or (df < t.shape[-1]).all()
        assert df.tolist() == want_df.tolist()
        assert stat.tobytes() == want_stat.tobytes()


# ------------------------------------------------------------------- max abs


def test_max_abs_two_sided_normal_tail():
    stat, p = max_abs_test(np.array([[0.5 + 2.0 * 1.959964]]), np.array([[0.5]]),
                           np.array([[[4.0]]]))
    assert stat[0] == pytest.approx(1.959964, abs=1e-12)
    assert p[0] == pytest.approx(2 * 0.024999999096442402, abs=1e-10)


def test_max_abs_degenerate_variance():
    stat, p = max_abs_test(np.array([[1.0]]), np.array([[1.0]]), np.array([[[0.0]]]))
    assert (stat.tolist(), p) == ([0.0], [1.0])


# ------------------------------------------------------------------ contingency


def dich_gof(zeros_per_bin, ones_per_bin):
    """Build a dichotomized single-column gof and matching one-hot design."""
    values = []
    labels = []
    for b, (z, o) in enumerate(zip(zeros_per_bin, ones_per_bin)):
        values.extend([0.0] * z + [1.0] * o)
        labels.extend([b] * (z + o))
    design = np.zeros((len(labels), len(zeros_per_bin)))
    design[np.arange(len(labels)), labels] = 1.0
    return GofMatrix(np.array(values)[:, None], dichotomized=True), design


def test_contingency_hand_example():
    gof, design = dich_gof([20, 10], [10, 20])
    stat, df = chisq_statistic(gof, design)
    assert stat == pytest.approx(100.0 / 15.0, abs=1e-10)
    assert df == 1
    from lmtrees.special import chi2_sf

    assert chi2_sf(stat, df) == pytest.approx(0.0098232745075192464, abs=1e-10)


def test_contingency_perfect_independence():
    gof, design = dich_gof([10, 10, 10, 10], [10, 10, 10, 10])
    stat, df = chisq_statistic(gof, design)
    assert stat == pytest.approx(0.0, abs=1e-12)
    assert df == 3


def test_contingency_adds_across_gof_columns():
    gof1, design = dich_gof([20, 10], [10, 20])
    doubled = GofMatrix(np.hstack([gof1.values, gof1.values]), dichotomized=True)
    stat1, df1 = chisq_statistic(gof1, design)
    stat2, df2 = chisq_statistic(doubled, design)
    assert stat2 == pytest.approx(2 * stat1, rel=1e-12)
    assert df2 == 2 * df1


def test_contingency_constant_sign_column_contributes_nothing():
    gof, design = dich_gof([15, 15], [0, 0])  # all zeros: one empty sign row
    assert chisq_statistic(gof, design) == (0.0, 0)


def test_contingency_drops_empty_bins():
    gof, design = dich_gof([20, 10], [10, 20])
    padded = np.hstack([design, np.zeros((design.shape[0], 1))])
    stat, df = chisq_statistic(gof, padded)
    assert stat == pytest.approx(100.0 / 15.0, abs=1e-10)
    assert df == 1


def test_contingency_requires_dichotomized_gof():
    gof = GofMatrix(np.array([[0.5], [1.5]]), dichotomized=False)
    with pytest.raises(UnsupportedConfigurationError):
        chisq_statistic(gof, np.eye(2))


# ----------------------------------------------------------------- sup process


def test_fluctuation_process_is_a_bridge():
    node, rng = random_node(31, 40)
    gof = node_gof(node, use_scores=True, dichotomize=False)
    cumulative = bridge(gof, ncol(rng.normal(size=40)))[0][0]
    assert cumulative.shape == (41, 2)
    assert np.allclose(cumulative[0], 0.0, atol=1e-14)
    assert np.allclose(cumulative[-1], 0.0, atol=1e-10)


def test_fluctuation_process_centers_dichotomized_input():
    node, rng = random_node(32, 30)
    gof = node_gof(node, use_scores=True, dichotomize=True)
    cumulative = bridge(gof, ncol(rng.normal(size=30)))[0][0]
    # sign indicators do not sum to zero, centering must close the bridge
    assert np.allclose(cumulative[-1], 0.0, atol=1e-10)


def test_fluctuation_process_rejects_constant_gof():
    # rank 0: every process is zero, and the max route marks the column
    gof = GofMatrix(np.ones((12, 1)), dichotomized=True)
    cumulative, _, k_eff = bridge(gof, ncol(np.arange(12.0)))
    assert k_eff == 0
    assert not cumulative.any()


def test_suplm_hand_oracle():
    gof = GofMatrix(np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])[:, None], dichotomized=False)
    col = ncol([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    stat, peak = scan(gof, col, min_segment=1)
    assert stat == pytest.approx(6.0, abs=1e-12)
    assert peak == 3
    # the boundary values are 1.2, 3, 6, 3, 1.2; trimming to [2, 4] keeps 6
    stat2, peak2 = scan(gof, col, min_segment=2)
    assert stat2 == pytest.approx(6.0, abs=1e-12)
    assert peak2 == 3
    # trimming away every boundary marks the scan: statistic 0, boundary -1
    assert scan(gof, col, min_segment=4) == (0.0, -1)


def test_suplm_matches_termwise_recomputation():
    node, rng = random_node(33, 60)
    gof = node_gof(node, use_scores=True, dichotomize=False)
    col = ncol(rng.normal(size=60))
    ms = 9
    stat, peak = scan(gof, col, ms)

    # independent recomputation straight from the definition
    s = gof.values - gof.values.mean(axis=0)
    order = np.argsort(col.values, kind="stable")
    n = s.shape[0]
    vhat = (s.T @ s) / n
    w, v = np.linalg.eigh((vhat + vhat.T) / 2)
    root_inv = v @ np.diag(1.0 / np.sqrt(w)) @ v.T
    walk = np.cumsum(s[order] @ root_inv, axis=0) / math.sqrt(n)
    best, best_i = -np.inf, None
    for i in range(ms, n - ms + 1):
        frac = i / n
        val = float(walk[i - 1] @ walk[i - 1]) / (frac * (1 - frac))
        if val > best + 1e-15:
            best, best_i = val, i
    assert stat == pytest.approx(best, rel=1e-10)
    assert peak == best_i


def test_suplm_pvalue_behaviour():
    assert suplm_pvalue(0.0, 1, 25, 250) == 1.0
    assert suplm_pvalue(80.0, 1, 25, 250) < 1e-3
    p_small = suplm_pvalue(5.0, 1, 25, 250)
    p_big = suplm_pvalue(10.0, 1, 25, 250)
    assert p_big < p_small
    # repeated lookups are bit-identical
    assert suplm_pvalue(7.3, 2, 25, 250) == suplm_pvalue(7.3, 2, 25, 250)
    with pytest.raises(UnsupportedConfigurationError):
        suplm_pvalue(1.0, 0, 10, 100)
    with pytest.raises(UnsupportedConfigurationError):
        suplm_pvalue(1.0, 1, 60, 100)


def test_suplm_pvalue_agrees_with_independent_simulation():
    # fresh Monte-Carlo of the same limit functional with a different
    # generator and batch layout; agreement within joint sampling error
    grid = 1000
    trim = 100  # matches min_segment 25 of 250 rows
    rng = np.random.default_rng(987001)
    reps = 20000
    sups = np.empty(reps)
    t = np.arange(1, grid) / grid
    weight = 1.0 / (t * (1.0 - t))
    done = 0
    while done < reps:
        b = min(4000, reps - done)
        steps = rng.standard_normal((b, grid)) / math.sqrt(grid)
        walk = np.cumsum(steps, axis=1)
        bridge = walk[:, : grid - 1] - t[None, :] * walk[:, -1:]
        w = bridge * bridge * weight[None, :]
        sups[done : done + b] = w[:, trim - 1 : grid - trim].max(axis=1)
        done += b
    for stat in (4.0, 7.0, 10.0, 13.0):
        independent = float(np.mean(sups >= stat))
        assert suplm_pvalue(stat, 1, 25, 250) == pytest.approx(independent, abs=0.015)


def _former_trim_max(k):
    """The null-table build with its earlier per-boundary fold loop."""
    grid = inference.NULL_TABLE_GRID
    half = grid // 2
    rng = np.random.Generator(
        np.random.Philox(key=np.array([inference.NULL_TABLE_SEED, k], dtype=np.uint64))
    )
    reps = inference.NULL_TABLE_REPLICATES
    out = np.empty((reps, half), dtype=np.float32)
    t = np.arange(1, grid) / grid
    weight = 1.0 / (t * (1.0 - t))
    done = 0
    while done < reps:
        b = min(2500, reps - done)
        steps = rng.standard_normal((b, grid, k)) / math.sqrt(grid)
        walk = np.cumsum(steps, axis=1)
        bridge = walk[:, : grid - 1, :] - t[None, :, None] * walk[:, -1:, :]
        w = np.einsum("igk,igk->ig", bridge, bridge) * weight[None, :]
        m = out[done : done + b]
        m[:, half - 1] = w[:, half - 1]
        for g in range(half - 1, 0, -1):
            np.maximum(w[:, g - 1], w[:, grid - g - 1], out=w[:, g - 1])
            np.maximum(w[:, g - 1], m[:, g], out=m[:, g - 1])
        done += b
    return out


# the build draws 64 paths a batch: 40 fit in one partial batch, 128 fill
# two exactly, and 129 leave a last batch of one path
@pytest.mark.parametrize(
    "k,reps",
    [(1, 300), (2, 300), (1, 1200), (2, 1200),
     (1, 40), (2, 40), (1, 128), (2, 128), (1, 129), (2, 129)],
    ids=["1", "2", "1-1200", "2-1200", "1-40", "2-40", "1-128", "2-128", "1-129", "2-129"],
)
def test_null_table_fold_matches_former_loop(monkeypatch, k, reps):
    # 1 200 replicates span several build batches but one former batch
    monkeypatch.setattr(inference, "NULL_TABLE_REPLICATES", reps)
    built = dense_trim_max(inference._NullTableCache(), k)
    former = _former_trim_max(k)
    assert built.dtype == np.float32 and built.shape == (reps, inference.NULL_TABLE_GRID // 2)
    assert np.array_equal(built, former)


# sha256 of the full-size 20 000 x 500 float32 trim maxima: a change to
# any bit moves supLM p-values, and so mob's and ctree+max's trees
NULL_TABLE_SHA256 = {
    1: "e1814c8a26c3fbb4642654d94e5adfc9f4905c3e2262c74758db614e02946874",
    2: "8d124cdf1751a64c0feea13f4f739df5325248dadc8b997d2ad59d70ed148661",
}


@pytest.mark.parametrize("k", [1, 2])
def test_null_table_full_size_bits(k):
    # suplm_pvalue builds the process's table for k, or reuses it
    suplm_pvalue(1.0, k, 25, 250)
    built = dense_trim_max(inference._NULL_TABLES, k)
    assert hashlib.sha256(built.tobytes()).hexdigest() == NULL_TABLE_SHA256[k]


def test_null_table_build_temporaries_stay_bounded(monkeypatch):
    # the build's buffers, per-batch arrays and the run store it keeps take
    # a few MB in all; a dense float32 table alone would take 4 MB here
    monkeypatch.setattr(inference, "NULL_TABLE_REPLICATES", 2000)
    tracemalloc.start()
    try:
        inference._NullTableCache().column(2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, f"{peak} bytes at the build's peak"


def test_null_table_full_size_stores_stay_small():
    # a dense float32 table of 20 000 paths x 500 trimmings takes 40 MB per
    # k, but each path's running maxima take about 29 distinct values
    for k in (1, 2):
        suplm_pvalue(1.0, k, 25, 250)
    cache = inference._NULL_TABLES
    held = sum(store[k].nbytes for store in (cache._run_ends, cache._run_values) for k in (1, 2))
    assert held < 12e6, f"{held} bytes in the two run stores"


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("trim", [1, 100, 250, 500])
def test_float32_null_table_gives_the_float64_tables_pvalues(k, trim):
    # min_segment = trim of NULL_TABLE_GRID rows reads trimming `trim`
    n = inference.NULL_TABLE_GRID
    values = inference._NULL_TABLES.column(k, trim)
    above = np.nextafter(values, np.float32(np.inf))
    values = values.astype(float)
    # a midpoint of adjacent float32 values casts to either neighbour
    stats = np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf),
                            (values + above) / 2, [0.0, 1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 1e300 overflows the float32 cast
        got = suplm_pvalue(stats, k, trim, n)
        scalars = [(suplm_pvalue(s, k, trim, n), s) for s in [*stats[::97].tolist(), 0.0, 1e300]]
    want = float64_table_pvalue(stats, k, trim)
    assert type(got) is type(want) and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    for p, s in scalars:
        expected = float64_table_pvalue(s, k, trim)
        assert type(p) is type(expected) and p == expected
    assert inference._NULL_TABLES.table(k, trim).dtype == np.float32  # 80 kB, not 160 kB


def test_suplm_trim_index_avoids_float_rounding():
    # 10% of 250 rows must map to grid index 100, not 101
    p_a = suplm_pvalue(9.0, 1, 25, 250)
    p_b = suplm_pvalue(9.0, 1, 100, 1000)
    assert p_a == p_b


# ------------------------------------------------------------------- dispatch


def make_data(seed=41, n=80):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    x = rng.uniform(-1, 1, n)
    z = (
        SplitColumn("z1", NUMERIC, rng.normal(size=n)),
        SplitColumn("z2", NUMERIC, rng.uniform(-1, 1, n)),
        SplitColumn("g", CATEGORICAL, rng.integers(0, 3, n), levels=("a", "b", "c")),
    )
    return Dataset(y, x, z)


ALL_TRIPLES = [
    (use_scores, dichotomize, mode)
    for use_scores in (False, True)
    for dichotomize in (False, True)
    for mode in (MODE_LIN, MODE_CAT, MODE_MAX)
]


@pytest.mark.parametrize("use_scores,dichotomize,mode", ALL_TRIPLES)
def test_every_strategy_combination_dispatches(use_scores, dichotomize, mode):
    data = make_data()
    config = StrategyConfig(use_scores=use_scores, dichotomize=dichotomize, split_mode=mode)
    out = run_alone(config, data.y, data.x, data.column("z1"))
    assert out.variable == "z1"
    assert 0.0 <= out.p_value <= 1.0
    if mode == MODE_MAX:
        assert out.law == "suplm"
    elif mode == MODE_CAT and dichotomize:
        assert out.law == "chi2"
        assert out.df == (3 if use_scores and dichotomize else 3) or out.df > 0
    elif mode == MODE_LIN and not use_scores:
        assert out.law == "normal"
    else:
        assert out.law == "chi2"


def test_categorical_column_always_uses_level_design():
    data = make_data()
    col = data.column("g")
    for mode in (MODE_LIN, MODE_MAX, MODE_CAT):
        out = run_alone(StrategyConfig(False, False, mode), data.y, data.x, col)
        assert out.law == "chi2"  # quadratic form over one-hot levels
    dich = run_alone(StrategyConfig(False, True, MODE_LIN), data.y, data.x, col)
    assert dich.law == "chi2"


def test_named_strategies_resolve_to_expected_engines():
    data = make_data()
    col = data.column("z1")
    # score-based strategies carry two gof columns, so the "lin" engines land
    # in the quadratic-form chi2 branch rather than the scalar normal branch
    expected_laws = {
        "ctree": "chi2",
        "mob": "suplm",
        "guide": "chi2",
        "guide+scores": "chi2",
        "ctree+max": "suplm",
        "ctree+cat": "chi2",
        "ctree+dich": "chi2",
        "mob+cat": "chi2",
        "mob+dich": "suplm",
    }
    assert set(expected_laws) == set(STRATEGIES)
    for name, law in expected_laws.items():
        out = run_alone(parse_strategy(name), data.y, data.x, col)
        assert out.law == law, name


def test_parse_strategy_accepts_triples_and_overrides():
    cfg = parse_strategy("scores,nodich,max", alpha=0.01)
    assert cfg.use_scores and not cfg.dichotomize and cfg.split_mode == MODE_MAX
    assert cfg.alpha == 0.01
    with pytest.raises(UnsupportedConfigurationError):
        parse_strategy("bogus")
    try:
        parse_strategy("bogus")
    except UnsupportedConfigurationError as err:
        assert "mob" in str(err) and "guide" in str(err)


def test_config_and_outcome_validation():
    with pytest.raises(UnsupportedConfigurationError, match="min_segment must be at least 1"):
        StrategyConfig(use_scores=True, dichotomize=False, split_mode=MODE_LIN, min_segment=0)
    with pytest.raises(ValueError, match=r"p-value outside \[0, 1\]"):
        inference.TestOutcome("z1", 1.0, 1.5, "chi2", 1)


def test_constant_column_degeneracy_per_engine():
    data = make_data()
    zeros = ncol(np.zeros(data.n), name="flat")
    ones = ncol(np.ones(data.n), name="flat")

    # quadratic form: an all-zero column zeroes the covariance exactly
    out = run_alone(parse_strategy("ctree"), data.y, data.x, zeros)
    assert out.law == "degenerate" and out.p_value == 1.0
    # a constant nonzero column leaves float noise in the covariance; the
    # rank procedure keeps one dimension but the p-value is still ~1
    out = run_alone(parse_strategy("ctree"), data.y, data.x, ones)
    assert out.p_value > 0.999

    # binned contingency engine: one bin means zero contrast dimensions
    for col in (zeros, ones):
        out = run_alone(parse_strategy("guide"), data.y, data.x, col)
        assert out.law == "degenerate" and out.p_value == 1.0

    # order-statistic engine: a constant column is one tie block, so no
    # boundary inside the trimming range is a cut point
    for col in (zeros, ones):
        out = run_alone(parse_strategy("mob"), data.y, data.x, col)
        assert out.law == "degenerate" and out.p_value == 1.0


def test_suplm_scans_only_tie_block_ends():
    # rows 3..5 share one value: boundaries 3 and 4 fall inside the block
    gof = GofMatrix(np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])[:, None], dichotomized=False)
    col = ncol([1.0, 2.0, 3.0, 3.0, 3.0, 4.0])
    cumulative, tie_ends, _ = bridge(gof, col)
    assert tie_ends[0].tolist() == [True, True, True, False, False, True, True]
    # boundary values are 1.2, 3, 6, 3, 1.2; the peak 6 at boundary 3 lies
    # inside the block, so the largest value at a block end is 3 at 2
    stat, peak = suplm_statistic(cumulative, tie_ends, min_segment=1)
    assert stat[0] == pytest.approx(3.0, abs=1e-12)
    assert peak[0] == 2
    # boundary 3 is the only admissible one and falls inside the block
    stat, peak = suplm_statistic(cumulative, tie_ends, min_segment=3)
    assert (stat.tolist(), peak.tolist()) == ([0.0], [-1])


def tied_study(seed, n, distinct):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    z = rng.integers(0, distinct, n).astype(float)
    y = 0.3 * np.where(z >= distinct / 2, 1.0, -1.0) + x + rng.normal(size=n)
    return y, x, z


def permuted_outcomes(name, y, x, z, perm):
    config = parse_strategy(name)
    return (
        run_alone(config, y, x, ncol(z)),
        run_alone(config, y[perm], x[perm], ncol(z[perm])),
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(24, 160),
    distinct=st.integers(2, 5),
)
def test_every_strategy_is_invariant_to_row_order_on_tied_columns(seed, n, distinct):
    y, x, z = tied_study(seed, n, distinct)
    perm = np.random.default_rng(seed + 1).permutation(n)
    for name in STRATEGIES:
        before, after = permuted_outcomes(name, y, x, z, perm)
        assert after.law == before.law, name
        assert after.statistic == pytest.approx(before.statistic, rel=1e-12), name
        assert after.p_value == pytest.approx(before.p_value, rel=1e-12), name


@pytest.mark.parametrize("name", ["mob", "mob+dich"])
def test_max_route_pvalue_ignores_the_order_of_tied_rows(name):
    # a four-valued column: scanning boundaries inside tie blocks let the
    # stable-sort order of the tied rows move these p-values several-fold
    y, x, z = tied_study(5, 200, 4)
    config = parse_strategy(name)
    p_values = set()
    for k in range(6):
        perm = np.random.default_rng(k).permutation(200)
        p_values.add(run_alone(config, y[perm], x[perm], ncol(z[perm])).p_value)
    assert len(p_values) == 1


@pytest.mark.parametrize("name", ["guide", "ctree+cat"])
def test_tiny_numeric_column_is_degenerate_for_binned_engines(name):
    # three rows have no quartiles: the binned engines end the test at p = 1
    y, x = np.array([0.3, -1.0, 2.0]), np.array([0.0, 1.0, 3.0])
    out = run_alone(parse_strategy(name), y, x, ncol([1.0, 2.0, 5.0]))
    assert out.law == "degenerate" and out.p_value == 1.0


def perfect_node(n):
    # y = 1 + 2x exactly: every residual and score is exactly zero
    x = np.arange(float(n))
    return 1.0 + 2.0 * x, x


# the value each field of an entry takes when the entry is marked degenerate
MARKS = {"statistic": 0.0, "df": 0, "p": 1.0, "boundary": -1}


def linear_route(engine, fields):
    def call(config, gof, col):
        design = col.values[None, :, None]
        return dict(zip(fields, engine(linear_statistic(gof, design),
                                       *conditional_moments(gof, design))))

    return call


def contingency(config, gof, col):
    return dict(zip(("statistic", "df"), chisq_statistic(gof, make_split_transform(col))))


def three_row_bins(config, gof, col):
    # no quartiles, so no design: the binned route never tests the column
    with pytest.raises(TransformError):
        make_split_transform(col)
    return {}


def suplm_scan(config, gof, col):
    stat, peak = scan(gof, col, resolve_min_segment(gof.n, config.min_segment))
    return {"statistic": stat, "boundary": peak}


def fluctuation_rank(config, gof, col):
    # a rank-0 gof: zero processes, whose scan finds statistic 0 at rank 0
    cumulative, tie_ends, k_eff = bridge(gof, col)
    stat, _ = suplm_statistic(cumulative, tie_ends, resolve_min_segment(gof.n, config.min_segment))
    return {"statistic": stat, "df": k_eff}


ALTERNATING = (np.array([1.0, -1.0, 1.0, -1.0]), np.array([0.0, 0.0, 1.0, 1.0]))

DEGENERATE_INPUTS = [
    # strategy, node rows (y, x), column, and the engine call that must mark its entry
    pytest.param(parse_strategy("ctree"), perfect_node(8), ncol(np.arange(8.0)),
                 linear_route(quad_form_test, ("statistic", "df", "p")), id="quad_form_rank_zero"),
    pytest.param(parse_strategy("residuals,nodich,lin"), perfect_node(8), ncol(np.arange(8.0)),
                 linear_route(max_abs_test, ("statistic", "p")), id="max_abs_zero_variance"),
    # variance 4/3, but the statistic equals its permutation mean exactly
    pytest.param(parse_strategy("residuals,nodich,lin"), ALTERNATING, ncol([1.0, 1.0, 2.0, 2.0]),
                 linear_route(max_abs_test, ("statistic", "p")), id="max_abs_zero_statistic"),
    pytest.param(parse_strategy("guide"), random_node(73, 30)[0], ncol(np.zeros(30)),
                 contingency, id="chisq_one_bin"),
    pytest.param(parse_strategy("guide"), perfect_node(8), ncol(np.arange(8.0)), contingency,
                 id="chisq_constant_sign"),
    pytest.param(parse_strategy("ctree+cat"),
                 (np.array([0.3, -1.0, 2.0]), np.array([0.0, 1.0, 3.0])), ncol([1.0, 2.0, 5.0]),
                 three_row_bins, id="bins_of_three_rows"),
    pytest.param(parse_strategy("mob"), random_node(74, 40)[0], ncol([0.0] * 39 + [1.0]),
                 suplm_scan, id="suplm_no_tie_end"),
    # segments of 16 in 30 rows: the trimming window holds no boundary
    pytest.param(parse_strategy("mob", min_segment=16), random_node(75, 30)[0],
                 ncol(np.arange(30.0)), suplm_scan, id="suplm_empty_window"),
    pytest.param(parse_strategy("mob"), perfect_node(30), ncol(np.arange(30.0)),
                 fluctuation_rank, id="fluctuation_zero_gof"),
    # zero residuals all dichotomize to one: a constant gof on the max route
    pytest.param(parse_strategy("residuals,dich,max"), perfect_node(30), ncol(np.arange(30.0)),
                 fluctuation_rank, id="max_route_rank_zero"),
]


@pytest.mark.parametrize("config,node,col,engine", DEGENERATE_INPUTS)
def test_degenerate_input_raises_in_its_engine_and_ends_at_p_one(config, node, col, engine):
    # no engine raises on such input: each marks its entries and returns
    for field, values in engine(config, node_gof(node, config.use_scores, config.dichotomize),
                                col).items():
        assert np.ravel(values).tolist() == [MARKS[field]], field
    out = run_alone(config, *node, col)
    assert (out.law, out.statistic, out.p_value, out.df) == ("degenerate", 0.0, 1.0, 0)


def test_min_segment_default_resolution():
    assert resolve_min_segment(250, None) == 25
    assert resolve_min_segment(40, None) == 10
    assert resolve_min_segment(1001, None) == 101
    assert resolve_min_segment(250, 40) == 40


# ------------------------------------------------------------------ selection


def test_select_variable_orders_and_gates():
    rng = np.random.default_rng(55)
    n = 200
    z1 = rng.normal(size=n)
    y = 1.5 * (z1 > 0) + rng.normal(size=n) * 0.3
    x = rng.uniform(-1, 1, n)
    data = Dataset(
        y,
        x,
        (
            SplitColumn("z1", NUMERIC, z1),
            SplitColumn("z2", NUMERIC, rng.normal(size=n)),
            SplitColumn("z3", NUMERIC, rng.uniform(-1, 1, n)),
        ),
    )
    fit = fit_ols(data.y, data.x)
    outcomes, chosen = select_variable(parse_strategy("mob"), fit, data)
    assert [o.variable for o in outcomes] == ["z1", "z2", "z3"]
    assert chosen == "z1"


def test_select_variable_gate_respects_multiplicity():
    # a p-value that passes raw but not family-adjusted comparison
    rng = np.random.default_rng(56)
    n = 120
    z = [SplitColumn(f"z{j}", NUMERIC, rng.normal(size=n)) for j in range(1, 11)]
    data = Dataset(rng.normal(size=n), rng.uniform(-1, 1, n), tuple(z))
    fit = fit_ols(data.y, data.x)
    raw = parse_strategy("ctree", multiplicity="none", alpha=0.9999)
    outcomes, chosen_raw = select_variable(raw, fit, data)
    assert chosen_raw is not None
    adj = parse_strategy("ctree", multiplicity="bonferroni", alpha=0.0001)
    outcomes_adj, chosen_adj = select_variable(adj, fit, data)
    assert chosen_adj is None
    assert [o.p_value for o in outcomes] == [o.p_value for o in outcomes_adj]


def test_select_variable_ties_break_to_first_column():
    rng = np.random.default_rng(57)
    n = 150
    zvals = rng.normal(size=n)
    y = (zvals > 0) * 2.0 + rng.normal(size=n) * 0.2
    data = Dataset(
        y,
        rng.uniform(-1, 1, n),
        (
            SplitColumn("za", NUMERIC, zvals),
            SplitColumn("zb", NUMERIC, zvals.copy()),
        ),
    )
    fit = fit_ols(data.y, data.x)
    outcomes, chosen = select_variable(parse_strategy("ctree"), fit, data)
    assert outcomes[0].p_value == outcomes[1].p_value
    assert chosen == "za"


def test_select_variable_ignores_degenerate_tests_in_family_size():
    rng = np.random.default_rng(58)
    n = 100
    live = rng.normal(size=n)
    y = (live > 0) * 1.0 + rng.normal(size=n) * 0.5
    data = Dataset(
        y,
        rng.uniform(-1, 1, n),
        (
            SplitColumn("z1", NUMERIC, live),
            SplitColumn("flat", NUMERIC, np.zeros(n)),
        ),
    )
    fit = fit_ols(data.y, data.x)
    outcomes, chosen = select_variable(parse_strategy("ctree"), fit, data)
    degenerate = [o for o in outcomes if o.law == "degenerate"]
    assert len(degenerate) == 1
    assert chosen == "z1"


def test_argmin_outcome_skips_degenerate_and_returns_none_when_all_are():
    a = parse_strategy("ctree")
    data = make_data()
    flat1 = run_alone(a, data.y, data.x, ncol(np.zeros(data.n), name="f1"))
    flat2 = run_alone(a, data.y, data.x, ncol(np.zeros(data.n), name="f2"))
    assert argmin_outcome([flat1, flat2]) is None
    live = run_alone(a, data.y, data.x, data.column("z1"))
    assert argmin_outcome([flat1, live, flat2]) is live


# --------------------------------------------------------------- invariances


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_statistics_ignore_response_scale(name):
    rng = np.random.default_rng(61)
    n = 120
    y = rng.normal(size=n)
    x = rng.uniform(-1, 1, n)
    zvals = rng.normal(size=n)
    col = ncol(zvals)
    cfg = parse_strategy(name)
    base = run_alone(cfg, y, x, col)
    for factor in (1e-8, 1e8):
        scaled = run_alone(cfg, y * factor, x, col)
        assert scaled.law == base.law
        assert scaled.p_value == pytest.approx(base.p_value, rel=1e-8, abs=1e-12)
        assert scaled.statistic == pytest.approx(base.statistic, rel=1e-7, abs=1e-9)


def test_engines_hold_their_size_under_the_null():
    reps = 400
    master = RngStream(99, 0)
    hits = {name: 0 for name in ("ctree", "mob", "guide", "guide+scores")}
    configs = {name: parse_strategy(name) for name in hits}
    for rep in range(reps):
        rng = master.substream("nullsize", rep)
        n = 250
        y = rng.standard_normal(n)
        x = rng.uniform(-1.0, 1.0, n)
        z1 = rng.uniform(-1.0, 1.0, n)
        data = Dataset(y, x, (SplitColumn("z1", NUMERIC, z1),))
        for name, cfg in configs.items():
            out = run_alone(cfg, data.y, data.x, data.column("z1"))
            hits[name] += out.p_value < 0.05
    for name, count in hits.items():
        rate = count / reps
        assert 0.01 <= rate <= 0.10, f"{name} null rejection rate {rate}"


def test_outcomes_are_deterministic():
    data = make_data()
    for name in sorted(STRATEGIES):
        cfg = parse_strategy(name)
        a = run_alone(cfg, data.y, data.x, data.column("z1"))
        b = run_alone(cfg, data.y, data.x, data.column("z1"))
        assert (a.statistic, a.p_value, a.law, a.df) == (b.statistic, b.p_value, b.law, b.df)


def test_strategy_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(False, False, "spline")
    with pytest.raises(ValueError):
        StrategyConfig(False, False, MODE_LIN, alpha=0.0)
    with pytest.raises(ValueError):
        StrategyConfig(False, False, MODE_LIN, multiplicity="holm")
