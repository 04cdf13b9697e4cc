"""Simulation harness: generators, ARI, paired studies, aggregation, CSV."""

import csv
import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from lmtrees.dataset import RngStream
from lmtrees.inference import parse_strategy
from lmtrees.sim import (
    AGG_COLUMNS,
    LONG_COLUMNS,
    ReplicationRecord,
    ScenarioConfig,
    adjusted_rand_index,
    aggregate_records,
    generate,
    run_study,
    true_partition,
    write_aggregate_csv,
    write_records_csv,
)
from lmtrees.tree import GrowControl

from helpers import strat_list


def cell(scenario="stump", variation="intercept", xi=0.0, delta=1.0, **kw):
    return ScenarioConfig(scenario=scenario, variation=variation, xi=xi, delta=delta, **kw)


def big(config):
    return generate(config, RngStream(123, 0).substream("data", "probe"))


def side_fit(y, x, mask):
    """Per-regime least squares (intercept, slope) by an independent solver."""
    design = np.column_stack([np.ones(mask.sum()), x[mask]])
    coef, *_ = np.linalg.lstsq(design, y[mask], rcond=None)
    return coef


# ------------------------------------------------------------------ generators


def test_stump_intercept_regimes():
    config = cell(n=4000)
    data = big(config)
    z1 = data.column("z1").values
    right = z1 > 0.0
    b_r = side_fit(data.y, data.x, right)
    b_l = side_fit(data.y, data.x, ~right)
    assert b_r[0] == pytest.approx(1.0, abs=0.12)
    assert b_l[0] == pytest.approx(-1.0, abs=0.12)
    assert b_r[1] == pytest.approx(1.0, abs=0.15)
    assert b_l[1] == pytest.approx(1.0, abs=0.15)


def test_stump_slope_regimes():
    config = cell(variation="slope", n=4000)
    data = big(config)
    right = data.column("z1").values > 0.0
    b_r = side_fit(data.y, data.x, right)
    b_l = side_fit(data.y, data.x, ~right)
    assert b_r[0] == pytest.approx(0.0, abs=0.12)
    assert b_l[0] == pytest.approx(0.0, abs=0.12)
    assert b_r[1] == pytest.approx(-1.0, abs=0.15)
    assert b_l[1] == pytest.approx(1.0, abs=0.15)


def test_stump_both_regimes_and_nonzero_threshold():
    config = cell(variation="both", xi=0.5, delta=2.0, n=6000)
    data = big(config)
    right = data.column("z1").values > 0.5
    b_r = side_fit(data.y, data.x, right)
    b_l = side_fit(data.y, data.x, ~right)
    assert b_r[0] == pytest.approx(2.0, abs=0.15)
    assert b_r[1] == pytest.approx(-2.0, abs=0.2)
    assert b_l[0] == pytest.approx(-2.0, abs=0.15)
    assert b_l[1] == pytest.approx(2.0, abs=0.2)


def test_tree_scenario_three_regimes():
    config = cell(scenario="tree", variation="both", xi=0.0, delta=1.5, n=9000)
    data = big(config)
    z1 = data.column("z1").values
    z2 = data.column("z2").values
    lower = z2 <= 0.0
    upper_left = (~lower) & (z1 <= 0.0)
    upper_right = (~lower) & (z1 > 0.0)
    b_low = side_fit(data.y, data.x, lower)
    b_ul = side_fit(data.y, data.x, upper_left)
    b_ur = side_fit(data.y, data.x, upper_right)
    assert b_low[0] == pytest.approx(0.0, abs=0.15)
    assert b_low[1] == pytest.approx(1.5, abs=0.2)
    assert b_ul[0] == pytest.approx(-1.5, abs=0.15)
    assert b_ul[1] == pytest.approx(-1.5, abs=0.2)
    assert b_ur[0] == pytest.approx(1.5, abs=0.15)
    assert b_ur[1] == pytest.approx(-1.5, abs=0.2)


def test_stump_continuous_drifts_linearly_in_z1():
    config = cell(scenario="stump_continuous", variation="both", delta=1.0, n=8000)
    data = big(config)
    z1 = data.column("z1").values
    design = np.column_stack([np.ones(data.n), data.x, z1, data.x * z1])
    coef, *_ = np.linalg.lstsq(design, data.y, rcond=None)
    assert coef[0] == pytest.approx(0.0, abs=0.1)
    assert coef[1] == pytest.approx(0.0, abs=0.15)
    assert coef[2] == pytest.approx(1.0, abs=0.1)
    assert coef[3] == pytest.approx(-1.0, abs=0.2)


def test_split_columns_alternate_uniform_and_normal():
    config = cell(n=3000, j_noise=5)  # z1..z6
    data = big(config)
    assert [c.name for c in data.z] == [f"z{j}" for j in range(1, 7)]
    for name in ("z1", "z2", "z4", "z6"):
        values = data.column(name).values
        assert np.all(np.abs(values) <= 1.0)
        assert np.std(values) == pytest.approx(1.0 / np.sqrt(3.0), abs=0.05)
    for name in ("z3", "z5"):
        values = data.column(name).values
        assert np.abs(values).max() > 1.5
        assert np.std(values) == pytest.approx(1.0, abs=0.08)
    assert np.all(np.abs(data.x) <= 1.0)


# the module docstring's regime tables: (intercept, slope) by true_partition label
DOCUMENTED_TABLES = {
    "stump": lambda d: {0: (-d, d), 1: (d, -d)},
    "tree": lambda d: {0: (0.0, d), 1: (-d, -d), 2: (d, -d)},
}


@pytest.mark.parametrize("scenario, variation", [
    ("stump", "intercept"), ("stump", "slope"), ("stump", "both"), ("tree", "both"),
    ("stump_continuous", "intercept"), ("stump_continuous", "slope"),
    ("stump_continuous", "both"),
])
def test_generate_replays_the_documented_draws_exactly(scenario, variation):
    for xi, delta in itertools.product((0.0, 0.4), (0.0, 1.5)):
        config = cell(scenario=scenario, variation=variation, xi=xi, delta=delta, n=60)
        data = generate(config, RngStream(7, 0).substream("data", "oracle"))
        replay = RngStream(7, 0).substream("data", "oracle")
        x = replay.uniform(-1.0, 1.0, 60)
        columns = [replay.uniform(-1.0, 1.0, 60) if j == 1 or j % 2 == 0
                   else replay.standard_normal(60) for j in range(1, 11)]
        eps = replay.standard_normal(60)
        assert np.array_equal(data.x, x)
        assert [c.name for c in data.z] == [f"z{j}" for j in range(1, 11)]
        for col, values in zip(data.z, columns):
            assert np.array_equal(col.values, values)
        if scenario == "stump_continuous":
            beta0, beta1 = delta * columns[0], -delta * columns[0]
        else:
            table = DOCUMENTED_TABLES[scenario](delta)
            labels = true_partition(config, data)
            beta0 = np.array([table[label][0] for label in labels])
            beta1 = np.array([table[label][1] for label in labels])
        if variation == "intercept":
            beta1 = np.ones(60)
        elif variation == "slope":
            beta0 = np.zeros(60)
        assert np.array_equal(data.y, beta0 + beta1 * x + eps)


def test_generate_is_deterministic_per_stream():
    config = cell(n=100)
    a = generate(config, RngStream(5, 0).substream("data", "stump", 3))
    b = generate(config, RngStream(5, 0).substream("data", "stump", 3))
    c = generate(config, RngStream(5, 0).substream("data", "stump", 4))
    assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)
    for ca, cb in zip(a.z, b.z):
        assert np.array_equal(ca.values, cb.values)
    assert not np.array_equal(a.y, c.y)


def test_true_partition_labels():
    config = cell(xi=0.25, n=500)
    data = big(config)
    labels = true_partition(config, data)
    assert np.array_equal(labels, (data.column("z1").values > 0.25).astype(int))

    tconfig = cell(scenario="tree", variation="both", xi=0.0, n=500)
    tdata = big(tconfig)
    tlabels = true_partition(tconfig, tdata)
    z1 = tdata.column("z1").values
    z2 = tdata.column("z2").values
    expect = np.where(z2 <= 0.0, 0, np.where(z1 <= 0.0, 1, 2))
    assert np.array_equal(tlabels, expect)

    with pytest.raises(ValueError):
        true_partition(cell(scenario="stump_continuous"), big(cell(scenario="stump_continuous")))


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        cell(scenario="forest")
    with pytest.raises(ValueError):
        cell(variation="weird")
    with pytest.raises(ValueError):
        cell(scenario="tree", variation="intercept")
    with pytest.raises(ValueError):
        cell(n=10)
    with pytest.raises(ValueError):
        cell(j_noise=0)
    with pytest.raises(ValueError):
        cell(scenario="tree", variation="both", j_noise=1)
    for reps in (0, -2):
        with pytest.raises(ValueError, match="replications"):
            cell(replications=reps)


@pytest.mark.parametrize("kw,error,message", [
    (dict(n=250.5), TypeError, "^'n' is float, not int$"),
    (dict(replications=2.5), TypeError, "^'replications' is float, not int$"),
    (dict(j_noise=9.0), TypeError, "^'j_noise' is float, not int$"),
    (dict(delta=True), TypeError, "^'delta' is bool, not float$"),
    (dict(xi=float("nan")), ValueError, "^xi must be finite$"),
    (dict(delta=float("-inf")), ValueError, "^delta must be finite$"),
], ids=["n", "replications", "j_noise", "delta_bool", "xi_nan", "delta_inf"])
def test_scenario_config_refuses_a_wrong_type_or_a_non_finite_cell(kw, error, message):
    with pytest.raises(error, match=message):
        cell(**kw)


def _recorded_xi_and_delta(tmp_path, config):
    path = tmp_path / "long.csv"
    write_records_csv(run_study([config], strat_list("mob")), str(path))
    with path.open(newline="") as handle:
        return {(row["xi"], row["delta"]) for row in csv.DictReader(handle)}


def test_an_integer_xi_and_delta_are_recorded_as_floats(tmp_path):
    config = cell(xi=0, delta=1, n=60, replications=1, j_noise=2)
    assert config == cell(xi=0.0, delta=1.0, n=60, replications=1, j_noise=2)
    assert type(config.xi) is float and type(config.delta) is float
    assert _recorded_xi_and_delta(tmp_path, config) == {("0.0", "1.0")}


def test_a_numpy_float_xi_and_delta_are_recorded_as_floats(tmp_path):
    # np.float64 subclasses float; kept as it is, its repr would be the cell
    config = cell(xi=np.float64(0.0), delta=np.float64(1.0), n=60, replications=1, j_noise=2)
    assert type(config.xi) is float and type(config.delta) is float
    assert _recorded_xi_and_delta(tmp_path, config) == {("0.0", "1.0")}


# ------------------------------------------------------------------------- ARI


def oracle_ari(a, b):
    """Literal pair-counting: agreements over all unordered pairs."""
    a = list(a)
    b = list(b)
    n = len(a)
    together_both = together_a = together_b = apart_both = 0
    for i, j in itertools.combinations(range(n), 2):
        sa = a[i] == a[j]
        sb = b[i] == b[j]
        together_both += sa and sb
        together_a += sa and not sb
        together_b += sb and not sa
        apart_both += not sa and not sb
    num = together_both + apart_both
    total = n * (n - 1) / 2
    expected = ((together_both + together_a) * (together_both + together_b)
                + (together_b + apart_both) * (together_a + apart_both)) / total
    if total == expected:
        return 1.0
    return (num - expected) / (total - expected)


def test_ari_hand_values():
    assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert adjusted_rand_index([0, 0, 1, 1], [5, 5, 2, 2]) == 1.0  # relabeling
    assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(0.0)
    assert adjusted_rand_index([0, 0, 0, 0], [1, 1, 1, 1]) == 1.0  # both trivial
    assert adjusted_rand_index([0], [0]) == 1.0  # both trivial, no pairs
    assert adjusted_rand_index([0, 1, 2, 3], [0, 0, 0, 0]) == pytest.approx(0.0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_ari_matches_pair_counting_oracle(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 3, size=30)
    b = rng.integers(0, 4, size=30)
    assert adjusted_rand_index(a, b) == pytest.approx(oracle_ari(a, b), abs=1e-12)
    # near-identical partitions score high
    c = a.copy()
    c[:2] = (c[:2] + 1) % 3
    assert adjusted_rand_index(a, c) == pytest.approx(oracle_ari(a, c), abs=1e-12)


def test_ari_validation():
    with pytest.raises(ValueError):
        adjusted_rand_index([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        adjusted_rand_index([], [])
    with pytest.raises(ValueError):
        adjusted_rand_index(np.zeros((2, 2)), np.zeros((2, 2)))


# ------------------------------------------------------------------ run_study


def test_run_study_pairs_data_across_strategy_lists():
    config = cell(n=100, replications=5, j_noise=3)
    solo = run_study([config], strat_list("ctree"), seed=4)
    both = run_study([config], strat_list("mob", "ctree"), seed=4)
    ctree_solo = [r for r in solo if r.strategy == "ctree"]
    ctree_both = [r for r in both if r.strategy == "ctree"]
    assert len(ctree_solo) == len(ctree_both) == 5
    for a, b in zip(ctree_solo, ctree_both):
        assert a.rep == b.rep
        assert a.p_values == b.p_values
        assert a.chosen == b.chosen


def test_run_study_is_reproducible_and_ordered():
    config = cell(n=80, replications=4, j_noise=2)
    first = run_study([config], strat_list("ctree", "guide"), seed=9)
    second = run_study([config], strat_list("ctree", "guide"), seed=9)
    assert first == second
    assert [r.strategy for r in first] == ["ctree", "guide"] * 4
    assert [r.rep for r in first] == [0, 0, 1, 1, 2, 2, 3, 3]
    shifted = run_study([config], strat_list("ctree", "guide"), seed=10)
    assert shifted != first


def test_run_study_refuses_repeated_strategies_and_cells():
    # aggregate_records groups by name and cell: a repeat would double its reps
    config = cell(n=60, replications=2, j_noise=2)
    with pytest.raises(ValueError, match="repeated strategy 'mob'"):
        run_study([config], strat_list("mob", "guide", "mob"), seed=1)
    # a repeated cell differs only in fields outside the grouping key
    twin = cell(n=80, replications=3, j_noise=2)
    with pytest.raises(ValueError, match=r"repeated cell \('stump', 'intercept', 0.0, 1.0\)"):
        run_study([config, cell(xi=0.5, n=60, replications=2, j_noise=2), twin],
                  strat_list("ctree"), seed=1)
    # distinct names of one configuration are distinct strategies
    records = run_study([config], [("a", parse_strategy("mob")), ("b", parse_strategy("mob"))],
                        seed=1)
    assert [row["reps"] for row in aggregate_records(records)] == [2, 2]


def test_run_study_threads_do_not_change_output():
    config = cell(n=80, replications=6, j_noise=2)
    serial = run_study([config], strat_list("ctree", "mob"), seed=2, threads=1)
    # the parameter is deprecated: any value but 1 warns and changes nothing
    with pytest.warns(FutureWarning, match="threads"):
        parallel = run_study([config], strat_list("ctree", "mob"), seed=2, threads=2)
    assert serial == parallel


def test_run_study_stump_gate_follows_the_grow_control():
    # stump records gate with control.alpha and test with control.min_segment,
    # as grown trees do, whatever the strategy carries
    config = cell(variation="both", delta=0.3, n=250, replications=8)
    loose = run_study([config], strat_list("ctree"), control=GrowControl(alpha=0.05), seed=0)
    strict = run_study([config], strat_list("ctree"), control=GrowControl(alpha=1e-12), seed=0)
    assert [r.p_values for r in strict] == [r.p_values for r in loose]
    assert loose[0].chosen == "z1" and min(loose[0].p_values.values()) > 1e-12
    assert all(r.chosen is None for r in strict)
    wide = GrowControl(min_segment=100)
    carried = [("mob", parse_strategy("mob", min_segment=100))]
    from_control = run_study([config], strat_list("mob"), control=wide, seed=0)
    assert from_control == run_study([config], carried, control=wide, seed=0)
    assert from_control != run_study([config], strat_list("mob"), seed=0)


def test_run_study_applies_the_control_once_per_strategy():
    # the stump arm tests every replication with the strategies the control
    # was applied to once; the pre-pruned tree arm grows with prepruning on
    config = cell(n=80, replications=4)
    with mock.patch.object(GrowControl, "apply_to", autospec=True,
                           side_effect=GrowControl.apply_to) as apply_to:
        records = run_study([config], strat_list("ctree", "mob"), control=GrowControl(alpha=0.2))
    assert apply_to.call_count == 2 and len(records) == 8
    tree = cell(scenario="tree", variation="both", delta=2.0, n=120, replications=2, j_noise=2)
    off = GrowControl(min_node_size=20, max_depth=2, prepruning=False)
    on = replace(off, prepruning=True)
    assert (run_study([tree], strat_list("ctree"), control=off, seed=1)
            == run_study([tree], strat_list("ctree"), control=on, seed=1))


def test_run_study_null_cell_calibration():
    config = cell(delta=0.0, n=150, replications=60, j_noise=4)
    records = run_study([config], strat_list("ctree"), seed=11)
    rows = aggregate_records(records)
    assert len(rows) == 1
    row = rows[0]
    assert row["reps"] == 60
    assert row["selection_probability"] <= 0.10
    assert 0.35 <= row["mean_p"] <= 0.65
    assert row["mean_ari"] is None and row["mean_leaves"] is None


def test_run_study_power_cell_detects_signal():
    null_cell = cell(delta=0.0, n=250, replications=20)
    power_cell = cell(delta=1.0, n=250, replications=20)
    records = run_study([null_cell, power_cell], strat_list("mob"), seed=12)
    rows = aggregate_records(records)
    by_delta = {row["delta"]: row for row in rows}
    assert by_delta[0.0]["selection_probability"] <= 0.2
    assert by_delta[1.0]["selection_probability"] >= 0.9
    assert by_delta[1.0]["mean_p"] < by_delta[0.0]["mean_p"]


def test_run_study_tree_scenario_records_partition_quality():
    config = cell(scenario="tree", variation="both", delta=2.0, n=200, replications=3, j_noise=4)
    control = GrowControl(alpha=0.05, min_node_size=25, max_depth=2)
    records = run_study([config], strat_list("mob"), control=control, seed=3)
    assert len(records) == 3
    for r in records:
        assert r.ari is not None and -0.5 <= r.ari <= 1.0
        assert r.leaf_count is not None and r.leaf_count >= 1
        assert r.chosen in (None, "z1", "z2", "z3", "z4", "z5")
    assert max(r.leaf_count for r in records) >= 2


def test_run_study_post_pruning_route():
    config = cell(scenario="tree", variation="both", delta=2.0, n=160, replications=2, j_noise=2)
    control = GrowControl(alpha=0.05, min_node_size=25, max_depth=2)
    records = run_study(
        [config], strat_list("ctree"), control=control, pruning="post", seed=5, folds=4
    )
    assert len(records) == 2
    for r in records:
        assert r.ari is not None
        assert r.leaf_count >= 1
    with pytest.raises(ValueError):
        run_study([config], strat_list("ctree"), pruning="bogus")


# ---------------------------------------------------------------- aggregation


def record(strategy="ctree", rep=0, p_values=None, chosen=None, ari=None, leaf_count=None):
    return ReplicationRecord(
        scenario="stump",
        strategy=strategy,
        variation="intercept",
        xi=0.0,
        delta=1.0,
        rep=rep,
        p_values=p_values or {"z1": 0.5, "z2": 0.7},
        chosen=chosen,
        ari=ari,
        leaf_count=leaf_count,
    )


def test_aggregate_records_hand_check():
    records = [
        record(rep=0, p_values={"z1": 0.01, "z2": 0.5}, chosen="z1", ari=0.8, leaf_count=2),
        record(rep=1, p_values={"z1": 0.2, "z2": 0.1}, chosen="z2", ari=0.2, leaf_count=3),
        record(rep=2, p_values={"z1": 0.3, "z2": 0.9}, chosen=None),
    ]
    rows = aggregate_records(records)
    assert len(rows) == 1
    row = rows[0]
    assert row["reps"] == 3
    assert row["selection_probability"] == pytest.approx(1 / 3)
    assert row["argmin_probability"] == pytest.approx(2 / 3)
    assert row["mean_p"] == pytest.approx((0.01 + 0.2 + 0.3) / 3)
    assert row["mean_ari"] == pytest.approx(0.5)
    assert row["mean_leaves"] == pytest.approx(2.5)


def test_aggregate_records_groups_in_first_seen_order():
    records = [record(strategy="mob"), record(strategy="ctree"), record(strategy="mob", rep=1)]
    rows = aggregate_records(records)
    assert [row["strategy"] for row in rows] == ["mob", "ctree"]
    assert rows[0]["reps"] == 2 and rows[1]["reps"] == 1


# ------------------------------------------------------------------------- CSV


def test_records_csv_round_trip(tmp_path):
    config = cell(n=80, replications=2, j_noise=2)
    records = run_study([config], strat_list("ctree"), seed=8)
    path = tmp_path / "records.csv"
    write_records_csv(records, str(path))
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert tuple(rows[0]) == LONG_COLUMNS
    body = rows[1:]
    assert len(body) == sum(len(r.p_values) for r in records)
    by_key = {(int(line[5]), line[6]): line for line in body}
    for r in records:
        for variable, p in r.p_values.items():
            line = by_key[(r.rep, variable)]
            assert line[0] == "stump" and line[1] == "ctree"
            assert float(line[3]) == r.xi and float(line[4]) == r.delta
            assert float(line[7]) == p  # repr round-trips doubles exactly
            assert line[8] == (r.chosen or "")
            assert line[9] == "" and line[10] == ""


def test_aggregate_csv_round_trip(tmp_path):
    rows = aggregate_records(
        [record(rep=0, chosen="z1", ari=0.25, leaf_count=2), record(rep=1, chosen=None)]
    )
    path = tmp_path / "agg.csv"
    write_aggregate_csv(rows, str(path))
    with open(path, newline="") as handle:
        parsed = list(csv.reader(handle))
    assert tuple(parsed[0]) == AGG_COLUMNS
    line = parsed[1]
    assert line[0] == "stump"
    assert int(line[5]) == 2
    assert float(line[6]) == rows[0]["selection_probability"]
    assert float(line[8]) == rows[0]["mean_p"]
    assert float(line[9]) == 0.25
    assert float(line[10]) == 2.0
