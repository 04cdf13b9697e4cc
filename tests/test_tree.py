"""Tree growth: split-point search, structure invariants, routing, JSON."""

import ast
import importlib
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmtrees.cli import main as cli_main
from lmtrees.dataset import CATEGORICAL, NUMERIC, CsvSchema, DataError, Dataset, SplitColumn
from lmtrees.dataset import RngStream, partition_orders, write_csv
from lmtrees import inference
from lmtrees import tree as tree_module
from lmtrees.inference import STRATEGIES, parse_strategy
from lmtrees.linmod import LinearFit, fit_ols, predict
from lmtrees.prune import cv_prune
from lmtrees.sim import ScenarioConfig, generate
from lmtrees.tree import (
    TREE_FORMAT,
    GrowControl,
    Split,
    TreeNode,
    best_split_point,
    format_tree,
    grow,
    iter_nodes,
    leaves,
    partition_labels,
    predict_tree,
    route_rows,
    tree_from_dict,
    tree_from_json,
    tree_to_dict,
    tree_to_json,
)

from helpers import assert_fits_follow_routing, hand_node, ncol, null_data, stump_data, tree_depth


def ols_rss(y, x):
    """Independent textbook two-pass least-squares residual sum of squares."""
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx <= 0.0:
        return None
    beta1 = float(xc @ (y - y.mean())) / sxx
    beta0 = float(y.mean() - beta1 * x.mean())
    r = y - beta0 - beta1 * x
    return float(r @ r)


def oracle_numeric_split(y, x, z, min_node_size):
    """Brute-force refit at every admissible midpoint cut; first strict minimum."""
    order = np.argsort(z, kind="stable")
    zs = z[order]
    best_point, best_total = None, np.inf
    for m in range(min_node_size, len(z) - min_node_size + 1):
        if zs[m - 1] == zs[m]:
            continue
        point = 0.5 * (zs[m - 1] + zs[m])
        mask = z <= point
        left = ols_rss(y[mask], x[mask])
        right = ols_rss(y[~mask], x[~mask])
        if left is None or right is None:
            continue
        total = left + right
        if total < best_total:
            best_total = total
            best_point = point
    return best_point, best_total


# ----------------------------------------------------------- split-point search


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_numeric_split_matches_exhaustive_refit_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 20
    z = rng.normal(size=n)
    x = rng.uniform(-1, 1, n)
    y = 0.5 * (z > 0) + 0.3 * x + rng.normal(size=n) * 0.4
    split = best_split_point(y, x, ncol(z), min_node_size=3)
    point, total = oracle_numeric_split(y, x, z, 3)
    assert split is not None and point is not None
    assert split.point == point
    mask = z <= split.point
    achieved = ols_rss(y[mask], x[mask]) + ols_rss(y[~mask], x[~mask])
    assert achieved == pytest.approx(total, rel=1e-12)


def test_numeric_split_point_lies_between_neighbouring_values():
    rng = np.random.default_rng(11)
    z = rng.normal(size=30)
    x = rng.uniform(-1, 1, 30)
    y = (z > 0.2) * 1.0 + rng.normal(size=30) * 0.1
    split = best_split_point(y, x, ncol(z), min_node_size=5)
    zs = np.sort(z)
    below = zs[zs <= split.point]
    above = zs[zs > split.point]
    assert below.size >= 5 and above.size >= 5
    # the cut separates two actual data values
    assert below.max() < above.min()
    assert below.max() <= split.point < above.min()


def test_numeric_split_respects_min_node_size():
    rng = np.random.default_rng(12)
    n = 20
    z = np.arange(n, dtype=float)
    x = rng.uniform(-1, 1, n)
    y = (z >= 2) * 3.0 + 0.1 * rng.normal(size=n)  # best unconstrained cut at 2
    split = best_split_point(y, x, ncol(z), min_node_size=6)
    mask = z <= split.point
    assert mask.sum() >= 6 and (~mask).sum() >= 6


def test_numeric_split_returns_none_when_inadmissible():
    rng = np.random.default_rng(13)
    n = 20
    x = rng.uniform(-1, 1, n)
    y = rng.normal(size=n)
    assert best_split_point(y, x, ncol(np.zeros(n)), 3) is None  # constant column
    assert best_split_point(y, x, ncol(rng.normal(size=n)), 11) is None  # 11+11 > 20
    # a regressor constant within every admissible child blocks the slope fit
    assert best_split_point(y, np.full(n, 2.0), ncol(rng.normal(size=n)), 3) is None


def test_numeric_split_handles_tied_values():
    # cuts may only fall between distinct values
    z = np.repeat([0.0, 1.0, 2.0], 6)
    rng = np.random.default_rng(14)
    x = rng.uniform(-1, 1, 18)
    y = (z >= 1.0) * 2.0 + 0.1 * rng.normal(size=18)
    split = best_split_point(y, x, ncol(z), min_node_size=3)
    assert split.point in (0.5, 1.5)
    assert split.point == 0.5


@pytest.mark.parametrize("low", [1.0, float(np.nextafter(1.0, 2.0))], ids=["even", "odd"])
def test_numeric_split_between_adjacent_doubles_cuts_at_the_lower(low):
    # no double lies strictly between two adjacent ones: their midpoint
    # rounds to one of them (to the upper when the lower's last bit is
    # odd), so the cut falls on the lower and its rows still go left
    z = np.repeat([low, np.nextafter(low, 2.0)], 10)
    rng = np.random.default_rng(15)
    x = rng.uniform(-1, 1, 20)
    y = (z > low) * 2.0 + 0.1 * rng.normal(size=20)
    split = best_split_point(y, x, ncol(z), min_node_size=3)
    assert split.point == low
    data = Dataset(y, x, (ncol(z),))
    tree = grow(data, "mob", GrowControl(alpha=1.0, min_node_size=3, max_depth=1))
    assert tree.split == split
    assert np.array_equal(partition_labels(tree, data), np.where(z == low, 1, 2))


def oracle_categorical_split(y, x, codes, levels, min_node_size):
    observed = sorted(set(int(c) for c in codes))
    best = None
    best_total = np.inf
    rest = observed[1:]
    for bits in range(2 ** len(rest)):
        left = {observed[0]} | {rest[i] for i in range(len(rest)) if bits >> i & 1}
        mask = np.isin(codes, sorted(left))
        if mask.sum() < min_node_size or (~mask).sum() < min_node_size:
            continue
        l, r = ols_rss(y[mask], x[mask]), ols_rss(y[~mask], x[~mask])
        if l is None or r is None:
            continue
        if l + r < best_total:
            best_total = l + r
            best = (
                tuple(levels[c] for c in sorted(left)),
                tuple(levels[c] for c in sorted(set(observed) - left)),
            )
    return best, best_total


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_categorical_split_matches_exhaustive_partition_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 48
    levels = ("a", "b", "c", "d")
    codes = rng.integers(0, 4, size=n).astype(float)
    x = rng.uniform(-1, 1, n)
    means = {0: 0.0, 1: 2.0, 2: 0.3, 3: 1.8}
    y = np.array([means[int(c)] for c in codes]) + 0.3 * rng.normal(size=n)
    col = SplitColumn("g", CATEGORICAL, codes, levels=levels)
    split = best_split_point(y, x, col, min_node_size=5)
    (left, right), total = oracle_categorical_split(y, x, codes, levels, 5)
    assert split.left_levels == left
    assert split.right_levels == right
    assert split.point is None


def test_categorical_split_single_level_and_level_cap():
    rng = np.random.default_rng(24)
    n = 30
    x = rng.uniform(-1, 1, n)
    y = rng.normal(size=n)
    one = SplitColumn("g", CATEGORICAL, np.zeros(n), levels=("only",))
    assert best_split_point(y, x, one, 3) is None
    many_levels = tuple(f"l{i}" for i in range(17))
    wide = SplitColumn("g", CATEGORICAL, np.arange(n, dtype=float) % 17, levels=many_levels)
    assert best_split_point(y, x, wide, 1) is None


def test_a_chosen_column_of_too_many_levels_ends_its_node(tmp_path, capsys):
    # the response follows a 20-level column, beside a numeric one that carries nothing
    rng = np.random.default_rng(61)
    n, codes = 400, np.arange(400) % 20
    x = rng.uniform(-1, 1, n)
    y = 3.0 * (codes % 2) + x + 0.3 * rng.normal(size=n)
    levels = tuple(f"l{i}" for i in range(20))
    data = Dataset(y, x, (SplitColumn("g", CATEGORICAL, codes.astype(float), levels=levels),
                          SplitColumn("z", NUMERIC, rng.normal(size=n))))
    control = GrowControl()
    tree = grow(data, "mob", control)
    assert min(tree.outcomes, key=lambda o: o.p_value).variable == "g"
    assert tree.is_leaf
    result = cv_prune(data, parse_strategy("mob"), control, folds=5)
    assert result.tree.is_leaf
    schema = CsvSchema("y", "x", (("g", CATEGORICAL), ("z", NUMERIC)))
    write_csv(data, str(tmp_path / "wide.csv"), schema)
    code = cli_main(["fit", "--data", str(tmp_path / "wide.csv"), "--response", "y",
                     "--regressor", "x", "--split", "g,z", "--categorical", "g"])
    assert code == 0
    assert "1 leaves" in capsys.readouterr().out


# The former split search, kept as an oracle for the shared candidate-set
# search: prefix moments for numeric cuts, one refit per level subset for
# categorical ones.


def _former_prefix_rss(yc, xc, sxx_tol):
    n = yc.shape[0]
    cx = np.cumsum(xc)
    cy = np.cumsum(yc)
    cxx = np.cumsum(xc * xc)
    cyy = np.cumsum(yc * yc)
    cxy = np.cumsum(xc * yc)
    m = np.arange(1, n + 1, dtype=float)

    def segment(sx, sy, sxx, syy, sxy, size):
        with np.errstate(invalid="ignore", divide="ignore"):
            vxx = sxx - sx * sx / size
            vyy = syy - sy * sy / size
            vxy = sxy - sx * sy / size
            ok = vxx > sxx_tol
            rss = np.where(
                ok, vyy - np.divide(vxy * vxy, vxx, out=np.zeros_like(vxx), where=ok), np.inf
            )
        return np.maximum(rss, 0.0), ok

    left_rss, left_ok = segment(cx, cy, cxx, cyy, cxy, m)
    right_rss, right_ok = segment(cx[-1] - cx, cy[-1] - cy, cxx[-1] - cxx,
                                  cyy[-1] - cyy, cxy[-1] - cxy, m[-1] - m)
    return left_rss, left_ok, right_rss, right_ok


def former_numeric_split(y, x, col, min_node_size):
    n = y.shape[0]
    order = np.argsort(col.values, kind="stable")
    vs = col.values[order]
    yc = y[order] - y.mean()
    xc = x[order] - x.mean()
    sxx_tol = max(float(xc @ xc), 1.0) * 1e-12
    left_rss, left_ok, right_rss, right_ok = _former_prefix_rss(yc, xc, sxx_tol)
    lower = max(min_node_size, 3)
    cuts = np.arange(lower, n - lower + 1)
    admissible = (vs[cuts - 1] != vs[cuts]) & left_ok[cuts - 1] & right_ok[cuts - 1]
    if not admissible.any():
        return None
    total = np.where(admissible, left_rss[cuts - 1] + right_rss[cuts - 1], np.inf)
    best_cut = int(cuts[np.argmin(total)])
    point = 0.5 * (vs[best_cut - 1] + vs[best_cut])
    if not (vs[best_cut - 1] < point < vs[best_cut]):
        point = float(vs[best_cut - 1])
    return Split(variable=col.name, point=float(point))


def _former_segment_rss(y, x, sxx_tol):
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx <= sxx_tol:
        return None
    yc = y - y.mean()
    return max(float(yc @ yc) - float(xc @ yc) ** 2 / sxx, 0.0)


def former_categorical_split(y, x, col, min_node_size):
    """The former subset loop; also returns every admissible subset's total."""
    observed = np.unique(col.values).tolist()
    if len(observed) < 2:
        return None, {}
    xc = x - x.mean()
    sxx_tol = max(float(xc @ xc), 1.0) * 1e-12
    lower = max(min_node_size, 3)
    rest = observed[1:]
    best, best_total, totals = None, np.inf, {}
    for bits in range(2 ** len(rest)):
        left_set = {observed[0]} | {rest[i] for i in range(len(rest)) if bits >> i & 1}
        mask = np.isin(col.values, sorted(left_set))
        n_left = int(mask.sum())
        if n_left < lower or y.shape[0] - n_left < lower:
            continue
        rss_left = _former_segment_rss(y[mask], x[mask], sxx_tol)
        rss_right = _former_segment_rss(y[~mask], x[~mask], sxx_tol)
        if rss_left is None or rss_right is None:
            continue
        total = rss_left + rss_right
        left_levels = col.labels(sorted(left_set))
        totals[left_levels] = total
        if total < best_total:
            best_total = total
            best = Split(
                variable=col.name,
                left_levels=left_levels,
                right_levels=col.labels(sorted(set(observed) - left_set)),
            )
    return best, totals


@st.composite
def split_cases(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        shape = draw(st.sampled_from(["spread", "ties", "constant"]))
        if shape == "spread":
            z = rng.normal(size=n)
        elif shape == "ties":
            z = rng.integers(0, draw(st.integers(min_value=2, max_value=4)), n).astype(float)
        else:
            z = np.full(n, 1.5)
        col = ncol(z)
        x = rng.uniform(-1, 1, n)
    else:
        observed = draw(st.integers(min_value=1, max_value=min(6, n)))
        unobserved = draw(st.integers(min_value=0, max_value=3))
        # unobserved levels sit between, before and after the observed codes
        codes_used = np.sort(rng.choice(observed + unobserved, observed, replace=False))
        codes = codes_used[np.concatenate([np.arange(observed),
                                           rng.integers(0, observed, n - observed)])]
        rng.shuffle(codes)
        levels = tuple(f"l{i}" for i in range(observed + unobserved))
        col = SplitColumn("g", CATEGORICAL, codes, levels=levels)
        if draw(st.booleans()):
            x = 0.7 * codes + 1.0  # constant within each level
        else:
            x = rng.uniform(-1, 1, n)
    y = rng.normal(size=n) + 0.5 * x
    if draw(st.booleans()):
        y = np.round(y, 1)
    return y, x, col, draw(st.integers(min_value=1, max_value=8))


@given(case=split_cases())
@settings(max_examples=400, deadline=None)
def test_split_search_matches_former_search(case):
    y, x, col, min_node_size = case
    got = best_split_point(y, x, col, min_node_size)
    if col.kind == NUMERIC:
        assert got == former_numeric_split(y, x, col, min_node_size)
        return
    want, totals = former_categorical_split(y, x, col, min_node_size)
    if want is None:
        assert got is None
        return
    assert got is not None and got.point is None
    assert set(got.left_levels) | set(got.right_levels) == set(want.left_levels) | set(
        want.right_levels
    )
    if got.left_levels != want.left_levels:
        # only a tie within rounding may move the choice
        ranked = sorted(totals.values())
        assert ranked[1] - ranked[0] <= 1e-12 * ranked[1]
        assert totals[got.left_levels] - ranked[0] <= 1e-12 * totals[got.left_levels]


# ----------------------------------------------------------------- tree growth


@pytest.mark.parametrize("name", ["ctree", "mob", "guide"])
def test_grow_recovers_threshold_stump(name):
    data = stump_data()
    tree = grow(data, name, GrowControl(alpha=0.05, min_node_size=20, max_depth=3))
    assert tree.split is not None
    assert tree.split.variable == "z1"
    assert abs(tree.split.point) < 0.2
    assert len(tree.children) == 2
    sizes = sorted(child.n for child in tree.children)
    assert sizes[0] >= 20 and sum(sizes) == data.n
    # the two recovered regimes differ in intercept by roughly the step height
    b0 = [child.fit.beta0 for child in sorted(tree.children, key=lambda c: c.fit.beta0)]
    assert b0[1] - b0[0] == pytest.approx(2.0, abs=0.4)


def test_grow_structural_invariants():
    data = stump_data(seed=5, n=600, delta=3.0)
    control = GrowControl(alpha=0.5, min_node_size=25, max_depth=3)
    tree = grow(data, "mob", control)
    nodes = list(iter_nodes(tree))
    # preorder node ids
    assert [node.id for node in nodes] == list(range(len(nodes)))
    assert tree_depth(tree) <= 3
    # every node was fitted on the rows routing sends it
    reach = assert_fits_follow_routing(tree, data, np.arange(data.n))
    for node in nodes:
        rows = reach[node.id]
        assert node.n == rows.shape[0]
        if node.children:
            assert len(node.children) == 2
            assert node.split is not None
            left, right = node.children
            assert left.depth == node.depth + 1 and right.depth == node.depth + 1
            merged = np.sort(np.concatenate([reach[left.id], reach[right.id]]))
            assert np.array_equal(merged, np.sort(rows))
            assert set(reach[left.id].tolist()).isdisjoint(reach[right.id].tolist())
            # the recorded split reproduces the routing of the parent rows
            col = data.column(node.split.variable)
            mask = col.values[rows] <= node.split.point
            assert np.array_equal(np.sort(rows[mask]), np.sort(reach[left.id]))
        else:
            assert node.split is None
            assert node.n >= control.min_node_size
        for outcome in node.outcomes:
            assert node.p_values[outcome.variable] == outcome.p_value


def _traced_functions():
    """The ``FUNCTIONS`` table of ``perfbench/layers.py``, read without importing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.Assign) and [t.id for t in stmt.targets] == ["FUNCTIONS"]:
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"no FUNCTIONS table in {path}")


def test_traced_benchmark_contract(monkeypatch):
    # every function the traced benchmark wraps still exists
    functions = _traced_functions()
    assert functions
    for module_name, attr in functions:
        owner = importlib.import_module(f"lmtrees.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"lmtrees.{module_name}.{attr}"

    # its completeness check counts one run_strategy call per split column
    # per select_variable call, and one select_variable call per tested
    # node; each call returns the outcome whose law names its span.  One
    # strategy per route: quadratic form, normal, chi-square tables,
    # binned quadratic form and supLM.
    calls = {"run_strategy": 0, "select_variable": 0}
    laws = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if name == "run_strategy":
                laws.append(result.law)
            return result

        return wrapper

    monkeypatch.setattr(inference, "run_strategy", counting("run_strategy", inference.run_strategy))
    monkeypatch.setattr(
        tree_module, "select_variable", counting("select_variable", tree_module.select_variable)
    )
    data = stump_data(seed=5, n=600, delta=3.0)
    fit = fit_ols(data.y, data.x)
    routes = {"ctree": "chi2", "residuals,nodich,lin": "normal", "guide": "chi2",
              "ctree+cat": "chi2", "mob": "suplm"}
    for strategy, law in routes.items():
        calls.update(run_strategy=0, select_variable=0)
        laws.clear()
        outcomes, _ = inference.select_variable(parse_strategy(strategy), fit, data)
        assert calls["run_strategy"] == len(data.z)
        assert laws == [o.law for o in outcomes] == [law] * len(data.z)

        calls.update(run_strategy=0, select_variable=0)
        # at depth 2 the leaves are not tested
        tree = grow(data, strategy, GrowControl(alpha=0.5, min_node_size=25, max_depth=2))
        tested = sum(1 for node in iter_nodes(tree) if node.outcomes)
        assert sum(1 for _ in iter_nodes(tree)) > tested > 1
        assert calls["select_variable"] == tested
        assert calls["run_strategy"] == len(data.z) * tested


def test_grow_depth_and_size_stopping():
    data = stump_data(seed=6, n=300, delta=4.0)
    stump_only = grow(data, "ctree", GrowControl(max_depth=1, min_node_size=20))
    assert tree_depth(stump_only) <= 1
    giant_nodes = grow(data, "ctree", GrowControl(min_node_size=200, max_depth=4))
    assert giant_nodes.is_leaf  # 300 < 2*200 rows: cannot split at all


def test_grow_prepruning_gate_vs_forced_growth():
    data = null_data(seed=9, n=200)
    strict = grow(data, "ctree", GrowControl(alpha=1e-6, min_node_size=25, max_depth=2))
    assert strict.is_leaf
    forced = grow(
        data,
        "ctree",
        GrowControl(alpha=1e-6, min_node_size=25, max_depth=2, prepruning=False),
    )
    assert not forced.is_leaf  # gate ignored: argmin variable is split regardless


def test_grow_holds_size_under_the_null():
    reps = 30
    splits = 0
    for rep in range(reps):
        tree = grow(null_data(seed=1000 + rep, n=150), "ctree", GrowControl(alpha=0.05))
        if not tree.is_leaf:
            splits += 1
    # ~5% expected false-split rate; allow generous slack for 30 replicates
    assert splits / reps <= 0.2


def test_grow_accepts_config_and_string_equally():
    data = stump_data(seed=7, n=200)
    control = GrowControl()
    a = grow(data, "mob", control)
    b = grow(data, parse_strategy("mob"), control)
    schema = CsvSchema("y", "x", tuple((c.name, c.kind) for c in data.z))
    sa = tree_to_json(a, schema, parse_strategy("mob"), control)
    sb = tree_to_json(b, schema, parse_strategy("mob"), control)
    assert sa == sb


def test_grow_is_deterministic():
    data = stump_data(seed=8, n=250)
    control = GrowControl(alpha=0.2, max_depth=3)
    schema = CsvSchema("y", "x", tuple((c.name, c.kind) for c in data.z))
    strategy = parse_strategy("guide")
    first = tree_to_json(grow(data, "guide", control), schema, strategy, control)
    second = tree_to_json(grow(data, "guide", control), schema, strategy, control)
    assert first == second


def cache_data(source):
    """The tree DGP, or a hand-built dataset with a four-valued numeric
    column (ties) and a categorical one beside a continuous column."""
    if source == "tree_dgp":
        return generate(ScenarioConfig("tree", "both", xi=0.0, delta=1.0, n=200), RngStream(4, 0))
    rng = np.random.default_rng(5)
    n = 200
    few, codes = rng.integers(0, 4, n).astype(float), rng.integers(0, 3, n)
    x, z = rng.uniform(-1, 1, n), rng.normal(size=n)
    y = 1.5 * (few >= 2) + (1.0 + (codes == 1)) * x + 0.5 * (z > 0) + 0.3 * rng.normal(size=n)
    cols = (ncol(few, "few"), SplitColumn("g", CATEGORICAL, codes, levels=("a", "b", "c")),
            ncol(z, "z"))
    return Dataset(y, x, cols)


@pytest.mark.parametrize("source", ["tree_dgp", "mixed"])
def test_trees_grown_on_a_shared_node_cache_equal_trees_grown_alone(source):
    data = cache_data(source)
    schema = CsvSchema("y", "x", tuple((c.name, c.kind) for c in data.z))
    control = GrowControl(alpha=0.05, min_node_size=15, max_depth=4)
    # another min_node_size finds other cuts on the same row sets
    other = GrowControl(alpha=0.5, min_node_size=24, max_depth=3, prepruning=False)

    def grown(name, ctl, **cache):
        return tree_to_dict(grow(data, name, ctl, **cache), schema, parse_strategy(name), ctl)

    def pruned(name, **cache):
        result = cv_prune(data, parse_strategy(name), control, folds=4, seed=2, **cache)
        return (tree_to_dict(result.tree, schema, parse_strategy(name), control),
                result.chosen_alpha, result.alpha_path)

    for name in STRATEGIES:
        cache = tree_module._NodeCache(data)
        for filler in STRATEGIES:
            if filler != name:
                grow(data, filler, control, _cache=cache)
                cv_prune(data, parse_strategy(filler), control, folds=4, seed=2, _cache=cache)
        assert grown(name, control, _cache=cache) == grown(name, control)
        assert pruned(name, _cache=cache) == pruned(name)
        assert grown(name, other, _cache=cache) == grown(name, other)


@pytest.mark.parametrize("source", ["tree_dgp", "mixed"])
def test_child_orders_are_partitioned_only_for_a_tested_child(monkeypatch, source):
    data = cache_data(source)
    schema = CsvSchema("y", "x", tuple((c.name, c.kind) for c in data.z))
    calls = []

    def counted(orders, mask):
        calls.append(mask)
        return partition_orders(orders, mask)

    monkeypatch.setattr(tree_module, "partition_orders", counted)
    for name in ("ctree", "mob", "guide"):
        for depth, size in ((1, 15), (2, 15), (3, 24), (5, 15)):
            control = GrowControl(min_node_size=size, max_depth=depth, prepruning=False)
            calls.clear()
            tree = grow(data, name, control)
            # without a cache each split partitions at most once, and only
            # when a child of it runs its tests
            assert len(calls) == sum(1 for node in iter_nodes(tree)
                                     if any(child.outcomes for child in node.children))
            assert all(max(m.sum(), m.size - m.sum()) >= 2 * size for m in calls)
        # a split whose children sat at the depth limit, reached again by
        # a deeper tree on the same cache, is partitioned then
        cache = tree_module._NodeCache(data)
        shallow, deep = (GrowControl(min_node_size=15, max_depth=d, prepruning=False)
                         for d in (2, 4))
        grow(data, name, shallow, _cache=cache)
        assert (tree_to_dict(grow(data, name, deep, _cache=cache), schema, parse_strategy(name), deep)
                == tree_to_dict(grow(data, name, deep), schema, parse_strategy(name), deep))


def test_a_node_cache_serves_only_its_dataset():
    data, twin = stump_data(seed=3, n=120), stump_data(seed=3, n=120)
    cache = tree_module._NodeCache(data)
    grow(data, "mob", GrowControl(), _cache=cache)
    with pytest.raises(ValueError, match="only the dataset it was made for"):
        grow(twin, "mob", GrowControl(), _cache=cache)
    with pytest.raises(ValueError, match="only the dataset it was made for"):
        cv_prune(twin, parse_strategy("mob"), GrowControl(), folds=3, _cache=cache)


@pytest.mark.parametrize("rows", [
    np.arange(60)[::-1],  # decreasing
    np.repeat(np.arange(30), 2),  # sorted with repeats
    np.arange(60, dtype=float),
    np.arange(60).reshape(2, 30),
    np.arange(-1, 59),
    np.arange(61, 121),  # past the last of the 120 rows
    np.ones(120, dtype=bool),
])
def test_grow_refuses_a_malformed_index_set(rows):
    with pytest.raises(ValueError, match="strictly increasing 1-D integer index set"):
        grow(stump_data(seed=3, n=120), "mob", GrowControl(), rows=rows)


def test_grow_takes_any_increasing_integer_index_set():
    data, control = stump_data(seed=3, n=120), GrowControl(alpha=0.5, max_depth=2)
    schema = CsvSchema("y", "x", tuple((c.name, c.kind) for c in data.z))
    as_dicts = [tree_to_dict(grow(data, "guide", control, rows=rows), schema,
                             parse_strategy("guide"), control)
                for rows in (np.arange(0, 120, 2), np.arange(0, 120, 2, dtype=np.uint32),
                             list(range(0, 120, 2)))]
    assert as_dicts[0] == as_dicts[1] == as_dicts[2]


# -------------------------------------------------------------------- routing


def route_by_hand(node, data, i):
    """Independent routing: numeric goes left on value <= point, categorical
    by level membership, unseen levels to the child with more training rows."""
    while not node.is_leaf:
        col = data.column(node.split.variable)
        if node.split.point is not None:
            go_left = col.values[i] <= node.split.point
        else:
            label = col.levels[int(col.values[i])]
            if label in node.split.left_levels:
                go_left = True
            elif label in node.split.right_levels:
                go_left = False
            else:
                go_left = node.children[0].n >= node.children[1].n
        node = node.children[0] if go_left else node.children[1]
    return node


def test_partition_labels_and_predictions_match_manual_routing():
    data = stump_data(seed=30, n=300, delta=3.0)
    tree = grow(data, "mob", GrowControl(alpha=0.3, max_depth=3))
    assert not tree.is_leaf
    labels = partition_labels(tree, data)
    preds = predict_tree(tree, data)
    for i in range(data.n):
        leaf = route_by_hand(tree, data, i)
        assert labels[i] == leaf.id
        assert preds[i] == pytest.approx(predict(leaf.fit, data.x[i : i + 1])[0])


def former_predict_tree(tree, data):
    """Predictions as made before one routing pass: each leaf's rows found
    by scanning the partition labels of all rows."""
    labels = partition_labels(tree, data)
    by_id = {node.id: node for node in iter_nodes(tree)}
    out = np.empty(data.n, dtype=float)
    for leaf_id in np.unique(labels):
        mask = labels == leaf_id
        out[mask] = predict(by_id[int(leaf_id)].fit, data.x[mask])
    return out


@pytest.mark.parametrize("extra_level", [False, True])
def test_predict_tree_from_one_routing_pass_equals_the_label_scan(extra_level):
    tree, data = categorical_tree_and_data(extra_level)
    deep = stump_data(seed=32, n=300, delta=1.0)
    grown = grow(deep, "guide", GrowControl(prepruning=False))
    for tree, data in ((tree, data), (grown, deep)):
        assert predict_tree(tree, data).tobytes() == former_predict_tree(tree, data).tobytes()


def test_training_rows_match_partition_labels():
    data = stump_data(seed=31, n=400, delta=2.5)
    tree = grow(data, "ctree", GrowControl(alpha=0.3, max_depth=3))
    # the rows each leaf was fitted on
    reach = assert_fits_follow_routing(tree, data, np.arange(data.n))
    labels = partition_labels(tree, data)
    for leaf in leaves(tree):
        assert np.array_equal(np.sort(reach[leaf.id]), np.flatnonzero(labels == leaf.id))


def categorical_tree_and_data(extra_level=False):
    rng = np.random.default_rng(77)
    n = 240
    levels = ("a", "b", "c")
    codes = rng.integers(0, 3, size=n).astype(float)
    x = rng.uniform(-1, 1, n)
    y = np.where(codes == 2.0, 3.0, 0.0) + x + 0.3 * rng.normal(size=n)
    data = Dataset(y, x, (SplitColumn("g", CATEGORICAL, codes, levels=levels),))
    tree = grow(data, "ctree+cat", GrowControl(alpha=0.05, min_node_size=20, max_depth=1))
    if not extra_level:
        return tree, data
    eval_levels = ("a", "b", "c", "d")
    eval_codes = np.array([0.0, 1.0, 2.0, 3.0, 3.0])
    eval_data = Dataset(
        np.zeros(5),
        np.zeros(5),
        (SplitColumn("g", CATEGORICAL, eval_codes, levels=eval_levels),),
    )
    return tree, eval_data


def test_categorical_split_routes_by_level_sets():
    tree, data = categorical_tree_and_data()
    assert tree.split is not None and tree.split.point is None
    in_left = set(tree.split.left_levels)
    labels = partition_labels(tree, data)
    col = data.column("g")
    for i in range(data.n):
        expected = tree.children[0].id if col.levels[int(col.values[i])] in in_left else tree.children[1].id
        assert labels[i] == expected


def test_unseen_level_routes_to_larger_child():
    tree, eval_data = categorical_tree_and_data(extra_level=True)
    labels = partition_labels(tree, eval_data)
    bigger = max(tree.children, key=lambda c: c.n)
    assert labels[3] == bigger.id and labels[4] == bigger.id
    # known levels still follow their level sets
    known = {lev: (tree.children[0].id if lev in tree.split.left_levels else tree.children[1].id)
             for lev in ("a", "b", "c")}
    assert labels[0] == known["a"] and labels[1] == known["b"] and labels[2] == known["c"]


def test_categorical_routing_follows_labels_when_codes_shift():
    tree, data = categorical_tree_and_data()
    # an extra level that sorts first shifts every code by one
    codes = data.column("g").values + 1
    shifted = SplitColumn("g", CATEGORICAL, codes, levels=("0", "a", "b", "c"))
    eval_data = Dataset(data.y, data.x, (shifted,))
    labels = partition_labels(tree, eval_data)
    assert np.array_equal(labels, partition_labels(tree, data))
    for i in range(eval_data.n):
        assert labels[i] == route_by_hand(tree, eval_data, i).id


def test_unseen_level_routes_right_when_right_child_is_larger():
    split = Split(variable="g", left_levels=("a",), right_levels=("b", "c"))
    tree = TreeNode(id=0, depth=0, fit=LinearFit(0.0, 0.0, 40, 5.0), p_values={},
                    split=split, children=(hand_node(1, 1, 10, 1.0), hand_node(2, 1, 30, 1.0)))
    col = SplitColumn("g", CATEGORICAL, np.array([0, 1, 2, 3]), levels=("a", "b", "c", "d"))
    labels = partition_labels(tree, Dataset(np.zeros(4), np.zeros(4), (col,)))
    assert labels.tolist() == [1, 2, 2, 2]


@pytest.mark.parametrize("children", [0, 1, 2, 3])
@pytest.mark.parametrize("split", [None, Split(variable="z1", point=0.0)], ids=["leaf", "split"])
def test_a_node_is_a_leaf_or_split_in_two(split, children):
    def build():
        return TreeNode(id=7, depth=0, fit=LinearFit(0.0, 0.0, 40, 5.0), p_values={},
                        split=split, children=tuple(hand_node(8 + i, 1, 10, 1.0)
                                                    for i in range(children)))

    if children == (0 if split is None else 2):
        node = build()
        assert node.is_leaf == (split is None)
        assert node.n == node.fit.n == 40
    else:
        with pytest.raises(ValueError, match=f"node 7: {children} children"):
            build()


def test_a_node_holds_its_size_once_and_no_rows():
    assert {"n", "rows"}.isdisjoint(f.name for f in fields(TreeNode))
    with pytest.raises(TypeError):
        TreeNode(id=0, depth=0, n=40, fit=LinearFit(0.0, 0.0, 40, 5.0), p_values={})


# -------------------------------------------------------------- serialization


def test_json_round_trip_preserves_everything():
    data = stump_data(seed=40, n=300, delta=2.0)
    control = GrowControl(alpha=0.2, min_node_size=25, max_depth=3)
    strategy = parse_strategy("mob")
    schema = CsvSchema("y", "x", tuple((c.name, c.kind) for c in data.z))
    tree = grow(data, strategy, control)
    text = tree_to_json(tree, schema, strategy, control)
    payload = json.loads(text)
    assert payload["format"] == TREE_FORMAT
    back, schema2, strategy2, control2 = tree_from_json(text)
    assert schema2 == schema
    assert control2 == control
    assert strategy2.use_scores == strategy.use_scores
    assert strategy2.dichotomize == strategy.dichotomize
    assert strategy2.split_mode == strategy.split_mode

    def compare(a, b):
        assert a.id == b.id and a.depth == b.depth and a.n == b.n
        assert b.fit.beta0 == a.fit.beta0 and b.fit.beta1 == a.fit.beta1
        assert b.fit.rss == a.fit.rss
        assert b.p_values == {k: float(v) for k, v in a.p_values.items()}
        assert (a.split is None) == (b.split is None)
        if a.split is not None:
            assert b.split.variable == a.split.variable
            assert b.split.point == a.split.point
            assert b.split.left_levels == a.split.left_levels
        assert len(a.children) == len(b.children)
        for ca, cb in zip(a.children, b.children):
            compare(ca, cb)

    compare(tree, back)
    # a reloaded tree routes and predicts identically
    assert np.array_equal(partition_labels(back, data), partition_labels(tree, data))
    assert np.array_equal(predict_tree(back, data), predict_tree(tree, data))


def test_json_round_trip_keeps_categorical_splits():
    tree, data = categorical_tree_and_data()
    schema = CsvSchema("y", "x", (("g", CATEGORICAL),))
    control = GrowControl(alpha=0.05, min_node_size=20, max_depth=1)
    text = tree_to_json(tree, schema, parse_strategy("ctree+cat"), control)
    back, _, _, _ = tree_from_json(text)
    assert back.split.left_levels == tree.split.left_levels
    assert back.split.right_levels == tree.split.right_levels
    assert np.array_equal(partition_labels(back, data), partition_labels(tree, data))


def test_grown_fits_equal_and_hash_as_their_stored_fits():
    data = stump_data(seed=40, n=300, delta=2.0)
    control = GrowControl(alpha=0.2, min_node_size=25, max_depth=3)
    schema = CsvSchema("y", "x", tuple((c.name, c.kind) for c in data.z))
    tree = grow(data, "mob", control)
    back, _, _, _ = tree_from_json(tree_to_json(tree, schema, parse_strategy("mob"), control))
    pairs = list(zip(iter_nodes(tree), iter_nodes(back)))
    assert len(pairs) > 1
    for grown, stored in pairs:
        assert grown.fit == stored.fit
        assert hash(grown.fit) == hash(stored.fit)


def levelled_data(seed, n=300):
    # stump_data's columns plus a four-level column that shifts the intercept
    data = stump_data(seed=seed, n=n, delta=1.5)
    codes = np.random.default_rng(seed + 1).integers(0, 4, n)
    g = SplitColumn("g", CATEGORICAL, codes, levels=("a", "b", "c", "d"))
    return Dataset(data.y + 1.0 * (codes >= 2), data.x, data.z + (g,))


@pytest.mark.parametrize("levels", [False, True], ids=["numeric", "categorical"])
@pytest.mark.parametrize("name", sorted(inference.STRATEGIES) + ["residuals,nodich,lin"])
def test_stored_node_fits_retest_to_the_grown_outcomes(name, levels):
    # a tree file suffices to recompute every node's tests: the stored fit
    # and the rows routed to the node give the grown outcomes exactly
    data = levelled_data(42) if levels else stump_data(seed=42, n=300, delta=1.5)
    control = GrowControl(alpha=0.5, min_node_size=20, max_depth=3, prepruning=False)
    schema = CsvSchema("y", "x", tuple((c.name, c.kind) for c in data.z))
    tree = grow(data, name, control)
    text = tree_to_json(tree, schema, parse_strategy(name), control)
    back, _, strategy, control = tree_from_json(text)
    reach = route_rows(back, data, np.arange(data.n))
    grown_reach = assert_fits_follow_routing(tree, data, np.arange(data.n))
    tested = 0
    for grown, stored in zip(iter_nodes(tree), iter_nodes(back)):
        if grown.outcomes:
            rows = reach[stored.id]
            assert np.array_equal(rows, grown_reach[grown.id])
            outcomes, _ = inference.select_variable(control.apply_to(strategy), stored.fit, data,
                                                    rows)
            assert tuple(outcomes) == grown.outcomes
            tested += 1
    assert tested > 1


def test_tree_from_json_rejects_unknown_format():
    with pytest.raises(DataError):
        tree_from_json(json.dumps({"format": "something-else/9", "root": {}}))


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_a_tree_file_reads_back_to_the_same_bytes(name):
    # numeric and categorical splits, and min_segment set in both settings blocks
    data = levelled_data(42)
    control = GrowControl(alpha=0.5, min_node_size=20, min_segment=15, max_depth=3,
                          prepruning=False)
    schema = CsvSchema("y", "x", tuple((c.name, c.kind) for c in data.z))
    tree = grow(data, name, control)
    splits = [node.split for node in iter_nodes(tree) if node.split is not None]
    assert {split.point is None for split in splits} == {False, True}
    text = tree_to_json(tree, schema, control.apply_to(parse_strategy(name)), control)
    assert tree_to_json(*tree_from_json(text)) == text


def stored_mob_tree():
    data = stump_data(seed=40, n=300, delta=2.0)
    control = GrowControl(alpha=0.2, min_node_size=25, max_depth=3)
    schema = CsvSchema("y", "x", tuple((c.name, c.kind) for c in data.z))
    strategy = parse_strategy("mob", multiplicity="none")
    return json.loads(tree_to_json(grow(data, strategy, control), schema, strategy, control))


def test_a_tree_file_without_multiplicity_reads_it_as_bonferroni():
    # files written before the strategy block held multiplicity
    payload = stored_mob_tree()
    del payload["strategy"]["multiplicity"]
    _, _, strategy, _ = tree_from_dict(payload)
    assert strategy == parse_strategy("mob")


@pytest.mark.parametrize("block,key", [
    ("strategy", f.name) for f in fields(inference.StrategyConfig) if f.name != "multiplicity"
] + [("control", f.name) for f in fields(GrowControl)])
def test_a_tree_file_without_a_settings_key_is_rejected(block, key):
    payload = stored_mob_tree()
    del payload[block][key]
    with pytest.raises(DataError, match=f"^malformed tree file: missing key '{key}'$"):
        tree_from_dict(payload)


def test_an_integer_counts_as_a_float_in_a_tree_file():
    payload = stored_mob_tree()
    payload["control"]["alpha"] = 1
    alpha = tree_from_dict(payload)[3].alpha
    assert alpha == 1.0 and type(alpha) is float


@pytest.mark.parametrize("block,key,value", [
    ("control", "alpha", True),  # a boolean is no number
    ("control", "min_node_size", False),
    ("control", "min_segment", 12.0),
    ("strategy", "split_mode", 1),
    ("strategy", "dichotomize", 0),
])
def test_a_settings_value_of_another_json_type_is_rejected(block, key, value):
    payload = stored_mob_tree()
    payload[block][key] = value
    with pytest.raises(DataError, match=f"^malformed tree file: wrong type \\('{key}' is "):
        tree_from_dict(payload)


@pytest.mark.parametrize("path", [
    (), ("schema",), ("schema", "splits", 0), ("strategy",), ("control",), ("root",),
    ("root", "children", 1), ("root", "coefficients"), ("root", "split"),
], ids=lambda path: "/".join(map(str, path)) or "document")
def test_a_key_the_writer_never_writes_is_rejected(path):
    payload = stored_mob_tree()
    block = payload
    for key in path:
        block = block[key]
    block["extra"] = None
    with pytest.raises(DataError, match="^malformed tree file: unknown key 'extra'$"):
        tree_from_dict(payload)


def test_a_level_split_with_an_unknown_key_is_rejected():
    payload = stored_mob_tree()
    variable = payload["root"]["split"]["variable"]
    payload["root"]["split"] = {"variable": variable, "left_levels": ["a"], "right_levels": ["b"],
                                "levels": ["a", "b"]}
    with pytest.raises(DataError, match="^malformed tree file: unknown key 'levels'$"):
        tree_from_dict(payload)


ALPHAS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True) | st.just(1)
MIN_SEGMENTS = st.none() | st.integers(min_value=1, max_value=10**9)


@settings(max_examples=80, deadline=None)
@given(
    strategy=st.builds(inference.StrategyConfig, use_scores=st.booleans(),
                       dichotomize=st.booleans(), split_mode=st.sampled_from(inference.MODES),
                       alpha=ALPHAS, min_segment=MIN_SEGMENTS,
                       multiplicity=st.sampled_from(("bonferroni", "none"))),
    control=st.builds(GrowControl, alpha=ALPHAS, min_node_size=st.integers(3, 10**9),
                      min_segment=MIN_SEGMENTS, max_depth=st.integers(1, 10**9),
                      prepruning=st.booleans()),
)
def test_any_accepted_settings_round_trip_through_a_tree_file(strategy, control):
    tree = hand_node(0, 0, 40, 3.0, children=(hand_node(1, 1, 20, 1.0), hand_node(2, 1, 20, 1.0)))
    schema = CsvSchema("y", "x", (("z1", NUMERIC),))
    text = tree_to_json(tree, schema, strategy, control)
    loaded = tree_from_json(text)
    assert loaded[2:] == (strategy, control)
    assert tree_to_json(*loaded) == text


def leaf_payloads(payload):
    if not payload["children"]:
        return [payload]
    return [leaf for child in payload["children"] for leaf in leaf_payloads(child)]


FAULTS = {
    "split_nulled": "node 1: 2 children and no split",
    "shared_id": "node id 3 is used twice",
    "one_child": "node 0: 1 children and a split",
}


def faulty_tree_file(fault):
    """A grown tree's file with one fault: its first child's split nulled,
    two leaves sharing an id, or its root keeping one child."""
    data = stump_data(seed=5, n=600, delta=3.0)
    control = GrowControl(alpha=0.5, min_node_size=20, max_depth=4, prepruning=False)
    schema = CsvSchema("y", "x", tuple((c.name, c.kind) for c in data.z))
    payload = json.loads(tree_to_json(grow(data, "mob", control), schema, parse_strategy("mob"),
                                      control))
    root = payload["root"]
    assert len(leaf_payloads(root)) >= 8 and root["children"][0]["children"]
    if fault == "split_nulled":
        root["children"][0]["split"] = None
    elif fault == "shared_id":
        first, second = leaf_payloads(root)[:2]
        second["id"] = first["id"]
    else:
        root["children"] = root["children"][:1]
    return data, schema, json.dumps(payload)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_tree_from_json_rejects_a_faulty_tree_file(fault):
    _, _, text = faulty_tree_file(fault)
    with pytest.raises(DataError, match=f"malformed tree file: {FAULTS[fault]}"):
        tree_from_json(text)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_prune_exits_1_on_a_malformed_tree_file(fault, tmp_path, capsys):
    data, schema, text = faulty_tree_file(fault)
    write_csv(data, str(tmp_path / "data.csv"), schema)
    (tmp_path / "tree.json").write_text(text)
    code = cli_main(["prune", "--method", "bic", "--tree", str(tmp_path / "tree.json"),
                     "--data", str(tmp_path / "data.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: malformed tree file: {FAULTS[fault]}")


def test_format_tree_mentions_each_node():
    data = stump_data(seed=41, n=200)
    tree = grow(data, "ctree", GrowControl(max_depth=2))
    text = format_tree(tree)
    lines = text.splitlines()
    assert len(lines) == sum(1 for _ in iter_nodes(tree))
    assert lines[0].startswith("[0]")
    if tree.split is not None:
        assert f"split {tree.split.variable}" in lines[0]


# ------------------------------------------------------------------ validation


def test_grow_control_validation():
    with pytest.raises(ValueError):
        GrowControl(alpha=0.0)
    with pytest.raises(ValueError):
        GrowControl(alpha=1.5)
    with pytest.raises(ValueError):
        GrowControl(min_node_size=2)
    with pytest.raises(ValueError):
        GrowControl(max_depth=0)
    with pytest.raises(ValueError):
        GrowControl(min_segment=0)
    GrowControl(alpha=1.0, min_node_size=3, max_depth=1, min_segment=1)


@pytest.mark.parametrize("build,key,rest", [
    (lambda: GrowControl(prepruning="no"), "prepruning", ""),
    (lambda: GrowControl(max_depth=2.9), "max_depth", ""),
    (lambda: GrowControl(min_node_size=20.5), "min_node_size", ""),
    (lambda: parse_strategy("mob", min_segment=2.5), "min_segment", ""),
    (lambda: parse_strategy("mob", use_scores="no"), "use_scores", ""),
    (lambda: parse_strategy("mob", alpha=True), "alpha", ""),
    (lambda: CsvSchema("y", "x", ((5, NUMERIC),)), "name", ""),
    # a type outside the builtins is named with its module
    (lambda: GrowControl(max_depth=np.int64(3)), "max_depth", r"numpy\.int64, not int$"),
    (lambda: GrowControl(prepruning=np.bool_(True)), "prepruning", r"numpy\.bool, not bool$"),
], ids=["prepruning", "max_depth", "min_node_size", "min_segment", "use_scores", "alpha",
        "schema_name", "numpy_int", "numpy_bool"])
def test_a_settings_value_of_another_type_is_refused(build, key, rest):
    # the tree reader's rule: a bool is no number, a float no int, a string no bool
    with pytest.raises(TypeError, match=f"^'{key}' is {rest}"):
        build()


def test_an_integer_alpha_is_made_a_float():
    for alpha in (GrowControl(alpha=1).alpha, parse_strategy("mob", alpha=1).alpha):
        assert alpha == 1.0 and type(alpha) is float


def test_a_numpy_float_alpha_is_made_a_float():
    for alpha in (GrowControl(alpha=np.float64(0.05)).alpha,
                  parse_strategy("mob", alpha=np.float64(0.05)).alpha):
        assert alpha == 0.05 and type(alpha) is float
