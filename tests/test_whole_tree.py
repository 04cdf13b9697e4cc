"""Whole-tree metamorphic oracles: grown trees under maps of their data
that leave the partition unchanged, and the selection gate as a cut of
the tree grown without it.

A reference re-record moves digests in their last bits; these relations
still hold after one, so they tell such a change from a regression.
"""

from dataclasses import replace

import numpy as np
import pytest

from lmtrees.dataset import NUMERIC, Dataset, RngStream, SplitColumn
from lmtrees.inference import LAW_DEGENERATE, MODE_LIN, STRATEGIES
from lmtrees.sim import ScenarioConfig, generate
from lmtrees.tree import GrowControl, grow, iter_nodes, leaves, route_rows

PREPRUNED = GrowControl(alpha=0.05, min_node_size=20, max_depth=5)
UNPRUNED = replace(PREPRUNED, max_depth=4, prepruning=False)
CONTROLS = {"prepruned": PREPRUNED, "unpruned": UNPRUNED}
# (seed, xi, delta) of the tree scenario at n 250
CELLS = [(0, 0.0, 1.0), (1, 0.5, 1.0), (2, -0.3, 0.5), (3, 0.0, 2.0)]


def tree_data(seed, xi, delta):
    return generate(ScenarioConfig("tree", "both", xi=xi, delta=delta), RngStream(seed, 0))


def mapped(data, f):
    """``data`` with ``f`` applied to every split column."""
    return Dataset(data.y, data.x, tuple(SplitColumn(c.name, NUMERIC, f(c.values)) for c in data.z))


def partition(tree, data, origin):
    """The leaves' row sets, each row named by ``origin``."""
    reach = route_rows(tree, data, np.arange(data.n))
    return {frozenset(origin[reach[leaf.id]].tolist()) for leaf in leaves(tree)}


def assert_same_tree(got, got_data, want, want_data, origin=None, rel=0.0):
    """Equal partitions, split variables in preorder and leaf counts, and
    p-values within ``rel`` (0 asks for equal bits)."""
    origin = np.arange(want_data.n) if origin is None else origin
    assert partition(got, got_data, origin) == partition(want, want_data, np.arange(want_data.n))
    assert len(leaves(got)) == len(leaves(want))
    assert ([n.split.variable for n in iter_nodes(got) if n.split]
            == [n.split.variable for n in iter_nodes(want) if n.split])
    for a, b in zip(iter_nodes(got), iter_nodes(want)):
        assert a.p_values.keys() == b.p_values.keys()
        if rel == 0.0:
            assert repr(a.p_values) == repr(b.p_values)
        else:
            assert list(a.p_values.values()) == pytest.approx(list(b.p_values.values()), rel=rel)


@pytest.mark.parametrize("control", CONTROLS.values(), ids=CONTROLS.keys())
@pytest.mark.parametrize("name", STRATEGIES)
def test_trees_do_not_depend_on_row_order(name, control):
    # summation order moves p-values in their last bits (2.9e-14 seen);
    # cv_prune is left out, since its fold assignment follows row order
    for seed, xi, delta in CELLS:
        data = tree_data(seed, xi, delta)
        perm = np.random.default_rng(seed + 100).permutation(data.n)
        shuffled = data.take(perm)
        assert_same_tree(grow(shuffled, name, control), shuffled, grow(data, name, control), data,
                         origin=perm, rel=1e-12)


@pytest.mark.parametrize("control", CONTROLS.values(), ids=CONTROLS.keys())
@pytest.mark.parametrize("name", STRATEGIES)
def test_trees_do_not_depend_on_an_affine_map_of_the_split_columns(name, control):
    # the max and cat routes read ranks and quartile bins, the same bits;
    # the lin route reads the values (1e-5 allowed, 8e-7 seen)
    rel = 1e-5 if STRATEGIES[name].split_mode == MODE_LIN else 0.0
    for cell in CELLS:
        data = tree_data(*cell)
        moved = mapped(data, lambda z: 1e-3 * z + 5.0)
        assert_same_tree(grow(moved, name, control), moved, grow(data, name, control), data, rel=rel)


@pytest.mark.parametrize("control", CONTROLS.values(), ids=CONTROLS.keys())
@pytest.mark.parametrize("name", [s for s, c in STRATEGIES.items() if c.split_mode != MODE_LIN])
def test_rank_routes_do_not_depend_on_a_monotone_map_of_the_split_columns(name, control):
    for cell in CELLS:
        data = tree_data(*cell)
        moved = mapped(data, lambda z: np.exp(3.0 * z))
        assert_same_tree(grow(moved, name, control), moved, grow(data, name, control), data)


# these strategies' quadratic-form routes move in their last bits under
# the scale (2.6e-14 seen); every other route keeps its bits
SCALE_REL = {"ctree": 1e-12, "ctree+cat": 1e-12, "mob+cat": 1e-12}


@pytest.mark.parametrize("control", CONTROLS.values(), ids=CONTROLS.keys())
@pytest.mark.parametrize("name", STRATEGIES)
def test_trees_do_not_depend_on_a_power_of_two_scale_of_the_response(name, control):
    # 2^±500 keeps every rss a normal double: 250 rows at 2^510 overflow it
    for cell in CELLS:
        data = tree_data(*cell)
        want = grow(data, name, control)
        for e in (-500, -300, 300, 500):
            scaled = Dataset(np.ldexp(data.y, e), data.x, data.z)
            assert_same_tree(grow(scaled, name, control), scaled, want, data,
                             rel=SCALE_REL.get(name, 0.0))


def gate_cut(node, alpha):
    """``node`` with every node whose Bonferroni-gated minimum p-value
    misses ``alpha`` made a leaf."""
    tested = [o.p_value for o in node.outcomes if o.law != LAW_DEGENERATE]
    if node.is_leaf or min(1.0, len(tested) * min(tested)) >= alpha:
        return replace(node, split=None, children=())
    return replace(node, children=tuple(gate_cut(child, alpha) for child in node.children))


def node_facts(tree):
    # node ids are preorder counts, so a cut tree numbers its nodes anew
    return [(n.depth, repr(n.fit), n.split, repr(n.p_values), len(n.children))
            for n in iter_nodes(tree)]


@pytest.mark.parametrize("name", STRATEGIES)
def test_the_prepruned_tree_is_the_unpruned_tree_cut_at_the_gate(name):
    # without prepruning a node splits on the argmin column as the gate
    # would pick it, and only ignores whether it passes
    control = GrowControl(alpha=0.05, min_node_size=20, max_depth=4)
    for seed in range(5):
        for xi, delta in ((0.0, 1.0), (0.5, 0.5), (-0.3, 2.0)):
            data = tree_data(10 + seed, xi, delta)
            full = grow(data, name, replace(control, prepruning=False))
            assert node_facts(grow(data, name, control)) == node_facts(gate_cut(full, control.alpha))
