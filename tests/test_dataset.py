"""Data model, CSV round trips, ordering/quantile utilities, seeded streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmtrees.dataset import (
    CATEGORICAL,
    NUMERIC,
    CsvSchema,
    DataError,
    Dataset,
    RngStream,
    SplitColumn,
    derive_stream_id,
    empirical_quartiles,
    load_csv,
    order_permutation,
    write_csv,
)


def col(values, name="z1"):
    return SplitColumn(name, NUMERIC, np.asarray(values, dtype=float))


# ---------------------------------------------------------------- quartiles


def test_quartiles_of_one_to_eight():
    assert empirical_quartiles(col(range(1, 9))) == pytest.approx((2.75, 4.5, 6.25))


def test_quartiles_with_heavy_ties():
    assert empirical_quartiles(col([0, 0, 0, 1])) == pytest.approx((0.0, 0.0, 0.25))


def test_quartiles_need_four_observations():
    with pytest.raises(DataError):
        empirical_quartiles(col([1.0, 2.0, 3.0]))


def test_quartiles_are_permutation_invariant():
    rng = np.random.default_rng(0)
    values = rng.normal(size=37)
    shuffled = values[rng.permutation(37)]
    assert empirical_quartiles(col(values)) == pytest.approx(
        empirical_quartiles(col(shuffled)), abs=0.0
    )


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=4,
        max_size=60,
    )
)
@settings(max_examples=150, deadline=None)
def test_quartiles_are_ordered_and_bounded(values):
    q1, q2, q3 = empirical_quartiles(col(values))
    assert min(values) <= q1 <= q2 <= q3 <= max(values)


# ----------------------------------------------------------------- ordering


def test_order_permutation_is_stable_on_ties():
    perm = order_permutation(col([2.0, 1.0, 2.0, 1.0]))
    assert perm.tolist() == [1, 3, 0, 2]


def test_order_permutation_sorts():
    rng = np.random.default_rng(1)
    values = rng.normal(size=50)
    perm = order_permutation(col(values))
    assert sorted(perm.tolist()) == list(range(50))
    assert np.all(np.diff(values[perm]) >= 0)


def test_order_permutation_rejects_categorical():
    c = SplitColumn("g", CATEGORICAL, np.array([0, 1, 0]), levels=("a", "b"))
    with pytest.raises(DataError):
        order_permutation(c)


# ------------------------------------------------------------- split column


def test_numeric_column_rejects_non_finite():
    with pytest.raises(DataError):
        col([1.0, float("nan")])
    with pytest.raises(DataError):
        col([1.0, float("inf")])


def test_categorical_column_round_trips_labels():
    c = SplitColumn("g", CATEGORICAL, np.array([1, 0, 2, 1]), levels=("a", "b", "c"))
    assert list(c.labels(c.values)) == ["b", "a", "c", "b"]
    sub = c.take(np.array([0, 2]))
    assert sub.values.tolist() == [1, 2]
    assert sub.levels == ("a", "b", "c")


def test_categorical_column_validates_codes_and_levels():
    with pytest.raises(DataError):
        SplitColumn("g", CATEGORICAL, np.array([0, 3]), levels=("a", "b"))
    with pytest.raises(DataError):
        SplitColumn("g", CATEGORICAL, np.array([0, 1]), levels=None)
    with pytest.raises(DataError):
        SplitColumn("g", "ordinal", np.array([0.0]))


def test_numeric_take_subsets_rows():
    c = col([5.0, 6.0, 7.0])
    assert c.take(np.array([2, 0])).values.tolist() == [7.0, 5.0]


# ------------------------------------------------------------------ dataset


def test_dataset_validates_lengths_and_names():
    z = (col([1.0, 2.0]),)
    with pytest.raises(DataError):
        Dataset(np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 2.0]), z)
    with pytest.raises(DataError):
        Dataset(np.array([1.0, 2.0]), np.array([0.0, 1.0]), (col([1, 2]), col([3, 4])))
    data = Dataset(np.array([1.0, 2.0]), np.array([0.0, 1.0]), z)
    assert data.n == 2
    assert data.column("z1").values.tolist() == [1.0, 2.0]
    with pytest.raises(DataError):
        data.column("nope")


def test_dataset_take_subsets_all_columns():
    data = Dataset(
        np.array([1.0, 2.0, 3.0]),
        np.array([0.0, 1.0, 2.0]),
        (col([9.0, 8.0, 7.0]),),
    )
    sub = data.take(np.array([2, 1]))
    assert sub.y.tolist() == [3.0, 2.0]
    assert sub.x.tolist() == [2.0, 1.0]
    assert sub.column("z1").values.tolist() == [7.0, 8.0]


# ---------------------------------------------------------------------- CSV


def make_dataset(n=25, seed=3, with_categorical=True):
    rng = np.random.default_rng(seed)
    z = [SplitColumn("z1", NUMERIC, rng.normal(size=n))]
    if with_categorical:
        codes = rng.integers(0, 3, size=n)
        z.append(SplitColumn("grp", CATEGORICAL, codes, levels=("a", "b", "c")))
    return Dataset(rng.normal(size=n), rng.uniform(-1, 1, n), tuple(z))


def schema_for(data):
    splits = tuple((c.name, c.kind) for c in data.z)
    return CsvSchema(response="y", regressor="x", splits=splits)


def test_csv_round_trip_is_bit_exact(tmp_path):
    data = make_dataset()
    schema = schema_for(data)
    path = str(tmp_path / "data.csv")
    write_csv(data, path, schema)
    back = load_csv(path, schema)
    assert np.array_equal(back.y, data.y)
    assert np.array_equal(back.x, data.x)
    assert np.array_equal(back.column("z1").values, data.column("z1").values)
    orig = data.column("grp")
    got = back.column("grp")
    assert list(got.labels(got.values)) == list(orig.labels(orig.values))


def test_csv_round_trip_survives_awkward_floats(tmp_path):
    tricky = np.array([0.1, 1e-17, 1.7976931348623157e308, -2.2250738585072014e-308, 3.0])
    data = Dataset(tricky, np.arange(5.0), (col(tricky[::-1].copy()),))
    schema = schema_for(data)
    path = str(tmp_path / "data.csv")
    write_csv(data, path, schema)
    back = load_csv(path, schema)
    assert np.array_equal(back.y, data.y)
    assert np.array_equal(back.column("z1").values, data.column("z1").values)


def test_load_csv_skips_utf8_byte_order_mark(tmp_path):
    # spreadsheet exports often start with a byte-order mark
    data = make_dataset()
    schema = schema_for(data)
    plain = tmp_path / "plain.csv"
    write_csv(data, str(plain), schema)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want, got = load_csv(str(plain), schema), load_csv(str(marked), schema)
    assert np.array_equal(got.y, want.y)
    assert np.array_equal(got.x, want.x)
    for w, g in zip(want.z, got.z):
        assert (g.name, g.kind, g.levels) == (w.name, w.kind, w.levels)
        assert np.array_equal(g.values, w.values)


def test_load_csv_reports_row_and_column_of_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,x,z1\n1.0,2.0,3.0\n1.5,oops,0.5\n")
    schema = CsvSchema("y", "x", (("z1", NUMERIC),))
    with pytest.raises(DataError) as err:
        load_csv(str(path), schema)
    assert "x" in str(err.value)
    assert "2" in str(err.value)


def test_load_csv_rejects_missing_column_and_empty_file(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("y,x\n1.0,2.0\n")
    with pytest.raises(DataError):
        load_csv(str(path), CsvSchema("y", "x", (("z1", NUMERIC),)))
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        load_csv(str(empty), CsvSchema("y", "x", ()))


def test_load_csv_rejects_non_finite_and_empty_cells(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("y,x,z1\nnan,1.0,2.0\n")
    schema = CsvSchema("y", "x", (("z1", NUMERIC),))
    with pytest.raises(DataError):
        load_csv(str(path), schema)
    path.write_text("y,x,z1\n1.0,,2.0\n")
    with pytest.raises(DataError):
        load_csv(str(path), schema)


def test_load_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("y,x,z1\n1.0,2.0\n")
    with pytest.raises(DataError):
        load_csv(str(path), CsvSchema("y", "x", (("z1", NUMERIC),)))


def test_csv_categorical_levels_are_sorted_unique(tmp_path):
    path = tmp_path / "cat.csv"
    path.write_text("y,x,g\n1.0,0.0,blue\n2.0,1.0,amber\n3.0,2.0,blue\n")
    data = load_csv(str(path), CsvSchema("y", "x", (("g", CATEGORICAL),)))
    g = data.column("g")
    assert g.levels == ("amber", "blue")
    assert list(g.labels(g.values)) == ["blue", "amber", "blue"]


# ------------------------------------------------------------------ streams


def test_stream_id_is_deterministic_and_sensitive():
    a = derive_stream_id("data", 1, 2.5)
    assert a == derive_stream_id("data", 1, 2.5)
    assert a != derive_stream_id("data", 1, 2.6)
    assert a != derive_stream_id("data", 2, 2.5)
    assert a != derive_stream_id(1, "data", 2.5)


def test_stream_id_distinguishes_types():
    assert derive_stream_id(1) != derive_stream_id("1")
    assert derive_stream_id(1.0) != derive_stream_id(1)
    with pytest.raises(TypeError):
        derive_stream_id(True)


def test_rng_stream_reproducibility():
    a = RngStream(7, 3).uniform(0.0, 1.0, 5)
    b = RngStream(7, 3).uniform(0.0, 1.0, 5)
    assert np.array_equal(a, b)
    c = RngStream(7, 4).uniform(0.0, 1.0, 5)
    assert not np.array_equal(a, c)


def test_rng_substream_is_deterministic_and_independent():
    base = RngStream(11, 0)
    d1 = base.substream("data", 0).standard_normal(4)
    d2 = RngStream(11, 0).substream("data", 0).standard_normal(4)
    d3 = RngStream(11, 0).substream("data", 1).standard_normal(4)
    assert np.array_equal(d1, d2)
    assert not np.array_equal(d1, d3)


def test_rng_permutation_is_a_permutation():
    perm = RngStream(5, 0).permutation(40)
    assert sorted(perm.tolist()) == list(range(40))


def test_rng_draws_are_ordered_streams():
    # consuming draws in sequence must differ from a fresh stream's first draw
    s = RngStream(9, 0)
    first = s.standard_normal(3)
    second = s.standard_normal(3)
    assert not np.array_equal(first, second)
    assert np.array_equal(RngStream(9, 0).standard_normal(3), first)
