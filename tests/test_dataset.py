"""Data model, CSV round trips, ordering/quantile utilities, seeded streams."""

import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmtrees import dataset
from lmtrees.dataset import (
    CATEGORICAL,
    NUMERIC,
    ColumnMatrix,
    CsvSchema,
    DataError,
    Dataset,
    RngStream,
    SplitColumn,
    _parse_float,
    _stable_argsort,
    derive_stream_id,
    empirical_quartiles,
    load_csv,
    order_permutation,
    write_csv,
)

from helpers import ncol as col


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


def assert_stable_presort(values, rows=None):
    # the presort of a (J, n) matrix, and of the index set ``rows``, is the
    # stable argsort of each row, bytes and dtype; a numeric row's order
    # is order_permutation's
    want = np.argsort(values, axis=-1, kind="stable")
    got = _stable_argsort(values)
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    cols = [SplitColumn(f"z{j}", NUMERIC, row) for j, row in enumerate(values)]
    matrix = ColumnMatrix(cols, values.shape[1])
    assert matrix.orders.tobytes() == want.tobytes()
    for row, column in zip(want, cols):
        assert np.array_equal(order_permutation(column), row)
    if rows is not None:
        sub = np.argsort(values[:, rows], axis=-1, kind="stable")
        assert matrix.orders_of(rows).tobytes() == sub.tobytes()


@pytest.mark.parametrize("rows", [
    [[2.0, 1.0, 2.0, 1.0, 3.0, 2.0]],  # ties
    [[0.0, -0.0, 1.0, -0.0, 0.0, -1.0]],  # signed zeros, which compare equal
    [[-2.5] * 6, [0.0, -0.0] * 3],  # constant rows
    [[4.0, 0.0, 2.0, 0.0, 4.0, 1.0]],  # level codes
    [[0.5, -3.0, 7.0, 1e-300, -1e300, 2.0]],  # no tie
    [[2.0, 1.0, 2.0, 1.0, 3.0, 2.0], [0.5, -3.0, 7.0, 1e-300, -1e300, 2.0]],  # tied and not
], ids=["ties", "signed_zeros", "constant", "codes", "distinct", "mixed"])
def test_presort_equals_the_stable_argsort(rows):
    values = np.array(rows)
    assert_stable_presort(values, rows=np.array([0, 2, 3, 5]))


@pytest.mark.parametrize("j,n", [(2, 0), (2, 1), (2, 2), (0, 0), (0, 5)])
def test_presort_of_few_rows_or_no_columns(j, n):
    values = np.array([[1.0, -0.0], [0.0, 0.0]])[:j, :n] if n <= 2 else np.empty((j, n))
    assert_stable_presort(values.reshape(j, n), rows=np.arange(0, n, 2))


def test_presort_of_a_categorical_column_orders_its_codes_stably():
    codes = SplitColumn("g", CATEGORICAL, np.array([1, 0, 2, 0, 1, 1]), levels=("a", "b", "c"))
    matrix = ColumnMatrix([codes, col([3.0, 1.0, 2.0, 1.0, 0.0, 5.0])], 6)
    want = np.argsort(matrix.values, axis=-1, kind="stable")
    assert matrix.orders.tobytes() == want.tobytes()
    assert matrix.orders[0].tolist() == [1, 3, 0, 4, 5, 2]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 300),
    j=st.integers(1, 5),
    levels=st.sampled_from([1, 2, 5, 256, 257, 65537]),
)
def test_presort_of_level_codes_equals_the_stable_argsort(seed, n, j, levels):
    # level rows are sorted as uint8, uint16 or uint32 codes, numeric rows
    # as floats; every row's order is the stable argsort of its floats
    rng = np.random.default_rng(seed)
    names = tuple(str(level) for level in range(levels))
    cols = [col(np.round(rng.normal(size=n), 1), f"z{i}") if rng.uniform() < 0.5 else
            SplitColumn(f"g{i}", CATEGORICAL, rng.integers(0, levels, n), levels=names)
            for i in range(j)]
    matrix = ColumnMatrix(cols, n)
    want = np.argsort(matrix.values, axis=-1, kind="stable")
    assert matrix.orders.dtype == want.dtype and matrix.orders.tobytes() == want.tobytes()


def test_presort_re_sorts_a_row_the_default_sort_reorders():
    # numpy's default sort does not keep tied values in row order: it
    # reorders the five-value row where it dispatches x86-simd-sort (AVX2,
    # AVX-512) and the forty-value row with its scalar introsort as well
    first, second = np.array([2.0, 2.0, 0.0, 1.0, 1.0]), np.array([1.0, 0.0] * 20)
    assert not np.array_equal(np.argsort(second), np.argsort(second, kind="stable"))
    assert _stable_argsort(first).tolist() == [2, 3, 4, 0, 1]
    assert _stable_argsort(second).tolist() == list(range(1, 40, 2)) + list(range(0, 40, 2))
    assert_stable_presort(first[None])
    assert_stable_presort(second[None])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), j=st.integers(0, 4), n=st.integers(0, 30),
       pool=st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]), min_size=1, max_size=5))
def test_presort_of_small_matrices_with_duplicates(data, j, n, pool):
    # every entry drawn from a pool of at most five values, so rows repeat
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=j * n, max_size=j * n))
    values = np.array(pool)[np.array(picks, dtype=np.intp)].reshape(j, n)
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    assert_stable_presort(values, rows=np.flatnonzero(np.array(keep, dtype=bool)))


# ------------------------------------------------------------- split column


def test_numeric_column_keeps_a_float64_array_without_a_copy():
    values = np.linspace(-1.0, 1.0, 7)
    assert np.shares_memory(SplitColumn("z", NUMERIC, values).values, values)
    # other dtypes are still converted to float
    assert SplitColumn("z", NUMERIC, np.arange(3)).values.dtype == np.float64


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


@pytest.mark.parametrize("codes", [[0.7, 1.9, 0.2], [0.5, -0.5], [1.0, 0.25]])
def test_categorical_column_rejects_non_integer_codes(codes):
    # the codes are not truncated to levels: [0.5, -0.5] would pass the range check as [0, 0]
    with pytest.raises(DataError, match="non-integer"):
        SplitColumn("c", CATEGORICAL, codes, levels=("a", "b"))
    # integral floats are codes
    assert SplitColumn("c", CATEGORICAL, [1.0, 0.0], levels=("a", "b")).values.tolist() == [1, 0]


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


@pytest.mark.parametrize("build,message", [
    (lambda: SplitColumn("z", NUMERIC, np.zeros((2, 2))), "'z' must be one-dimensional"),
    (lambda: Dataset(np.zeros((2, 1)), np.zeros(2), ()), "must be one-dimensional"),
    (lambda: Dataset(np.zeros(3), np.zeros(2), ()), "lengths differ"),
    (lambda: Dataset(np.zeros(2), np.array([0.0, np.inf]), ()), "must be finite"),
    (lambda: CsvSchema("y", "x", (("y", NUMERIC),)), "must name distinct columns"),
    (lambda: CsvSchema("y", "x", (("z", "ordinal"),)), "unknown split kind 'ordinal'"),
], ids=["column_2d", "response_2d", "unequal_lengths", "regressor_non_finite",
        "schema_repeated_role", "schema_unknown_kind"])
def test_constructors_reject_malformed_input(build, message):
    with pytest.raises(DataError, match=message):
        build()


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


def test_write_csv_without_a_schema_names_the_roles_y_and_x(tmp_path):
    data = make_dataset()
    path = str(tmp_path / "data.csv")
    write_csv(data, path)
    back = load_csv(path, schema_for(data))
    assert np.array_equal(back.y, data.y) and np.array_equal(back.x, data.x)
    assert np.array_equal(back.column("grp").values, data.column("grp").values)


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


def test_load_csv_turns_a_csv_parser_error_into_a_data_error(tmp_path):
    # a cell beyond the csv module's field size limit names the file and line
    path = tmp_path / "huge.csv"
    path.write_text("y,x,z\n1.0,2.0,3.0\n1.0,2.0," + "9" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(DataError, match=r"huge\.csv: line 3: field larger than field limit"):
        load_csv(str(path), CsvSchema("y", "x", (("z", NUMERIC),)))


def test_csv_categorical_levels_are_sorted_unique(tmp_path):
    path = tmp_path / "cat.csv"
    path.write_text("y,x,g\n1.0,0.0,blue\n2.0,1.0,amber\n3.0,2.0,blue\n")
    data = load_csv(str(path), CsvSchema("y", "x", (("g", CATEGORICAL),)))
    g = data.column("g")
    assert g.levels == ("amber", "blue")
    assert list(g.labels(g.values)) == ["blue", "amber", "blue"]


def test_load_csv_rejects_a_repeated_declared_column(tmp_path):
    path = tmp_path / "twice.csv"
    path.write_text("y,x,z,z\n1.0,2.0,3.0,4.0\n")
    with pytest.raises(DataError, match="'z' repeats in header"):
        load_csv(str(path), CsvSchema("y", "x", (("z", NUMERIC),)))
    # an undeclared column may repeat
    path.write_text("y,x,w,w\n1.0,2.0,3.0,4.0\n")
    assert load_csv(str(path), CsvSchema("y", "x", ())).y.tolist() == [1.0]


def reference_load_csv(path, schema):
    """The loader that read every row into a list before parsing any,
    kept as a differential oracle for :func:`load_csv`."""
    with open(path, "r", newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        index = {name: i for i, name in enumerate(header)}
        wanted = [schema.response, schema.regressor] + [n for n, _ in schema.splits]
        for name in wanted:
            if name not in index:
                raise DataError(f"{path}: column {name!r} not found in header {header}")
        rows = list(reader)
    y = np.empty(len(rows))
    x = np.empty(len(rows))
    numeric_buffers = {name: np.empty(len(rows)) for name, kind in schema.splits if kind == NUMERIC}
    cat_buffers = {name: [] for name, kind in schema.splits if kind == CATEGORICAL}
    for r, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: data row {r} has {len(row)} fields, expected {len(header)}")
        y[r - 1] = _parse_float(row[index[schema.response]], schema.response, r)
        x[r - 1] = _parse_float(row[index[schema.regressor]], schema.regressor, r)
        for name, kind in schema.splits:
            token = row[index[name]]
            if kind == NUMERIC:
                numeric_buffers[name][r - 1] = _parse_float(token, name, r)
            else:
                label = token.strip()
                if not label:
                    raise DataError(f"missing value in column {name!r} at data row {r}")
                cat_buffers[name].append(label)
    columns = []
    for name, kind in schema.splits:
        if kind == NUMERIC:
            columns.append(SplitColumn(name, NUMERIC, numeric_buffers[name]))
        else:
            levels = tuple(sorted(set(cat_buffers[name])))
            code = {label: i for i, label in enumerate(levels)}
            values = np.array([code[label] for label in cat_buffers[name]], dtype=np.int64)
            columns.append(SplitColumn(name, CATEGORICAL, values, levels))
    return Dataset(y, x, tuple(columns))


# "\x1c" is stripped by str.strip but not by float; the other two by both
PADDING = st.sampled_from(["", " ", "  ", "\x1c", "\u00a0", "\u2003"])
GOOD_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["1e3", "+.5", "-0", "1_000", "0.1", "١٢", "٣.٥e-١", "2_5.0_1e1_0"]),
)
BAD_NUMBERS = st.sampled_from(
    ["", "  ", "nan", "inf", "-inf", "1e400", "abc", "1,5", "0x10", "1__0", "_1", "1.5\x1c2"])
GOOD_LABELS = st.sampled_from(["a", "b", "b c", "x,y", 'say "hi"', "line\nbreak", "é"])
BAD_LABELS = st.sampled_from(["", "   "])


@st.composite
def csv_cases(draw):
    """CSV text for a random schema: valid files, or files with a few bad
    cells and short or long rows."""
    kinds = draw(st.lists(st.sampled_from([NUMERIC, CATEGORICAL]), max_size=3))
    splits = tuple((f"z{i}", kind) for i, kind in enumerate(kinds))
    extras = [f"extra {i}" for i in range(draw(st.integers(0, 2)))]
    names = draw(st.permutations(["y", "x", *(name for name, _ in splits), *extras]))
    kind_of = {"y": NUMERIC, "x": NUMERIC, **dict(splits)}
    clean = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        row = []
        for name in names:
            if kind_of.get(name, CATEGORICAL) == NUMERIC:
                token = draw(GOOD_NUMBERS if clean else st.one_of(GOOD_NUMBERS, BAD_NUMBERS))
            else:
                token = draw(GOOD_LABELS if clean else st.one_of(GOOD_LABELS, BAD_LABELS))
            row.append(draw(PADDING) + token + draw(PADDING))
        if not clean:
            # drop the last cell or append one now and then
            row = row[: draw(st.integers(len(row) - 1, len(row)))]
            row += draw(st.lists(PADDING, max_size=1))
        rows.append(row)
    buffer = io.StringIO()
    writer = csv.writer(
        buffer,
        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
        lineterminator=draw(st.sampled_from(["\n", "\r\n"])),
    )
    writer.writerow([draw(PADDING) + name for name in names])
    writer.writerows(rows)
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + buffer.getvalue(), CsvSchema("y", "x", splits)


def loaded_or_error(loader, path, schema):
    try:
        data = loader(path, schema)
    except DataError as err:
        return str(err)
    columns = [("y", NUMERIC, None, data.y), ("x", NUMERIC, None, data.x)]
    columns += [(c.name, c.kind, c.levels, c.values) for c in data.z]
    return [(name, kind, levels, a.dtype.str, a.tobytes()) for name, kind, levels, a in columns]


@settings(max_examples=300, deadline=None)
@given(case=csv_cases())
def test_load_csv_matches_the_row_list_loader(tmp_path_factory, case):
    text, schema = case
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(text.encode("utf-8"))
    want = loaded_or_error(reference_load_csv, str(path), schema)
    # chunks of 1 to 3 rows put bad cells and ragged rows in later chunks
    for chunk in (dataset.CSV_CHUNK, 1, 2, 3):
        with mock.patch.object(dataset, "CSV_CHUNK", chunk):
            assert loaded_or_error(load_csv, str(path), schema) == want, chunk


def test_load_csv_strips_what_float_does_not(tmp_path):
    # float() rejects a leading "\x1c" that str.strip() removes
    path = tmp_path / "control.csv"
    path.write_text("y,x\n\x1c1.5,2\n3,\x1f4\x1e\n")
    data = load_csv(str(path), CsvSchema("y", "x", ()))
    assert data.y.tolist() == [1.5, 3.0] and data.x.tolist() == [2.0, 4.0]


@pytest.mark.parametrize("chunk", [dataset.CSV_CHUNK, 1])
def test_load_csv_reports_a_bad_cell_before_a_later_csv_parser_error(tmp_path, chunk):
    path = tmp_path / "late.csv"
    huge = "9" * (csv.field_size_limit() + 1)
    schema = CsvSchema("y", "x", (("z", NUMERIC),))
    with mock.patch.object(dataset, "CSV_CHUNK", chunk):
        path.write_text(f"y,x,z\n1.0,oops,3.0\n1.0,2.0,{huge}\n")
        bad_cell = "cannot parse 'oops' as a number in column 'x' at data row 1"
        with pytest.raises(DataError, match=bad_cell):
            load_csv(str(path), schema)
        path.write_text(f"y,x,z\n1.0,2.0,3.0\n1.0,2.0,{huge}\n")
        with pytest.raises(DataError, match=r"late\.csv: line 3: field larger than field limit"):
            load_csv(str(path), schema)


def test_load_csv_peak_memory_is_a_small_multiple_of_its_arrays(tmp_path):
    # 20 000 rows of y, x, ten numeric columns and a five-level label
    n = 20000
    rng = np.random.default_rng(17)
    z = [SplitColumn(f"z{j}", NUMERIC, rng.normal(size=n)) for j in range(1, 11)]
    levels = ("central", "east", "north", "south", "west")
    z.append(SplitColumn("region", CATEGORICAL, rng.integers(0, 5, n), levels=levels))
    data = Dataset(rng.normal(size=n), rng.uniform(-1, 1, n), tuple(z))
    schema = schema_for(data)
    path = str(tmp_path / "wide.csv")
    write_csv(data, path, schema)
    tracemalloc.start()
    try:
        back = load_csv(path, schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (back.y, back.x, *(c.values for c in back.z)))
    assert held == 13 * 8 * n
    assert peak < 5 * held, f"peak {peak} bytes for {held} bytes of arrays"


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
