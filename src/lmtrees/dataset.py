"""Tabular container, CSV ingestion, and seeded random streams.

A :class:`Dataset` bundles one numeric response, one numeric regressor,
and any number of split columns (numeric or categorical).  Categorical
columns are stored as integer codes into a sorted level list so that row
subsetting never loses levels.  Randomness everywhere in the package
flows through :class:`RngStream`, a counter-based generator keyed by
``(seed, stream)`` so that independent sub-streams can be derived
deterministically on any platform.
"""

from __future__ import annotations

import csv
import hashlib
import math
from array import array
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import count, islice
from typing import Iterable, Sequence, get_args, get_type_hints

import numpy as np

__all__ = [
    "DataError",
    "SplitColumn",
    "Dataset",
    "ColumnMatrix",
    "CsvSchema",
    "RngStream",
    "derive_stream_id",
    "load_csv",
    "write_csv",
    "order_permutation",
    "partition_orders",
    "empirical_quartiles",
]

NUMERIC = "numeric"
CATEGORICAL = "categorical"


class DataError(ValueError):
    """Raised for malformed input data or schema violations."""


def typed(value, hint, key: str):
    """``value`` if it has the type ``hint`` (a class or union), else ``TypeError`` naming
    ``key``, for settings and tree files alike: a bool is no number, an int or any float
    (a numpy one too) is made an exact float, and ``None`` passes only where ``hint`` allows it."""
    kinds = get_args(hint) or (hint,)
    if float in kinds and (isinstance(value, float) or type(value) is int):
        return float(value)
    if type(value) in kinds or isinstance(value, hint) and type(value) is not bool:
        return value
    name = lambda t: f"{t.__module__}.{t.__qualname__}".removeprefix("builtins.")
    raise TypeError(f"{key!r} is {name(type(value))}, not {'/'.join(map(name, kinds))}")


_field_types = cache(get_type_hints)  # a dataclass's field types, resolved once


def typed_fields(obj) -> None:
    """Put each field of the frozen dataclass ``obj`` through :func:`typed`, in place."""
    for key, hint in _field_types(type(obj)).items():
        object.__setattr__(obj, key, typed(getattr(obj, key), hint, key))


@dataclass(frozen=True)
class SplitColumn:
    """One candidate split variable: a ``name`` unique within its dataset,
    its ``kind`` (``"numeric"`` or ``"categorical"``) and its ``values``,
    floats or integer codes into the sorted level labels ``levels``."""

    name: str
    kind: str
    values: np.ndarray
    levels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise DataError(f"unknown column kind {self.kind!r}")
        values = np.asarray(self.values)
        if values.ndim != 1:
            raise DataError(f"column {self.name!r} must be one-dimensional")
        if self.kind == NUMERIC:
            values = np.asarray(values, dtype=float)  # a float64 column is kept, not copied
            if not np.all(np.isfinite(values)):
                raise DataError(f"column {self.name!r} contains non-finite values")
        else:
            if self.levels is None:
                raise DataError(f"categorical column {self.name!r} needs levels")
            codes = values.astype(np.int64)
            if not np.array_equal(codes, values):
                raise DataError(f"column {self.name!r} has non-integer level codes")
            if codes.size and (codes.min() < 0 or codes.max() >= len(self.levels)):
                raise DataError(f"column {self.name!r} has out-of-range level codes")
            values = codes
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    def take(self, rows: np.ndarray) -> "SplitColumn":
        """Return a copy restricted to ``rows`` (levels are preserved); a
        row subset of valid values is valid, so it is not checked again."""
        sub = object.__new__(SplitColumn)
        sub.__dict__.update(self.__dict__, values=self.values[rows])
        return sub

    def labels(self, codes: Iterable[int]) -> tuple[str, ...]:
        if self.levels is None:
            raise DataError(f"column {self.name!r} is not categorical")
        return tuple(self.levels[int(c)] for c in codes)


@dataclass(frozen=True)
class Dataset:
    """Response, regressor, and split columns with equal row counts."""

    y: np.ndarray
    x: np.ndarray
    z: tuple[SplitColumn, ...]

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if y.ndim != 1 or x.ndim != 1:
            raise DataError("response and regressor must be one-dimensional")
        if y.shape[0] != x.shape[0]:
            raise DataError("response and regressor lengths differ")
        if not np.all(np.isfinite(y)) or not np.all(np.isfinite(x)):
            raise DataError("response and regressor must be finite")
        names = set()
        for col in self.z:
            if col.n != y.shape[0]:
                raise DataError(f"column {col.name!r} length differs from response")
            if col.name in names:
                raise DataError(f"duplicate column name {col.name!r}")
            names.add(col.name)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", tuple(self.z))

    @property
    def n(self) -> int:
        return int(self.y.shape[0])

    def column(self, name: str) -> SplitColumn:
        for col in self.z:
            if col.name == name:
                return col
        raise DataError(f"no split column named {name!r}")

    def take(self, rows: np.ndarray) -> "Dataset":
        """Row-subset copy (its presort is not carried over)."""
        rows = np.asarray(rows)
        return Dataset(self.y[rows], self.x[rows], tuple(c.take(rows) for c in self.z))

    @cached_property
    def columns(self) -> "ColumnMatrix":
        """The split columns stacked once per dataset; every tree grown on
        it, or on an index set of its rows, shares their presort."""
        return ColumnMatrix(self.z, self.n)


class ColumnMatrix:
    """Split columns as the rows of one (J, n) float matrix (categorical
    ones as codes) with the mask of ``numeric`` rows, and ``orders``, each
    row's stable sort, computed on first use (the CART presort)."""

    def __init__(self, cols: Sequence[SplitColumn], n: int) -> None:
        # the reshape keeps a matrix of no columns two-dimensional
        values = np.array([col.values for col in cols], dtype=float)
        self.values = values.reshape(len(cols), n)
        self.numeric = np.array([col.kind != CATEGORICAL for col in cols], dtype=bool)

    @cached_property
    def orders(self) -> np.ndarray:
        if self.numeric.all():
            return _stable_argsort(self.values)
        # level codes as the smallest unsigned integers, which numpy's stable sort radix-sorts
        return np.array([_stable_argsort(row) if numeric else np.argsort(
            row.astype(np.min_scalar_type(int(row.max(initial=0)))), kind="stable")
            for row, numeric in zip(self.values, self.numeric)])

    def orders_of(self, rows: np.ndarray | None = None) -> np.ndarray:
        """``orders`` restricted to ``rows`` (increasing), in positions
        within ``rows``: the node orders of that index set."""
        if rows is None:
            return self.orders
        mask = np.zeros(self.values.shape[1], dtype=bool)
        mask[rows] = True
        return partition_orders(self.orders, mask)[0]


@dataclass(frozen=True)
class CsvSchema:
    """Column-role declaration for :func:`load_csv`.

    ``splits`` lists ``(name, kind)`` pairs in the order the variables
    should be indexed; that order also breaks p-value ties during
    variable selection.  Every name and kind is a string (:func:`typed`).
    """

    response: str
    regressor: str
    splits: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        splits = tuple((typed(n, str, "name"), typed(k, str, "kind")) for n, k in self.splits)
        object.__setattr__(self, "splits", splits)
        names = [typed(self.response, str, "response"), typed(self.regressor, str, "regressor"),
                 *(n for n, _ in splits)]
        if len(set(names)) != len(names):
            raise DataError("column roles must name distinct columns")
        for _, kind in self.splits:
            if kind not in (NUMERIC, CATEGORICAL):
                raise DataError(f"unknown split kind {kind!r}")


def _parse_float(token: str, column: str, row: int) -> float:
    text = token.strip()
    if not text:
        raise DataError(f"missing value in column {column!r} at data row {row}")
    try:
        value = float(text)
    except ValueError as exc:
        raise DataError(
            f"cannot parse {token!r} as a number in column {column!r} at data row {row}"
        ) from exc
    if not math.isfinite(value):
        raise DataError(f"non-finite value in column {column!r} at data row {row}")
    return value


CSV_CHUNK = 2048  # rows that load_csv parses a column at a time


def _parse_chunk(path: str, rows: list, start: int, width: int, columns: list) -> list:
    """Parse data rows ``start``, ... into floats or stripped labels, one call
    per column.  A chunk that fails anywhere is parsed again cell by cell:
    that raises its first bad cell in row order, or gives its values where
    ``float`` was only stricter than ``_parse_float`` (``str.strip`` also
    removes ``\\x1c``-``\\x1f``)."""
    try:
        if set(map(len, rows)) != {width}:
            raise ValueError("ragged or empty chunk")
        cells = list(zip(*rows))
        parsed = [np.fromiter(map(float, cells[i]), float, len(rows)) if kind == NUMERIC
                  else list(map(str.strip, cells[i])) for _, kind, i, _, _ in columns]
        if all(np.isfinite(part).all() if kind == NUMERIC else all(part)
               for (_, kind, *_), part in zip(columns, parsed)):
            return parsed
    except ValueError:
        pass
    parsed = [[] for _ in columns]
    for r, row in enumerate(rows, start):
        if len(row) != width:
            raise DataError(f"{path}: data row {r} has {len(row)} fields, expected {width}")
        for (name, kind, i, _, _), values in zip(columns, parsed):
            label = row[i].strip()
            if not label:  # _parse_float's message for an empty numeric cell too
                raise DataError(f"missing value in column {name!r} at data row {r}")
            values.append(_parse_float(row[i], name, r) if kind == NUMERIC else label)
    return parsed


def load_csv(path: str, schema: CsvSchema) -> Dataset:
    """Read an RFC-4180 CSV file with a header row into a :class:`Dataset`.

    Rows are read and parsed ``CSV_CHUNK`` at a time, a column per call,
    keeping no list of all rows.  Numeric fields use a dot decimal
    separator; a leading UTF-8 byte-order mark is skipped.  Empty cells in
    declared columns (named by row and column), repeated declared names in
    the header and malformed CSV (named by line) are rejected.
    """
    with open(path, "r", newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
            roles = [(schema.response, NUMERIC), (schema.regressor, NUMERIC), *schema.splits]
            for name, _ in roles:
                if name not in header:
                    raise DataError(f"{path}: column {name!r} not found in header {header}")
                if header.count(name) > 1:
                    raise DataError(f"{path}: column {name!r} repeats in header {header}")
            # a categorical column keeps one string object per label
            columns = [(name, kind, header.index(name), array("d") if kind == NUMERIC else [], {})
                       for name, kind in roles]
            for start in count(1, CSV_CHUNK):
                rows = []
                try:
                    rows.extend(islice(reader, CSV_CHUNK))
                finally:  # a bad cell on a row before a csv.Error is reported first
                    parsed = _parse_chunk(path, rows, start, len(header), columns)
                for (_, kind, _, values, seen), part in zip(columns, parsed):
                    if kind == NUMERIC:
                        values.frombytes(np.asarray(part, float).tobytes())
                    else:
                        values.extend(map(seen.setdefault, part, part))
                if len(rows) < CSV_CHUNK:
                    break
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    splits = []
    for name, kind, _, values, seen in columns[2:]:
        if kind == NUMERIC:
            splits.append(SplitColumn(name, NUMERIC, np.frombuffer(values)))
            continue
        levels = tuple(sorted(seen))
        code = {label: i for i, label in enumerate(levels)}
        codes = np.fromiter(map(code.__getitem__, values), np.int64, len(values))
        splits.append(SplitColumn(name, CATEGORICAL, codes, levels))
    return Dataset(np.frombuffer(columns[0][3]), np.frombuffer(columns[1][3]), tuple(splits))


def _format_value(value: float) -> str:
    # 17 significant digits round-trip any finite double exactly
    return format(float(value), ".17g")


def write_csv(data: Dataset, path: str, schema: CsvSchema | None = None) -> None:
    """Write a dataset back to CSV; numeric cells round-trip bit-exactly."""
    if schema is None:
        schema = CsvSchema("y", "x", tuple((c.name, c.kind) for c in data.z))
    header = [schema.response, schema.regressor] + [c.name for c in data.z]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(data.n):
            row = [_format_value(data.y[i]), _format_value(data.x[i])]
            for col in data.z:
                if col.kind == NUMERIC:
                    row.append(_format_value(col.values[i]))
                else:
                    row.append(col.levels[int(col.values[i])])
            writer.writerow(row)


def order_permutation(col: SplitColumn) -> np.ndarray:
    """Stable permutation sorting a numeric column's values ascending: ties
    keep their relative order, which pins down the fluctuation test's path."""
    if col.kind != NUMERIC:
        raise DataError(f"column {col.name!r} is not numeric, cannot order")
    return _stable_argsort(col.values)


def _stable_argsort(values: np.ndarray) -> np.ndarray:
    """Each row's stable argsort: the default sort's, unique without ties; tied rows re-sorted."""
    orders = np.argsort(values, axis=-1)
    ranked = np.take_along_axis(values, orders, axis=-1)
    tied = (ranked[..., 1:] == ranked[..., :-1]).any(axis=-1)
    orders[tied] = np.argsort(values[tied], axis=-1, kind="stable")
    return orders


def partition_orders(orders: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a node's (J, n) column ``orders`` by a row ``mask`` into the
    orders of the rows where it is true and of the rest, each renumbered
    by position among its own rows.  One stable pass keeps every row's
    entries sorted by value and then by row, as a stable sort of each
    side's columns is; O(J n), with no sort."""
    inside = int(np.count_nonzero(mask))
    renumber = np.where(mask, np.cumsum(mask), np.cumsum(~mask)) - 1
    # take and compress on flat arrays run several times faster than
    # fancy and 2-d boolean indexing
    ranks, left = np.take(renumber, orders), np.take(mask, orders).ravel()
    return (np.compress(left, ranks).reshape(orders.shape[0], inside),
            np.compress(~left, ranks).reshape(orders.shape[0], mask.shape[0] - inside))


def empirical_quartiles(col: SplitColumn) -> tuple[float, float, float]:
    """Sample quartiles by linear interpolation of order statistics at
    positions ``(n - 1) * p`` (the common "type 7" definition), of four or
    more observations; ties may make quartiles coincide, and the bins they
    bound then merge."""
    if col.kind != NUMERIC:
        raise DataError(f"column {col.name!r} is not numeric, cannot take quartiles")
    if col.n < 4:
        raise DataError("need at least four observations for quartiles")
    q1, q2, q3 = np.quantile(col.values, (0.25, 0.5, 0.75))
    return float(q1), float(q2), float(q3)


def derive_stream_id(*parts: object) -> int:
    """Hash a tuple of labels into a 63-bit stream id.

    Parts are encoded with type tags and length prefixes so distinct
    tuples cannot collide by concatenation.
    """
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (int, str, float)):
            raise TypeError(f"stream parts must be int, float, or str, got {type(part)!r}")
        encoded = repr(part).encode("utf-8") if not isinstance(part, str) else part.encode("utf-8")
        tag = b"s" if isinstance(part, str) else b"n"
        digest.update(tag)
        digest.update(len(encoded).to_bytes(4, "little"))
        digest.update(encoded)
    return int.from_bytes(digest.digest(), "little") >> 1


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by ``(seed, stream)``.

    Equal keys replay identical sequences on every platform.  Derived
    sub-streams are statistically independent of the parent and of each
    other.
    """

    seed: int
    stream: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        key = np.array([self.seed % 2**64, self.stream % 2**64], dtype=np.uint64)
        bitgen = np.random.Philox(key=key)
        object.__setattr__(self, "_gen", np.random.Generator(bitgen))

    def substream(self, *parts: object) -> "RngStream":
        """Derive an independent stream labelled by ``parts``."""
        return RngStream(self.seed, derive_stream_id(self.stream, *parts))

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def standard_normal(self, size: int | Sequence[int]) -> np.ndarray:
        return self._gen.standard_normal(size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
