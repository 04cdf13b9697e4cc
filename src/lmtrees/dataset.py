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
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DataError",
    "SplitColumn",
    "Dataset",
    "CsvSchema",
    "RngStream",
    "derive_stream_id",
    "load_csv",
    "write_csv",
    "order_permutation",
    "empirical_quartiles",
]

NUMERIC = "numeric"
CATEGORICAL = "categorical"


class DataError(ValueError):
    """Raised for malformed input data or schema violations."""


@dataclass(frozen=True)
class SplitColumn:
    """One candidate split variable.

    Parameters
    ----------
    name : str
        Column label, unique within a dataset.
    kind : str
        Either ``"numeric"`` or ``"categorical"``.
    values : numpy.ndarray
        Float values for numeric columns; integer level codes for
        categorical columns.
    levels : tuple of str, optional
        Sorted level labels; required for categorical columns.
    """

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
            values = values.astype(float)
            if not np.all(np.isfinite(values)):
                raise DataError(f"column {self.name!r} contains non-finite values")
        else:
            if self.levels is None:
                raise DataError(f"categorical column {self.name!r} needs levels")
            values = values.astype(np.int64)
            if values.size and (values.min() < 0 or values.max() >= len(self.levels)):
                raise DataError(f"column {self.name!r} has out-of-range level codes")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    def take(self, rows: np.ndarray) -> "SplitColumn":
        """Return a copy restricted to ``rows`` (levels are preserved)."""
        return replace(self, values=self.values[rows])

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
        """Row-subset view used during recursive partitioning."""
        rows = np.asarray(rows)
        return Dataset(self.y[rows], self.x[rows], tuple(c.take(rows) for c in self.z))


@dataclass(frozen=True)
class CsvSchema:
    """Column-role declaration for :func:`load_csv`.

    ``splits`` lists ``(name, kind)`` pairs in the order the variables
    should be indexed; that order also breaks p-value ties during
    variable selection.
    """

    response: str
    regressor: str
    splits: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "splits", tuple((str(n), str(k)) for n, k in self.splits))
        names = [self.response, self.regressor] + [n for n, _ in self.splits]
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


def load_csv(path: str, schema: CsvSchema) -> Dataset:
    """Read an RFC-4180 CSV file with a header row into a :class:`Dataset`.

    Numeric fields use a dot decimal separator.  A leading UTF-8
    byte-order mark is skipped.  Empty cells in any declared column are
    rejected; the error names the offending row and column.
    """
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
    numeric_buffers: dict[str, np.ndarray] = {
        name: np.empty(len(rows)) for name, kind in schema.splits if kind == NUMERIC
    }
    cat_buffers: dict[str, list[str]] = {
        name: [] for name, kind in schema.splits if kind == CATEGORICAL
    }
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
    """Stable permutation sorting a numeric column's values ascending.

    Ties keep their original relative order, which pins down the
    cumulative-sum path used by the fluctuation test.
    """
    if col.kind != NUMERIC:
        raise DataError(f"column {col.name!r} is not numeric, cannot order")
    return np.argsort(col.values, kind="stable")


def empirical_quartiles(col: SplitColumn) -> tuple[float, float, float]:
    """Sample quartiles by linear interpolation of order statistics.

    Uses the interpolation rule at positions ``(n - 1) * p`` (the common
    "type 7" definition).  Requires at least four observations.
    Duplicate values may produce coincident quartiles; downstream
    binning merges the affected intervals.
    """
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

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def standard_normal(self, size: int | Sequence[int]) -> np.ndarray:
        return self._gen.standard_normal(size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
