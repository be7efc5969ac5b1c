"""Columnar datasets, shared schema, selections, normalization, and
synthetic patient-style data generation.

A dataset stores each schema column as one read-only numpy array typed
by its declared kind (float64 for integer and real, bool for boolean,
level strings for categorical).  Cells are checked once, where data
enters: the constructor, which synthesis, CSV loading and
:func:`from_rows` go through.  Every operation returns a new dataset
over arrays derived from checked ones, which is not checked again.
Categorical levels are declared in the schema (not inferred from data)
so all members of a consortium share one design encoding.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from curie.errors import CurieError, OverflowAbort, PolicyTypeError


class SchemaMismatch(CurieError):
    pass


class UnknownColumn(CurieError):
    pass


class DegenerateColumn(CurieError):
    pass


NormalizationMap = dict[str, tuple[float, float]]


# --------------------------------------------------------------------------
# schema

@dataclass(frozen=True)
class ColumnType:
    """One of integer | real | categorical(levels) | boolean.

    Numeric columns, and only they, may declare (lo, hi) bounds, the
    consortium constants normalization maps into [-1, 1]; a numeric
    column without them cannot be normalized.
    """

    kind: str
    levels: tuple[str, ...] = ()
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in ("integer", "real", "categorical", "boolean"):
            raise SchemaMismatch(f"unknown column kind {self.kind!r}")
        if self.kind == "categorical" and len(self.levels) < 2:
            raise SchemaMismatch("categorical column needs >= 2 levels")
        if self.kind != "categorical" and self.levels:
            raise SchemaMismatch(f"{self.kind} column cannot declare levels")
        if len(set(self.levels)) < len(self.levels):
            raise SchemaMismatch(f"categorical column repeats a level: {list(self.levels)}")
        if not self.is_numeric and self.bounds is not None:
            raise SchemaMismatch(f"{self.kind} column cannot declare bounds")

    @property
    def is_numeric(self) -> bool:
        return self.kind in ("integer", "real")


@dataclass(frozen=True)
class Column:
    name: str
    ctype: ColumnType


@dataclass(frozen=True)
class Schema:
    columns: tuple[Column, ...]
    target: str

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaMismatch("duplicate column names in schema")
        tgt = self.column(self.target)
        if tgt.ctype.kind != "real":
            raise SchemaMismatch(f"target column {self.target!r} must be real")

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise UnknownColumn(f"no column named {name!r}")

    @property
    def feature_columns(self) -> tuple[Column, ...]:
        return tuple(c for c in self.columns if c.name != self.target)

    @property
    def bounds(self) -> NormalizationMap:
        """The declared (lo, hi) of every numeric column that declares
        them: the consortium's one map into [-1, 1]."""
        return {c.name: (float(c.ctype.bounds[0]), float(c.ctype.bounds[1]))
                for c in self.columns if c.ctype.bounds is not None}

    def to_json(self) -> dict:
        cols = []
        for c in self.columns:
            d: dict = {"name": c.name, "type": c.ctype.kind}
            if c.ctype.levels:
                d["levels"] = list(c.ctype.levels)
            if c.ctype.bounds is not None:
                d["bounds"] = list(c.ctype.bounds)
            cols.append(d)
        return {"columns": cols, "target": self.target}


def check_shared_schema(a: Schema, b: Schema) -> list[str]:
    """Order-insensitive name+type+levels comparison.

    Returns an empty list when the schemas agree, else one message per
    mismatching column.
    """
    report: list[str] = []
    a_cols = {c.name: c.ctype for c in a.columns}
    b_cols = {c.name: c.ctype for c in b.columns}
    for name in sorted(set(a_cols) - set(b_cols)):
        report.append(f"column {name!r} missing from second schema")
    for name in sorted(set(b_cols) - set(a_cols)):
        report.append(f"column {name!r} missing from first schema")
    for name in sorted(set(a_cols) & set(b_cols)):
        ta, tb = a_cols[name], b_cols[name]
        if ta.kind != tb.kind:
            report.append(f"column {name!r}: type {ta.kind} vs {tb.kind}")
        elif ta.levels != tb.levels:
            report.append(f"column {name!r}: levels {ta.levels} vs {tb.levels}")
    if a.target != b.target:
        report.append(f"target column {a.target!r} vs {b.target!r}")
    return report


# --------------------------------------------------------------------------
# dataset

_DTYPES = {"integer": np.float64, "real": np.float64, "boolean": np.bool_,
           "categorical": object}
_NUMBERS = (int, float, np.integer, np.floating)


def _stored(name: str, ctype: ColumnType, values) -> np.ndarray:
    """A read-only copy of *values* as a *ctype* column is stored,
    refused unless every cell is of its kind (a declared level, for a
    categorical)."""
    dtype = _DTYPES[ctype.kind]
    bad = []
    if ctype.kind == "categorical":
        bad = list(set(values).difference(ctype.levels))
    elif not (isinstance(values, np.ndarray) and values.dtype == dtype):
        accepted = (bool, np.bool_) if ctype.kind == "boolean" else _NUMBERS
        bad = [next(v for v in values if type(v) is t) for t in set(map(type, values))
               if not issubclass(t, accepted) or (t is bool and ctype.is_numeric)]
    if not bad:
        stored = np.array(values, dtype=dtype)
        if ctype.kind == "integer":
            bad = stored[stored != np.round(stored)].tolist()
    if bad:
        raise SchemaMismatch(f"{ctype.kind} column {name!r} refuses the cell {bad[0]!r}")
    return _frozen(stored)


def _frozen(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows under *schema*: ``columns`` maps each schema column, and
    nothing else, to its read-only typed array."""

    schema: Schema
    columns: Mapping[str, np.ndarray]
    provenance: str | None = None

    def __post_init__(self):
        names = {c.name for c in self.schema.columns}
        if set(self.columns) != names:
            raise SchemaMismatch(f"data columns {sorted(self.columns)} do not "
                                 f"match the schema's {sorted(names)}")
        cols = {c.name: _stored(c.name, c.ctype, self.columns[c.name])
                for c in self.schema.columns}
        if len({len(v) for v in cols.values()}) > 1:
            raise SchemaMismatch("ragged columns")
        object.__setattr__(self, "columns", cols)

    @classmethod
    def _derived(cls, schema: Schema, columns: dict[str, np.ndarray],
                 provenance: str | None) -> "Dataset":
        """A dataset over *columns*, new read-only arrays of one length,
        each of the dtype *schema* stores its column in and computed
        from a checked column, or drawn by :func:`synth_members` from
        checked levels and ranges; its cells are not checked again."""
        ds = object.__new__(cls)
        object.__setattr__(ds, "schema", schema)
        object.__setattr__(ds, "columns", columns)
        object.__setattr__(ds, "provenance", provenance)
        return ds

    @property
    def n(self) -> int:
        return len(next(iter(self.columns.values())))

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise UnknownColumn(f"no column named {name!r}")
        return self.columns[name]

    def take(self, rows: np.ndarray | Sequence[int]) -> "Dataset":
        """The rows at *rows*: indices, or a boolean mask over all rows."""
        cols = {name: _frozen(vals[rows]) for name, vals in self.columns.items()}
        return Dataset._derived(self.schema, cols, self.provenance)

    def split(self, fraction: float, rng: np.random.Generator) -> tuple["Dataset", "Dataset"]:
        """Random (1-fraction, fraction) split; second part is the holdout."""
        idx = rng.permutation(self.n)
        cut = int(round(self.n * (1.0 - fraction)))
        return self.take(idx[:cut]), self.take(idx[cut:])


def from_rows(schema: Schema, rows: Iterable[Mapping], provenance: str | None = None) -> Dataset:
    rows = list(rows)
    return Dataset(schema, {c.name: [row[c.name] for row in rows]
                            for c in schema.columns}, provenance)


def concat(datasets: Sequence[Dataset]) -> Dataset:
    """The rows of *datasets* in order, which must share one schema."""
    if not datasets:
        raise ValueError("nothing to concatenate")
    schema = datasets[0].schema
    if any(ds.schema != schema for ds in datasets):
        raise SchemaMismatch("cannot concatenate datasets of different schemas")
    return Dataset._derived(schema, {
        name: _frozen(np.concatenate([ds.columns[name] for ds in datasets]))
        for name in datasets[0].columns}, None)


def _coerce_cell(raw: str, ctype: ColumnType, where: str):
    text = raw.strip()
    if text == "":
        raise SchemaMismatch(f"{where}: missing value")
    if ctype.kind == "integer":
        try:
            return int(text)
        except ValueError:
            raise SchemaMismatch(f"{where}: {text!r} is not an integer") from None
    if ctype.kind == "real":
        try:
            v = float(text)
        except ValueError:
            raise SchemaMismatch(f"{where}: {text!r} is not a real") from None
        if not math.isfinite(v):
            raise SchemaMismatch(f"{where}: non-finite value")
        return v
    if ctype.kind == "boolean":
        low = text.lower()
        if low in ("1", "true", "yes"):
            return True
        if low in ("0", "false", "no"):
            return False
        raise SchemaMismatch(f"{where}: {text!r} is not a boolean")
    if text not in ctype.levels:
        raise SchemaMismatch(f"{where}: {text!r} not in declared levels {ctype.levels}")
    return text


def load_dataset(source, schema: Schema, provenance: str | None = None) -> Dataset:
    """Load a CSV stream/string against *schema*.

    Header names must match the schema exactly (order-insensitive);
    rows with missing values are rejected with their row index.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaMismatch("empty input: no header row") from None
    header = [h.strip() for h in header]
    if len(set(header)) != len(header):
        raise SchemaMismatch("duplicate column names in header")
    expected = {c.name for c in schema.columns}
    extra = set(header) - expected
    if extra:
        raise SchemaMismatch(f"unknown columns in header: {sorted(extra)}")
    missing = expected - set(header)
    if missing:
        raise SchemaMismatch(f"columns missing from header: {sorted(missing)}")

    ctypes = {c.name: c.ctype for c in schema.columns}
    cols: dict[str, list] = {name: [] for name in header}
    for ridx, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise SchemaMismatch(f"row {ridx}: expected {len(header)} cells, got {len(row)}")
        for name, raw in zip(header, row):
            cols[name].append(_coerce_cell(raw, ctypes[name], f"row {ridx}, column {name!r}"))
    return Dataset(schema, cols, provenance)


# --------------------------------------------------------------------------
# selections

@dataclass(frozen=True)
class RowFilter:
    """Fully-resolved column predicate: value is a scalar, or a tuple of
    scalars for the ``in`` operation."""

    column: str
    op: str
    value: object

    def to_json(self) -> dict:
        v = list(self.value) if isinstance(self.value, tuple) else self.value
        return {"column": self.column, "op": self.op, "value": v}


def _selected(cells: np.ndarray, f: RowFilter, ctype: ColumnType) -> np.ndarray:
    """The mask of the rows *f* keeps.  ``=``, ``!=`` and ``in`` compare
    as Python's ``==`` does, so a value of another kind matches no row;
    ``<`` and ``>`` need a numeric column and a numeric value."""
    if f.op in ("<", ">"):
        if not ctype.is_numeric:
            raise PolicyTypeError(f"ordering filter on non-numeric column {f.column!r}")
        if not isinstance(f.value, (int, float)) or isinstance(f.value, bool):
            raise PolicyTypeError(f"filter on {f.column!r}: {f.value!r} is not numeric")
        return cells < f.value if f.op == "<" else cells > f.value
    values = f.value if f.op == "in" else (f.value,)
    if f.op not in ("in", "=", "!=") or not isinstance(values, tuple):
        raise PolicyTypeError(f"unsupported filter {f.column} {f.op} {f.value!r}")
    hit = np.zeros(len(cells), dtype=bool)
    for value in values:
        hit |= cells == value
    return ~hit if f.op == "!=" else hit


def selection_mask(ds: Dataset, filters: Sequence[RowFilter]) -> np.ndarray:
    """The mask of the rows satisfying the conjunction of *filters*, every
    row for an empty list.  A mistyped filter is refused even when no row
    reaches it."""
    ctypes = [ds.schema.column(f.column).ctype for f in filters]
    keep = np.ones(ds.n, dtype=bool)
    for f, ctype in zip(filters, ctypes):
        keep &= _selected(ds.column(f.column), f, ctype)
    return keep


def apply_selections(ds: Dataset, filters: Sequence[RowFilter]) -> Dataset:
    """Rows satisfying the conjunction of *filters*; empty list is
    identity."""
    if not filters:
        return ds
    return ds.take(selection_mask(ds, filters))


# --------------------------------------------------------------------------
# normalization

def normalize_value(v: float, lo: float, hi: float) -> float:
    return 2.0 * (v - lo) / (hi - lo) - 1.0


def denormalize_value(u: float, lo: float, hi: float) -> float:
    return (u + 1.0) / 2.0 * (hi - lo) + lo


def normalized_schema(schema: Schema) -> Schema:
    """Schema after normalization: numeric columns become plain reals."""
    cols = tuple(
        Column(c.name, ColumnType("real")) if c.ctype.is_numeric else c
        for c in schema.columns
    )
    return Schema(cols, schema.target)


def normalize_columns(ds: Dataset, bounds: NormalizationMap) -> Dataset:
    """Affinely map each numeric column (target included) from its
    (lo, hi) in *bounds* to [-1, 1]; categorical and boolean columns are
    untouched.  Every member applies the same declared, public map, the
    one the functional mechanism's sensitivity bound assumes.

    Raises :class:`SchemaMismatch` when *bounds* lacks a numeric column,
    and :class:`DegenerateColumn` when a column's hi <= lo.
    """
    new_cols: dict[str, np.ndarray] = {}
    for c in ds.schema.columns:
        vals = ds.column(c.name)
        if c.ctype.is_numeric:
            if c.name not in bounds:
                raise SchemaMismatch(f"no normalization bounds for numeric "
                                     f"column {c.name!r}")
            lo, hi = bounds[c.name]
            if hi <= lo:
                raise DegenerateColumn(f"column {c.name!r}: max ({hi}) <= min ({lo})")
            vals = _frozen(normalize_value(vals, lo, hi))
        new_cols[c.name] = vals
    return Dataset._derived(normalized_schema(ds.schema), new_cols, ds.provenance)


# --------------------------------------------------------------------------
# design matrices

@dataclass(frozen=True)
class DesignEncoding:
    """Deterministic row-to-vector map: intercept, numerics in schema
    order, then per-categorical one-hot columns with the first declared
    level dropped as reference; booleans encode to one 0/1 column."""

    schema: Schema
    features: tuple[tuple, ...] = field(init=False)

    def __post_init__(self):
        feats: list[tuple] = [("intercept",)]
        for c in self.schema.feature_columns:
            if c.ctype.is_numeric:
                feats.append(("numeric", c.name))
        for c in self.schema.feature_columns:
            if c.ctype.kind == "categorical":
                for level in c.ctype.levels[1:]:
                    feats.append(("onehot", c.name, level))
            elif c.ctype.kind == "boolean":
                feats.append(("boolean", c.name))
        object.__setattr__(self, "features", tuple(feats))

    @property
    def width(self) -> int:
        return len(self.features)

    def encode(self, ds: Dataset) -> np.ndarray:
        """The design matrix of *ds*, one row per data row, built column
        by column.  Columns are looked up by name, so *ds* may carry the
        raw or the normalized schema."""
        X = np.empty((ds.n, self.width))
        for j, feat in enumerate(self.features):
            if feat[0] == "intercept":
                X[:, j] = 1.0
            elif feat[0] == "onehot":
                X[:, j] = self._column(ds, feat[1]) == feat[2]
            else:
                X[:, j] = self._column(ds, feat[1])
        return X

    def _column(self, ds: Dataset, name: str) -> np.ndarray:
        """Column *name* of *ds*, refused unless it is stored as, and has
        the levels of, this encoding's column of that name."""
        if name not in ds.columns:
            raise SchemaMismatch(f"dataset is missing column {name!r}")
        ctype, vals = self.schema.column(name).ctype, ds.columns[name]
        if (vals.dtype, ds.schema.column(name).ctype.levels) != \
                (_DTYPES[ctype.kind], ctype.levels):
            raise SchemaMismatch(f"column {name!r} does not hold {ctype.kind} data")
        return vals

    def to_json(self) -> list:
        return [list(f) for f in self.features]


@dataclass(frozen=True, eq=False)
class EncodedRows:
    """Rows as the models take them, encoded once: row i of the design
    matrix ``X`` and of the target ``Y``, both normalized, is row i of
    ``dataset``, the rows as given, whose columns selections and true
    doses are read from."""

    dataset: Dataset
    X: np.ndarray
    Y: np.ndarray

    @property
    def n(self) -> int:
        return len(self.Y)


def to_design_matrix(ds: Dataset, bounds: NormalizationMap | None) -> EncodedRows:
    """*ds*'s rows normalized against *bounds* (None leaves them raw)
    and encoded under the encoding their schema derives.  Raises
    :class:`OverflowAbort` when a value outside *bounds* would leave
    [-1, 1], the range the privacy mechanism's sensitivity and the
    ring's slots are sized for."""
    if ds.n == 0:
        raise SchemaMismatch("cannot build a design matrix from an empty dataset")
    normed = ds if bounds is None else normalize_columns(ds, bounds)
    rows = EncodedRows(ds, DesignEncoding(normed.schema).encode(normed),
                       normed.column(ds.schema.target))
    if bounds is not None and max(np.abs(rows.X).max(), np.abs(rows.Y).max()) > 1:
        name = next(name for name, vals in normed.columns.items()
                    if name in bounds and np.abs(vals).max() > 1)
        raise OverflowAbort(f"{ds.provenance or 'rows'}: column {name!r} leaves its "
                            f"declared bounds {bounds[name]}")
    return rows


# --------------------------------------------------------------------------
# synthetic members

@dataclass(frozen=True)
class SynthProfile:
    """Generator recipe for one member's patient-style dataset.

    ``coefficients`` is the ground-truth weight vector over the schema's
    design encoding (raw, unnormalized scale); doses are produced as
    y = coefficients . x + Normal(0, noise_sigma), clipped to stay
    positive.  ``level_coefficients`` optionally overrides the vector
    per level of one categorical column (population heterogeneity).
    :func:`curie.harness.load_config` checks a config's profiles against
    its schema; :func:`synth_members` trusts its caller.
    """

    member_id: str
    n: int
    numeric_ranges: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    categorical_mixes: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    boolean_probs: Mapping[str, float] = field(default_factory=dict)
    coefficients: tuple[float, ...] = ()
    level_column: str | None = None
    level_coefficients: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    noise_sigma: float = 0.0
    min_dose: float = 0.5


def synth_members(seed: int, schema: Schema, profiles: Sequence[SynthProfile]
                  ) -> list[Dataset]:
    """Generate one dataset per profile, reproducibly from *seed*.
    Trusts its caller to pass profiles valid for *schema*, as
    :func:`curie.harness.load_config` checks them."""
    enc = DesignEncoding(schema)
    datasets = []
    master = np.random.SeedSequence(seed)
    for p, ss in zip(profiles, master.spawn(len(profiles))):
        rng = np.random.default_rng(ss)
        cols: dict[str, np.ndarray] = {}
        drawn: dict[str, tuple[tuple[str, ...], np.ndarray]] = {}  # levels, indices
        for c in schema.feature_columns:
            if c.ctype.is_numeric:
                lo, hi = p.numeric_ranges.get(
                    c.name, c.ctype.bounds if c.ctype.bounds else (0.0, 1.0))
                vals = rng.uniform(lo, hi, p.n)
                # + 0.0 stores a rounded -0.4 as 0.0, not -0.0
                cols[c.name] = np.round(vals) + 0.0 if c.ctype.kind == "integer" else vals
            elif c.ctype.kind == "categorical":
                mix = p.categorical_mixes.get(c.name)
                if mix is None:
                    levels, probs = c.ctype.levels, None
                else:
                    levels = tuple(mix.keys())
                    probs = np.asarray(list(mix.values()))
                    probs = probs / probs.sum()
                # drawing indices takes the same draws as drawing levels
                indices = rng.choice(len(levels), size=p.n, p=probs)
                drawn[c.name] = levels, indices
                cols[c.name] = np.array(levels, dtype=object)[indices]
            else:
                cols[c.name] = rng.random(p.n) < p.boolean_probs.get(c.name, 0.5)
            _frozen(cols[c.name])

        # every column is drawn in the dtype its kind is stored in, from
        # the profile's levels and ranges, which load_config has checked
        cols[schema.target] = _frozen(np.zeros(p.n))
        X = enc.encode(Dataset._derived(schema, cols, p.member_id))
        # each row's coefficients: the base vector, or its level's override
        # (a level the member's mix leaves out has no row to override)
        E = np.tile(np.asarray(p.coefficients, dtype=float), (p.n, 1))
        if p.level_coefficients:
            levels, indices = drawn[p.level_column]
            for level, eta in p.level_coefficients.items():
                if level in levels:
                    E[indices == levels.index(level)] = eta
        y = np.zeros(p.n)
        for j in range(enc.width):
            y += X[:, j] * E[:, j]
        if p.noise_sigma > 0:
            y += rng.normal(0.0, p.noise_sigma, p.n)
        # the doses are float64, as the checked real column would hold them
        datasets.append(Dataset._derived(schema, {
            **cols, schema.target: _frozen(np.maximum(y, p.min_dose))}, p.member_id))
    return datasets


def numeric_schema(n_features: int,
                   dose_bounds: tuple[float, float] = (0.0, 60.0)) -> Schema:
    """All-numeric schema used by randomized consortium tests/benchmarks:
    features declared in [-1, 1]."""
    cols = [Column(f"x{i}", ColumnType("real", bounds=(-1.0, 1.0)))
            for i in range(n_features)]
    cols.append(Column("dose", ColumnType("real", bounds=dose_bounds)))
    return Schema(tuple(cols), target="dose")


def synth_numeric_members(seed: int, n_members: int, n_features: int,
                          rows_per_member: Sequence[int],
                          noise_sigma: float = 0.5) -> tuple[Schema, list[Dataset], np.ndarray]:
    """Random all-numeric consortium with a shared ground-truth weight
    vector; returns (schema, datasets, eta_true)."""
    schema = numeric_schema(n_features)
    rng = np.random.default_rng(seed)
    eta = np.concatenate([[20.0], rng.uniform(-4.0, 4.0, n_features)])
    profiles = [
        SynthProfile(
            member_id=f"P{i+1}",
            n=rows_per_member[i],
            numeric_ranges={f"x{j}": (-1.0, 1.0) for j in range(n_features)},
            coefficients=tuple(eta),
            noise_sigma=noise_sigma,
        )
        for i in range(n_members)
    ]
    return schema, synth_members(seed, schema, profiles), eta
