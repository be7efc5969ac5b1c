import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curie.data import (
    Column,
    ColumnType,
    Dataset,
    DegenerateColumn,
    DesignEncoding,
    RowFilter,
    Schema,
    SchemaMismatch,
    SynthProfile,
    apply_selections,
    check_shared_schema,
    concat,
    denormalize_value,
    from_rows,
    load_dataset,
    normalize_columns,
    normalize_value,
    normalized_schema,
    synth_members,
    synth_numeric_members,
    to_design_matrix,
)
from curie.errors import PolicyTypeError

from conftest import dataset_digest, warfarin_schema

WARFARIN_CSV = """age,height,weight,vkorc1,cyp2c9,race,inducer,amiodarone,dose
63,170.5,80.2,A/A,*1/*1,White,no,no,31.5
45,160.0,65.0,A/G,*1/*2,Asian,yes,no,24.0
71,182.3,95.5,G/G,*3/*3,Black,no,yes,18.5
"""


def test_load_eight_input_schema():
    ds = load_dataset(WARFARIN_CSV, warfarin_schema())
    assert ds.n == 3
    assert ds.column("vkorc1").tolist() == ["A/A", "A/G", "G/G"]
    assert ds.column("inducer").tolist() == [False, True, False]
    assert ds.column("dose")[0] == 31.5


def test_load_empty_file_with_header():
    header = WARFARIN_CSV.splitlines()[0] + "\n"
    ds = load_dataset(header, warfarin_schema())
    assert ds.n == 0


def test_unknown_column_is_schema_mismatch():
    bad = WARFARIN_CSV.replace("dose", "dosage")
    with pytest.raises(SchemaMismatch):
        load_dataset(bad, warfarin_schema())
    extra = WARFARIN_CSV.replace("age,", "age,shoe_size,").replace(
        "63,", "63,42,").replace("45,", "45,42,").replace("71,", "71,42,")
    with pytest.raises(SchemaMismatch):
        load_dataset(extra, warfarin_schema())


def test_missing_value_rejected_with_row_index():
    bad = WARFARIN_CSV.replace("45,160.0", ",160.0")
    with pytest.raises(SchemaMismatch) as err:
        load_dataset(bad, warfarin_schema())
    assert "row 2" in str(err.value)


def test_bad_cell_type_has_location():
    bad = WARFARIN_CSV.replace("170.5", "tall")
    with pytest.raises(SchemaMismatch) as err:
        load_dataset(bad, warfarin_schema())
    assert "height" in str(err.value)


# ---------------------------------------------------------------------------
# selections

def _mixed_dataset():
    sch = Schema((
        Column("age", ColumnType("integer")),
        Column("race", ColumnType("categorical", ("Asian", "Black", "White"))),
        Column("weight", ColumnType("real")),
        Column("dose", ColumnType("real")),
    ), target="dose")
    rows = [
        dict(age=30, race="Asian", weight=120.0, dose=20.0),
        dict(age=22, race="White", weight=180.0, dose=25.0),
        dict(age=41, race="Asian", weight=200.0, dose=30.0),
        dict(age=55, race="Black", weight=140.0, dose=35.0),
    ]
    return from_rows(sch, rows)


def _same_columns(a, b):
    return a.columns.keys() == b.columns.keys() and all(
        np.array_equal(a.columns[k], b.columns[k]) for k in a.columns)


def test_equality_filter_on_categorical():
    ds = apply_selections(_mixed_dataset(), [RowFilter("race", "=", "Asian")])
    assert ds.n == 2
    assert set(ds.column("race")) == {"Asian"}


def test_empty_filter_list_is_identity():
    ds = _mixed_dataset()
    assert apply_selections(ds, []) is ds


def test_conjunction_matches_row_scan_oracle():
    ds = _mixed_dataset()
    filters = [RowFilter("age", ">", 25), RowFilter("weight", ">", 150)]
    got = apply_selections(ds, filters)
    age, weight = ds.column("age"), ds.column("weight")
    expected = [i for i in range(ds.n) if age[i] > 25 and weight[i] > 150]
    assert got.n == len(expected)


def test_filter_order_is_commutative_and_idempotent():
    ds = _mixed_dataset()
    f = [RowFilter("age", ">", 25), RowFilter("race", "!=", "Black")]
    once = apply_selections(ds, f)
    assert _same_columns(apply_selections(once, f), once)
    swapped = apply_selections(ds, list(reversed(f)))
    assert _same_columns(swapped, once)


def test_filter_errors():
    ds = _mixed_dataset()
    from curie.data import UnknownColumn
    with pytest.raises(UnknownColumn):
        apply_selections(ds, [RowFilter("ghost", "=", 1)])
    with pytest.raises(TypeError):
        apply_selections(ds, [RowFilter("race", ">", "Asian")])


def test_in_filter_with_tuple():
    ds = apply_selections(_mixed_dataset(),
                          [RowFilter("race", "in", ("Asian", "Black"))])
    assert ds.n == 3


def _match(cell, op, value, ctype, column):
    """Reference: one cell against one filter, as the row loop that
    preceded the column masks decided it."""
    if op == "in":
        if not isinstance(value, tuple):
            raise PolicyTypeError(f"'in' filter on {column!r} needs a value list")
        return cell in value
    if op in ("<", ">"):
        if not ctype.is_numeric:
            raise PolicyTypeError(f"ordering filter on non-numeric column {column!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise PolicyTypeError(f"filter on {column!r}: {value!r} is not numeric")
        return cell < value if op == "<" else cell > value
    if op == "=":
        return cell == value
    if op == "!=":
        return cell != value
    raise PolicyTypeError(f"unsupported filter operation {op!r}")


_ORACLE_SCHEMA = Schema((
    Column("i", ColumnType("integer")),
    Column("r", ColumnType("real")),
    Column("b", ColumnType("boolean")),
    Column("c", ColumnType("categorical", ("a", "b", "c"))),
    Column("dose", ColumnType("real")),
), target="dose")

# values of every kind, so filters compare across kinds too
_filter_values = st.sampled_from([-2, 0, 1, 3, 1.0, 2.5, -0.5, True, False,
                                  "a", "b", "z", "1", None])
_filter_columns = st.sampled_from(["i", "r", "b", "c"])
_filters = st.lists(st.one_of(
    st.builds(RowFilter, _filter_columns, st.sampled_from(["=", "!=", "<", ">"]),
              _filter_values),
    st.builds(RowFilter, _filter_columns, st.just("in"),
              st.lists(_filter_values, max_size=4).map(tuple)),
), min_size=1, max_size=4)
_oracle_rows = st.lists(st.fixed_dictionaries({
    "i": st.integers(-3, 3),
    "r": st.sampled_from([-0.5, 0.0, 1.0, 2.5, 3.0]),
    "b": st.booleans(),
    "c": st.sampled_from(["a", "b", "c"]),
}), max_size=12)


@settings(max_examples=400, deadline=None)
@given(rows=_oracle_rows, filters=_filters)
@example(rows=[], filters=[RowFilter("c", ">", 1)])
@example(rows=[], filters=[RowFilter("i", "in", (1, "a"))])
def test_selection_masks_keep_the_rows_the_row_loop_keeps(rows, filters):
    # the row index rides along as the target, so kept rows are named
    ds = from_rows(_ORACLE_SCHEMA, [dict(row, dose=float(k))
                                    for k, row in enumerate(rows)])
    mistyped = [f for f in filters if f.op in ("<", ">") and (
        f.column not in ("i", "r") or not isinstance(f.value, (int, float))
        or isinstance(f.value, bool))]
    if mistyped:
        # refused whatever the rows, an empty dataset included
        with pytest.raises(PolicyTypeError):
            apply_selections(ds, filters)
        return
    ctypes = {c.name: c.ctype for c in _ORACLE_SCHEMA.columns}
    expected = [k for k, row in enumerate(rows)
                if all(_match(row[f.column], f.op, f.value, ctypes[f.column],
                              f.column) for f in filters)]
    assert apply_selections(ds, filters).column("dose").tolist() == expected


def test_filter_with_an_unsupported_operation_is_refused():
    with pytest.raises(PolicyTypeError):
        apply_selections(_mixed_dataset(), [RowFilter("age", "~", 3)])
    with pytest.raises(PolicyTypeError):
        apply_selections(_mixed_dataset(), [RowFilter("race", "in", "Asian")])


# ---------------------------------------------------------------------------
# typed column storage

def test_columns_are_typed_read_only_arrays():
    source = [120.0, 180.0, 200.0, 140.0]
    ds = _mixed_dataset()
    assert ds.column("age").dtype == np.float64
    assert ds.column("race").dtype == object
    assert ds.column("weight").tolist() == source
    for name in ("age", "race", "weight", "dose"):
        with pytest.raises(ValueError):
            ds.column(name)[0] = ds.column(name)[1]
    # a writeable array handed in is copied, not shared
    weights = np.array(source)
    held = Dataset(ds.schema, {**ds.columns, "weight": weights})
    weights[0] = -1.0
    assert held.column("weight").tolist() == source
    assert held.take([0]).column("weight").flags.writeable is False


_STORED_DTYPES = {"integer": np.float64, "real": np.float64,
                  "boolean": np.bool_, "categorical": object}


def _assert_stored(ds, schema):
    assert ds.schema == schema
    for c in schema.columns:
        vals = ds.column(c.name)
        assert vals.dtype == _STORED_DTYPES[c.ctype.kind], c.name
        assert not vals.flags.writeable, c.name


def test_derived_datasets_keep_read_only_typed_columns():
    ds = load_dataset(WARFARIN_CSV, warfarin_schema())
    first, rest = ds.split(0.5, np.random.default_rng(0))
    derived = [ds.take([2, 0]), ds.take(np.array([True, False, True])), first, rest,
               apply_selections(ds, [RowFilter("race", "!=", "Asian")]),
               concat([rest, first])]
    for part in derived:
        _assert_stored(part, ds.schema)
    assert derived[-1].column("race").tolist() == [
        *rest.column("race").tolist(), *first.column("race").tolist()]
    normed = normalize_columns(ds, ds.schema.bounds)
    _assert_stored(normed, normalized_schema(ds.schema))
    _assert_stored(concat([normed, normed.take([1])]), normalized_schema(ds.schema))


def test_concat_refuses_datasets_of_different_schemas():
    ds = load_dataset(WARFARIN_CSV, warfarin_schema())
    with pytest.raises(SchemaMismatch, match="different schemas"):
        concat([ds, normalize_columns(ds, ds.schema.bounds)])


def test_a_bad_cell_entering_through_the_constructor_is_refused():
    # derived datasets skip the check, so a cell only enters checked
    ds = apply_selections(load_dataset(WARFARIN_CSV, warfarin_schema()),
                          [RowFilter("race", "!=", "Asian")])
    for column, bad in (("race", "Martian"), ("age", 63.5), ("inducer", 2.0)):
        cells = [*ds.column(column).tolist()[:-1], bad]
        with pytest.raises(SchemaMismatch, match=column):
            Dataset(ds.schema, {**ds.columns, column: cells})


@pytest.mark.parametrize("bad", ["12", True, None, np.bool_(False)])
def test_numeric_columns_refuse_non_numbers(bad):
    rows = [dict(age=30, race="Asian", weight=bad, dose=1.0)]
    with pytest.raises(SchemaMismatch, match="weight"):
        from_rows(_mixed_dataset().schema, rows)


@pytest.mark.parametrize("column, bad", [("race", 3), ("race", None),
                                         ("inducer", 1), ("inducer", "yes")])
def test_boolean_and_categorical_columns_refuse_other_kinds(column, bad):
    sch = Schema((
        Column("race", ColumnType("categorical", ("Asian", "White"))),
        Column("inducer", ColumnType("boolean")),
        Column("dose", ColumnType("real")),
    ), target="dose")
    row = dict(race="Asian", inducer=False, dose=1.0)
    with pytest.raises(SchemaMismatch, match=column):
        from_rows(sch, [row, {**row, column: bad}])


def test_integer_column_refuses_a_non_integral_value():
    rows = [dict(age=30.0, race="Asian", weight=1.0, dose=1.0),
            dict(age=30.5, race="Asian", weight=1.0, dose=1.0)]
    with pytest.raises(SchemaMismatch, match="30.5"):
        from_rows(_mixed_dataset().schema, rows)
    assert from_rows(_mixed_dataset().schema, rows[:1]).column("age").tolist() == [30.0]


def test_columns_must_match_the_schema():
    ds = _mixed_dataset()
    with pytest.raises(SchemaMismatch):
        Dataset(ds.schema, {**ds.columns, "shoe_size": ds.column("age")})
    with pytest.raises(SchemaMismatch):
        Dataset(ds.schema, {**ds.columns, "age": ds.column("age")[:2]})


# ---------------------------------------------------------------------------
# normalization

def test_midpoint_maps_to_zero():
    assert normalize_value(5.0, 0.0, 10.0) == 0.0
    assert normalize_value(0.0, 0.0, 10.0) == -1.0
    assert normalize_value(10.0, 0.0, 10.0) == 1.0


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6),
       st.floats(min_value=-1e6, max_value=1e6),
       st.floats(min_value=0, max_value=1))
def test_normalize_denormalize_roundtrip(lo, width, t):
    hi = lo + max(width, 1e-3) + 1e-3
    # lo + t*(hi-lo) can land an ulp outside [lo, hi]; clamp to stay in
    # the declared range the property is about
    v = min(max(lo + t * (hi - lo), lo), hi)
    u = normalize_value(v, lo, hi)
    assert -1.0 - 1e-9 <= u <= 1.0 + 1e-9
    assert abs(denormalize_value(u, lo, hi) - v) < 1e-9 * max(1.0, abs(v))


_MIXED_BOUNDS = {"age": (22.0, 55.0), "weight": (120.0, 200.0),
                 "dose": (20.0, 35.0)}


def test_normalize_columns_target_included():
    ds = _mixed_dataset()
    normed = normalize_columns(ds, _MIXED_BOUNDS)
    for col in ("age", "weight", "dose"):
        vals = normed.column(col)
        assert min(vals) == -1.0 and max(vals) == 1.0
    assert normed.column("race").tolist() == ds.column("race").tolist()


def test_degenerate_column_rejected():
    sch = Schema((Column("x", ColumnType("real")),
                  Column("dose", ColumnType("real"))), target="dose")
    ds = from_rows(sch, [dict(x=3.0, dose=1.0), dict(x=3.0, dose=2.0)])
    with pytest.raises(DegenerateColumn):
        normalize_columns(ds, {"x": (3.0, 3.0), "dose": (1.0, 2.0)})


def test_a_numeric_column_without_bounds_is_refused():
    bounds = {k: v for k, v in _MIXED_BOUNDS.items() if k != "weight"}
    with pytest.raises(SchemaMismatch, match="weight"):
        normalize_columns(_mixed_dataset(), bounds)


def test_normalization_preserves_order():
    ds = _mixed_dataset()
    normed = normalize_columns(ds, _MIXED_BOUNDS)
    raw = ds.column("weight")
    nrm = normed.column("weight")
    assert np.argmax(raw) == np.argmax(nrm)
    assert np.argmin(raw) == np.argmin(nrm)


# ---------------------------------------------------------------------------
# design matrices

def test_warfarin_design_width_matches_construction():
    # 1 intercept + 3 numerics + (3-1) + (6-1) + (3-1) one-hots + 2 booleans
    enc = DesignEncoding(warfarin_schema())
    by_hand = 1 + 3 + (3 - 1) + (6 - 1) + (3 - 1) + 1 + 1
    assert by_hand == 15
    assert enc.width == 15


def test_single_numeric_column_design():
    sch = Schema((Column("x", ColumnType("real")),
                  Column("dose", ColumnType("real"))), target="dose")
    ds = from_rows(sch, [dict(x=2.0, dose=1.0), dict(x=3.0, dose=2.0)])
    dm = to_design_matrix(ds, None)
    assert dm.X.shape == (2, 2)
    np.testing.assert_array_equal(dm.X[:, 0], [1.0, 1.0])
    np.testing.assert_array_equal(dm.X[:, 1], [2.0, 3.0])


def test_constant_categorical_contributes_zero_onehots():
    sch = Schema((
        Column("c", ColumnType("categorical", ("a", "b", "c"))),
        Column("dose", ColumnType("real")),
    ), target="dose")
    ds = from_rows(sch, [dict(c="a", dose=1.0)] * 3)
    dm = to_design_matrix(ds, None)
    # reference level rows: both one-hot columns all zero
    np.testing.assert_array_equal(dm.X[:, 1:], np.zeros((3, 2)))


def test_design_row_count_tracks_filtering():
    ds = _mixed_dataset()
    filtered = apply_selections(ds, [RowFilter("age", ">", 25)])
    assert to_design_matrix(filtered, None).X.shape[0] == filtered.n


def test_unknown_level_rejected():
    ds = _mixed_dataset()
    # refused when the dataset is built, before any encoding sees it
    with pytest.raises(SchemaMismatch):
        from_rows(ds.schema, [dict(age=1, race="Martian", weight=1.0, dose=1.0)])


def test_encode_matches_hand_written_matrix():
    sch = Schema((
        Column("age", ColumnType("integer")),
        Column("race", ColumnType("categorical", ("Asian", "Black", "White"))),
        Column("weight", ColumnType("real")),
        Column("inducer", ColumnType("boolean")),
        Column("dose", ColumnType("real")),
    ), target="dose")
    ds = from_rows(sch, [
        dict(age=30, race="Asian", weight=60.5, inducer=True, dose=20.0),
        dict(age=22, race="White", weight=80.0, inducer=False, dose=25.0),
        dict(age=41, race="Black", weight=72.25, inducer=True, dose=30.0),
    ])
    # intercept, age, weight, race=Black, race=White (Asian is the
    # reference level), inducer
    expected = np.array([
        [1.0, 30.0, 60.5, 0.0, 0.0, 1.0],
        [1.0, 22.0, 80.0, 0.0, 1.0, 0.0],
        [1.0, 41.0, 72.25, 1.0, 0.0, 1.0],
    ])
    np.testing.assert_array_equal(DesignEncoding(sch).encode(ds), expected)


def _row_loop_encode(enc, ds):
    """Reference encoder: one row at a time, feature by feature."""
    X = np.zeros((ds.n, enc.width))
    for i in range(ds.n):
        for j, feat in enumerate(enc.features):
            if feat[0] == "intercept":
                X[i, j] = 1.0
            elif feat[0] == "numeric":
                X[i, j] = float(ds.column(feat[1])[i])
            elif feat[0] == "onehot":
                X[i, j] = 1.0 if ds.column(feat[1])[i] == feat[2] else 0.0
            else:
                X[i, j] = 1.0 if ds.column(feat[1])[i] else 0.0
    return X


def test_encode_matches_row_loop_on_synthetic_members():
    sets = synth_members(5, warfarin_schema(), _profiles(sigma=1.0))
    enc = DesignEncoding(warfarin_schema())
    for ds in sets:
        np.testing.assert_array_equal(enc.encode(ds), _row_loop_encode(enc, ds))


@pytest.mark.parametrize("bad", ["12", True, None])
def test_encode_rejects_non_numeric_values(bad):
    ds = _mixed_dataset()
    rows = [dict(age=bad, race="Asian", weight=1.0, dose=1.0)]
    with pytest.raises(SchemaMismatch):
        DesignEncoding(ds.schema).encode(from_rows(ds.schema, rows))


def test_encode_refuses_a_column_of_another_kind_or_levels():
    ds = _mixed_dataset()

    def retyped(name, ctype):
        return Schema(tuple(Column(c.name, ctype) if c.name == name else c
                            for c in ds.schema.columns), target="dose")

    for schema in (retyped("race", ColumnType("categorical", ("Asian", "White", "Black"))),
                   retyped("age", ColumnType("boolean"))):
        with pytest.raises(SchemaMismatch):
            DesignEncoding(schema).encode(ds)
    # integer and real are both stored as float64, as normalization needs
    np.testing.assert_array_equal(
        DesignEncoding(retyped("age", ColumnType("real"))).encode(ds),
        DesignEncoding(ds.schema).encode(ds))


def test_encode_rejects_missing_column():
    ds = _mixed_dataset()
    narrow = Schema(tuple(c for c in ds.schema.columns if c.name != "weight"),
                    target="dose")
    lacking = from_rows(narrow, [dict(age=1, race="Asian", dose=1.0)])
    with pytest.raises(SchemaMismatch):
        DesignEncoding(ds.schema).encode(lacking)


# ---------------------------------------------------------------------------
# synthetic members

def _profiles(sigma):
    width = DesignEncoding(warfarin_schema()).width
    eta = tuple([30.0, -0.1, 0.01, 0.08] + [2.0] * (width - 4))
    mixes = [
        {"Asian": 0.8, "Black": 0.1, "White": 0.1},
        {"Asian": 0.1, "Black": 0.1, "White": 0.8},
    ]
    return [
        SynthProfile(
            member_id=f"M{i+1}", n=400,
            numeric_ranges={"age": (20, 90), "height": (150.0, 195.0),
                            "weight": (45.0, 130.0)},
            categorical_mixes={"race": mix},
            coefficients=eta, noise_sigma=sigma)
        for i, mix in enumerate(mixes)
    ]


def test_same_seed_reproduces_datasets():
    a = synth_members(7, warfarin_schema(), _profiles(1.0))
    b = synth_members(7, warfarin_schema(), _profiles(1.0))
    for x, y in zip(a, b):
        assert _same_columns(x, y)


def test_noiseless_pooled_ols_recovers_ground_truth():
    profiles = _profiles(0.0)
    datasets = synth_members(3, warfarin_schema(), profiles)
    dm = to_design_matrix(concat(datasets), None)
    eta, *_ = np.linalg.lstsq(dm.X, dm.Y, rcond=None)
    np.testing.assert_allclose(eta, profiles[0].coefficients, atol=1e-9)


def test_disjoint_mixes_make_local_models_differ():
    datasets = synth_members(11, warfarin_schema(), _profiles(1.0))
    etas = []
    for ds in datasets:
        dm = to_design_matrix(ds, None)
        eta, *_ = np.linalg.lstsq(dm.X, dm.Y, rcond=None)
        etas.append(eta)
    assert np.linalg.norm(etas[0] - etas[1]) > 1e-3


def _row_loop_doses(seed, schema, profiles, datasets):
    """Reference: each member's doses as one dot and one scalar noise
    draw per row, after replaying the generator's feature draws."""
    enc = DesignEncoding(schema)
    out = []
    spawned = np.random.SeedSequence(seed).spawn(len(profiles))
    for p, ss, ds in zip(profiles, spawned, datasets):
        rng = np.random.default_rng(ss)
        for c in schema.feature_columns:
            if c.ctype.is_numeric:
                rng.uniform(*p.numeric_ranges.get(c.name, c.ctype.bounds), p.n)
            elif c.ctype.kind == "categorical":
                mix = p.categorical_mixes.get(c.name)
                levels, probs = c.ctype.levels, None
                if mix is not None:
                    levels, probs = tuple(mix), np.asarray(list(mix.values()))
                    probs = probs / probs.sum()
                rng.choice(levels, size=p.n, p=probs)
            else:
                rng.random(p.n)
        X = enc.encode(ds)
        levels = ds.columns[p.level_column] if p.level_column else None
        doses = []
        for i in range(p.n):
            eta = np.asarray(p.coefficients if levels is None else
                             p.level_coefficients.get(levels[i], p.coefficients))
            y = float(eta @ X[i])
            if p.noise_sigma > 0:
                y += float(rng.normal(0.0, p.noise_sigma))
            doses.append(max(y, p.min_dose))
        out.append(np.array(doses))
    return out


@pytest.mark.parametrize("sigma, overrides", [
    (1.0, False), (0.0, False), (4.0, True), (0.0, True)])
def test_synthetic_doses_match_the_row_loop_bit_for_bit(sigma, overrides):
    profiles = _profiles(sigma)
    if overrides:
        width = len(profiles[0].coefficients)
        profiles = [dataclasses.replace(
            p, level_column="race", min_dose=20.0,
            level_coefficients={"Asian": (10.0,) + (0.5,) * (width - 1),
                                "White": (40.0,) + (-1.0,) * (width - 1)})
            for p in profiles]
    schema = warfarin_schema()
    datasets = synth_members(13, schema, profiles)
    expected = _row_loop_doses(13, schema, profiles, datasets)
    for ds, doses in zip(datasets, expected):
        assert ds.columns["dose"].tobytes() == doses.tobytes()
    if overrides:
        assert any((ds.columns["dose"] == 20.0).any() for ds in datasets)


def _digest(datasets) -> str:
    return hashlib.sha256("".join(map(dataset_digest, datasets)).encode()).hexdigest()


def _race_profile(mix, level_column):
    """A warfarin profile drawing race from *mix*; with *level_column*,
    White and Asian rows take their own coefficients."""
    width = DesignEncoding(warfarin_schema()).width
    overrides = {"White": (40.0,) + (-1.0,) * (width - 1),
                 "Asian": (10.0,) + (0.5,) * (width - 1)} if level_column else {}
    return SynthProfile(
        member_id="M", n=300,
        numeric_ranges={"age": (20, 90), "height": (150.0, 195.0), "weight": (45.0, 130.0)},
        categorical_mixes={"race": mix},
        coefficients=tuple([30.0, -0.1, 0.01, 0.08] + [2.0] * (width - 4)),
        level_column=level_column, level_coefficients=overrides, noise_sigma=2.0)


# digests recorded before synthesis reused its drawn level indices and
# stopped re-checking the columns it draws
@pytest.mark.parametrize("mix, level_column, digest", [
    pytest.param({"Asian": 0.5, "Black": 0.5}, "race",
                 "22be4878a36b2864a86e391e65c282e961c3727219ecebffe6bf5b352f3dbe45",
                 id="override-level-absent-from-mix"),
    pytest.param({"White": 0.6, "Asian": 0.3, "Black": 0.1}, "race",
                 "e33b158df20fc86b0ed62589ea70d050fbc011df8ef1e931c89d09c4b3cf947c",
                 id="mix-out-of-schema-order"),
    pytest.param({"Asian": 0.2, "Black": 0.3, "White": 0.5}, None,
                 "707a28d4f7a509a8eee6e9991187db10622ac7bfadf21ce5a3935a0f96d7977e",
                 id="no-level-column"),
])
def test_synthetic_members_are_pinned(mix, level_column, digest):
    profile = _race_profile(mix, level_column)
    schema = warfarin_schema()
    datasets = synth_members(29, schema, [profile])
    assert _digest(datasets) == digest
    (ds,) = datasets
    assert set(ds.columns["race"]) == set(mix)
    expected = _row_loop_doses(29, schema, [profile], datasets)[0]
    assert ds.columns["dose"].tobytes() == expected.tobytes()


def test_synthetic_numeric_members_are_pinned():
    _, datasets, _ = synth_numeric_members(31, 3, 4, [50, 60, 70])
    assert _digest(datasets) == \
        "19208c341aec323f9fd85a2a365dd7bd36afc154b42f5d681a780a0a6dd6d978"


# ---------------------------------------------------------------------------
# shared schema

def test_identical_schemas_ok():
    assert check_shared_schema(warfarin_schema(), warfarin_schema()) == []


def test_type_mismatch_reported_by_column():
    a = warfarin_schema()
    cols = tuple(Column(c.name, ColumnType("real")) if c.name == "age" else c
                 for c in a.columns)
    b = Schema(cols, a.target)
    report = check_shared_schema(a, b)
    assert len(report) == 1 and "age" in report[0]


def test_missing_column_reported():
    a = warfarin_schema()
    b = Schema(a.columns[1:], a.target)
    report = check_shared_schema(a, b)
    assert any("age" in line for line in report)


def test_duplicate_header_rejected():
    dup = WARFARIN_CSV.replace("age,height", "age,age")
    with pytest.raises(SchemaMismatch):
        load_dataset(dup, warfarin_schema())

