import itertools

import numpy as np
import pytest

from curie.data import (
    DesignEncoding,
    SynthProfile,
    concat,
    normalize_columns,
    synth_members,
    synth_numeric_members,
    to_design_matrix,
)
from curie.regression import (
    BudgetError,
    DoseModel,
    EmptyValidation,
    NormalizationError,
    PD_FLOOR,
    SingularMatrix,
    clinical_metrics,
    encode_cohort,
    functional_mechanism,
    sensitivity_bound,
    solve_ols,
)
from curie.ring import local_stats, member_rows

from conftest import warfarin_schema


# ---------------------------------------------------------------------------
# solve_ols

def test_identity_system():
    v = np.array([3.0, -1.0, 2.0])
    np.testing.assert_allclose(solve_ols(np.eye(3), v), v)


def test_noiseless_synthetic_recovers_ground_truth():
    schema, datasets, eta_true = synth_numeric_members(5, 3, 4, [200] * 3,
                                                       noise_sigma=0.0)
    stats = [local_stats(member_rows(ds, None)) for ds in datasets]
    O = sum(s.O for s in stats)
    V = sum(s.V for s in stats).reshape(-1)
    eta = solve_ols(O, V)
    np.testing.assert_allclose(eta, eta_true, atol=1e-9)


def test_rank_deficient_is_singular():
    O = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMatrix) as err:
        solve_ols(O, np.array([1.0, 1.0]))
    assert err.value.condition is not None


def test_asymmetric_input_rejected():
    with pytest.raises(SingularMatrix):
        solve_ols(np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([1.0, 1.0]))


def test_condition_limit_configurable():
    O = np.diag([1.0, 1e-9])
    V = np.array([1.0, 1e-9])
    with pytest.raises(SingularMatrix):
        solve_ols(O, V, condition_limit=1e6)
    np.testing.assert_allclose(solve_ols(O, V, condition_limit=1e12),
                               [1.0, 1.0])


def test_centralization_equivalence_chain():
    # pooled-statistic solve == lstsq over the concatenated rows
    schema, datasets, _ = synth_numeric_members(9, 5, 8, [150, 250, 100, 300, 200],
                                                noise_sigma=0.7)
    bounds = schema.bounds
    stats = [local_stats(member_rows(ds, bounds)) for ds in datasets]
    eta_pool = solve_ols(sum(s.O for s in stats),
                         sum(s.V for s in stats).reshape(-1))
    normed = [normalize_columns(ds, bounds) for ds in datasets]
    dm = to_design_matrix(concat(normed), None)
    eta_cat, *_ = np.linalg.lstsq(dm.X, dm.Y, rcond=None)
    rel = np.linalg.norm(eta_pool - eta_cat) / np.linalg.norm(eta_cat)
    assert rel < 1e-6


# ---------------------------------------------------------------------------
# functional mechanism

def _normalized_stats(seed=0, members=3, features=4, rows=150):
    schema, datasets, _ = synth_numeric_members(
        seed, members, features, [rows] * members, noise_sigma=0.5)
    bounds = schema.bounds
    stats = [local_stats(member_rows(ds, bounds)) for ds in datasets]
    O = sum(s.O for s in stats)
    V = sum(s.V for s in stats).reshape(-1)
    return O, V


def test_sensitivity_closed_form_dominates_bruteforce_oracle():
    # oracle: maximize the L1 change of the stacked (O, V) coefficients
    # over single-row replacements with extreme-valued rows
    grid = (-1.0, 0.0, 1.0)
    for d in (1, 2, 3, 4):
        best = 0.0
        pts = list(itertools.product(grid, repeat=d))
        for x, xp in itertools.product(pts, repeat=2):
            for y, yp in itertools.product(grid, repeat=2):
                change = sum(abs(xp[j] * xp[k] - x[j] * x[k])
                             for j in range(d) for k in range(d))
                change += sum(abs(xp[j] * yp - x[j] * y) for j in range(d))
                best = max(best, change)
        assert sensitivity_bound(d) >= best
        # the d=2 oracle value is 6; the bound must not be absurdly loose
        assert best == d * (d + 1)


def test_vanishing_noise_limit():
    O, V = _normalized_stats()
    eta = solve_ols(O, V)
    eta_dp, = functional_mechanism(O, V, 1e9, np.random.default_rng(1), 1)
    assert np.linalg.norm(eta_dp - eta) / np.linalg.norm(eta) < 1e-3


def test_budget_must_be_positive():
    # refused before the generator draws
    O, V = _normalized_stats()
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    for epsilon in (0.0, -1.0):
        with pytest.raises(BudgetError):
            functional_mechanism(O, V, epsilon, rng, 3)
    assert rng.bit_generator.state == before


def test_unnormalized_inputs_detected():
    schema, datasets, _ = synth_numeric_members(3, 2, 3, [100, 100])
    # raw stats without normalization: dose column far exceeds [-1, 1]
    stats = [local_stats(member_rows(ds, None)) for ds in datasets]
    O = sum(s.O for s in stats)
    V = sum(s.V for s in stats).reshape(-1)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(NormalizationError):
        functional_mechanism(O, V, 1.0, rng, 3)
    assert rng.bit_generator.state == before


def test_fresh_noise_per_call():
    O, V = _normalized_stats()
    a, b = functional_mechanism(O, V, 5.0, np.random.default_rng(1), 2)
    assert not np.array_equal(a, b)


def _one_model(O, V, noise):
    """The mechanism step by step on one matrix, given one model's row
    of noise: O's d * d entries, then V's d."""
    d = O.shape[0]
    O_noise = noise[:d * d].reshape(d, d)
    O_noisy = O + np.triu(O_noise) + np.triu(O_noise, 1).T
    V_noisy = V + noise[d * d:]
    eigvals, eigvecs = np.linalg.eigh(O_noisy)
    O_pd = (eigvecs * np.maximum(eigvals, PD_FLOOR)) @ eigvecs.T
    return np.linalg.solve((O_pd + O_pd.T) / 2.0, V_noisy)


@pytest.mark.parametrize("features", [4, 9, 14], ids=["d5", "d10", "d15"])
def test_batched_rows_equal_single_matrix_fits(features):
    # one draw holds every model's noise, a row per model; each row of
    # the batch is bit for bit the single-matrix fit on that row
    O, V = _normalized_stats(features=features)
    d = O.shape[0]
    assert d == features + 1
    count = 12
    batch = functional_mechanism(O, V, 5.0, np.random.default_rng(7), count)
    assert batch.shape == (count, d)
    draw = np.random.default_rng(7).laplace(0.0, sensitivity_bound(d) / 5.0,
                                            size=(count, d * d + d))
    for row, noise in zip(batch, draw, strict=True):
        assert row.tobytes() == _one_model(O, V, noise).tobytes()


def test_monotone_accuracy_direction_coarse():
    # coefficient error grows as the budget shrinks (two-point check;
    # the full sweep lives in the acceptance suite)
    O, V = _normalized_stats()
    eta = solve_ols(O, V)
    errs = {}
    for eps in (1.0, 100.0):
        draws = functional_mechanism(O, V, eps, np.random.default_rng(0), 40)
        errs[eps] = np.linalg.norm(draws - eta, axis=1).mean()
    assert errs[1.0] > errs[100.0]


# ---------------------------------------------------------------------------
# prediction and clinical metrics

def _trained_model(sigma=0.0, seed=21):
    schema = warfarin_schema()
    width = DesignEncoding(schema).width
    eta = tuple([35.0, -0.1, 0.02, 0.07] + [1.5] * (width - 4))
    profile = SynthProfile(
        member_id="M1", n=500,
        numeric_ranges={"age": (20, 90), "height": (150.0, 195.0),
                        "weight": (45.0, 130.0)},
        categorical_mixes={"race": {"Asian": 0.4, "Black": 0.3, "White": 0.3}},
        coefficients=eta, noise_sigma=sigma)
    (ds,) = synth_members(seed, schema, [profile])
    bounds = schema.bounds
    stats = local_stats(member_rows(ds, bounds))
    model = DoseModel(solve_ols(stats.O, stats.V),
                      DesignEncoding(normalize_columns(ds, bounds).schema),
                      bounds)
    return model, ds


def _cohort(model, ds):
    return encode_cohort(ds, model.bounds)


def test_noiseless_model_predicts_exactly():
    model, ds = _trained_model(sigma=0.0)
    yhat = model.predict(_cohort(model, ds).X)
    y = np.asarray(ds.column("dose"))
    assert np.abs(yhat - y).max() < 1e-9


def test_out_of_schema_row_rejected():
    from curie.data import Dataset, Schema, SchemaMismatch
    model, ds = _trained_model()
    first = ds.take([0])
    narrow = Schema(tuple(c for c in ds.schema.columns if c.name != "age"),
                    target=ds.schema.target)
    without_age = Dataset(narrow, {k: v for k, v in first.columns.items()
                                   if k != "age"})
    with pytest.raises(SchemaMismatch):
        clinical_metrics(model, _cohort(model, without_age))


def test_predict_matches_hand_computed_dose():
    from curie.data import Column, ColumnType, Schema, from_rows
    sch = Schema((
        Column("age", ColumnType("integer")),
        Column("vkorc1", ColumnType("categorical", ("A/A", "A/G"))),
        Column("inducer", ColumnType("boolean")),
        Column("dose", ColumnType("real")),
    ), target="dose")
    bounds = {"age": (20.0, 80.0), "dose": (0.0, 60.0)}
    # features: intercept, age, vkorc1=A/G, inducer
    eta = np.array([0.1, 0.5, -0.2, 0.3])
    model = DoseModel(eta, DesignEncoding(sch), bounds)
    ds = from_rows(sch, [dict(age=65, vkorc1="A/G", inducer=True, dose=1.0),
                         dict(age=20, vkorc1="A/A", inducer=False, dose=1.0)])
    # row 1: age 65 -> 2 * 45 / 60 - 1 = 0.5;
    #        y = 0.1 + 0.5 * 0.5 - 0.2 + 0.3 = 0.45 -> 1.45 / 2 * 60 = 43.5
    # row 2: age 20 -> -1;  y = 0.1 - 0.5 = -0.4 -> 0.6 / 2 * 60 = 18.0
    np.testing.assert_allclose(model.predict(_cohort(model, ds).X), [43.5, 18.0],
                               rtol=1e-12)


def test_perfect_model_metrics():
    model, ds = _trained_model(sigma=0.0)
    report = clinical_metrics(model, _cohort(model, ds))
    assert report.mae == pytest.approx(0.0, abs=1e-9)
    assert report.mape == pytest.approx(0.0, abs=1e-9)
    assert report.in_window == 1.0


def test_constant_overprediction_lands_over_window():
    model, ds = _trained_model(sigma=0.0)
    # a model that over-predicts by exactly 30%: score the exact model
    # against a cohort whose true doses are deflated by 1.3
    from curie.data import Dataset
    deflated = Dataset(ds.schema, {
        **ds.columns, "dose": tuple(d / 1.3 for d in ds.column("dose"))})
    report = clinical_metrics(model, _cohort(model, deflated))
    assert report.over == 1.0
    assert report.in_window == 0.0
    assert report.under == 0.0
    assert report.mape == pytest.approx(30.0, abs=1e-6)


def test_partition_sums_to_one():
    model, ds = _trained_model(sigma=3.0)
    report = clinical_metrics(model, _cohort(model, ds))
    assert report.under + report.in_window + report.over == pytest.approx(1.0)
    assert 0.0 <= report.under <= 1.0


def test_empty_validation_rejected():
    model, ds = _trained_model()
    with pytest.raises(EmptyValidation):
        clinical_metrics(model, _cohort(model, ds.take([])))


def test_model_json_roundtrip_fields():
    model, _ = _trained_model()
    blob = model.to_json()
    assert blob["privacy"] == "none"
    assert len(blob["coefficients"]) == model.encoding.width
    assert blob["bounds"]["dose"]


def test_model_requires_target_bounds():
    model, _ = _trained_model()
    partial_bounds = {k: v for k, v in model.bounds.items() if k != "dose"}
    from curie.data import SchemaMismatch
    with pytest.raises(SchemaMismatch):
        DoseModel(model.eta, model.encoding, partial_bounds)
