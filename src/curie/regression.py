"""Least-squares dose models from pooled statistics, the
differentially-private objective-perturbation mechanism, prediction,
and clinical error metrics.

The model solves O * eta = V where O = X'X and V = X'y are the pooled
sufficient statistics.  The private variant perturbs every entry of O
and V with Laplace noise scaled by the quadratic-loss sensitivity over
[-1, 1]-normalized rows, then projects O back to positive definite
before solving.  Smaller privacy budgets mean more noise.  One call
fits a whole stack of private models from one generator: a single
Laplace draw holds every model's noise, and a single batched
eigendecomposition and solve fits them all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from curie.data import (
    Dataset,
    DesignEncoding,
    EncodedRows,
    NormalizationMap,
    SchemaMismatch,
    denormalize_value,
    to_design_matrix,
)
from curie.errors import CurieError


class SingularMatrix(CurieError):
    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class BudgetError(CurieError):
    pass


class NormalizationError(CurieError):
    pass


class EmptyValidation(CurieError):
    pass


DEFAULT_CONDITION_LIMIT = 1e8
PD_FLOOR = 1e-4
SAFETY_WINDOW = 0.20
WEEKLY = 7.0


# --------------------------------------------------------------------------
# ordinary least squares

def solve_ols(O: np.ndarray, V: np.ndarray,
              condition_limit: float = DEFAULT_CONDITION_LIMIT) -> np.ndarray:
    """Solve O * eta = V for a symmetric positive-definite O.

    Raises :class:`SingularMatrix` (with a condition estimate) when O is
    rank deficient, too ill-conditioned, or the solve residual fails
    the 1e-8 relative bound.
    """
    O = np.asarray(O, dtype=float)
    V = np.asarray(V, dtype=float).reshape(-1)
    if O.ndim != 2 or O.shape[0] != O.shape[1]:
        raise SingularMatrix(f"O must be square, got {O.shape}")
    if O.shape[0] != V.shape[0]:
        raise SingularMatrix(f"shape mismatch: O {O.shape}, V {V.shape}")
    if not np.allclose(O, O.T, rtol=1e-8, atol=1e-8):
        raise SingularMatrix("O is not symmetric")
    eigvals = np.linalg.eigvalsh(O)
    smallest, largest = eigvals[0], eigvals[-1]
    if smallest <= 0 or largest <= 0:
        raise SingularMatrix(
            f"O is not positive definite (min eigenvalue {smallest:.3e})",
            condition=float("inf"))
    condition = largest / smallest
    if condition > condition_limit:
        raise SingularMatrix(
            f"condition number {condition:.3e} exceeds limit {condition_limit:.0e}",
            condition=condition)
    eta = np.linalg.solve(O, V)
    vnorm = np.linalg.norm(V)
    if vnorm > 0:
        residual = np.linalg.norm(O @ eta - V) / vnorm
        if residual > 1e-8:
            raise SingularMatrix(
                f"solve residual {residual:.3e} exceeds 1e-8", condition=condition)
    return eta


def solve_ols_pruned(O: np.ndarray, V: np.ndarray,
                     condition_limit: float = DEFAULT_CONDITION_LIMIT,
                     ) -> np.ndarray:
    """Like :func:`solve_ols`, but tolerant of structurally-empty design
    columns (a one-hot level or boolean no released row carries): those
    columns have a zero O diagonal, are dropped from the solve, and get
    zero coefficients; they never activate for rows the model can
    legitimately score."""
    O = np.asarray(O, dtype=float)
    V = np.asarray(V, dtype=float).reshape(-1)
    diag = np.diag(O)
    scale = max(float(diag.max(initial=0.0)), 1.0)
    keep = np.where(diag > 1e-12 * scale)[0]
    eta = np.zeros(len(diag))
    eta[keep] = solve_ols(O[np.ix_(keep, keep)], V[keep], condition_limit)
    return eta


# --------------------------------------------------------------------------
# functional mechanism

def sensitivity_bound(d: int) -> float:
    """Closed-form upper bound on the L1 sensitivity of the stacked
    (O, V) coefficients under a single-row change with rows in
    [-1, 1]^d and targets in [-1, 1]: 2 * (d + 1)^2.

    A brute-force extreme-point search (see the test suite) maxes out
    at d * (d + 1), so this bound dominates with slack.
    """
    return 2.0 * (d + 1) ** 2


def _check_normalized(O: np.ndarray, V: np.ndarray) -> None:
    n_est = O[0, 0]
    if n_est <= 0:
        raise NormalizationError("O[0,0] (the pooled row count) must be positive")
    tol = n_est * (1 + 1e-9) + 1e-9
    if np.abs(O).max() > tol or np.abs(V).max() > tol:
        raise NormalizationError(
            "statistics exceed the bounds implied by [-1, 1]-normalized rows; "
            "normalize inputs before applying the privacy mechanism")


def functional_mechanism(O: np.ndarray, V: np.ndarray, epsilon: float,
                         rng: np.random.Generator, count: int) -> np.ndarray:
    """Epsilon-differentially-private coefficients via objective
    perturbation, *count* models in one row each.

    *rng* draws the noise of every model in one call, a row per model:
    Laplace(:func:`sensitivity_bound` / epsilon) for every entry of O
    (the upper triangle is mirrored to keep O symmetric), then for every
    entry of V.  The perturbed O's are eigenvalue-floored at
    ``PD_FLOOR`` to restore positive definiteness and solved in one
    batched pass; row i equals what the same steps give for row i of the
    draw alone.  The solve is direct rather than going through
    :func:`solve_ols`: the floor guarantees invertibility, and heavy
    noise draws legitimately produce ill-conditioned systems that the
    non-private contract would reject.  The budget and the normalization
    are checked before the generator draws.
    """
    if epsilon <= 0:
        raise BudgetError(f"privacy budget must be positive, got {epsilon}")
    O = np.asarray(O, dtype=float)
    V = np.asarray(V, dtype=float).reshape(-1)
    _check_normalized(O, V)
    d = O.shape[0]
    draw = rng.laplace(0.0, sensitivity_bound(d) / epsilon, size=(count, d * d + d))
    noise = draw[:, :d * d].reshape(count, d, d)
    v_noise = draw[:, d * d:]
    O_noisy = O + np.triu(noise) + np.triu(noise, 1).swapaxes(-1, -2)
    V_noisy = V + v_noise

    eigvals, eigvecs = np.linalg.eigh(O_noisy)
    eigvals = np.maximum(eigvals, PD_FLOOR)
    O_pd = (eigvecs * eigvals[:, None, :]) @ eigvecs.swapaxes(-1, -2)
    O_pd = (O_pd + O_pd.swapaxes(-1, -2)) / 2.0
    # the explicit trailing axis reads V_noisy as a stack of vectors on
    # every numpy version
    return np.linalg.solve(O_pd, V_noisy[..., None])[..., 0]


# --------------------------------------------------------------------------
# dose models

@dataclass(frozen=True)
class DoseModel:
    """Trained coefficients plus everything needed to score a raw row:
    the design encoding and the normalization bounds (numeric inputs
    and the target are model-internal [-1, 1] quantities)."""

    eta: np.ndarray
    encoding: DesignEncoding
    bounds: NormalizationMap

    def __post_init__(self):
        if len(self.eta) != self.encoding.width:
            raise SchemaMismatch(
                f"coefficient length {len(self.eta)} != design width "
                f"{self.encoding.width}")
        if self.encoding.schema.target not in self.bounds:
            raise SchemaMismatch(
                f"bounds must cover the target column "
                f"{self.encoding.schema.target!r} for denormalization")

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Dose predictions in original units, one per row of the
        normalized design matrix *X*."""
        lo, hi = self.bounds[self.encoding.schema.target]
        return denormalize_value(X @ self.eta, lo, hi)

    def to_json(self) -> dict:
        return {
            "coefficients": [float(v) for v in self.eta],
            "encoding": self.encoding.to_json(),
            "schema": self.encoding.schema.to_json(),
            "bounds": {k: list(v) for k, v in self.bounds.items()},
            # a DoseModel is never noised: the DP sweep scores rows of
            # coefficients, not models
            "privacy": "none",
            "epsilon": None,
        }


def mean_absolute_errors(X: np.ndarray, etas: np.ndarray, y: np.ndarray,
                         target_bounds: tuple[float, float]) -> np.ndarray:
    """MAE of each coefficient vector (a row of *etas*) scored on the
    normalized design matrix *X* against the true doses *y*."""
    lo, hi = target_bounds
    yhat = denormalize_value(etas @ X.T, lo, hi)    # one row per model
    return np.abs(yhat - y).mean(axis=1)


# --------------------------------------------------------------------------
# clinical metrics

@dataclass(frozen=True)
class ClinicalReport:
    mae: float
    mape: float
    under: float
    in_window: float
    over: float

    def to_json(self) -> dict:
        return {
            "mae": self.mae,
            "mape": self.mape,
            "under": self.under,
            "in_window": self.in_window,
            "over": self.over,
        }


def encode_cohort(ds: Dataset, bounds: NormalizationMap) -> EncodedRows:
    """*ds*'s rows encoded by :func:`curie.data.to_design_matrix`, one
    cohort for every model these score; raises :class:`EmptyValidation`
    when there are no rows or a dose is not positive."""
    if ds.n == 0:
        raise EmptyValidation("validation cohort is empty")
    if np.any(ds.column(ds.schema.target) <= 0):
        raise EmptyValidation("validation doses must be positive")
    return to_design_matrix(ds, bounds)


def clinical_metrics(model: DoseModel, validation: EncodedRows) -> ClinicalReport:
    """MAE, MAPE, and the weekly-dose safety-window partition of
    *model* on *validation*, whose design columns must be the model's.

    A prediction is in the safety window when the weekly dose (7x the
    daily dose) falls within 20% of the weekly true dose; below the
    window is under-prescription, above is over-prescription.
    """
    schema = validation.dataset.schema
    if DesignEncoding(schema).features != model.encoding.features:
        raise SchemaMismatch("the cohort's design columns are not the model's")
    y = validation.dataset.column(schema.target)
    yhat = model.predict(validation.X)
    err = np.abs(yhat - y)
    mae = float(err.mean())
    mape = float((err / y).mean() * 100.0)
    weekly_hat, weekly = WEEKLY * yhat, WEEKLY * y
    lo = (1.0 - SAFETY_WINDOW) * weekly
    hi = (1.0 + SAFETY_WINDOW) * weekly
    under = float(np.mean(weekly_hat < lo))
    over = float(np.mean(weekly_hat > hi))
    return ClinicalReport(mae, mape, under, 1.0 - under - over, over)
