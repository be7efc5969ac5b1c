"""Consortium configuration, end-to-end scenario orchestration,
differential-privacy sweeps, and benchmark runs.

A consortium is declared in a versioned JSON config file: the shared
schema, one entry per member (policy file, dataset file or synthesis
profile, plain attributes, alliances), the ring order and initiator,
homomorphic-encryption parameters, and DP settings.  ``CURIE_SEED`` in
the environment overrides the config's master seed.

Scenario modes:

* ``negotiate``: stop after pairwise negotiation; the report is
  byte-deterministic for a given config and seed (timings excluded),
* ``full``: negotiate, fit per-member local models, run one ring
  session for the designated initiator, fit the pooled model, and score
  the models on the mixed held-out cohort,
* ``full_dp``: additionally sweep the configured privacy budgets.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from curie import cpl
from curie.crypto import HEParams
from curie.data import (
    Dataset,
    DesignEncoding,
    InvalidProfileField,
    Schema,
    SynthProfile,
    concat,
    is_json_kind,
    load_dataset,
    normalize_columns,
    normalized_schema,
    synth_members,
    synth_numeric_members,
    to_design_matrix,
)
from curie.engine import Agreement, MemberContext, negotiate_consortium
from curie.errors import CurieError
from curie.phases import phase, recording
from curie.regression import (
    ClinicalReport,
    DoseModel,
    SingularMatrix,
    clinical_metrics,
    functional_mechanism,
    mean_absolute_errors,
    solve_ols_pruned,
    validation_doses,
)
from curie.ring import EmptyRelease, LocalStats, local_stats, run_ring_session

CONFIG_VERSION = 1
REPORT_VERSION = 1

SEED_ENV_VAR = "CURIE_SEED"

MODE_NEGOTIATE = "negotiate"
MODE_FULL = "full"
MODE_FULL_DP = "full_dp"

CI_LEVEL = 0.95
CI_DRAWS = 2000


class ConfigError(CurieError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.field_path = path


# --------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class MemberSpec:
    member_id: str
    policy_path: Path
    dataset_path: Path | None = None
    synth: SynthProfile | None = None
    attributes: Mapping[str, object] = field(default_factory=dict)
    alliances: frozenset[str] = frozenset()


@dataclass(frozen=True)
class DPSettings:
    epsilons: tuple[float, ...] = (0.25, 1.0, 5.0, 20.0, 50.0, 100.0)
    repetitions: int = 100

    def __post_init__(self) -> None:
        if not (self.epsilons and all(0 < e < math.inf for e in self.epsilons)):
            raise ConfigError("dp.epsilons", "privacy budgets must be positive and finite")
        if self.repetitions < 1:
            raise ConfigError("dp.repetitions", "repetitions must be at least 1")


@dataclass(frozen=True)
class ConsortiumConfig:
    name: str
    schema: Schema
    members: tuple[MemberSpec, ...]
    ring_order: tuple[str, ...]
    initiator: str
    he: HEParams
    dp: DPSettings
    seed: int
    holdout_fraction: float = 0.25


_CONFIG_KEYS = frozenset({"version", "name", "seed", "schema", "members",
                          "ring_order", "initiator", "he", "dp",
                          "holdout_fraction"})
_MEMBER_KEYS = frozenset({"id", "policy", "dataset", "synth", "attributes",
                          "alliances"})
_SYNTH_KEYS = frozenset(f.name for f in fields(SynthProfile)) - {"member_id"}
_HE_KEYS = frozenset({"key_bits", "scale_bits"})
_DP_KEYS = frozenset(f.name for f in fields(DPSettings))


def _reject_unknown_keys(obj: Mapping, known: frozenset[str], where: str) -> None:
    """Raise :class:`ConfigError` naming the first key of *obj* that is
    not in *known*; *where* prefixes the key path."""
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ConfigError(f"{where}{unknown[0]}", "unknown config key")


def _typed(value: object, kind: str, where: str):
    """*value*, if it is a JSON value of *kind* (see
    :func:`~curie.data.is_json_kind`); otherwise raise
    :class:`ConfigError` naming *where*."""
    if not is_json_kind(value, kind):
        raise ConfigError(where, f"must be a JSON {kind}")
    return value


def _typed_items(value: object, kind: str, where: str) -> list:
    """The items of the JSON array *value*, each a JSON value of *kind*."""
    return [_typed(item, kind, f"{where}[{i}]")
            for i, item in enumerate(_typed(value, "array", where))]


def _seed_for(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def load_config(path: str | Path) -> ConsortiumConfig:
    """Load and validate a consortium config file.

    Raises :class:`ConfigError` carrying the offending field path for
    any key it does not know and for any value of the wrong JSON kind.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(str(path), "config file not found") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None

    _typed(raw, "object", str(path))
    if raw.get("version") != CONFIG_VERSION or isinstance(raw.get("version"), bool):
        raise ConfigError("version", f"expected config version {CONFIG_VERSION}")
    _reject_unknown_keys(raw, _CONFIG_KEYS, "")
    base = path.parent

    schema_raw = _typed(raw.get("schema"), "object", "schema")
    try:
        schema = Schema.from_json(schema_raw)
    except KeyError as exc:
        raise ConfigError("schema", f"missing field {exc}") from None
    except (TypeError, ValueError) as exc:    # a nested value of the wrong kind
        raise ConfigError("schema", f"malformed schema: {exc}") from None
    except CurieError as exc:
        raise ConfigError("schema", str(exc)) from None
    for col in schema.columns:
        if col.ctype.is_numeric and col.ctype.bounds is None:
            raise ConfigError(f"schema.columns.{col.name}",
                              "numeric columns must declare bounds so all "
                              "members normalize identically")

    members: list[MemberSpec] = []
    seen: set[str] = set()
    for i, m in enumerate(_typed_items(raw.get("members", []), "object", "members")):
        where = f"members[{i}]"
        _reject_unknown_keys(m, _MEMBER_KEYS, f"{where}.")
        mid = m.get("id")
        if not mid:
            raise ConfigError(f"{where}.id", "member id is required")
        _typed(mid, "string", f"{where}.id")
        if mid in seen:
            raise ConfigError(f"{where}.id", f"duplicate member id {mid!r}")
        seen.add(mid)
        if "policy" not in m:
            raise ConfigError(f"{where}.policy", "policy file is required")
        policy_path = base / _typed(m["policy"], "string", f"{where}.policy")
        if not policy_path.exists():
            raise ConfigError(f"{where}.policy", f"no such file: {policy_path}")
        dataset_path = None
        synth = None
        if "dataset" in m:
            dataset_path = base / _typed(m["dataset"], "string", f"{where}.dataset")
            if not dataset_path.exists():
                raise ConfigError(f"{where}.dataset", f"no such file: {dataset_path}")
        elif "synth" in m:
            synth_raw = _typed(m["synth"], "object", f"{where}.synth")
            _reject_unknown_keys(synth_raw, _SYNTH_KEYS, f"{where}.synth.")
            try:
                synth = SynthProfile.from_json({"member_id": mid, **synth_raw})
            except InvalidProfileField as exc:
                raise ConfigError(f"{where}.synth.{exc.field}", exc.reason) from None
        else:
            raise ConfigError(where, "member needs either a dataset or a synth profile")
        members.append(MemberSpec(
            member_id=mid,
            policy_path=policy_path,
            dataset_path=dataset_path,
            synth=synth,
            attributes=dict(_typed(m.get("attributes", {}), "object",
                                   f"{where}.attributes")),
            alliances=frozenset(_typed_items(m.get("alliances", []), "string",
                                             f"{where}.alliances")),
        ))
    if len(members) < 2:
        raise ConfigError("members", "a consortium needs at least two members")

    ring_order = tuple(_typed_items(raw.get("ring_order", [m.member_id for m in members]),
                                    "string", "ring_order"))
    if sorted(ring_order) != sorted(m.member_id for m in members):
        raise ConfigError("ring_order", "must be a permutation of the member ids")
    initiator = _typed(raw.get("initiator", ring_order[0]), "string", "initiator")
    if initiator not in ring_order:
        raise ConfigError("initiator", f"{initiator!r} is not a member")

    he_raw = _typed(raw.get("he", {}), "object", "he")
    _reject_unknown_keys(he_raw, _HE_KEYS, "he.")
    he = HEParams(**{k: _typed(v, "integer", f"he.{k}") for k, v in he_raw.items()})
    try:
        he.validate()
    except CurieError as exc:
        raise ConfigError("he", str(exc)) from None

    dp_raw = _typed(raw.get("dp", {}), "object", "dp")
    _reject_unknown_keys(dp_raw, _DP_KEYS, "dp.")
    epsilons = _typed_items(dp_raw.get("epsilons", [*DPSettings.epsilons]), "number",
                            "dp.epsilons")
    dp = DPSettings(tuple(map(float, epsilons)), _typed(
        dp_raw.get("repetitions", DPSettings.repetitions), "integer", "dp.repetitions"))

    seed = _typed(raw.get("seed", 0), "integer", "seed")
    if SEED_ENV_VAR in os.environ:
        try:
            seed = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise ConfigError(SEED_ENV_VAR, "must be an integer") from None
    holdout = float(_typed(raw.get("holdout_fraction", 0.25), "number", "holdout_fraction"))
    if not 0.0 <= holdout < 1.0:
        raise ConfigError("holdout_fraction", "must lie in [0, 1)")

    return ConsortiumConfig(
        name=_typed(raw.get("name", path.stem), "string", "name"),
        schema=schema,
        members=tuple(members),
        ring_order=ring_order,
        initiator=initiator,
        he=he,
        dp=dp,
        seed=seed,
        holdout_fraction=holdout,
    )


# --------------------------------------------------------------------------
# scenario assembly

@dataclass
class Scenario:
    config: ConsortiumConfig
    contexts: list[MemberContext]          # training data
    validation: Dataset | None             # all held-out rows (mixed cohort)
    encoding: DesignEncoding

    def context(self, member_id: str) -> MemberContext:
        for ctx in self.contexts:
            if ctx.member_id == member_id:
                return ctx
        raise KeyError(member_id)


def build_scenario(cfg: ConsortiumConfig) -> Scenario:
    """Materialize datasets and validated policies for a config."""
    synth_profiles = [m.synth for m in cfg.members if m.synth is not None]
    synth_data: dict[str, Dataset] = {}
    if synth_profiles:
        generated = synth_members(_seed_for(cfg.seed, "synth"), cfg.schema,
                                  synth_profiles)
        synth_data = {ds.provenance: ds for ds in generated}

    contexts: list[MemberContext] = []
    held_out: list[Dataset] = []
    for spec in cfg.members:
        policy = cpl.parse_policy(spec.policy_path.read_text())
        diags = cpl.validate(policy)
        errors = [d for d in diags if d.severity is cpl.Severity.ERROR]
        if errors:
            listing = "; ".join(d.format(str(spec.policy_path)) for d in errors)
            raise ConfigError(f"members.{spec.member_id}.policy", listing)

        if spec.dataset_path is not None:
            with open(spec.dataset_path, newline="") as fh:
                ds = load_dataset(fh, cfg.schema, provenance=spec.member_id)
        else:
            ds = synth_data[spec.member_id]

        if cfg.holdout_fraction > 0:
            split_rng = np.random.default_rng(
                _seed_for(cfg.seed, f"split:{spec.member_id}"))
            train, held = ds.split(cfg.holdout_fraction, split_rng)
        else:
            train, held = ds, None
        if held is not None and held.n > 0:
            held_out.append(held)
        contexts.append(MemberContext(
            spec.member_id, policy, train,
            attributes=dict(spec.attributes), alliances=spec.alliances))

    validation = concat(held_out) if held_out else None
    return Scenario(cfg, contexts, validation,
                    DesignEncoding(normalized_schema(cfg.schema)))


# --------------------------------------------------------------------------
# scenario execution

@dataclass
class ScenarioReport:
    consortium: str
    mode: str
    seed: int
    members: list[str]
    agreements: list[Agreement]
    message_counts: dict[str, int]
    pooled_rows: int | None = None
    pooled_model: DoseModel | None = None
    pooled_clinical: ClinicalReport | None = None
    local_clinical: dict[str, ClinicalReport] = field(default_factory=dict)
    local_rows: dict[str, int] = field(default_factory=dict)
    dp_table: list[dict] | None = None
    timings: dict[str, float] | None = None

    def to_json(self, include_timings: bool = True) -> dict:
        out = {
            "report_version": REPORT_VERSION,
            "consortium": self.consortium,
            "mode": self.mode,
            "seed": self.seed,
            "members": list(self.members),
            "agreements": [a.to_json() for a in self.agreements],
            "message_counts": dict(self.message_counts),
            "pooled": None,
            "local": {
                mid: {
                    "rows": self.local_rows.get(mid),
                    "clinical": rep.to_json() if rep else None,
                }
                for mid, rep in self.local_clinical.items()
            },
            "dp_sweep": self.dp_table,
        }
        if self.pooled_rows is not None:
            out["pooled"] = {
                "rows": self.pooled_rows,
                "model": self.pooled_model.to_json() if self.pooled_model else None,
                "clinical": (self.pooled_clinical.to_json()
                             if self.pooled_clinical else None),
            }
        if include_timings and self.timings is not None:
            out["timings"] = dict(self.timings)
        return out

    def dumps(self, include_timings: bool = True) -> str:
        return json.dumps(self.to_json(include_timings), sort_keys=True,
                          separators=(",", ":"))


def _local_clinical(scenario: Scenario, stats: LocalStats | None) -> ClinicalReport | None:
    """The scores of the model a member fits from *stats*, its
    statistics over its own rows; None without rows, without a unique
    fit or without a validation cohort."""
    if stats is None or scenario.validation is None:
        return None
    try:
        eta = solve_ols_pruned(stats.O, stats.V)
    except SingularMatrix:
        return None
    return clinical_metrics(DoseModel(eta, scenario.encoding, scenario.config.schema.bounds),
                            scenario.validation)


def _member_stats(scenario: Scenario, agreements: Sequence[Agreement],
                  own: LocalStats) -> dict[str, LocalStats | None]:
    """Each ring member's statistics for the initiator's session: *own*,
    the initiator's over its own rows, and what each owner's agreement
    releases to it (None where nothing is released)."""
    cfg = scenario.config
    by_owner = {a.owner: a for a in agreements if a.requester == cfg.initiator}

    def member(member_id: str) -> LocalStats | None:
        if member_id == cfg.initiator:
            return own
        if member_id not in by_owner:
            return None
        try:
            return local_stats(scenario.context(member_id).dataset, by_owner[member_id],
                               bounds=cfg.schema.bounds, encoding=scenario.encoding)
        except EmptyRelease:    # an empty agreement, or no row selected
            return None

    return {mid: member(mid) for mid in cfg.ring_order}


def _session_params(he: HEParams, rows: Sequence[int]) -> HEParams:
    """The ring session's bounds for members holding *rows* rows each:
    at most every row pools, normalized into [-1, 1] against the
    declared bounds."""
    return replace(he, v_max=1.0, n_max=sum(rows))


def run_scenario(cfg: ConsortiumConfig, mode: str = MODE_FULL) -> ScenarioReport:
    """Build and negotiate; past ``negotiate``, fit local models, pool
    through the ring and fit the pooled model; in ``full_dp``, sweep the
    budgets.

    The ``negotiate`` mode's report is byte-identical across runs for
    one config+seed (serialize with ``include_timings=False``).  Its
    ``timings`` are the run's phases; ``dd`` is a part of ``negotiation``.
    ``full_dp`` raises :class:`ConfigError` when the initiator acquires
    nothing, as there is then no pooled model to sweep.
    """
    if mode not in (MODE_NEGOTIATE, MODE_FULL, MODE_FULL_DP):
        raise ValueError(f"unknown mode {mode!r}")
    bounds = cfg.schema.bounds
    with recording() as timings:
        with phase("build"):
            scenario = build_scenario(cfg)
        with phase("negotiation"):
            agreements, nego_log = negotiate_consortium(
                scenario.contexts, rng=random.Random(_seed_for(cfg.seed, "negotiate")))
        timings.setdefault("dd", 0.0)
        report = ScenarioReport(
            consortium=cfg.name,
            mode=mode,
            seed=cfg.seed,
            members=[m.member_id for m in cfg.members],
            agreements=agreements,
            message_counts={"negotiation": len(nego_log)},
            timings=timings,
        )
        if mode == MODE_NEGOTIATE:
            return report

        # single-source policies: no ring session and no pooled model
        pools = any(a.requester == cfg.initiator for a in agreements)
        if mode == MODE_FULL_DP and not pools:
            raise ConfigError("initiator", f"{cfg.initiator!r} acquires nothing, "
                                           "so there is no pooled model to sweep")

        # each member's statistics over its own rows, computed once, fit
        # its local model; the initiator's are its ring contribution
        with phase("local_models"):
            for ctx in scenario.contexts:
                try:
                    own = local_stats(ctx.dataset, bounds=bounds, encoding=scenario.encoding)
                except EmptyRelease:    # no training rows
                    if pools and ctx.member_id == cfg.initiator:
                        raise
                    own = None
                if ctx.member_id == cfg.initiator:
                    initiator_stats = own
                report.local_rows[ctx.member_id] = ctx.dataset.n
                report.local_clinical[ctx.member_id] = _local_clinical(scenario, own)
        if not pools:
            return report

        with phase("stats"):
            stats = _member_stats(scenario, agreements, initiator_stats)
        result = run_ring_session(
            list(cfg.ring_order), cfg.initiator, stats,
            _session_params(cfg.he, [ctx.profile.data_size for ctx in scenario.contexts]),
            random.Random(_seed_for(cfg.seed, "ring")))
        report.message_counts["ring"] = len(result.transcript)
        report.pooled_rows = result.n_pool

        with phase("pooled_model"):
            eta = solve_ols_pruned(result.O_pool, result.V_pool)
            report.pooled_model = DoseModel(eta, scenario.encoding, bounds)
            if scenario.validation is not None:
                report.pooled_clinical = clinical_metrics(report.pooled_model,
                                                          scenario.validation)

        if mode == MODE_FULL_DP:
            local = report.local_clinical[cfg.initiator]
            with phase("dp_sweep"):
                report.dp_table = dp_sweep_from_stats(
                    result.O_pool, result.V_pool, scenario, cfg.dp.epsilons,
                    cfg.dp.repetitions, local.mae if local is not None else None)
        return report


# --------------------------------------------------------------------------
# differential-privacy sweep

def bootstrap_ci(values: np.ndarray, rng: np.random.Generator
                 ) -> tuple[float, float]:
    """Percentile bootstrap ``CI_LEVEL`` CI for the mean of *values*,
    from ``CI_DRAWS`` resamples."""
    values = np.asarray(values, dtype=float)
    if len(values) == 1:
        return float(values[0]), float(values[0])
    idx = rng.integers(0, len(values), size=(CI_DRAWS, len(values)))
    means = values[idx].mean(axis=1)
    alpha = (1.0 - CI_LEVEL) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def dp_sweep_from_stats(O_pool: np.ndarray, V_pool: np.ndarray,
                        scenario: Scenario,
                        epsilons: Sequence[float], repetitions: int,
                        local_mae: float | None) -> list[dict]:
    """Per-budget accuracy table for the private pooled model.

    For each epsilon, ``repetitions`` private models, each drawing its
    noise from its own seeded generator, are fitted in one batched call
    and scored on the mixed held-out cohort; the table carries the mean
    MAE with a bootstrap CI, plus the advantage over *local_mae*, the
    initiator's own non-private local model's (the alternative a member
    always has), with its CI.
    """
    cfg = scenario.config
    if scenario.validation is None:
        raise ConfigError("holdout_fraction",
                          "dp sweep needs a held-out validation cohort")
    d = scenario.encoding.width

    # the cohort is encoded once; each budget's repetitions are scored
    # together against it
    bounds = cfg.schema.bounds
    X = to_design_matrix(normalize_columns(scenario.validation, bounds),
                         scenario.encoding).X
    y = validation_doses(scenario.validation)
    target_bounds = bounds[cfg.schema.target]
    V = V_pool.reshape(-1)
    table: list[dict] = []
    for eps in epsilons:
        etas = functional_mechanism(
            O_pool, V, d, eps,
            [np.random.default_rng(_seed_for(cfg.seed, f"dp:{eps}:{rep}"))
             for rep in range(repetitions)])
        maes = mean_absolute_errors(X, etas, y, target_bounds)
        ci_rng = np.random.default_rng(_seed_for(cfg.seed, f"dpci:{eps}"))
        lo, hi = bootstrap_ci(maes, ci_rng)
        row = {
            "epsilon": eps,
            "repetitions": repetitions,
            "mean_mae": float(maes.mean()),
            "mae_ci": [lo, hi] if repetitions > 1 else None,
        }
        if local_mae is not None:
            adv = local_mae - maes
            alo, ahi = bootstrap_ci(adv, ci_rng)
            row["local_mae"] = local_mae
            row["advantage_mean"] = float(adv.mean())
            row["advantage_ci"] = [alo, ahi] if repetitions > 1 else None
        table.append(row)
    return table


# --------------------------------------------------------------------------
# benchmarks

def _bench_session(n_members: int, n_features: int, rows: int, seed: int,
                   key_bits: int, keygen_seed: int) -> dict[str, float]:
    noise = 0.3
    schema, datasets, eta = synth_numeric_members(
        seed, n_members, n_features, [rows] * n_members, noise_sigma=noise)
    # rows normalized as the pipeline's are, the dose against a bound
    # that no dose of the generating model (within 10 sigma) exceeds
    bounds = {**schema.bounds, schema.target: (
        0.0, float(eta[0] + np.abs(eta[1:]).sum() + 10 * noise))}
    params = _session_params(HEParams(key_bits=key_bits),
                            [ds.n for ds in datasets])
    with recording() as out:
        with phase("stats"):
            stats = {ds.provenance: local_stats(ds, bounds=bounds)
                     for ds in datasets}
        run_ring_session(
            [ds.provenance for ds in datasets], datasets[0].provenance,
            stats, params, random.Random(seed),
            keygen_rng=random.Random(keygen_seed))
    out["encrypted_total"] = out["encrypt"] + out["evaluate"] + out["decrypt"]
    return out


def bench(axis: str, values: Sequence[int], runs: int = 3, seed: int = 0,
          key_bits: int = 192, n_members: int = 5, n_features: int = 10,
          rows: int = 1000) -> list[dict]:
    """Timing table along one axis (members | rows | features).

    Key generation is reported separately from the encrypted phases so
    both the with-keygen and without-keygen views are available.
    Medians over *runs* repetitions.
    """
    if axis not in ("members", "rows", "features"):
        raise ValueError(f"unknown bench axis {axis!r}")
    if runs < 1:
        raise ValueError(f"a bench needs at least one run, not {runs}")
    # run-major interleaving: one sweep measures every axis value before
    # the next repetition, so clock/frequency drift hits all values
    # evenly instead of biasing whichever value ran last
    samples: dict[int, list[dict[str, float]]] = {v: [] for v in values}
    for run in range(runs):
        for value in values:
            kwargs = {"n_members": n_members, "n_features": n_features,
                      "rows": rows}
            kwargs[{"members": "n_members", "rows": "rows",
                    "features": "n_features"}[axis]] = value
            samples[value].append(_bench_session(
                kwargs["n_members"], kwargs["n_features"], kwargs["rows"],
                seed=_seed_for(seed, f"bench:{axis}:{value}:{run}"),
                key_bits=key_bits,
                keygen_seed=_seed_for(seed, f"bench:keygen:{run}")))
    table = []
    for value in values:
        medians = {k: float(np.median([s[k] for s in samples[value]]))
                   for k in samples[value][0]}
        table.append({"axis": axis, "value": value, "runs": runs, **medians})
    return table
