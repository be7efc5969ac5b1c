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
* ``full``: negotiate, run one ring session for the designated
  initiator, fit pooled and per-member local models, score them on the
  mixed held-out cohort,
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
    Schema,
    SynthProfile,
    concat,
    load_dataset,
    normalized_schema,
    synth_members,
    synth_numeric_members,
)
from curie.engine import Agreement, MemberContext, negotiate_consortium
from curie.errors import CurieError
from curie.phases import phase, recording
from curie.regression import (
    ClinicalReport,
    DoseModel,
    clinical_metrics,
    functional_mechanism,
    mean_absolute_errors,
    scoring_matrix,
    solve_ols_pruned,
    validation_doses,
)
from curie.ring import EmptyRelease, LocalStats, RingResult, local_stats, \
    run_ring_session
from curie.transport import MessageLog

CONFIG_VERSION = 1
REPORT_VERSION = 1

SEED_ENV_VAR = "CURIE_SEED"

MODE_NEGOTIATE = "negotiate"
MODE_FULL = "full"
MODE_FULL_DP = "full_dp"


class ConfigError(CurieError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.field_path = path


# --------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class MemberSpec:
    member_id: str
    policy_path: Path | None = None
    policy_text: str | None = None
    dataset_path: Path | None = None
    synth: SynthProfile | None = None
    attributes: Mapping[str, object] = field(default_factory=dict)
    alliances: frozenset[str] = frozenset()


@dataclass(frozen=True)
class DPSettings:
    enabled: bool = False
    epsilons: tuple[float, ...] = (0.25, 1.0, 5.0, 20.0, 50.0, 100.0)
    repetitions: int = 100

    def __post_init__(self) -> None:
        if self.enabled and not (self.epsilons
                                 and all(0 < e < math.inf for e in self.epsilons)):
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


def _seed_for(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def load_config(path: str | Path) -> ConsortiumConfig:
    """Load and validate a consortium config file.

    Raises :class:`ConfigError` carrying the offending field path,
    also for any key it does not know.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(str(path), "config file not found") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None

    if raw.get("version") != CONFIG_VERSION:
        raise ConfigError("version", f"expected config version {CONFIG_VERSION}")
    _reject_unknown_keys(raw, _CONFIG_KEYS, "")
    base = path.parent

    try:
        schema = Schema.from_json(raw["schema"])
    except KeyError as exc:
        raise ConfigError("schema", f"missing field {exc}") from None
    except CurieError as exc:
        raise ConfigError("schema", str(exc)) from None
    for col in schema.columns:
        if col.ctype.is_numeric and col.ctype.bounds is None:
            raise ConfigError(f"schema.columns.{col.name}",
                              "numeric columns must declare bounds so all "
                              "members normalize identically")

    members: list[MemberSpec] = []
    seen: set[str] = set()
    for i, m in enumerate(raw.get("members", [])):
        where = f"members[{i}]"
        _reject_unknown_keys(m, _MEMBER_KEYS, f"{where}.")
        mid = m.get("id")
        if not mid:
            raise ConfigError(f"{where}.id", "member id is required")
        if mid in seen:
            raise ConfigError(f"{where}.id", f"duplicate member id {mid!r}")
        seen.add(mid)
        if "policy" not in m:
            raise ConfigError(f"{where}.policy", "policy file is required")
        policy_path = base / m["policy"]
        if not policy_path.exists():
            raise ConfigError(f"{where}.policy", f"no such file: {policy_path}")
        dataset_path = None
        synth = None
        if "dataset" in m:
            dataset_path = base / m["dataset"]
            if not dataset_path.exists():
                raise ConfigError(f"{where}.dataset", f"no such file: {dataset_path}")
        elif "synth" in m:
            _reject_unknown_keys(m["synth"], _SYNTH_KEYS, f"{where}.synth.")
            try:
                synth = SynthProfile.from_json({"member_id": mid, **m["synth"]})
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"{where}.synth", str(exc)) from None
        else:
            raise ConfigError(where, "member needs either a dataset or a synth profile")
        members.append(MemberSpec(
            member_id=mid,
            policy_path=policy_path,
            dataset_path=dataset_path,
            synth=synth,
            attributes=dict(m.get("attributes", {})),
            alliances=frozenset(m.get("alliances", ())),
        ))
    if len(members) < 2:
        raise ConfigError("members", "a consortium needs at least two members")

    ring_order = tuple(raw.get("ring_order", [m.member_id for m in members]))
    if sorted(ring_order) != sorted(m.member_id for m in members):
        raise ConfigError("ring_order", "must be a permutation of the member ids")
    initiator = raw.get("initiator", ring_order[0])
    if initiator not in ring_order:
        raise ConfigError("initiator", f"{initiator!r} is not a member")

    he_raw = raw.get("he", {})
    _reject_unknown_keys(he_raw, _HE_KEYS, "he.")
    he = HEParams(
        key_bits=int(he_raw.get("key_bits", 2048)),
        scale_bits=int(he_raw.get("scale_bits", 20)),
    )
    try:
        he.validate()
    except CurieError as exc:
        raise ConfigError("he", str(exc)) from None

    dp_raw = raw.get("dp", {})
    _reject_unknown_keys(dp_raw, _DP_KEYS, "dp.")
    dp = DPSettings(
        enabled=bool(dp_raw.get("enabled", False)),
        epsilons=tuple(float(e) for e in dp_raw.get("epsilons", DPSettings.epsilons)),
        repetitions=int(dp_raw.get("repetitions", DPSettings.repetitions)),
    )

    seed = int(os.environ.get(SEED_ENV_VAR, raw.get("seed", 0)))
    holdout = float(raw.get("holdout_fraction", 0.25))
    if not 0.0 <= holdout < 1.0:
        raise ConfigError("holdout_fraction", "must lie in [0, 1)")

    return ConsortiumConfig(
        name=raw.get("name", path.stem),
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
    holdouts: dict[str, Dataset]
    validation: Dataset | None             # union of holdouts (mixed cohort)
    bounds: dict[str, tuple[float, float]]
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
    holdouts: dict[str, Dataset] = {}
    for spec in cfg.members:
        text = spec.policy_text or spec.policy_path.read_text()
        policy = cpl.parse_policy(text)
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
            holdouts[spec.member_id] = held
        contexts.append(MemberContext(
            spec.member_id, policy, train,
            attributes=dict(spec.attributes), alliances=spec.alliances))

    validation = concat(list(holdouts.values())) if holdouts else None
    bounds = {c.name: (float(c.ctype.bounds[0]), float(c.ctype.bounds[1]))
              for c in cfg.schema.columns if c.ctype.is_numeric}
    return Scenario(cfg, contexts, holdouts, validation, bounds,
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


def _fit_local_model(scenario: Scenario, ctx: MemberContext) -> DoseModel | None:
    try:
        stats = local_stats(ctx.dataset, bounds=scenario.bounds,
                            encoding=scenario.encoding)
        eta = solve_ols_pruned(stats.O, stats.V)
    except CurieError:
        return None
    return DoseModel(eta, scenario.encoding, scenario.bounds)


def _stats_provider(scenario: Scenario, agreements: Sequence[Agreement]):
    cfg = scenario.config
    by_owner = {a.owner: a for a in agreements if a.requester == cfg.initiator}

    def provider(member_id: str) -> LocalStats | None:
        ctx = scenario.context(member_id)
        if member_id == cfg.initiator:
            return local_stats(ctx.dataset, bounds=scenario.bounds,
                               encoding=scenario.encoding)
        if member_id not in by_owner:
            return None
        try:
            return local_stats(ctx.dataset, by_owner[member_id],
                               bounds=scenario.bounds, encoding=scenario.encoding)
        except EmptyRelease:    # an empty agreement, or no row selected
            return None

    return provider


def _negotiate_and_pool(cfg: ConsortiumConfig, pool: bool
                        ) -> tuple[Scenario, list[Agreement], MessageLog,
                                   RingResult | None]:
    """The pipeline both :func:`run_scenario` and :func:`dp_sweep`
    drive: build the scenario, negotiate every pair, and, when *pool* is
    set and the initiator acquired something, run the initiator's ring
    session.  Each phase's wall time lands in the active recorder."""
    with phase("build"):
        scenario = build_scenario(cfg)
    with phase("negotiation"):
        agreements, nego_log = negotiate_consortium(
            scenario.contexts, rng=random.Random(_seed_for(cfg.seed, "negotiate")))

    if not pool or not any(a.requester == cfg.initiator for a in agreements):
        # negotiation only, or nothing acquired (single-source
        # policies): no ring session and no pooled model
        return scenario, agreements, nego_log, None
    # at most every member's public row count pools, each row
    # normalized into [-1, 1] against the declared bounds
    params = replace(cfg.he, v_max=1.0, n_max=sum(
        ctx.profile.data_size for ctx in scenario.contexts))
    result = run_ring_session(
        list(cfg.ring_order), cfg.initiator,
        _stats_provider(scenario, agreements),
        params, random.Random(_seed_for(cfg.seed, "ring")))
    return scenario, agreements, nego_log, result


def run_scenario(cfg: ConsortiumConfig, mode: str = MODE_FULL) -> ScenarioReport:
    """Negotiate, optionally aggregate and model, and assemble a report.

    The ``negotiate`` mode's report is byte-identical across runs for
    one config+seed (serialize with ``include_timings=False``).  Its
    ``timings`` are the run's phases; ``dd`` is a part of ``negotiation``.
    """
    if mode not in (MODE_NEGOTIATE, MODE_FULL, MODE_FULL_DP):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == MODE_FULL_DP and not cfg.dp.enabled:
        raise ConfigError("dp.enabled", "dp sweep requested but dp is disabled")
    with recording() as timings:
        scenario, agreements, nego_log, result = _negotiate_and_pool(
            cfg, pool=mode != MODE_NEGOTIATE)
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

        # local models always come out of a full run
        with phase("local_models"):
            for ctx in scenario.contexts:
                report.local_rows[ctx.member_id] = ctx.dataset.n
                model = _fit_local_model(scenario, ctx)
                if model is not None and scenario.validation is not None:
                    report.local_clinical[ctx.member_id] = clinical_metrics(
                        model, scenario.validation)
                else:
                    report.local_clinical[ctx.member_id] = None

        if result is None:
            return report
        report.message_counts["ring"] = len(result.transcript)
        report.pooled_rows = result.n_pool

        with phase("pooled_model"):
            eta = solve_ols_pruned(result.O_pool, result.V_pool)
            report.pooled_model = DoseModel(eta, scenario.encoding, scenario.bounds)
            if scenario.validation is not None:
                report.pooled_clinical = clinical_metrics(report.pooled_model,
                                                          scenario.validation)

        if mode == MODE_FULL_DP:
            with phase("dp_sweep"):
                report.dp_table = dp_sweep_from_stats(
                    result.O_pool, result.V_pool, scenario, cfg.dp.epsilons,
                    cfg.dp.repetitions)
        return report


# --------------------------------------------------------------------------
# differential-privacy sweep

def bootstrap_ci(values: np.ndarray, rng: np.random.Generator,
                 level: float = 0.95, draws: int = 2000) -> tuple[float, float]:
    """Percentile bootstrap CI for the mean of *values*."""
    values = np.asarray(values, dtype=float)
    if len(values) == 1:
        return float(values[0]), float(values[0])
    idx = rng.integers(0, len(values), size=(draws, len(values)))
    means = values[idx].mean(axis=1)
    alpha = (1.0 - level) / 2.0
    return (float(np.quantile(means, alpha)),
            float(np.quantile(means, 1.0 - alpha)))


def dp_sweep_from_stats(O_pool: np.ndarray, V_pool: np.ndarray,
                        scenario: Scenario,
                        epsilons: Sequence[float], repetitions: int,
                        keep_samples: bool = False) -> list[dict]:
    """Per-budget accuracy table for the private pooled model.

    For each epsilon, ``repetitions`` private models are fitted from
    fresh noise draws and scored on the mixed held-out cohort; the
    table carries the mean MAE with a bootstrap CI, plus the advantage
    over the initiator's own non-private local model (the alternative a
    member always has) with its CI.
    """
    cfg = scenario.config
    if scenario.validation is None:
        raise ConfigError("holdout_fraction",
                          "dp sweep needs a held-out validation cohort")
    d = scenario.encoding.width
    initiator_ctx = scenario.context(cfg.initiator)
    local_model = _fit_local_model(scenario, initiator_ctx)
    local_mae = (clinical_metrics(local_model, scenario.validation).mae
                 if local_model is not None else None)

    # the cohort is encoded once; each budget's repetitions are scored
    # together against it
    X = scoring_matrix(scenario.encoding, scenario.bounds, scenario.validation)
    y = validation_doses(scenario.validation)
    target_bounds = scenario.bounds[cfg.schema.target]
    V = V_pool.reshape(-1)
    table: list[dict] = []
    for eps in epsilons:
        etas = np.array([
            functional_mechanism(
                O_pool, V, d, eps,
                np.random.default_rng(_seed_for(cfg.seed, f"dp:{eps}:{rep}")))
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
        if keep_samples:
            row["maes"] = maes.tolist()
        table.append(row)
    return table


def dp_sweep(cfg: ConsortiumConfig, epsilons: Sequence[float] | None = None,
             repetitions: int | None = None,
             keep_samples: bool = False) -> list[dict]:
    """Run the full pipeline, then sweep the given budgets (default: the
    config's).  Raises :class:`ConfigError` before any work on settings
    :class:`DPSettings` refuses, and when the initiator acquires nothing."""
    if not cfg.dp.enabled:
        raise ConfigError("dp.enabled", "dp sweep requires dp.enabled")
    dp = DPSettings(True, cfg.dp.epsilons if epsilons is None else tuple(epsilons),
                    cfg.dp.repetitions if repetitions is None else repetitions)
    scenario, _, _, result = _negotiate_and_pool(cfg, pool=True)
    if result is None:
        raise ConfigError("initiator", f"{cfg.initiator!r} acquires nothing, "
                                       "so there is no pooled model to sweep")
    return dp_sweep_from_stats(result.O_pool, result.V_pool, scenario,
                               dp.epsilons, dp.repetitions, keep_samples=keep_samples)


# --------------------------------------------------------------------------
# benchmarks

def _bench_session(n_members: int, n_features: int, rows: int, seed: int,
                   key_bits: int, keygen_seed: int) -> dict[str, float]:
    schema, datasets, _ = synth_numeric_members(
        seed, n_members, n_features, [rows] * n_members, noise_sigma=0.3)
    v_bound = float(rows * n_members) * 200.0
    params = HEParams(key_bits=key_bits, n_max=max(10_000, rows * n_members),
                      v_max=v_bound)
    with recording() as out:
        with phase("stats"):
            stats = {ds.provenance: local_stats(ds) for ds in datasets}
        run_ring_session(
            [ds.provenance for ds in datasets], datasets[0].provenance,
            lambda mid: stats[mid], params, random.Random(seed),
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
