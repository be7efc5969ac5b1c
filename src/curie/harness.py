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
import io
import json
import math
import os
import random
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Collection, Mapping, Sequence

import numpy as np

from curie import cpl
from curie.crypto import HEParams
from curie.data import (
    Column,
    ColumnType,
    Dataset,
    DesignEncoding,
    EncodedRows,
    NormalizationMap,
    Schema,
    SchemaMismatch,
    SynthProfile,
    UnknownColumn,
    concat,
    load_dataset,
    normalized_schema,
    selection_mask,
    synth_members,
    synth_numeric_members,
    to_design_matrix,
)
from curie.engine import EMPTY, Agreement, MemberContext, negotiate_consortium
from curie.errors import CurieError, OverflowAbort
from curie.phases import phase, recording
from curie.regression import (
    ClinicalReport,
    DoseModel,
    SingularMatrix,
    clinical_metrics,
    encode_cohort,
    functional_mechanism,
    mean_absolute_errors,
    solve_ols_pruned,
)
from curie.ring import (
    EmptyRelease,
    LocalStats,
    local_stats,
    member_rows,
    run_ring_session,
)

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
    """The privacy budgets to sweep, stored as floats (a budget seeds its
    noise by its text, so 1 and 1.0 must be one budget), and the private
    models fitted per budget."""

    epsilons: tuple[float, ...] = (0.25, 1.0, 5.0, 20.0, 50.0, 100.0)
    repetitions: int = 100

    def __post_init__(self) -> None:
        if not (self.epsilons and all(0 < e < math.inf for e in self.epsilons)):
            raise ConfigError("dp.epsilons", "privacy budgets must be positive and finite")
        # a budget seeds its own noise, so a repeated budget would repeat
        # its row rather than sample it again
        if len(set(self.epsilons)) < len(self.epsilons):
            raise ConfigError("dp.epsilons", "privacy budgets must be distinct")
        if self.repetitions < 1:
            raise ConfigError("dp.repetitions", "repetitions must be at least 1")
        object.__setattr__(self, "epsilons", tuple(map(float, self.epsilons)))


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
_SCHEMA_KEYS = frozenset({"columns", "target"})
_COLUMN_KEYS = frozenset({"name", "type", "levels", "bounds"})
_MEMBER_KEYS = frozenset({"id", "policy", "dataset", "synth", "attributes",
                          "alliances"})
_SYNTH_KEYS = frozenset(f.name for f in fields(SynthProfile)) - {"member_id"}
_HE_KEYS = frozenset({"key_bits", "scale_bits"})
_DP_KEYS = frozenset(f.name for f in fields(DPSettings))

_JSON_TYPES = {"object": (dict,), "array": (list,), "string": (str,),
               "integer": (int,), "number": (int, float)}


def _require(ok: object, where: str, message: str) -> None:
    """Raise :class:`ConfigError` at *where* unless *ok*."""
    if not ok:
        raise ConfigError(where, message)


def _typed(value: object, kind: str, where: str):
    """*value*, if :mod:`json` reads it as a JSON value of *kind*, else
    raise :class:`ConfigError` at *where*.  The test is on the exact type,
    so a JSON ``true`` (a ``bool``, an ``int`` subclass) is of no kind."""
    if type(value) not in _JSON_TYPES[kind]:
        raise ConfigError(where, f"must be a JSON {kind}")
    return value


def _typed_items(value: object, kind: str, where: str) -> list:
    """The JSON array *value*, each item a JSON value of *kind*."""
    types = _JSON_TYPES[kind]
    for i, item in enumerate(_typed(value, "array", where)):
        if type(item) not in types:
            raise ConfigError(f"{where}[{i}]", f"must be a JSON {kind}")
    return value


def _entries(value: object, where: str,
             keys: Collection[str]) -> list[tuple[str, object, str]]:
    """(key, value, path) of each key of the JSON object *value* at
    *where*, refusing any key not in *keys*."""
    obj = _typed(value, "object", where)
    prefix = f"{where}." if where else ""
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise ConfigError(prefix + unknown[0], f"unknown key; expected one of {sorted(keys)}")
    return [(key, item, prefix + key) for key, item in obj.items()]


def _interval(value: object, where: str, within: tuple[float, float] | None) -> tuple:
    """The increasing pair of finite numbers *value*, inside *within*
    unless that is None."""
    lo_hi = tuple(_typed_items(value, "number", where))
    _require(len(lo_hi) == 2 and lo_hi[0] < lo_hi[1] and all(map(math.isfinite, lo_hi)),
             where, "must be an increasing pair of finite numbers")
    if within is not None:
        _require(within[0] <= lo_hi[0] and lo_hi[1] <= within[1], where,
                 "must lie within the column's declared bounds")
    return lo_hi


def _share(value: object, where: str):
    """The number *value*, a weight or probability in [0, 1]."""
    _require(0 <= _typed(value, "number", where) <= 1, where, "must lie in [0, 1]")
    return value


def _mix(value: object, levels: tuple[str, ...], where: str) -> dict:
    """The JSON object *value* weighting some of *levels*, with weights
    in [0, 1] that sum to 1."""
    mix = {level: _share(weight, path)
           for level, weight, path in _entries(value, where, levels)}
    _require(abs(sum(mix.values()) - 1.0) <= 1e-9, where, "weights must sum to 1")
    return mix


def _read_schema(raw: object) -> Schema:
    """The schema the config's ``schema`` object declares; every numeric
    column declares bounds, so all members normalize identically."""
    _entries(raw, "schema", _SCHEMA_KEYS)
    columns = []
    for i, col in enumerate(_typed_items(raw.get("columns"), "object", "schema.columns")):
        where = f"schema.columns[{i}]"
        _entries(col, where, _COLUMN_KEYS)
        name = _typed(col.get("name"), "string", f"{where}.name")
        kind = _typed(col.get("type"), "string", f"{where}.type")
        levels = tuple(_typed_items(col.get("levels", []), "string", f"{where}.levels"))
        bounds = (_interval(col["bounds"], f"{where}.bounds", None)
                  if "bounds" in col else None)
        try:
            ctype = ColumnType(kind, levels, bounds)
        except SchemaMismatch as exc:
            raise ConfigError(where, str(exc)) from None
        _require(bounds or not ctype.is_numeric, f"{where}.bounds",
                 "a numeric column must declare bounds")
        columns.append(Column(name, ctype))
    target = _typed(raw.get("target"), "string", "schema.target")
    try:
        return Schema(tuple(columns), target)
    except (SchemaMismatch, UnknownColumn) as exc:
        raise ConfigError("schema", str(exc)) from None


def _read_profile(raw: object, member_id: str, schema: Schema, where: str) -> SynthProfile:
    """The synthesis profile *raw* describes, checked against *schema*;
    every number it holds is finite."""
    _entries(raw, where, _SYNTH_KEYS)
    numeric, categorical, boolean = (
        {c.name: c.ctype for c in schema.feature_columns if c.ctype.kind in kinds}
        for kinds in (("integer", "real"), ("categorical",), ("boolean",)))
    width = DesignEncoding(schema).width

    def entries(name: str, keys: Collection[str]) -> list[tuple[str, object, str]]:
        return _entries(raw.get(name, {}), f"{where}.{name}", keys)

    def number(name: str, default: float) -> float:
        path = f"{where}.{name}"
        value = float(_typed(raw.get(name, default), "number", path))
        _require(math.isfinite(value), path, "must be a finite number")
        return value

    def coefficients(value: object, path: str) -> tuple:
        eta = tuple(_typed_items(value, "number", path))
        _require(len(eta) == width, path, f"must hold {width} numbers, the design width")
        for i, v in enumerate(eta):
            _require(math.isfinite(v), f"{path}[{i}]", "must be a finite number")
        return eta

    n = _typed(raw.get("n"), "integer", f"{where}.n")
    _require(n >= 1, f"{where}.n", "must be at least 1")
    level_column, levels = None, ()
    if "level_column" in raw:
        path = f"{where}.level_column"
        level_column = _typed(raw["level_column"], "string", path)
        _require(level_column in categorical, path, "must name a categorical feature column")
        levels = categorical[level_column].levels
    noise_sigma = number("noise_sigma", 0.0)
    _require(noise_sigma >= 0, f"{where}.noise_sigma", "must not be negative")
    min_dose = number("min_dose", 0.5)
    lo, hi = schema.column(schema.target).ctype.bounds
    _require(lo <= min_dose <= hi, f"{where}.min_dose",
             "must lie within the target column's declared bounds")
    return SynthProfile(
        member_id=member_id,
        n=n,
        numeric_ranges={col: _interval(lo_hi, path, numeric[col].bounds)
                        for col, lo_hi, path in entries("numeric_ranges", numeric)},
        categorical_mixes={col: _mix(mix, categorical[col].levels, path)
                           for col, mix, path in entries("categorical_mixes", categorical)},
        boolean_probs={col: _share(p, path)
                       for col, p, path in entries("boolean_probs", boolean)},
        coefficients=coefficients(raw.get("coefficients", []), f"{where}.coefficients"),
        level_column=level_column,
        level_coefficients={level: coefficients(eta, path)
                            for level, eta, path in entries("level_coefficients", levels)},
        noise_sigma=noise_sigma,
        min_dose=min_dose,
    )


def _seed_for(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def read_text(path: Path, where: str, newline: str | None = None) -> str:
    """The text of the UTF-8 file at *path*, read with *newline* as
    :func:`open` takes it.  A file that cannot be opened, read or
    decoded is a :class:`ConfigError` at *where*."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(where, f"cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(where, f"not UTF-8: byte 0x{exc.object[exc.start]:02x} "
                                 f"at offset {exc.start}") from None


def load_config(path: str | Path) -> ConsortiumConfig:
    """Load and validate a consortium config file.

    Raises :class:`ConfigError` carrying the offending field path for
    any key it does not know, for any value of the wrong JSON kind, and
    for any synthesis profile value the schema refuses.
    """
    path = Path(path)
    text = read_text(path, str(path))
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None

    _typed(raw, "object", str(path))
    if raw.get("version") != CONFIG_VERSION or isinstance(raw.get("version"), bool):
        raise ConfigError("version", f"expected config version {CONFIG_VERSION}")
    _entries(raw, "", _CONFIG_KEYS)
    base = path.parent

    schema = _read_schema(raw.get("schema"))

    members: list[MemberSpec] = []
    seen: set[str] = set()
    for i, m in enumerate(_typed_items(raw.get("members", []), "object", "members")):
        where = f"members[{i}]"
        _entries(m, where, _MEMBER_KEYS)
        mid = m.get("id")
        _require(mid, f"{where}.id", "member id is required")
        _typed(mid, "string", f"{where}.id")
        _require(mid not in seen, f"{where}.id", f"duplicate member id {mid!r}")
        seen.add(mid)
        _require("policy" in m, f"{where}.policy", "policy file is required")
        policy_path = base / _typed(m["policy"], "string", f"{where}.policy")
        _require(policy_path.exists(), f"{where}.policy", f"no such file: {policy_path}")
        dataset_path = None
        synth = None
        if "dataset" in m:
            dataset_path = base / _typed(m["dataset"], "string", f"{where}.dataset")
            _require(dataset_path.exists(), f"{where}.dataset",
                     f"no such file: {dataset_path}")
        elif "synth" in m:
            synth = _read_profile(m["synth"], mid, schema, f"{where}.synth")
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
    _require(len(members) >= 2, "members", "a consortium needs at least two members")

    ring_order = tuple(_typed_items(raw.get("ring_order", [m.member_id for m in members]),
                                    "string", "ring_order"))
    _require(sorted(ring_order) == sorted(m.member_id for m in members), "ring_order",
             "must be a permutation of the member ids")
    initiator = _typed(raw.get("initiator", ring_order[0]), "string", "initiator")
    _require(initiator in ring_order, "initiator", f"{initiator!r} is not a member")

    he = HEParams(**{k: _typed(v, "integer", path)
                     for k, v, path in _entries(raw.get("he", {}), "he", _HE_KEYS)})
    try:
        he.validate()
    except CurieError as exc:
        raise ConfigError("he", str(exc)) from None

    dp_raw = raw.get("dp", {})
    _entries(dp_raw, "dp", _DP_KEYS)
    epsilons = _typed_items(dp_raw.get("epsilons", [*DPSettings.epsilons]), "number",
                            "dp.epsilons")
    dp = DPSettings(tuple(epsilons), _typed(
        dp_raw.get("repetitions", DPSettings.repetitions), "integer", "dp.repetitions"))

    seed = _typed(raw.get("seed", 0), "integer", "seed")
    if SEED_ENV_VAR in os.environ:
        try:
            seed = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise ConfigError(SEED_ENV_VAR, "must be an integer") from None
    holdout = float(_typed(raw.get("holdout_fraction", 0.25), "number", "holdout_fraction"))
    _require(0.0 <= holdout < 1.0, "holdout_fraction", "must lie in [0, 1)")

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
    held_out: list[tuple[str, int]]        # (member, rows) of validation's parts, in order


def _load_policy(path: Path, where: str) -> cpl.PolicyAst:
    """The policy in the file at *path*, parsed and validated; an error
    diagnostic is a :class:`ConfigError` at *where*."""
    policy = cpl.parse_policy(read_text(path, where))
    errors = [d for d in cpl.validate(policy) if d.severity is cpl.Severity.ERROR]
    if errors:
        raise ConfigError(where, "; ".join(d.format(str(path)) for d in errors))
    return policy


def build_scenario(cfg: ConsortiumConfig) -> Scenario:
    """Materialize datasets and validated policies for a config.  Each
    distinct policy file is read, parsed and validated once, and the
    members that name it share its (immutable) policy; an invalid file
    is refused at the first member that names it."""
    synth_profiles = [m.synth for m in cfg.members if m.synth is not None]
    synth_data: dict[str, Dataset] = {}
    if synth_profiles:
        generated = synth_members(_seed_for(cfg.seed, "synth"), cfg.schema,
                                  synth_profiles)
        synth_data = {ds.provenance: ds for ds in generated}

    policies: dict[Path, cpl.PolicyAst] = {}
    contexts: list[MemberContext] = []
    held_out: list[Dataset] = []
    for spec in cfg.members:
        where = f"members.{spec.member_id}"
        policy = policies.get(spec.policy_path)
        if policy is None:
            policy = policies[spec.policy_path] = _load_policy(
                spec.policy_path, f"{where}.policy")

        if spec.dataset_path is not None:
            csv_text = read_text(spec.dataset_path, f"{where}.dataset", newline="")
            ds = load_dataset(io.StringIO(csv_text, newline=""), cfg.schema,
                              provenance=spec.member_id)
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
                    DesignEncoding(normalized_schema(cfg.schema)),
                    [(ds.provenance, ds.n) for ds in held_out])


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


def _local_clinical(scenario: Scenario, validation: EncodedRows | None,
                    stats: LocalStats | None) -> ClinicalReport | None:
    """The scores on *validation* of the model a member fits from
    *stats*, its statistics over its own rows; None without rows,
    without a unique fit or without a validation cohort."""
    if stats is None or validation is None:
        return None
    try:
        eta = solve_ols_pruned(stats.O, stats.V)
    except SingularMatrix:
        return None
    return clinical_metrics(DoseModel(eta, scenario.encoding, scenario.config.schema.bounds),
                            validation)


def _release(rows: EncodedRows | None, agreement: Agreement | None
             ) -> LocalStats | None:
    """The statistics *agreement* releases of an owner's encoded *rows*:
    None without an agreement, for an empty one, for an owner without
    rows, and when its selections keep no row."""
    if agreement is None or agreement.status == EMPTY or rows is None:
        return None
    keep = selection_mask(rows.dataset, agreement.selections)
    return local_stats(rows, keep) if keep.any() else None


def _member_stats(scenario: Scenario, agreements: Sequence[Agreement],
                  own: LocalStats, rows: Mapping[str, EncodedRows | None]
                  ) -> dict[str, LocalStats | None]:
    """Each ring member's statistics for the initiator's session: *own*,
    the initiator's over its own rows, and what each owner's agreement
    releases to it from the owner's encoded *rows*."""
    initiator = scenario.config.initiator
    by_owner = {a.owner: a for a in agreements if a.requester == initiator}
    return {mid: own if mid == initiator else _release(rows[mid], by_owner.get(mid))
            for mid in scenario.config.ring_order}


def _encode_validation(scenario: Scenario, bounds: NormalizationMap
                       ) -> EncodedRows | None:
    """The held-out cohort, encoded once.  A row outside its declared
    bounds is refused naming its member, as a training row is: only a
    refused cohort is encoded again, member by member, to find it."""
    if scenario.validation is None:
        return None
    try:
        return encode_cohort(scenario.validation, bounds)
    except OverflowAbort:
        start = 0
        for member, rows in scenario.held_out:
            part = scenario.validation.take(np.arange(start, start + rows))
            to_design_matrix(Dataset(part.schema, part.columns, member), bounds)
            start += rows
        raise


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
    nothing, as there is then no pooled model to sweep, and when no row
    is held out, as there is then no cohort to score it on.
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
        if mode == MODE_FULL_DP and scenario.validation is None:
            raise ConfigError("holdout_fraction", "no row is held out, so there is "
                                                  "no cohort to score the sweep on")

        # each member's rows and the validation cohort are encoded once;
        # a member's statistics over its own rows fit its local model,
        # and the initiator's are its ring contribution
        with phase("local_models"):
            validation = _encode_validation(scenario, bounds)
            rows: dict[str, EncodedRows | None] = {}
            for ctx in scenario.contexts:
                try:
                    encoded = member_rows(ctx.dataset, bounds)
                except EmptyRelease:    # no training rows
                    if pools and ctx.member_id == cfg.initiator:
                        raise
                    encoded = None
                rows[ctx.member_id] = encoded
                own = None if encoded is None else local_stats(encoded)
                if ctx.member_id == cfg.initiator:
                    initiator_stats = own
                report.local_rows[ctx.member_id] = ctx.dataset.n
                report.local_clinical[ctx.member_id] = _local_clinical(scenario, validation, own)
        if not pools:
            return report

        with phase("stats"):
            stats = _member_stats(scenario, agreements, initiator_stats, rows)
        result = run_ring_session(
            list(cfg.ring_order), cfg.initiator, stats, scenario.encoding,
            _session_params(cfg.he, [ctx.profile.data_size for ctx in scenario.contexts]),
            random.Random(_seed_for(cfg.seed, "ring")))
        report.message_counts["ring"] = len(result.transcript.log)
        report.pooled_rows = result.n_pool

        with phase("pooled_model"):
            eta = solve_ols_pruned(result.O_pool, result.V_pool)
            report.pooled_model = DoseModel(eta, scenario.encoding, bounds)
            if validation is not None:
                report.pooled_clinical = clinical_metrics(report.pooled_model, validation)

        if mode == MODE_FULL_DP:
            local = report.local_clinical[cfg.initiator]
            with phase("dp_sweep"):
                report.dp_table = dp_sweep_from_stats(
                    result.O_pool, result.V_pool, scenario, validation,
                    local.mae if local is not None else None)
        return report


# --------------------------------------------------------------------------
# differential-privacy sweep

def dp_sweep_from_stats(O_pool: np.ndarray, V_pool: np.ndarray, scenario: Scenario,
                        validation: EncodedRows, local_mae: float | None) -> list[dict]:
    """Per-budget accuracy table for the private pooled model, over the
    budgets and repetitions of the scenario's ``dp`` settings.

    For each epsilon, ``repetitions`` private models are fitted in one
    batched call, their noise drawn by one generator seeded from the
    config seed and the budget, and scored together on *validation*, the
    mixed held-out cohort;
    the table carries the mean MAE, plus the advantage over *local_mae*,
    the initiator's own non-private local model's (the alternative a
    member always has).  With more than one repetition, each mean
    carries a ``CI_LEVEL`` percentile bootstrap CI from ``CI_DRAWS``
    resamples.  One resample matrix serves every budget, so a budget's
    row does not depend on the other budgets.  The advantage is a
    constant minus the MAEs, so its CI is the MAE CI reflected.
    """
    cfg = scenario.config
    repetitions = cfg.dp.repetitions

    target_bounds = cfg.schema.bounds[cfg.schema.target]
    doses = validation.dataset.column(cfg.schema.target)
    V = V_pool.reshape(-1)
    resamples = None
    if repetitions > 1:
        resamples = np.random.default_rng(_seed_for(cfg.seed, "dpci")).integers(
            0, repetitions, size=(CI_DRAWS, repetitions))
    alpha = (1.0 - CI_LEVEL) / 2.0
    table: list[dict] = []
    for eps in cfg.dp.epsilons:
        etas = functional_mechanism(
            O_pool, V, eps, np.random.default_rng(_seed_for(cfg.seed, f"dp:{eps}")),
            repetitions)
        maes = mean_absolute_errors(validation.X, etas, doses, target_bounds)
        mae_ci = None
        if resamples is not None:
            lo, hi = np.quantile(maes[resamples].mean(axis=1), [alpha, 1.0 - alpha])
            mae_ci = [float(lo), float(hi)]
        row = {
            "epsilon": eps,
            "repetitions": repetitions,
            "mean_mae": float(maes.mean()),
            "mae_ci": mae_ci,
        }
        if local_mae is not None:
            row["local_mae"] = local_mae
            row["advantage_mean"] = float((local_mae - maes).mean())
            row["advantage_ci"] = (None if mae_ci is None else
                                   [local_mae - mae_ci[1], local_mae - mae_ci[0]])
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
            stats = {ds.provenance: local_stats(member_rows(ds, bounds))
                     for ds in datasets}
        run_ring_session(
            [ds.provenance for ds in datasets], datasets[0].provenance,
            stats, DesignEncoding(schema), params, random.Random(seed),
            keygen_rng=random.Random(keygen_seed))
    out["encrypted_total"] = out["encrypt"] + out["evaluate"] + out["decrypt"]
    return out


# each bench axis: the keyword it sets and the least value a session
# runs with (a ring needs two members, a member at least one row)
BENCH_AXES = {"members": ("n_members", 2), "rows": ("rows", 1),
              "features": ("n_features", 0)}


def check_bench_values(axis: str, values: Sequence[int]) -> None:
    """Raise :class:`ValueError` unless *axis* is a bench axis and every
    one of *values* is a size its sessions can run."""
    if axis not in BENCH_AXES:
        raise ValueError(f"unknown bench axis {axis!r}")
    least = BENCH_AXES[axis][1]
    if values and min(values) < least:
        raise ValueError(f"the {axis} axis takes values of at least {least}, "
                         f"not {min(values)}")


def bench(axis: str, values: Sequence[int], runs: int = 3, seed: int = 0,
          key_bits: int = 192, n_members: int = 5, n_features: int = 10,
          rows: int = 1000) -> list[dict]:
    """Timing table along one axis (members | rows | features).

    Key generation is reported separately from the encrypted phases so
    both the with-keygen and without-keygen views are available.
    Medians over *runs* repetitions.
    """
    check_bench_values(axis, values)
    if runs < 1:
        raise ValueError(f"a bench needs at least one run, not {runs}")
    # run-major interleaving: one sweep measures every axis value before
    # the next repetition, so clock/frequency drift hits all values
    # evenly instead of biasing whichever value ran last
    samples: dict[int, list[dict[str, float]]] = {v: [] for v in values}
    for run in range(runs):
        for value in values:
            sizes = {"n_members": n_members, "n_features": n_features,
                     "rows": rows, BENCH_AXES[axis][0]: value}
            samples[value].append(_bench_session(
                **sizes, seed=_seed_for(seed, f"bench:{axis}:{value}:{run}"),
                key_bits=key_bits,
                keygen_seed=_seed_for(seed, f"bench:keygen:{run}")))
    table = []
    for value in values:
        medians = {k: float(np.median([s[k] for s in samples[value]]))
                   for k in samples[value][0]}
        table.append({"axis": axis, "value": value, "runs": runs, **medians})
    return table
