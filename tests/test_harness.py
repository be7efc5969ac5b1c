import dataclasses
import json
import shutil
import time

import numpy as np
import pytest

from curie.cli import main as cli_main
from curie.crypto import HEParams
from curie.data import Dataset, RowFilter, apply_selections, synth_members
from curie.engine import EMPTY, Agreement
from curie.harness import (
    MODE_FULL,
    MODE_FULL_DP,
    MODE_NEGOTIATE,
    ConfigError,
    DPSettings,
    _release,
    bench,
    build_scenario,
    load_config,
    run_scenario,
)
from curie.ring import EmptyRelease, OverflowAbort, local_stats, member_rows

from conftest import CONSORTIA_DIR, config_path, count_crypto_calls


# ---------------------------------------------------------------------------
# config loading

def _write_config(tmp_path, name, edit):
    """A copy of consortium *name* whose config is ``edit(raw)`` for its
    config JSON *raw*; returns the copy's config path."""
    raw = json.loads(config_path(name).read_text())
    shutil.copytree(config_path(name).parent, tmp_path / "c", dirs_exist_ok=True)
    target = tmp_path / "c" / "config.json"
    target.write_text(json.dumps(edit(raw)))
    return target


def _setting(*path_and_value):
    """An edit that sets the config field at the given keys and indices
    to the last argument."""
    *path, value = path_and_value

    def edit(raw):
        section = raw
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        return raw

    return edit


def test_example3_config_loads_with_policies():
    cfg = load_config(config_path("example3"))
    assert [m.member_id for m in cfg.members] == ["M1", "M2", "M3"]
    assert cfg.initiator == "M1"
    assert cfg.dp.epsilons == (0.25, 1.0, 5.0, 20.0, 50.0, 100.0)
    # the worked-example policies carry 13 top-level clauses, 2 fine-select
    # sub-clauses, and 1 attribute across the three files
    from curie import cpl
    clauses = subs = attrs = 0
    for m in cfg.members:
        policy = cpl.parse_policy(m.policy_path.read_text())
        clauses += len(policy.clauses)
        subs += len(policy.sub_clauses)
        attrs += len(policy.attributes)
    assert (clauses, subs, attrs) == (13, 2, 1)


def test_duplicate_member_id_rejected(tmp_path):
    raw = json.loads(config_path("example3").read_text())
    raw["members"][1]["id"] = "M1"
    for m in raw["members"]:
        m["policy"] = "p.cpl"
    (tmp_path / "p.cpl").write_text("share : : :: ;\n")
    target = tmp_path / "config.json"
    target.write_text(json.dumps(raw))
    with pytest.raises(ConfigError) as err:
        load_config(target)
    assert "members[1].id" in str(err.value)


@pytest.mark.parametrize("section, where", [
    pytest.param(section, where, id=where) for section, where in [
        ((), "holdout_fraktion"),
        (("he",), "he.key_bit"),
        # the ring's session bounds are derived, not configured
        (("he",), "he.n_max"),
        (("he",), "he.m_max"),
        (("he",), "he.v_max"),
        (("dp",), "dp.epsilon"),
        # --dp (mode full_dp) is the one switch for the privacy sweep
        (("dp",), "dp.enabled"),
        (("members", 1), "members[1].alliance"),
        (("members", 2, "synth"), "members[2].synth.noise_sigam"),
    ]])
def test_unknown_config_key_rejected(tmp_path, section, where):
    raw = json.loads(config_path("example3").read_text())
    target_section = raw
    for key in section:
        target_section = target_section[key]
    target_section[where.rsplit(".", 1)[-1]] = 0.5
    shutil.copytree(config_path("example3").parent, tmp_path / "c",
                    dirs_exist_ok=True)
    target = tmp_path / "c" / "config.json"
    target.write_text(json.dumps(raw))
    with pytest.raises(ConfigError) as err:
        load_config(target)
    assert err.value.field_path == where


def test_every_shipped_config_loads():
    paths = sorted(CONSORTIA_DIR.glob("*/config.json"))
    assert len(paths) == 8
    for path in paths:
        load_config(path)


def test_ring_order_must_be_permutation(tmp_path):
    raw = json.loads(config_path("example3").read_text())
    raw["ring_order"] = ["M1", "M2"]
    shutil.copytree(config_path("example3").parent, tmp_path / "c",
                    dirs_exist_ok=True)
    target = tmp_path / "c" / "config.json"
    target.write_text(json.dumps(raw))
    with pytest.raises(ConfigError) as err:
        load_config(target)
    assert "ring_order" in str(err.value)


def test_missing_policy_file_rejected(tmp_path):
    raw = json.loads(config_path("example3").read_text())
    raw["members"][0]["policy"] = "ghost.cpl"
    shutil.copytree(config_path("example3").parent, tmp_path / "c",
                    dirs_exist_ok=True)
    target = tmp_path / "c" / "config.json"
    target.write_text(json.dumps(raw))
    with pytest.raises(ConfigError):
        load_config(target)


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("CURIE_SEED", "424242")
    cfg = load_config(config_path("example3"))
    assert cfg.seed == 424242


@pytest.mark.parametrize("edit, env, where", [
    pytest.param(edit, env, where, id=case) for case, edit, env, where in [
        ("top-level array", lambda raw: [raw], None, None),
        ("he not an object", _setting("he", 5), None, "he"),
        ("schema an array", _setting("schema", [1]), None, "schema"),
        ("synth not an object", _setting("members", 0, "synth", 5), None,
         "members[0].synth"),
        ("attributes an array", _setting("members", 0, "attributes", [1, 2]), None,
         "members[0].attributes"),
        ("key_bits a string", _setting("he", "key_bits", "abc"), None, "he.key_bits"),
        ("epsilon a string", _setting("dp", "epsilons", ["x"]), None,
         "dp.epsilons[0]"),
        ("repetitions a string", _setting("dp", "repetitions", "many"), None,
         "dp.repetitions"),
        ("holdout a string", _setting("holdout_fraction", "x"), None,
         "holdout_fraction"),
        ("seed env not an integer", lambda raw: raw, "abc", "CURIE_SEED"),
        ("alliances a string", _setting("members", 0, "alliances", "EU"), None,
         "members[0].alliances"),
        ("repetitions a fraction", _setting("dp", "repetitions", 2.7), None,
         "dp.repetitions"),
        ("seed a fraction", _setting("seed", 1.5), None, "seed"),
        ("epsilon a boolean", _setting("dp", "epsilons", [True]), None,
         "dp.epsilons[0]"),
        ("member a string", _setting("members", 0, "D1"), None, "members[0]"),
        ("members an object", lambda raw: {**raw, "members": {"D1": raw["members"][0]}},
         None, "members"),
        # every schema column is checked when the config loads, not when
        # the run crashes on it, misreads it or overflows the ring
        ("bounds of one number", _setting("schema", "columns", 0, "bounds", [5]), None,
         "schema.columns[0].bounds"),
        ("bounds of strings", _setting("schema", "columns", 0, "bounds", ["a", "b"]), None,
         "schema.columns[0].bounds[0]"),
        ("column name a number", _setting("schema", "columns", 0, "name", 5), None,
         "schema.columns[0].name"),
        ("bounds of three numbers", _setting("schema", "columns", 3, "bounds", [0, 50, 90]),
         None, "schema.columns[3].bounds"),
        ("bounds decreasing", _setting("schema", "columns", 3, "bounds", [90, 0]), None,
         "schema.columns[3].bounds"),
        ("bounds unbounded", _setting("schema", "columns", 0, "bounds", [-float("inf"), 80]),
         None, "schema.columns[0].bounds"),
        ("levels a string", _setting("schema", "columns", 2, "levels", "Asi"), None,
         "schema.columns[2].levels"),
        # a repeated level would give one level two design columns
        ("a repeated level",
         _setting("schema", "columns", 2, "levels", ["Asian", "Black", "Black"]), None,
         "schema.columns[2]"),
        ("unknown schema key", _setting("schema", "bonds", [0, 1]), None, "schema.bonds"),
        ("unknown column key", _setting("schema", "columns", 0, "bonds", [0, 1]), None,
         "schema.columns[0].bonds"),
        # bounds only a numeric column normalizes by, never silently ignored
        ("bounds on a categorical column",
         _setting("schema", "columns", 2, "bounds", [0, 1]), None, "schema.columns[2]"),
        ("bounds on a boolean column",
         _setting("schema", "columns", 2, {"name": "race", "type": "boolean", "bounds": [0, 1]}),
         None, "schema.columns[2]"),
    ]])
def test_mistyped_config_values_are_refused(tmp_path, monkeypatch, edit, env, where):
    # each is refused with its path, neither crashing nor read as
    # something else ("EU" as {"E", "U"}, 2.7 repetitions as 2, true as 1.0)
    if env is None:
        monkeypatch.delenv("CURIE_SEED", raising=False)
    else:
        monkeypatch.setenv("CURIE_SEED", env)
    target = _write_config(tmp_path, "default_dp", edit)
    with pytest.raises(ConfigError) as err:
        load_config(target)
    assert err.value.field_path == (str(target) if where is None else where)


def _synth(*path_and_value):
    """An edit that sets a field of the first member's synthesis profile."""
    return _setting("members", 0, "synth", *path_and_value)


@pytest.mark.parametrize("name, edit, where", [
    pytest.param(name, edit, where, id=case) for case, name, edit, where in [
        ("noise sigma a string", "default_dp", _synth("noise_sigma", "0.5"), "noise_sigma"),
        ("noise sigma a boolean", "default_dp", _synth("noise_sigma", True), "noise_sigma"),
        ("min dose a string", "default_dp", _synth("min_dose", "1"), "min_dose"),
        ("coefficients strings", "default_dp",
         _synth("coefficients", ["30.0", "0.1", "0.1", "8.0", "4.0"]), "coefficients[0]"),
        ("coefficient a boolean", "default_dp",
         _synth("coefficients", [30.0, True, 0.1, 8.0, 4.0]), "coefficients[1]"),
        ("range of strings", "default_dp", _synth("numeric_ranges", "age", ["20", "80"]),
         "numeric_ranges.age[0]"),
        ("range of three numbers", "default_dp",
         _synth("numeric_ranges", "age", [20, 50, 80]), "numeric_ranges.age"),
        ("ranges an array", "default_dp", _synth("numeric_ranges", [1, 2]), "numeric_ranges"),
        ("mix weight a string", "default_dp",
         _synth("categorical_mixes", "race", "Asian", "0.8"), "categorical_mixes.race.Asian"),
        ("probability a string", "p1_single", _synth("boolean_probs", "inducer", "0.5"),
         "boolean_probs.inducer"),
        ("level column a number", "default_dp", _synth("level_column", 5), "level_column"),
        ("level coefficient a string", "default_dp",
         _synth("level_coefficients", "Asian", 0, "22"), "level_coefficients.Asian[0]"),
        # checked against the schema, at load rather than when the
        # scenario is built, or not at all
        ("level column unknown", "default_dp", _synth("level_column", "nope"),
         "level_column"),
        ("range decreasing", "default_dp", _synth("numeric_ranges", "age", [80, 20]),
         "numeric_ranges.age"),
        ("mix level unknown", "default_dp",
         _synth("categorical_mixes", "race", {"Asian": 0.5, "Martian": 0.5}),
         "categorical_mixes.race.Martian"),
        ("mix weight negative", "default_dp",
         _synth("categorical_mixes", "race", {"Asian": -0.5, "Black": 1.5}),
         "categorical_mixes.race.Asian"),
        ("range of an unknown column", "default_dp", _synth("numeric_ranges", "nope", [1, 2]),
         "numeric_ranges.nope"),
        ("probability of an unknown column", "default_dp",
         _synth("boolean_probs", {"nope": 0.5}), "boolean_probs.nope"),
        ("probability of a numeric column", "default_dp",
         _synth("boolean_probs", {"age": 0.5}), "boolean_probs.age"),
        ("override of an unknown level", "default_dp",
         _synth("level_coefficients", "Martian", [30.0, 0.1, 0.1, 8.0, 4.0]),
         "level_coefficients.Martian"),
        ("probability above 1", "p1_single", _synth("boolean_probs", "inducer", 1.5),
         "boolean_probs.inducer"),
        ("range outside the bounds", "p1_single", _synth("numeric_ranges", "age", [0, 500]),
         "numeric_ranges.age"),
        ("mix not summing to 1", "default_dp",
         _synth("categorical_mixes", "race", {"Asian": 0.5, "White": 0.1}),
         "categorical_mixes.race"),
        ("no rows", "default_dp", _synth("n", 0), "n"),
        ("noise sigma negative", "default_dp", _synth("noise_sigma", -1), "noise_sigma"),
        ("coefficients short", "default_dp", _synth("coefficients", [30.0, 0.1]),
         "coefficients"),
        # numbers json reads though JSON has none, refused before they
        # reach a dose, and a floor no dose of the target may take
        ("coefficient NaN", "default_dp",
         _synth("coefficients", [30.0, float("nan"), 0.1, 8.0, 4.0]), "coefficients[1]"),
        ("level coefficient NaN", "default_dp",
         _synth("level_coefficients", "Asian", 0, float("nan")),
         "level_coefficients.Asian[0]"),
        ("noise sigma infinite", "default_dp", _synth("noise_sigma", float("inf")),
         "noise_sigma"),
        ("min dose NaN", "default_dp", _synth("min_dose", float("nan")), "min_dose"),
        ("min dose above the target's bounds", "default_dp", _synth("min_dose", 500),
         "min_dose"),
        ("min dose below the target's bounds", "default_dp", _synth("min_dose", -1),
         "min_dose"),
    ]])
def test_mistyped_synth_profile_values_are_refused(tmp_path, name, edit, where):
    # each was read as something else ("0.5" as 0.5, true as 1.0),
    # silently ignored, or crashed or stopped loading or building the
    # scenario with a bare TypeError, KeyError or ValueError
    target = _write_config(tmp_path, name, edit)
    with pytest.raises(ConfigError) as err:
        load_config(target)
    assert err.value.field_path == f"members[0].synth.{where}"


# ---------------------------------------------------------------------------
# scenarios

def test_negotiate_only_report_is_byte_identical():
    cfg = load_config(config_path("example3"))
    # serialized as the CLI writes a negotiate report
    a, b = (json.dumps(run_scenario(cfg, MODE_NEGOTIATE).to_json(include_timings=False),
                       indent=2, sort_keys=True) for _ in range(2))
    assert a == b
    payload = json.loads(a)
    assert payload["message_counts"]["negotiation"] == 12


def test_full_scenario_message_counts_match_transcripts():
    cfg = load_config(config_path("example3"))
    report = run_scenario(cfg, MODE_FULL)
    n = len(cfg.members)
    assert report.message_counts["negotiation"] == 2 * n * (n - 1)
    assert report.message_counts["ring"] == 2 * n - 1
    assert report.pooled_clinical is not None
    assert report.pooled_rows > 0


def test_deployment_key_session_packs_each_member_into_one_ciphertext(monkeypatch):
    # default_dp at the 2048-bit deployment key: 21 statistics fit the
    # 63 slots of one plaintext, so the four-member ring makes one
    # encryption per member and the initiator one decryption
    calls = {"encrypt": 0, "decrypt": 0}
    count_crypto_calls(monkeypatch, calls)
    cfg = load_config(config_path("default_dp"))
    cfg = dataclasses.replace(cfg, he=dataclasses.replace(cfg.he, key_bits=2048))
    report = run_scenario(cfg, MODE_FULL)
    assert len(cfg.ring_order) == 4
    assert report.message_counts["ring"] == 2 * 4 - 1
    assert calls == {"encrypt": 4, "decrypt": 1}


def test_session_bounds_come_from_the_consortium(monkeypatch):
    # p5_global's 3735 training rows of normalized entries make 34-bit
    # slots, 7 per 256-bit plaintext, and its row counts 14-bit ones: the
    # 112 of its 136 statistics that the design encoding leaves open, 54
    # of them row counts, take 12 plaintexts per member
    from curie import harness

    sessions = []
    ring = harness.run_ring_session

    def recorded(ring_order, initiator, stats, encoding, params, rng):
        sessions.append(params)
        return ring(ring_order, initiator, stats, encoding, params, rng)

    monkeypatch.setattr(harness, "run_ring_session", recorded)
    calls = {"encrypt": 0, "decrypt": 0}
    count_crypto_calls(monkeypatch, calls)
    cfg = load_config(config_path("p5_global"))
    report = run_scenario(cfg, MODE_FULL)
    rows = sum(report.local_rows.values())
    assert rows == 3735
    assert sessions == [HEParams(key_bits=256, scale_bits=20, n_max=rows,
                                 v_max=1.0)]
    assert sessions[0].slot_bits == 34
    members = len(cfg.ring_order)
    assert calls == {"encrypt": members * 12, "decrypt": 12}


def _edit_training_rows(monkeypatch, member_id, edit):
    """Make the next scenario build give *member_id* the training
    columns ``edit(cfg, columns)`` in place of its own."""
    from curie import harness

    build = harness.build_scenario

    def edited(cfg):
        scenario = build(cfg)
        i = next(i for i, ctx in enumerate(scenario.contexts)
                 if ctx.member_id == member_id)
        ds = scenario.contexts[i].dataset
        scenario.contexts[i] = dataclasses.replace(
            scenario.contexts[i], dataset=Dataset(
                ds.schema, edit(cfg, ds.columns), ds.provenance))
        return scenario

    monkeypatch.setattr(harness, "build_scenario", edited)


def _overdose(monkeypatch, member_id):
    """Make the next scenario build give *member_id*'s first training
    row ten times the declared upper dose bound."""
    def overdosed(cfg, columns):
        doses = columns[cfg.schema.target].copy()
        doses[0] = 10 * cfg.schema.bounds[cfg.schema.target][1]
        return {**columns, cfg.schema.target: doses}

    _edit_training_rows(monkeypatch, member_id, overdosed)


def test_a_value_outside_its_declared_bounds_aborts_the_session(monkeypatch):
    _overdose(monkeypatch, "D3")
    calls = {"encrypt": 0, "decrypt": 0}
    count_crypto_calls(monkeypatch, calls)
    cfg = load_config(config_path("default_dp"))
    assert cfg.initiator != "D3"
    with pytest.raises(OverflowAbort, match="D3"):
        run_scenario(cfg, MODE_FULL)
    assert calls == {"encrypt": 0, "decrypt": 0}


def test_a_local_fit_does_not_hide_a_value_outside_its_bounds(monkeypatch):
    # p1_single pools nothing, so only the local models read M_US2's rows
    _overdose(monkeypatch, "M_US2")
    with pytest.raises(OverflowAbort, match="M_US2"):
        run_scenario(load_config(config_path("p1_single")), MODE_FULL)


def test_an_initiator_without_training_rows_stops_a_pooling_run(monkeypatch):
    cfg = load_config(config_path("default_dp"))
    _edit_training_rows(monkeypatch, cfg.initiator,
                        lambda cfg, columns: {k: v[:0] for k, v in columns.items()})
    with pytest.raises(EmptyRelease):
        run_scenario(cfg, MODE_FULL)


def _csv_member_out_of_bounds(tmp_path):
    """A copy of default_dp whose member D2 loads its rows from a CSV in
    which one age lies past the declared bounds; returns its config path."""
    cfg = load_config(config_path("default_dp"))
    spec = next(m for m in cfg.members if m.member_id == "D2")
    (ds,) = synth_members(0, cfg.schema, [spec.synth])
    cells = {c.name: [str(int(v)) if c.ctype.kind == "integer" else str(v)
                      for v in ds.column(c.name)] for c in cfg.schema.columns}
    cells["age"][0] = str(int(cfg.schema.bounds["age"][1]) + 15)

    def edit(raw):
        member = next(m for m in raw["members"] if m["id"] == "D2")
        del member["synth"]
        member["dataset"] = "d2.csv"
        return raw

    path = _write_config(tmp_path, "default_dp", edit)
    (path.parent / "d2.csv").write_text("\n".join(
        ",".join(row) for row in [list(cells), *zip(*cells.values())]) + "\n")
    return path


@pytest.mark.parametrize("seed", range(1, 7))
def test_a_row_outside_its_bounds_is_refused_wherever_the_split_puts_it(
        tmp_path, monkeypatch, seed):
    # the seed decides whether the row trains D2's model or is held out
    # for scoring; either way it is refused, naming D2, before anything
    # is scored
    path = _csv_member_out_of_bounds(tmp_path)
    monkeypatch.setenv("CURIE_SEED", str(seed))
    with pytest.raises(OverflowAbort,
                       match=r"^D2: column 'age' leaves its declared bounds \(20.0, 80.0\)$"):
        run_scenario(load_config(path), MODE_FULL)


def test_a_sweep_without_held_out_rows_is_refused_before_the_ring(
        tmp_path, monkeypatch):
    cfg = load_config(_write_config(tmp_path, "default_dp",
                                    _setting("holdout_fraction", 0)))
    calls = {"encrypt": 0, "decrypt": 0}
    count_crypto_calls(monkeypatch, calls)
    with pytest.raises(ConfigError) as err:
        run_scenario(cfg, MODE_FULL_DP)
    assert err.value.field_path == "holdout_fraction"
    assert calls == {"encrypt": 0, "decrypt": 0}
    # without the sweep, the run pools and leaves the model unscored
    assert run_scenario(cfg, MODE_FULL).pooled_clinical is None


# ---------------------------------------------------------------------------
# releases

def _worked_example_rows():
    from worked_example import build_contexts

    m1, _, _ = build_contexts()
    return m1.dataset, member_rows(m1.dataset, None)


def test_nothing_is_released_without_an_agreement_or_rows():
    _, rows = _worked_example_rows()
    assert _release(rows, None) is None
    assert _release(None, Agreement("M1", "M3", "full")) is None


def test_an_empty_agreement_or_no_kept_row_releases_nothing():
    _, rows = _worked_example_rows()
    assert _release(rows, Agreement("M1", "M3", EMPTY)) is None
    agreement = Agreement("M1", "M3", "partial",
                          selections=(RowFilter("age", ">", 999),))
    assert _release(rows, agreement) is None


def test_a_release_holds_the_rows_its_selections_keep():
    ds, rows = _worked_example_rows()
    agreement = Agreement("M1", "M3", "partial",
                          selections=(RowFilter("race", "=", "Asian"),))
    assert _release(rows, agreement).n == np.sum(ds.column("race") == "Asian") > 0


@pytest.mark.parametrize("name", ["example3", "race_select"])
def test_each_release_is_the_statistics_of_the_selected_rows(monkeypatch, name):
    # both consortia release partially; between them their selections
    # use =, in and >
    from curie import harness

    sessions = []
    ring = harness.run_ring_session

    def recorded(order, initiator, stats, encoding, params, rng):
        sessions.append(stats)
        return ring(order, initiator, stats, encoding, params, rng)

    monkeypatch.setattr(harness, "run_ring_session", recorded)
    cfg = load_config(config_path(name))
    report = run_scenario(cfg, MODE_FULL)
    train = {ctx.member_id: ctx.dataset for ctx in build_scenario(cfg).contexts}
    released = {a.owner: a for a in report.agreements
                if a.requester == cfg.initiator and a.status != EMPTY}
    assert any(a.selections for a in released.values())
    (stats,) = sessions
    assert {mid for mid, s in stats.items() if s is not None} == \
        {cfg.initiator, *released}
    for owner, a in released.items():
        expected = local_stats(member_rows(apply_selections(train[owner], a.selections),
                                           cfg.schema.bounds))
        assert stats[owner].n == expected.n
        assert np.array_equal(stats[owner].O, expected.O)
        assert np.array_equal(stats[owner].V, expected.V)


@pytest.mark.parametrize("name, mode", [("example3", MODE_FULL_DP),
                                        ("p5_global", MODE_FULL)])
def test_a_run_computes_each_members_statistics_once(monkeypatch, name, mode):
    # one set over each member's own rows, which fits its local model
    # and is the initiator's ring contribution, and one per owner's
    # release to the initiator
    from curie import harness

    computed, contributed = [], []
    stats, ring = harness.local_stats, harness.run_ring_session

    def counted(rows, keep=None):
        out = stats(rows, keep)
        computed.append((rows.dataset.provenance, out))
        return out

    def recorded(order, initiator, member_stats, encoding, params, rng):
        contributed.append(member_stats[initiator])
        return ring(order, initiator, member_stats, encoding, params, rng)

    monkeypatch.setattr(harness, "local_stats", counted)
    monkeypatch.setattr(harness, "run_ring_session", recorded)
    cfg = load_config(config_path(name))
    run_scenario(cfg, mode)
    members = [m.member_id for m in cfg.members]
    assert [mid for mid, _ in computed] == [
        *members, *(mid for mid in cfg.ring_order if mid != cfg.initiator)]
    assert contributed == [computed[members.index(cfg.initiator)][1]]


def test_a_run_encodes_each_member_and_the_cohort_once(monkeypatch):
    # after the build, which encodes while synthesizing, one design
    # matrix per member's training rows and one for the validation cohort
    from curie import harness
    from curie.data import DesignEncoding

    built, encoded = [], []
    build, encode = harness.build_scenario, DesignEncoding.encode

    def counted(self, ds):
        if built:
            encoded.append(ds.provenance)
        return encode(self, ds)

    def built_scenario(cfg):
        scenario = build(cfg)
        built.append(scenario)
        return scenario

    monkeypatch.setattr(harness, "build_scenario", built_scenario)
    monkeypatch.setattr(DesignEncoding, "encode", counted)
    cfg = load_config(config_path("example3"))
    run_scenario(cfg, MODE_FULL_DP)
    assert sorted(encoded, key=str) == sorted(
        [m.member_id for m in cfg.members] + [None], key=str)


def test_a_negotiation_builds_each_member_profile_once(monkeypatch):
    from curie import engine
    from curie.cpl import ClauseKind

    # a profile build is the one walk of a whole share policy
    builds = []
    walk = engine.evaluated_columns

    def counted(policy, kind, counterparty=None):
        if kind is ClauseKind.SHARE and counterparty is None:
            builds.append(policy)
        return walk(policy, kind, counterparty)

    monkeypatch.setattr(engine, "evaluated_columns", counted)
    cfg = load_config(config_path("p5_global"))
    run_scenario(cfg, MODE_NEGOTIATE)
    assert len(builds) == len(cfg.members) == 10


@pytest.mark.parametrize("name, parses", [
    ("p5_global", 1), ("example3", 3), ("default_dp", 1)])
def test_a_build_parses_each_policy_file_once(monkeypatch, name, parses):
    # members that name one file share its one parsed policy; a second
    # build reads and parses the files again, as nothing is kept between
    # builds
    from curie import cpl

    texts = []
    parse = cpl.parse_policy

    def counted(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(cpl, "parse_policy", counted)
    cfg = load_config(config_path(name))
    scenario = build_scenario(cfg)
    assert len(texts) == parses
    shared: dict = {}
    for spec, ctx in zip(cfg.members, scenario.contexts):
        assert shared.setdefault(spec.policy_path, ctx.policy) is ctx.policy
    assert len(shared) == parses
    build_scenario(cfg)
    assert len(texts) == 2 * parses


def test_an_invalid_shared_policy_file_is_refused_at_its_first_member(tmp_path):
    # default_dp's four members all name global.cpl
    target = _write_config(tmp_path, "default_dp", lambda raw: raw)
    policy = target.parent / "global.cpl"
    policy.write_text("acquire : : :: ;\nshare : : :: nowhere ;\n")
    with pytest.raises(ConfigError) as err:
        build_scenario(load_config(target))
    assert str(err.value) == (
        f"members.D1.policy: {policy}:2:14: error[E001]: "
        "selections reference undeclared sub-clause 'nowhere'")
    assert err.value.field_path == "members.D1.policy"


def test_single_source_scenario_has_no_pooled_model():
    cfg = load_config(config_path("p1_single"))
    report = run_scenario(cfg, MODE_FULL)
    assert report.message_counts["negotiation"] == 0
    assert report.pooled_rows is None
    assert report.pooled_model is None
    assert len(report.local_clinical) == len(cfg.members)


def test_nationwide_scenario_pools_same_country_only():
    cfg = load_config(config_path("p2_nationwide"))
    report = run_scenario(cfg, MODE_NEGOTIATE)
    nonempty = [a for a in report.agreements if a.status != "empty"]
    assert nonempty, "US pair should exchange"
    for a in nonempty:
        pair = {a.owner, a.requester}
        assert pair == {"M_US1", "M_US2"}
    n = len(cfg.members)
    assert report.message_counts["negotiation"] == 2 * n * (n - 1)


def test_global_scenario_pools_everyone():
    cfg = load_config(config_path("p5_global"))
    report = run_scenario(cfg, MODE_FULL)
    by_owner = {a.owner for a in report.agreements
                if a.requester == cfg.initiator and a.status == "full"}
    assert by_owner == {m.member_id for m in cfg.members} - {cfg.initiator}
    total_train = sum(report.local_rows.values())
    assert report.pooled_rows == total_train


def test_regional_scenario_respects_continents():
    cfg = load_config(config_path("p3_regional"))
    report = run_scenario(cfg, MODE_NEGOTIATE)
    continents = {m.member_id: m.attributes["continent"] for m in cfg.members}
    for a in report.agreements:
        if a.status != "empty":
            assert continents[a.owner] == continents[a.requester]


def test_nato_eu_scenario_alliance_gated():
    cfg = load_config(config_path("p4_nato_eu"))
    report = run_scenario(cfg, MODE_NEGOTIATE)
    alliances = {m.member_id: set(m.alliances) for m in cfg.members}
    nonempty = [a for a in report.agreements if a.status != "empty"]
    assert nonempty
    for a in nonempty:
        assert alliances[a.owner] & alliances[a.requester]


# ---------------------------------------------------------------------------
# dp sweep and bench (small settings for speed)

def _dp_table(name, epsilons, repetitions):
    """The DP table of a ``full_dp`` run of *name* with the budgets and
    repetitions overridden."""
    cfg = dataclasses.replace(load_config(config_path(name)),
                              dp=DPSettings(epsilons, repetitions))
    return run_scenario(cfg, MODE_FULL_DP).dp_table


def test_dp_sweep_rows_and_reproducibility():
    table = _dp_table("default_dp", (1.0, 100.0), 5)
    assert [row["epsilon"] for row in table] == [1.0, 100.0]
    for row in table:
        assert row["repetitions"] == 5
        assert row["mean_mae"] > 0
        lo, hi = row["mae_ci"]
        assert lo <= row["mean_mae"] <= hi
    assert _dp_table("default_dp", (1.0, 100.0), 5) == table


def test_dp_sweep_advantage_ci_reflects_the_mae_ci():
    for row in _dp_table("default_dp", (1.0, 100.0), 5):
        lo, hi = row["mae_ci"]
        assert row["advantage_ci"] == [row["local_mae"] - hi, row["local_mae"] - lo]


def test_dp_sweep_row_does_not_depend_on_the_other_budgets():
    assert (_dp_table("default_dp", (1.0, 100.0), 5)
            == _dp_table("default_dp", (0.25, 1.0, 100.0), 5)[1:])


def test_dp_sweep_fits_each_budget_in_one_call(monkeypatch):
    from curie import harness
    calls = []
    fit = harness.functional_mechanism

    def counted(O, V, epsilon, rng, count):
        calls.append((epsilon, count))
        return fit(O, V, epsilon, rng, count)

    monkeypatch.setattr(harness, "functional_mechanism", counted)
    cfg = load_config(config_path("default_dp"))
    run_scenario(cfg, MODE_FULL_DP)
    assert calls == [(eps, cfg.dp.repetitions) for eps in cfg.dp.epsilons]


def test_dp_sweep_needs_a_pooled_model():
    cfg = load_config(config_path("p1_single"))
    cfg = dataclasses.replace(cfg, dp=DPSettings((1.0,), 2))
    assert run_scenario(cfg, MODE_FULL).pooled_model is None
    with pytest.raises(ConfigError) as err:
        run_scenario(cfg, MODE_FULL_DP)
    assert err.value.field_path == "initiator"


_NEGOTIATE_PHASES = {"build", "negotiation", "dd"}
_FULL_PHASES = _NEGOTIATE_PHASES | {"local_models", "stats", "keygen", "encrypt",
                                    "evaluate", "decrypt", "pooled_model"}


def _assert_timings_cover_the_wall_time(name, mode, phases):
    cfg = load_config(config_path(name))
    t0 = time.perf_counter()
    report = run_scenario(cfg, mode)
    wall = time.perf_counter() - t0
    assert set(report.timings) == phases
    # "dd" is the part of "negotiation" spent on data-dependent statistics
    covered = sum(v for k, v in report.timings.items() if k != "dd")
    assert 0.9 * wall <= covered <= wall, (name, covered, wall, report.timings)


def test_report_timings_cover_the_simulate_wall_time():
    _assert_timings_cover_the_wall_time("example3", MODE_FULL_DP,
                                        _FULL_PHASES | {"dp_sweep"})
    _assert_timings_cover_the_wall_time("p5_global", MODE_FULL, _FULL_PHASES)


def test_report_timings_name_the_phases_each_mode_runs():
    names = sorted(p.parent.name for p in CONSORTIA_DIR.glob("*/config.json"))
    assert len(names) == 8
    for name in names:
        cfg = load_config(config_path(name))
        negotiated = run_scenario(cfg, MODE_NEGOTIATE).timings
        assert set(negotiated) == _NEGOTIATE_PHASES, name
        # p1_single's initiator acquires nothing: no ring, no pooled model
        full = (_NEGOTIATE_PHASES | {"local_models"} if name == "p1_single"
                else _FULL_PHASES)
        assert set(run_scenario(cfg, MODE_FULL).timings) == full, name
    # "dd" is reported even when no policy evaluates anything
    cfg = load_config(config_path("p5_global"))
    assert run_scenario(cfg, MODE_NEGOTIATE).timings["dd"] == 0.0


def test_a_failed_run_leaves_the_next_runs_timings_whole(monkeypatch):
    from curie import harness

    def fail(*args, **kwargs):
        raise ConfigError("dp", "sweep failed")

    with monkeypatch.context() as patch:
        patch.setattr(harness, "dp_sweep_from_stats", fail)
        with pytest.raises(ConfigError, match="sweep failed"):
            run_scenario(load_config(config_path("example3")), MODE_FULL_DP)
    _assert_timings_cover_the_wall_time("example3", MODE_FULL_DP,
                                        _FULL_PHASES | {"dp_sweep"})


def _never_negotiate(monkeypatch):
    from curie import harness

    def never(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(harness, "negotiate_consortium", never)


@pytest.mark.parametrize("epsilons, repetitions, field", [
    ([1.0, 0.0], None, "dp.epsilons"),
    ([], None, "dp.epsilons"),
    ([float("inf")], None, "dp.epsilons"),
    ([float("nan")], None, "dp.epsilons"),
    ([1, 1], None, "dp.epsilons"),
    ([5.0, 1.0, 5], None, "dp.epsilons"),
    (None, 0, "dp.repetitions"),
    (None, -1, "dp.repetitions"),
])
def test_dp_sweep_refuses_bad_overrides_before_any_work(
        tmp_path, epsilons, repetitions, field):
    # an override is a DPSettings, which refuses bad settings when it is
    # made, as the loader does for a config's dp block
    overrides = {k: v for k, v in (("epsilons", epsilons),
                                   ("repetitions", repetitions)) if v is not None}
    with pytest.raises(ConfigError) as err:
        DPSettings(**{k: tuple(v) if isinstance(v, list) else v
                      for k, v in overrides.items()})
    assert err.value.field_path == field
    target = _write_config(tmp_path, "default_dp",
                           lambda raw: {**raw, "dp": {**raw["dp"], **overrides}})
    with pytest.raises(ConfigError) as err:
        load_config(target)
    assert err.value.field_path == field


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_cli_simulate_dp_refuses_too_few_repetitions(monkeypatch, tmp_path,
                                                     capsys, reps):
    target = _write_config(tmp_path, "default_dp",
                           _setting("dp", "repetitions", int(reps)))
    _never_negotiate(monkeypatch)
    assert cli_main(["simulate", str(target), "--dp"]) == 2
    assert "repetitions must be at least 1" in capsys.readouterr().err


def test_cli_simulate_dp_refuses_malformed_budgets(tmp_path, capsys):
    target = _write_config(tmp_path, "default_dp",
                           _setting("dp", "epsilons", ["abc"]))
    assert cli_main(["simulate", str(target), "--dp"]) == 2
    err = capsys.readouterr().err
    assert err == "error: dp.epsilons[0]: must be a JSON number\n"
    assert "Traceback" not in err


def test_dp_sweep_single_repetition_has_no_ci(monkeypatch):
    from curie import harness
    labels = []
    seed_for = harness._seed_for

    def recorded(master, label):
        labels.append(label)
        return seed_for(master, label)

    monkeypatch.setattr(harness, "_seed_for", recorded)
    row, = _dp_table("default_dp", (5.0,), 1)
    assert row["mae_ci"] is None and row["advantage_ci"] is None
    assert "dp:5.0" in labels and "dpci" not in labels
    # the probe sees the resamples when there are any
    _dp_table("default_dp", (5.0,), 2)
    assert "dpci" in labels


def test_bench_axes_shape():
    rows = bench("members", [2, 3], runs=1, key_bits=128, n_features=4,
                 rows=200)
    assert [r["value"] for r in rows] == [2, 3]
    for r in rows:
        assert r["keygen"] >= 0
        assert r["encrypted_total"] > 0
    with pytest.raises(ValueError):
        bench("bogus", [1])
    with pytest.raises(ValueError, match="at least one run"):
        bench("rows", [200], runs=0)
    with pytest.raises(ValueError, match="at least 2, not 1"):
        bench("members", [3, 1], runs=1)
    with pytest.raises(ValueError, match="at least 1, not 0"):
        bench("rows", [0], runs=1)


def test_bench_sizes_its_ring_as_the_pipeline_does(monkeypatch):
    # normalized rows, v_max = 1 and n_max the rows of every member
    from curie import harness

    sizes = []
    run = harness.run_ring_session

    def recorded(order, initiator, stats, encoding, params, rng, **kwargs):
        sizes.append((params, [stats[mid].n for mid in order]))
        return run(order, initiator, stats, encoding, params, rng, **kwargs)

    monkeypatch.setattr(harness, "run_ring_session", recorded)
    bench("members", [3], runs=1, key_bits=128, n_features=4, rows=200)
    assert sizes == [(HEParams(key_bits=128, n_max=600, v_max=1.0), [200] * 3)]


# ---------------------------------------------------------------------------
# CLI

def test_cli_parse_and_lint(tmp_path, capsys):
    good = tmp_path / "ok.cpl"
    good.write_text("share : M1 : :: ;\n")
    assert cli_main(["parse", str(good)]) == 0
    out = capsys.readouterr().out
    assert "share : M1 :  ::  ;" in out

    bad = tmp_path / "bad.cpl"
    bad.write_text("share M1 : :: ;\n")
    assert cli_main(["parse", str(bad)]) == 1

    dangling = tmp_path / "dangling.cpl"
    dangling.write_text("share : M1 : :: ghost ;\n")
    assert cli_main(["lint", str(dangling)]) == 1
    out = capsys.readouterr().out
    assert "error[E001]" in out

    warn = tmp_path / "warn.cpl"
    warn.write_text("share : M1 : :: ;\nshare : M1 : :: ;\n")
    assert cli_main(["lint", str(warn)]) == 0


def test_cli_negotiate_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli_main(["negotiate", str(config_path("example3")),
                     "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report_version"] == 1
    assert payload["mode"] == "negotiate"
    assert "timings" not in payload
    assert len(payload["agreements"]) == 6


GOLDEN_DIR = CONSORTIA_DIR.parent / "tests" / "golden"


@pytest.mark.parametrize("name", sorted(p.name for p in CONSORTIA_DIR.iterdir()))
def test_cli_negotiate_report_matches_golden(name, tmp_path, monkeypatch):
    # golden files: `curie negotiate consortia/<name>/config.json --out ...`
    # with CURIE_SEED unset; agreements, released rows and dd decisions
    # must not drift under refactors of the data or negotiation layers
    monkeypatch.delenv("CURIE_SEED", raising=False)
    out = tmp_path / "report.json"
    assert cli_main(["negotiate", str(config_path(name)), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.negotiate.json").read_bytes()


DP_GOLDENS = ("default_dp", "example3", "p5_global")


@pytest.mark.parametrize("name, mode", [
    *((p.name, MODE_FULL) for p in sorted(CONSORTIA_DIR.iterdir())),
    *((name, MODE_FULL_DP) for name in DP_GOLDENS),
])
def test_full_report_matches_golden(name, mode, monkeypatch):
    # golden files: the timing-free report of `curie simulate [--dp]`
    # with CURIE_SEED unset, indented as the CLI writes it; a new key,
    # or a refactor of the ring or the models, must not move an
    # agreement, a pooled coefficient, a clinical metric or a DP table
    monkeypatch.delenv("CURIE_SEED", raising=False)
    report = run_scenario(load_config(config_path(name)), mode)
    text = json.dumps(report.to_json(include_timings=False), indent=2,
                      sort_keys=True) + "\n"
    assert text == (GOLDEN_DIR / f"{name}.{mode}.json").read_text()


@pytest.mark.parametrize("name", DP_GOLDENS)
def test_full_dp_golden_differs_from_full_only_in_the_sweep(name):
    # the sweep runs after the pooled model and draws from its own seeds,
    # so a full_dp golden regenerated for a sweep change carries nothing
    # else new
    full, dp = (json.loads((GOLDEN_DIR / f"{name}.{mode}.json").read_text())
                for mode in (MODE_FULL, MODE_FULL_DP))
    assert (full.pop("mode"), dp.pop("mode")) == (MODE_FULL, MODE_FULL_DP)
    assert full.pop("dp_sweep") is None and dp.pop("dp_sweep")
    assert dp == full


def test_cli_runtime_failure_exit_code(tmp_path):
    missing = tmp_path / "none.json"
    assert cli_main(["negotiate", str(missing)]) == 2


def _unreadable(case, tmp_path):
    """The CLI arguments of one unreadable-input *case* and the field its
    error names."""
    c = tmp_path / "c"
    shutil.copytree(config_path("example3").parent, c)
    config = c / "config.json"
    raw = json.loads(config.read_text())
    command, what = case.split(" ", 1)
    if command in ("parse", "lint"):
        target = {"non-UTF-8": c / "m1.cpl", "missing": c / "ghost.cpl",
                  "a directory": c}[what]
        if what == "non-UTF-8":
            target.write_bytes(target.read_bytes() + b"# caf\xe9\n")
        return [command, str(target)], str(target)
    if what == "config non-UTF-8":
        config.write_bytes(json.dumps({**raw, "name": "caf\xe9"}, ensure_ascii=False)
                           .encode("latin-1"))
        return [command, str(config)], str(config)
    if what == "config a directory":
        return [command, str(c)], str(c)
    if what == "policy non-UTF-8":
        (c / "m2.cpl").write_bytes((c / "m2.cpl").read_bytes() + b"# caf\xe9\n")
        return [command, str(config)], "members.M2.policy"
    del raw["members"][0]["synth"]
    raw["members"][0]["dataset"] = "m1.csv"
    (c / "m1.csv").write_bytes(b"age,race,genotype,weight,country,dose\n"
                               b"40,Asian,A/A,150.0,US,30.0\xff\n")
    config.write_text(json.dumps(raw))
    return [command, str(config)], "members.M1.dataset"


@pytest.mark.parametrize("case", [
    "parse non-UTF-8", "parse missing", "parse a directory",
    "lint non-UTF-8", "lint missing", "lint a directory",
    "negotiate config non-UTF-8", "negotiate config a directory",
    "negotiate policy non-UTF-8", "simulate dataset non-UTF-8",
])
def test_an_unreadable_input_is_a_one_line_error(case, tmp_path, capsys):
    # every input file is read as UTF-8, and one that cannot be opened
    # or decoded is a runtime error naming its file or config field
    argv, field = _unreadable(case, tmp_path)
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1


def test_cli_reports_a_malformed_csv_cell(tmp_path, capsys):
    source = CONSORTIA_DIR / "example3"
    raw = json.loads((source / "config.json").read_text())
    for m in raw["members"]:
        shutil.copyfile(source / m["policy"], tmp_path / m["policy"])
    del raw["members"][0]["synth"]
    raw["members"][0]["dataset"] = "m1.csv"
    (tmp_path / "m1.csv").write_text("age,race,genotype,weight,country,dose\n"
                                     "40,Asian,A/A,150.0,US,30.0\n"
                                     "forty,White,A/G,170.0,UK,35.0\n")
    (tmp_path / "config.json").write_text(json.dumps(raw))
    assert cli_main(["negotiate", str(tmp_path / "config.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: row 2, column 'age': 'forty' is not an integer")
    assert "Traceback" not in err


def test_scenario_pooled_model_matches_centralization_oracle():
    import random

    import numpy as np

    from curie.data import apply_selections, concat, to_design_matrix
    from curie.engine import EMPTY, negotiate_consortium
    from curie.harness import _seed_for, build_scenario
    from curie.regression import DoseModel, encode_cohort

    cfg = load_config(config_path("example3"))
    report = run_scenario(cfg, MODE_FULL)

    scenario = build_scenario(cfg)
    agreements, _ = negotiate_consortium(
        scenario.contexts, rng=random.Random(_seed_for(cfg.seed, "negotiate")))
    train = {ctx.member_id: ctx.dataset for ctx in scenario.contexts}
    pieces = [train[cfg.initiator]]
    for a in agreements:
        if a.requester == cfg.initiator and a.status != EMPTY:
            pieces.append(apply_selections(train[a.owner], a.selections))
    dm = to_design_matrix(concat(pieces), cfg.schema.bounds)
    eta_cat, *_ = np.linalg.lstsq(dm.X, dm.Y, rcond=None)

    assert report.pooled_rows == dm.X.shape[0]
    cat_model = DoseModel(eta_cat, scenario.encoding, cfg.schema.bounds)
    cohort = encode_cohort(scenario.validation, cfg.schema.bounds)
    pred_ring = report.pooled_model.predict(cohort.X)
    pred_cat = cat_model.predict(cohort.X)
    rel = np.abs(pred_ring - pred_cat).max() / np.abs(pred_cat).mean()
    assert rel < 1e-6


def test_cli_bench_smoke(capsys):
    assert cli_main(["bench", "--axis", "members", "--values", "2,3",
                     "--runs", "1", "--key-bits", "128", "--csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("axis,")
    assert len(lines) == 3


@pytest.mark.parametrize("args, message", [
    (["--values", "200", "--runs", "0"], "argument --runs: invalid positive value: '0'"),
    (["--values", "abc"], "argument --values: invalid counts value: 'abc'"),
    # a zero key size is refused, not run with the default 192 bits
    (["--values", "200", "--key-bits", "0"],
     "argument --key-bits: invalid positive value: '0'"),
    # sizes no session can run are refused before any session starts
    (["--values", "200,0"], "argument --values: the rows axis takes values of at least 1, not 0"),
    (["--axis", "members", "--values", "0"],
     "argument --values: the members axis takes values of at least 2, not 0"),
    (["--axis", "members", "--values", "1"],
     "argument --values: the members axis takes values of at least 2, not 1"),
    # the bench takes no consortium config
    (["consortia/default_dp/config.json", "--values", "200"],
     "unrecognized arguments: consortia/default_dp/config.json"),
])
def test_cli_bench_refuses_malformed_arguments(capsys, args, message):
    with pytest.raises(SystemExit) as exit_:
        cli_main(["bench", "--axis", "rows", "--key-bits", "128", *args])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_cli_simulate_with_dp(tmp_path):
    import json as _json
    raw = _json.loads(config_path("default_dp").read_text())
    raw["dp"]["repetitions"] = 3
    raw["dp"]["epsilons"] = [1, 100]
    import shutil
    shutil.copytree(config_path("default_dp").parent, tmp_path / "c",
                    dirs_exist_ok=True)
    (tmp_path / "c" / "config.json").write_text(_json.dumps(raw))
    out = tmp_path / "report.json"
    code = cli_main(["simulate", str(tmp_path / "c" / "config.json"),
                     "--dp", "--out", str(out)])
    assert code == 0
    payload = _json.loads(out.read_text())
    assert payload["mode"] == "full_dp"
    assert len(payload["dp_sweep"]) == 2
    assert "timings" in payload


def test_a_budget_given_as_an_int_sweeps_as_the_same_float():
    cfg = load_config(config_path("example3"))
    tables = [run_scenario(dataclasses.replace(cfg, dp=DPSettings(eps, 5)),
                           MODE_FULL_DP).dp_table for eps in ((1,), (1.0,))]
    assert tables[0] == tables[1]
    assert type(tables[0][0]["epsilon"]) is float


def test_dp_sweep_large_budget_close_to_non_private():
    cfg = dataclasses.replace(load_config(config_path("default_dp")),
                              dp=DPSettings((100.0,), 20))
    report = run_scenario(cfg, MODE_FULL_DP)
    non_private = report.pooled_clinical.mae
    table = report.dp_table
    gap = abs(table[0]["mean_mae"] - non_private) / non_private
    assert gap < 0.10, f"eps=100 MAE {table[0]['mean_mae']:.3f} strays " \
                       f"{gap:.1%} from non-private {non_private:.3f}"
