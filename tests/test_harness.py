import dataclasses
import json
import shutil
import time

import numpy as np
import pytest

from curie.cli import main as cli_main
from curie.crypto import HEParams
from curie.data import Dataset
from curie.harness import (
    MODE_FULL,
    MODE_FULL_DP,
    MODE_NEGOTIATE,
    ConfigError,
    DPSettings,
    bench,
    dp_sweep,
    load_config,
    run_scenario,
)
from curie.ring import OverflowAbort

from conftest import CONSORTIA_DIR, config_path, count_crypto_calls


# ---------------------------------------------------------------------------
# config loading

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


# ---------------------------------------------------------------------------
# scenarios

def test_negotiate_only_report_is_byte_identical():
    cfg = load_config(config_path("example3"))
    a = run_scenario(cfg, MODE_NEGOTIATE).dumps(include_timings=False)
    b = run_scenario(cfg, MODE_NEGOTIATE).dumps(include_timings=False)
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
    # slots, 7 per 256-bit plaintext: its 136 statistics take 20
    # plaintexts per member (46 in 65-bit slots sized from a config)
    from curie import harness

    sessions = []
    ring = harness.run_ring_session

    def recorded(ring_order, initiator, provider, params, rng):
        sessions.append(params)
        return ring(ring_order, initiator, provider, params, rng)

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
    assert calls == {"encrypt": members * 20, "decrypt": 20}


def test_a_value_outside_its_declared_bounds_aborts_the_session(monkeypatch):
    from curie import harness

    build = harness.build_scenario

    def with_an_overdose(cfg):
        scenario = build(cfg)
        i = next(i for i, ctx in enumerate(scenario.contexts)
                 if ctx.member_id == "D3")
        ds = scenario.contexts[i].dataset
        target = cfg.schema.target
        doses = ds.column(target).copy()
        doses[0] = 10 * scenario.bounds[target][1]
        scenario.contexts[i] = dataclasses.replace(
            scenario.contexts[i], dataset=Dataset(
                ds.schema, {**ds.columns, target: doses}, ds.provenance))
        return scenario

    monkeypatch.setattr(harness, "build_scenario", with_an_overdose)
    calls = {"encrypt": 0, "decrypt": 0}
    count_crypto_calls(monkeypatch, calls)
    cfg = load_config(config_path("default_dp"))
    assert cfg.initiator != "D3"
    with pytest.raises(OverflowAbort, match="D3"):
        run_scenario(cfg, MODE_FULL)
    assert calls == {"encrypt": 0, "decrypt": 0}


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

def test_dp_sweep_rows_and_reproducibility():
    cfg = load_config(config_path("default_dp"))
    table = dp_sweep(cfg, epsilons=[1.0, 100.0], repetitions=5)
    assert [row["epsilon"] for row in table] == [1.0, 100.0]
    for row in table:
        assert row["repetitions"] == 5
        assert row["mean_mae"] > 0
        lo, hi = row["mae_ci"]
        assert lo <= row["mean_mae"] <= hi
    again = dp_sweep(cfg, epsilons=[1.0, 100.0], repetitions=5)
    assert table == again


def test_dp_sweep_matches_the_simulate_sweep():
    cfg = load_config(config_path("default_dp"))
    cfg = dataclasses.replace(cfg, dp=DPSettings(True, (1.0, 100.0), 5))
    assert dp_sweep(cfg) == run_scenario(cfg, MODE_FULL_DP).dp_table


def test_dp_sweep_needs_a_pooled_model():
    cfg = load_config(config_path("p1_single"))
    cfg = dataclasses.replace(cfg, dp=DPSettings(True, (1.0,), 2))
    assert run_scenario(cfg, MODE_FULL).pooled_model is None
    with pytest.raises(ConfigError):
        dp_sweep(cfg)


_NEGOTIATE_PHASES = {"build", "negotiation", "dd"}
_FULL_PHASES = _NEGOTIATE_PHASES | {"local_models", "keygen", "encrypt",
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


@pytest.mark.parametrize("name", ["example3", "p1_single"])
def test_full_dp_with_dp_disabled_fails_before_negotiating(monkeypatch, name):
    cfg = dataclasses.replace(load_config(config_path(name)),
                              dp=DPSettings(enabled=False))
    _never_negotiate(monkeypatch)
    with pytest.raises(ConfigError, match="dp.enabled"):
        run_scenario(cfg, MODE_FULL_DP)


@pytest.mark.parametrize("epsilons, repetitions, field", [
    ([1.0, 0.0], None, "dp.epsilons"),
    ([], None, "dp.epsilons"),
    ([float("inf")], None, "dp.epsilons"),
    ([float("nan")], None, "dp.epsilons"),
    (None, 0, "dp.repetitions"),
    (None, -1, "dp.repetitions"),
])
def test_dp_sweep_refuses_bad_overrides_before_any_work(
        monkeypatch, epsilons, repetitions, field):
    cfg = load_config(config_path("default_dp"))
    _never_negotiate(monkeypatch)
    with pytest.raises(ConfigError) as err:
        dp_sweep(cfg, epsilons, repetitions)
    assert err.value.field_path == field


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_cli_dp_sweep_refuses_too_few_repetitions(monkeypatch, capsys, reps):
    _never_negotiate(monkeypatch)
    code = cli_main(["dp-sweep", str(config_path("default_dp")),
                     "--reps", reps])
    assert code == 2
    assert "repetitions must be at least 1" in capsys.readouterr().err


def test_cli_dp_sweep_refuses_malformed_budgets(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli_main(["dp-sweep", str(config_path("default_dp")), "--eps", "abc"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "argument --eps: invalid numbers value: 'abc'" in err
    assert "Traceback" not in err


def test_dp_sweep_single_repetition_has_no_ci():
    cfg = load_config(config_path("default_dp"))
    table = dp_sweep(cfg, epsilons=[5.0], repetitions=1)
    assert table[0]["mae_ci"] is None


def test_bench_axes_shape():
    rows = bench("members", [2, 3], runs=1, key_bits=128, n_features=4,
                 rows=200)
    assert [r["value"] for r in rows] == [2, 3]
    for r in rows:
        assert r["keygen"] >= 0
        assert r["encrypted_total"] > 0
    with pytest.raises(ValueError):
        bench("bogus", [1])


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


def test_cli_runtime_failure_exit_code(tmp_path):
    missing = tmp_path / "none.json"
    assert cli_main(["negotiate", str(missing)]) == 2


def test_scenario_pooled_model_matches_centralization_oracle():
    import random

    import numpy as np

    from curie.data import apply_selections, concat, normalize_columns, \
        to_design_matrix
    from curie.engine import EMPTY, negotiate_consortium
    from curie.harness import _seed_for, build_scenario
    from curie.regression import DoseModel, predict_dataset

    cfg = load_config(config_path("example3"))
    report = run_scenario(cfg, MODE_FULL)

    scenario = build_scenario(cfg)
    agreements, _ = negotiate_consortium(
        scenario.contexts, rng=random.Random(_seed_for(cfg.seed, "negotiate")))
    pieces = [scenario.context(cfg.initiator).dataset]
    for a in agreements:
        if a.requester == cfg.initiator and a.status != EMPTY:
            owner_ds = scenario.context(a.owner).dataset
            pieces.append(apply_selections(owner_ds, a.selections))
    big = concat([normalize_columns(p, scenario.bounds)[0] for p in pieces])
    dm = to_design_matrix(big, scenario.encoding)
    eta_cat, *_ = np.linalg.lstsq(dm.X, dm.Y, rcond=None)

    assert report.pooled_rows == dm.X.shape[0]
    cat_model = DoseModel(eta_cat, scenario.encoding, scenario.bounds)
    pred_ring = predict_dataset(report.pooled_model, scenario.validation)
    pred_cat = predict_dataset(cat_model, scenario.validation)
    rel = np.abs(pred_ring - pred_cat).max() / np.abs(pred_cat).mean()
    assert rel < 1e-6


def test_cli_bench_smoke(capsys):
    assert cli_main(["bench", "--axis", "members", "--values", "2,3",
                     "--runs", "1", "--key-bits", "128", "--csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("axis,")
    assert len(lines) == 3


def test_cli_dp_sweep_smoke(tmp_path):
    import json as _json
    out = tmp_path / "sweep.json"
    code = cli_main(["dp-sweep", str(config_path("default_dp")),
                     "--eps", "5,100", "--reps", "3", "--out", str(out)])
    assert code == 0
    table = _json.loads(out.read_text())
    assert [row["epsilon"] for row in table] == [5.0, 100.0]


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


def test_dp_sweep_large_budget_close_to_non_private():
    cfg = load_config(config_path("default_dp"))
    report = run_scenario(cfg, MODE_FULL)
    non_private = report.pooled_clinical.mae
    table = dp_sweep(cfg, epsilons=[100.0], repetitions=20)
    gap = abs(table[0]["mean_mae"] - non_private) / non_private
    assert gap < 0.10, f"eps=100 MAE {table[0]['mean_mae']:.3f} strays " \
                       f"{gap:.1%} from non-private {non_private:.3f}"
