"""The benchmark's output checks pass on a real run and reject tampered
outputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import sys
import tempfile
from pathlib import Path

import pytest

import checks
import run

sys.path.insert(0, str(run.ROOT / "src"))

from curie import harness  # noqa: E402


@pytest.fixture(scope="module")
def example3():
    """One `full` run of the worked example at its 256-bit test key."""
    wl = run.Workload("example3", "full", None, 1, 1, 1, False, True)
    run.RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
        path, raw, policies = run.write_config(wl, 20240601, Path(tmp))
        cfg = harness.load_config(path)
        scenario = harness.build_scenario(cfg)
        negotiated = harness.run_scenario(cfg, harness.MODE_NEGOTIATE)
        with run.captured(harness) as seen:
            report = harness.run_scenario(cfg, wl.mode)
    train = {ctx.member_id: ctx.dataset.columns for ctx in scenario.contexts}
    return {"wl": wl, "raw": raw, "policies": policies, "cfg": cfg,
            "scenario": scenario, "negotiated": negotiated, "report": report,
            "seen": seen, "train": train,
            "agreements": [a.to_json() for a in report.agreements]}


def test_all_checks_pass_on_the_real_run(example3):
    e = example3
    run.check_round(e["wl"], e["raw"], e["policies"], e["cfg"], e["scenario"],
                    e["negotiated"], e["report"], e["seen"])


def _parts(e):
    return checks.pooled_parts(e["raw"]["schema"], e["raw"]["initiator"],
                               e["train"], e["agreements"])


def test_nudged_coefficient_is_rejected(example3):
    report = example3["report"]
    eta = report.pooled_model.eta.copy()
    checks.check_pooled(_parts(example3), eta, report.pooled_rows)
    eta[1] += 1e-3
    with pytest.raises(checks.CheckFailed, match="coefficients"):
        checks.check_pooled(_parts(example3), eta, report.pooled_rows)


def test_pooled_row_count_off_by_one_is_rejected(example3):
    report = example3["report"]
    with pytest.raises(checks.CheckFailed, match="pooled_rows"):
        checks.check_pooled(_parts(example3), report.pooled_model.eta,
                            report.pooled_rows + 1)


def test_shifted_mae_is_rejected(example3):
    report = example3["report"]
    schema = example3["raw"]["schema"]
    validation = example3["scenario"].validation.columns
    eta, mae = report.pooled_model.eta, report.pooled_clinical.mae
    checks.check_mae(schema, validation, eta, mae)
    with pytest.raises(checks.CheckFailed, match="MAE"):
        checks.check_mae(schema, validation, eta, mae + 1e-6)


def test_flipped_dd_decision_is_rejected(example3):
    agreements = copy.deepcopy(example3["agreements"])
    assert checks.check_dd_trace(agreements, example3["train"]) > 0
    entry = next(e for a in agreements for e in a["dd_trace"])
    entry["decision"] = not entry["decision"]
    with pytest.raises(checks.CheckFailed, match="decision"):
        checks.check_dd_trace(agreements, example3["train"])


def test_dropped_negotiation_message_is_rejected(example3):
    kinds = [m.kind for m in example3["seen"]["negotiation_log"]]
    pairs = len(checks.named_pairs(example3["policies"]))
    checks.check_negotiation_log(kinds, pairs)
    with pytest.raises(checks.CheckFailed, match="messages"):
        checks.check_negotiation_log(kinds[:-1], pairs)


def test_dropped_ring_message_is_rejected(example3):
    kinds = [m.kind for m in example3["seen"]["ring"].transcript.log]
    checks.check_ring_log(kinds, 3)
    with pytest.raises(checks.CheckFailed, match="messages"):
        checks.check_ring_log(kinds[1:], 3)


def test_short_release_is_rejected():
    agreements = [{"owner": "A", "requester": "B", "status": "full",
                   "released_rows": 449}]
    checks.check_full_agreements(agreements, {"A": 449})
    with pytest.raises(checks.CheckFailed, match="released"):
        checks.check_full_agreements(agreements, {"A": 450})


def _dp_table():
    return [{"epsilon": eps, "repetitions": 10, "mean_mae": mae,
             "mae_ci": [mae - 0.1, mae + 0.1]}
            for eps, mae in ((0.25, 9.0), (5.0, 3.0), (100.0, 1.2))]


def test_dp_table_checks():
    table = _dp_table()
    checks.check_dp_table(table, [0.25, 5.0, 100.0], 10)
    with pytest.raises(checks.CheckFailed, match="repetitions"):
        checks.check_dp_table(table, [0.25, 5.0, 100.0], 11)
    table[1]["mae_ci"] = [3.5, 4.0]
    with pytest.raises(checks.CheckFailed, match="bracket"):
        checks.check_dp_table(table, [0.25, 5.0, 100.0], 10)
    table = _dp_table()
    table[2]["mean_mae"] = table[2]["mae_ci"][0] = 9.5
    table[2]["mae_ci"][1] = 9.6
    with pytest.raises(checks.CheckFailed, match="not below"):
        checks.check_dp_table(table, [0.25, 5.0, 100.0], 10)


def test_named_pairs_scan():
    open_policy = "acquire : : :: ;\nshare : : :: ;\n"
    ten = {f"M{i}": open_policy for i in range(10)}
    assert len(checks.named_pairs(ten)) == 90
    worked = run.ROOT / "consortia" / "example3"
    texts = {m: (worked / f"{m.lower()}.cpl").read_text() for m in ("M1", "M2", "M3")}
    assert checks.named_pairs(texts) == {
        ("M1", "M2"), ("M1", "M3"), ("M2", "M1"), ("M2", "M3"),
        ("M3", "M1"), ("M3", "M2")}


def test_failed_operations_are_counted(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny",
                        run.Workload("example3", "full", None, 1, 2, 1, False, True))
    result, details = run.run("tiny", 1, 0.0, traced=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 4, 0)

    simulate = harness.run_scenario

    def failing(cfg, mode):
        if mode == "full":
            raise ValueError("injected")
        return simulate(cfg, mode)

    monkeypatch.setattr(harness, "run_scenario", failing)
    result, details = run.run("tiny", 1, 0.0, traced=False)
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert "injected" in details["failures"][0]
    assert not result["correct"]        # no round was left to check

    def unreadable(path):
        raise OSError("injected")

    monkeypatch.setattr(harness, "load_config", unreadable)
    result, details = run.run("tiny", 1, 0.0, traced=False)
    assert (result["attempted"], result["failed"]) == (4, 4)
    assert "skipped, set-up failed" in details["failures"][-1]
