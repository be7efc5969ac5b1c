"""The curie benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload global_simulate --seed 1 --seconds 25 --trace 0

Run from the repository root.  The benchmark writes the workload's
consortium config (a shipped consortium with the seed, and for
``deploy_ring`` the key size, replaced) under ``perfbench/results/``,
then repeats rounds for about ``--seconds``.  The run draws the
workload's ``data_seeds`` program seeds from ``--seed``; the rounds
cycle through them in whole cycles (at least one, which may outlast
``--seconds``), so every run measures each of its seeds equally often,
however fast the program is.  A round hands its program seed to the
program through ``CURIE_SEED`` and calls the public entry points a user
hits:

* set-up: ``harness.load_config`` + ``harness.build_scenario``, repeated
  ``setup_reps`` times,
* negotiate: ``harness.run_scenario(cfg, "negotiate")``, repeated
  ``negotiate_reps`` times,
* simulate: one ``harness.run_scenario`` in the workload's mode,

then checks the outputs (see ``checks.py``).  An operation that raises
counts as failed; the operations of its round that need its result are
skipped and count as failed too, and the round is not checked.  Timings
are CPU seconds scaled by the machine-speed probe of ``speed.py``.  With
``--trace 0`` it prints the end-to-end metrics (medians over the run's
samples); with ``--trace 1`` the simulate call runs under the span
recorder of ``spans.py`` and the run prints the per-layer metrics
instead.  The last line of standard output is one JSON object.

Everything runs in this one process and thread, with BLAS pinned to one
thread.  Outside a checkout that holds ``src/curie`` and ``consortia``
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"


@dataclass(frozen=True)
class Workload:
    consortium: str
    mode: str
    key_bits: int | None     # None keeps the consortium's own key size
    data_seeds: int          # program seeds a run cycles through
    setup_reps: int
    negotiate_reps: int
    all_full: bool           # every agreement must release all training rows
    expect_dd: bool          # data-dependent conditionals must be evaluated


WORKLOADS = {
    # pooled_mae and key generation time (0.9 to 3.2 s at 2048 bits) move
    # with the seed's data, so a run takes the median over several seeds;
    # a cycle of them takes about 25 s, on deploy_ring about 50 s
    "global_simulate": Workload("p5_global", "full", None, 5, 3, 2, True, False),
    "worked_example_dp": Workload("example3", "full_dp", None, 3, 3, 6, False, True),
    "deploy_ring": Workload("default_dp", "full", 2048, 2, 5, 5, False, False),
}

E2E_UNITS = {"setup_s": "s", "negotiate_s": "s", "simulate_s": "s",
             "wire_bytes": "B", "peak_rss_mb": "MB", "pooled_mae": "mg/day"}


def program_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def round_seeds(workload: str, seed: int, count: int, deadline: float):
    """The program seed of each round: whole cycles of the run's *count*
    seeds, at least one, and another only if a cycle as long as the last
    one would end before *deadline*."""
    while True:
        start = time.perf_counter()
        for index in range(count):
            yield program_seed(workload, seed, index)
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return


def write_config(wl: Workload, seed: int, dest: Path) -> tuple[Path, dict, dict]:
    """Copy the consortium's policies into *dest* and write its config
    with the benchmark's seed (and key size).  Returns the config path,
    the config JSON and the policy text per member."""
    source = ROOT / "consortia" / wl.consortium
    raw = json.loads((source / "config.json").read_text())
    raw["seed"] = seed
    if wl.key_bits is not None:
        raw["he"]["key_bits"] = wl.key_bits
    policies = {}
    for member in raw["members"]:
        shutil.copyfile(source / member["policy"], dest / member["policy"])
        policies[member["id"]] = (source / member["policy"]).read_text()
    path = dest / "config.json"
    path.write_text(json.dumps(raw, indent=1))
    return path, raw, policies


@contextmanager
def captured(harness):
    """Keep the negotiation log and the ring result of the next
    ``run_scenario``, which does not return them.  Nothing is timed."""
    seen: dict = {}
    negotiate, ring = harness.negotiate_consortium, harness.run_ring_session

    def negotiate_consortium(*args, **kwargs):
        agreements, log = negotiate(*args, **kwargs)
        seen["negotiation_log"] = log
        return agreements, log

    def run_ring_session(*args, **kwargs):
        seen["ring"] = ring(*args, **kwargs)
        return seen["ring"]

    harness.negotiate_consortium = negotiate_consortium
    harness.run_ring_session = run_ring_session
    try:
        yield seen
    finally:
        harness.negotiate_consortium = negotiate
        harness.run_ring_session = ring


def check_round(wl: Workload, raw: dict, policies: dict, cfg, scenario,
                negotiated, report, seen) -> None:
    """Every output check of one round; raises ``checks.CheckFailed``."""
    from curie.ring import LocalStats, audit_transcript

    import checks

    schema = raw["schema"]
    initiator = raw.get("initiator", raw["ring_order"][0])
    train = {ctx.member_id: ctx.dataset.columns for ctx in scenario.contexts}
    agreements = [a.to_json() for a in report.agreements]
    pairs = len(checks.named_pairs(policies))

    checks.check_negotiation_log([m.kind for m in seen["negotiation_log"]], pairs)
    if negotiated.message_counts != {"negotiation": 2 * pairs}:
        raise checks.CheckFailed(
            f"negotiate report counts {negotiated.message_counts}, expected "
            f"{2 * pairs} negotiation messages")
    if [a.to_json() for a in negotiated.agreements] != agreements:
        raise checks.CheckFailed("negotiate and simulate reached different agreements")
    transcript = seen["ring"].transcript
    checks.check_ring_log([m.kind for m in transcript.log], len(raw["ring_order"]))
    if report.message_counts.get("ring") != len(transcript.log):
        raise checks.CheckFailed("report ring count differs from the transcript")

    if wl.all_full:
        holdout = raw.get("holdout_fraction", 0.25)
        checks.check_full_agreements(agreements, {
            m["id"]: int(round(m["synth"]["n"] * (1.0 - holdout)))
            for m in raw["members"]})
    decisions = checks.check_dd_trace(agreements, train,
                                      raw.get("dd_comparator", "below"))
    if wl.expect_dd and decisions == 0:
        raise checks.CheckFailed("no data-dependent conditional was evaluated")

    parts = checks.pooled_parts(schema, initiator, train, agreements)
    eta = report.pooled_model.eta
    checks.check_pooled(parts, eta, report.pooled_rows)
    checks.check_mae(schema, scenario.validation.columns, eta,
                     report.pooled_clinical.mae)

    reference = {m: LocalStats(X.T @ X, (X.T @ y).reshape(-1, 1), len(y))
                 for m, (X, y) in parts.items()}
    audit = audit_transcript(transcript, set(transcript.ring) - {initiator},
                             reference_stats=reference, scale=cfg.he.scale)
    if not audit.ok:
        raise checks.CheckFailed(f"ring audit findings: {audit.to_json()}")

    if wl.mode == "full_dp":
        checks.check_dp_table(report.dp_table, raw["dp"]["epsilons"],
                              raw["dp"]["repetitions"])


def wire_bytes(seen) -> int:
    logs = (seen["negotiation_log"], seen["ring"].transcript.log)
    return sum(len(m.payload) for log in logs for m in log)


def layer_unit(name: str) -> str:
    if name.endswith("_ms_per_op"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.startswith("transport.bytes."):
        return "B"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


# time the report's own timings cover; "dd" is a part of "negotiation"
REPORTED_PHASES = ("negotiation", "keygen", "encrypt", "evaluate", "decrypt")


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, details for the file)."""
    from curie import harness

    import spans
    import speed

    wl = WORKLOADS[workload]
    samples: dict[str, list] = {k: [] for k in E2E_UNITS if k != "peak_rss_mb"}
    cpu_samples: dict[str, list] = {k: [] for k in ("setup_s", "negotiate_s", "simulate_s")}
    layer_samples: list[dict] = []
    simulate_wall: list[float] = []
    failures: list[str] = []
    attempted, checked, error, last_tracer = 0, 0, None, None
    probes = {kind: speed.Probe(kind) for kind in speed.REFERENCE_S}

    def attempt(name: str, op, sample_inside: bool = True):
        """Time one operation; returns its result, or None if it raised."""
        nonlocal attempted
        attempted += 1
        probe = probes["mixed" if name == "simulate_s" else "interpreter"]
        try:
            result, cpu, scaled, wall = probe.timed(op, sample_inside=sample_inside)
        except Exception:  # a failed operation is counted, not fatal
            failures.append(f"round {rounds} {name}: {traceback.format_exc()}")
            return None
        cpu_samples[name].append(cpu)
        samples[name].append(scaled)
        if name == "simulate_s":
            simulate_wall.append(wall)
        return result

    def skip(name: str, count: int, because: str) -> None:
        nonlocal attempted
        attempted += count
        failures.extend([f"round {rounds} {name}: skipped, {because} failed"] * count)

    RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        config_path, raw, policies = write_config(
            wl, program_seed(workload, seed, 0), Path(tmp))
        deadline = time.perf_counter() + seconds
        rounds = 0
        for program in round_seeds(workload, seed, wl.data_seeds, deadline):
            os.environ["CURIE_SEED"] = str(program)
            rounds += 1
            failed_before = len(failures)
            built = None
            for _ in range(wl.setup_reps):
                built = attempt("setup_s", lambda: setup(harness, config_path)) or built
            if built is None:
                skip("negotiate_s", wl.negotiate_reps, "set-up")
                skip("simulate_s", 1, "set-up")
                continue
            cfg, scenario = built
            for _ in range(wl.negotiate_reps):
                negotiated = attempt(
                    "negotiate_s", lambda: harness.run_scenario(cfg, harness.MODE_NEGOTIATE))
            tracer = spans.Tracer() if traced else None
            with tracer or nullcontext(), captured(harness) as seen:
                report = attempt("simulate_s", lambda: harness.run_scenario(cfg, wl.mode),
                                 sample_inside=not traced)
            if len(failures) > failed_before:
                continue
            try:
                samples["wire_bytes"].append(wire_bytes(seen))
                samples["pooled_mae"].append(report.pooled_clinical.mae)
                check_round(wl, raw, policies, cfg, scenario, negotiated, report, seen)
                if traced:
                    layer_samples.append(traced_figures(
                        tracer, report, cpu_samples["simulate_s"][-1],
                        samples["simulate_s"][-1], simulate_wall[-1],
                        samples["wire_bytes"][-1]))
            except Exception:  # a check that cannot run fails too
                error = f"round {rounds}: {traceback.format_exc()}"
                break
            checked += 1
            last_tracer = tracer

    if traced:
        names = layer_samples[0] if layer_samples else {}
        metrics = {name: {"value": statistics.median(s[name] for s in layer_samples),
                          "unit": layer_unit(name)} for name in names}
    else:
        metrics = {name: {"value": statistics.median(values), "unit": E2E_UNITS[name]}
                   for name, values in samples.items() if values}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB"}
        metrics = {name: metrics[name] for name in E2E_UNITS if name in metrics}
    if error is None and not checked:
        error = "no round ran without a failed operation, so nothing was checked"
    result = {"correct": error is None, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": int(traced), "rounds": rounds, "error": error,
               "failures": failures[:20],
               "samples": samples, "cpu_samples": cpu_samples,
               "simulate_wall_s": simulate_wall,
               "layer_samples": layer_samples}
    if last_tracer is not None:
        details["spans"] = {
            "totals": {k: {"calls": c, "seconds": s}
                       for k, (c, s) in sorted(last_tracer.totals().items())},
            "self_s": last_tracer.layer_self_times(),
            "last_round": [[s.name, s.start, s.end, s.parent]
                           for s in last_tracer.spans],
        }
    return result, details


def setup(harness, config_path):
    cfg = harness.load_config(config_path)
    return cfg, harness.build_scenario(cfg)


def traced_figures(tracer, report, cpu: float, scaled: float, wall: float,
                   wire: int) -> dict:
    """Per-layer figures of one traced simulate call of *cpu* CPU seconds
    (*scaled* after probe scaling, *wall* wall-clock seconds), after
    checking that the traced transport bytes make up *wire*.  Times are
    scaled like the call's."""
    import checks
    import spans

    figures = spans.layer_metrics(tracer)
    recorded = sum(figures[f"transport.bytes.{k}"] for k in spans.MESSAGE_KINDS)
    if recorded != wire:
        raise checks.CheckFailed(f"traced transport bytes {recorded} != {wire}")
    for name, value in figures.items():
        if layer_unit(name) in ("s", "ms"):
            figures[name] = value * scaled / cpu
    figures["trace.simulate_s"] = scaled
    # the report's timings are wall-clock
    covered = sum(report.timings.get(k, 0.0) for k in REPORTED_PHASES)
    figures["harness.untimed_share"] = 1.0 - covered / wall
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "curie").is_dir() or not (ROOT / "consortia").is_dir():
        print("perfbench: src/curie and consortia/ are missing; run from a "
              "curie checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    for failure in details["failures"]:
        print(f"FAILED {failure}")
    if details["error"]:
        print(f"CHECK FAILED {details['error']}")
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, **details}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
