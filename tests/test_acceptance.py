"""Acceptance criteria, one test per criterion.

Each test pins its stated tolerance and runtime budget and prints one
PASS line with the measured values (run with ``pytest -v -s`` to see
them inline).
"""

import random
import time

import numpy as np
import pytest

from curie import cpl, harness
from curie.cpl import ast as A
from curie.crypto import HEParams, add_cipher, keygen
from curie.data import (
    DesignEncoding,
    RowFilter,
    apply_selections,
    concat,
    from_rows,
    numeric_schema,
    synth_numeric_members,
    to_design_matrix,
)
from curie.ddstats import compute_statistic
from curie.engine import (MemberContext, answer_request, build_request,
                          negotiate_consortium)
from curie.harness import MODE_FULL_DP, bench, load_config, run_scenario
from curie.regression import solve_ols, solve_ols_pruned
from curie.ring import audit_transcript, local_stats, member_rows, run_ring_session

from cipher_matrices import decrypt_matrix, encrypt_matrix
from conftest import CORPUS_DIR, config_path
from dd_pair import dd_members
from grammar_coverage import REQUIRED_PRODUCTIONS, productions_used
from worked_example import (
    EXPECTED_DEFAULT,
    EXPECTED_LARGE_OVERLAP,
    EXPECTED_M1_EUROPE,
    build_contexts,
    filter_triples,
)


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


# ---------------------------------------------------------------------------
# 1. grammar corpus: parse, round-trip, fuzz totality

def test_criterion_1_grammar_corpus():
    t0 = time.perf_counter()
    files = sorted(CORPUS_DIR.glob("*.cpl"))
    assert len(files) >= 25, f"corpus has only {len(files)} files"
    assert {"m1.cpl", "m2.cpl", "m3.cpl"} <= {f.name for f in files}, \
        "the three-member worked-example policies must ship in the corpus"

    covered = set()
    for path in files:
        text = path.read_text()
        first = cpl.parse_policy(text)
        second = cpl.parse_policy(cpl.serialize(first))
        assert first == second, f"{path.name}: round-trip inequality"
        covered |= productions_used(first, text)
    missing = REQUIRED_PRODUCTIONS - covered
    assert not missing, f"grammar productions never exercised: {sorted(missing)}"

    rng = random.Random(0xC0FFEE)
    seeds = [f.read_text() for f in files]
    fuzz_count = 0
    for i in range(220):
        if i % 3 == 0:
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 400)))
            text = blob.decode("utf-8", errors="replace")
        else:
            text = "".join(rng.choice(seeds))
            cut = rng.randrange(len(text) + 1)
            text = text[:cut] + rng.choice(":;,<>$&#'\"KX ") + text[cut:]
        try:
            cpl.parse_policy(text)
        except (cpl.ParseError, cpl.LexError):
            pass
        fuzz_count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s (budget 5s)"
    report(1, f"{len(files)} corpus files parse + round-trip, "
              f"{len(covered & REQUIRED_PRODUCTIONS)}/{len(REQUIRED_PRODUCTIONS)} "
              f"productions covered, {fuzz_count} fuzz inputs, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. negotiation fidelity: fixture + independent clause-matching oracle

def _oracle_eval_plain(cond, own_ctx, counter_ctx, policy_attrs):
    """Independent conditional evaluator used only by the oracle."""
    def var(name):
        if name in policy_attrs:
            vals = [v.as_python() for v in policy_attrs[name]]
            return vals[0] if len(vals) == 1 else tuple(vals)
        return counter_ctx.attributes[name]

    if isinstance(cond.lhs, A.SizeOfData):
        left = counter_ctx.dataset.n
    elif isinstance(cond.lhs, A.VarRef):
        left = var(cond.lhs.name)
    else:
        left = cond.lhs.name
    if cond.op == "in":
        name = cond.rhs.name
        if name in policy_attrs:
            return left in tuple(v.as_python() for v in policy_attrs[name])
        member = counter_ctx if left == counter_ctx.member_id else own_ctx
        return name in member.alliances
    right = (var(cond.rhs.name) if isinstance(cond.rhs, A.VarRef)
             else cond.rhs.as_python())
    return {"=": left == right, "!=": left != right,
            "<": left < right, ">": left > right}[cond.op]


def _oracle_expand(policy, sel, own_ctx, counter_ctx, dd_true, attrs):
    if isinstance(sel, A.Filters):
        out = []
        for f in sel.items:
            value = f.value.as_python() if isinstance(f.value, A.Value) else \
                tuple(v.as_python() for v in attrs[f.value.name])
            out.append((f.column, f.op, value))
        return out
    for tag, sub in policy.sub_clauses:
        if tag != sel.tag:
            continue
        if all(_oracle_eval_plain(c, own_ctx, counter_ctx, attrs)
               for c in sub.conditionals if isinstance(c, A.Comparison)):
            return _oracle_expand(policy, sub.selections, own_ctx,
                                  counter_ctx, dd_true, attrs)
    return None


def _oracle_match(policy, kind, own_ctx, counter_ctx, dd_true):
    """Exhaustive top-down matcher: first clause whose member list covers
    the counterparty and whose conditionals all hold."""
    attrs = policy.attribute_map()
    for idx, clause in enumerate(policy.clauses):
        if clause.kind is not kind:
            continue
        if clause.members and counter_ctx.member_id not in clause.members:
            continue
        ok = True
        for cond in clause.conditionals:
            if isinstance(cond, A.Evaluate):
                ok = dd_true(cond, own_ctx, counter_ctx)
            else:
                ok = _oracle_eval_plain(cond, own_ctx, counter_ctx, attrs)
            if not ok:
                break
        if not ok:
            continue
        filters = _oracle_expand(policy, clause.selections, own_ctx,
                                 counter_ctx, dd_true, attrs)
        if filters is None:
            continue
        return idx, filters
    return None


def _oracle_agreement(requester, owner):
    def dd_true(cond, own_ctx, counter_ctx):
        a = own_ctx.dataset.column(cond.data_ref)
        b = counter_ctx.dataset.column(cond.data_ref)
        return compute_statistic(cond.algorithm, a, b) < cond.threshold

    acq = _oracle_match(requester.policy, A.ClauseKind.ACQUIRE, requester, owner,
                        dd_true)
    shr = _oracle_match(owner.policy, A.ClauseKind.SHARE, owner, requester,
                        dd_true)
    if acq is None or shr is None:
        return {"status": "empty", "filters": []}
    filters = shr[1] + acq[1]
    released = apply_selections(
        owner.dataset, [RowFilter(c, op, v) for c, op, v in filters])
    if released.n == 0:
        status = "empty"
    elif released.n == owner.dataset.n:
        status = "full"
    else:
        status = "partial"
    return {"status": status, "filters": filters,
            "provenance": (shr[0], acq[0])}


def test_criterion_2_negotiation_fidelity():
    t0 = time.perf_counter()
    m1, m2, m3 = build_contexts()
    by_id = {"M1": m1, "M2": m2, "M3": m3}
    checked = 0
    for (req, own), expect in EXPECTED_DEFAULT.items():
        got = answer_request(by_id[own], build_request(by_id[req], by_id[own].profile,
                                                       random.Random(2)))
        assert got.status == expect["status"], (req, own)
        assert filter_triples(got) == expect["filters"], (req, own)
        oracle = _oracle_agreement(by_id[req], by_id[own])
        assert got.status == oracle["status"], (req, own, "oracle")
        assert filter_triples(got) == oracle["filters"], (req, own, "oracle")
        assert got.provenance == oracle["provenance"], (req, own, "oracle")
        checked += 1

    # fine-select branch flip: c3 false routes to s3
    m1e, m2e, m3e = build_contexts(m1_continent="Europe")
    got = answer_request(m2e, build_request(m1e, m2e.profile, random.Random(2)))
    expect = EXPECTED_M1_EUROPE[("M1", "M2")]
    assert filter_triples(got) == expect["filters"]
    assert got.status == expect["status"]
    oracle = _oracle_agreement(m1e, m2e)
    assert filter_triples(got) == oracle["filters"]
    checked += 1

    # intersection-size failure routes to the fallback share clause
    m1l, m2l, m3l = build_contexts(genotype_overlap="large")
    got = answer_request(m3l, build_request(m1l, m3l.profile, random.Random(2)))
    expect = EXPECTED_LARGE_OVERLAP[("M1", "M3")]
    assert filter_triples(got) == expect["filters"]
    assert got.provenance[0] == expect["provenance_owner_clause"]
    oracle = _oracle_agreement(m1l, m3l)
    assert filter_triples(got) == oracle["filters"]
    assert got.provenance == oracle["provenance"]
    checked += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s (budget 1s)"
    report(2, f"{checked} directed negotiations match the hand fixture and "
              f"the exhaustive oracle, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 3. message-count law

def _full_mesh_contexts(n):
    schema = numeric_schema(1, dose_bounds=(1.0, 50.0))
    policy = cpl.parse_policy("acquire : : :: ;\nshare : : :: ;")
    rows = [dict(x0=0.1 * i, dose=10.0 + i) for i in range(3)]
    return [
        MemberContext(f"P{i}", policy, from_rows(schema, rows, f"P{i}"))
        for i in range(n)
    ]


@pytest.mark.parametrize("n", [3, 13, 21, 25])
def test_criterion_3_message_count_law(n):
    contexts = _full_mesh_contexts(n)
    agreements, log = negotiate_consortium(contexts, rng=random.Random(n))
    expected = 2 * n * (n - 1)
    assert len(log) == expected
    assert len(agreements) == n * (n - 1)
    report(3, f"n={n}: {len(log)} messages == 2*n*(n-1) = {expected}")


# ---------------------------------------------------------------------------
# 4. pooling / centralization equivalence over random consortia

def test_criterion_4_pooling_centralization_equivalence():
    t0 = time.perf_counter()
    params = HEParams(key_bits=192, scale_bits=40, n_max=5001, v_max=1.2e6)
    params.validate()
    gen = np.random.default_rng(0xFEED)
    worst_rel = 0.0
    worst_stat = 0.0
    for trial in range(50):
        n_members = int(gen.integers(2, 11))
        features = int(gen.integers(1, 41))
        cap = 5000 // n_members
        low = min(max(60, 4 * features), cap - 1)
        rows = int(gen.integers(low, min(low + 240, cap) + 1))
        schema, datasets, _ = synth_numeric_members(
            int(gen.integers(0, 2**31)), n_members, features,
            [rows] * n_members, noise_sigma=0.5)
        stats = {ds.provenance: local_stats(member_rows(ds, None)) for ds in datasets}
        result = run_ring_session(
            [ds.provenance for ds in datasets], datasets[0].provenance,
            stats, DesignEncoding(schema), params, random.Random(trial))

        # encrypted-path pooled statistics vs plaintext sums
        O_sum = sum(s.O for s in stats.values())
        V_sum = sum(s.V for s in stats.values())
        m = O_sum.shape[0]
        stat_err = (np.abs(result.O_pool - O_sum).sum()
                    + np.abs(result.V_pool - V_sum).sum())
        bound = n_members * m * m / params.scale
        assert stat_err <= bound, f"trial {trial}: {stat_err} > {bound}"
        worst_stat = max(worst_stat, stat_err / bound)

        # pooled OLS vs concatenated-data OLS (independent lstsq path)
        dm = to_design_matrix(concat(datasets), None)
        eta_cat, *_ = np.linalg.lstsq(dm.X, dm.Y, rcond=None)
        eta_ring = solve_ols(result.O_pool, result.V_pool,
                             condition_limit=1e10)
        rel = (np.linalg.norm(eta_ring - eta_cat)
               / np.linalg.norm(eta_cat))
        assert rel < 1e-6, f"trial {trial}: relative error {rel:.2e}"
        worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s (budget 120s)"
    report(4, f"50 random consortia: worst coeff rel err {worst_rel:.2e} "
              f"(< 1e-6), worst stat err {worst_stat:.2%} of fixed-point "
              f"bound, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. mask invariance and the homomorphism oracle

def test_criterion_5_mask_and_key_properties(small_he_params):
    members = ["P1", "P2", "P3", "P4"]
    gen = np.random.default_rng(55)
    m = 5
    schema = numeric_schema(m - 1, dose_bounds=(0.0, 40.0))
    stats = {}
    for mid in members:
        X = gen.uniform(-1, 1, (40, m))
        Y = gen.uniform(1, 30, 40)
        stats[mid] = local_stats(member_rows(
            from_rows(schema,
                      [dict({f"x{j}": X[i, j + 1] for j in range(m - 1)},
                            dose=float(Y[i])) for i in range(40)]), None))
    pools = []
    for draw in range(5):
        result = run_ring_session(members, "P1", stats, DesignEncoding(schema),
                                  small_he_params, random.Random(1000 + draw))
        pools.append((result.O_pool, result.V_pool))
    for O, V in pools[1:]:
        assert np.array_equal(O, pools[0][0]), "mask draw changed pooled O"
        assert np.array_equal(V, pools[0][1]), "mask draw changed pooled V"

    keys = keygen(small_he_params, random.Random(5))
    scale = small_he_params.scale
    rng = np.random.default_rng(5)
    rand = random.Random(5)
    worst = 0.0
    for _ in range(1000):
        A_mat = rng.uniform(-40, 40, (1, 2))
        B_mat = rng.uniform(-40, 40, (1, 2))
        D = decrypt_matrix(keys.secret, add_cipher(
            encrypt_matrix(keys.public, A_mat, scale, rand),
            encrypt_matrix(keys.public, B_mat, scale, rand)), scale)
        worst = max(worst, float(np.abs(D - (A_mat + B_mat)).max()))
        assert worst <= 1 / scale
    report(5, f"pooled output bitwise-identical across 5 mask draws; "
              f"1000-pair homomorphism worst error {worst:.2e} <= 1/S")


# ---------------------------------------------------------------------------
# 6. leakage predicates

def test_criterion_6_leakage_predicates(small_he_params):
    gen = np.random.default_rng(66)

    def session(members):
        stats = {}
        for mid in members:
            X = gen.uniform(-1, 1, (30, 3))
            X[:, 0] = 1
            Y = gen.uniform(1, 20, 30)
            from curie.ring import LocalStats
            stats[mid] = LocalStats(X.T @ X, (X.T @ Y).reshape(-1, 1), 30)
        result = run_ring_session(list(members), members[0], stats,
                                  DesignEncoding(numeric_schema(2)), small_he_params,
                                  random.Random(len(members)))
        return stats, result.transcript

    # honest-but-curious non-initiators: zero findings
    stats, transcript = session(["P1", "P2", "P3", "P4", "P5"])
    clean = audit_transcript(transcript, corrupted=set(),
                             reference_stats=stats,
                             scale=small_he_params.scale)
    assert clean.ok
    subset = audit_transcript(transcript, corrupted={"P3", "P5"},
                              reference_stats=stats,
                              scale=small_he_params.scale)
    assert subset.ok

    # 2-party: corrupted initiator recovers the honest member
    _, t2 = session(["P1", "P2"])
    two = audit_transcript(t2, corrupted={"P1"})
    assert [f.member for f in two.findings] == ["P2"]

    # 3-party: initiator plus one other
    _, t3 = session(["P1", "P2", "P3"])
    assert audit_transcript(t3, corrupted={"P1"}).ok
    three = audit_transcript(t3, corrupted={"P1", "P3"})
    assert [f.member for f in three.findings] == ["P2"]

    # n-party: predecessor and successor both corrupted
    n_case = audit_transcript(transcript, corrupted={"P1", "P3"})
    assert [f.member for f in n_case.findings] == ["P2"]
    report(6, "honest sessions audit clean; 2-party, 3-party, and n-party "
              "predecessor/successor corruption all flagged")


# ---------------------------------------------------------------------------
# 7. dd-statistics oracles, blinded decisions, transcript hygiene

def test_criterion_7_dd_statistics():
    import math

    def oracle(algorithm, a, b):
        if algorithm is A.Algorithm.INTERSECTION_SIZE:
            return float(len(set(a) & set(b)))
        if algorithm is A.Algorithm.JACCARD_INDEX:
            return len(set(a) & set(b)) / len(set(a) | set(b))
        if algorithm is A.Algorithm.PEARSON_CORRELATION:
            n = len(a)
            ma, mb = sum(a) / n, sum(b) / n
            cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
            va = sum((x - ma) ** 2 for x in a)
            vb = sum((y - mb) ** 2 for y in b)
            return cov / math.sqrt(va * vb)
        dot = sum(x * y for x, y in zip(a, b))
        return dot / (math.sqrt(sum(x * x for x in a))
                      * math.sqrt(sum(y * y for y in b)))

    gen = np.random.default_rng(77)
    worst = 0.0
    for trial in range(500):
        algorithm = list(A.Algorithm)[trial % 4]
        n = int(gen.integers(2, 50))
        if algorithm in (A.Algorithm.INTERSECTION_SIZE, A.Algorithm.JACCARD_INDEX):
            a = list(gen.integers(0, 20, n))
            b = list(gen.integers(0, 20, int(gen.integers(1, 50))))
        else:
            a = list(gen.normal(0, 4, n))
            b = list(gen.normal(0, 4, n))
        got = compute_statistic(algorithm, a, b)
        worst = max(worst, abs(got - oracle(algorithm, a, b)))
        assert worst <= 1e-12

    # the engine's blinded decision equals the plain statistic's, and the
    # request and response carry no raw value of either member
    blind_rng = random.Random(7)
    agreements = 0
    for trial in range(100):
        algorithm = list(A.Algorithm)[trial % 4]
        n = int(gen.integers(3, 40))
        if algorithm in (A.Algorithm.INTERSECTION_SIZE, A.Algorithm.JACCARD_INDEX):
            a = [f"tok{int(v)}" for v in gen.integers(0, 15, n)]
            b = [f"tok{int(v)}" for v in gen.integers(0, 15, n)]
        else:
            a = [float(v) for v in gen.normal(0, 5, n)]
            b = [float(v) for v in gen.normal(0, 5, n)]
        threshold = float(gen.uniform(-1, 16))
        requester, owner = dd_members(algorithm, threshold, a, b)
        [agreement], log = negotiate_consortium([requester, owner], rng=blind_rng)
        [entry] = agreement.dd_trace
        assert entry["decision"] == (compute_statistic(algorithm, a, b) < threshold)
        assert [m.kind for m in log] == ["acquire_request", "negotiation_output"]
        blob = b"".join(msg.payload for msg in log)
        for v in a + b:
            token = (v if isinstance(v, str) else repr(v)).encode()
            assert token not in blob, "raw member value crossed the boundary"
        agreements += 1
    report(7, f"500 statistic evaluations within 1e-12 of oracles "
              f"(worst {worst:.1e}); blinded == plain on {agreements} pairs; "
              f"transcripts free of raw values")


# ---------------------------------------------------------------------------
# 8. differential-privacy direction

def _diff_ci_upper(a, b, rng, draws=2000):
    """Upper 95% bootstrap bound on mean(a) - mean(b)."""
    a, b = np.asarray(a), np.asarray(b)
    ia = rng.integers(0, len(a), size=(draws, len(a)))
    ib = rng.integers(0, len(b), size=(draws, len(b)))
    diffs = a[ia].mean(axis=1) - b[ib].mean(axis=1)
    return float(np.quantile(diffs, 0.975))


def test_criterion_8_dp_direction(monkeypatch):
    t0 = time.perf_counter()
    cfg = load_config(config_path("default_dp"))
    assert cfg.dp.repetitions == 100
    # the sweep scores each budget's 100 models in one call; keep the
    # per-repetition MAEs of that call
    samples = []
    score = harness.mean_absolute_errors

    def kept(*args):
        maes = score(*args)
        samples.append(maes.tolist())
        return maes

    with monkeypatch.context() as patch:
        patch.setattr(harness, "mean_absolute_errors", kept)
        table = run_scenario(cfg, MODE_FULL_DP).dp_table
    for row, maes in zip(table, samples, strict=True):
        row["maes"] = maes
    epsilons = [row["epsilon"] for row in table]
    assert epsilons == [0.25, 1.0, 5.0, 20.0, 50.0, 100.0]

    # monotone non-increasing mean MAE in epsilon (bootstrap 95% CI):
    # an increase from eps_k to eps_{k+1} must not be statistically
    # supported, i.e. the upper bound of mean(k+1) - mean(k) stays over 0
    rng = np.random.default_rng(88)
    for prev, nxt in zip(table, table[1:]):
        upper = _diff_ci_upper(prev["maes"], nxt["maes"], rng)
        assert upper >= 0, (
            f"mean MAE increased from eps={prev['epsilon']} to "
            f"{nxt['epsilon']} (95% CI upper {upper:.4f} < 0)")

    by_eps = {row["epsilon"]: row for row in table}
    # pooled-over-local advantage present at eps=100 ...
    lo100, _ = by_eps[100.0]["advantage_ci"]
    assert lo100 > 0, f"advantage CI at eps=100 includes 0 (lower {lo100:.4f})"
    # ... and statistically absent at every eps <= 20
    for eps in (0.25, 1.0, 5.0, 20.0):
        lo, _ = by_eps[eps]["advantage_ci"]
        assert lo <= 0, f"advantage still present at eps={eps} (lower {lo:.4f})"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"criterion 8 took {elapsed:.1f}s (budget 600s)"
    report(8, "mean MAE non-increasing over the sweep; advantage CI "
              f"({lo100:.3f}, {by_eps[100.0]['advantage_ci'][1]:.3f}) > 0 at "
              f"eps=100 and absent for eps <= 20, "
              f"{elapsed:.1f}s for 6 budgets x 100 models")


# ---------------------------------------------------------------------------
# 9. policy-benefit direction on heterogeneous members

from curie.data import (  # noqa: E402
    Column,
    ColumnType,
    DesignEncoding,
    Schema,
    SynthProfile,
    normalized_schema,
    synth_members,
)
from curie.regression import DoseModel, clinical_metrics, encode_cohort  # noqa: E402

_HET_SCHEMA = Schema((
    Column("age", ColumnType("integer", bounds=(20, 80))),
    Column("weight", ColumnType("real", bounds=(45.0, 120.0))),
    Column("race", ColumnType("categorical", ("Asian", "Black", "White"))),
    Column("dose", ColumnType("real", bounds=(0.0, 90.0))),
), target="dose")
_HET_RACE_ETAS = {
    "Asian": (22.0, 0.04, 0.16, 8.0, 4.0),
    "Black": (38.0, 0.16, 0.04, 8.0, 4.0),
    "White": (30.0, 0.10, 0.10, 8.0, 4.0),
}
_HET_MIXES = [
    {"Asian": 0.8, "Black": 0.1, "White": 0.1},
    {"Asian": 0.1, "Black": 0.8, "White": 0.1},
    {"Asian": 0.1, "Black": 0.1, "White": 0.8},
    {"Asian": 0.34, "Black": 0.33, "White": 0.33},
]
_HET_BOUNDS = {"age": (20.0, 80.0), "weight": (45.0, 120.0),
               "dose": (0.0, 90.0)}


def _heterogeneous_round(seed):
    enc = DesignEncoding(normalized_schema(_HET_SCHEMA))
    profiles = [
        SynthProfile(f"H{i}", 240,
                     numeric_ranges={"age": (20, 80), "weight": (45.0, 120.0)},
                     categorical_mixes={"race": mix},
                     coefficients=(30.0, 0.10, 0.10, 8.0, 4.0),
                     level_column="race", level_coefficients=_HET_RACE_ETAS,
                     noise_sigma=1.2)
        for i, mix in enumerate(_HET_MIXES)
    ]
    datasets = synth_members(seed, _HET_SCHEMA, profiles)
    rng = np.random.default_rng(seed + 1)
    trains, helds = [], []
    for ds in datasets:
        tr, he = ds.split(0.25, rng)
        trains.append(tr)
        helds.append(he)
    mixed = concat(helds)
    cohort = encode_cohort(mixed, _HET_BOUNDS)

    stats = [local_stats(member_rows(t, _HET_BOUNDS)) for t in trains]
    global_model = DoseModel(
        solve_ols_pruned(sum(s.O for s in stats), sum(s.V for s in stats)),
        enc, _HET_BOUNDS)
    g_mae = clinical_metrics(global_model, cohort).mae

    wins = 0
    for t in trains:
        s = local_stats(member_rows(t, _HET_BOUNDS))
        local = DoseModel(solve_ols_pruned(s.O, s.V), enc, _HET_BOUNDS)
        if g_mae < clinical_metrics(local, cohort).mae:
            wins += 1

    race_filter = [RowFilter("race", "=", "Asian")]
    r_stats = [local_stats(member_rows(apply_selections(t, race_filter),
                                       _HET_BOUNDS))
               for t in trains if apply_selections(t, race_filter).n]
    race_model = DoseModel(
        solve_ols_pruned(sum(s.O for s in r_stats),
                         sum(s.V for s in r_stats)), enc, _HET_BOUNDS)
    asian_held = encode_cohort(apply_selections(mixed, race_filter), _HET_BOUNDS)
    race_mae = clinical_metrics(race_model, asian_held).mae
    global_on_race = clinical_metrics(global_model, asian_held).mae
    return wins, len(trains), race_mae < global_on_race


def test_criterion_9_policy_benefit_direction():
    total_wins = total_models = 0
    race_wins = 0
    for seed in range(10):
        wins, n_models, race_win = _heterogeneous_round(seed)
        total_wins += wins
        total_models += n_models
        race_wins += race_win
    assert total_wins / total_models >= 0.8, (
        f"global model beat only {total_wins}/{total_models} local models")
    assert race_wins >= 8, (
        f"race-targeted selection won only {race_wins}/10 seeds")
    report(9, f"global model beat {total_wins}/{total_models} single-source "
              f"models; race-targeted selection beat no-selection pooling on "
              f"the per-race cohort in {race_wins}/10 seeds")


# ---------------------------------------------------------------------------
# 10. benchmark shape checks

def test_criterion_10_benchmark_shapes():
    # member counts spaced so each step roughly doubles the encrypted
    # work: scheduler noise cannot invert the ordering of medians
    member_rows = bench("members", [2, 4, 10], runs=3, key_bits=192,
                        n_features=9, rows=400, seed=10)
    enc_times = [r["encrypted_total"] for r in member_rows]
    assert enc_times[0] < enc_times[1] < enc_times[2], (
        f"encrypted-phase time not monotone in members: {enc_times}")

    keygen_times = [r["keygen"] for r in member_rows]
    spread = max(keygen_times) / max(min(keygen_times), 1e-9)
    assert spread < 4.0, (
        f"keygen time varies with member count: {keygen_times}")

    # per-session work (m=41, five parties, 181 packed ciphertexts a hop)
    # of ~0.04s of ciphertext operations with libcrypto's exponentiation,
    # ~0.18s with the builtin pow; scheduler noise still passes the 20%
    # bound in about 1 fresh run of 12 either way
    row_rows = bench("rows", [200, 1000, 5000], runs=3, key_bits=192,
                     n_features=40, n_members=5, seed=11)
    enc = [r["encrypted_total"] for r in row_rows]
    variation = (max(enc) - min(enc)) / min(enc)
    assert variation < 0.20, (
        f"encrypted-phase time varied {variation:.1%} across row counts")
    report(10, f"encrypted phase monotone over members {enc_times}; keygen "
               f"spread x{spread:.2f}; row-count variation {variation:.1%}")
