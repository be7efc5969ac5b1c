import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curie import crypto
from curie.crypto import HEParams, MalformedPayload
from curie.data import Column, ColumnType, Dataset, DesignEncoding, Schema, SynthProfile, \
    numeric_schema, synth_members, to_design_matrix
from curie.ring import (
    PHASE_PUBLIC_KEY,
    PHASE_RING,
    CellPlan,
    EmptyRelease,
    LocalStats,
    OverflowAbort,
    ProtocolError,
    audit_transcript,
    local_stats,
    member_rows,
    run_ring_session,
)

from conftest import CONSORTIA_DIR, config_path, count_crypto_calls, warfarin_schema
from worked_example import build_contexts


def _encoding(m):
    """The design encoding of m columns: the intercept and m - 1 numerics."""
    return DesignEncoding(numeric_schema(m - 1))


def _random_stats(rng, m, rows=50):
    X = rng.uniform(-1, 1, (rows, m))
    X[:, 0] = 1
    Y = rng.uniform(0, 30, rows)
    return LocalStats(X.T @ X, (X.T @ Y).reshape(-1, 1), rows)


def _session(members, params, seed=3, m=4, empty=()):
    gen = np.random.default_rng(seed)
    stats = {mid: (None if mid in empty else _random_stats(gen, m))
             for mid in members}
    result = run_ring_session(list(members), members[0], stats, _encoding(m), params,
                              random.Random(seed))
    return stats, result


# ---------------------------------------------------------------------------
# local_stats

def test_single_row_stats_are_rank_one_outer_product():
    m1, _, _ = build_contexts()
    ds = m1.dataset.take([0])
    stats = local_stats(member_rows(ds, None))
    dm_x = stats.O
    assert stats.n == 1
    assert np.linalg.matrix_rank(dm_x) == 1
    assert stats.V[0, 0] == pytest.approx(ds.column("dose")[0])  # intercept entry


def test_stats_match_row_loop_oracle():
    m1, _, _ = build_contexts()
    stats = local_stats(member_rows(m1.dataset, None))
    dm = to_design_matrix(m1.dataset, None)
    O = np.zeros((dm.X.shape[1], dm.X.shape[1]))
    V = np.zeros(dm.X.shape[1])
    for i in range(dm.X.shape[0]):
        O += np.outer(dm.X[i], dm.X[i])
        V += dm.X[i] * dm.Y[i]
    np.testing.assert_allclose(stats.O, O, atol=1e-12)
    np.testing.assert_allclose(stats.V.reshape(-1), V, atol=1e-12)


def test_member_rows_refuses_no_rows():
    m1, _, _ = build_contexts()
    with pytest.raises(EmptyRelease, match="M1"):
        member_rows(m1.dataset.take([]), None)


def test_stats_of_a_mask_are_the_stats_of_its_rows():
    m1, _, _ = build_contexts()
    keep = m1.dataset.column("race") == "Asian"
    stats = local_stats(member_rows(m1.dataset, None), keep)
    kept = local_stats(member_rows(m1.dataset.take(keep), None))
    assert stats.n == kept.n == keep.sum() > 0
    np.testing.assert_array_equal(stats.O, kept.O)
    np.testing.assert_array_equal(stats.V, kept.V)


# ---------------------------------------------------------------------------
# ring sessions

def test_pooled_equals_plaintext_sums(small_he_params):
    members = ["P1", "P2", "P3"]
    stats, result = _session(members, small_he_params)
    O_exp = sum(s.O for s in stats.values())
    V_exp = sum(s.V for s in stats.values())
    n = len(members)
    m = O_exp.shape[0]
    tol = n * m * m / small_he_params.scale
    assert np.abs(result.O_pool - O_exp).max() <= tol
    assert np.abs(result.V_pool - V_exp).max() <= tol
    assert result.n_pool == sum(s.n for s in stats.values())


def test_two_member_session(small_he_params):
    stats, result = _session(["P1", "P2"], small_he_params)
    np.testing.assert_allclose(result.O_pool, stats["P1"].O + stats["P2"].O,
                               atol=1e-5)


def test_a_slot_that_fits_its_key_validates_and_pools_exactly():
    # a 72-bit slot in a 128-bit key: one slot per plaintext
    params = HEParams(key_bits=128, scale_bits=56, n_max=100, v_max=10.0)
    params.validate()
    gen = np.random.default_rng(4)
    stats = {}
    for mid in ("P1", "P2"):
        X = gen.integers(-4, 5, (10, 4)) / 4    # dyadic, so encoding is exact
        X[:, 0] = 1
        Y = gen.integers(0, 11, 10).astype(float)
        stats[mid] = LocalStats(X.T @ X, (X.T @ Y).reshape(-1, 1), 10)
    result = run_ring_session(["P1", "P2"], "P1", stats, _encoding(4), params,
                              random.Random(0))
    assert result.transcript.layout.per_plaintext == 1
    np.testing.assert_array_equal(result.O_pool, stats["P1"].O + stats["P2"].O)
    np.testing.assert_array_equal(result.V_pool, stats["P1"].V + stats["P2"].V)
    assert result.n_pool == 20


def test_more_rows_than_the_session_bound_abort_before_keygen(monkeypatch):
    # five members of 100 rows with x1 = 10 pool O[1,1] = 50000; slots
    # sized for n_max = 100 rows used to carry it into the next slot and
    # return -15536 without an error
    params = HEParams(key_bits=256, scale_bits=20, n_max=100, v_max=10.0)
    X = np.column_stack([np.ones(100), np.full(100, 10.0)])
    Y = np.ones(100)
    stats = LocalStats(X.T @ X, (X.T @ Y).reshape(-1, 1), 100)
    members = ["P1", "P2", "P3", "P4", "P5"]
    calls = {"encrypt": 0, "decrypt": 0}
    count_crypto_calls(monkeypatch, calls)
    with pytest.raises(OverflowAbort, match="500 pooled rows"):
        run_ring_session(members, "P1", dict.fromkeys(members, stats), _encoding(2),
                         params, random.Random(0))
    assert calls == {"encrypt": 0, "decrypt": 0}


def test_empty_contributor_adds_zeros(small_he_params):
    members = ["P1", "P2", "P3"]
    stats, result = _session(members, small_he_params, empty=("P2",))
    O_exp = stats["P1"].O + stats["P3"].O
    assert np.abs(result.O_pool - O_exp).max() <= 1e-5
    # P2 still appears in the transcript as a hop
    hops = [(m.sender, m.receiver) for m in result.transcript.log
            if m.kind == "ring_accumulate"]
    assert ("P1", "P2") in hops and ("P2", "P3") in hops


def test_message_complexity_law(small_he_params):
    for n in (2, 3, 5, 7):
        members = [f"P{i}" for i in range(n)]
        _, result = _session(members, small_he_params, seed=n)
        log = result.transcript.log
        kinds = Counter(m.kind for m in log)
        assert kinds["public_key"] == n - 1
        assert kinds["ring_accumulate"] == n
        assert len(log) == 2 * n - 1


def test_mask_invariance_bitwise(small_he_params):
    members = ["P1", "P2", "P3", "P4"]
    gen = np.random.default_rng(5)
    stats = {mid: _random_stats(gen, 3) for mid in members}
    pools = []
    for seed in (1, 22, 333, 4444, 55555):
        result = run_ring_session(members, "P1", stats, _encoding(3), small_he_params,
                                  random.Random(seed))
        pools.append((result.O_pool, result.V_pool))
    for O, V in pools[1:]:
        assert np.array_equal(O, pools[0][0])
        assert np.array_equal(V, pools[0][1])


def test_ring_rotation_starts_at_initiator(small_he_params):
    members = ["P1", "P2", "P3", "P4"]
    gen = np.random.default_rng(5)
    stats = {mid: _random_stats(gen, 3) for mid in members}
    result = run_ring_session(members, "P3", stats, _encoding(3), small_he_params,
                              random.Random(0))
    assert result.transcript.ring == ("P3", "P4", "P1", "P2")
    O_exp = sum(s.O for s in stats.values())
    assert np.abs(result.O_pool - O_exp).max() <= 1e-5


def test_every_message_parses_whole_with_its_receivers_parser(small_he_params):
    # the transcript logs the bytes each member parses: a key of the
    # session's size, then one vector of the session's width per hop
    _, result = _session(["P1", "P2", "P3", "P4"], small_he_params)
    width = result.transcript.layout.plaintexts
    pk = None
    for msg in result.transcript.log:
        if msg.kind == PHASE_PUBLIC_KEY:
            pk = crypto.parse_public_key(msg.payload)
            assert pk.n.bit_length() == small_he_params.key_bits
        else:
            assert msg.kind == PHASE_RING
            C = crypto.parse_cipher_matrix(msg.payload, pk)
            assert len(C.cells) == width
            assert crypto.serialize_cipher_matrix(C) == msg.payload


def test_a_missing_ring_member_is_a_protocol_error(small_he_params):
    gen = np.random.default_rng(2)
    with pytest.raises(ProtocolError, match="P3"):
        run_ring_session(["P1", "P2", "P3"], "P1",
                         {"P1": _random_stats(gen, 2), "P2": None}, _encoding(2),
                         small_he_params, random.Random(0))


# ---------------------------------------------------------------------------
# audits

def test_honest_non_initiators_leak_nothing(small_he_params):
    members = ["P1", "P2", "P3", "P4", "P5"]
    stats, result = _session(members, small_he_params)
    report = audit_transcript(result.transcript, corrupted=set(),
                              reference_stats=stats,
                              scale=small_he_params.scale)
    assert report.ok
    report = audit_transcript(result.transcript, corrupted={"P2", "P4"},
                              reference_stats=stats,
                              scale=small_he_params.scale)
    assert report.ok  # no secret key without the initiator


def test_two_party_corrupted_initiator(small_he_params):
    stats, result = _session(["P1", "P2"], small_he_params)
    report = audit_transcript(result.transcript, corrupted={"P1"})
    assert [f.member for f in report.findings] == ["P2"]
    assert report.findings[0].kind == "input_recoverable"


def test_three_party_needs_second_corruption(small_he_params):
    stats, result = _session(["P1", "P2", "P3"], small_he_params)
    alone = audit_transcript(result.transcript, corrupted={"P1"})
    assert alone.ok
    pair = audit_transcript(result.transcript, corrupted={"P1", "P3"})
    assert [f.member for f in pair.findings] == ["P2"]


def test_n_party_predecessor_successor_rule(small_he_params):
    members = ["P1", "P2", "P3", "P4", "P5"]
    stats, result = _session(members, small_he_params)
    report = audit_transcript(result.transcript, corrupted={"P1", "P3"})
    assert [f.member for f in report.findings] == ["P2"]
    # the ring is cyclic: with P4 corrupted, P5 sits between P4 and the
    # corrupted initiator and is recoverable too
    report = audit_transcript(result.transcript, corrupted={"P1", "P4"})
    assert [f.member for f in report.findings] == ["P5"]
    report = audit_transcript(result.transcript, corrupted={"P1", "P2", "P4"})
    assert [f.member for f in report.findings] == ["P3", "P5"]
    # corrupted initiator alone leaks nothing once n > 2
    report = audit_transcript(result.transcript, corrupted={"P1"})
    assert report.ok


def test_plaintext_injection_is_caught(small_he_params):
    # simulate a buggy member that forwards plaintext statistics
    from curie.ring import Transcript
    from curie.transport import MessageLog

    keys = crypto.keygen(small_he_params, random.Random(0))
    gen = np.random.default_rng(1)
    stats = {"P2": _random_stats(gen, 2)}
    scale = small_he_params.scale
    encoded = crypto.encode_matrix(stats["P2"].O, scale)
    leaked = crypto.CipherMatrix(
        keys.public, tuple(keys.public.from_signed(k) for k in encoded))
    log = MessageLog()
    log.send("P1", "P2", PHASE_PUBLIC_KEY, crypto.serialize_public_key(keys.public))
    log.send("P2", "P1", PHASE_RING, crypto.serialize_cipher_matrix(leaked))
    plan = CellPlan.for_encoding(_encoding(2))
    transcript = Transcript("P1", ("P1", "P2"), log,
                            plan.layout(small_he_params, keys.public), plan)
    report = audit_transcript(transcript, corrupted=set(),
                              reference_stats=stats, scale=scale)
    assert any(f.kind == "plaintext_leak" for f in report.findings)


def _with_ring_payload(transcript, member, cells):
    """The transcript with *member*'s ring payload replaced by the
    ciphertext vector ``cells(pk, payload)`` returns."""
    from curie.ring import Transcript
    from curie.transport import MessageLog

    pk = None
    log = MessageLog()
    for msg in transcript.log:
        payload = msg.payload
        if msg.kind == PHASE_PUBLIC_KEY:
            pk = crypto.parse_public_key(payload)
        elif msg.sender == member:
            payload = crypto.serialize_cipher_matrix(
                crypto.CipherMatrix(pk, tuple(cells(pk, payload))))
        log.send(msg.sender, msg.receiver, msg.kind, payload)
    return Transcript(transcript.initiator, transcript.ring, log, transcript.layout,
                      transcript.plan)


def _forward_packed_plaintext(transcript, stats, member, params):
    """The transcript with *member*'s ring payload replaced by the packed
    plaintexts of its open cells, as a buggy member forwarding them
    would send it."""
    packed = transcript.layout.pack(
        transcript.plan.encode(stats[member], params.scale, member))
    return _with_ring_payload(transcript, member,
                              lambda pk, _: (pk.from_signed(P) for P in packed))


def test_member_forwarding_its_packed_plaintext_is_caught(small_he_params):
    # a buggy member forwards its packed plaintexts in place of the
    # ciphertext sum: the audit finds them both as byte patterns and as
    # plaintext-range cells
    members = ["P1", "P2", "P3"]
    stats, result = _session(members, small_he_params)
    transcript = result.transcript
    layout = transcript.layout
    assert layout is not None and layout.per_plaintext > 1
    forged = _forward_packed_plaintext(transcript, stats, "P2", small_he_params)
    report = audit_transcript(forged, corrupted=set(), reference_stats=stats,
                              scale=small_he_params.scale)
    leaks = [f for f in report.findings if f.kind == "plaintext_leak"]
    assert "P2" in {f.member for f in leaks}
    assert all(f.detail.endswith("P2") for f in leaks)    # all in P2's payload
    assert any("bytes appear" in f.detail for f in leaks)
    assert any("plaintext-range cell" in f.detail for f in leaks)
    assert audit_transcript(transcript, corrupted=set(), reference_stats=stats,
                            scale=small_he_params.scale).ok


def test_a_leak_of_a_shared_plaintext_names_every_holder(small_he_params):
    # P2 and P3 hold identical statistics, so P2's leaked packed
    # plaintexts are P3's too: each finding is reported for both (P1's
    # other row count keeps the count's plaintext from being P1's too)
    gen = np.random.default_rng(5)
    shared = _random_stats(gen, 4)
    stats = {"P1": _random_stats(gen, 4, rows=40), "P2": shared, "P3": shared}
    result = run_ring_session(["P1", "P2", "P3"], "P1", stats, _encoding(4),
                              small_he_params, random.Random(5))
    forged = _forward_packed_plaintext(result.transcript, stats, "P2",
                                       small_he_params)
    report = audit_transcript(forged, corrupted=set(), reference_stats=stats,
                              scale=small_he_params.scale)
    named = Counter(f.member for f in report.findings if f.kind == "plaintext_leak")
    assert set(named) == {"P2", "P3"} and named["P2"] == named["P3"]


def _member_with_key(small_he_params, m):
    from curie.ring import _RingMember

    keys = crypto.keygen(small_he_params, random.Random(0))
    member = _RingMember("P2", None, CellPlan.for_encoding(_encoding(m)),
                         small_he_params, random.Random(1))
    member.on_public_key(crypto.serialize_public_key(keys.public))
    return keys.public, member


def test_a_member_refuses_a_key_of_another_size(small_he_params):
    # a 64-bit modulus holds a slot of this session but anyone can factor it
    from dataclasses import replace

    from curie.ring import _RingMember

    member = _RingMember("P2", None, CellPlan.for_encoding(_encoding(2)),
                         small_he_params, random.Random(1))
    for bits in (64, small_he_params.key_bits + 8):
        keys = crypto.keygen(replace(small_he_params, key_bits=bits), random.Random(0))
        with pytest.raises(ProtocolError, match=f"P2: a {bits}-bit key"):
            member.on_public_key(crypto.serialize_public_key(keys.public))
    assert member.pk is None


def test_ring_payload_must_be_one_packed_matrix(small_he_params):
    pk, member = _member_with_key(small_he_params, 3)
    width = member.layout.plaintexts

    def payload(*lengths):
        return b"".join(crypto.serialize_cipher_matrix(crypto.encrypt_encoded_matrix(
            pk, [0] * length, random.Random(2))) for length in lengths)

    member.on_accumulate(payload(width))
    for lengths in ([width + 1], [width - 1], [width, width], [width, 1]):
        with pytest.raises(ProtocolError):
            member.on_accumulate(payload(*lengths))
    for tail in (b"\x00", b"\x00\x00\x00\x05\x01"):
        with pytest.raises(MalformedPayload):
            member.on_accumulate(payload(width) + tail)


def test_entry_past_the_slot_bound_aborts_before_encrypting(small_he_params,
                                                            monkeypatch):
    m = 2
    bound = small_he_params.entry_bound / small_he_params.scale
    huge = LocalStats(np.array([[1.0, 0.0], [0.0, 2 * bound]]),
                      np.zeros((m, 1)), 1)
    calls = {"encrypt": 0, "decrypt": 0}
    count_crypto_calls(monkeypatch, calls)
    stats = {"P1": None, "P2": huge, "P3": huge}
    with pytest.raises(OverflowAbort, match="P2"):
        run_ring_session(["P1", "P2", "P3"], "P1", stats, _encoding(m), small_he_params,
                         random.Random(0))
    keys = crypto.keygen(small_he_params, random.Random(0))
    layout = CellPlan.for_encoding(_encoding(m)).layout(small_he_params, keys.public)
    assert calls["encrypt"] == layout.plaintexts    # the masks only


def test_members_within_the_pooled_bound_that_overflow_a_slot_abort():
    # 500 pooled rows within n_max, but x1 = 2.2 past v_max: five members'
    # O[1,1] = 2420 would wrap its 31-bit slot and pool as 372
    params = HEParams(key_bits=256, scale_bits=20, n_max=500, v_max=1.0)
    X = np.column_stack([np.ones(100), np.full(100, 2.2)])
    stats = LocalStats(X.T @ X, (X.T @ np.full(100, 0.5)).reshape(-1, 1), 100)
    members = ["P1", "P2", "P3", "P4", "P5"]
    with pytest.raises(OverflowAbort, match="P2"):
        run_ring_session(members, "P1", dict.fromkeys(members, stats), _encoding(2),
                         params, random.Random(0))


def test_each_member_encrypts_one_packed_vector(small_he_params, monkeypatch):
    counts = {"encrypt": 0, "decrypt": 0}
    count_crypto_calls(monkeypatch, counts)
    members = ["P1", "P2", "P3", "P4"]
    _, result = _session(members, small_he_params)
    width = result.transcript.layout.plaintexts
    assert width == 7    # 14 open cells, two 60-bit slots per 128-bit plaintext
    assert counts == {"encrypt": len(members) * width, "decrypt": width}


# ---------------------------------------------------------------------------
# cells the design encoding fixes

def _fixed_point_sums(stats, scale):
    """The plain reference for a pool: every entry of O and V summed
    over *stats* in fixed point, then divided by the scale."""
    def pooled(arrays):
        cells = zip(*(np.asarray(a).reshape(-1).tolist() for a in arrays))
        sums = [sum(crypto.encode_fixed(v, scale) for v in cell) / scale for cell in cells]
        return np.array(sums).reshape(np.shape(arrays[0]))
    stats = list(stats)
    return pooled([s.O for s in stats]), pooled([s.V for s in stats])


def _warfarin_stats(members, rows):
    schema = warfarin_schema()
    profiles = [SynthProfile(mid, rows, coefficients=(30.0,) + (0.0,) * 14,
                             noise_sigma=2.0) for mid in members]
    return DesignEncoding(schema), {
        ds.provenance: local_stats(member_rows(ds, schema.bounds))
        for ds in synth_members(7, schema, profiles)}


def test_a_warfarin_session_encrypts_only_the_open_cells(monkeypatch):
    # 15 design columns make 135 cells; the encoding fixes the 11
    # diagonal cells of 0/1 columns and the 12 level pairs within
    # vkorc1, cyp2c9 and race: of the 112 open cells, 55 are row counts
    # (O[0,0] among them) in 13-bit slots beside 57 in 33-bit ones,
    # 11 plaintexts where 7 uniform slots per plaintext would take 16
    members = ["P1", "P2", "P3"]
    encoding, stats = _warfarin_stats(members, rows=400)
    params = HEParams(key_bits=256, scale_bits=20, n_max=1200, v_max=1.0)
    counts = {"encrypt": 0, "decrypt": 0}
    count_crypto_calls(monkeypatch, counts)
    result = run_ring_session(members, "P1", stats, encoding, params,
                              random.Random(0))
    assert result.transcript.layout.per_plaintext == 7
    plan = result.transcript.plan
    assert (plan.cells, len(plan.fixed), sum(plan.counts)) == (112, 23, 55)
    assert counts == {"encrypt": 11 * len(members), "decrypt": 11}
    # the rebuilt cells pool bit-identically to sums of every cell
    O, V = _fixed_point_sums(stats.values(), params.scale)
    assert np.array_equal(result.O_pool, O) and np.array_equal(result.V_pool, V)
    assert result.n_pool == O[0, 0] == 1200


def _break_cross_term(O):
    O[4, 5] = O[5, 4] = 1.0     # vkorc1's two one-hot levels meet


def _break_boolean_diagonal(O):
    O[13, 13] += 1.0            # inducer squared differs from its sum


def _break_row_count(O):
    O[0, 0] -= 1.0              # the intercept's square is not the count


@pytest.mark.parametrize("member", ["P1", "P3"])
@pytest.mark.parametrize("corrupt", [_break_cross_term, _break_boolean_diagonal,
                                     _break_row_count])
def test_statistics_breaking_the_encoding_are_refused_before_encrypting(
        member, corrupt, monkeypatch):
    members = ["P1", "P2", "P3"]
    encoding, stats = _warfarin_stats(members, rows=40)
    O = stats[member].O.copy()
    corrupt(O)
    stats[member] = LocalStats(O, stats[member].V, stats[member].n)
    params = HEParams(key_bits=256, scale_bits=20, n_max=120, v_max=1.0)
    calls = {"encrypt": 0, "decrypt": 0}
    count_crypto_calls(monkeypatch, calls)
    with pytest.raises(ProtocolError, match=f"^{member}: O\\["):
        run_ring_session(members, "P1", stats, encoding, params, random.Random(0))
    assert calls == {"encrypt": 0, "decrypt": 0}


def test_a_planted_open_cell_is_caught(small_he_params):
    # one open fixed-point cell of P2's in place of a ciphertext of its
    # payload (its row count, O[0,0], is every member's)
    members = ["P1", "P2", "P3"]
    stats, result = _session(members, small_he_params)
    transcript = result.transcript
    plan = transcript.plan
    cell = next(e for e, count in zip(plan.encode(stats["P2"], small_he_params.scale, "P2"),
                                      plan.counts) if not count)
    forged = _with_ring_payload(
        transcript, "P2",
        lambda pk, payload: (pk.from_signed(cell),
                             *crypto.parse_cipher_matrix(payload, pk).cells[1:]))
    report = audit_transcript(forged, corrupted=set(), reference_stats=stats,
                              scale=small_he_params.scale)
    leaks = [f for f in report.findings if f.kind == "plaintext_leak"]
    assert leaks and {f.member for f in leaks} == {"P2"}
    assert all(f.detail.endswith("P2") for f in leaks)


def test_a_count_cell_that_is_not_a_whole_count_is_refused_before_encrypting(
        monkeypatch):
    # O[0,13] = O[13,13] keeps the fixed-cell identity, so only the
    # count check stands between 3.5 rows and the ring
    members = ["P1", "P2", "P3"]
    encoding, stats = _warfarin_stats(members, rows=40)
    O = stats["P2"].O.copy()
    O[0, 13] = O[13, 0] = O[13, 13] = 3.5     # inducer on three and a half rows
    stats["P2"] = LocalStats(O, stats["P2"].V, stats["P2"].n)
    params = HEParams(key_bits=256, scale_bits=20, n_max=120, v_max=1.0)
    calls = {"encrypt": 0, "decrypt": 0}
    count_crypto_calls(monkeypatch, calls)
    with pytest.raises(ProtocolError,
                       match=r"^P2: O\[0,13\] is 3.5, but the design encoding makes "
                             r"it a whole count of rows"):
        run_ring_session(members, "P1", stats, encoding, params, random.Random(0))
    assert calls == {"encrypt": 0, "decrypt": 0}


def test_a_member_forwarding_its_mixed_width_plaintexts_is_caught():
    # warfarin members pack row counts in narrow slots beside wide ones;
    # the audit packs each member's statistics as the member does
    members = ["P1", "P2", "P3"]
    encoding, stats = _warfarin_stats(members, rows=40)
    params = HEParams(key_bits=256, scale_bits=20, n_max=120, v_max=1.0)
    result = run_ring_session(members, "P1", stats, encoding, params,
                              random.Random(0))
    assert len(set(result.transcript.layout.widths)) == 2
    assert audit_transcript(result.transcript, corrupted=set(), reference_stats=stats,
                            scale=params.scale).ok
    forged = _forward_packed_plaintext(result.transcript, stats, "P2", params)
    report = audit_transcript(forged, corrupted=set(), reference_stats=stats,
                              scale=params.scale)
    leaks = [f for f in report.findings if f.kind == "plaintext_leak"]
    assert "P2" in {f.member for f in leaks}
    assert all(f.detail.endswith("P2") for f in leaks)    # all in P2's payload
    assert any("bytes appear" in f.detail for f in leaks)
    assert any("plaintext-range cell" in f.detail for f in leaks)
    # one whole count of P2's, as P2 packs it, in place of a ciphertext
    plan = result.transcript.plan
    count = next(e for e, c in zip(plan.encode(stats["P2"], params.scale, "P2"),
                                   plan.counts) if c and e)
    planted = _with_ring_payload(
        result.transcript, "P2",
        lambda pk, payload: (pk.from_signed(count),
                             *crypto.parse_cipher_matrix(payload, pk).cells[1:]))
    report = audit_transcript(planted, corrupted=set(), reference_stats=stats,
                              scale=params.scale)
    assert "P2" in {f.member for f in report.findings if f.kind == "plaintext_leak"}


# ---------------------------------------------------------------------------
# per-cell slot widths

_KINDS = st.sampled_from(["numeric", "categorical", "boolean"])


def _drawn_schema(kinds, levels):
    columns = []
    for i, (kind, count) in enumerate(zip(kinds, levels)):
        if kind == "numeric":
            columns.append(Column(f"c{i}", ColumnType("real", bounds=(-1.0, 1.0))))
        elif kind == "categorical":
            columns.append(Column(f"c{i}", ColumnType(
                "categorical", tuple(f"l{j}" for j in range(count)))))
        else:
            columns.append(Column(f"c{i}", ColumnType("boolean")))
    columns.append(Column("y", ColumnType("real", bounds=(-1.0, 1.0))))
    return Schema(tuple(columns), target="y")


def _rows_at_bounds(schema, rows, gen):
    """*rows* rows whose numeric values are all -1 or 1 and whose
    booleans all hold, so every O, V and count entry is at its bound
    or its sign's."""
    columns = {}
    for c in schema.columns:
        if c.ctype.kind == "real":
            columns[c.name] = gen.choice([-1.0, 1.0], rows)
        elif c.ctype.kind == "categorical":
            columns[c.name] = gen.choice(list(c.ctype.levels), rows).astype(object)
        else:
            columns[c.name] = np.ones(rows, dtype=bool)
    return Dataset(schema, columns)


def _pool_in_residues(layout, pk, vectors, rand):
    """Pack each vector, add the packed plaintexts to a residue mask mod
    n as the ring's ciphertexts add them, and unpack the sums."""
    mask = [rand.randrange(pk.n) for _ in range(layout.plaintexts)]
    acc = list(mask)
    for entries in vectors:
        acc = [(a + pk.from_signed(P)) % pk.n for a, P in zip(acc, layout.pack(entries))]
    return layout.unpack([pk.to_signed((a - m) % pk.n) for a, m in zip(acc, mask)])


@settings(max_examples=80, deadline=None)
@given(kinds=st.lists(_KINDS, max_size=6), levels=st.lists(st.integers(2, 4),
                                                            min_size=6, max_size=6),
       rows=st.lists(st.integers(1, 60), min_size=1, max_size=4),
       bits=st.sampled_from([128, 256, 1024]), data=st.data())
def test_mixed_widths_pool_as_the_uniform_layout_does(kinds, levels, rows, bits, data):
    # members' rows at their bounds, encoded by the plan, packed in
    # mixed-width slots, added in residues and decoded, pool exactly
    # what every cell summed in fixed point pools, in no more plaintexts
    # than slots all as wide as a fixed-point cell's take
    schema = _drawn_schema(kinds, levels)
    plan = CellPlan.for_encoding(DesignEncoding(schema))
    params = HEParams(key_bits=bits, scale_bits=20, n_max=sum(rows), v_max=1.0)
    pk = crypto.PublicKey(data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1)
    layout = plan.layout(params, pk)
    uniform = crypto.SlotLayout((params.entry_bound,) * plan.cells, layout.capacity)
    assert layout.plaintexts <= uniform.plaintexts
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    stats = [local_stats(to_design_matrix(_rows_at_bounds(schema, r, gen), None))
             for r in rows]
    sent = [plan.encode(s, params.scale, "P") for s in stats]
    pooled = _pool_in_residues(layout, pk, sent, random.Random(0))
    assert pooled == [sum(column) for column in zip(*sent)]
    O, V = plan.decode(pooled, params.scale)
    O_ref, V_ref = _fixed_point_sums(stats, params.scale)
    assert np.array_equal(O, O_ref) and np.array_equal(V, V_ref)
    assert int(O[0, 0]) == sum(rows)


@pytest.mark.parametrize("name", sorted(p.name for p in CONSORTIA_DIR.iterdir()
                                        if (p / "config.json").exists()))
def test_no_shipped_consortium_needs_more_plaintexts_than_uniform_slots(name):
    # layout arithmetic only: the smallest and largest modulus of each
    # size, no key or encryption; the ciphertexts per member at 256,
    # 1024 and 2048 bits
    from dataclasses import replace

    from curie.harness import _session_params, build_scenario, load_config

    expected = {"default_dp": (3, 1, 1), "example3": (6, 2, 1)}.get(name, (12, 3, 2))
    scenario = build_scenario(load_config(config_path(name)))
    plan = CellPlan.for_encoding(scenario.encoding)
    for bits, plaintexts in zip((256, 1024, 2048), expected):
        params = _session_params(replace(scenario.config.he, key_bits=bits),
                                 [ctx.dataset.n for ctx in scenario.contexts])
        for n in ((1 << (bits - 1)) + 1, (1 << bits) - 1):
            layout = plan.layout(params, crypto.PublicKey(n))
            assert layout.plaintexts == plaintexts, (name, bits)


def test_a_row_count_other_than_o00_is_refused_before_encrypting(monkeypatch):
    # O[0,0] is the intercept's square, so it is the member's row count;
    # a member claiming another count is refused, naming it
    members = ["P1", "P2", "P3"]
    encoding, stats = _warfarin_stats(members, rows=40)
    stats["P2"] = LocalStats(stats["P2"].O, stats["P2"].V, 41)
    params = HEParams(key_bits=256, scale_bits=20, n_max=121, v_max=1.0)
    calls = {"encrypt": 0, "decrypt": 0}
    count_crypto_calls(monkeypatch, calls)
    with pytest.raises(ProtocolError,
                       match=r"^P2: O\[0,0\] is 40.0, but its statistics count 41 rows$"):
        run_ring_session(members, "P1", stats, encoding, params, random.Random(0))
    assert calls == {"encrypt": 0, "decrypt": 0}
