import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from curie.crypto import HEParams
from curie.data import RowFilter
from curie.engine import Agreement
from curie.errors import CurieError
from curie.ring import (
    PHASE_RING,
    EmptyRelease,
    LocalStats,
    OverflowAbort,
    ProtocolError,
    audit_transcript,
    local_stats,
    pack_envelope,
    run_ring_session,
    stat_cells,
    unpack_envelope,
)

from conftest import count_crypto_calls
from wire_fuzz import byte_mutations
from worked_example import build_contexts


def _random_stats(rng, m, rows=50):
    X = rng.uniform(-1, 1, (rows, m))
    Y = rng.uniform(0, 30, rows)
    return LocalStats(X.T @ X, (X.T @ Y).reshape(-1, 1), rows)


def _session(members, params, seed=3, m=4, empty=()):
    gen = np.random.default_rng(seed)
    stats = {mid: (None if mid in empty else _random_stats(gen, m))
             for mid in members}
    result = run_ring_session(list(members), members[0],
                              lambda mid: stats[mid], params,
                              random.Random(seed))
    return stats, result


# ---------------------------------------------------------------------------
# local_stats

def test_single_row_stats_are_rank_one_outer_product():
    m1, _, _ = build_contexts()
    ds = m1.dataset.take([0])
    stats = local_stats(ds)
    dm_x = stats.O
    assert stats.n == 1
    assert np.linalg.matrix_rank(dm_x) == 1
    assert stats.V[0, 0] == pytest.approx(ds.column("dose")[0])  # intercept entry


def test_stats_match_row_loop_oracle():
    m1, _, _ = build_contexts()
    stats = local_stats(m1.dataset)
    from curie.data import to_design_matrix
    dm = to_design_matrix(m1.dataset)
    O = np.zeros((dm.X.shape[1], dm.X.shape[1]))
    V = np.zeros(dm.X.shape[1])
    for i in range(dm.X.shape[0]):
        O += np.outer(dm.X[i], dm.X[i])
        V += dm.X[i] * dm.Y[i]
    np.testing.assert_allclose(stats.O, O, atol=1e-12)
    np.testing.assert_allclose(stats.V.reshape(-1), V, atol=1e-12)


def test_empty_release_raises():
    m1, _, _ = build_contexts()
    agreement = Agreement("M1", "M3", "partial",
                          selections=(RowFilter("age", ">", 999),))
    with pytest.raises(EmptyRelease):
        local_stats(m1.dataset, agreement)
    empty = Agreement("M1", "M3", "empty")
    with pytest.raises(EmptyRelease):
        local_stats(m1.dataset, empty)


def test_agreement_filters_are_applied():
    m1, _, _ = build_contexts()
    agreement = Agreement("M1", "M3", "partial",
                          selections=(RowFilter("race", "=", "Asian"),))
    stats = local_stats(m1.dataset, agreement)
    expected_rows = sum(1 for race in m1.dataset.column("race") if race == "Asian")
    assert stats.n == expected_rows


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
        Y = gen.integers(0, 11, 10).astype(float)
        stats[mid] = LocalStats(X.T @ X, (X.T @ Y).reshape(-1, 1), 10)
    result = run_ring_session(["P1", "P2"], "P1", stats.get, params,
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
        run_ring_session(members, "P1", lambda mid: stats, params,
                         random.Random(0))
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
        assert log.count("public_key") == n - 1
        assert log.count("ring_accumulate") == n
        assert len(log) == 2 * n - 1


def test_mask_invariance_bitwise(small_he_params):
    members = ["P1", "P2", "P3", "P4"]
    gen = np.random.default_rng(5)
    stats = {mid: _random_stats(gen, 3) for mid in members}
    pools = []
    for seed in (1, 22, 333, 4444, 55555):
        result = run_ring_session(members, "P1", lambda mid: stats[mid],
                                  small_he_params, random.Random(seed))
        pools.append((result.O_pool, result.V_pool))
    for O, V in pools[1:]:
        assert np.array_equal(O, pools[0][0])
        assert np.array_equal(V, pools[0][1])


def test_ring_rotation_starts_at_initiator(small_he_params):
    members = ["P1", "P2", "P3", "P4"]
    gen = np.random.default_rng(5)
    stats = {mid: _random_stats(gen, 3) for mid in members}
    result = run_ring_session(members, "P3", lambda mid: stats[mid],
                              small_he_params, random.Random(0))
    assert result.transcript.ring == ("P3", "P4", "P1", "P2")
    O_exp = sum(s.O for s in stats.values())
    assert np.abs(result.O_pool - O_exp).max() <= 1e-5


def test_envelope_roundtrip(small_he_params):
    _, result = _session(["P1", "P2"], small_he_params)
    for msg in result.transcript.log:
        session_id, phase, sender, payload = unpack_envelope(msg.payload)
        assert session_id == result.transcript.session_id
        assert sender == msg.sender
        assert phase == msg.kind


@pytest.mark.parametrize("buf", [b"", b"\x01", b"\x02" + bytes(18),
                                 b"\x01" + bytes(16) + b"\x09\x00",
                                 b"\x01" + bytes(16) + b"\x02\x05P1"])
def test_malformed_envelopes_raise_protocol_error(buf):
    with pytest.raises(ProtocolError):
        unpack_envelope(buf)


_ENVELOPE = pack_envelope(bytes(range(16)), PHASE_RING, "P1", b"payload")


@settings(max_examples=300, deadline=None)
@given(byte_mutations(_ENVELOPE))
def test_unpack_envelope_total_on_arbitrary_bytes(blob):
    try:
        fields = unpack_envelope(blob)
    except CurieError:
        return
    assert pack_envelope(*fields) == blob


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
    from curie import crypto
    from curie.ring import PHASE_RING, Transcript, pack_envelope
    from curie.transport import MessageLog

    keys = crypto.keygen(small_he_params, random.Random(0))
    gen = np.random.default_rng(1)
    stats = {"P2": _random_stats(gen, 2)}
    scale = small_he_params.scale
    encoded = crypto.encode_matrix(stats["P2"].O, scale)
    leaked = crypto.CipherMatrix(
        keys.public, scale, (2, 2),
        tuple(keys.public.from_signed(k) for row in encoded for k in row))
    log = MessageLog()
    log.send("P1", "P2", "public_key", pack_envelope(
        b"s" * 16, "public_key", "P1", crypto.serialize_public_key(keys.public)))
    log.send("P2", "P1", PHASE_RING, pack_envelope(
        b"s" * 16, PHASE_RING, "P2",
        crypto.serialize_cipher_matrix(leaked)))
    transcript = Transcript(b"s" * 16, "P1", ("P1", "P2"), log)
    report = audit_transcript(transcript, corrupted=set(),
                              reference_stats=stats, scale=scale)
    assert any(f.kind == "plaintext_leak" for f in report.findings)


def test_transcript_json_export(small_he_params):
    import json

    _, result = _session(["P1", "P2", "P3"], small_he_params)
    blob = json.dumps(result.transcript.to_json())
    parsed = json.loads(blob)
    assert parsed["initiator"] == "P1"
    assert parsed["ring"] == ["P1", "P2", "P3"]
    assert len(parsed["messages"]) == len(result.transcript)
    for msg in parsed["messages"]:
        bytes.fromhex(msg["payload"])  # payloads are hex-encoded bytes


def _forward_packed_plaintext(transcript, stats, member, params):
    """The transcript with *member*'s ring payload replaced by its packed
    plaintexts, as a buggy member forwarding them would send it."""
    from curie import crypto
    from curie.ring import Transcript, _encode_stats
    from curie.transport import MessageLog

    layout = transcript.layout
    pk = None
    log = MessageLog()
    for msg in transcript.log:
        payload = msg.payload
        session_id, phase, sender, body = unpack_envelope(payload)
        if phase == "public_key":
            pk, _ = crypto.parse_public_key(body)
        elif sender == member:
            packed = layout.pack(_encode_stats(stats[member], params.scale))
            leaked = crypto.CipherMatrix(pk, params.scale, (1, len(packed)),
                                         tuple(pk.from_signed(P) for P in packed))
            payload = pack_envelope(session_id, phase, sender,
                                    crypto.serialize_cipher_matrix(leaked))
        log.send(msg.sender, msg.receiver, msg.kind, payload)
    return Transcript(transcript.session_id, transcript.initiator,
                      transcript.ring, log, layout)


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
    result = run_ring_session(["P1", "P2", "P3"], "P1", stats.get,
                              small_he_params, random.Random(5))
    forged = _forward_packed_plaintext(result.transcript, stats, "P2",
                                       small_he_params)
    report = audit_transcript(forged, corrupted=set(), reference_stats=stats,
                              scale=small_he_params.scale)
    named = Counter(f.member for f in report.findings if f.kind == "plaintext_leak")
    assert set(named) == {"P2", "P3"} and named["P2"] == named["P3"]


def _member_with_key(small_he_params, stats):
    from curie import crypto
    from curie.ring import _RingMember

    keys = crypto.keygen(small_he_params, random.Random(0))
    member = _RingMember("P2", stats, small_he_params, random.Random(1))
    member.on_public_key(crypto.serialize_public_key(keys.public))
    return keys.public, member


def test_ring_payload_must_be_one_packed_matrix(small_he_params):
    from curie import crypto

    m = 3
    pk, member = _member_with_key(small_he_params, None)
    width = member.layout.plaintexts(stat_cells(m))

    def payload(*shapes):
        return b"".join(crypto.serialize_cipher_matrix(crypto.encrypt_encoded_matrix(
            pk, [[0] * cols for _ in range(rows)], small_he_params.scale,
            random.Random(2))) for rows, cols in shapes)

    member.on_accumulate(payload((1, width)), m)
    for shapes in ([(1, width + 1)], [(1, width - 1)], [(width, 1)],
                   [(1, width), (1, width)], [(1, width), (1, 1)]):
        with pytest.raises(ProtocolError):
            member.on_accumulate(payload(*shapes), m)


def test_entry_past_the_slot_bound_aborts_before_encrypting(small_he_params,
                                                            monkeypatch):
    from curie import crypto

    m = 2
    bound = small_he_params.entry_bound / small_he_params.scale
    huge = LocalStats(np.array([[1.0, 0.0], [0.0, 2 * bound]]),
                      np.zeros((m, 1)), 1)
    calls = {"encrypt": 0, "decrypt": 0}
    count_crypto_calls(monkeypatch, calls)
    stats = {"P1": None, "P2": huge, "P3": huge}
    with pytest.raises(OverflowAbort, match="P2"):
        run_ring_session(["P1", "P2", "P3"], "P1", stats.get, small_he_params,
                         random.Random(0))
    keys = crypto.keygen(small_he_params, random.Random(0))
    layout = crypto.SlotLayout.for_key(small_he_params, keys.public)
    assert calls["encrypt"] == layout.plaintexts(stat_cells(m))    # the masks only


def test_each_member_encrypts_one_packed_vector(small_he_params, monkeypatch):
    counts = {"encrypt": 0, "decrypt": 0}
    count_crypto_calls(monkeypatch, counts)
    members = ["P1", "P2", "P3", "P4"]
    m = 4
    _, result = _session(members, small_he_params, m=m)
    width = result.transcript.layout.plaintexts(stat_cells(m))
    assert width == 8    # 15 entries, two 60-bit slots per 128-bit plaintext
    assert counts == {"encrypt": len(members) * width, "decrypt": width}
