import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from curie.cpl import ClauseKind, parse_policy
from curie.cpl.ast import Algorithm, Comparison, MemberRef, SizeOfData, Value, VarRef
from curie.data import Column, ColumnType, Schema, apply_selections, from_rows
from curie.ddstats import compute_statistic
from curie.engine import (
    AcquireRequest,
    Agreement,
    CycleError,
    EnvError,
    EvalEnv,
    MemberContext,
    PublicProfile,
    answer_request,
    build_request,
    eval_conditional,
    evaluated_columns,
    negotiate_consortium,
    resolve_clause,
)
from curie.errors import CurieError, MalformedPayload, PolicyTypeError

from wire_fuzz import byte_mutations
from worked_example import (
    EXPECTED_DEFAULT,
    EXPECTED_LARGE_OVERLAP,
    EXPECTED_M1_EUROPE,
    build_contexts,
    filter_triples,
)


def env(counterparty=None, own=None, own_attributes=None):
    return EvalEnv(
        own or PublicProfile("SELF"),
        counterparty or PublicProfile("OTHER"),
        own_attributes or {},
    )


# ---------------------------------------------------------------------------
# eval_conditional

def test_alliance_membership_conditional():
    other = PublicProfile("M2", alliances=frozenset({"EU"}))
    cond = Comparison(MemberRef("M2"), "in", VarRef("EU"))
    assert eval_conditional(cond, env(counterparty=other)) is True
    cond = Comparison(MemberRef("M2"), "in", VarRef("NATO"))
    assert eval_conditional(cond, env(counterparty=other)) is False


def test_size_of_data_conditional():
    other = PublicProfile("M2", data_size=5700)
    cond = Comparison(SizeOfData(), ">", Value(1000))
    assert eval_conditional(cond, env(counterparty=other)) is True
    cond = Comparison(SizeOfData(), ">", Value(9999))
    assert eval_conditional(cond, env(counterparty=other)) is False


def test_unbound_variable_is_env_error():
    cond = Comparison(VarRef("x"), "=", Value("a", quoted=True))
    with pytest.raises(EnvError):
        eval_conditional(cond, env())


def test_counterparty_attribute_lookup():
    other = PublicProfile("M1", attributes={"continent": "North America"})
    cond = Comparison(VarRef("continent"), "=", Value("North America", quoted=True))
    assert eval_conditional(cond, env(counterparty=other)) is True


def test_incomparable_operands_raise_type_error():
    other = PublicProfile("M1", attributes={"continent": "Europe"})
    cond = Comparison(VarRef("continent"), ">", Value(5))
    with pytest.raises(TypeError):
        eval_conditional(cond, env(counterparty=other))


def test_in_against_attribute_value_list():
    own_attrs = parse_policy('grp := <"US", "UK"> ;\nshare : : :: ;').attribute_map()
    other = PublicProfile("M1", attributes={"country": "US"})
    cond = Comparison(VarRef("country"), "in", VarRef("grp"))
    assert eval_conditional(cond, env(counterparty=other, own_attributes=own_attrs))


# ---------------------------------------------------------------------------
# resolve_clause

def _no_dd(cond):
    raise AssertionError(f"unexpected data-dependent conditional {cond}")


def test_resolve_picks_fine_select_branch_when_c3_true():
    m1, m2, _ = build_contexts()
    e = EvalEnv(m2.profile, m1.profile, m2.policy.attribute_map())
    resolved = resolve_clause(m2.policy, ClauseKind.SHARE, "M1", e, _no_dd)
    assert resolved is not None
    assert [(f.column, f.op) for f in resolved.filters] == [("country", "in")]


def test_resolve_falls_back_to_s3_when_c3_false():
    m1, m2, _ = build_contexts(m1_continent="Europe")
    e = EvalEnv(m2.profile, m1.profile, m2.policy.attribute_map())
    resolved = resolve_clause(m2.policy, ClauseKind.SHARE, "M1", e, _no_dd)
    assert [(f.column, f.op, f.value) for f in resolved.filters] == [
        ("race", "=", "White")]


def test_resolve_no_match_when_member_not_listed():
    m1, _, _ = build_contexts()
    e = EvalEnv(m1.profile, PublicProfile("M9"), {})
    assert resolve_clause(m1.policy, ClauseKind.SHARE, "M9", e, _no_dd) is None


def test_subclause_cycle_is_detected():
    policy = parse_policy(
        "share : M1 : :: a ;\n"
        "a : :: b ;\n"
        "b : :: a ;\n")
    with pytest.raises(CycleError):
        resolve_clause(policy, ClauseKind.SHARE, "M1", env(), _no_dd)


# ---------------------------------------------------------------------------
# one directed pair: the worked example and its traced variants

def _agreement(requester, owner, seed=13):
    """The owner's answer to the requester's request, as one pair of a
    consortium negotiation computes it."""
    return answer_request(owner, build_request(requester, owner.profile,
                                               random.Random(seed)))


def test_worked_example_default_trace():
    m1, m2, m3 = build_contexts()
    by_id = {"M1": m1, "M2": m2, "M3": m3}
    for (req, own), expect in EXPECTED_DEFAULT.items():
        agreement = _agreement(by_id[req], by_id[own])
        assert agreement.status == expect["status"], (req, own)
        assert filter_triples(agreement) == expect["filters"], (req, own)
        assert agreement.provenance == (
            expect["provenance_owner_clause"],
            expect["provenance_requester_clause"]), (req, own)


def test_worked_example_fine_select_fallback_variant():
    m1, m2, _ = build_contexts(m1_continent="Europe")
    expect = EXPECTED_M1_EUROPE[("M1", "M2")]
    agreement = _agreement(m1, m2)
    assert agreement.status == expect["status"]
    assert filter_triples(agreement) == expect["filters"]


def test_worked_example_intersection_failure_variant():
    m1, _, m3 = build_contexts(genotype_overlap="large")
    expect = EXPECTED_LARGE_OVERLAP[("M1", "M3")]
    agreement = _agreement(m1, m3)
    assert agreement.status == expect["status"]
    assert filter_triples(agreement) == expect["filters"]
    assert agreement.provenance[0] == expect["provenance_owner_clause"]


def test_plain_and_blinded_modes_agree_on_the_example():
    # every blinded decision is the plain statistic's, on the raw columns
    decisions = 0
    for knobs in (dict(), dict(genotype_overlap="large"),
                  dict(m1_continent="Europe")):
        m1, m2, m3 = build_contexts(**knobs)
        for req, own in [(m1, m2), (m1, m3), (m3, m1), (m2, m3)]:
            for entry in _agreement(req, own).dd_trace:
                column = entry["column"]
                stat = compute_statistic(Algorithm(entry["algorithm"]),
                                         req.dataset.column(column),
                                         own.dataset.column(column))
                assert entry["decision"] == (stat < entry["threshold"])
                decisions += 1
    assert decisions == 6    # M1 acquiring from M3: age and genotype, per variant


def test_no_acquire_clause_yields_empty_with_reason():
    m1, m2, _ = build_contexts()
    lonely = MemberContext("M2", parse_policy("share : M1 : :: ;"),
                           m2.dataset, m2.attributes, m2.alliances)
    agreement = _agreement(lonely, m1)
    assert agreement.status == "empty"
    assert "no acquire clause" in agreement.reason


# ---------------------------------------------------------------------------
# negotiate_consortium

def test_consortium_message_count_three_members():
    contexts = build_contexts()
    agreements, log = negotiate_consortium(list(contexts),
                                           rng=random.Random(5))
    assert len(agreements) == 6
    assert len(log) == 2 * 3 * (3 - 1)
    kinds = Counter(m.kind for m in log)
    assert kinds["acquire_request"] == 6
    assert kinds["negotiation_output"] == 6


def test_consortium_deterministic_given_seed():
    a1, _ = negotiate_consortium(list(build_contexts()), rng=random.Random(5))
    a2, _ = negotiate_consortium(list(build_contexts()), rng=random.Random(5))
    assert a1 == a2


def test_single_direction_two_members():
    m1, m2, _ = build_contexts()
    only_share = MemberContext(
        "M2", parse_policy("share : M1 : :: ;"), m2.dataset,
        m2.attributes, m2.alliances)
    agreements, log = negotiate_consortium([m1, only_share],
                                           rng=random.Random(1))
    # only M1 requests: one request + one response, one agreement
    assert len(log) == 2
    assert len(agreements) == 1
    assert agreements[0].requester == "M1"


# ---------------------------------------------------------------------------
# invariants

def _toy_schema():
    return Schema((
        Column("a", ColumnType("integer", bounds=(0, 100))),
        Column("dose", ColumnType("real", bounds=(1.0, 50.0))),
    ), target="dose")


def _member(mid, policy_text, values):
    sch = _toy_schema()
    rows = [dict(a=v, dose=10.0) for v in values]
    return MemberContext(mid, parse_policy(policy_text),
                         from_rows(sch, rows, mid))


@settings(max_examples=40, deadline=None)
@given(
    threshold=st.integers(min_value=0, max_value=100),
    op=st.sampled_from(["<", ">", "=", "!="]),
    values=st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                    max_size=30),
)
def test_conservativeness_owner_filters_always_hold(threshold, op, values):
    # whatever the requester asks for, released rows satisfy the owner's
    # matched share selections
    owner = _member("B", f"share : A : :: a > 40 ;", values)
    requester = _member("A", f"acquire : B : :: a {op} {threshold} ;", [1])
    agreement = _agreement(requester, owner, 0)
    released = apply_selections(owner.dataset, agreement.selections)
    assert all(v > 40 for v in released.column("a"))


@settings(max_examples=30, deadline=None)
@given(
    threshold=st.integers(min_value=0, max_value=100),
    values=st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                    max_size=30),
)
def test_monotonicity_extra_conditional_never_enlarges_release(threshold, values):
    # single-clause policies (no fallback chains): adding a conditional
    # can only shrink or empty the release
    owner_plain = _member("B", "share : A : :: a > 10 ;", values)
    owner_gated = _member(
        "B", f"share : A : size(data) > {threshold} :: a > 10 ;", values)
    requester = _member("A", "acquire : B : :: ;", [1] * 5)
    base = _agreement(requester, owner_plain, 0)
    gated = _agreement(requester, owner_gated, 0)
    base_rows = apply_selections(owner_plain.dataset, base.selections).n
    gated_rows = (0 if gated.status == "empty"
                  else apply_selections(owner_gated.dataset, gated.selections).n)
    assert gated_rows <= base_rows


def test_asymmetry_share_policy_change_never_affects_own_acquisitions():
    m1, m2, m3 = build_contexts()
    before = _agreement(m1, m2)
    # rewrite M1's share policy entirely; M1-as-requester must not change
    m1_locked = MemberContext(
        "M1", parse_policy(
            "acquire : M2 : :: age > 25 ;\n"
            "acquire : M3 : evaluate(&age, \"Jaccard index\", 0.3) :: race = Asian ;\n"
            "share : : :: a-lock ;\n"
            "a-lock : :: age > 99 ;"),
        m1.dataset, m1.attributes, m1.alliances)
    after = _agreement(m1_locked, m2)
    assert before.status == after.status
    assert filter_triples(before) == filter_triples(after)


def test_dd_conditional_inside_subclause_negotiates():
    # branch choice driven by a data-dependent gate inside the sub-clause
    sch = _toy_schema()
    owner_policy = parse_policy(
        "share : A : :: pick ;\n"
        'pick : evaluate(&a, "Intersection size", 3) :: a > 50 ;\n'
        "pick : :: a > 90 ;\n")
    owner_small_overlap = MemberContext(
        "B", owner_policy,
        from_rows(sch, [dict(a=v, dose=5.0) for v in (1, 2, 60, 95)], "B"))
    requester = MemberContext(
        "A", parse_policy("acquire : B : :: ;"),
        from_rows(sch, [dict(a=v, dose=5.0) for v in (7, 8, 9)], "A"))
    # intersection of {1,2,60,95} and {7,8,9} is 0 < 3: first branch
    agreement = _agreement(requester, owner_small_overlap, 0)
    assert filter_triples(agreement) == [("a", ">", 50)]

    overlap = MemberContext(
        "A", requester.policy,
        from_rows(sch, [dict(a=v, dose=5.0) for v in (1, 2, 60, 95)], "A"))
    agreement = _agreement(overlap, owner_small_overlap, 0)
    # intersection 4 >= 3: fallback branch
    assert filter_triples(agreement) == [("a", ">", 90)]


def test_unconditional_share_with_restricting_acquire_is_partial():
    # owner shares everything, requester narrows to age > 25: the release
    # is a proper nonempty subset of the owner's data, so the outcome is
    # partial (full is reserved for a complete-data release)
    sch = _toy_schema()
    owner = MemberContext(
        "B", parse_policy("share : A : :: ;"),
        from_rows(sch, [dict(a=v, dose=9.0) for v in (20, 30, 40)], "B"))
    requester = _member("A", "acquire : B : :: a > 25 ;", [1])
    agreement = _agreement(requester, owner, 0)
    assert agreement.status == "partial"
    assert filter_triples(agreement) == [("a", ">", 25)]
    assert agreement.released_rows == 2

    # and with no restriction at all, the same pair negotiates full
    wide = _member("A", "acquire : B : :: ;", [1])
    agreement = _agreement(wide, owner, 0)
    assert agreement.status == "full"
    assert agreement.released_rows == 3


def test_acquire_request_wire_roundtrip():
    # the request payload is the negotiation's external interface: the
    # owner must reach the same agreement from the parsed bytes
    m1, _, m3 = build_contexts()
    request = build_request(m1, m3.profile, rng=random.Random(4))
    parsed = AcquireRequest.from_payload(request.to_payload())
    assert parsed.requester == request.requester
    assert parsed.policy == request.policy
    assert parsed.blinded.keys() == request.blinded.keys() == {"age", "genotype"}
    direct = answer_request(m3, request)
    via_wire = answer_request(m3, parsed)
    assert direct.status == via_wire.status
    assert filter_triples(direct) == filter_triples(via_wire)
    assert direct.provenance == via_wire.provenance


def test_a_policys_shared_attribute_map_is_read_only():
    # every member holding one parsed policy reads one attribute map, so
    # what attribute_map() hands out must not let a caller change it
    contexts = build_contexts()
    before = negotiate_consortium(contexts, random.Random(3))
    m2 = contexts[1]
    assert dict(m2.policy.attribute_map())["natoeu"]
    with pytest.raises(TypeError):
        m2.policy.attribute_map()["natoeu"] = (Value("FR", quoted=True),)
    with pytest.raises(TypeError):
        del m2.policy.attribute_map()["natoeu"]
    after = negotiate_consortium(contexts, random.Random(3))
    assert [a.to_json() for a in after[0]] == [a.to_json() for a in before[0]]
    assert [m.payload for m in after[1]] == [m.payload for m in before[1]]


def test_profiles_list_evaluated_columns_and_requests_blind_only_those():
    # profiles list only what share clauses evaluate; a request adds the
    # columns its own acquire clauses naming the owner evaluate
    m1, m2, m3 = build_contexts()
    assert [m.profile.dd_columns for m in (m1, m2, m3)] == [
        set(), set(), {"genotype"}]
    blinded = {(r.member_id, o.member_id):
               set(build_request(r, o.profile, random.Random(0)).blinded)
               for r, o in itertools.permutations((m1, m2, m3), 2)}
    assert blinded == {
        ("M1", "M2"): set(), ("M2", "M1"): set(),
        ("M1", "M3"): {"age", "genotype"}, ("M3", "M1"): set(),
        ("M2", "M3"): {"genotype"}, ("M3", "M2"): set()}
    # conditionals inside sub-clauses count too
    policy = parse_policy(
        "share : A : :: pick ;\n"
        'pick : evaluate(&a, "Jaccard index", 0.5) :: ;\n')
    assert evaluated_columns(policy, ClauseKind.SHARE) == {"a"}
    assert evaluated_columns(policy, ClauseKind.ACQUIRE) == set()


def test_sub_clause_evaluations_reached_by_tag_are_blinded():
    sch = Schema((Column("a", ColumnType("integer")),
                  Column("b", ColumnType("integer")),
                  Column("c", ColumnType("integer")),
                  Column("dose", ColumnType("real"))), target="dose")
    rows = [dict(a=v, b=v, c=v, dose=1.0) for v in (1, 2, 3)]

    def member(mid, text):
        return MemberContext(mid, parse_policy(text), from_rows(sch, rows, mid))

    # the owner's share clause reaches &a through two tags; "spare" is
    # never reached, so &c is not listed
    owner = member("B", "acquire : A : :: ;\n"
                        "share : A : :: outer ;\n"
                        "outer : :: inner ;\n"
                        'inner : evaluate(&a, "Jaccard index", 2) :: ;\n'
                        'spare : evaluate(&c, "Jaccard index", 0.5) :: ;\n')
    # the requester's acquire clause naming B reaches &b; the one
    # naming only C does not count
    requester = member("A", "acquire : B : :: pick ;\n"
                            'pick : evaluate(&b, "Jaccard index", 2) :: ;\n'
                            'acquire : C : evaluate(&c, "Jaccard index", 0.5) :: ;\n'
                            'share : B : :: ;\n')
    assert owner.profile.dd_columns == {"a"}
    request = build_request(requester, owner.profile, random.Random(0))
    assert set(request.blinded) == {"a", "b"}
    agreement = answer_request(owner, request)
    assert [t["column"] for t in agreement.dd_trace] == ["b", "a"]


def _without_blinded_columns(request: AcquireRequest) -> bytes:
    body = json.loads(request.to_payload())
    body["blinded"] = {}
    return json.dumps(body).encode()


def test_request_lacking_an_evaluated_column_is_a_typed_error():
    # M1's acquire clause from M3 evaluates &age: an owner handed no
    # blinded age column fails with a CurieError, directly and from bytes
    m1, _, m3 = build_contexts()
    request = build_request(m1, m3.profile, rng=random.Random(4))
    bare = AcquireRequest(request.requester, request.policy, {})
    parsed = AcquireRequest.from_payload(_without_blinded_columns(request))
    assert parsed == bare
    for stripped in (bare, parsed):
        with pytest.raises(EnvError, match="&age"):
            answer_request(m3, stripped)


def test_consortium_records_a_request_lacking_a_column_as_empty(monkeypatch):
    from curie import engine

    build = engine.build_request
    monkeypatch.setattr(engine, "build_request", lambda requester, owner, rng: (
        AcquireRequest.from_payload(_without_blinded_columns(
            build(requester, owner, rng)))))
    agreements, _ = negotiate_consortium(list(build_contexts()),
                                         rng=random.Random(5))
    by_pair = {(a.requester, a.owner): a for a in agreements}
    failed = by_pair[("M1", "M3")]
    assert failed.status == "empty"
    assert "negotiation error" in failed.reason and "&age" in failed.reason
    assert by_pair[("M1", "M2")].status == "partial"    # nothing evaluated
    # one pair exchange: negotiating the pair alone answers it alike
    m1, _, m3 = build_contexts()
    alone, _ = negotiate_consortium([m1, m3], rng=random.Random(5))
    assert [a for a in alone if a.owner == "M3"] == [failed]


def _request_payload():
    # M1's request to M3 carries blinded age and genotype columns
    m1, _, m3 = build_contexts()
    return build_request(m1, m3.profile, rng=random.Random(4)).to_payload()


_REQUEST = _request_payload()


def _plain_mode_request() -> bytes:
    """The retired plain-mode wire form: the requester's raw column in
    the clear, the integer column's cells as JSON integers.  No blinded
    field, so the parser must refuse it."""
    m1, _, _ = build_contexts()
    body = json.loads(_REQUEST)
    return json.dumps({"mode": "plain",
                       "plain": {"age": [int(v) for v in m1.dataset.column("age")]},
                       "policy": body["policy"],
                       "requester": body["requester"]}).encode()


def _with_overflowing_attribute(payload: bytes) -> bytes:
    body = json.loads(payload)
    body["requester"]["attributes"]["big"] = 7
    return json.dumps(body).encode().replace(b'"big": 7', b'"big": 1e400')


def _with_hashes_as_object(payload: bytes) -> bytes:
    body = json.loads(payload)
    for column in body["blinded"].values():
        column["hashes"] = {h: 0 for h in column["hashes"]}
    return json.dumps(body).encode()


def _with_affine_vectors(payload: bytes) -> bytes:
    """The retired six-field blinded column: ``scaled`` shifted by a
    second mask as an ``affine`` vector."""
    body = json.loads(payload)
    for column in body["blinded"].values():
        column["affine"] = [v + 1.5 for v in column["scaled"]]
    return json.dumps(body).encode()


@pytest.mark.parametrize("payload", [
    b"", b"{}", b"[]", b"\xff", b'{"mode": "plain"}',
    pytest.param(_REQUEST[:-3], id="truncated_request"),
    _plain_mode_request(),
    pytest.param(_with_overflowing_attribute(_REQUEST), id="overflowing_attribute"),
    pytest.param(_with_hashes_as_object(_REQUEST), id="hashes_as_object"),
    pytest.param(_with_affine_vectors(_REQUEST), id="affine_blinded_column"),
])
def test_malformed_acquire_requests_rejected(payload):
    with pytest.raises(MalformedPayload):
        AcquireRequest.from_payload(payload)


def _json_paths(obj, prefix=()):
    yield prefix
    children = (obj.items() if isinstance(obj, dict)
                else enumerate(obj) if isinstance(obj, list) else ())
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


@st.composite
def _field_mutations(draw):
    """A valid request body with one field replaced or deleted."""
    body = json.loads(_REQUEST)
    path = draw(st.sampled_from(list(_json_paths(body))[1:]))
    parent = body
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_json_values)
    return json.dumps(body).encode()


_OWNER = build_contexts()[2]     # M3, whom _REQUEST is sent to


@settings(max_examples=300, deadline=None)
@given(st.one_of(byte_mutations(_REQUEST), _field_mutations()))
def test_acquire_request_parser_total_on_arbitrary_bytes(blob):
    # whatever parses, the owner answers with an agreement or refuses
    # with a CurieError
    try:
        request = AcquireRequest.from_payload(blob)
    except CurieError:
        return
    assert AcquireRequest.from_payload(request.to_payload()) == request
    try:
        assert isinstance(answer_request(_OWNER, request), Agreement)
    except CurieError:
        pass


def test_consortium_records_per_pair_type_errors_as_empty():
    # one member's policy compares a string attribute against a number;
    # the pair fails with a reason, the rest of the consortium proceeds
    sch = _toy_schema()
    rows = [dict(a=v, dose=3.0) for v in (1, 2, 3)]
    bad_owner = MemberContext(
        "B", parse_policy('share : : $country > 5 :: ;'),
        from_rows(sch, rows, "B"), attributes={"country": "US"})
    good_owner = MemberContext(
        "C", parse_policy("share : : :: ;"), from_rows(sch, rows, "C"))
    requester = MemberContext(
        "A", parse_policy("acquire : : :: ;"), from_rows(sch, rows, "A"),
        attributes={"country": "US"})
    agreements, log = negotiate_consortium([requester, bad_owner, good_owner],
                                           rng=random.Random(0))
    by_owner = {a.owner: a for a in agreements if a.requester == "A"}
    assert by_owner["B"].status == "empty"
    assert "negotiation error" in by_owner["B"].reason
    assert by_owner["C"].status == "full"


def test_consortium_lets_programming_errors_propagate(monkeypatch):
    # a TypeError that is not a typed policy error is a bug in the
    # engine, not a failed pair: it surfaces instead of becoming an
    # empty agreement
    from curie import engine

    def broken(ds, filters):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(engine, "apply_selections", broken)
    sch = _toy_schema()
    rows = [dict(a=v, dose=3.0) for v in (1, 2, 3)]
    contexts = [MemberContext(mid, parse_policy(text), from_rows(sch, rows, mid))
                for mid, text in (("A", "acquire : : :: ;"), ("B", "share : : :: ;"))]
    with pytest.raises(TypeError, match="unsupported operand"):
        negotiate_consortium(contexts, rng=random.Random(0))


def test_policy_type_errors_are_typed_curie_errors():
    other = PublicProfile("M1", attributes={"continent": "Europe"})
    cond = Comparison(VarRef("continent"), ">", Value(5))
    with pytest.raises(PolicyTypeError) as err:
        eval_conditional(cond, env(counterparty=other))
    assert isinstance(err.value, CurieError)
