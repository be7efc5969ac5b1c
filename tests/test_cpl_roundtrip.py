"""Round-trip, fuzz-totality, and grammar-coverage properties."""

from hypothesis import given, settings, strategies as st

from curie.cpl import LexError, ParseError, PolicyAst, parse_policy, serialize
from curie.cpl import ast as A

from conftest import CONSORTIA_DIR
from grammar_coverage import REQUIRED_PRODUCTIONS, productions_used


def test_corpus_parses_and_roundtrips(corpus_files):
    for path in corpus_files:
        text = path.read_text()
        first = parse_policy(text)
        second = parse_policy(serialize(first))
        assert first == second, f"{path.name}: round-trip changed the AST"


def test_corpus_covers_every_production(corpus_files):
    covered = set()
    for path in corpus_files:
        text = path.read_text()
        covered |= productions_used(parse_policy(text), text)
    missing = REQUIRED_PRODUCTIONS - covered
    assert not missing, f"productions never exercised: {sorted(missing)}"


def test_empty_members_and_conditionals_serialize_and_reparse():
    policy = PolicyAst((A.Clause(A.ClauseKind.SHARE),))
    text = serialize(policy)
    assert parse_policy(text) == policy


def test_attribute_value_list_roundtrip():
    policy = parse_policy('x := <"a", "b"> ;')
    assert parse_policy(serialize(policy)) == policy


def _fresh_views(policy: PolicyAst) -> tuple:
    """The clause views and attribute map of *policy*, derived anew from
    its statements."""
    stmts = policy.statements
    clauses = tuple(s for s in stmts if isinstance(s, A.Clause)
                    and s.kind is not A.ClauseKind.SUB)
    subs = tuple((s.tag, s) for s in stmts if isinstance(s, A.Clause)
                 and s.kind is A.ClauseKind.SUB)
    attributes = tuple(s for s in stmts if isinstance(s, A.Attribute))
    return clauses, subs, attributes, {a.name: a.values for a in attributes}


def test_stored_views_match_their_statements(corpus_files):
    # the views are derived once per parsed policy; they must be the
    # views its statements give, and leave equality, hash and repr to
    # the statements alone
    shipped = sorted(CONSORTIA_DIR.glob("*/*.cpl"))
    assert shipped
    for path in [*corpus_files, *shipped]:
        text = path.read_text()
        policy, again = parse_policy(text), parse_policy(text)
        assert (policy.clauses, policy.sub_clauses, policy.attributes,
                dict(policy.attribute_map())) == _fresh_views(policy), path.name
        assert policy == again and hash(policy) == hash(again), path.name
        assert repr(policy) == f"PolicyAst(statements={policy.statements!r})"
        assert policy.canonical_text == serialize(policy)
        assert policy.canonical_text is policy.canonical_text


# ---------------------------------------------------------------------------
# structured fuzz: arbitrary ASTs must serialize to reparseable text

_ident = st.from_regex(r"[a-z][a-z0-9]{0,6}(-[a-z0-9]{1,4})?", fullmatch=True).filter(
    lambda s: s not in ("share", "acquire", "evaluate", "in", "size", "data"))
_number = st.one_of(
    st.integers(min_value=-10_000, max_value=10_000),
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False,
              allow_infinity=False),
)
_string_value = st.builds(
    A.Value,
    st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                                   exclude_characters="\"'"), max_size=8),
    st.just(True))
_value = st.one_of(
    st.builds(A.Value, _number, st.just(False)),
    st.builds(A.Value, _ident, st.just(False)),
    _string_value,
)
_rhs = st.one_of(_value, st.builds(A.VarRef, _ident))
_op = st.sampled_from(["=", "<", ">", "!=", "in"])
_lhs = st.one_of(
    st.builds(A.VarRef, _ident),
    st.builds(A.MemberRef, _ident),
    st.builds(A.SizeOfData),
)
_comparison = st.builds(A.Comparison, _lhs, _op, _rhs)
_evaluate = st.builds(
    A.Evaluate, _ident, st.sampled_from(list(A.Algorithm)),
    st.floats(min_value=0, max_value=1e3, allow_nan=False, allow_infinity=False))
_conditionals = st.lists(st.one_of(_comparison, _evaluate), max_size=3).map(tuple)
_filters = st.builds(
    A.Filters,
    st.lists(st.builds(A.Filter, _ident, _op, _rhs, st.booleans()),
             max_size=3).map(tuple))
_selections = st.one_of(_filters, st.builds(A.TagRef, _ident))
_share_clause = st.builds(
    A.Clause,
    st.sampled_from([A.ClauseKind.SHARE, A.ClauseKind.ACQUIRE]),
    st.lists(_ident, max_size=3).map(tuple),
    _conditionals,
    _selections,
)
_sub_clause = st.builds(
    lambda tag, conds, sels: A.Clause(A.ClauseKind.SUB, (), conds, sels, tag=tag),
    _ident, _conditionals, _selections)
_attribute = st.builds(A.Attribute, _ident,
                       st.lists(_value, min_size=1, max_size=4).map(tuple))
_policy = st.builds(
    PolicyAst,
    st.lists(st.one_of(_share_clause, _sub_clause, _attribute),
             min_size=1, max_size=6).map(tuple))


@settings(max_examples=200, deadline=None)
@given(_policy)
def test_serializer_output_always_reparses_to_equal_ast(policy):
    assert parse_policy(serialize(policy)) == policy


@settings(max_examples=100, deadline=None)
@given(_policy)
def test_stored_views_match_their_statements_on_generated_policies(policy):
    assert (policy.clauses, policy.sub_clauses, policy.attributes,
            dict(policy.attribute_map())) == _fresh_views(policy)


# ---------------------------------------------------------------------------
# totality fuzz: arbitrary input never crashes or hangs the parser

@settings(max_examples=300, deadline=None)
@given(st.text(max_size=300))
def test_parser_total_on_arbitrary_text(text):
    try:
        result = parse_policy(text)
        assert isinstance(result, PolicyAst)
    except (ParseError, LexError):
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=2048))
def test_parser_total_on_arbitrary_bytes(blob):
    text = blob.decode("utf-8", errors="replace")
    try:
        result = parse_policy(text)
        assert isinstance(result, PolicyAst)
    except (ParseError, LexError):
        pass


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet=":;,<>!=$&(){}#'\" \n\tabc123K-", max_size=200))
def test_parser_total_on_grammar_adjacent_soup(text):
    try:
        parse_policy(text)
    except (ParseError, LexError):
        pass


def test_parser_total_on_64k_byte_blobs():
    # the totality bound is 64 KiB; a handful of deterministic blobs at
    # the limit complements the smaller hypothesis cases
    rng = __import__("random").Random(0xFADE)
    for trial in range(4):
        blob = bytes(rng.randrange(256) for _ in range(64 * 1024))
        try:
            parse_policy(blob.decode("utf-8", errors="replace"))
        except (ParseError, LexError):
            pass
