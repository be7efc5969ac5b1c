import re

import pytest
from hypothesis import given, settings, strategies as st

from curie.cpl.tokens import LexError, TokenKind, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def test_minimal_clause_token_stream():
    assert kinds("share : M1 : :: ;") == [
        TokenKind.SHARE, TokenKind.COLON, TokenKind.IDENT, TokenKind.COLON,
        TokenKind.DCOLON, TokenKind.SEMI, TokenKind.EOF,
    ]


def test_evaluate_call_tokens():
    toks = tokenize("evaluate(&local, 'Jaccard', 0.3)")
    assert [t.kind for t in toks[:4]] == [
        TokenKind.EVALUATE, TokenKind.LPAREN, TokenKind.AMP, TokenKind.IDENT]
    assert toks[3].text == "local"
    string_tok = next(t for t in toks if t.kind is TokenKind.STRING)
    assert string_tok.value == "Jaccard"
    float_tok = next(t for t in toks if t.kind is TokenKind.FLOAT)
    assert float_tok.value == 0.3


def test_comparison_tokens():
    toks = tokenize("weight>150")
    assert [t.kind for t in toks] == [
        TokenKind.IDENT, TokenKind.GT, TokenKind.INT, TokenKind.EOF]
    assert toks[2].value == 150


def test_k_suffix_lexes_as_thousands():
    toks = tokenize("size(data) > 1K")
    int_tok = next(t for t in toks if t.kind is TokenKind.INT)
    assert int_tok.value == 1000
    assert tokenize("25K")[0].value == 25_000


def test_every_byte_covered_by_token_or_gap():
    text = 'share : M1, M2 : $x = "a b" :: age > 25 ; # tail\n'
    toks = tokenize(text)
    pos = 0
    for tok in toks:
        if tok.kind is TokenKind.EOF:
            break
        assert tok.span.start >= pos
        gap = text[pos:tok.span.start]
        assert gap.strip() == "" or gap.lstrip().startswith("#")
        assert text[tok.span.start:tok.span.end] == tok.text
        pos = tok.span.end
    assert text[pos:].strip().lstrip("#").strip() in ("", "tail")


def test_locations_are_line_and_column():
    toks = tokenize("share : M1 : :: ;\nacquire : M2 : :: ;")
    acquire = next(t for t in toks if t.kind is TokenKind.ACQUIRE)
    assert (acquire.span.line, acquire.span.col) == (2, 1)


def test_single_and_double_quoted_strings():
    assert tokenize('"A/A"')[0].value == "A/A"
    assert tokenize("'A/A'")[0].value == "A/A"


def test_hyphenated_identifier_is_one_token():
    toks = tokenize("fine-select")
    assert toks[0].kind is TokenKind.IDENT
    assert toks[0].text == "fine-select"


def test_colon_family_longest_match():
    assert kinds(":: := :")[:3] == [TokenKind.DCOLON, TokenKind.DEFINE, TokenKind.COLON]


def test_comments_and_whitespace_are_skipped():
    toks = tokenize("# a comment\n  share\t: \n")
    assert [t.kind for t in toks] == [
        TokenKind.SHARE, TokenKind.COLON, TokenKind.EOF]


@pytest.mark.parametrize("bad", ["@", "%", "^", "!x", "a ~ b", "'unterminated"])
def test_lex_errors_carry_location(bad):
    with pytest.raises(LexError) as err:
        tokenize(bad)
    assert err.value.line >= 1
    assert err.value.col >= 1


def test_negative_number_after_operator():
    toks = tokenize("height > -2")
    assert toks[2].kind is TokenKind.INT
    assert toks[2].value == -2


@pytest.mark.parametrize("text, expected", [
    ("1.", [(TokenKind.FLOAT, "1.", 1.0)]),
    ("1.K", [(TokenKind.FLOAT, "1.", 1.0), (TokenKind.IDENT, "K", None)]),
    ("1.5K", [(TokenKind.FLOAT, "1.5", 1.5), (TokenKind.IDENT, "K", None)]),
    ("-1K", [(TokenKind.INT, "-1K", -1000)]),
    ("a-1", [(TokenKind.IDENT, "a-1", None)]),
    ("é-é", [(TokenKind.IDENT, "é-é", None)]),
    ("\ud800", [(TokenKind.IDENT, "\ud800", None)]),
    # a no-break space is a blank, so it cannot join the name
    ("M1\xa0;", ("blank U+00A0 does not separate tokens", 1, 3)),
    ("a--b", ("unexpected character '-'", 1, 2)),
    ("--1", ("unexpected character '-'", 1, 1)),
    ("'x\ny'", ("unterminated string literal", 1, 1)),
    ("!x", ("'!' must be followed by '='", 1, 1)),
    ("share\u3000:", ("blank U+3000 does not separate tokens", 1, 6)),
    ("\x85", ("blank U+0085 does not separate tokens", 1, 1)),
    ("a\x1cb", ("blank U+001C does not separate tokens", 1, 2)),
])
def test_lexical_edge_cases(text, expected):
    if isinstance(expected, tuple):
        with pytest.raises(LexError) as err:
            tokenize(text)
        assert (err.value.message, err.value.line, err.value.col) == expected
    else:
        toks = tokenize(text)
        assert [(t.kind, t.text, t.value) for t in toks[:-1]] == expected
        assert [type(t.value) for t in toks[:-1]] == [type(v) for _, _, v in expected]


_NON_ASCII_BLANKS = [c for c in map(chr, range(0x80, 0x110000)) if c.isspace()]


@pytest.mark.parametrize("blank", _NON_ASCII_BLANKS, ids=lambda c: f"U+{ord(c):04X}")
def test_a_non_ascii_blank_is_refused_by_its_code_point(blank):
    with pytest.raises(LexError) as err:
        tokenize(f"share : M1{blank}: :: ;")
    assert (err.value.message, err.value.col) == (
        f"blank U+{ord(blank):04X} does not separate tokens", 11)
    # inside a string or a comment it is text like any other
    assert tokenize(f"'{blank}' #{blank}")[0].value == blank


def test_eof_after_a_trailing_newline_starts_the_next_line():
    eof = tokenize("share\n")[-1]
    assert eof.kind is TokenKind.EOF
    assert (eof.span.line, eof.span.col, eof.span.start, eof.span.end) == (2, 1, 6, 6)


_GAP = re.compile(r"(?:[ \t\r\f\v\n]|#[^\n]*)*")


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=":;,<>!=$&(){}#'\" \n\t\r.abcK19-é\xa0")))
def test_tokens_tile_the_text_with_blank_or_comment_gaps(text):
    try:
        toks = tokenize(text)
    except LexError:
        return
    assert toks[-1].kind is TokenKind.EOF and toks[-1].span.start == len(text)
    pos = 0
    for tok in toks:
        start, end = tok.span.start, tok.span.end
        assert pos <= start <= end
        assert text[start:end] == tok.text
        assert _GAP.fullmatch(text, pos, start)
        assert tok.span.line == text.count("\n", 0, start) + 1
        assert tok.span.col == start - text.rfind("\n", 0, start)
        pos = end
