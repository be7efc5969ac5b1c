"""Lexer for the CPL policy language.

Tokenizes a policy source string into a flat token list ending in EOF.
Every character lies in exactly one token or in a blank/comment gap, and
tokens carry line/column and offset locations for diagnostics.

The pattern ``_TOKEN`` is the lexical conventions, one alternative each:

* blanks (space, tab, CR, FF, VT) and ``#`` comments to end of line
  separate tokens; operators take the longest match (``::`` over ``:``),
* a string takes single or double quotes, has no escapes and cannot
  span lines,
* a number is ASCII digits; a ``-`` directly before the first digit
  starts it, a ``.`` after the digits makes it a float (``1.`` is 1.0),
  and a ``K`` scales only an integer by 1000 (``1.K`` is 1.0 then ``K``),
* an identifier starts with an ASCII letter, ``_`` or any non-ASCII
  character but a blank, goes on with those and ASCII digits, and may
  hold single interior hyphens (``fine-select``); ``share``,
  ``acquire``, ``evaluate`` and ``in`` are keywords,
* any other character is a :class:`LexError`; one that ``str.isspace``
  calls a blank (U+00A0, U+3000, ...) is named by its code point, as it
  cannot be seen in the source.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum, auto

from curie.errors import CurieError


class LexError(CurieError):
    """Raised on a character that cannot start or continue any token."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class TokenKind(Enum):
    IDENT = auto()
    STRING = auto()
    INT = auto()
    FLOAT = auto()

    SHARE = auto()
    ACQUIRE = auto()
    EVALUATE = auto()
    IN = auto()

    COLON = auto()        # :
    DCOLON = auto()       # ::
    DEFINE = auto()       # :=
    SEMI = auto()         # ;
    COMMA = auto()        # ,
    LPAREN = auto()
    RPAREN = auto()
    LBRACE = auto()
    RBRACE = auto()
    EQ = auto()           # =
    NEQ = auto()          # !=
    LT = auto()           # <
    GT = auto()           # >
    AMP = auto()          # &
    DOLLAR = auto()       # $
    EOF = auto()


KEYWORDS = {
    "share": TokenKind.SHARE,
    "acquire": TokenKind.ACQUIRE,
    "evaluate": TokenKind.EVALUATE,
    "in": TokenKind.IN,
}

_OPERATORS = {
    ":": TokenKind.COLON, "::": TokenKind.DCOLON, ":=": TokenKind.DEFINE,
    ";": TokenKind.SEMI, ",": TokenKind.COMMA,
    "(": TokenKind.LPAREN, ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE, "}": TokenKind.RBRACE,
    "=": TokenKind.EQ, "!=": TokenKind.NEQ, "<": TokenKind.LT, ">": TokenKind.GT,
    "&": TokenKind.AMP, "$": TokenKind.DOLLAR,
}


@dataclass(frozen=True)
class Span:
    """Half-open source region; line/col are 1-based, offsets 0-based."""

    line: int
    col: int
    start: int
    end: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    span: Span = field(compare=False)
    value: object = None  # int/float for numbers, unquoted str for strings

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}@{self.span})"


_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | [ \t\r\f\v]+ | \#[^\n]*
  | (?P<op>::|:=|!=|[:;,(){}=<>&$])
  | (?P<string>'[^'\n]*'|"[^"\n]*")
  | (?P<float>-?[0-9]+\.[0-9]*)
  | (?P<thousands>-?[0-9]+)K
  | (?P<int>-?[0-9]+)
  | (?P<ident>(?:[A-Za-z_]|[^\s\x00-\x7f])(?:-?(?:[A-Za-z0-9_]|[^\s\x00-\x7f]))*)
  | (?P<error>.)
""", re.VERBOSE | re.DOTALL)


def tokenize(text: str) -> list[Token]:
    """Tokenize *text*, returning a token list ending in an EOF token.

    Raises :class:`LexError` (with location) on characters outside the
    grammar's letter/digit/operator sets in non-string context.
    """
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        cls = m.lastgroup
        if cls is None:
            continue
        start, end = m.span()
        if cls == "newline":
            line, line_start = line + 1, end
            continue
        lex = m.group()
        col = start - line_start + 1
        if cls == "error":
            if lex in "'\"":
                raise LexError("unterminated string literal", line, col)
            if lex == "!":
                raise LexError("'!' must be followed by '='", line, col)
            if lex.isspace():
                raise LexError(f"blank U+{ord(lex):04X} does not separate "
                               "tokens", line, col)
            raise LexError(f"unexpected character {lex!r}", line, col)
        value: object = None
        if cls == "op":
            kind = _OPERATORS[lex]
        elif cls == "ident":
            kind = KEYWORDS.get(lex, TokenKind.IDENT)
        elif cls == "string":
            kind, value = TokenKind.STRING, lex[1:-1]
        elif cls == "float":
            kind, value = TokenKind.FLOAT, float(lex)
        elif cls == "thousands":
            kind, value = TokenKind.INT, int(m.group(cls)) * 1000
        else:
            kind, value = TokenKind.INT, int(lex)
        tokens.append(Token(kind, lex, Span(line, col, start, end), value))
    end = len(text)
    tokens.append(Token(TokenKind.EOF, "", Span(line, end - line_start + 1, end, end)))
    return tokens
