"""Recursive-descent parser for CPL.

Grammar outline (brackets mark optional fields, ``;`` terminates every
statement):

    policy       := statement+ EOF
    statement    := clause | sub_clause | attribute
    clause       := ("share"|"acquire") ":" [members] ":" [conditionals]
                    "::" [selections] ";"
    sub_clause   := tag ":" [conditionals] "::" [selections] ";"
    attribute    := ident ":=" "<" value_list ">" ";"
    members      := ident ("," ident)*
    conditionals := conditional ("," conditional)*
    conditional  := "evaluate" "(" "&" ident "," string "," number ")"
                  | lhs op rhs
    lhs          := "$" ident | "size" "(" "data" ")" | ident
    op           := "=" | "<" | ">" | "!=" | "in"
    rhs          := value | "$" ident
    selections   := filter ("," filter)* | tag
    filter       := ["$"] ident op rhs
    value_list   := item ("," item)*        item := value | "{" value "}"

The parser reports the first error with its location and the set of
token kinds it would have accepted.
"""

from __future__ import annotations

from curie.cpl import ast
from curie.cpl.tokens import LexError, Span, Token, TokenKind, tokenize
from curie.errors import CurieError

_OP_KINDS = {
    TokenKind.EQ: "=",
    TokenKind.LT: "<",
    TokenKind.GT: ">",
    TokenKind.NEQ: "!=",
    TokenKind.IN: "in",
}


class ParseError(CurieError):
    def __init__(self, message: str, span: Span, expected: frozenset[str] = frozenset()):
        loc = f"{span.line}:{span.col}"
        exp = f" (expected {', '.join(sorted(expected))})" if expected else ""
        super().__init__(f"{loc}: {message}{exp}")
        self.message = message
        self.span = span
        self.expected = expected


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing ------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def check(self, kind: TokenKind) -> bool:
        return self.peek().kind is kind

    def expect(self, kind: TokenKind, what: str) -> Token:
        tok = self.peek()
        if tok.kind is not kind:
            raise ParseError(
                f"unexpected {self._describe(tok)}", tok.span, frozenset({what})
            )
        return self.advance()

    @staticmethod
    def _describe(tok: Token) -> str:
        if tok.kind is TokenKind.EOF:
            return "end of input"
        return f"{tok.kind.name.lower()} {tok.text!r}"

    # -- grammar -------------------------------------------------------

    def parse_policy(self) -> ast.PolicyAst:
        statements: list[ast.Statement] = []
        if self.check(TokenKind.EOF):
            raise ParseError(
                "a policy must contain at least one statement",
                self.peek().span,
                frozenset({"share", "acquire", "attribute", "sub-clause"}),
            )
        while not self.check(TokenKind.EOF):
            statements.append(self.parse_statement())
        return ast.PolicyAst(tuple(statements))

    def parse_statement(self) -> ast.Statement:
        tok = self.peek()
        if tok.kind in (TokenKind.SHARE, TokenKind.ACQUIRE):
            return self.parse_clause()
        if tok.kind is TokenKind.IDENT:
            nxt = self.peek(1)
            if nxt.kind is TokenKind.DEFINE:
                return self.parse_attribute()
            if nxt.kind is TokenKind.COLON:
                return self.parse_sub_clause()
            raise ParseError(
                f"unexpected {self._describe(nxt)} after identifier",
                nxt.span,
                frozenset({"':'", "':='"}),
            )
        raise ParseError(
            f"unexpected {self._describe(tok)}",
            tok.span,
            frozenset({"share", "acquire", "identifier"}),
        )

    def parse_clause(self) -> ast.Clause:
        kw = self.advance()
        kind = ast.ClauseKind.SHARE if kw.kind is TokenKind.SHARE else ast.ClauseKind.ACQUIRE
        self.expect(TokenKind.COLON, "':'")
        members = self.parse_members()
        self.expect(TokenKind.COLON, "':'")
        conditionals = self.parse_conditionals()
        self.expect(TokenKind.DCOLON, "'::'")
        selections = self.parse_selections()
        self.expect(TokenKind.SEMI, "';'")
        return ast.Clause(kind, members, conditionals, selections, span=kw.span)

    def parse_sub_clause(self) -> ast.Clause:
        tag_tok = self.expect(TokenKind.IDENT, "sub-clause tag")
        self.expect(TokenKind.COLON, "':'")
        conditionals = self.parse_conditionals()
        self.expect(TokenKind.DCOLON, "'::'")
        selections = self.parse_selections()
        self.expect(TokenKind.SEMI, "';'")
        return ast.Clause(
            ast.ClauseKind.SUB, (), conditionals, selections,
            tag=tag_tok.text, span=tag_tok.span,
        )

    def parse_attribute(self) -> ast.Attribute:
        name_tok = self.expect(TokenKind.IDENT, "attribute name")
        self.expect(TokenKind.DEFINE, "':='")
        self.expect(TokenKind.LT, "'<'")
        values: list[ast.Value] = []
        while True:
            if self.check(TokenKind.LBRACE):
                self.advance()
                values.append(self.parse_value())
                self.expect(TokenKind.RBRACE, "'}'")
            else:
                values.append(self.parse_value())
            if self.check(TokenKind.COMMA):
                self.advance()
                continue
            break
        self.expect(TokenKind.GT, "'>'")
        self.expect(TokenKind.SEMI, "';'")
        return ast.Attribute(name_tok.text, tuple(values), span=name_tok.span)

    def parse_members(self) -> tuple[str, ...]:
        members: list[str] = []
        while self.check(TokenKind.IDENT):
            members.append(self.advance().text)
            if self.check(TokenKind.COMMA):
                self.advance()
                if not self.check(TokenKind.IDENT):
                    raise ParseError(
                        f"unexpected {self._describe(self.peek())} in member list",
                        self.peek().span,
                        frozenset({"identifier"}),
                    )
        return tuple(members)

    def parse_conditionals(self) -> tuple[ast.Conditional, ...]:
        conds: list[ast.Conditional] = []
        while not self.check(TokenKind.DCOLON):
            conds.append(self.parse_conditional())
            if self.check(TokenKind.COMMA):
                self.advance()
                continue
            break
        return tuple(conds)

    def parse_conditional(self) -> ast.Conditional:
        tok = self.peek()
        if tok.kind is TokenKind.EVALUATE:
            return self.parse_evaluate()
        lhs = self.parse_lhs()
        op = self.parse_operation()
        rhs = self.parse_rhs()
        return ast.Comparison(lhs, op, rhs, span=tok.span)

    def parse_evaluate(self) -> ast.Evaluate:
        kw = self.advance()
        self.expect(TokenKind.LPAREN, "'('")
        self.expect(TokenKind.AMP, "'&'")
        ref = self.expect(TokenKind.IDENT, "data reference").text
        self.expect(TokenKind.COMMA, "','")
        alg_tok = self.expect(TokenKind.STRING, "algorithm string")
        algorithm = ast.Algorithm.from_text(alg_tok.value)
        if algorithm is None:
            raise ParseError(
                f"unknown algorithm {alg_tok.value!r}",
                alg_tok.span,
                frozenset(a.value for a in ast.Algorithm),
            )
        self.expect(TokenKind.COMMA, "','")
        thr = self.peek()
        if thr.kind not in (TokenKind.INT, TokenKind.FLOAT):
            raise ParseError(
                f"unexpected {self._describe(thr)}", thr.span, frozenset({"number"})
            )
        self.advance()
        self.expect(TokenKind.RPAREN, "')'")
        return ast.Evaluate(ref, algorithm, float(thr.value), span=kw.span)

    def parse_lhs(self) -> ast.LhsExpr:
        tok = self.peek()
        if tok.kind is TokenKind.DOLLAR:
            self.advance()
            name = self.expect(TokenKind.IDENT, "variable name").text
            return ast.VarRef(name, span=tok.span)
        if tok.kind is TokenKind.IDENT:
            if tok.text == "size" and self.peek(1).kind is TokenKind.LPAREN:
                self.advance()
                self.advance()
                arg = self.expect(TokenKind.IDENT, "'data'")
                if arg.text != "data":
                    raise ParseError(
                        f"size() takes 'data', got {arg.text!r}",
                        arg.span,
                        frozenset({"data"}),
                    )
                self.expect(TokenKind.RPAREN, "')'")
                return ast.SizeOfData(span=tok.span)
            self.advance()
            return ast.MemberRef(tok.text, span=tok.span)
        raise ParseError(
            f"unexpected {self._describe(tok)} in conditional",
            tok.span,
            frozenset({"identifier", "'$'", "size(data)", "evaluate"}),
        )

    def parse_operation(self) -> str:
        tok = self.peek()
        op = _OP_KINDS.get(tok.kind)
        if op is None:
            raise ParseError(
                f"unexpected {self._describe(tok)}",
                tok.span,
                frozenset({"'='", "'<'", "'>'", "'!='", "'in'"}),
            )
        self.advance()
        return op

    def parse_rhs(self) -> ast.Value | ast.VarRef:
        tok = self.peek()
        if tok.kind is TokenKind.DOLLAR:
            self.advance()
            name = self.expect(TokenKind.IDENT, "variable name").text
            return ast.VarRef(name, span=tok.span)
        return self.parse_value()

    def parse_value(self) -> ast.Value:
        tok = self.peek()
        if tok.kind is TokenKind.STRING:
            self.advance()
            return ast.Value(tok.value, quoted=True)
        if tok.kind in (TokenKind.INT, TokenKind.FLOAT):
            self.advance()
            return ast.Value(tok.value)
        if tok.kind is TokenKind.IDENT:
            self.advance()
            return ast.Value(tok.text)
        raise ParseError(
            f"unexpected {self._describe(tok)}",
            tok.span,
            frozenset({"string", "number", "identifier"}),
        )

    def parse_selections(self) -> ast.Selections:
        tok = self.peek()
        if tok.kind is TokenKind.SEMI:
            return ast.Filters(())
        if tok.kind is TokenKind.EOF:
            raise ParseError("unexpected end of input", tok.span,
                             frozenset({"';'", "filter", "tag"}))
        if tok.kind is TokenKind.IDENT and self.peek(1).kind is TokenKind.SEMI:
            self.advance()
            return ast.TagRef(tok.text, span=tok.span)
        filters: list[ast.Filter] = []
        while True:
            filters.append(self.parse_filter())
            if self.check(TokenKind.COMMA):
                self.advance()
                continue
            break
        return ast.Filters(tuple(filters))

    def parse_filter(self) -> ast.Filter:
        tok = self.peek()
        is_var = False
        if tok.kind is TokenKind.DOLLAR:
            self.advance()
            is_var = True
            col = self.expect(TokenKind.IDENT, "column name").text
        else:
            col = self.expect(TokenKind.IDENT, "column name").text
        op = self.parse_operation()
        rhs = self.parse_rhs()
        return ast.Filter(col, op, rhs, is_var=is_var, span=tok.span)


def parse_policy(text: str) -> ast.PolicyAst:
    """Parse a CPL source string into a :class:`PolicyAst`.

    Raises :class:`LexError` or :class:`ParseError` on invalid input;
    never raises anything else for arbitrary text.
    """
    return _Parser(tokenize(text)).parse_policy()


__all__ = ["ParseError", "LexError", "parse_policy"]
