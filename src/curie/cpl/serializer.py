"""Canonical serializer for CPL ASTs.

Deterministic formatting: one statement per line, single spaces around
field separators, double-quoted strings (single quotes when the value
itself contains a double quote).  ``serialize(parse(text))`` reparses
to a structurally identical AST.
"""

from __future__ import annotations

import math
from decimal import Decimal

from curie.cpl import ast


def _format_number(x: int | float) -> str:
    if isinstance(x, int):
        return str(x)
    if not math.isfinite(x):
        raise ValueError(f"{x!r} has no CPL literal form")
    r = repr(x)
    if "e" not in r and "E" not in r:
        return r
    # the grammar has no exponent notation; expand to plain decimal
    # (the repr digits uniquely identify the float, so this reparses
    # to the same value)
    return format(Decimal(r), "f")


def _format_value(v: ast.Value) -> str:
    if isinstance(v.data, (int, float)) and not isinstance(v.data, bool):
        return _format_number(v.data)
    if v.quoted:
        if '"' in str(v.data):
            return f"'{v.data}'"
        return f'"{v.data}"'
    return str(v.data)


def _format_rhs(rhs: ast.Value | ast.VarRef) -> str:
    if isinstance(rhs, ast.VarRef):
        return f"${rhs.name}"
    return _format_value(rhs)


def _format_lhs(lhs: ast.LhsExpr) -> str:
    if isinstance(lhs, ast.VarRef):
        return f"${lhs.name}"
    if isinstance(lhs, ast.SizeOfData):
        return "size(data)"
    return lhs.name


def _format_conditional(c: ast.Conditional) -> str:
    if isinstance(c, ast.Evaluate):
        return (f'evaluate(&{c.data_ref}, "{c.algorithm.value}", '
                f"{_format_number(c.threshold)})")
    return f"{_format_lhs(c.lhs)} {c.op} {_format_rhs(c.rhs)}"


def _format_filter(f: ast.Filter) -> str:
    col = f"${f.column}" if f.is_var else f.column
    return f"{col} {f.op} {_format_rhs(f.value)}"


def _format_selections(sel: ast.Selections) -> str:
    if isinstance(sel, ast.TagRef):
        return sel.tag
    return ", ".join(_format_filter(f) for f in sel.items)


def _format_statement(stmt: ast.Statement) -> str:
    if isinstance(stmt, ast.Attribute):
        vals = ", ".join(_format_value(v) for v in stmt.values)
        return f"{stmt.name} := <{vals}> ;"
    conds = ", ".join(_format_conditional(c) for c in stmt.conditionals)
    sels = _format_selections(stmt.selections)
    if stmt.kind is ast.ClauseKind.SUB:
        return f"{stmt.tag} : {conds} :: {sels} ;"
    members = ", ".join(stmt.members)
    return f"{stmt.kind.value} : {members} : {conds} :: {sels} ;"


def serialize(policy: ast.PolicyAst) -> str:
    """Render *policy* as canonical CPL text (ends with a newline)."""
    return "\n".join(_format_statement(s) for s in policy.statements) + "\n"


# conditional formatting is reused by negotiation traces
format_conditional = _format_conditional
