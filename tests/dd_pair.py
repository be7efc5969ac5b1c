"""Two members whose only shared data is one evaluated column, for
driving a data-dependent conditional through the negotiation engine."""

from __future__ import annotations

from curie.cpl import ast
from curie.data import Column, ColumnType, Schema, from_rows
from curie.engine import MemberContext


def _column_type(values) -> ColumnType:
    if all(isinstance(v, str) for v in values):
        return ColumnType("categorical", tuple(sorted(set(values))))
    if all(isinstance(v, int) for v in values):
        return ColumnType("integer")
    return ColumnType("real")


def dd_members(algorithm: ast.Algorithm, threshold: float,
               requester_values, owner_values
               ) -> tuple[MemberContext, MemberContext]:
    """Requester ``R``, whose one acquire clause from ``O`` is gated by
    ``evaluate(&col, algorithm, threshold)``, and owner ``O``, which
    shares everything with ``R``.  Each member's rows are its values of
    ``col`` beside a constant target, so the pair negotiates ``full``
    exactly when the conditional holds."""
    schema = Schema((
        Column("col", _column_type([*requester_values, *owner_values])),
        Column("dose", ColumnType("real")),
    ), target="dose")
    gate = ast.Evaluate("col", algorithm, threshold)
    requester = MemberContext("R", ast.PolicyAst((
        ast.Clause(ast.ClauseKind.ACQUIRE, ("O",), (gate,)),)),
        from_rows(schema, [dict(col=v, dose=1.0) for v in requester_values], "R"))
    owner = MemberContext("O", ast.PolicyAst((
        ast.Clause(ast.ClauseKind.SHARE, ("R",)),)),
        from_rows(schema, [dict(col=v, dose=1.0) for v in owner_values], "O"))
    return requester, owner
