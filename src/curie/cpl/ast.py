"""AST node types for parsed CPL policies.

All nodes are frozen dataclasses.  Source spans are carried for
diagnostics but excluded from equality, so two parses of equivalent
text compare structurally equal (the round-trip property relies on
this).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Union

from curie.cpl.tokens import Span

_NO_SPAN = Span(0, 0, 0, 0)


class ClauseKind(Enum):
    SHARE = "share"
    ACQUIRE = "acquire"
    SUB = "sub"


class Algorithm(Enum):
    """The four data-dependent conditional statistics."""

    INTERSECTION_SIZE = "Intersection size"
    JACCARD_INDEX = "Jaccard index"
    PEARSON_CORRELATION = "Pearson correlation"
    COSINE_SIMILARITY = "Cosine similarity"

    @classmethod
    def from_text(cls, text: str) -> "Algorithm | None":
        key = "".join(text.lower().split())
        return _ALGORITHM_ALIASES.get(key)


_ALGORITHM_ALIASES = {
    "intersectionsize": Algorithm.INTERSECTION_SIZE,
    "intersection": Algorithm.INTERSECTION_SIZE,
    "jaccardindex": Algorithm.JACCARD_INDEX,
    "jaccard": Algorithm.JACCARD_INDEX,
    "pearsoncorrelation": Algorithm.PEARSON_CORRELATION,
    "pearson": Algorithm.PEARSON_CORRELATION,
    "cosinesimilarity": Algorithm.COSINE_SIMILARITY,
    "cosine": Algorithm.COSINE_SIMILARITY,
}


@dataclass(frozen=True)
class Value:
    """A literal: bare identifier, quoted string, int, or float.

    ``quoted`` distinguishes ``Asian`` from ``"Asian"`` so the
    serializer can reproduce the original form.
    """

    data: Union[str, int, float]
    quoted: bool = False

    def as_python(self) -> Union[str, int, float]:
        return self.data


@dataclass(frozen=True)
class VarRef:
    """``$name``: environment/attribute reference."""

    name: str
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class MemberRef:
    """Bare member identifier on the left of a comparison."""

    name: str
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class SizeOfData:
    """The built-in ``size(data)`` expression."""

    span: Span = field(default=_NO_SPAN, compare=False)


LhsExpr = Union[VarRef, MemberRef, SizeOfData]


@dataclass(frozen=True)
class Comparison:
    lhs: LhsExpr
    op: str  # one of = < > != in
    rhs: Union[Value, VarRef]
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class Evaluate:
    """``evaluate(&data_ref, "algorithm", threshold)``."""

    data_ref: str
    algorithm: Algorithm
    threshold: float
    span: Span = field(default=_NO_SPAN, compare=False)


Conditional = Union[Comparison, Evaluate]


@dataclass(frozen=True)
class Filter:
    """Column predicate in a selections field."""

    column: str
    op: str
    value: Union[Value, VarRef]
    is_var: bool = False  # True when written as $column
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class Filters:
    items: tuple[Filter, ...] = ()


@dataclass(frozen=True)
class TagRef:
    tag: str
    span: Span = field(default=_NO_SPAN, compare=False)


Selections = Union[Filters, TagRef]


@dataclass(frozen=True)
class Clause:
    kind: ClauseKind
    members: tuple[str, ...] = ()          # empty means "all members"
    conditionals: tuple[Conditional, ...] = ()
    selections: Selections = Filters()
    tag: str | None = None                 # set only for kind=SUB
    span: Span = field(default=_NO_SPAN, compare=False)

    def __post_init__(self) -> None:
        if self.kind is ClauseKind.SUB:
            if self.tag is None:
                raise ValueError("sub-clause requires a tag")
            if self.members:
                raise ValueError("sub-clause carries no members list")
        elif self.tag is not None:
            raise ValueError("only sub-clauses carry a tag")


@dataclass(frozen=True)
class Attribute:
    """``name := <v1, v2, ...>`` consortium constant declaration."""

    name: str
    values: tuple[Value, ...]
    span: Span = field(default=_NO_SPAN, compare=False)


Statement = Union[Attribute, Clause]


@dataclass(frozen=True)
class PolicyAst:
    """A parsed policy document, statement order preserved.

    Its views (the share and acquire clauses, the tagged sub-clauses,
    the attributes and the read-only map of attributes by name) are
    derived once, when the policy is made, and take no part in equality,
    hashing or repr.  Negotiation reads them for every pair.
    """

    statements: tuple[Statement, ...]
    clauses: tuple[Clause, ...] = field(init=False, compare=False, repr=False)
    sub_clauses: tuple[tuple[str, Clause], ...] = field(
        init=False, compare=False, repr=False)
    attributes: tuple[Attribute, ...] = field(init=False, compare=False, repr=False)
    _attribute_map: dict[str, tuple[Value, ...]] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        attributes = tuple(s for s in self.statements if isinstance(s, Attribute))
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "clauses", tuple(
            s for s in self.statements
            if isinstance(s, Clause) and s.kind is not ClauseKind.SUB))
        object.__setattr__(self, "sub_clauses", tuple(
            (s.tag, s) for s in self.statements
            if isinstance(s, Clause) and s.kind is ClauseKind.SUB))
        object.__setattr__(self, "_attribute_map",
                           {a.name: a.values for a in attributes})

    def attribute_map(self) -> Mapping[str, tuple[Value, ...]]:
        """The attributes by name, a later declaration of a name winning,
        as a read-only view: every holder of this policy shares the map."""
        return MappingProxyType(self._attribute_map)

    @functools.cached_property
    def canonical_text(self) -> str:
        """The policy as :func:`curie.cpl.serializer.serialize` renders
        it, rendered once: every request a member sends carries it."""
        from curie.cpl.serializer import serialize

        return serialize(self)


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    span: Span
    code: str
    message: str

    def format(self, filename: str = "<policy>") -> str:
        return (f"{filename}:{self.span.line}:{self.span.col}: "
                f"{self.severity.value}[{self.code}]: {self.message}")
