"""Clause resolution and pairwise/consortium policy negotiation.

Clauses of a given kind are consulted top-down; the first clause whose
member list covers the counterparty and whose conditionals all hold is
the match.  A failing conditional (plain or data-dependent) moves
matching to the next clause, which is how fallback chains work.

Negotiation is owner-driven: the requester sends its acquire policy,
public profile, and blinded column payloads in one request; the owner
resolves both sides (its own share clauses against the requester, the
requester's acquire clauses against itself), AND-merges the matched
clauses, and returns the agreement.  This keeps the message count at
one request plus one response per directed pair; data-dependent
conditionals ride along rather than costing extra messages.

The owner's evaluation of the requester's blinded column is the one
way a data-dependent conditional is decided: true when the statistic
falls strictly below the threshold, and its wall time is the ``dd``
phase.  A request blinds only the columns the owner reads: those of its
share clauses, which its public profile lists, and of the requester's
acquire clauses covering it.

The merge is conservative: merged conditionals are the union (logical
AND) of both sides' conditionals and merged selections the conjunction
of both sides' filters, so no member's data is ever released beyond
its own share clause's intent.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from curie.cpl import ast
from curie.cpl.parser import parse_policy
from curie.cpl.serializer import format_conditional
from curie.data import (Dataset, RowFilter, SchemaMismatch, apply_selections,
                        check_shared_schema)
from curie.ddstats import BlindedColumn, blind_column, evaluate_blinded
from curie.errors import CurieError, MalformedPayload, PolicyTypeError
from curie.phases import phase
from curie.transport import MessageLog


class EnvError(CurieError):
    pass


class CycleError(CurieError):
    pass


FULL = "full"
PARTIAL = "partial"
EMPTY = "empty"


# --------------------------------------------------------------------------
# member contexts and evaluation environments

_PROFILE_FIELDS = {"member_id", "attributes", "alliances", "data_size",
                   "dd_columns"}


@dataclass(frozen=True)
class PublicProfile:
    """What a member discloses during negotiation: identity, plain
    attributes, alliance memberships, dataset row count, and the columns
    its share clauses evaluate (the policy itself travels in every
    request the member sends, so this adds nothing)."""

    member_id: str
    attributes: Mapping[str, object] = field(default_factory=dict)
    alliances: frozenset[str] = frozenset()
    data_size: int = 0
    dd_columns: frozenset[str] = frozenset()

    def to_json(self) -> dict:
        return {
            "member_id": self.member_id,
            "attributes": dict(self.attributes),
            "alliances": sorted(self.alliances),
            "data_size": self.data_size,
            "dd_columns": sorted(self.dd_columns),
        }

    @classmethod
    def from_json(cls, obj) -> "PublicProfile":
        """Inverse of :meth:`to_json`; raises :class:`MalformedPayload`
        on anything it could not have produced."""
        if not isinstance(obj, dict) or obj.keys() != _PROFILE_FIELDS:
            raise MalformedPayload("public profile fields do not match")
        member_id, attributes = obj["member_id"], obj["attributes"]
        alliances, data_size = obj["alliances"], obj["data_size"]
        dd_columns = obj["dd_columns"]
        if not isinstance(member_id, str) or not isinstance(attributes, dict):
            raise MalformedPayload("profile id or attributes are mistyped")
        for names in (alliances, dd_columns):
            if not isinstance(names, list) or not all(
                    isinstance(a, str) for a in names):
                raise MalformedPayload(
                    "profile alliances or dd columns are not a list of names")
        if type(data_size) is not int or data_size < 0:
            raise MalformedPayload(f"profile data size {data_size!r} is not a count")
        return cls(member_id, attributes, frozenset(alliances), data_size,
                   frozenset(dd_columns))


def _covers(clause: ast.Clause, member_id: str) -> bool:
    return not clause.members or member_id in clause.members


def evaluated_columns(policy: ast.PolicyAst, kind: ast.ClauseKind,
                      counterparty: str | None = None) -> frozenset[str]:
    """The columns the ``evaluate`` conditionals of *policy*'s *kind*
    clauses (those covering *counterparty*, when given) and of the
    sub-clauses their selections reach by tag read."""
    pending = [c for c in policy.clauses if c.kind is kind
               and (counterparty is None or _covers(c, counterparty))]
    reached, columns = set(), set()
    while pending:
        clause = pending.pop()
        columns.update(cond.data_ref for cond in clause.conditionals
                       if isinstance(cond, ast.Evaluate))
        selections = clause.selections
        if isinstance(selections, ast.TagRef) and selections.tag not in reached:
            reached.add(selections.tag)
            pending.extend(sub for tag, sub in policy.sub_clauses
                           if tag == selections.tag)
    return frozenset(columns)


@dataclass(frozen=True)
class MemberContext:
    member_id: str
    policy: ast.PolicyAst
    dataset: Dataset
    attributes: Mapping[str, object] = field(default_factory=dict)
    alliances: frozenset[str] = frozenset()

    @functools.cached_property
    def profile(self) -> PublicProfile:
        return PublicProfile(self.member_id, dict(self.attributes),
                             self.alliances, self.dataset.n,
                             evaluated_columns(self.policy, ast.ClauseKind.SHARE))


@dataclass(frozen=True)
class EvalEnv:
    """Environment a clause's conditionals evaluate against.

    ``own`` is the profile of the policy's author, ``counterparty`` the
    member being vetted; ``own_attributes`` are the author's policy
    attribute constants.  Variable lookup tries the author's constants
    first, then the counterparty's attributes.
    """

    own: PublicProfile
    counterparty: PublicProfile
    own_attributes: Mapping[str, tuple] = field(default_factory=dict)

    def lookup(self, name: str):
        if name in self.own_attributes:
            vals = tuple(v.as_python() for v in self.own_attributes[name])
            return vals[0] if len(vals) == 1 else vals
        if name in self.counterparty.attributes:
            return self.counterparty.attributes[name]
        raise EnvError(f"unbound variable ${name}")

    def lookup_list(self, name: str) -> tuple | None:
        try:
            v = self.lookup(name)
        except EnvError:
            return None
        return v if isinstance(v, tuple) else (v,)

    def alliances_of(self, member_id: str) -> frozenset[str]:
        if member_id == self.counterparty.member_id:
            return self.counterparty.alliances
        if member_id == self.own.member_id:
            return self.own.alliances
        raise EnvError(f"unknown member {member_id!r} in alliance test")


def _comparable(a, b) -> bool:
    num = (int, float)
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    if isinstance(a, num) and isinstance(b, num):
        return True
    return isinstance(a, str) and isinstance(b, str)


def eval_conditional(cond: ast.Comparison, env: EvalEnv) -> bool:
    """Evaluate a plain (non data-dependent) conditional.

    ``in`` tests set membership: against an attribute value list when
    the right side names one, otherwise against the named alliance of
    the member on the left.  Other comparisons use the operands'
    natural order and raise PolicyTypeError when the operands are of
    different kinds.
    """
    if isinstance(cond.lhs, ast.SizeOfData):
        lhs_value: object = env.counterparty.data_size
    elif isinstance(cond.lhs, ast.VarRef):
        lhs_value = env.lookup(cond.lhs.name)
    else:
        lhs_value = cond.lhs.name

    if cond.op == "in":
        if not isinstance(cond.rhs, ast.VarRef):
            raise PolicyTypeError("'in' requires a $variable on the right")
        values = env.lookup_list(cond.rhs.name)
        if values is not None:
            return lhs_value in values
        # fall back to alliance membership: "M2 in $EU"
        if not isinstance(lhs_value, str):
            raise PolicyTypeError(f"cannot test {lhs_value!r} for alliance membership")
        return cond.rhs.name in env.alliances_of(lhs_value)

    rhs_value = (env.lookup(cond.rhs.name) if isinstance(cond.rhs, ast.VarRef)
                 else cond.rhs.as_python())
    if not _comparable(lhs_value, rhs_value):
        raise PolicyTypeError(
            f"incomparable operands {lhs_value!r} and {rhs_value!r}")
    if cond.op == "=":
        return lhs_value == rhs_value
    if cond.op == "!=":
        return lhs_value != rhs_value
    if cond.op == "<":
        return lhs_value < rhs_value
    if cond.op == ">":
        return lhs_value > rhs_value
    raise PolicyTypeError(f"unsupported operation {cond.op!r}")


# --------------------------------------------------------------------------
# clause resolution

DDEvaluator = Callable[[ast.Evaluate], bool]

_NO_BRANCH = object()  # tag group exists but no branch matched


@dataclass(frozen=True)
class ResolvedClause:
    index: int                      # position among the policy's clauses
    clause: ast.Clause
    filters: tuple[RowFilter, ...]


def _resolve_filter(f: ast.Filter, env: EvalEnv) -> RowFilter:
    if isinstance(f.value, ast.VarRef):
        value = env.lookup(f.value.name)
        if f.op == "in" and not isinstance(value, tuple):
            value = (value,)
    else:
        value = f.value.as_python()
        if f.op == "in":
            value = (value,)
    return RowFilter(f.column, f.op, value)


def _all_hold(conditionals: Sequence[ast.Conditional], env: EvalEnv,
              dd_eval: DDEvaluator) -> bool:
    """Whether all *conditionals* hold.  They are evaluated in order up
    to the first that fails, so a later data-dependent one is neither
    evaluated nor traced."""
    return all(dd_eval(cond) if isinstance(cond, ast.Evaluate)
               else eval_conditional(cond, env)
               for cond in conditionals)


def _expand_selections(policy: ast.PolicyAst, selections: ast.Selections,
                       env: EvalEnv, dd_eval: DDEvaluator,
                       visited: frozenset[str]):
    if isinstance(selections, ast.Filters):
        return tuple(_resolve_filter(f, env) for f in selections.items)
    tag = selections.tag
    if tag in visited:
        raise CycleError(f"sub-clause expansion revisits tag {tag!r}")
    branches = [sub for t, sub in policy.sub_clauses if t == tag]
    if not branches:
        raise EnvError(f"selections reference undeclared sub-clause {tag!r}")
    for sub in branches:
        if _all_hold(sub.conditionals, env, dd_eval):
            return _expand_selections(policy, sub.selections, env, dd_eval,
                                      visited | {tag})
    return _NO_BRANCH


def resolve_clause(policy: ast.PolicyAst, kind: ast.ClauseKind,
                   counterparty: str, env: EvalEnv,
                   dd_eval: DDEvaluator) -> ResolvedClause | None:
    """First matching clause of *kind* for *counterparty*, with fully
    expanded selections, or None when nothing matches.

    Clauses are consulted top-down; one whose conditionals fail (or
    whose tag group offers no live branch) is skipped, implementing
    fallback.  *dd_eval* decides every data-dependent conditional.
    """
    for index, clause in enumerate(policy.clauses):
        if clause.kind is not kind:
            continue
        if not _covers(clause, counterparty):
            continue
        if not _all_hold(clause.conditionals, env, dd_eval):
            continue
        filters = _expand_selections(policy, clause.selections, env, dd_eval,
                                     frozenset())
        if filters is not _NO_BRANCH:
            return ResolvedClause(index, clause, filters)
    return None


# --------------------------------------------------------------------------
# agreements

@dataclass(frozen=True)
class Agreement:
    """Resolved directed data-flow contract (owner releases to requester)."""

    owner: str
    requester: str
    status: str
    selections: tuple[RowFilter, ...] = ()
    conditionals: tuple[ast.Conditional, ...] = ()
    provenance: tuple[int, int] | None = None  # (owner idx, requester idx)
    reason: str | None = None
    dd_trace: tuple[dict, ...] = ()
    released_rows: int = 0

    def to_json(self) -> dict:
        return {
            "owner": self.owner,
            "requester": self.requester,
            "status": self.status,
            "selections": [f.to_json() for f in self.selections],
            "conditionals": [format_conditional(c) for c in self.conditionals],
            "provenance": list(self.provenance) if self.provenance else None,
            "reason": self.reason,
            "dd_trace": list(self.dd_trace),
            "released_rows": self.released_rows,
        }


@dataclass(frozen=True)
class AcquireRequest:
    """Everything the owner needs to answer in a single round trip."""

    requester: PublicProfile
    policy: ast.PolicyAst
    blinded: Mapping[str, BlindedColumn] = field(default_factory=dict)

    def to_payload(self) -> bytes:
        return json.dumps({
            "requester": self.requester.to_json(),
            "policy": self.policy.canonical_text,
            "blinded": {c: b.to_payload() for c, b in sorted(self.blinded.items())},
        }, sort_keys=True).encode()

    @classmethod
    def from_payload(cls, payload: bytes) -> "AcquireRequest":
        """Inverse of :meth:`to_payload`.  Raises :class:`MalformedPayload`
        (or the policy parser's error) on anything it could not have
        produced, so a parsed request re-encodes to an equal request."""
        try:
            body = json.loads(payload.decode(), parse_float=_finite_float,
                              parse_constant=_no_constant)
        except (ValueError, RecursionError) as exc:
            raise MalformedPayload(f"request is not JSON: {exc}") from None
        if not isinstance(body, dict):
            raise MalformedPayload("request is not a JSON object")
        if body.keys() != {"requester", "policy", "blinded"}:
            raise MalformedPayload(f"request fields {sorted(body)} do not match")
        columns = body["blinded"]
        if not isinstance(body["policy"], str) or not isinstance(columns, dict):
            raise MalformedPayload("request policy or columns are mistyped")
        requester = PublicProfile.from_json(body["requester"])
        policy = parse_policy(body["policy"])
        blinded = {c: BlindedColumn.from_payload(p) for c, p in columns.items()}
        if any(b.column != c for c, b in blinded.items()):
            raise MalformedPayload("a blinded column is filed under another name")
        return cls(requester, policy, blinded)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise MalformedPayload(f"number {text} overflows a float")
    return value


def _no_constant(name: str):
    raise MalformedPayload(f"non-finite number {name} in request")


def build_request(requester: MemberContext, owner: PublicProfile,
                  rng: random.Random) -> AcquireRequest:
    """Requester-side request assembly.

    Blinds every schema column the owner's share clauses or the
    requester's acquire clauses covering the owner evaluate, so the
    owner can decide the data-dependent conditionals of both policies
    without another round trip, and no other column leaves the requester.
    """
    profile = requester.profile
    wanted = owner.dd_columns | evaluated_columns(
        requester.policy, ast.ClauseKind.ACQUIRE, owner.member_id)
    columns = requester.dataset.columns
    blinded = {
        c.name: blind_column(c.name, c.ctype.kind, columns[c.name], rng)
        for c in requester.dataset.schema.columns if c.name in wanted
    }
    return AcquireRequest(profile, requester.policy, blinded)


def _make_dd_eval(request: AcquireRequest, owner: MemberContext,
                  trace: list[dict]) -> DDEvaluator:
    def dd_eval(cond: ast.Evaluate) -> bool:
        column = cond.data_ref
        if column not in owner.dataset.columns:
            raise EnvError(f"data reference &{column} is not a schema column")
        blinded = request.blinded.get(column)
        if blinded is None:
            raise EnvError(f"the request carries no blinded column for &{column}")
        with phase("dd"):
            stat = evaluate_blinded(cond.algorithm, blinded, owner.dataset.column(column),
                                    owner.dataset.schema.column(column).ctype.kind)
        decision = stat < cond.threshold
        trace.append({
            "algorithm": cond.algorithm.value,
            "column": column,
            "threshold": cond.threshold,
            "decision": decision,
        })
        return decision

    return dd_eval


def answer_request(owner: MemberContext, request: AcquireRequest) -> Agreement:
    """Owner-side negotiation: resolve both sides, AND-merge, classify.

    Status is data-relative on the owner's current dataset: ``full``
    when the merged selections release every row, ``partial`` for a
    proper nonempty subset, ``empty`` otherwise (including no matching
    clause on either side).
    """
    requester = request.requester
    trace: list[dict] = []
    dd_eval = _make_dd_eval(request, owner, trace)

    acquire_env = EvalEnv(requester, owner.profile,
                          request.policy.attribute_map())
    acquired = resolve_clause(request.policy, ast.ClauseKind.ACQUIRE,
                              owner.member_id, acquire_env, dd_eval)
    if acquired is None:
        return Agreement(owner.member_id, requester.member_id, EMPTY,
                         reason="no acquire clause matched",
                         dd_trace=tuple(trace))

    share_env = EvalEnv(owner.profile, requester, owner.policy.attribute_map())
    shared = resolve_clause(owner.policy, ast.ClauseKind.SHARE,
                            requester.member_id, share_env, dd_eval)
    if shared is None:
        return Agreement(owner.member_id, requester.member_id, EMPTY,
                         reason="no share clause matched",
                         dd_trace=tuple(trace))

    selections = shared.filters + acquired.filters
    conditionals = shared.clause.conditionals + acquired.clause.conditionals
    released = apply_selections(owner.dataset, selections)
    if released.n == 0:
        status = EMPTY
    elif released.n == owner.dataset.n:
        status = FULL
    else:
        status = PARTIAL
    return Agreement(
        owner.member_id, requester.member_id, status,
        selections=selections,
        conditionals=conditionals,
        provenance=(shared.index, acquired.index),
        dd_trace=tuple(trace),
        released_rows=released.n,
    )


def _exchange(requester: MemberContext, owner: MemberContext,
              rng: random.Random, log: MessageLog) -> Agreement:
    """One directed pair's round trip, each message logged as the bytes
    it carries: the requester's request, then the owner's answer.  An
    answer that fails with a :class:`CurieError` is an empty agreement
    naming the error."""
    request = build_request(requester, owner.profile, rng)
    log.send(requester.member_id, owner.member_id, "acquire_request",
             request.to_payload())
    try:
        agreement = answer_request(owner, request)
    except CurieError as exc:
        agreement = Agreement(owner.member_id, requester.member_id, EMPTY,
                              reason=f"negotiation error: {exc}")
    log.send(owner.member_id, requester.member_id, "negotiation_output",
             json.dumps(agreement.to_json(), sort_keys=True).encode())
    return agreement


def _names_counterparty(policy: ast.PolicyAst, owner_id: str) -> bool:
    return any(c.kind is ast.ClauseKind.ACQUIRE and _covers(c, owner_id)
               for c in policy.clauses)


def negotiate_consortium(contexts: Sequence[MemberContext], rng: random.Random
                         ) -> tuple[list[Agreement], MessageLog]:
    """Run all pairwise negotiations.

    For every ordered (requester, owner) pair the requester's policy
    names, exactly one request and one response message are logged;
    per-pair failures become empty agreements with a reason.  The
    result is deterministic given the contexts and rng.
    """
    if len(contexts) < 2:
        raise ValueError("a consortium needs at least two members")
    ids = [c.member_id for c in contexts]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate member ids")
    base = contexts[0].dataset.schema
    for ctx in contexts[1:]:
        report = check_shared_schema(base, ctx.dataset.schema)
        if report:
            raise SchemaMismatch(
                f"{contexts[0].member_id} vs {ctx.member_id}: " + "; ".join(report))

    log = MessageLog()
    by_id = {c.member_id: c for c in contexts}
    agreements: list[Agreement] = []
    for requester_id in ids:
        requester = by_id[requester_id]
        for owner_id in ids:
            if owner_id == requester_id:
                continue
            if not _names_counterparty(requester.policy, owner_id):
                continue
            agreements.append(_exchange(requester, by_id[owner_id], rng, log))
    return agreements, log
