"""Data-dependent conditional statistics and their blinded two-party
evaluation flow.

Four statistics gate clause conditionals: intersection size, Jaccard
index, Pearson correlation, and cosine similarity.  Set statistics
operate on distinct values (multiset duplicates collapsed); vector
statistics require equal-length inputs and refuse degenerate ones.

The blinded flow simulates a private evaluation with message-level
fidelity, not cryptographic strength: set statistics travel as
salted-hash encodings, vector statistics as masked values under a
transform the statistic is invariant to (positive scaling for cosine,
positive-slope affine for Pearson).  Neither party's raw column ever
crosses the member boundary in clear text, and the owner returns only
the boolean decision unless audit mode is on.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from curie.cpl.ast import Algorithm, Evaluate
from curie.errors import CurieError, MalformedPayload
from curie.transport import MessageLog


class LengthMismatch(CurieError):
    pass


class ZeroVariance(CurieError):
    pass


class ZeroNorm(CurieError):
    pass


class EmptyUnion(CurieError):
    pass


class ColumnMismatch(CurieError):
    pass


# --------------------------------------------------------------------------
# plain statistics

def intersection_size(a: Sequence, b: Sequence) -> int:
    """Cardinality of the intersection of the distinct values."""
    return len(set(a) & set(b))


def jaccard(a: Sequence, b: Sequence) -> float:
    """|A ∩ B| / |A ∪ B| over distinct values; raises on an empty union."""
    sa, sb = set(a), set(b)
    union = sa | sb
    if not union:
        raise EmptyUnion("jaccard undefined for two empty sets")
    return len(sa & sb) / len(union)


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) != len(b):
        raise LengthMismatch(f"vector lengths differ: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise LengthMismatch("pearson needs at least two samples")
    ma = math.fsum(a) / n
    mb = math.fsum(b) / n
    cov = math.fsum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = math.fsum((x - ma) ** 2 for x in a)
    vb = math.fsum((y - mb) ** 2 for y in b)
    if va == 0.0 or vb == 0.0:
        raise ZeroVariance("pearson undefined for a constant vector")
    return cov / math.sqrt(va * vb)


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) != len(b):
        raise LengthMismatch(f"vector lengths differ: {len(a)} vs {len(b)}")
    dot = math.fsum(x * y for x, y in zip(a, b))
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        raise ZeroNorm("cosine undefined for a zero vector")
    return dot / (na * nb)


_SET_ALGORITHMS = {Algorithm.INTERSECTION_SIZE, Algorithm.JACCARD_INDEX}

STATISTICS: dict[Algorithm, Callable] = {
    Algorithm.INTERSECTION_SIZE: intersection_size,
    Algorithm.JACCARD_INDEX: jaccard,
    Algorithm.PEARSON_CORRELATION: pearson,
    Algorithm.COSINE_SIMILARITY: cosine,
}


def compute_statistic(algorithm: Algorithm, a: Sequence, b: Sequence) -> float:
    return float(STATISTICS[algorithm](a, b))


# --------------------------------------------------------------------------
# comparators

def below(statistic: float, threshold: float) -> bool:
    return statistic < threshold


def above(statistic: float, threshold: float) -> bool:
    return statistic > threshold


COMPARATORS: dict[str, Callable[[float, float], bool]] = {
    "below": below,
    "above": above,
}


def resolve_comparator(comparator) -> Callable[[float, float], bool]:
    if callable(comparator):
        return comparator
    try:
        return COMPARATORS[comparator]
    except KeyError:
        raise ValueError(f"unknown comparator {comparator!r}") from None


# --------------------------------------------------------------------------
# blinded exchange

def _canon(v) -> bytes:
    if isinstance(v, bool):
        return b"b:" + (b"1" if v else b"0")
    if isinstance(v, int):
        return b"i:%d" % v
    if isinstance(v, float):
        return b"f:" + repr(v).encode()
    return b"s:" + str(v).encode()


def salted_hashes(values: Sequence, salt: bytes) -> frozenset[bytes]:
    return frozenset(
        hashlib.sha256(salt + _canon(v)).digest() for v in set(values)
    )


_BLINDED_FIELDS = {"column", "salt", "size", "hashes", "scaled", "affine"}


@dataclass(frozen=True)
class BlindedColumn:
    """One column prepared for owner-side evaluation.

    ``hashes`` serve set statistics; ``scaled`` (alpha * v) serves
    cosine similarity, ``affine`` (alpha * v + beta) serves Pearson
    correlation.  alpha > 0, so both statistics are unchanged.
    """

    column: str
    salt: bytes
    size: int
    hashes: frozenset[bytes]
    scaled: tuple[float, ...]
    affine: tuple[float, ...]

    def to_payload(self) -> dict:
        return {
            "column": self.column,
            "salt": self.salt.hex(),
            "size": self.size,
            "hashes": sorted(h.hex() for h in self.hashes),
            "scaled": list(self.scaled),
            "affine": list(self.affine),
        }

    @classmethod
    def from_payload(cls, obj) -> "BlindedColumn":
        """Inverse of :meth:`to_payload`; raises :class:`MalformedPayload`
        on anything it could not have produced."""
        if not isinstance(obj, dict) or obj.keys() != _BLINDED_FIELDS:
            raise MalformedPayload("blinded column fields do not match")
        size, scaled, affine = obj["size"], obj["scaled"], obj["affine"]
        if not isinstance(obj["column"], str):
            raise MalformedPayload("blinded column name is not a string")
        if type(size) is not int or size < 0:
            raise MalformedPayload(f"blinded column size {size!r} is not a count")
        for values in (scaled, affine):
            if not isinstance(values, list) or not all(
                    type(v) in (int, float) for v in values):
                raise MalformedPayload("masked values are not a list of numbers")
        if len(scaled) != len(affine) or len(scaled) not in (0, size):
            raise MalformedPayload("masked value counts do not match the size")
        if not isinstance(obj["hashes"], list):
            raise MalformedPayload("blinded hashes are not a list")
        try:
            salt = bytes.fromhex(obj["salt"])
            hashes = frozenset(bytes.fromhex(h) for h in obj["hashes"])
        except (TypeError, ValueError):
            raise MalformedPayload("salt or hashes are not hex strings") from None
        return cls(obj["column"], salt, size, hashes, tuple(scaled), tuple(affine))


def blind_column(column: str, values: Sequence, rng: random.Random) -> BlindedColumn:
    salt = rng.getrandbits(128).to_bytes(16, "big")
    alpha = rng.uniform(0.25, 4.0)
    beta = rng.uniform(-10.0, 10.0)
    numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in values)
    if numeric:
        scaled = tuple(alpha * float(v) for v in values)
        affine = tuple(alpha * float(v) + beta for v in values)
    else:
        scaled = ()
        affine = ()
    return BlindedColumn(column, salt, len(values), salted_hashes(values, salt),
                         scaled, affine)


def evaluate_blinded(algorithm: Algorithm, blinded: BlindedColumn,
                     owner_values: Sequence) -> float:
    """Owner-side statistic from a blinded requester column and the
    owner's raw values."""
    if algorithm in _SET_ALGORITHMS:
        owner_hashes = salted_hashes(owner_values, blinded.salt)
        inter = len(blinded.hashes & owner_hashes)
        if algorithm is Algorithm.INTERSECTION_SIZE:
            return float(inter)
        union = len(blinded.hashes | owner_hashes)
        if union == 0:
            raise EmptyUnion("jaccard undefined for two empty sets")
        return inter / union
    owner = [float(v) for v in owner_values]
    if algorithm is Algorithm.PEARSON_CORRELATION:
        return pearson(blinded.affine, owner)
    return cosine(blinded.scaled, owner)


# --------------------------------------------------------------------------
# the evaluate_dd operation

@dataclass(frozen=True)
class DataRef:
    member_id: str
    column: str
    values: tuple


@dataclass(frozen=True)
class DDOutcome:
    decision: bool
    algorithm: Algorithm
    threshold: float
    statistic: float | None = None  # populated only in audit mode

    def to_json(self) -> dict:
        out = {
            "algorithm": self.algorithm.value,
            "threshold": self.threshold,
            "decision": self.decision,
        }
        if self.statistic is not None:
            out["statistic"] = self.statistic
        return out


def evaluate_dd(cond: Evaluate, requester_ref: DataRef, owner_ref: DataRef,
                mode: str = "plain", comparator="below",
                rng: random.Random | None = None,
                log: MessageLog | None = None,
                audit: bool = False) -> DDOutcome:
    """Evaluate one data-dependent conditional between two members.

    The default comparator sets the conditional true when the statistic
    falls strictly below the threshold.  In ``blinded`` mode the
    requester's column is exchanged as a :class:`BlindedColumn` and the
    statistic is computed owner-side; the response carries only the
    boolean unless *audit* is set.
    """
    if requester_ref.column != owner_ref.column:
        raise ColumnMismatch(
            f"data refs disagree on column: {requester_ref.column!r} "
            f"vs {owner_ref.column!r}")
    cmp = resolve_comparator(comparator)
    if mode == "plain":
        stat = compute_statistic(cond.algorithm, requester_ref.values, owner_ref.values)
    elif mode == "blinded":
        rng = rng or random.Random()
        blinded = blind_column(requester_ref.column, requester_ref.values, rng)
        if log is not None:
            request = json.dumps({
                "algorithm": cond.algorithm.value,
                "threshold": cond.threshold,
                "payload": blinded.to_payload(),
            }, sort_keys=True).encode()
            log.send(requester_ref.member_id, owner_ref.member_id,
                     "dd_request", request)
        stat = evaluate_blinded(cond.algorithm, blinded, owner_ref.values)
        if log is not None:
            decision = cmp(stat, cond.threshold)
            body: dict = {"decision": decision}
            if audit:
                body["statistic"] = stat
            log.send(owner_ref.member_id, requester_ref.member_id,
                     "dd_response", json.dumps(body, sort_keys=True).encode())
    else:
        raise ValueError(f"unknown mode {mode!r}")
    decision = cmp(stat, cond.threshold)
    return DDOutcome(decision, cond.algorithm, cond.threshold,
                     statistic=stat if audit else None)
