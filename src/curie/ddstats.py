"""Data-dependent conditional statistics and their blinded column
encoding.

Four statistics gate clause conditionals: intersection size, Jaccard
index, Pearson correlation, and cosine similarity.  Set statistics
operate on distinct values (multiset duplicates collapsed); vector
statistics require equal-length inputs and refuse degenerate ones.
The plain statistics (:func:`compute_statistic`) are the reference the
blinded evaluation is checked against; the blinded evaluation applies
the same functions to salted hashes or scaled values.

The negotiation engine decides every data-dependent conditional from a
:class:`BlindedColumn`: the requester blinds each column a conditional
reads into its acquire request, and the owner computes the statistic
from it and its own raw values (:func:`evaluate_blinded`), returning
only the decision.  This simulates a private evaluation with
message-level fidelity, not cryptographic strength: set statistics
travel as salted-hash encodings, vector statistics as values scaled by
a secret positive factor, which leaves both cosine similarity and
Pearson correlation unchanged.  No raw value travels in clear text, but
the owner can recover the requester's column: the salt travels with the
request, so hashes over a bounded domain invert by trying every value,
and the scaled vector de-scales (see the ROADMAP item "Make
data-dependent conditionals private").
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from curie.cpl.ast import Algorithm
from curie.errors import CurieError, MalformedPayload


class LengthMismatch(CurieError):
    pass


class ZeroVariance(CurieError):
    pass


class ZeroNorm(CurieError):
    pass


class EmptyUnion(CurieError):
    pass


class UndefinedStatistic(CurieError):
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
    # a rounded mean can leave a constant vector a tiny spread
    if min(a) == max(a) or min(b) == max(b):
        raise ZeroVariance("pearson undefined for a constant vector")
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
# blinded exchange

def _canon(v, kind: str) -> bytes:
    """The hashed form of a value of a column of declared *kind*: equal
    values hash alike whichever Python or numpy type holds them (and
    + 0.0 hashes -0.0 as 0.0)."""
    if kind == "integer":
        return b"i:%d" % int(v)
    if kind == "real":
        return b"f:" + repr(float(v) + 0.0).encode()
    if kind == "boolean":
        return b"b:1" if v else b"b:0"
    return b"s:" + str(v).encode()


def salted_hashes(values: Sequence, salt: bytes, kind: str) -> frozenset[bytes]:
    return frozenset(
        hashlib.sha256(salt + _canon(v, kind)).digest() for v in set(values)
    )


_BLINDED_FIELDS = {"column", "salt", "size", "hashes", "scaled"}


@dataclass(frozen=True)
class BlindedColumn:
    """One column prepared for owner-side evaluation.

    ``hashes`` serve set statistics; ``scaled`` (alpha * v) serves
    cosine similarity and Pearson correlation.  alpha > 0, so both
    statistics are unchanged.
    """

    column: str
    salt: bytes
    size: int
    hashes: frozenset[bytes]
    scaled: tuple[float, ...]

    def to_payload(self) -> dict:
        return {
            "column": self.column,
            "salt": self.salt.hex(),
            "size": self.size,
            "hashes": sorted(h.hex() for h in self.hashes),
            "scaled": list(self.scaled),
        }

    @classmethod
    def from_payload(cls, obj) -> "BlindedColumn":
        """Inverse of :meth:`to_payload`; raises :class:`MalformedPayload`
        on anything it could not have produced."""
        if not isinstance(obj, dict) or obj.keys() != _BLINDED_FIELDS:
            raise MalformedPayload("blinded column fields do not match")
        size, scaled = obj["size"], obj["scaled"]
        if not isinstance(obj["column"], str):
            raise MalformedPayload("blinded column name is not a string")
        if type(size) is not int or size < 0:
            raise MalformedPayload(f"blinded column size {size!r} is not a count")
        if not isinstance(scaled, list) or not all(
                type(v) in (int, float) for v in scaled):
            raise MalformedPayload("masked values are not a list of numbers")
        try:
            scaled = [float(v) for v in scaled]
        except OverflowError:
            raise MalformedPayload("a masked value overflows a float") from None
        if len(scaled) not in (0, size):
            raise MalformedPayload("masked value counts do not match the size")
        if not isinstance(obj["hashes"], list):
            raise MalformedPayload("blinded hashes are not a list")
        try:
            salt = bytes.fromhex(obj["salt"])
            hashes = frozenset(bytes.fromhex(h) for h in obj["hashes"])
        except (TypeError, ValueError):
            raise MalformedPayload("salt or hashes are not hex strings") from None
        return cls(obj["column"], salt, size, hashes, tuple(scaled))


def blind_column(column: str, kind: str, values: Sequence,
                 rng: random.Random) -> BlindedColumn:
    """Blind a column of declared *kind*; only numeric kinds are masked."""
    salt = rng.getrandbits(128).to_bytes(16, "big")
    alpha = rng.uniform(0.25, 4.0)
    scaled = ()
    if kind in ("integer", "real"):
        scaled = tuple((alpha * np.asarray(values)).tolist())
    return BlindedColumn(column, salt, len(values),
                         salted_hashes(values, salt, kind), scaled)


def evaluate_blinded(algorithm: Algorithm, blinded: BlindedColumn,
                     owner_values: Sequence, kind: str) -> float:
    """Owner-side statistic from a blinded requester column and the
    owner's raw values of that column, whose declared kind is *kind*.
    Raises :class:`UndefinedStatistic` for a vector statistic of a
    column the owner does not hold as numbers, and for one whose value
    is not finite, so the owner never decides on it."""
    if algorithm in _SET_ALGORITHMS:
        owner_hashes = salted_hashes(owner_values, blinded.salt, kind)
        return float(STATISTICS[algorithm](blinded.hashes, owner_hashes))
    if kind not in ("integer", "real"):
        raise UndefinedStatistic(f"{algorithm.value} of a {kind} column")
    # as Python floats, values past the float range overflow to inf or
    # make fsum and ** raise, where numpy's would warn
    owner = np.asarray(owner_values, dtype=float).tolist()
    try:
        stat = STATISTICS[algorithm](blinded.scaled, owner)
    except (OverflowError, ValueError):
        stat = math.nan
    if not math.isfinite(stat):
        raise UndefinedStatistic(f"{algorithm.value} of these values is not finite")
    return stat
