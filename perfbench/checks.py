"""Output checks computed apart from the program.

Each check takes plain data (config JSON, raw column tuples, report
JSON, message kinds) and recomputes what the program should have
produced with its own code: a regex scan of the policy texts for the
negotiated pairs, numpy predicates for selections, its own normalization
and one-hot encoding, ``numpy.linalg.lstsq`` for the pooled model, and
Python sets for the data-dependent statistics.  A failed check raises
:class:`CheckFailed`; nothing is compared against a stored output.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, Sequence

import numpy as np

COEF_TOL = 1e-6
MAE_TOL = 1e-9

Columns = Mapping[str, Sequence]


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# negotiation shape

_ACQUIRE = re.compile(r"\s*acquire\s*:([^:]*):")


def named_pairs(policy_texts: Mapping[str, str]) -> set[tuple[str, str]]:
    """Directed (requester, owner) pairs whose requester has an acquire
    statement naming the owner (an empty member list names everyone)."""
    pairs = set()
    for requester, text in policy_texts.items():
        body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
        for statement in body.split(";"):
            match = _ACQUIRE.match(statement)
            if match is None:
                continue
            names = {n.strip() for n in match.group(1).split(",") if n.strip()}
            pairs.update((requester, owner) for owner in policy_texts
                         if owner != requester and (not names or owner in names))
    return pairs


def check_negotiation_log(kinds: Sequence[str], pairs: int) -> None:
    """One acquire request and one response per named directed pair."""
    _require(len(kinds) == 2 * pairs,
             f"negotiation sent {len(kinds)} messages, expected 2 x {pairs}")
    for kind in ("acquire_request", "negotiation_output"):
        sent = sum(1 for k in kinds if k == kind)
        _require(sent == pairs, f"{sent} {kind} messages, expected {pairs}")


def check_ring_log(kinds: Sequence[str], ring_size: int) -> None:
    """(n - 1) key broadcasts plus n ring hops."""
    expected = {"public_key": ring_size - 1, "ring_accumulate": ring_size}
    _require(len(kinds) == sum(expected.values()),
             f"ring sent {len(kinds)} messages, expected "
             f"({ring_size} - 1) + {ring_size}")
    for kind, count in expected.items():
        sent = sum(1 for k in kinds if k == kind)
        _require(sent == count, f"{sent} {kind} messages, expected {count}")


def check_full_agreements(agreements: Sequence[Mapping],
                          train_rows: Mapping[str, int]) -> None:
    """Every agreement releases the owner's whole training set."""
    for a in agreements:
        where = f"{a['owner']}->{a['requester']}"
        _require(a["status"] == "full", f"{where} is {a['status']}, expected full")
        _require(a["released_rows"] == train_rows[a["owner"]],
                 f"{where} released {a['released_rows']} rows, owner trains on "
                 f"{train_rows[a['owner']]}")


# --------------------------------------------------------------------------
# rows and design matrices

def _numeric(col: Mapping) -> bool:
    return col["type"] in ("integer", "real")


def _normalized(col: Mapping, values: Sequence) -> np.ndarray:
    lo, hi = col["bounds"]
    return 2.0 * (np.asarray(values, dtype=float) - lo) / (hi - lo) - 1.0


def design(schema: Mapping, columns: Columns) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) of raw rows: an intercept, the numeric features mapped to
    [-1, 1] by their declared bounds, then per categorical a 0/1 column
    for each level but the first, and per boolean one 0/1 column; y is
    the normalized target."""
    target = schema["target"]
    features = [c for c in schema["columns"] if c["name"] != target]
    n = len(columns[target])
    parts = [np.ones(n)]
    parts += [_normalized(c, columns[c["name"]]) for c in features if _numeric(c)]
    for c in features:
        if c["type"] == "categorical":
            values = np.asarray(columns[c["name"]], dtype=object)
            parts += [(values == level).astype(float) for level in c["levels"][1:]]
        elif c["type"] == "boolean":
            parts.append(np.asarray(columns[c["name"]], dtype=float))
    target_col = next(c for c in schema["columns"] if c["name"] == target)
    return np.column_stack(parts), _normalized(target_col, columns[target])


def selection_mask(columns: Columns, selections: Sequence[Mapping]) -> np.ndarray:
    """Rows meeting every selection of an agreement (its JSON form)."""
    n = len(next(iter(columns.values())))
    mask = np.ones(n, dtype=bool)
    for f in selections:
        values, op, ref = columns[f["column"]], f["op"], f["value"]
        if op == "in":
            allowed = set(ref)
            mask &= np.fromiter((v in allowed for v in values), bool, n)
        elif op in ("<", ">"):
            arr = np.asarray(values, dtype=float)
            mask &= arr < ref if op == "<" else arr > ref
        elif op in ("=", "!="):
            equal = np.fromiter((v == ref for v in values), bool, n)
            mask &= equal if op == "=" else ~equal
        else:
            raise CheckFailed(f"unknown selection op {op!r}")
    return mask


def released_rows(columns: Columns, selections: Sequence[Mapping]) -> Columns:
    keep = np.flatnonzero(selection_mask(columns, selections))
    return {name: [vals[i] for i in keep] for name, vals in columns.items()}


def pooled_parts(schema: Mapping, initiator: str, train: Mapping[str, Columns],
                 agreements: Sequence[Mapping]
                 ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per contributing member, the (X, y) the pooled model must see: the
    initiator's training rows and each owner's released rows."""
    parts = {initiator: design(schema, train[initiator])}
    for a in agreements:
        if a["requester"] != initiator or a["status"] == "empty":
            continue
        rows = released_rows(train[a["owner"]], a["selections"])
        if len(rows[schema["target"]]):
            parts[a["owner"]] = design(schema, rows)
    return parts


def check_pooled(parts: Mapping[str, tuple[np.ndarray, np.ndarray]],
                 eta: Sequence[float], pooled_rows: int) -> None:
    """Pooled row count and coefficients against least squares on the
    concatenated rows."""
    X = np.vstack([x for x, _ in parts.values()])
    y = np.concatenate([y for _, y in parts.values()])
    _require(pooled_rows == len(y),
             f"pooled_rows {pooled_rows}, expected {len(y)}")
    expected = np.linalg.lstsq(X, y, rcond=None)[0]
    eta = np.asarray(eta, dtype=float)
    _require(eta.shape == expected.shape,
             f"{eta.shape[0]} coefficients, expected {expected.shape[0]}")
    gap = float(np.max(np.abs(eta - expected)))
    _require(gap <= COEF_TOL,
             f"pooled coefficients differ from lstsq by {gap:.3e} > {COEF_TOL}")


def check_mae(schema: Mapping, validation: Columns, eta: Sequence[float],
              mae: float) -> None:
    """The reported MAE, recomputed from the reported coefficients."""
    X, _ = design(schema, validation)
    target = next(c for c in schema["columns"] if c["name"] == schema["target"])
    lo, hi = target["bounds"]
    predicted = (X @ np.asarray(eta, dtype=float) + 1.0) / 2.0 * (hi - lo) + lo
    own = float(np.mean(np.abs(predicted - np.asarray(validation[schema["target"]],
                                                      dtype=float))))
    _require(abs(own - mae) <= MAE_TOL,
             f"pooled MAE {mae!r}, recomputed {own!r}")


# --------------------------------------------------------------------------
# data-dependent conditionals

def _statistic(algorithm: str, a: Sequence, b: Sequence) -> float:
    if algorithm == "Intersection size":
        return float(len(set(a) & set(b)))
    if algorithm == "Jaccard index":
        return len(set(a) & set(b)) / len(set(a) | set(b))
    raise CheckFailed(f"no independent check for the statistic {algorithm!r}")


def check_dd_trace(agreements: Sequence[Mapping], train: Mapping[str, Columns],
                   comparator: str = "below") -> int:
    """Every traced data-dependent decision against the statistic between
    the requester's and the owner's raw columns.  Returns how many."""
    checked = 0
    for a in agreements:
        for entry in a["dd_trace"]:
            column = entry["column"]
            stat = _statistic(entry["algorithm"], train[a["requester"]][column],
                              train[a["owner"]][column])
            threshold = entry["threshold"]
            expected = stat < threshold if comparator == "below" else stat > threshold
            _require(entry["decision"] == expected,
                     f"{a['owner']}->{a['requester']}: {entry['algorithm']} on "
                     f"{column} is {stat:.6g} against {threshold}, decision "
                     f"{entry['decision']}")
            checked += 1
    return checked


# --------------------------------------------------------------------------
# privacy sweep

def check_dp_table(table: Sequence[Mapping], epsilons: Sequence[float],
                   repetitions: int) -> None:
    _require([float(r["epsilon"]) for r in table] == [float(e) for e in epsilons],
             f"sweep budgets {[r['epsilon'] for r in table]}, expected "
             f"{list(epsilons)}")
    for row in table:
        eps, mean = row["epsilon"], row["mean_mae"]
        _require(row["repetitions"] == repetitions,
                 f"eps={eps}: {row['repetitions']} repetitions, expected "
                 f"{repetitions}")
        _require(math.isfinite(mean), f"eps={eps}: mean MAE {mean}")
        lo, hi = row["mae_ci"]
        _require(math.isfinite(lo) and math.isfinite(hi) and lo <= mean <= hi,
                 f"eps={eps}: CI [{lo}, {hi}] does not bracket mean {mean}")
    by_eps = {float(r["epsilon"]): r["mean_mae"] for r in table}
    _require(by_eps[max(by_eps)] < by_eps[min(by_eps)],
             f"mean MAE {by_eps[max(by_eps)]} at eps={max(by_eps)} is not below "
             f"{by_eps[min(by_eps)]} at eps={min(by_eps)}")
