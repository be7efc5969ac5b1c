import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curie.cpl.ast import Algorithm, Evaluate
from curie.ddstats import (
    EmptyUnion,
    LengthMismatch,
    ZeroNorm,
    ZeroVariance,
    blind_column,
    compute_statistic,
    cosine,
    evaluate_blinded,
    intersection_size,
    jaccard,
    pearson,
)
from curie.engine import AcquireRequest, answer_request, build_request, \
    negotiate_consortium, negotiate_pair
from curie.errors import CurieError, MalformedPayload

from dd_pair import dd_members


# ---------------------------------------------------------------------------
# plain statistics against independent oracles

def test_intersection_size_basics():
    assert intersection_size(["a", "b", "c"], ["b", "c", "d"]) == 2
    assert intersection_size([1, 2], [3, 4]) == 0
    assert intersection_size(list("abcd") * 3, list("abcd")) == 4


def test_jaccard_basics():
    assert jaccard([1, 2, 3], [1, 2, 3, 1]) == 1.0
    assert jaccard([1], [2]) == 0.0
    assert jaccard([1, 2, 3], [2, 3, 4, 5]) == pytest.approx(0.4, abs=1e-15)
    with pytest.raises(EmptyUnion):
        jaccard([], [])


def test_pearson_fixture_from_covariance_oracle():
    # oracle: cov / (sigma_a * sigma_b) computed directly
    assert pearson([1, 2, 3, 4], [2, 4, 6, 9]) == pytest.approx(
        0.994376712684369, abs=1e-12)
    assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)
    assert pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == pytest.approx(-1.0)


def test_pearson_errors():
    with pytest.raises(LengthMismatch):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ZeroVariance):
        pearson([1, 1, 1], [1, 2, 3])
    # a constant whose rounded mean is not itself, on either side
    with pytest.raises(ZeroVariance):
        pearson([1.476562] * 3, [0.0, 0.0, 1.0])
    with pytest.raises(ZeroVariance):
        pearson([0.0, 0.0, 1.0], [1.476562] * 3)


def test_cosine_basics():
    assert cosine([1, 0, 1], [1, 1, 0]) == pytest.approx(0.5, abs=1e-15)
    assert cosine([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0)
    assert cosine([1.0, 0.0], [0.0, 3.0]) == pytest.approx(0.0)
    with pytest.raises(ZeroNorm):
        cosine([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        cosine([1.0], [1.0, 2.0])


def _oracle(algorithm, a, b):
    if algorithm is Algorithm.INTERSECTION_SIZE:
        return float(len(set(a) & set(b)))
    if algorithm is Algorithm.JACCARD_INDEX:
        return len(set(a) & set(b)) / len(set(a) | set(b))
    n = len(a)
    if algorithm is Algorithm.PEARSON_CORRELATION:
        ma, mb = sum(a) / n, sum(b) / n
        cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
        va = sum((x - ma) ** 2 for x in a)
        vb = sum((y - mb) ** 2 for y in b)
        return cov / math.sqrt(va * vb)
    dot = sum(x * y for x, y in zip(a, b))
    return dot / (math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b)))


def test_all_statistics_match_oracles_on_random_pairs():
    rng = np.random.default_rng(42)
    for trial in range(500):
        n = int(rng.integers(2, 40))
        algorithm = list(Algorithm)[trial % 4]
        if algorithm in (Algorithm.INTERSECTION_SIZE, Algorithm.JACCARD_INDEX):
            a = list(rng.integers(0, 15, size=n))
            b = list(rng.integers(0, 15, size=int(rng.integers(1, 40))))
        else:
            a = list(rng.normal(0, 3, size=n))
            b = list(rng.normal(0, 3, size=n))
        got = compute_statistic(algorithm, a, b)
        assert got == pytest.approx(_oracle(algorithm, a, b), abs=1e-12)


# ---------------------------------------------------------------------------
# symmetry / invariance properties

# quantized so a vector's spread is either zero or large enough to
# survive float absorption under the affine transform
_vec = st.lists(st.floats(min_value=-100, max_value=100).map(
    lambda v: round(v, 6)), min_size=2, max_size=20)


@settings(max_examples=60, deadline=None)
@given(a=st.lists(st.integers(0, 20), min_size=1, max_size=25),
       b=st.lists(st.integers(0, 20), min_size=1, max_size=25))
def test_set_statistics_symmetric(a, b):
    assert intersection_size(a, b) == intersection_size(b, a)
    assert jaccard(a, b) == pytest.approx(jaccard(b, a))
    assert jaccard(a, b) == pytest.approx(
        intersection_size(a, b) / len(set(a) | set(b)))


@settings(max_examples=60, deadline=None)
@given(a=_vec, b=_vec, alpha=st.floats(min_value=0.01, max_value=50),
       beta=st.floats(min_value=-50, max_value=50))
def test_vector_statistic_invariances(a, b, alpha, beta):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    try:
        base = pearson(a, b)
    except (ZeroVariance, LengthMismatch):
        base = None
    if base is not None:
        transformed = pearson([alpha * x + beta for x in a], b)
        assert transformed == pytest.approx(base, abs=1e-9)
        assert pearson(b, a) == pytest.approx(base, abs=1e-12)
    try:
        base_cos = cosine(a, b)
    except (ZeroNorm, LengthMismatch):
        return
    assert cosine([alpha * x for x in a], b) == pytest.approx(base_cos, abs=1e-9)
    assert cosine(b, a) == pytest.approx(base_cos, abs=1e-12)


# ---------------------------------------------------------------------------
# the engine's blinded decision

def _decision(algorithm, threshold, a_values, b_values, rng=None):
    requester, owner = dd_members(algorithm, threshold, a_values, b_values)
    agreement = negotiate_pair(requester, owner, rng=rng or random.Random(0))
    [entry] = agreement.dd_trace
    assert (agreement.status == "full") is entry["decision"]
    return entry["decision"]


def _transcript(algorithm, threshold, a_values, b_values, seed):
    requester, owner = dd_members(algorithm, threshold, a_values, b_values)
    _, log = negotiate_consortium([requester, owner], rng=random.Random(seed))
    return log


def test_below_threshold_semantics():
    values = ["a", "b", "c", "d", "e", "f", "g"]
    # statistic 7 < 10 -> conditional true
    assert _decision(Algorithm.INTERSECTION_SIZE, 10.0, values, values) is True


def test_identical_columns_fail_jaccard_threshold():
    # jaccard 1.0, not below 0.3
    assert _decision(Algorithm.JACCARD_INDEX, 0.3, [1, 2, 3], [1, 2, 3]) is False


def test_blinded_equals_plain_on_random_pairs():
    rng = np.random.default_rng(9)
    blind_rng = random.Random(9)
    for trial in range(100):
        algorithm = list(Algorithm)[trial % 4]
        n = int(rng.integers(3, 30))
        if algorithm in (Algorithm.INTERSECTION_SIZE, Algorithm.JACCARD_INDEX):
            da, db = rng.integers(0, 12, size=n), rng.integers(0, 12, size=n)
            # labels, and the same draws as numbers in a real column:
            # the requester holds Python ints, the owner equal floats
            inputs = [([f"v{int(v)}" for v in da], [f"v{int(v)}" for v in db]),
                      ([int(v) for v in da], [float(v) for v in db])]
        else:
            inputs = [([float(v) for v in rng.normal(0, 5, size=n)],
                       [float(v) for v in rng.normal(0, 5, size=n)])]
        threshold = float(rng.uniform(-1, 13))
        for a, b in inputs:
            plain = compute_statistic(algorithm, a, b) < threshold
            blinded = _decision(algorithm, threshold, a, b, blind_rng)
            assert plain == blinded, (algorithm, threshold, a, b)


def test_blinded_transcript_contains_no_raw_values():
    values = ["secretA", "secretB", "secretC"]
    owner_values = ["secretB", "other"]
    log = _transcript(Algorithm.INTERSECTION_SIZE, 5.0, values, owner_values, 1)
    assert len(log) == 2
    blob = b"".join(m.payload for m in log)
    for raw in values + owner_values:
        assert raw.encode() not in blob


def test_blinded_numeric_vectors_masked_in_transcript():
    a = [123.456, 789.25, -55.125]
    b = [1.0, 2.0, 3.0]
    log = _transcript(Algorithm.PEARSON_CORRELATION, 0.9, a, b, 2)
    blob = b"".join(m.payload for m in log)
    for v in a:
        assert repr(v).encode() not in blob


def test_response_carries_the_decision_not_the_statistic():
    a, b = [1, 2, 3, 4], [3, 4, 5]
    assert compute_statistic(Algorithm.JACCARD_INDEX, a, b) == pytest.approx(2 / 5)
    log = _transcript(Algorithm.JACCARD_INDEX, 0.5, a, b, 0)
    response = json.loads(log.messages[-1].payload)
    assert response["dd_trace"] == [{"algorithm": "Jaccard index", "column": "col",
                                     "threshold": 0.5, "decision": True}]


def test_blinded_set_statistic_is_exact():
    rng = random.Random(3)
    values = [f"x{i}" for i in range(20)]
    blinded = blind_column("col", "categorical", values, rng)
    owner = [f"x{i}" for i in range(10, 25)]
    assert evaluate_blinded(Algorithm.INTERSECTION_SIZE, blinded, owner,
                            "categorical") == 10.0
    assert evaluate_blinded(Algorithm.JACCARD_INDEX, blinded, owner,
                            "categorical") == pytest.approx(10 / 25)


@pytest.mark.parametrize("kind, requester, owner", [
    ("real", [30, -0.0, 2.5], [30.0, 0.0, np.float64(2.5)]),
    ("integer", [30, 0], [30.0, -0.0]),
    ("boolean", [True, False], [np.True_, np.False_]),
])
def test_equal_values_hash_alike_whatever_type_holds_them(kind, requester, owner):
    blinded = blind_column("col", kind, requester, random.Random(4))
    for algorithm in (Algorithm.INTERSECTION_SIZE, Algorithm.JACCARD_INDEX):
        assert evaluate_blinded(algorithm, blinded, owner, kind) == \
            compute_statistic(algorithm, requester, owner)


# ---------------------------------------------------------------------------
# bad blinded numbers in a parsed request

def _request_with_scaled(algorithm, requester_values, owner_values, scaled):
    """The owner of a dd pair, and the payload of its requester's request
    with the blinded column's ``scaled`` vector replaced by *scaled*."""
    requester, owner = dd_members(algorithm, 0.5, requester_values, owner_values)
    body = json.loads(build_request(requester, owner.profile, random.Random(0)).to_payload())
    body["blinded"]["col"]["scaled"] = scaled
    return owner, json.dumps(body).encode()


@pytest.mark.parametrize("algorithm", [Algorithm.PEARSON_CORRELATION,
                                       Algorithm.COSINE_SIMILARITY])
def test_a_masked_value_past_every_float_is_malformed(algorithm):
    _, payload = _request_with_scaled(algorithm, [1.0, 2.0, 3.0], [1.0, 2.0, 4.0],
                                      [10**400, 1.0, 2.0])
    with pytest.raises(MalformedPayload, match="overflows a float"):
        AcquireRequest.from_payload(payload)


@pytest.mark.parametrize("algorithm, values, scaled", [
    # a masked vector for a column the owner holds as categories
    (Algorithm.PEARSON_CORRELATION, ["a", "b", "c"], [1.0, 2.0, 3.0]),
    # finite masked values whose products leave the float range
    (Algorithm.COSINE_SIMILARITY, [1.0, 2.0, 3.0], [1e308, -1e308, 1e308]),
    (Algorithm.PEARSON_CORRELATION, [1.0, 2.0, 3.0], [1e308, -1e308, 1e308]),
])
def test_an_owner_refuses_a_statistic_it_cannot_compute(algorithm, values, scaled):
    owner, payload = _request_with_scaled(algorithm, values, values, scaled)
    request = AcquireRequest.from_payload(payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(CurieError, match="^" + algorithm.value):
            answer_request(owner, request)
