import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curie.crypto import (
    DimMismatch,
    HEParams,
    KeyMismatch,
    MalformedPayload,
    Overflow,
    ParamError,
    PublicKey,
    add_cipher,
    decode_fixed,
    decrypt_matrix,
    encode_fixed,
    encrypt_matrix,
    keygen,
    parse_cipher_matrix,
    parse_public_key,
    serialize_cipher_matrix,
    serialize_public_key,
)
from curie.errors import CurieError

from wire_fuzz import byte_mutations


@pytest.fixture(scope="module")
def keys(small_he_params):
    return keygen(small_he_params, random.Random(1234))


S = 1 << 20


# ---------------------------------------------------------------------------
# fixed point

def test_encode_zero_and_known_value():
    assert encode_fixed(0.0, S) == 0
    assert encode_fixed(1.5, S) == 1572864


def test_encode_decode_within_half_ulp():
    rng = np.random.default_rng(0)
    for x in rng.uniform(-1000, 1000, 200):
        k = encode_fixed(float(x), S)
        assert abs(decode_fixed(k, S) - x) <= 0.5 / S + 1e-15


def test_sum_of_encoded_values_error_propagation():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(2, 40))
        xs = rng.uniform(-10, 10, d)
        total = sum(encode_fixed(float(x), S) for x in xs)
        assert abs(decode_fixed(total, S) - xs.sum()) <= d / (2 * S)


def test_encode_overflow():
    with pytest.raises(Overflow):
        encode_fixed(100.0, S, bound=50 * S)
    with pytest.raises(Overflow):
        encode_fixed(float("nan"), S)


# ---------------------------------------------------------------------------
# params

def test_params_validator_rejects_undersized_modulus():
    params = HEParams(key_bits=64, n_max=10_000, m_max=64, v_max=256.0)
    with pytest.raises(ParamError):
        params.validate()


def test_params_validator_accepts_default():
    HEParams().validate()


# ---------------------------------------------------------------------------
# keys and round trips

def test_encrypt_decrypt_zero(keys, small_he_params):
    C = encrypt_matrix(keys.public, [[0.0]], small_he_params.scale,
                       random.Random(0))
    assert decrypt_matrix(keys.secret, C)[0][0] == 0.0


def test_roundtrip_on_1000_random_matrices(keys, small_he_params):
    # encode+encrypt then decrypt+decode inverts within half an encoding
    # step on every entry
    rng = np.random.default_rng(7)
    rand = random.Random(7)
    scale = small_he_params.scale
    for _ in range(1000):
        M = rng.uniform(-100, 100, (1, 2))
        C = encrypt_matrix(keys.public, M, scale, rand)
        D = decrypt_matrix(keys.secret, C)
        assert np.abs(D - M).max() <= 0.5 / scale


def test_roundtrip_statistics_sized_matrix(keys, small_he_params):
    rng = np.random.default_rng(8)
    scale = small_he_params.scale
    M = rng.uniform(-500, 500, (14, 14))
    C = encrypt_matrix(keys.public, M, scale, random.Random(8))
    D = decrypt_matrix(keys.secret, C)
    assert np.abs(D - M).max() <= 0.5 / scale


def test_different_seeds_give_different_keys(small_he_params):
    k1 = keygen(small_he_params, random.Random(1))
    k2 = keygen(small_he_params, random.Random(2))
    assert k1.public.n != k2.public.n


def test_same_plaintext_encrypts_differently(keys):
    rand = random.Random(3)
    c1 = keys.public.encrypt_raw(42, rand)
    c2 = keys.public.encrypt_raw(42, rand)
    assert c1 != c2
    assert keys.secret.decrypt_raw(c1) == keys.secret.decrypt_raw(c2) == 42


def test_zero_matrix_roundtrips_exactly(keys, small_he_params):
    Z = np.zeros((4, 4))
    C = encrypt_matrix(keys.public, Z, small_he_params.scale, random.Random(0))
    np.testing.assert_array_equal(decrypt_matrix(keys.secret, C), Z)


def test_overflow_aborts_before_any_ciphertext(keys, small_he_params):
    big = float(keys.public.max_int)  # * scale pushes far past capacity
    with pytest.raises(Overflow):
        encrypt_matrix(keys.public, [[1.0, big]], small_he_params.scale,
                       random.Random(0))


# ---------------------------------------------------------------------------
# homomorphism

def test_additive_identity(keys, small_he_params):
    scale = small_he_params.scale
    rand = random.Random(5)
    M = np.array([[1.25, -2.5], [3.75, 0.0]])
    C = encrypt_matrix(keys.public, M, scale, rand)
    Z = encrypt_matrix(keys.public, np.zeros((2, 2)), scale, rand)
    D = decrypt_matrix(keys.secret, add_cipher(C, Z))
    assert np.abs(D - M).max() <= 1 / scale


def test_homomorphism_on_1000_random_pairs(keys, small_he_params):
    scale = small_he_params.scale
    rng = np.random.default_rng(11)
    rand = random.Random(11)
    for _ in range(1000):
        A = rng.uniform(-50, 50, (1, 2))
        B = rng.uniform(-50, 50, (1, 2))
        CA = encrypt_matrix(keys.public, A, scale, rand)
        CB = encrypt_matrix(keys.public, B, scale, rand)
        D = decrypt_matrix(keys.secret, add_cipher(CA, CB))
        assert np.abs(D - (A + B)).max() <= 1 / scale


def test_accumulation_chain_tolerance(keys, small_he_params):
    scale = small_he_params.scale
    rng = np.random.default_rng(13)
    rand = random.Random(13)
    k = 25
    matrices = [rng.uniform(-5, 5, (2, 2)) for _ in range(k)]
    acc = encrypt_matrix(keys.public, matrices[0], scale, rand)
    for M in matrices[1:]:
        acc = add_cipher(acc, encrypt_matrix(keys.public, M, scale, rand))
    D = decrypt_matrix(keys.secret, acc)
    assert np.abs(D - sum(matrices)).max() <= k / scale


def test_add_cipher_mismatches(keys, small_he_params):
    scale = small_he_params.scale
    rand = random.Random(17)
    A = encrypt_matrix(keys.public, np.ones((2, 2)), scale, rand)
    B = encrypt_matrix(keys.public, np.ones((3, 2)), scale, rand)
    with pytest.raises(DimMismatch):
        add_cipher(A, B)
    other = keygen(small_he_params, random.Random(99))
    C = encrypt_matrix(other.public, np.ones((2, 2)), scale, rand)
    with pytest.raises(KeyMismatch):
        add_cipher(A, C)
    D = encrypt_matrix(keys.public, np.ones((2, 2)), scale * 2, rand)
    with pytest.raises(KeyMismatch):
        add_cipher(A, D)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-1000, max_value=1000), min_size=1,
                max_size=6))
def test_roundtrip_property(values):
    # module-scope fixture not available to hypothesis: use a cached key
    keys = _cached_keys()
    M = np.array([values])
    C = encrypt_matrix(keys.public, M, S, random.Random(0))
    D = decrypt_matrix(keys.secret, C)
    assert np.abs(D - M).max() <= 1 / S


_KEYS = None


def _cached_keys():
    global _KEYS
    if _KEYS is None:
        _KEYS = keygen(HEParams(key_bits=128, n_max=6000, m_max=48,
                                v_max=6000.0), random.Random(77))
    return _KEYS


# ---------------------------------------------------------------------------
# wire format

def test_cipher_matrix_wire_roundtrip(keys, small_he_params):
    scale = small_he_params.scale
    M = np.array([[1.0, -2.0, 3.5]])
    C = encrypt_matrix(keys.public, M, scale, random.Random(21))
    buf = serialize_cipher_matrix(C)
    parsed, consumed = parse_cipher_matrix(buf, keys.public)
    assert consumed == len(buf)
    assert parsed.shape == C.shape
    assert parsed.cells == C.cells
    assert parsed.scale == scale


def test_public_key_wire_roundtrip(keys):
    buf = serialize_public_key(keys.public)
    parsed, consumed = parse_public_key(buf)
    assert consumed == len(buf)
    assert parsed.n == keys.public.n


def test_truncated_cipher_matrix_rejected(keys, small_he_params):
    C = encrypt_matrix(keys.public, np.array([[1.0, 2.0], [3.0, 4.0]]),
                       small_he_params.scale, random.Random(5))
    buf = serialize_cipher_matrix(C)
    for cut in (1, 3, len(buf) - 12):
        with pytest.raises(MalformedPayload):
            parse_cipher_matrix(buf[:-cut], keys.public)


def test_malformed_public_keys_rejected(keys):
    raw = serialize_public_key(keys.public)[4:]
    padded = (len(raw) + 1).to_bytes(4, "big") + b"\x00" + raw
    for buf in (b"", b"\x00\x00\x00\x02\x01", b"\x00\x00\x00\x01\x00",
                serialize_public_key(PublicKey(1 << 40)), padded):
        with pytest.raises(MalformedPayload):
            parse_public_key(buf)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_cipher_matrix_total_on_arbitrary_bytes(keys, small_he_params, data):
    valid = serialize_cipher_matrix(encrypt_matrix(
        keys.public, np.array([[1.0, -2.0]]), small_he_params.scale,
        random.Random(8)))
    blob = data.draw(byte_mutations(valid))
    try:
        C, end = parse_cipher_matrix(blob, keys.public)
    except CurieError:
        return
    assert serialize_cipher_matrix(C) == blob[:end]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_public_key_total_on_arbitrary_bytes(keys, data):
    blob = data.draw(byte_mutations(serialize_public_key(keys.public)))
    try:
        pk, end = parse_public_key(blob)
    except CurieError:
        return
    assert serialize_public_key(pk) == blob[:end]
