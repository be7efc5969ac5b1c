import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curie import crypto
from curie.crypto import (
    DimMismatch,
    HEParams,
    KeyMismatch,
    MalformedPayload,
    Overflow,
    ParamError,
    PublicKey,
    SlotLayout,
    _SIEVE_BOUND,
    _SIEVE_PRIMES,
    _sieve_window,
    add_cipher,
    decode_fixed,
    decrypt_residue_matrix,
    encode_fixed,
    encrypt_encoded_matrix,
    encrypt_residue_matrix,
    keygen,
    parse_cipher_matrix,
    parse_public_key,
    serialize_cipher_matrix,
    serialize_public_key,
)
from curie.errors import CurieError

from cipher_matrices import decrypt_matrix, encrypt_matrix
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
    # these bounds need a 52-bit slot, which a 48-bit key cannot hold
    params = HEParams(key_bits=48, n_max=10_000, v_max=256.0)
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
        _KEYS = keygen(HEParams(key_bits=128, n_max=6000, v_max=6000.0),
                       random.Random(77))
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


# ---------------------------------------------------------------------------
# CRT decryption, CRT encryption and keygen

def _textbook_decrypt(sk, c):
    n = sk.public.n
    return (pow(c, sk.lam, sk.public.nsquare) - 1) // n * sk.mu % n


@functools.lru_cache(maxsize=None)
def _keys_of_size(key_bits):
    return keygen(HEParams(key_bits=key_bits, n_max=100, v_max=10.0),
                  random.Random(key_bits))


@pytest.mark.parametrize("key_bits, cells", [(128, 200), (256, 50), (2048, 1)])
def test_crt_decryption_equals_the_lambda_mu_formula(key_bits, cells):
    keys = _keys_of_size(key_bits)
    pk, sk = keys.public, keys.secret
    rand = random.Random(7)
    for _ in range(cells):
        m = rand.randrange(pk.n)
        for c in (pk.encrypt_raw(m, rand), rand.randrange(1, pk.nsquare)):
            assert sk.decrypt_raw(c) == _textbook_decrypt(sk, c)
        assert sk.decrypt_raw(pk.encrypt_raw(m, rand)) == m


@pytest.mark.parametrize("key_bits", [128, 256, 2048])
def test_closed_form_crt_constants_equal_the_power_formula(key_bits):
    sk = _keys_of_size(key_bits).secret
    n = sk.public.n
    for prime, h in ((sk.p, sk.hp), (sk.q, sk.hq)):
        L = (pow(n + 1, prime - 1, prime * prime) - 1) // prime
        assert h == pow(L, -1, prime)


@pytest.mark.parametrize("key_bits, cells", [(128, 200), (256, 50), (2048, 2)])
def test_crt_encryption_decrypts_with_an_nth_residue_randomizer(key_bits, cells):
    keys = _keys_of_size(key_bits)
    pk, sk = keys.public, keys.secret
    rand = random.Random(11)
    for m in [0, pk.n - 1] + [rand.randrange(pk.n) for _ in range(cells)]:
        c = sk.encrypt_raw(m, rand)
        assert 0 < c < pk.nsquare
        assert sk.decrypt_raw(c) == _textbook_decrypt(sk, c) == m
        rho = c * pow(1 + m * pk.n, -1, pk.nsquare) % pk.nsquare
        assert pow(rho, sk.lam, pk.nsquare) == 1
    for bad in (-1, pk.n):
        with pytest.raises(Overflow):
            sk.encrypt_raw(bad, rand)


def test_crt_encryptions_are_fresh_and_add_homomorphically(keys):
    pk, sk = keys.public, keys.secret
    rand = random.Random(3)
    assert sk.encrypt_raw(42, rand) != sk.encrypt_raw(42, rand)
    a, b = rand.randrange(pk.n), rand.randrange(pk.n)
    summed = pk.add_raw(sk.encrypt_raw(a, rand), pk.encrypt_raw(b, rand))
    assert sk.decrypt_raw(summed) == (a + b) % pk.n


def test_sieve_primes_are_the_odd_primes_below_the_bound():
    # every odd composite below 2^18 has a prime factor below 2^9
    small = [d for d in range(3, 1 << 9, 2)
             if all(d % e for e in range(3, math.isqrt(d) + 1, 2))]
    odd = np.arange(3, _SIEVE_BOUND, 2)
    divisible = np.zeros(len(odd), dtype=bool)
    for d in small:
        divisible |= (odd % d == 0) & (odd != d)
    np.testing.assert_array_equal(_SIEVE_PRIMES, odd[~divisible])
    assert _SIEVE_PRIMES.nbytes <= 1 << 20


@pytest.mark.parametrize("bits, width, primes", [
    (10, 128, 40),              # tiny candidates: sieve primes below 3 * 2^8
    (64, 2048, 600),            # primes below the width hit many offsets
    (1024, 48, None),           # the full table
])
def test_sieve_window_survivors_equal_trial_division(bits, width, primes):
    rand = random.Random(bits)
    table = _SIEVE_PRIMES if primes is None else _SIEVE_PRIMES[:primes]
    divisors = table.tolist()
    for _ in range(3):
        start = rand.getrandbits(bits) | (3 << (bits - 2)) | 1
        span = min(width, ((1 << bits) + 1 - start) // 2)
        expected = [k for k in range(span)
                    if all((start + 2 * k) % d for d in divisors)]
        assert _sieve_window(start, span, table).tolist() == expected


@pytest.mark.parametrize("key_bits", [16, 17, 64, 129, 256, 2048])
def test_keygen_is_deterministic_with_the_requested_size(key_bits, monkeypatch):
    params = HEParams(key_bits=key_bits, scale_bits=1, n_max=1, v_max=1.0)
    drawn = []
    draw = crypto._random_prime
    monkeypatch.setattr(crypto, "_random_prime",
                        lambda bits, rng: drawn.append(draw(bits, rng)) or drawn[-1])
    for seed in range(1 if key_bits == 2048 else 3):
        drawn.clear()
        a = keygen(params, random.Random(seed))
        # the first valid pair is the key: no restart for its size
        pairs = list(zip(drawn[::2], drawn[1::2]))
        assert len(drawn) % 2 == 0 and pairs[-1] == (a.secret.p, a.secret.q)
        assert all(p == q or math.gcd(p * q, (p - 1) * (q - 1)) != 1
                   for p, q in pairs[:-1])
        for prime, bits in ((a.secret.p, key_bits // 2),
                            (a.secret.q, key_bits - key_bits // 2)):
            assert prime.bit_length() == bits and prime >> (bits - 2) == 3
        b = keygen(params, random.Random(seed))
        assert (a.public.n, a.secret.p, a.secret.q) == \
            (b.public.n, b.secret.p, b.secret.q)
        assert a.secret.p * a.secret.q == a.public.n
        assert a.public.n.bit_length() == key_bits


def test_keygen_skips_factors_sharing_a_divisor_with_phi():
    # 17-bit keys take an 8-bit p and a 9-bit q, so q = 2p + 1 can occur
    # (233 and 467); gcd(n, phi) = p then leaves lam without an inverse
    params = HEParams(key_bits=17, scale_bits=1, n_max=1, v_max=1.0)
    rand = random.Random(0)
    for seed in range(300):
        sk = keygen(params, random.Random(seed)).secret
        assert math.gcd(sk.public.n, sk.lam) == 1
        m = rand.randrange(sk.public.n)
        assert sk.decrypt_raw(sk.encrypt_raw(m, rand)) == m


def test_public_key_randomizer_is_a_unit_under_tiny_keys():
    # 17-bit keys have 8- and 9-bit factors, so a randomizer drawn from
    # [1, n) shares one with n often enough to show in 300 keys; the
    # residue and the randomizer come from the keygen rng's stream
    params = HEParams(key_bits=17, scale_bits=1, n_max=1, v_max=1.0)
    for seed in range(300):
        rng = random.Random(seed)
        pair = keygen(params, rng)
        m = rng.randrange(pair.public.n)
        assert pair.secret.decrypt_raw(pair.public.encrypt_raw(m, rng)) == m, seed


def test_secret_factors_stay_out_of_repr(keys):
    text = repr(keys.secret)
    assert str(keys.secret.p) not in text and str(keys.secret.q) not in text


# ---------------------------------------------------------------------------
# slot packing

def _layout(params, bits):
    """Layouts for the smallest and the largest modulus of *bits* bits."""
    return {SlotLayout.for_key(params, PublicKey(n)).per_plaintext
            for n in ((1 << (bits - 1)) + 1, (1 << bits) - 1)}


def test_slots_per_plaintext_for_the_repo_params(small_he_params):
    assert _layout(small_he_params, 128) == {2}
    criterion_4 = HEParams(key_bits=192, scale_bits=40, n_max=5001, v_max=1.2e6)
    assert _layout(criterion_4, 192) == {2}
    for rows in (200, 1000, 5000):    # criterion 10's row axis
        bench = HEParams(key_bits=192, n_max=max(10_000, rows * 5),
                         v_max=rows * 5 * 200.0)
        assert _layout(bench, 192) == {2}
    # the sessions the harness derives for default_dp and p5_global:
    # their members' 720 and 3735 training rows, normalized entries
    default_dp = HEParams(n_max=720, v_max=1.0)
    p5_global = HEParams(n_max=3735, v_max=1.0)
    assert (default_dp.slot_bits, p5_global.slot_bits) == (32, 34)
    assert _layout(default_dp, 256) == {7}
    assert _layout(p5_global, 256) == {7}
    assert _layout(default_dp, 2048) == {63}
    assert _layout(p5_global, 2048) == {60}


def test_params_validator_rejects_a_key_without_room_for_one_slot():
    params = HEParams(key_bits=64, scale_bits=1, n_max=2, v_max=2.0 ** 29)
    with pytest.raises(ParamError):
        params.validate()


_PACK_PARAMS = HEParams(key_bits=128, n_max=6000, v_max=6000.0)


@st.composite
def _slot_vectors(draw):
    """1-3 members' entry vectors whose slot-wise sums stay in bound,
    extremes included."""
    bound = _PACK_PARAMS.entry_bound
    members = draw(st.integers(1, 3))
    size = draw(st.integers(1, 9))
    cap = bound // members
    entry = st.one_of(st.integers(-cap, cap), st.sampled_from([-cap, cap, 0]))
    return [draw(st.lists(entry, min_size=size, max_size=size))
            for _ in range(members)]


@settings(max_examples=60, deadline=None)
@given(vectors=_slot_vectors(), seed=st.integers(0, 2**32))
def test_packed_sums_survive_encryption_and_masks_exactly(vectors, seed):
    keys = _cached_keys()
    pk, sk = keys.public, keys.secret
    layout = SlotLayout.for_key(_PACK_PARAMS, pk)
    rand = random.Random(seed)
    size = len(vectors[0])
    mask = [rand.randrange(pk.n) for _ in range(layout.plaintexts(size))]
    acc = encrypt_residue_matrix(sk, [mask], S, rand)
    for entries in vectors:
        acc = add_cipher(acc, encrypt_encoded_matrix(
            pk, [layout.pack(entries)], S, rand))
    residues = decrypt_residue_matrix(sk, acc)[0]
    sums = layout.unpack([pk.to_signed((r - m) % pk.n)
                          for r, m in zip(residues, mask)], size)
    assert sums == [sum(column) for column in zip(*vectors)]


def test_pack_rejects_an_entry_past_the_bound():
    layout = SlotLayout.for_key(_PACK_PARAMS, _cached_keys().public)
    bound = layout.entry_bound
    assert layout.unpack(layout.pack([bound, -bound, 1]), 3) == [bound, -bound, 1]
    for bad in (bound + 1, -bound - 1):
        with pytest.raises(Overflow):
            layout.pack([0, bad])


def test_unpack_rejects_spilled_digits_and_wrong_counts():
    layout = SlotLayout(entry_bound=5, width=5, per_plaintext=2)
    assert layout.unpack([3 + (-4 << 5)], 2) == [3, -4]
    with pytest.raises(Overflow):
        layout.unpack([1 << 10], 2)     # a digit past the second slot
    with pytest.raises(DimMismatch):
        layout.unpack([0, 0], 2)
