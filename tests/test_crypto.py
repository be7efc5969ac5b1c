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
    assert decrypt_matrix(keys.secret, C, small_he_params.scale)[0] == 0.0


def test_roundtrip_on_1000_random_matrices(keys, small_he_params):
    # encode+encrypt then decrypt+decode inverts within half an encoding
    # step on every entry
    rng = np.random.default_rng(7)
    rand = random.Random(7)
    scale = small_he_params.scale
    for _ in range(1000):
        M = rng.uniform(-100, 100, (1, 2))
        C = encrypt_matrix(keys.public, M, scale, rand)
        D = decrypt_matrix(keys.secret, C, scale)
        assert np.abs(D - M.ravel()).max() <= 0.5 / scale


def test_roundtrip_statistics_sized_matrix(keys, small_he_params):
    rng = np.random.default_rng(8)
    scale = small_he_params.scale
    M = rng.uniform(-500, 500, (14, 14))
    C = encrypt_matrix(keys.public, M, scale, random.Random(8))
    D = decrypt_matrix(keys.secret, C, scale)
    assert np.abs(D - M.ravel()).max() <= 0.5 / scale


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
    np.testing.assert_array_equal(
        decrypt_matrix(keys.secret, C, small_he_params.scale), Z.ravel())


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
    D = decrypt_matrix(keys.secret, add_cipher(C, Z), scale)
    assert np.abs(D - M.ravel()).max() <= 1 / scale


def test_homomorphism_on_1000_random_pairs(keys, small_he_params):
    scale = small_he_params.scale
    rng = np.random.default_rng(11)
    rand = random.Random(11)
    for _ in range(1000):
        A = rng.uniform(-50, 50, (1, 2))
        B = rng.uniform(-50, 50, (1, 2))
        CA = encrypt_matrix(keys.public, A, scale, rand)
        CB = encrypt_matrix(keys.public, B, scale, rand)
        D = decrypt_matrix(keys.secret, add_cipher(CA, CB), scale)
        assert np.abs(D - (A + B).ravel()).max() <= 1 / scale


def test_accumulation_chain_tolerance(keys, small_he_params):
    scale = small_he_params.scale
    rng = np.random.default_rng(13)
    rand = random.Random(13)
    k = 25
    matrices = [rng.uniform(-5, 5, (2, 2)) for _ in range(k)]
    acc = encrypt_matrix(keys.public, matrices[0], scale, rand)
    for M in matrices[1:]:
        acc = add_cipher(acc, encrypt_matrix(keys.public, M, scale, rand))
    D = decrypt_matrix(keys.secret, acc, scale)
    assert np.abs(D - sum(matrices).ravel()).max() <= k / scale


def test_add_cipher_mismatches(keys, small_he_params):
    scale = small_he_params.scale
    rand = random.Random(17)
    A = encrypt_matrix(keys.public, np.ones(4), scale, rand)
    B = encrypt_matrix(keys.public, np.ones(6), scale, rand)
    with pytest.raises(DimMismatch):
        add_cipher(A, B)
    other = keygen(small_he_params, random.Random(99))
    C = encrypt_matrix(other.public, np.ones(4), scale, rand)
    with pytest.raises(KeyMismatch):
        add_cipher(A, C)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-1000, max_value=1000), min_size=1,
                max_size=6))
def test_roundtrip_property(values):
    # module-scope fixture not available to hypothesis: use a cached key
    keys = _cached_keys()
    C = encrypt_matrix(keys.public, values, S, random.Random(0))
    D = decrypt_matrix(keys.secret, C, S)
    assert np.abs(D - np.array(values)).max() <= 1 / S


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
    C = encrypt_matrix(keys.public, [1.0, -2.0, 3.5], small_he_params.scale,
                       random.Random(21))
    buf = serialize_cipher_matrix(C)
    # the residues and nothing else: no shape, no scale
    assert len(buf) == sum(4 + (c.bit_length() + 7) // 8 for c in C.cells)
    assert parse_cipher_matrix(buf, keys.public) == C
    # bytes past the last whole residue are refused
    for tail in (b"\x00", b"\x00\x00\x00\x01", b"\x00\x00\x00\x02\x01"):
        with pytest.raises(MalformedPayload):
            parse_cipher_matrix(buf + tail, keys.public)
    with pytest.raises(MalformedPayload):
        parse_cipher_matrix(b"", keys.public)


def test_public_key_wire_roundtrip(keys):
    buf = serialize_public_key(keys.public)
    assert parse_public_key(buf) == keys.public
    for tail in (b"\x00", serialize_public_key(keys.public)):
        with pytest.raises(MalformedPayload, match="trail"):
            parse_public_key(buf + tail)


def test_truncated_cipher_matrix_rejected(keys, small_he_params):
    C = encrypt_matrix(keys.public, [1.0, 2.0, 3.0, 4.0],
                       small_he_params.scale, random.Random(5))
    buf = serialize_cipher_matrix(C)
    for cut in (1, 3, len(buf) - 2):
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
        keys.public, [1.0, -2.0], small_he_params.scale, random.Random(8)))
    blob = data.draw(byte_mutations(valid))
    try:
        C = parse_cipher_matrix(blob, keys.public)
    except CurieError:
        return
    # the whole buffer is the vector: bytes appended to a valid payload
    # parse only as further whole residues
    assert serialize_cipher_matrix(C) == blob


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_public_key_total_on_arbitrary_bytes(keys, data):
    valid = serialize_public_key(keys.public)
    blob = data.draw(byte_mutations(valid))
    try:
        pk = parse_public_key(blob)
    except CurieError:
        return
    assert serialize_public_key(pk) == blob
    assert len(blob) <= len(valid) or not blob.startswith(valid)


# ---------------------------------------------------------------------------
# CRT decryption, CRT encryption and keygen

def _lam(sk):
    return (sk.p - 1) * (sk.q - 1)


def _textbook_decrypt(sk, c):
    n = sk.public.n
    lam = _lam(sk)
    return (pow(c, lam, sk.public.nsquare) - 1) // n * pow(lam, -1, n) % n


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
        assert pow(rho, _lam(sk), pk.nsquare) == 1
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


def test_miller_rabin_rounds_are_derived_from_the_candidate_size():
    rounds = crypto._miller_rabin_rounds
    assert (rounds(128), rounds(192), rounds(256), rounds(1024)) == (38, 27, 23, 5)
    assert all(rounds(k) == 40 for k in range(2, 88))
    counts = [rounds(k) for k in range(2, 1 << 13)]
    assert max(counts) == 40 and counts[-1] == 1
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_each_derived_round_count_meets_the_stated_bound():
    # 2^16 * p_{k,t} <= 2^-100 wherever the bound serves fewer rounds
    # than the cap: from 123 bits on, and at every size past the table
    sizes = [*range(88, 1 << 13), 1 << 16]
    for k in sizes:
        t = crypto._miller_rabin_rounds(k)
        assert (t < 40) == (k >= 123), k
        if t < 40:
            assert 16 + crypto._dlp_log2_error(k, t) <= -100, (k, t)


@pytest.mark.parametrize("n, base_2_liar", [
    (2047, True),                       # strong pseudoprimes to base 2 ...
    (3215031751, True),                 # ... and to 3, 5 and 7
    (3825123056546413051, True),        # ... and to every prime up to 23
    (561, False), (8911, False), (41041, False),    # Carmichael numbers
])
def test_strong_pseudoprimes_and_carmichael_numbers_are_rejected(n, base_2_liar):
    r = ((n - 1) & -(n - 1)).bit_length() - 1
    assert crypto._strong_probable_prime(n, (n - 1) >> r, r, 2) == base_2_liar
    assert not any(crypto._is_probable_prime(n, random.Random(seed))
                   for seed in range(100))


class _CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.bases = 0

    def randrange(self, *args):
        self.bases += 1
        return super().randrange(*args)


@pytest.mark.parametrize("exponent", [127, 521, 1279])
def test_mersenne_primes_are_certified_with_the_derived_rounds(exponent):
    n = (1 << exponent) - 1
    for seed in range(3):
        rand = _CountingRandom(seed)
        assert crypto._is_probable_prime(n, rand)
        assert rand.bases == crypto._miller_rabin_rounds(exponent)


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


@pytest.mark.parametrize("key_bits", [128, 192, 256])
def test_the_scaled_sieve_bound_draws_the_keys_of_the_full_sieve(key_bits, monkeypatch):
    # a smaller sieve only leaves composites for the primality test, so
    # the same rng gives the same primes and leaves the same state
    params = HEParams(key_bits=key_bits, scale_bits=1, n_max=1, v_max=1.0)
    assert crypto._sieve_bound(key_bits // 2) < _SIEVE_BOUND

    def keys():
        out = []
        for seed in range(20):
            rng = random.Random(seed)
            pair = keygen(params, rng)
            out.append((pair.public.n, pair.secret.p, pair.secret.q, rng.getstate()))
        return out

    scaled = keys()
    monkeypatch.setattr(crypto, "_sieve_bound",
                        lambda bits: min(3 << (bits - 2), _SIEVE_BOUND))
    assert keys() == scaled


def test_keygen_skips_factors_sharing_a_divisor_with_phi():
    # 17-bit keys take an 8-bit p and a 9-bit q, so q = 2p + 1 can occur
    # (233 and 467); gcd(n, phi) = p then leaves lam without an inverse
    params = HEParams(key_bits=17, scale_bits=1, n_max=1, v_max=1.0)
    rand = random.Random(0)
    for seed in range(300):
        sk = keygen(params, random.Random(seed)).secret
        assert math.gcd(sk.public.n, _lam(sk)) == 1
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
    return {SlotLayout((params.entry_bound,), PublicKey(n).max_int.bit_length())
            .per_plaintext for n in ((1 << (bits - 1)) + 1, (1 << bits) - 1)}


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
    """Bounds of 1-9 entries, up to the fixed-point entry bound, and 1-3
    members' entry vectors whose slot-wise sums stay in bound, extremes
    included."""
    members = draw(st.integers(1, 3))
    bounds = draw(st.lists(st.one_of(st.integers(0, _PACK_PARAMS.entry_bound),
                                     st.sampled_from([_PACK_PARAMS.entry_bound,
                                                      _PACK_PARAMS.n_max])),
                           min_size=1, max_size=9))
    caps = [b // members for b in bounds]
    return bounds, [[draw(st.one_of(st.integers(-cap, cap), st.sampled_from([-cap, cap, 0])))
                     for cap in caps] for _ in range(members)]


@settings(max_examples=60, deadline=None)
@given(drawn=_slot_vectors(), seed=st.integers(0, 2**32))
def test_packed_sums_survive_encryption_and_masks_exactly(drawn, seed):
    bounds, vectors = drawn
    keys = _cached_keys()
    pk, sk = keys.public, keys.secret
    layout = SlotLayout(tuple(bounds), pk.max_int.bit_length())
    rand = random.Random(seed)
    mask = [rand.randrange(pk.n) for _ in range(layout.plaintexts)]
    acc = encrypt_residue_matrix(sk, mask, rand)
    for entries in vectors:
        acc = add_cipher(acc, encrypt_encoded_matrix(pk, layout.pack(entries), rand))
    residues = decrypt_residue_matrix(sk, acc)
    sums = layout.unpack([pk.to_signed((r - m) % pk.n)
                          for r, m in zip(residues, mask)])
    assert sums == [sum(column) for column in zip(*vectors)]


def test_count_slots_are_as_wide_as_the_row_count_needs():
    # a slot is its bound's bit length plus sign and carry: a count of
    # 3735 rows needs 12 bits, an entry in fixed point 32 bits
    params = HEParams(n_max=3735, v_max=1.0)
    layout = SlotLayout((params.entry_bound, 3735, 3735, params.entry_bound),
                        PublicKey((1 << 255) + 1).max_int.bit_length())
    assert layout.widths == (34, 14, 14, 34)
    assert layout.bounds == (params.entry_bound, 3735, 3735, params.entry_bound)


def test_plaintexts_fill_in_order_up_to_the_capacity():
    # 10-bit plaintexts of 4-bit slots (bound 3) and 3-bit ones (bound
    # 1): 4 + 4 fit, the next 4 starts a second, then 3 + 3 fit beside
    # it and the next 3 starts a third
    layout = SlotLayout(bounds=(3, 3, 3, 1, 1, 1, 1), capacity=10)
    assert layout.widths == (4, 4, 4, 3, 3, 3, 3)
    assert layout.spans == ((0, 2), (2, 5), (5, 7))
    entries = [3, -3, -2, 1, -1, 0, 1]
    assert layout.unpack(layout.pack(entries)) == entries


def test_pack_rejects_an_entry_past_the_bound():
    bound, rows = _PACK_PARAMS.entry_bound, _PACK_PARAMS.n_max
    layout = SlotLayout((bound, bound, rows, rows),
                        _cached_keys().public.max_int.bit_length())
    entries = [bound, -bound, rows, -rows]
    assert layout.unpack(layout.pack(entries)) == entries
    for bad in ([bound + 1, 0, 0, 0], [0, -bound - 1, 0, 0], [0, 0, rows + 1, 0],
                [0, 0, 0, -rows - 1]):
        with pytest.raises(Overflow):
            layout.pack(bad)
    with pytest.raises(DimMismatch):
        layout.pack(entries[:3])


def test_unpack_rejects_spilled_digits_and_wrong_counts():
    layout = SlotLayout(bounds=(5, 5), capacity=10)
    assert layout.widths == (5, 5)
    assert layout.unpack([3 + (-4 << 5)]) == [3, -4]
    with pytest.raises(Overflow):
        layout.unpack([1 << 10])     # a digit past the second slot
    with pytest.raises(DimMismatch):
        layout.unpack([0, 0])


def test_a_slot_wider_than_the_plaintext_is_refused():
    # a bound of 300 needs an 11-bit slot; p5_global's fixed-point
    # entries need 34 bits, which no 32-bit key holds
    with pytest.raises(ParamError):
        SlotLayout(bounds=(300,), capacity=10)
    with pytest.raises(ParamError):
        SlotLayout((HEParams(n_max=3735, v_max=1.0).entry_bound,),
                   PublicKey((1 << 31) + 1).max_int.bit_length())
