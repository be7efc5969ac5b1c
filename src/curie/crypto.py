"""Additively homomorphic public-key encryption over fixed-point
encoded real matrices.

Paillier with the g = n + 1 simplification: ciphertext of m is
(1 + m*n) * r^n mod n^2, so adding plaintexts is multiplying
ciphertexts.  Decryption works modulo p^2 and q^2 and recombines by
the CRT (Paillier, EUROCRYPT 1999, section 7), and so does the key
holder's encryption.  Reals are encoded as
round(x * S) with a power-of-two scale S; signed values wrap modulo n
and are recovered from the upper half of the residue range.

A :class:`SlotLayout` packs k signed encoded entries into one
plaintext, P = sum(s_i * B^i) with B = 2^w.  The slot width w is the
bit length of :attr:`HEParams.entry_bound`, set by the session's row
count and entry magnitude, plus a sign bit and a carry bit, so
slot-wise sums of in-contract entries never spill into the next slot;
k is as many slots as the key's signed capacity n/3 holds.  Adding
packed ciphertexts adds every slot at once, and balanced base-B digits
recover the signed sums.

Key sizes are configurable; the 2048-bit default is for deployments,
test suites use much smaller keys (the homomorphic identities do not
depend on the modulus size).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from curie.errors import CurieError, MalformedPayload


class ParamError(CurieError):
    pass


class Overflow(CurieError):
    pass


class DimMismatch(CurieError):
    pass


class KeyMismatch(CurieError):
    pass


DEFAULT_KEY_BITS = 2048
DEFAULT_SCALE_BITS = 20
MIN_KEY_BITS = 16


@dataclass(frozen=True)
class HEParams:
    """Key size and fixed-point scale, which a config sets, and the
    session magnitude bounds, which the harness derives: ``n_max`` sums
    the members' public row counts, and ``v_max`` is 1 for rows
    normalized into [-1, 1].

    :attr:`entry_bound` is the per-entry bound the ring's slot layout is
    sized from: the largest encoded O, V or count entry a session within
    these bounds can pool.  ``validate`` proves the no-overflow condition
    before any session starts: the key must hold at least one slot wide
    enough for it, so slot-wise sums never spill.
    """

    key_bits: int = DEFAULT_KEY_BITS
    scale_bits: int = DEFAULT_SCALE_BITS
    n_max: int = 1               # total pooled rows
    v_max: float = 1.0           # absolute bound on any row entry

    @property
    def scale(self) -> int:
        return 1 << self.scale_bits

    @property
    def entry_bound(self) -> int:
        # every pooled row adds at most v_max^2 to an entry of O or V,
        # and 1 to the count; computed exactly from the float v_max
        v = max(Fraction(self.v_max), Fraction(1))
        return math.ceil(self.n_max * v * v * self.scale) + 1

    @property
    def slot_bits(self) -> int:
        return self.entry_bound.bit_length() + 2

    def validate(self) -> None:
        if self.key_bits < MIN_KEY_BITS:
            raise ParamError("key size too small to form a modulus")
        if self.scale_bits < 1:
            raise ParamError("fixed-point scale must be at least 2^1")
        if self.n_max < 1 or self.v_max <= 0:
            raise ParamError("session bounds must be positive")
        if self.slot_bits > self.key_bits - 2:
            raise ParamError(
                f"{self.key_bits}-bit modulus cannot hold one "
                f"{self.slot_bits}-bit statistic slot")


# --------------------------------------------------------------------------
# fixed-point encoding

def encode_fixed(x: float, scale: int, bound: int | None = None) -> int:
    """round(x * scale); raises :class:`Overflow` past *bound*."""
    if not math.isfinite(x):
        raise Overflow(f"cannot encode non-finite value {x!r}")
    k = round(x * scale)
    if bound is not None and abs(k) > bound:
        raise Overflow(f"encoded magnitude {abs(k)} exceeds bound {bound}")
    return int(k)


def decode_fixed(k: int, scale: int) -> float:
    return k / scale


# --------------------------------------------------------------------------
# keys

_SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
_SIEVE_BOUND = 1 << 18     # candidates are sieved by the odd primes below this
_SIEVE_WINDOW = 1 << 11    # odd candidates sieved after each random start
_LIMB_BITS = 30            # residue * 2^30 stays inside int64 for primes < 2^33


def _odd_primes_below(limit: int) -> np.ndarray:
    """The odd primes below *limit*, by the sieve of Eratosthenes over
    the odd numbers: index i stands for 2i + 1."""
    composite = np.zeros(limit // 2, dtype=bool)
    composite[0] = True
    for p in range(3, math.isqrt(limit - 1) + 1, 2):
        if not composite[p // 2]:
            composite[p * p // 2::p] = True
    primes = np.flatnonzero(np.logical_not(composite, out=composite))
    primes *= 2
    primes += 1
    return primes


_SIEVE_PRIMES = _odd_primes_below(_SIEVE_BOUND)


def _residues(value: int, primes: np.ndarray) -> np.ndarray:
    """*value* mod each of *primes*, by Horner's rule over 30-bit limbs."""
    mask = (1 << _LIMB_BITS) - 1
    top = value.bit_length() // _LIMB_BITS * _LIMB_BITS
    r = np.zeros_like(primes)
    for shift in range(top, -1, -_LIMB_BITS):
        r <<= _LIMB_BITS
        r += (value >> shift) & mask
        np.remainder(r, primes, out=r)
    return r


def _sieve_window(start: int, width: int, primes: np.ndarray) -> np.ndarray:
    """The offsets k in [0, width) for which the odd number start + 2k
    has no factor among *primes*, in increasing order."""
    # p divides start + 2k exactly when k = -start * 2^-1 (mod p), and
    # 2^-1 = (p + 1) / 2 (mod p); in-place steps keep the temporaries few
    first = _residues(start, primes)
    np.subtract(primes, first, out=first)
    first *= primes + 1
    first //= 2
    first %= primes
    hits = width - 1 - first
    hits += primes
    hits //= primes                     # offsets k = first (mod p) in the window
    rank = np.arange(hits.sum()) - np.repeat(np.cumsum(hits) - hits, hits)
    composite = np.zeros(width, dtype=bool)
    composite[np.repeat(first, hits) + rank * np.repeat(primes, hits)] = True
    return np.flatnonzero(~composite)


def _is_probable_prime(n: int, rng: random.Random, rounds: int = 40) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    """A *bits*-bit prime with its top two bits set, so that the product
    of two such primes has exactly the sum of their sizes in bits.

    Incremental search (Brandt and Damgard, CRYPTO 1992): from a random
    odd start, the window of the next odd numbers below 2^bits is sieved
    by the small primes below the candidate range, and the survivors
    are tested in order; a window without a prime is dropped for a
    fresh start."""
    low = 3 << (bits - 2)
    primes = _SIEVE_PRIMES[:np.searchsorted(_SIEVE_PRIMES, min(low, _SIEVE_BOUND))]
    while True:
        start = rng.getrandbits(bits) | low | 1
        width = min(_SIEVE_WINDOW, ((1 << bits) + 1 - start) // 2)
        for k in _sieve_window(start, width, primes).tolist():
            if _is_probable_prime(start + 2 * k, rng):
                return start + 2 * k


@dataclass(frozen=True)
class PublicKey:
    n: int
    nsquare: int = field(init=False, repr=False)
    max_int: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "nsquare", self.n * self.n)
        object.__setattr__(self, "max_int", self.n // 3)

    def encrypt_raw(self, m: int, rng: random.Random) -> int:
        """Encrypt a residue m in [0, n); fresh obfuscation every call.
        The randomizer r is drawn from Z_n^*: an r sharing a factor with
        n would make the ciphertext decrypt wrong."""
        if not 0 <= m < self.n:
            raise Overflow(f"plaintext residue {m} outside [0, n)")
        nude = (1 + m * self.n) % self.nsquare
        r = rng.randrange(1, self.n)
        while math.gcd(r, self.n) != 1:
            r = rng.randrange(1, self.n)
        return (nude * pow(r, self.n, self.nsquare)) % self.nsquare

    def add_raw(self, c1: int, c2: int) -> int:
        return (c1 * c2) % self.nsquare

    def to_signed(self, residue: int) -> int:
        return residue - self.n if residue > self.n // 2 else residue

    def from_signed(self, k: int) -> int:
        if abs(k) > self.max_int:
            raise Overflow(f"signed plaintext {k} exceeds key capacity")
        return k % self.n


def _crt_half(prime: int, n: int) -> int:
    """h = L(g^(prime-1) mod prime^2)^-1 mod prime, with g = n + 1 and
    L(u) = (u - 1) / prime.  As (1 + n)^(prime-1) = 1 + (prime-1)*n
    (mod prime^2), L of it is -(n / prime) mod prime."""
    return pow(-(n // prime), -1, prime)


@dataclass(frozen=True)
class SecretKey:
    """lam = (p-1)(q-1) and mu = lam^-1 mod n give the textbook
    decryption L(c^lam mod n^2) * mu mod n; :meth:`decrypt_raw` computes
    the same residue from the factors, half-size exponents modulo p^2
    and q^2 recombined by the CRT, and :meth:`encrypt_raw` encrypts the
    same way."""

    public: PublicKey
    lam: int = field(repr=False)
    mu: int = field(repr=False)
    p: int = field(repr=False)
    q: int = field(repr=False)
    hp: int = field(init=False, repr=False)
    hq: int = field(init=False, repr=False)
    p_inv: int = field(init=False, repr=False)   # p^-1 mod q
    p2_inv: int = field(init=False, repr=False)  # p^-2 mod q^2

    def __post_init__(self):
        n = self.public.n
        object.__setattr__(self, "hp", _crt_half(self.p, n))
        object.__setattr__(self, "hq", _crt_half(self.q, n))
        object.__setattr__(self, "p_inv", pow(self.p, -1, self.q))
        object.__setattr__(self, "p2_inv", pow(self.p * self.p, -1,
                                               self.q * self.q))

    def encrypt_raw(self, m: int, rng: random.Random) -> int:
        """Encrypt a residue m in [0, n) as :meth:`PublicKey.encrypt_raw`
        does, with the randomizer r^n mod n^2 built from the factors.
        For s uniform in [1, p), s^p mod p^2 is uniform over the n-th
        residues mod p^2, as s^q mod q^2 is mod q^2, so their CRT
        combination is distributed as r^n for r uniform in Z_n^*, and
        so is every ciphertext (Paillier, EUROCRYPT 1999, section 7)."""
        pk = self.public
        if not 0 <= m < pk.n:
            raise Overflow(f"plaintext residue {m} outside [0, n)")
        p, q = self.p, self.q
        pp, qq = p * p, q * q
        rp = pow(rng.randrange(1, p), p, pp)
        rq = pow(rng.randrange(1, q), q, qq)
        rho = rp + (rq - rp) * self.p2_inv % qq * pp
        return (1 + m * pk.n) * rho % pk.nsquare

    def decrypt_raw(self, c: int) -> int:
        p, q = self.p, self.q
        mp = (pow(c, p - 1, p * p) - 1) // p * self.hp % p
        mq = (pow(c, q - 1, q * q) - 1) // q * self.hq % q
        return mp + (mq - mp) * self.p_inv % q * p


@dataclass(frozen=True)
class KeyPair:
    public: PublicKey
    secret: SecretKey


def keygen(params: HEParams, rng: random.Random) -> KeyPair:
    """Generate a keypair satisfying decrypt(encrypt(x)) == x for every
    encodable x, with a modulus of exactly ``key_bits`` bits.
    Deterministic given the rng state."""
    params.validate()
    half = params.key_bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(params.key_bits - half, rng)
        n, phi = p * q, (p - 1) * (q - 1)
        # g = n + 1 needs gcd(n, phi) = 1, which halves of unequal size
        # can break (q = 2p + 1 at 17 bits)
        if p != q and math.gcd(n, phi) == 1:
            break
    public = PublicKey(n)
    mu = pow(phi, -1, n)
    return KeyPair(public, SecretKey(public, phi, mu, p, q))


# --------------------------------------------------------------------------
# slot packing

@dataclass(frozen=True)
class SlotLayout:
    """k signed entries of at most *entry_bound* per plaintext, each in
    a *width*-bit slot: P = sum(s_i * 2^(width*i)), first entry in the
    least significant slot.

    Slot-wise sums stay inside (-2^(width-1), 2^(width-1)) while the
    pooled entries honour the bound, and |P| < 2^(width*k-1) never
    exceeds the key's signed capacity, so a packed plaintext survives
    the ring's homomorphic additions and its residue mask exactly.
    """

    entry_bound: int
    width: int
    per_plaintext: int

    @classmethod
    def for_key(cls, params: HEParams, pk: PublicKey) -> "SlotLayout":
        """The session's layout: from the parameters every member
        validated and the public key the initiator broadcast."""
        width = params.slot_bits
        k = pk.max_int.bit_length() // width
        if k < 1:
            raise ParamError(f"public key holds no {width}-bit slot")
        return cls(params.entry_bound, width, k)

    def plaintexts(self, entries: int) -> int:
        return -(-entries // self.per_plaintext)

    def pack(self, entries: Sequence[int]) -> list[int]:
        """Signed plaintexts holding *entries*.  Every entry is checked
        before any is packed; one past the bound raises
        :class:`Overflow`."""
        for e in entries:
            if abs(e) > self.entry_bound:
                raise Overflow(f"encoded entry {e} exceeds the slot bound "
                               f"{self.entry_bound}")
        k, w = self.per_plaintext, self.width
        out = []
        for start in range(0, len(entries), k):
            P = 0
            for e in reversed(entries[start:start + k]):
                P = (P << w) + int(e)
            out.append(P)
        return out

    def unpack(self, plaintexts: Sequence[int], count: int) -> list[int]:
        """Balanced base-2^width digits of signed (summed) plaintexts:
        the inverse of :meth:`pack` on slot-wise sums.  Raises
        :class:`Overflow` when a plaintext has digits past its slots,
        which in-contract sums never produce."""
        if len(plaintexts) != self.plaintexts(count):
            raise DimMismatch(f"{len(plaintexts)} plaintexts cannot hold "
                              f"exactly {count} entries")
        k, w = self.per_plaintext, self.width
        low, half = (1 << w) - 1, 1 << (w - 1)
        out: list[int] = []
        for P in plaintexts:
            for _ in range(min(k, count - len(out))):
                digit = P & low
                if digit >= half:
                    digit -= 1 << w
                out.append(digit)
                P = (P - digit) >> w
            if P:
                raise Overflow("a packed sum overflowed its slots")
        return out


# --------------------------------------------------------------------------
# matrices

@dataclass(frozen=True)
class CipherMatrix:
    public: PublicKey
    scale: int
    shape: tuple[int, int]
    cells: tuple[int, ...]  # row-major ciphertexts

    def __post_init__(self):
        if self.shape[0] * self.shape[1] != len(self.cells):
            raise DimMismatch("cell count does not match shape")


def _as_matrix(M) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim == 1:
        A = A.reshape(-1, 1)
    if A.ndim != 2:
        raise DimMismatch(f"expected a matrix, got ndim={A.ndim}")
    return A


def encode_matrix(M, scale: int, bound: int | None = None) -> list[list[int]]:
    A = _as_matrix(M)
    return [[encode_fixed(float(v), scale, bound) for v in row] for row in A]


def encrypt_encoded_matrix(pk: PublicKey, K: Sequence[Sequence[int]],
                           scale: int, rng: random.Random) -> CipherMatrix:
    rows = len(K)
    cols = len(K[0]) if rows else 0
    for row in K:
        if len(row) != cols:
            raise DimMismatch("ragged encoded matrix")
        for k in row:
            if abs(k) > pk.max_int:
                raise Overflow(f"encoded value {k} exceeds key capacity")
    cells = tuple(pk.encrypt_raw(pk.from_signed(int(k)), rng)
                  for row in K for k in row)
    return CipherMatrix(pk, scale, (rows, cols), cells)


def encrypt_residue_matrix(sk: SecretKey, R: Sequence[Sequence[int]],
                           scale: int, rng: random.Random) -> CipherMatrix:
    """Encrypt raw residues in [0, n) without sign mapping (the
    initiator's masks), by the CRT with the key's factors."""
    rows = len(R)
    cols = len(R[0]) if rows else 0
    cells = tuple(sk.encrypt_raw(int(v), rng) for row in R for v in row)
    return CipherMatrix(sk.public, scale, (rows, cols), cells)


def add_cipher(c1: CipherMatrix, c2: CipherMatrix) -> CipherMatrix:
    """Homomorphic entry-wise addition."""
    if c1.public.n != c2.public.n:
        raise KeyMismatch("ciphertexts under different public keys")
    if c1.scale != c2.scale:
        raise KeyMismatch(f"scale mismatch: {c1.scale} vs {c2.scale}")
    if c1.shape != c2.shape:
        raise DimMismatch(f"shape mismatch: {c1.shape} vs {c2.shape}")
    pk = c1.public
    cells = tuple(pk.add_raw(a, b) for a, b in zip(c1.cells, c2.cells))
    return CipherMatrix(pk, c1.scale, c1.shape, cells)


def decrypt_residue_matrix(sk: SecretKey, C: CipherMatrix) -> list[list[int]]:
    rows, cols = C.shape
    flat = [sk.decrypt_raw(c) for c in C.cells]
    return [flat[r * cols:(r + 1) * cols] for r in range(rows)]


# --------------------------------------------------------------------------
# wire format

def _pack_bigint(v: int) -> bytes:
    raw = v.to_bytes((v.bit_length() + 7) // 8 or 1, "big")
    return len(raw).to_bytes(4, "big") + raw


def _take(buf: bytes, offset: int, size: int, what: str) -> bytes:
    if offset + size > len(buf):
        raise MalformedPayload(
            f"{what} needs {size} bytes at offset {offset}, "
            f"{max(len(buf) - offset, 0)} left")
    return buf[offset:offset + size]


def _unpack_bigint(buf: bytes, offset: int, what: str) -> tuple[int, int]:
    """Inverse of :func:`_pack_bigint`; only its minimal big-endian
    form is accepted, so a parsed value re-serializes to the same
    bytes."""
    size = int.from_bytes(_take(buf, offset, 4, f"{what} length"), "big")
    raw = _take(buf, offset + 4, size, what)
    if size == 0 or (size > 1 and raw[0] == 0):
        raise MalformedPayload(f"{what} is not in minimal form")
    return int.from_bytes(raw, "big"), offset + 4 + size


def serialize_cipher_matrix(C: CipherMatrix) -> bytes:
    head = (C.shape[0].to_bytes(2, "big") + C.shape[1].to_bytes(2, "big")
            + C.scale.to_bytes(8, "big"))
    return head + b"".join(_pack_bigint(c) for c in C.cells)


def parse_cipher_matrix(buf: bytes, pk: PublicKey, offset: int = 0
                        ) -> tuple[CipherMatrix, int]:
    """Parse one cipher matrix at *offset*; returns it and the offset
    after it.  Raises :class:`MalformedPayload` unless the bytes are a
    nonempty matrix with a positive scale whose every cell is a
    ciphertext residue in (0, n^2)."""
    if offset < 0:
        raise MalformedPayload(f"negative offset {offset}")
    head = _take(buf, offset, 12, "cipher matrix header")
    rows = int.from_bytes(head[0:2], "big")
    cols = int.from_bytes(head[2:4], "big")
    scale = int.from_bytes(head[4:12], "big")
    if rows == 0 or cols == 0:
        raise MalformedPayload(f"empty cipher matrix shape ({rows}, {cols})")
    if scale == 0:
        raise MalformedPayload("cipher matrix scale is zero")
    offset += 12
    cells = []
    for i in range(rows * cols):
        v, offset = _unpack_bigint(buf, offset, f"cell {i}")
        if not 0 < v < pk.nsquare:
            raise MalformedPayload(f"cell {i} is not a residue in (0, n^2)")
        cells.append(v)
    return CipherMatrix(pk, scale, (rows, cols), tuple(cells)), offset


def serialize_public_key(pk: PublicKey) -> bytes:
    return _pack_bigint(pk.n)


def parse_public_key(buf: bytes, offset: int = 0) -> tuple[PublicKey, int]:
    """Parse a public key at *offset*; returns it and the offset after
    it.  Raises :class:`MalformedPayload` unless the modulus is odd and
    at least as large as the smallest key :class:`HEParams` allows."""
    if offset < 0:
        raise MalformedPayload(f"negative offset {offset}")
    n, offset = _unpack_bigint(buf, offset, "public modulus")
    if n.bit_length() < MIN_KEY_BITS or n % 2 == 0:
        raise MalformedPayload("public modulus is not an odd number of at "
                               f"least {MIN_KEY_BITS} bits")
    return PublicKey(n), offset
