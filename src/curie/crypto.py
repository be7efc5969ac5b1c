"""Additively homomorphic public-key encryption of fixed-point encoded
vectors.

Paillier with the g = n + 1 simplification: ciphertext of m is
(1 + m*n) * r^n mod n^2, so adding plaintexts is multiplying
ciphertexts.  Decryption works modulo p^2 and q^2 and recombines by
the CRT (Paillier, EUROCRYPT 1999, section 7), and so does the key
holder's encryption.  Reals are encoded as
round(x * S) with a power-of-two scale S; signed values wrap modulo n
and are recovered from the upper half of the residue range.

A :class:`SlotLayout` packs signed encoded entries into plaintexts,
each entry in a slot of its own width: P = sum(s_i * 2^(o_i)), where
o_i sums the widths of the slots below entry i.  The caller bounds each
entry; its slot is that bound's bit length plus a sign bit and a carry
bit wide, so slot-wise sums of in-contract entries never spill into
the next slot.  :attr:`HEParams.entry_bound` bounds an entry of O or V
in fixed point, set by the session's row count and entry magnitude.
Entries fill the plaintexts in order, each as many as the key's signed
capacity n/3 holds.  Adding packed ciphertexts adds every slot at once,
and balanced digits recover the signed sums.

A :class:`CipherMatrix` is a flat vector of ciphertexts; the ring sends
one of packed plaintexts.  On the wire a ciphertext vector is its
residues and a public key its modulus, each length-prefixed, with no
header: the parsers read a whole buffer and refuse bytes past the
value, so a receiver parses exactly the bytes a transcript logs.

Key sizes are configurable; the 2048-bit default is for deployments,
test suites use much smaller keys (the homomorphic identities do not
depend on the modulus size).
"""

from __future__ import annotations

import functools
import itertools
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

    :attr:`entry_bound` is the largest entry of O or V in fixed point a
    session within these bounds can pool.  ``validate`` proves the
    no-overflow condition before any session starts: the key must hold
    at least one slot wide enough for the entry bound, so slot-wise sums
    never spill.
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
        # and 1 to the intercept's; computed exactly from the float v_max
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

def encode_fixed(x: float, scale: int) -> int:
    """round(x * scale); raises :class:`Overflow` on a non-finite *x*.
    Magnitudes are bounded where the integers are packed or encrypted."""
    if not math.isfinite(x):
        raise Overflow(f"cannot encode non-finite value {x!r}")
    return int(round(x * scale))


def decode_fixed(k: int, scale: int) -> float:
    return k / scale


# --------------------------------------------------------------------------
# keys

_SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
_SIEVE_BOUND = 1 << 18     # no candidate is sieved by a prime above this
_SIEVE_WINDOW = 1 << 11    # odd candidates sieved after each random start
_LIMB_BITS = 30            # residue * 2^30 stays inside int64 for primes < 2^33
_ERROR_BITS = 100          # a prime is composite with probability at most 2^-100
_SEARCH_BITS = 16          # union bound for the search that draws the candidates
_MAX_ROUNDS = 40           # rounds where no average-case bound reaches the target
_DLP_MIN_BITS = 88         # the smallest size every DLP bound (i)-(iv) covers


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


def _sieve_bound(bits: int) -> int:
    """The bound below which odd primes sieve *bits*-bit candidates:
    below the candidate range, so tiny test keys still find primes, and
    below bits^2 / 4, as for smaller primes a longer table costs more to
    sieve by than the primality tests it spares; 1024-bit primes take
    all of ``_SIEVE_PRIMES``.  A smaller bound only leaves composites
    for the primality test to turn away, so the first prime of a
    window, and so the key drawn, does not depend on it."""
    return min(3 << (bits - 2), bits * bits // 4, _SIEVE_BOUND)


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


def _dlp_log2_error(k: int, t: int) -> float:
    """log2 of the bound on p_{k,t}, the probability that an odd k-bit
    integer drawn uniformly at random and passing t random-base strong
    probable-prime rounds is composite (Damgard, Landrock and
    Pomerance, "Average case error estimates for the strong probable
    prime test", Math. Comp. 61, 1993; bounds (i)-(iv) as listed in the
    Handbook of Applied Cryptography, note 4.49).  Each bound is used
    on its own range of t; for k >= 88 they cover every t >= 1."""
    lg = math.log2
    if t == 1:                                                  # (i)
        return 2 * lg(k) + 2 * (2 - math.sqrt(k))
    if t <= k / 9:                                              # (ii)
        return 1.5 * lg(k) + t - 0.5 * lg(t) + 2 * (2 - math.sqrt(t * k))
    tail = lg(k ** 3.75 / 7) - k / 2 - 2 * t                    # (iv)
    if t >= k / 4:
        return tail
    terms = (lg(0.35 * k) - 5 * t, tail, lg(12 * k) - k / 4 - 3 * t)
    top = max(terms)                                            # (iii)
    return top + lg(sum(2.0 ** (e - top) for e in terms))


def _meets_target(k: int, t: int) -> bool:
    return _SEARCH_BITS + _dlp_log2_error(k, t) <= -_ERROR_BITS


@functools.cache
def _dlp_rounds() -> tuple[int, ...]:
    """Entry k - 88: the fewest rounds, capped at 40 and no fewer than
    size k + 1 takes, that meet the target at size k.  The floor keeps
    the count from growing with k, which the bounds alone would let it
    do once: t = 25 serves 224 bits under (iii) but not 225 bits, where
    t = k/9 falls under (ii).  The table ends at the first size one
    round serves; bound (i) falls with k, so one serves every size past
    it."""
    top = next(k for k in itertools.count(_DLP_MIN_BITS) if _meets_target(k, 1))
    rounds = [1]
    for k in range(top - 1, _DLP_MIN_BITS - 1, -1):
        t = rounds[-1]
        while t < _MAX_ROUNDS and not _meets_target(k, t):
            t += 1
        rounds.append(t)
    return tuple(reversed(rounds))


def _miller_rabin_rounds(k: int) -> int:
    """Random-base rounds that certify a k-bit candidate: the least t
    with 2^16 * p_{k,t} <= 2^-100 (:func:`_dlp_log2_error`), at most 40
    and no fewer than a larger size takes (:func:`_dlp_rounds`).

    The claim: a prime from :func:`_random_prime` is composite with
    probability at most 2^-100 wherever the bound reaches it (from 123
    bits on; 5 rounds at 1024).  The 2^16 is a union bound over the
    search (Brandt and Damgard, "On generation of probable primes by
    incremental search", CRYPTO 1992): up to 2^11 candidates a window,
    2^3.5 for sieving, as about 9% of odd numbers have no odd factor
    below 2^18 (more survive a smaller sieve bound, which conditions
    less), and 2 for drawing only the top quarter of k-bit numbers.
    Smaller sizes keep 40 rounds, whose worst-case bound is 4^-40 per
    composite tested.  The bound holds for random candidates only; an
    input chosen by an adversary has only the 4^-t bound."""
    if k < _DLP_MIN_BITS:
        return _MAX_ROUNDS
    table = _dlp_rounds()
    return table[k - _DLP_MIN_BITS] if k - _DLP_MIN_BITS < len(table) else 1


def _strong_probable_prime(n: int, d: int, r: int, a: int) -> bool:
    """One Miller-Rabin round to base *a*, for odd n - 1 = d * 2^r."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _is_probable_prime(n: int, rng: random.Random) -> bool:
    """Trial division by the odd primes to 53, one strong round to base 2,
    which turns most composites away cheaply (the first step of
    Baillie-PSW) and leaves the bound intact, then the random-base
    rounds :func:`_miller_rabin_rounds` asks for n's size."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    r = ((n - 1) & -(n - 1)).bit_length() - 1
    d = (n - 1) >> r
    if not _strong_probable_prime(n, d, r, 2):
        return False
    return all(_strong_probable_prime(n, d, r, rng.randrange(2, n - 1))
               for _ in range(_miller_rabin_rounds(n.bit_length())))


def _random_prime(bits: int, rng: random.Random) -> int:
    """A *bits*-bit prime with its top two bits set, so that the product
    of two such primes has exactly the sum of their sizes in bits.

    Incremental search (Brandt and Damgard, CRYPTO 1992): from a random
    odd start, the window of the next odd numbers below 2^bits is sieved
    by the small primes below :func:`_sieve_bound`, and the survivors
    are tested in order; a window without a prime is dropped for a
    fresh start."""
    low = 3 << (bits - 2)
    primes = _SIEVE_PRIMES[:np.searchsorted(_SIEVE_PRIMES, _sieve_bound(bits))]
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
    """The factors p and q of the public modulus.  :meth:`decrypt_raw`
    computes the textbook residue L(c^λ mod n^2) * μ mod n, with
    λ = (p-1)(q-1) and μ = λ^-1 mod n, from half-size exponents
    modulo p^2 and q^2 recombined by the CRT, and :meth:`encrypt_raw`
    encrypts the same way."""

    public: PublicKey
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
    return KeyPair(public, SecretKey(public, p, q))


# --------------------------------------------------------------------------
# slot packing

@dataclass(frozen=True)
class SlotLayout:
    """Signed entries packed into plaintexts, each in a slot of its own
    width.  A plaintext holding entries s_0, s_1, ... in slots of widths
    w_0, w_1, ... is P = sum(s_i * 2^(w_0 + ... + w_(i-1))), first entry
    in the least significant slot; the entries fill plaintexts in order,
    each plaintext as many as fit in *capacity* bits, for a key the bit
    length of its signed capacity (``PublicKey.max_int``).

    Entry i is at most ``bounds[i]`` in magnitude, and its slot w_i is
    two bits wider than that bound's bit length, a sign bit and a carry
    bit, so slot-wise sums stay inside (-2^(w_i-1), 2^(w_i-1)) while the
    pooled entries honour their bounds, and |P| < 2^(capacity-1) never
    exceeds the key's signed capacity: a packed plaintext survives the
    ring's homomorphic additions and its residue mask exactly.
    """

    bounds: tuple[int, ...]
    capacity: int
    widths: tuple[int, ...] = field(init=False, repr=False)
    spans: tuple[tuple[int, int], ...] = field(init=False, repr=False)

    def __post_init__(self):
        widths = tuple(b.bit_length() + 2 for b in self.bounds)
        if any(w > self.capacity for w in widths):
            raise ParamError(f"a {max(widths)}-bit slot in a {self.capacity}-bit plaintext")
        starts, used = [], self.capacity
        for i, w in enumerate(widths):
            if used + w > self.capacity:
                starts.append(i)
                used = 0
            used += w
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "spans", tuple(zip(starts, [*starts[1:], len(widths)])))

    @property
    def per_plaintext(self) -> int:
        """How many slots of the widest entry's width a plaintext holds."""
        return self.capacity // max(self.widths)

    @property
    def plaintexts(self) -> int:
        return len(self.spans)

    def pack(self, entries: Sequence[int]) -> list[int]:
        """Signed plaintexts holding *entries*, one per slot.  Every
        entry is checked before any is packed; one past its bound
        raises :class:`Overflow`."""
        if len(entries) != len(self.widths):
            raise DimMismatch(f"{len(entries)} entries for {len(self.widths)} slots")
        for e, bound in zip(entries, self.bounds):
            if abs(e) > bound:
                raise Overflow(f"encoded entry {e} exceeds its slot bound {bound}")
        out = []
        for lo, hi in self.spans:
            P = 0
            for i in range(hi - 1, lo - 1, -1):
                P = (P << self.widths[i]) + int(entries[i])
            out.append(P)
        return out

    def unpack(self, plaintexts: Sequence[int]) -> list[int]:
        """Balanced digits of signed (summed) plaintexts, each as wide as
        its slot: the inverse of :meth:`pack` on slot-wise sums.  Raises
        :class:`Overflow` when a plaintext has digits past its slots,
        which in-contract sums never produce."""
        if len(plaintexts) != self.plaintexts:
            raise DimMismatch(f"{len(plaintexts)} plaintexts for a layout "
                              f"of {self.plaintexts}")
        out: list[int] = []
        for P, (lo, hi) in zip(plaintexts, self.spans):
            for w in self.widths[lo:hi]:
                digit = P & ((1 << w) - 1)
                if digit >= 1 << (w - 1):
                    digit -= 1 << w
                out.append(digit)
                P = (P - digit) >> w
            if P:
                raise Overflow("a packed sum overflowed its slots")
        return out


# --------------------------------------------------------------------------
# ciphertext vectors

@dataclass(frozen=True)
class CipherMatrix:
    """A vector of ciphertexts under one public key."""

    public: PublicKey
    cells: tuple[int, ...]


def encode_matrix(M, scale: int) -> list[int]:
    """The entries of *M*, flattened row-major, in fixed point."""
    return [encode_fixed(float(v), scale) for v in np.asarray(M, dtype=float).flat]


def encrypt_encoded_matrix(pk: PublicKey, K: Sequence[int],
                           rng: random.Random) -> CipherMatrix:
    """Encrypt signed integers; every one is checked against the key's
    capacity before the first is encrypted."""
    for k in K:
        if abs(k) > pk.max_int:
            raise Overflow(f"encoded value {k} exceeds key capacity")
    return CipherMatrix(pk, tuple(pk.encrypt_raw(pk.from_signed(int(k)), rng)
                                  for k in K))


def encrypt_residue_matrix(sk: SecretKey, R: Sequence[int],
                           rng: random.Random) -> CipherMatrix:
    """Encrypt raw residues in [0, n) without sign mapping (the
    initiator's masks), by the CRT with the key's factors."""
    return CipherMatrix(sk.public, tuple(sk.encrypt_raw(int(v), rng) for v in R))


def add_cipher(c1: CipherMatrix, c2: CipherMatrix) -> CipherMatrix:
    """Homomorphic entry-wise addition."""
    if c1.public.n != c2.public.n:
        raise KeyMismatch("ciphertexts under different public keys")
    if len(c1.cells) != len(c2.cells):
        raise DimMismatch(f"length mismatch: {len(c1.cells)} vs {len(c2.cells)}")
    pk = c1.public
    return CipherMatrix(pk, tuple(pk.add_raw(a, b) for a, b in zip(c1.cells, c2.cells)))


def decrypt_residue_matrix(sk: SecretKey, C: CipherMatrix) -> list[int]:
    return [sk.decrypt_raw(c) for c in C.cells]


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
    return b"".join(_pack_bigint(c) for c in C.cells)


def parse_cipher_matrix(buf: bytes, pk: PublicKey) -> CipherMatrix:
    """Parse *buf* as a whole.  Raises :class:`MalformedPayload` unless
    it is one or more ciphertext residues in (0, n^2) and nothing
    else."""
    if not buf:
        raise MalformedPayload("empty ciphertext vector")
    offset = 0
    cells = []
    while offset < len(buf):
        v, offset = _unpack_bigint(buf, offset, f"cell {len(cells)}")
        if not 0 < v < pk.nsquare:
            raise MalformedPayload(f"cell {len(cells)} is not a residue in (0, n^2)")
        cells.append(v)
    return CipherMatrix(pk, tuple(cells))


def serialize_public_key(pk: PublicKey) -> bytes:
    return _pack_bigint(pk.n)


def parse_public_key(buf: bytes) -> PublicKey:
    """Parse *buf* as a whole.  Raises :class:`MalformedPayload` unless
    it is one odd modulus, at least as large as the smallest key
    :class:`HEParams` allows, and nothing else."""
    n, end = _unpack_bigint(buf, 0, "public modulus")
    if end != len(buf):
        raise MalformedPayload(f"{len(buf) - end} bytes trail the public modulus")
    if n.bit_length() < MIN_KEY_BITS or n % 2 == 0:
        raise MalformedPayload("public modulus is not an odd number of at "
                               f"least {MIN_KEY_BITS} bits")
    return PublicKey(n)
