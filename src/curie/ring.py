"""Masked, encrypted ring accumulation of local regression statistics.

One session pools O = X'X and V = X'y (plus the contributed row count)
across a ring of members:

1. the initiator generates a session keypair and broadcasts the public
   key (n - 1 messages),
2. each member flattens its statistics into one vector, the upper
   triangle of the symmetric O row by row (m(m+1)/2 entries), then V
   (m entries), then the count, encodes it in fixed point, and packs
   it k entries per plaintext in the :class:`crypto.SlotLayout` that
   every member derives from the session parameters and the public
   key.  The initiator injects one uniform residue mask per packed
   plaintext, encrypted by the CRT with the session's secret factors
   (distributed exactly as a public-key encryption); every other member
   homomorphically adds its encrypted packed vector (members with
   nothing to contribute add encrypted zeros, so ring position does not
   reveal participation) and forwards.  Each ring payload is one (1, ceil(cells / k)) cipher
   matrix; n ring messages return it to the initiator,
3. the initiator decrypts, subtracts its masks in the residue domain,
   splits the signed plaintexts into balanced slot digits, adds its own
   encoded entries, decodes, and mirrors the triangle into the pooled
   O.  Every step is exact integer arithmetic, so the pooled O, V and
   row count are bit-identical across mask and key draws.

Every payload crossing a member boundary is a ciphertext; the
transcript records the exact bytes for the leakage audit.
"""

from __future__ import annotations

import random
import uuid
from dataclasses import dataclass, field

import numpy as np

from curie import crypto
from curie.data import Dataset, DesignEncoding, NormalizationMap, apply_selections, \
    normalize_columns, to_design_matrix
from curie.engine import EMPTY, Agreement
from curie.errors import CurieError
from curie.phases import phase
from curie.transport import MessageLog


class EmptyRelease(CurieError):
    pass


class OverflowAbort(CurieError):
    pass


class ProtocolError(CurieError):
    pass


PHASE_PUBLIC_KEY = "public_key"
PHASE_RING = "ring_accumulate"
_PHASE_TAGS = {PHASE_PUBLIC_KEY: 1, PHASE_RING: 2}
_TAG_PHASES = {v: k for k, v in _PHASE_TAGS.items()}
ENVELOPE_VERSION = 1
_ENVELOPE_HEAD = 19    # version, 16-byte session id, phase tag, sender length


# --------------------------------------------------------------------------
# local statistics

@dataclass(frozen=True)
class LocalStats:
    """O = X'X (m x m), V = X'y (m x 1), and the contributing row count,
    computed from the agreement-filtered dataset only."""

    O: np.ndarray
    V: np.ndarray
    n: int

    @property
    def m(self) -> int:
        return self.O.shape[0]


def local_stats(ds: Dataset, agreement: Agreement | None = None,
                bounds: NormalizationMap | None = None,
                encoding: DesignEncoding | None = None) -> LocalStats:
    """Apply the agreement's selections, optionally normalize numeric
    columns to [-1, 1] against *bounds*, and accumulate the sufficient
    statistics.  Raises :class:`EmptyRelease` when no rows survive, and
    :class:`OverflowAbort` when a value outside *bounds* would leave the
    [-1, 1] the ring's slots are sized for."""
    if agreement is not None:
        if agreement.status == EMPTY:
            raise EmptyRelease(
                f"agreement {agreement.owner}->{agreement.requester} is empty")
        ds = apply_selections(ds, agreement.selections)
    if ds.n == 0:
        raise EmptyRelease("no rows released after selections")
    if bounds is not None:
        ds, _ = normalize_columns(ds, bounds)
    dm = to_design_matrix(ds, encoding)
    if bounds is not None and max(np.abs(dm.X).max(), np.abs(dm.Y).max()) > 1:
        raise OverflowAbort(f"{ds.provenance}: a normalized value leaves [-1, 1]")
    return LocalStats(dm.X.T @ dm.X, (dm.X.T @ dm.Y).reshape(-1, 1), dm.X.shape[0])


def zero_stats(m: int) -> LocalStats:
    return LocalStats(np.zeros((m, m)), np.zeros((m, 1)), 0)


def stat_cells(m: int) -> int:
    """Entries of the pooled vector: O's upper triangle, V, the count."""
    return m * (m + 1) // 2 + m + 1


def _encode_stats(stats: LocalStats, scale: int) -> list[int]:
    upper = stats.O[np.triu_indices(stats.m)]
    values = [*upper.tolist(), *np.asarray(stats.V).reshape(-1).tolist(),
              float(stats.n)]
    return [crypto.encode_fixed(v, scale) for v in values]


def _decode_stats(entries: list[int], m: int, scale: int
                  ) -> tuple[np.ndarray, np.ndarray, int]:
    values = [crypto.decode_fixed(e, scale) for e in entries]
    t = m * (m + 1) // 2
    O = np.empty((m, m))
    upper = np.triu_indices(m)
    O[upper] = values[:t]
    O.T[upper] = values[:t]
    V = np.array(values[t:t + m]).reshape(-1, 1)
    return O, V, int(round(values[-1]))


# --------------------------------------------------------------------------
# protocol envelope

def pack_envelope(session_id: bytes, phase: str, sender: str, payload: bytes) -> bytes:
    sender_raw = sender.encode()
    return (bytes([ENVELOPE_VERSION]) + session_id + bytes([_PHASE_TAGS[phase]])
            + bytes([len(sender_raw)]) + sender_raw + payload)


def unpack_envelope(buf: bytes) -> tuple[bytes, str, str, bytes]:
    """Inverse of :func:`pack_envelope`; raises :class:`ProtocolError`
    on anything it could not have produced."""
    if len(buf) < _ENVELOPE_HEAD:
        raise ProtocolError(f"envelope of {len(buf)} bytes is shorter than "
                            f"its {_ENVELOPE_HEAD}-byte header")
    if buf[0] != ENVELOPE_VERSION:
        raise ProtocolError(f"unsupported envelope version {buf[0]}")
    session_id = buf[1:17]
    phase = _TAG_PHASES.get(buf[17])
    if phase is None:
        raise ProtocolError(f"unknown phase tag {buf[17]}")
    end = _ENVELOPE_HEAD + buf[18]
    if len(buf) < end:
        raise ProtocolError("envelope ends inside the sender id")
    try:
        sender = buf[_ENVELOPE_HEAD:end].decode()
    except UnicodeDecodeError:
        raise ProtocolError("sender id is not UTF-8") from None
    return session_id, phase, sender, buf[end:]


def _unpack_ring_payload(buf: bytes, pk: crypto.PublicKey,
                         width: int | None = None) -> crypto.CipherMatrix:
    """The one cipher matrix a ring payload carries, of shape
    (1, *width*) when *width* is given."""
    C, end = crypto.parse_cipher_matrix(buf, pk)
    if end != len(buf):
        raise ProtocolError(f"{len(buf) - end} bytes trail the ring payload's "
                            f"cipher matrix")
    if width is not None and C.shape != (1, width):
        raise ProtocolError(f"expected a (1, {width}) packed ciphertext matrix, "
                            f"got shape {C.shape}")
    return C


# --------------------------------------------------------------------------
# session

@dataclass
class Transcript:
    session_id: bytes
    initiator: str
    ring: tuple[str, ...]
    log: MessageLog = field(default_factory=MessageLog)
    layout: crypto.SlotLayout | None = None

    def __len__(self) -> int:
        return len(self.log)

    def to_json(self) -> dict:
        return {
            "session_id": self.session_id.hex(),
            "initiator": self.initiator,
            "ring": list(self.ring),
            "messages": self.log.to_json(),
        }


@dataclass(frozen=True)
class RingResult:
    O_pool: np.ndarray
    V_pool: np.ndarray
    n_pool: int
    transcript: Transcript


class _RingMember:
    """Non-initiator state machine: waits for the session key, then adds
    its encrypted packed statistics to whatever arrives and forwards."""

    def __init__(self, member_id: str, stats: LocalStats | None,
                 params: crypto.HEParams, rng: random.Random):
        self.member_id = member_id
        self.stats = stats
        self.params = params
        self.rng = rng
        self.pk: crypto.PublicKey | None = None
        self.layout: crypto.SlotLayout | None = None

    def on_public_key(self, payload: bytes) -> None:
        pk, end = crypto.parse_public_key(payload)
        if end != len(payload):
            raise ProtocolError(f"{self.member_id}: trailing bytes after the key")
        try:
            self.layout = crypto.SlotLayout.for_key(self.params, pk)
        except crypto.ParamError as exc:
            raise ProtocolError(f"{self.member_id}: {exc}") from exc
        self.pk = pk

    def on_accumulate(self, payload: bytes, m: int) -> bytes:
        if self.pk is None:
            raise ProtocolError(f"{self.member_id}: key not yet received")
        cells = stat_cells(m)
        incoming = _unpack_ring_payload(payload, self.pk,
                                        self.layout.plaintexts(cells))
        stats = self.stats or zero_stats(m)
        with phase("encrypt"):
            try:
                packed = self.layout.pack(_encode_stats(stats, self.params.scale))
            except crypto.Overflow as exc:
                raise OverflowAbort(f"{self.member_id}: {exc}") from exc
            mine = crypto.encrypt_encoded_matrix(self.pk, [packed],
                                                 self.params.scale, self.rng)
        with phase("evaluate"):
            summed = crypto.add_cipher(incoming, mine)
        return crypto.serialize_cipher_matrix(summed)


def run_ring_session(ring: list[str], initiator: str,
                     stats_provider, params: crypto.HEParams,
                     rng: random.Random,
                     log: MessageLog | None = None,
                     session_id: bytes | None = None,
                     keygen_rng: random.Random | None = None) -> RingResult:
    """Execute one pooled-statistics session.

    ``stats_provider(member_id)`` returns that member's
    :class:`LocalStats` or None for an empty contribution.  The ring is
    the declared order rotated to start at the initiator.  Message
    complexity is exactly (n - 1) key broadcasts + n ring hops.
    """
    if len(ring) < 2:
        raise ProtocolError("a ring session needs at least two members")
    if initiator not in ring:
        raise ProtocolError(f"initiator {initiator!r} not in ring")
    params.validate()

    start = ring.index(initiator)
    order = list(ring[start:]) + list(ring[:start])
    session_id = session_id or uuid.uuid4().bytes
    log = log if log is not None else MessageLog()

    member_stats = {mid: stats_provider(mid) for mid in order}
    given = [s for s in member_stats.values() if s is not None]
    if not given:
        raise EmptyRelease("no member has anything to contribute")
    m = given[0].m
    if any(s.m != m for s in given):
        raise ProtocolError("members disagree on design width")
    rows = sum(s.n for s in given)
    if rows > params.n_max:
        raise OverflowAbort(f"{rows} pooled rows exceed the session bound "
                            f"n_max {params.n_max}")

    with phase("keygen"):
        keys = crypto.keygen(params, keygen_rng or rng)
    pk, sk = keys.public, keys.secret

    layout = crypto.SlotLayout.for_key(params, pk)
    cells = stat_cells(m)
    width = layout.plaintexts(cells)

    members = {
        mid: _RingMember(mid, member_stats[mid], params, rng)
        for mid in order[1:]
    }

    key_payload = crypto.serialize_public_key(pk)
    for mid in order[1:]:
        log.send(initiator, mid, PHASE_PUBLIC_KEY,
                 pack_envelope(session_id, PHASE_PUBLIC_KEY, initiator, key_payload))
        members[mid].on_public_key(key_payload)

    # one uniform residue mask per packed plaintext; subtracted mod n at
    # the end, so the pooled output is independent of the draw
    mask = [rng.randrange(pk.n) for _ in range(width)]
    with phase("encrypt"):
        acc = crypto.encrypt_residue_matrix(sk, [mask], params.scale, rng)

    payload = crypto.serialize_cipher_matrix(acc)
    hops = order[1:] + [initiator]
    sender = initiator
    for receiver in hops:
        log.send(sender, receiver, PHASE_RING,
                 pack_envelope(session_id, PHASE_RING, sender, payload))
        if receiver != initiator:
            payload = members[receiver].on_accumulate(payload, m)
        sender = receiver

    with phase("decrypt"):
        final = _unpack_ring_payload(payload, pk, width)
        residues = crypto.decrypt_residue_matrix(sk, final)[0]

    try:
        sums = layout.unpack([pk.to_signed((r - mk) % pk.n)
                              for r, mk in zip(residues, mask)], cells)
    except crypto.Overflow as exc:
        raise OverflowAbort(f"pooled statistics: {exc}") from exc
    own = _encode_stats(member_stats[initiator] or zero_stats(m), params.scale)
    O_pool, V_pool, n_pool = _decode_stats(
        [s + o for s, o in zip(sums, own)], m, params.scale)
    transcript = Transcript(session_id, initiator, tuple(order), log, layout)
    return RingResult(O_pool, V_pool, n_pool, transcript)


# --------------------------------------------------------------------------
# leakage audit

@dataclass(frozen=True)
class LeakageFinding:
    kind: str
    member: str
    detail: str

    def to_json(self) -> dict:
        return {"kind": self.kind, "member": self.member, "detail": self.detail}


@dataclass(frozen=True)
class LeakageReport:
    findings: tuple[LeakageFinding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json(self) -> dict:
        return {"findings": [f.to_json() for f in self.findings]}


def audit_transcript(transcript: Transcript, corrupted: set[str],
                     reference_stats: dict[str, LocalStats] | None = None,
                     scale: int | None = None) -> LeakageReport:
    """Semi-honest leakage audit of a completed session.

    Corruption findings: with the session initiator corrupted (it holds
    the secret key), an honest member's input is recoverable exactly
    when both its ring predecessor and successor are corrupted: the
    coalition decrypts the ciphertexts entering and leaving it and
    differences them.  With two members, the initiator alone is both
    neighbors.  An honest initiator leaves nothing recoverable.

    Payload findings: no ring payload may carry a plaintext statistic:
    neither a single encoded O or V entry nor, when the transcript
    records its slot layout, one of a member's packed plaintexts.
    Payloads are scanned byte-wise for the serialized residues, and
    suspiciously small (plaintext-range) cells are compared with them.
    A leaked value that several members hold is reported for each.
    """
    findings: list[LeakageFinding] = []
    ring = transcript.ring
    n = len(ring)
    if transcript.initiator in corrupted:
        for i, member in enumerate(ring):
            if member in corrupted:
                continue
            pred = ring[(i - 1) % n]
            succ = ring[(i + 1) % n]
            if pred in corrupted and succ in corrupted:
                findings.append(LeakageFinding(
                    "input_recoverable", member,
                    f"predecessor {pred} and successor {succ} corrupted with "
                    f"a corrupted initiator holding the session key"))

    if reference_stats and scale:
        pk = None
        for msg in transcript.log:
            _, phase, _, payload = unpack_envelope(msg.payload)
            if phase == PHASE_PUBLIC_KEY:
                pk, _ = crypto.parse_public_key(payload)
                break
        if pk is not None:
            targets: dict[int, set[str]] = {}    # residue -> its holders
            for member, stats in reference_stats.items():
                entries = [crypto.encode_fixed(float(e), scale) for e in
                           [*np.asarray(stats.O).flat, *np.asarray(stats.V).flat]]
                if transcript.layout is not None:
                    try:
                        entries += transcript.layout.pack(_encode_stats(stats, scale))
                    except crypto.Overflow:
                        pass    # a member holding these could not have sent them
                for enc in entries:
                    if enc != 0:
                        targets.setdefault(pk.from_signed(enc), set()).add(member)
            patterns = {
                crypto.serialize_cipher_matrix(
                    crypto.CipherMatrix(pk, scale, (1, 1), (residue,)))[12:]: holders
                for residue, holders in targets.items()}
            for msg in transcript.log:
                _, phase, sender, payload = unpack_envelope(msg.payload)
                if phase != PHASE_RING:
                    continue
                for pat, holders in patterns.items():
                    if pat in payload:
                        findings.extend(LeakageFinding(
                            "plaintext_leak", member,
                            f"encoded statistic bytes appear in a ring payload "
                            f"sent by {sender}") for member in sorted(holders))
                for cell in _unpack_ring_payload(payload, pk).cells:
                    if cell < pk.n:
                        findings.extend(LeakageFinding(
                            "plaintext_leak", member,
                            f"plaintext-range cell in payload from {sender}")
                            for member in sorted(targets.get(cell, ())))
    return LeakageReport(tuple(findings))
