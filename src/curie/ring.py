"""Masked, encrypted ring accumulation of local regression statistics.

One session pools O = X'X and V = X'y across a ring of members; the
intercept column makes O[0,0] the pooled row count:

1. the initiator generates a session keypair and broadcasts the public
   key (n - 1 messages),
2. each member encodes its statistics with the session's
   :class:`CellPlan`, over one flattened vector: the upper triangle of
   the symmetric O row by row (m(m+1)/2 entries), then V (m entries).
   The public design encoding fixes some of these cells for every
   member: O[b,b] is O[0,b] for every 0/1 column b, and two levels of
   one categorical never meet off the diagonal.  It also makes some
   open cells whole row counts: O[0,0], O[0,b], and O[a,b] for 0/1
   columns a and b.  Each member checks that its statistics hold these
   identities, then packs only the open cells, its count cells as whole
   numbers and the rest in fixed point, in plan order into the
   :class:`crypto.SlotLayout` that every member derives from the plan,
   the session parameters and the public key: a count cell's slot is as
   wide as the session's row count needs, any other cell's as wide as
   its fixed-point bound needs, and each plaintext holds as many slots
   as fit in the key's capacity.  The initiator injects one uniform
   residue mask per packed plaintext, encrypted by the CRT with the
   session's secret factors (distributed exactly as a public-key
   encryption); every other member homomorphically adds its encrypted
   packed vector (members with nothing to contribute add encrypted
   zeros, so ring position does not reveal participation) and
   forwards.  Each ring payload is one vector of packed ciphertexts, no
   more than ceil(open cells / k) for the k full-width slots a
   plaintext holds; n ring messages return it to the initiator,
3. the initiator decrypts, subtracts its masks in the residue domain,
   splits the signed plaintexts into balanced slot digits, adds its own
   open cells and decodes them with the plan, which rebuilds the fixed
   cells and mirrors the triangle into the pooled O.  Every step is
   exact integer arithmetic, so the pooled O and V, and with O[0,0] the
   row count, are bit-identical across mask and key draws.

Every ring payload crossing a member boundary is a ciphertext vector.
The transcript logs each message's sender, receiver and kind with the
exact bytes its receiver parses, which the leakage audit scans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Mapping

import numpy as np

from curie import crypto
from curie.data import Dataset, DesignEncoding, EncodedRows, NormalizationMap, \
    to_design_matrix
from curie.errors import CurieError, OverflowAbort
from curie.phases import phase
from curie.transport import MessageLog


class EmptyRelease(CurieError):
    pass


class ProtocolError(CurieError):
    pass


PHASE_PUBLIC_KEY = "public_key"
PHASE_RING = "ring_accumulate"


# --------------------------------------------------------------------------
# local statistics

@dataclass(frozen=True)
class LocalStats:
    """O = X'X (m x m), V = X'y (m x 1), and the contributing row count,
    which the intercept column makes O[0,0]."""

    O: np.ndarray
    V: np.ndarray
    n: int

    @property
    def m(self) -> int:
        return self.O.shape[0]


def member_rows(ds: Dataset, bounds: NormalizationMap | None) -> EncodedRows:
    """*ds*'s rows as the ring pools them, encoded by
    :func:`curie.data.to_design_matrix`.  Raises :class:`EmptyRelease`
    when *ds* has no rows."""
    if ds.n == 0:
        raise EmptyRelease(f"{ds.provenance}: no rows to release")
    return to_design_matrix(ds, bounds)


def local_stats(rows: EncodedRows, keep: np.ndarray | None = None) -> LocalStats:
    """The sufficient statistics of the rows the boolean mask *keep*
    keeps, every row without one."""
    X, Y = (rows.X, rows.Y) if keep is None else (rows.X[keep], rows.Y[keep])
    return LocalStats(X.T @ X, (X.T @ Y).reshape(-1, 1), len(Y))


@dataclass(frozen=True)
class CellPlan:
    """How the ring carries the flattened statistics, O's upper triangle
    then V: the codec every member encodes with and the initiator
    decodes with.

    The design encoding fixes two kinds of cell, exactly and for every
    member: O[b,b] is O[0,b] for a 0/1 column b (a one-hot level or a
    boolean), and O[a,b] is 0 for two one-hot levels of one categorical.
    Members pack only the other, open cells; the initiator rebuilds the
    fixed ones from the pooled open cells.  Of the open cells, O[0,0]
    (column 0 is the intercept), O[0,b] and O[a,b] for 0/1 columns a and
    b count rows, so every member's are whole numbers: members send them
    unscaled, in narrower slots."""

    m: int
    open: tuple[int, ...]                       # flat indices, ascending
    fixed: tuple[tuple[int, int | None], ...]   # (cell, its source cell or None for 0)
    counts: tuple[bool, ...]                    # per open cell: a whole row count

    @classmethod
    def for_encoding(cls, encoding: DesignEncoding) -> "CellPlan":
        feats = encoding.features
        m = len(feats)
        index = {(int(a), int(b)): i for i, (a, b) in enumerate(zip(*np.triu_indices(m)))}
        binary = [j for j, f in enumerate(feats) if f[0] in ("onehot", "boolean")]
        fixed: dict[int, int | None] = {index[b, b]: index[0, b] for b in binary}
        counts = {index[0, 0], *(index[0, b] for b in binary)}
        for a, b in combinations(binary, 2):
            if feats[a][0] == feats[b][0] == "onehot" and feats[a][1] == feats[b][1]:
                fixed[index[a, b]] = None
            else:
                counts.add(index[a, b])
        cells = tuple(i for i in range(len(index) + m) if i not in fixed)
        return cls(m, cells, tuple(sorted(fixed.items())),
                   tuple(i in counts for i in cells))

    @property
    def cells(self) -> int:
        return len(self.open)

    def name(self, cell: int) -> str:
        """The entry of O a flat index into its upper triangle stands for."""
        a, b = (int(k[cell]) for k in np.triu_indices(self.m))
        return f"O[{a},{b}]"

    def bounds(self, params: crypto.HEParams) -> tuple[int, ...]:
        """Each open cell's largest pooled entry in a session within
        *params*: ``n_max`` for a count, the fixed-point entry bound for
        any other cell."""
        rows, fixed = params.n_max, params.entry_bound
        return tuple(rows if count else fixed for count in self.counts)

    def layout(self, params: crypto.HEParams, pk: crypto.PublicKey) -> crypto.SlotLayout:
        """The session's slot layout, from the parameters every member
        validated and the public key the initiator broadcast."""
        return crypto.SlotLayout(self.bounds(params), pk.max_int.bit_length())

    def encode(self, stats: LocalStats | None, scale: int, member: str) -> list[int]:
        """*member*'s open cells as it packs them: its count cells as
        whole numbers, the rest in fixed point, and all zeros for no
        statistics.  Raises :class:`ProtocolError` unless O[0,0] is its
        row count, its fixed cells hold what :meth:`decode` rebuilds and
        its count cells are whole counts, so a contribution that breaks
        the encoding is never pooled."""
        if stats is None:
            return [0] * self.cells
        values = [*stats.O[np.triu_indices(self.m)].tolist(),
                  *np.asarray(stats.V).reshape(-1).tolist()]
        if values[0] != stats.n:
            raise ProtocolError(f"{member}: O[0,0] is {values[0]}, but its statistics "
                                f"count {stats.n} rows")
        for cell, source in self.fixed:
            have = crypto.encode_fixed(values[cell], scale)
            want = 0 if source is None else crypto.encode_fixed(values[source], scale)
            if have != want:
                raise ProtocolError(f"{member}: {self.name(cell)} is {have / scale}, but "
                                    f"the design encoding fixes it at {want / scale}")
        sent = []
        for cell, count in zip(self.open, self.counts):
            v = values[cell]
            if not count:
                sent.append(crypto.encode_fixed(v, scale))
            elif float(v).is_integer():
                sent.append(int(v))
            else:
                raise ProtocolError(f"{member}: {self.name(cell)} is {v}, but the design "
                                    f"encoding makes it a whole count of rows")
        return sent

    def decode(self, sums: list[int], scale: int) -> tuple[np.ndarray, np.ndarray]:
        """The pooled O and V whose open cells sum to *sums*, as
        :meth:`encode` sends them, with the fixed cells rebuilt."""
        values = [0.0] * (self.m * (self.m + 1) // 2 + self.m)
        for cell, e, count in zip(self.open, sums, self.counts):
            values[cell] = float(e) if count else crypto.decode_fixed(e, scale)
        for cell, source in self.fixed:
            values[cell] = 0.0 if source is None else values[source]
        t = len(values) - self.m
        O = np.empty((self.m, self.m))
        upper = np.triu_indices(self.m)
        O[upper] = values[:t]
        O.T[upper] = values[:t]
        return O, np.array(values[t:]).reshape(-1, 1)


def _ring_payload(buf: bytes, pk: crypto.PublicKey, width: int) -> crypto.CipherMatrix:
    """The vector of *width* packed ciphertexts a ring payload is."""
    C = crypto.parse_cipher_matrix(buf, pk)
    if len(C.cells) != width:
        raise ProtocolError(f"expected {width} packed ciphertexts, got {len(C.cells)}")
    return C


# --------------------------------------------------------------------------
# session

@dataclass
class Transcript:
    initiator: str
    ring: tuple[str, ...]
    log: MessageLog
    layout: crypto.SlotLayout
    plan: CellPlan


@dataclass(frozen=True)
class RingResult:
    O_pool: np.ndarray
    V_pool: np.ndarray
    n_pool: int
    transcript: Transcript


class _RingMember:
    """Non-initiator state machine: checks its statistics against the
    session's cell plan, waits for the session key, then adds its
    encrypted packed open cells to whatever arrives and forwards."""

    def __init__(self, member_id: str, stats: LocalStats | None, plan: CellPlan,
                 params: crypto.HEParams, rng: random.Random):
        self.member_id = member_id
        self.rows = stats.n if stats is not None else 0
        self.entries = plan.encode(stats, params.scale, member_id)
        self.plan = plan
        self.params = params
        self.rng = rng
        self.pk: crypto.PublicKey | None = None
        self.layout: crypto.SlotLayout | None = None

    def on_public_key(self, payload: bytes) -> None:
        pk = crypto.parse_public_key(payload)
        # a smaller modulus than the session's could be factored by
        # anyone; one of its size holds a slot, as the params validated
        if pk.n.bit_length() != self.params.key_bits:
            raise ProtocolError(f"{self.member_id}: a {pk.n.bit_length()}-bit key "
                                f"for a {self.params.key_bits}-bit session")
        self.layout = self.plan.layout(self.params, pk)
        self.pk = pk

    def on_accumulate(self, payload: bytes) -> bytes:
        if self.pk is None:
            raise ProtocolError(f"{self.member_id}: key not yet received")
        incoming = _ring_payload(payload, self.pk, self.layout.plaintexts)
        with phase("encrypt"):
            # members within the pooled bound could still sum past a
            # slot, so each is held to the share its own rows allow; as
            # n <= n_max, that share is within the layout's slot bound
            own = replace(self.params, n_max=self.rows)
            for e, bound in zip(self.entries, self.plan.bounds(own)):
                if abs(e) > bound:
                    raise OverflowAbort(f"{self.member_id}: encoded entry {e} exceeds the "
                                        f"bound {bound} its {self.rows} rows allow")
            packed = self.layout.pack(self.entries)
            mine = crypto.encrypt_encoded_matrix(self.pk, packed, self.rng)
        with phase("evaluate"):
            summed = crypto.add_cipher(incoming, mine)
        return crypto.serialize_cipher_matrix(summed)


def run_ring_session(ring: list[str], initiator: str,
                     stats: Mapping[str, LocalStats | None], encoding: DesignEncoding,
                     params: crypto.HEParams, rng: random.Random,
                     keygen_rng: random.Random | None = None) -> RingResult:
    """Execute one pooled-statistics session.

    ``stats`` maps every ring member to its :class:`LocalStats`, or to
    None for an empty contribution, over the columns of *encoding*,
    which fixes the cells no member sends.  The ring is the declared order
    rotated to start at the initiator.  Message complexity is exactly
    (n - 1) key broadcasts + n ring hops, and each member parses the
    bytes the transcript logs for it.
    """
    if len(ring) < 2:
        raise ProtocolError("a ring session needs at least two members")
    if initiator not in ring:
        raise ProtocolError(f"initiator {initiator!r} not in ring")
    params.validate()

    missing = [mid for mid in ring if mid not in stats]
    if missing:
        raise ProtocolError(f"no statistics entry for ring members {missing}")
    start = ring.index(initiator)
    order = list(ring[start:]) + list(ring[:start])
    log = MessageLog()

    given = [stats[mid] for mid in order if stats[mid] is not None]
    if not given:
        raise EmptyRelease("no member has anything to contribute")
    plan = CellPlan.for_encoding(encoding)
    if any(s.m != plan.m for s in given):
        raise ProtocolError(f"members' statistics are not {plan.m} design "
                            f"columns wide")
    rows = sum(s.n for s in given)
    if rows > params.n_max:
        raise OverflowAbort(f"{rows} pooled rows exceed the session bound "
                            f"n_max {params.n_max}")

    # every member checks its statistics before anything is encrypted
    own = plan.encode(stats[initiator], params.scale, initiator)
    members = {
        mid: _RingMember(mid, stats[mid], plan, params, rng)
        for mid in order[1:]
    }

    with phase("keygen"):
        keys = crypto.keygen(params, keygen_rng or rng)
    pk, sk = keys.public, keys.secret

    layout = plan.layout(params, pk)
    width = layout.plaintexts

    key_payload = crypto.serialize_public_key(pk)
    for mid in order[1:]:
        members[mid].on_public_key(log.send(initiator, mid, PHASE_PUBLIC_KEY,
                                            key_payload).payload)

    # one uniform residue mask per packed plaintext; subtracted mod n at
    # the end, so the pooled output is independent of the draw
    mask = [rng.randrange(pk.n) for _ in range(width)]
    with phase("encrypt"):
        acc = crypto.encrypt_residue_matrix(sk, mask, rng)

    payload = crypto.serialize_cipher_matrix(acc)
    hops = order[1:] + [initiator]
    sender = initiator
    for receiver in hops:
        payload = log.send(sender, receiver, PHASE_RING, payload).payload
        if receiver != initiator:
            payload = members[receiver].on_accumulate(payload)
        sender = receiver

    with phase("decrypt"):
        residues = crypto.decrypt_residue_matrix(sk, _ring_payload(payload, pk, width))

    try:
        sums = layout.unpack([pk.to_signed((r - mk) % pk.n)
                              for r, mk in zip(residues, mask)])
    except crypto.Overflow as exc:
        raise OverflowAbort(f"pooled statistics: {exc}") from exc
    O_pool, V_pool = plan.decode([s + o for s, o in zip(sums, own)], params.scale)
    transcript = Transcript(initiator, tuple(order), log, layout, plan)
    return RingResult(O_pool, V_pool, int(O_pool[0, 0]), transcript)


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
    not a single encoded O or V entry, not one of a member's open cells
    as it packs them, and not one of the plaintexts it packs them into,
    built by the members' own encoding and the transcript's slot
    layout.
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
        pk = next((crypto.parse_public_key(msg.payload) for msg in transcript.log
                   if msg.kind == PHASE_PUBLIC_KEY), None)
        if pk is not None:
            targets: dict[int, set[str]] = {}    # residue -> its holders
            for member, stats in reference_stats.items():
                entries = [crypto.encode_fixed(float(e), scale) for e in
                           [*np.asarray(stats.O).flat, *np.asarray(stats.V).flat]]
                try:
                    sent = transcript.plan.encode(stats, scale, member)
                    entries += sent + transcript.layout.pack(sent)
                except (ProtocolError, crypto.Overflow):
                    pass    # a member holding these could not have sent them
                for enc in entries:
                    if enc != 0:
                        targets.setdefault(pk.from_signed(enc), set()).add(member)
            patterns = {
                crypto.serialize_cipher_matrix(crypto.CipherMatrix(pk, (residue,))): holders
                for residue, holders in targets.items()}
            for msg in transcript.log:
                if msg.kind != PHASE_RING:
                    continue
                for pat, holders in patterns.items():
                    if pat in msg.payload:
                        findings.extend(LeakageFinding(
                            "plaintext_leak", member,
                            f"encoded statistic bytes appear in a ring payload "
                            f"sent by {msg.sender}") for member in sorted(holders))
                for cell in crypto.parse_cipher_matrix(msg.payload, pk).cells:
                    if cell < pk.n:
                        findings.extend(LeakageFinding(
                            "plaintext_leak", member,
                            f"plaintext-range cell in payload from {msg.sender}")
                            for member in sorted(targets.get(cell, ())))
    return LeakageReport(tuple(findings))
