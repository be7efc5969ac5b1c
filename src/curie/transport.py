"""In-process message transport shared by negotiation and the ring
protocol.

Messages are append-only records with serialized payloads; transcripts
export to JSON with hex-encoded payload bytes so audits can scan the
exact bytes that crossed member boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from curie.errors import CurieError


class TransportError(CurieError):
    pass


@dataclass(frozen=True)
class Message:
    sender: str
    receiver: str
    kind: str
    payload: bytes = b""

    def to_json(self) -> dict:
        return {
            "sender": self.sender,
            "receiver": self.receiver,
            "kind": self.kind,
            "payload": self.payload.hex(),
        }


@dataclass
class MessageLog:
    messages: list[Message] = field(default_factory=list)

    def send(self, sender: str, receiver: str, kind: str, payload: bytes = b"") -> Message:
        if sender == receiver:
            raise TransportError("a member cannot message itself")
        msg = Message(sender, receiver, kind, payload)
        self.messages.append(msg)
        return msg

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self):
        return iter(self.messages)

    def count(self, kind: str | None = None) -> int:
        if kind is None:
            return len(self.messages)
        return sum(1 for m in self.messages if m.kind == kind)

    def to_json(self) -> list[dict]:
        return [m.to_json() for m in self.messages]
