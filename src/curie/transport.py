"""In-process message transport shared by negotiation and the ring
protocol.

Messages are append-only records of the exact bytes that crossed a
member boundary: a log holds the bytes its receivers parse and the
audits scan, and it has no JSON export.
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
    payload: bytes


@dataclass
class MessageLog:
    messages: list[Message] = field(default_factory=list)

    def send(self, sender: str, receiver: str, kind: str, payload: bytes) -> Message:
        if sender == receiver:
            raise TransportError("a member cannot message itself")
        msg = Message(sender, receiver, kind, payload)
        self.messages.append(msg)
        return msg

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self):
        return iter(self.messages)
