"""E-mail bit-providers: an append-only repository family.

§1 lists mail servers among the content sources Placeless unifies.  Mail
has a consistency model the other repositories don't exercise:

* an individual **message** is immutable once delivered — the perfect
  cache citizen, verified trivially;
* a **mailbox digest** (the folder listing an inbox view renders) changes
  every time new mail arrives — an append-only source whose verifier
  probes the message count.

New mail is delivered by the outside world (out-of-band by definition);
only verifiers can catch a stale digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.contract.verifiers import (
    AlwaysValidVerifier,
    ModificationTimeVerifier,
    Verifier,
)
from repro.errors import ContentUnavailableError, ProviderError
from repro.providers.base import BitProvider
from repro.sim.clock import VirtualClock
from repro.sim.context import SimContext

__all__ = ["Message", "MailServer", "MessageProvider", "MailboxDigestProvider"]


@dataclass(frozen=True)
class Message:
    """One immutable delivered message."""

    uid: int
    sender: str
    subject: str
    body: bytes
    received_ms: float

    def render(self) -> bytes:
        """RFC-822-ish rendering served as document content."""
        header = (
            f"From: {self.sender}\n"
            f"Subject: {self.subject}\n"
            f"Date: {self.received_ms:.0f}ms\n\n"
        )
        return header.encode() + self.body


@dataclass
class MailServer:
    """A simulated mail store: named mailboxes of append-only messages."""

    clock: VirtualClock
    _mailboxes: dict[str, list[Message]] = field(default_factory=dict)
    _next_uid: int = 1

    def deliver(
        self, mailbox: str, sender: str, subject: str, body: bytes
    ) -> Message:
        """Deliver new mail (an out-of-band event by nature)."""
        message = Message(
            uid=self._next_uid,
            sender=sender,
            subject=subject,
            body=bytes(body),
            received_ms=self.clock.now_ms,
        )
        self._next_uid += 1
        self._mailboxes.setdefault(mailbox, []).append(message)
        return message

    def messages(self, mailbox: str) -> list[Message]:
        """All messages in *mailbox*, oldest first."""
        return list(self._mailboxes.get(mailbox, []))

    def message(self, mailbox: str, uid: int) -> Message:
        """Look up one message by uid."""
        for candidate in self._mailboxes.get(mailbox, []):
            if candidate.uid == uid:
                return candidate
        raise ContentUnavailableError(f"no message {uid} in {mailbox}")

    def count(self, mailbox: str) -> int:
        """Number of messages in *mailbox*."""
        return len(self._mailboxes.get(mailbox, []))

    def digest(self, mailbox: str) -> bytes:
        """The folder listing: one line per message."""
        lines = [f"Mailbox: {mailbox}"]
        for message in self._mailboxes.get(mailbox, []):
            lines.append(
                f"{message.uid:5d}  {message.sender:<24} {message.subject}"
            )
        return ("\n".join(lines) + "\n").encode()


class MessageProvider(BitProvider):
    """Serves one immutable message."""

    repository_name = "mail"

    def __init__(
        self, ctx: SimContext, server: MailServer, mailbox: str, uid: int
    ) -> None:
        super().__init__(ctx)
        self.server = server
        self.mailbox = mailbox
        self.uid = uid

    def make_verifier(self) -> Verifier:
        """Messages never change; the entry is valid forever."""
        return AlwaysValidVerifier()

    def _retrieve(self) -> bytes:
        return self.server.message(self.mailbox, self.uid).render()

    def _store(self, content: bytes) -> None:
        raise ProviderError("delivered messages are immutable")


class MailboxDigestProvider(BitProvider):
    """Serves a mailbox's folder listing; stale once new mail arrives."""

    repository_name = "mail"

    def __init__(
        self, ctx: SimContext, server: MailServer, mailbox: str
    ) -> None:
        super().__init__(ctx)
        self.server = server
        self.mailbox = mailbox

    def make_verifier(self) -> Verifier:
        return ModificationTimeVerifier(
            probe=lambda: float(self.server.count(self.mailbox)),
            observed_mtime_ms=float(self.server.count(self.mailbox)),
            cost_ms=0.3,
        )

    def _retrieve(self) -> bytes:
        return self.server.digest(self.mailbox)

    def _store(self, content: bytes) -> None:
        raise ProviderError("a mailbox digest is derived, not writable")
