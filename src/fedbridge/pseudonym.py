"""Pair-wise subject pseudonyms and the account-linking registry.

Persistent pseudonyms are a keyed one-way derivation from (subject,
service provider): stable across sessions, different for every provider,
and not invertible without the master secret. Transient pseudonyms are
fresh randomness: the broker draws one per sign-on with
``fresh_transient`` and keeps no record of it. A pseudonym held in the
registry can be linked to a provider-local account.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import secrets
import threading
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .errors import InvariantViolation, UnknownPseudonym
from .messages import EntityId

_SNAPSHOT_HEADER = "# pseudonym\tsubject\tsp\tkind\tsession\tlinked_account"


class PseudonymKind(Enum):
    PERSISTENT = "persistent"
    TRANSIENT = "transient"


@dataclass(frozen=True)
class PseudonymRecord:
    pseudonym: str
    subject: str
    sp: EntityId
    kind: PseudonymKind
    session: str | None = None
    linked_account: str | None = None


def derive_persistent(subject: str, sp: EntityId, master_secret: bytes) -> str:
    """Deterministic pair-wise pseudonym: same inputs, same output; distinct
    providers or secrets, unrelated outputs. 256-bit HMAC rendered as
    unpadded urlsafe base64."""
    if not subject:
        raise InvariantViolation("subject must be non-empty")
    message = subject.encode("utf-8") + b"\x00" + sp.value.encode("utf-8")
    digest = hmac.new(master_secret, message, hashlib.sha256).digest()
    return base64.urlsafe_b64encode(digest).decode("ascii").rstrip("=")


def fresh_transient() -> str:
    return base64.urlsafe_b64encode(secrets.token_bytes(16)).decode("ascii").rstrip("=")


class PseudonymRegistry:
    """In-memory pseudonym registry with optional file snapshots.

    Reads are cheap; writes are serialized behind one lock. The public
    surface maps pseudonym → record only; nothing exposes subject →
    pseudonym enumeration to relying parties.
    """

    def __init__(self) -> None:
        self._by_pseudonym: dict[str, PseudonymRecord] = {}
        self._transient_index: dict[tuple[str, str, str], str] = {}
        self._lock = threading.Lock()

    def register_persistent(
        self, subject: str, sp: EntityId, master_secret: bytes
    ) -> PseudonymRecord:
        pseudonym = derive_persistent(subject, sp, master_secret)
        with self._lock:
            existing = self._by_pseudonym.get(pseudonym)
            if existing is not None:
                return existing
            record = PseudonymRecord(pseudonym, subject, sp, PseudonymKind.PERSISTENT)
            self._by_pseudonym[pseudonym] = record
            return record

    def issue_transient(self, subject: str, sp: EntityId, session: str) -> PseudonymRecord:
        key = (subject, sp.value, session)
        with self._lock:
            known = self._transient_index.get(key)
            if known is not None:
                return self._by_pseudonym[known]
            record = PseudonymRecord(
                fresh_transient(), subject, sp, PseudonymKind.TRANSIENT, session=session
            )
            self._by_pseudonym[record.pseudonym] = record
            self._transient_index[key] = record.pseudonym
            return record

    def lookup(self, pseudonym: str) -> PseudonymRecord:
        with self._lock:
            try:
                return self._by_pseudonym[pseudonym]
            except KeyError:
                raise UnknownPseudonym(pseudonym) from None

    def link_account(self, pseudonym: str, local_account: str) -> PseudonymRecord:
        """Attach a provider-local account; the latest link wins."""
        with self._lock:
            try:
                record = self._by_pseudonym[pseudonym]
            except KeyError:
                raise UnknownPseudonym(pseudonym) from None
            updated = replace(record, linked_account=local_account)
            self._by_pseudonym[pseudonym] = updated
            return updated

    def resolve(self, pseudonym: str) -> str | None:
        """The linked local account, or None while unlinked."""
        return self.lookup(pseudonym).linked_account

    def __len__(self) -> int:
        return len(self._by_pseudonym)

    # -- snapshots ---------------------------------------------------------

    def save_snapshot(self, path: str | Path) -> None:
        lines = [_SNAPSHOT_HEADER]
        with self._lock:
            records = list(self._by_pseudonym.values())
        for r in sorted(records, key=lambda r: r.pseudonym):
            cells = [r.pseudonym, r.subject, r.sp.value, r.kind.value,
                     r.session or "", r.linked_account or ""]
            for cell in cells:
                if "\t" in cell or "\n" in cell:
                    raise InvariantViolation("snapshot fields must not contain tab/newline")
            lines.append("\t".join(cells))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load_snapshot(cls, path: str | Path) -> "PseudonymRegistry":
        registry = cls()
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line or line.startswith("#"):
                continue
            pseudonym, subject, sp, kind, session, linked = line.split("\t")
            record = PseudonymRecord(
                pseudonym,
                subject,
                EntityId(sp),
                PseudonymKind(kind),
                session=session or None,
                linked_account=linked or None,
            )
            registry._by_pseudonym[pseudonym] = record
            if record.kind is PseudonymKind.TRANSIENT and record.session:
                registry._transient_index[(subject, sp, record.session)] = pseudonym
        return registry
