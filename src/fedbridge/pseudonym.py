"""Pair-wise subject pseudonyms.

Persistent pseudonyms are a keyed one-way derivation from (subject,
service provider): stable across sessions, different for every provider,
and not invertible without the master secret, so the broker derives one
afresh on every sign-on and needs no table of them. Transient pseudonyms
are fresh randomness, one per sign-on.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import secrets

from .errors import InvariantViolation
from .messages import EntityId


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
