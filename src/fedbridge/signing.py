"""Assertion signing and verification over canonical bytes.

Signatures are detached: they cover exactly ``canonical_bytes`` of the
assertion, so re-signing swaps the signature without perturbing a single
content byte. Ed25519 is the only scheme: ``sign`` names it in
``algorithm_id``, and ``verify`` refuses any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ed25519

from .errors import MissingSignature, SignatureInvalid, UnknownKeyId, WrongKeyRole
from .messages import EntityId, SamlAssertion, Signature, canonical_bytes

ED25519 = "ed25519"


class KeyRole(Enum):
    SIGNING_PRIVATE = "signing-private"
    VERIFYING_PUBLIC = "verifying-public"


@dataclass(frozen=True)
class KeyRecord:
    """Raw key bytes and the Ed25519 key object loaded from them.

    The key object is built once, with the record, so that signing and
    verifying never rebuild it from ``material``.
    """

    key_id: str
    owner: EntityId
    role: KeyRole
    material: bytes
    loaded: ed25519.Ed25519PrivateKey | ed25519.Ed25519PublicKey = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.role is KeyRole.SIGNING_PRIVATE:
            key = ed25519.Ed25519PrivateKey.from_private_bytes(self.material)
        else:
            key = ed25519.Ed25519PublicKey.from_public_bytes(self.material)
        object.__setattr__(self, "loaded", key)


def generate_keypair(key_id: str, owner: EntityId) -> tuple[KeyRecord, KeyRecord]:
    """Fresh Ed25519 pair; both records share the key_id."""
    private = ed25519.Ed25519PrivateKey.generate()
    private_raw = private.private_bytes(
        serialization.Encoding.Raw,
        serialization.PrivateFormat.Raw,
        serialization.NoEncryption(),
    )
    public_raw = private.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )
    return (
        KeyRecord(key_id, owner, KeyRole.SIGNING_PRIVATE, private_raw),
        KeyRecord(key_id, owner, KeyRole.VERIFYING_PUBLIC, public_raw),
    )


def save_key_pem(record: KeyRecord, path: str | Path) -> None:
    if record.role is KeyRole.SIGNING_PRIVATE:
        pem = record.loaded.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )
    else:
        pem = record.loaded.public_bytes(
            serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo
        )
    Path(path).write_bytes(pem)


def load_key_pem(path: str | Path, key_id: str, owner: EntityId, role: KeyRole) -> KeyRecord:
    pem = Path(path).read_bytes()
    if role is KeyRole.SIGNING_PRIVATE:
        key = serialization.load_pem_private_key(pem, password=None)
        if not isinstance(key, ed25519.Ed25519PrivateKey):
            raise WrongKeyRole(f"{path}: not an ed25519 private key")
        material = key.private_bytes(
            serialization.Encoding.Raw,
            serialization.PrivateFormat.Raw,
            serialization.NoEncryption(),
        )
    else:
        pub = serialization.load_pem_public_key(pem)
        if not isinstance(pub, ed25519.Ed25519PublicKey):
            raise WrongKeyRole(f"{path}: not an ed25519 public key")
        material = pub.public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )
    return KeyRecord(key_id, owner, role, material)


class KeyStore:
    """Verification keys, keyed by key_id.

    Built once, at configuration load, and read-only afterwards.
    """

    def __init__(self, records: list[KeyRecord]):
        self._records: dict[str, KeyRecord] = {}
        for record in records:
            if record.role is not KeyRole.VERIFYING_PUBLIC:
                raise WrongKeyRole(f"key store holds verifying keys only: {record.key_id}")
            if self._records.setdefault(record.key_id, record) != record:
                raise WrongKeyRole(f"key_id already registered: {record.key_id}")

    def get(self, key_id: str) -> KeyRecord:
        try:
            return self._records[key_id]
        except KeyError:
            raise UnknownKeyId(key_id) from None


def sign(assertion: SamlAssertion, key: KeyRecord) -> SamlAssertion:
    """Return the assertion with a fresh signature over its canonical bytes."""
    if key.role is not KeyRole.SIGNING_PRIVATE:
        raise WrongKeyRole(f"cannot sign with {key.role.value} key {key.key_id}")
    value = key.loaded.sign(canonical_bytes(assertion))
    return assertion.copy_with(signature=Signature(key.key_id, ED25519, value))


def verify(assertion: SamlAssertion, trusted: KeyStore) -> EntityId:
    """Check the signature against the named registered key; return its owner."""
    if assertion.signature is None:
        raise MissingSignature(f"assertion {assertion.id} is unsigned")
    sig = assertion.signature
    record = trusted.get(sig.key_id)
    if sig.algorithm_id != ED25519:
        raise SignatureInvalid(f"unsupported algorithm {sig.algorithm_id!r}")
    try:
        record.loaded.verify(sig.value, canonical_bytes(assertion))
    except InvalidSignature:
        raise SignatureInvalid(
            f"assertion {assertion.id} fails verification under key {sig.key_id}"
        ) from None
    return record.owner

