"""Sign / verify over canonical bytes, plus key handling."""

from __future__ import annotations

from dataclasses import replace
from datetime import timedelta

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import x25519

from fedbridge.errors import (
    MissingSignature,
    SignatureInvalid,
    UnknownKeyId,
    WrongKeyRole,
)
from fedbridge.messages import EntityId, canonical_bytes
from fedbridge.signing import (
    KeyRole,
    KeyStore,
    generate_keypair,
    load_key_pem,
    save_key_pem,
    sign,
    verify,
)

from support import IDP_ID, BROKER_ID, make_assertion


@pytest.fixture
def idp_pair():
    return generate_keypair("idp-signing", IDP_ID)


@pytest.fixture
def broker_pair():
    return generate_keypair("broker-signing", BROKER_ID)


class TestSignVerify:
    def test_sign_then_verify_returns_owner(self, idp_pair):
        private, public = idp_pair
        signed = sign(make_assertion(), private)
        assert verify(signed, KeyStore([public])) == IDP_ID

    def test_sign_twice_preserves_content_and_verifies(self, idp_pair):
        private, public = idp_pair
        assertion = make_assertion()
        once = sign(assertion, private)
        twice = sign(once, private)
        store = KeyStore([public])
        assert verify(once, store) == IDP_ID
        assert verify(twice, store) == IDP_ID
        assert canonical_bytes(twice) == canonical_bytes(assertion)

    def test_sign_with_public_record_refused(self, idp_pair):
        _, public = idp_pair
        with pytest.raises(WrongKeyRole):
            sign(make_assertion(), public)

    def test_verify_unsigned_assertion(self, idp_pair):
        _, public = idp_pair
        with pytest.raises(MissingSignature):
            verify(make_assertion(), KeyStore([public]))

    def test_verify_with_unknown_key_id(self, idp_pair, broker_pair):
        private, _ = idp_pair
        _, other_public = broker_pair
        signed = sign(make_assertion(), private)
        with pytest.raises(UnknownKeyId):
            verify(signed, KeyStore([other_public]))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda a: replace(a, subject_name=a.subject_name + "x"),
            lambda a: replace(a, subject_name_format="urn:other"),
            lambda a: replace(a, issuer=EntityId("https://evil.example.test")),
            lambda a: replace(a, authn_context_class="urn:other:class"),
            lambda a: replace(a, not_on_or_after=a.not_on_or_after + timedelta(seconds=1)),
            lambda a: replace(a, attributes=(("urn:example:attr:mail", "eve@evil"),)),
            lambda a: replace(a, attributes=()),
            lambda a: replace(a, id="_other"),
        ],
        ids=[
            "subject_name",
            "subject_format",
            "issuer",
            "context_class",
            "not_on_or_after",
            "attribute_value",
            "attributes_dropped",
            "assertion_id",
        ],
    )
    def test_any_field_mutation_breaks_verification(self, idp_pair, mutate):
        private, public = idp_pair
        signed = sign(make_assertion(), private)
        tampered = mutate(signed)
        with pytest.raises(SignatureInvalid):
            verify(tampered, KeyStore([public]))


class TestKeyHandling:
    def test_pem_round_trip(self, tmp_path, idp_pair):
        private, public = idp_pair
        save_key_pem(private, tmp_path / "k.key.pem")
        save_key_pem(public, tmp_path / "k.pub.pem")
        assert load_key_pem(tmp_path / "k.key.pem", "idp-signing", IDP_ID, KeyRole.SIGNING_PRIVATE) == private
        assert load_key_pem(tmp_path / "k.pub.pem", "idp-signing", IDP_ID, KeyRole.VERIFYING_PUBLIC) == public

    @pytest.mark.parametrize("role, pem, message", [
        (KeyRole.SIGNING_PRIVATE, lambda k: k.private_bytes(
            serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption()), "not an ed25519 private key"),
        (KeyRole.VERIFYING_PUBLIC, lambda k: k.public_key().public_bytes(
            serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo),
         "not an ed25519 public key"),
    ], ids=["private", "public"])
    def test_pem_of_another_key_type_rejected(self, tmp_path, role, pem, message):
        path = tmp_path / "x25519.pem"
        path.write_bytes(pem(x25519.X25519PrivateKey.generate()))
        with pytest.raises(WrongKeyRole, match=message):
            load_key_pem(path, "idp-signing", IDP_ID, role)

    def test_store_rejects_private_records(self, idp_pair):
        private, _ = idp_pair
        with pytest.raises(WrongKeyRole):
            KeyStore([private])

    def test_store_rejects_conflicting_key_id(self, idp_pair, broker_pair):
        _, idp_public = idp_pair
        _, broker_public = broker_pair
        with pytest.raises(WrongKeyRole, match="already registered"):
            KeyStore([idp_public, replace(broker_public, key_id="idp-signing")])

    def test_unknown_algorithm_rejected(self, idp_pair):
        private, public = idp_pair
        signed = sign(make_assertion(), private)
        forged = replace(signed, signature=replace(signed.signature, algorithm_id="none"))
        with pytest.raises(SignatureInvalid):
            verify(forged, KeyStore([public]))
