"""Request and response conversion between the two dialects.

The two wire constants every issue request must carry, the subject-name
claim mapping and its inverse, the context-class table with its
pass-through and error paths, the issuer check the broker runs before it
translates a response, and the rename / re-sign pipeline for responses in
both directions.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbridge.errors import (
    UnmappedAuthnContext,
    UnsupportedRequestType,
    UnsupportedTokenType,
    UntrustedIssuer,
)
from fedbridge.messages import SamlStatus, canonical_bytes, serialize
from fedbridge.signing import KeyStore, generate_keypair, sign
from fedbridge.translate import (
    AUTHCLAIMS_DIALECT,
    AttributeNameMapping,
    AuthnContextMapping,
    MappingDirection,
    authn_request_to_rst,
    claims_to_name_id_policy,
    map_authn_context,
    name_id_policy_to_claims,
    rst_to_authn_request,
    rstr_to_saml_response,
    saml_response_to_rstr,
    verify_issuer,
)

from support import (
    BROKER_ID,
    EMAIL_FORMAT,
    IDP_ID,
    PASSWORD_CLASS,
    authn_requests,
    make_assertion,
    make_authn_request,
    make_response,
    make_rst,
    make_rstr,
)

CTX_ENTRIES = (
    (PASSWORD_CLASS, "http://schemas.xmlsoap.org/ws/2005/05/identity/authenticationmethods/password"),
    ("urn:oasis:names:tc:SAML:2.0:ac:classes:X509", "urn:x-test:authn:x509"),
)
CTX_MAP = AuthnContextMapping(entries=CTX_ENTRIES)
CTX_MAP_PASSTHROUGH = AuthnContextMapping(entries=CTX_ENTRIES, pass_through=True)


@pytest.fixture
def idp_pair():
    return generate_keypair("idp-signing", IDP_ID)


@pytest.fixture
def broker_pair():
    return generate_keypair("broker-signing", BROKER_ID)


class TestRequestConstants:
    def test_request_type_is_issue_uri(self):
        rst = authn_request_to_rst(make_authn_request(), CTX_MAP, "ctx")
        assert rst.request_type == "http://docs.oasis-open.org/ws-sx/ws-trust/200512/Issue"

    def test_token_type_is_saml2_assertion(self):
        rst = authn_request_to_rst(make_authn_request(), CTX_MAP, "ctx")
        assert rst.token_type == "urn:oasis:names:tc:SAML:2.0:assertion"

    def test_constants_appear_verbatim_on_the_wire(self):
        xml = serialize(authn_request_to_rst(make_authn_request(), CTX_MAP, "ctx"))
        assert (
            "<wst:RequestType>http://docs.oasis-open.org/ws-sx/ws-trust/200512/Issue"
            "</wst:RequestType>" in xml
        )
        assert "<wst:TokenType>urn:oasis:names:tc:SAML:2.0:assertion</wst:TokenType>" in xml


class TestNameIdClaims:
    def test_email_format_maps_to_authclaims_dialect(self):
        dialect, claim_types = name_id_policy_to_claims(EMAIL_FORMAT)
        assert dialect == "http://schemas.xmlsoap.org/ws/2006/12/authorization/authclaims"
        assert claim_types == (EMAIL_FORMAT,)

    @pytest.mark.parametrize(
        "format_uri",
        [
            EMAIL_FORMAT,
            "urn:oasis:names:tc:SAML:2.0:nameid-format:persistent",
            "urn:oasis:names:tc:SAML:2.0:nameid-format:transient",
        ],
    )
    def test_claim_type_carries_the_format_itself(self, format_uri):
        _, claim_types = name_id_policy_to_claims(format_uri)
        assert claim_types == (format_uri,)

    @pytest.mark.parametrize(
        "format_uri",
        [EMAIL_FORMAT, "urn:oasis:names:tc:SAML:2.0:nameid-format:persistent"],
    )
    def test_round_trip(self, format_uri):
        assert claims_to_name_id_policy(*name_id_policy_to_claims(format_uri)) == format_uri

    def test_inverse_requires_authclaims_dialect(self):
        assert claims_to_name_id_policy("urn:x-test:other", (EMAIL_FORMAT,)) is None

    def test_inverse_with_no_claims(self):
        assert claims_to_name_id_policy(AUTHCLAIMS_DIALECT, ()) is None

    def test_inverse_ignores_non_nameid_claims(self):
        assert claims_to_name_id_policy(AUTHCLAIMS_DIALECT, ("urn:x-test:role",)) is None


class TestAuthnContextMapping:
    def test_configured_entry_lookup(self):
        assert (
            map_authn_context((PASSWORD_CLASS,), CTX_MAP, MappingDirection.SAML_TO_WST)
            == CTX_ENTRIES[0][1]
        )

    def test_empty_request_maps_to_absent(self):
        assert map_authn_context((), CTX_MAP, MappingDirection.SAML_TO_WST) is None
        assert map_authn_context((), CTX_MAP, MappingDirection.WST_TO_SAML) == ()

    def test_unmapped_raises_without_pass_through(self):
        with pytest.raises(UnmappedAuthnContext):
            map_authn_context(("urn:x-test:ctxB",), CTX_MAP, MappingDirection.SAML_TO_WST)

    def test_pass_through_forwards_verbatim(self):
        assert (
            map_authn_context(("urn:x-test:ctxB",), CTX_MAP_PASSTHROUGH, MappingDirection.SAML_TO_WST)
            == "urn:x-test:ctxB"
        )

    def test_first_mappable_class_wins(self):
        classes = ("urn:x-test:unmapped", "urn:oasis:names:tc:SAML:2.0:ac:classes:X509")
        assert (
            map_authn_context(classes, CTX_MAP, MappingDirection.SAML_TO_WST)
            == "urn:x-test:authn:x509"
        )

    def test_inverse_recovers_class_list(self):
        assert map_authn_context(
            (CTX_ENTRIES[0][1],), CTX_MAP, MappingDirection.WST_TO_SAML
        ) == (PASSWORD_CLASS,)

    def test_duplicate_entries_rejected(self):
        with pytest.raises(Exception):
            AuthnContextMapping(entries=((PASSWORD_CLASS, "urn:a"), (PASSWORD_CLASS, "urn:b")))


class TestAuthnRequestToRst:
    def test_bare_request_yields_bare_rst(self):
        req = make_authn_request(name_id_policy_format=None, requested_authn_context=())
        rst = authn_request_to_rst(req, CTX_MAP, "ctx-77")
        assert rst.claim_types == ()
        assert rst.claims_dialect is None
        assert rst.authentication_type is None
        assert rst.context == "ctx-77"
        assert rst.reply_to == req.acs_url

    def test_name_id_policy_becomes_claim(self):
        rst = authn_request_to_rst(make_authn_request(), CTX_MAP, "ctx")
        assert rst.claims_dialect == AUTHCLAIMS_DIALECT
        assert rst.claim_types == (EMAIL_FORMAT,)

    def test_force_authn_carried(self):
        rst = authn_request_to_rst(make_authn_request(force_authn=True), CTX_MAP, "ctx")
        assert rst.force_authn is True

    def test_unmapped_context_error(self):
        req = make_authn_request(requested_authn_context=("urn:x-test:exotic",))
        with pytest.raises(UnmappedAuthnContext):
            authn_request_to_rst(req, CTX_MAP, "ctx")


class TestRstToAuthnRequest:
    def test_renew_rejected(self):
        rst = make_rst(request_type="http://docs.oasis-open.org/ws-sx/ws-trust/200512/Renew")
        with pytest.raises(UnsupportedRequestType):
            rst_to_authn_request(rst, CTX_MAP, BROKER_ID)

    def test_foreign_token_type_rejected(self):
        rst = make_rst(token_type="urn:x-test:kerberos-ticket")
        with pytest.raises(UnsupportedTokenType):
            rst_to_authn_request(rst, CTX_MAP, BROKER_ID)

    def test_empty_claims_yield_absent_name_id_policy(self):
        req = rst_to_authn_request(make_rst(), CTX_MAP, BROKER_ID)
        assert req.name_id_policy_format is None
        assert req.issuer == BROKER_ID

    def test_fresh_request_id_generated(self):
        first = rst_to_authn_request(make_rst(), CTX_MAP, BROKER_ID)
        second = rst_to_authn_request(make_rst(), CTX_MAP, BROKER_ID)
        assert first.id != second.id

    @settings(max_examples=150)
    @given(
        authn_requests(
            context_classes=st.sampled_from([(), (CTX_ENTRIES[0][0],), (CTX_ENTRIES[1][0],)])
        )
    )
    def test_round_trip_preserves_request_semantics(self, req):
        rst = authn_request_to_rst(req, CTX_MAP, context="ctx")
        back = rst_to_authn_request(rst, CTX_MAP, BROKER_ID)
        assert back.name_id_policy_format == req.name_id_policy_format
        assert back.requested_authn_context == req.requested_authn_context
        assert back.force_authn == req.force_authn
        assert back.acs_url == req.acs_url


class TestResponseConversion:
    def _signed_rstr(self, idp_pair, **assertion_overrides):
        private, _ = idp_pair
        assertion = sign(make_assertion(**assertion_overrides), private)
        return make_rstr(token=assertion), assertion

    def test_rstr_to_saml_response_resigns_without_touching_content(
        self, idp_pair, broker_pair
    ):
        broker_private, _ = broker_pair
        rstr, original = self._signed_rstr(idp_pair)

        response = rstr_to_saml_response(rstr, broker_private, "_req9", AttributeNameMapping())

        assert response.status is SamlStatus.SUCCESS
        assert response.in_response_to == "_req9"
        assert response.issuer == BROKER_ID
        assert response.assertion.signature.key_id == "broker-signing"
        assert canonical_bytes(response.assertion) == canonical_bytes(original)

    def test_tampered_token_rejected(self, idp_pair):
        _, idp_public = idp_pair
        _, original = self._signed_rstr(idp_pair)
        tampered = replace(original, subject_name="mallory")
        from fedbridge.errors import SignatureInvalid

        with pytest.raises(SignatureInvalid):
            verify_issuer(tampered, KeyStore([idp_public]))

    def test_unknown_signer_is_untrusted(self, idp_pair, broker_pair):
        _, broker_public = broker_pair
        _, original = self._signed_rstr(idp_pair)
        with pytest.raises(UntrustedIssuer):
            verify_issuer(original, KeyStore([broker_public]))

    def test_issuer_key_owner_mismatch_is_untrusted(self, idp_pair):
        private, idp_public = idp_pair
        imposter = sign(
            make_assertion(issuer=BROKER_ID), private
        )  # signed by idp key but claiming broker as issuer
        with pytest.raises(UntrustedIssuer):
            verify_issuer(imposter, KeyStore([idp_public]))

    def test_saml_response_to_rstr(self, idp_pair, broker_pair):
        idp_private, _ = idp_pair
        broker_private, _ = broker_pair
        assertion = sign(make_assertion(), idp_private)
        response = make_response(assertion=assertion)

        rstr = saml_response_to_rstr(response, broker_private, "ctx-5", AttributeNameMapping())

        assert rstr.token_type == "urn:oasis:names:tc:SAML:2.0:assertion"
        assert rstr.context == "ctx-5"
        assert rstr.lifetime == (assertion.not_before, assertion.not_on_or_after)
        assert canonical_bytes(rstr.requested_token) == canonical_bytes(assertion)
        assert rstr.requested_token.signature.key_id == "broker-signing"


class TestAttributeNameMapping:
    ATTR_MAP = AttributeNameMapping(
        entries=(("urn:example:attr:mail", "http://schemas.example.test/claims/email"),)
    )

    def test_rename_saml_to_wsfed(self):
        renamed = self.ATTR_MAP.rename(
            (("urn:example:attr:mail", "a@b"), ("urn:untouched", "v")),
            MappingDirection.SAML_TO_WST,
        )
        assert renamed == (
            ("http://schemas.example.test/claims/email", "a@b"),
            ("urn:untouched", "v"),
        )

    def test_rename_is_involutive_through_both_directions(self):
        attrs = (("urn:example:attr:mail", "a@b"),)
        there = self.ATTR_MAP.rename(attrs, MappingDirection.SAML_TO_WST)
        back = self.ATTR_MAP.rename(there, MappingDirection.WST_TO_SAML)
        assert back == attrs

    def test_mapping_applied_during_relay(self, idp_pair, broker_pair):
        idp_private, _ = idp_pair
        broker_private, _ = broker_pair
        assertion = sign(
            make_assertion(attributes=(("http://schemas.example.test/claims/email", "a@b"),)),
            idp_private,
        )
        response = rstr_to_saml_response(
            make_rstr(token=assertion), broker_private, "_r", self.ATTR_MAP
        )
        assert response.assertion.attributes == (("urn:example:attr:mail", "a@b"),)
