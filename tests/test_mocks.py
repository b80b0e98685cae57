"""The mock service providers as relying parties, refusal by refusal.

Each delivery is built by hand and signed with the broker's key, without a
broker, so every check of ``accept`` and of both handlers is reached. The
mock authorities' ``authenticate`` is pinned at the end.
"""

from __future__ import annotations

from datetime import timedelta

import pytest

from fedbridge.bindings import (
    decode_saml_redirect,
    decode_wsfed_signin,
    encode_saml_response_post,
    encode_wsfed_signin_response_post,
)
from fedbridge.errors import UnknownSubject
from fedbridge.messages import EntityId, SamlAssertion, SamlStatus
from fedbridge.mocks import MockSamlIdp, MockSamlSp, MockWsfedSp, MockWsfedSts
from fedbridge.signing import KeyStore, generate_keypair, sign
from fedbridge.trust import Dialect, FederationEntity, Role
from support import (
    BROKER_ID,
    IDP_ID,
    NOW,
    SP_ID,
    make_assertion,
    make_live_assertion,
    make_response,
    make_rstr,
)

BROKER_URL = "https://broker.example.test/saml/sso"
ACS_URL = "https://sp.example.test/acs"
RETURN_URL = "https://wsfed-sp.example.test/return"
SKEW = 60.0


class SamlParty:
    """A ``MockSamlSp`` with one login outstanding."""

    mismatch = "RelayStateMismatch"

    def __init__(self, trusted: KeyStore):
        entity = FederationEntity(SP_ID, Role.SERVICE_PROVIDER, Dialect.SAML2, {"acs": ACS_URL})
        self.sp = MockSamlSp(entity, trusted, BROKER_URL, clock_skew=SKEW)
        request, self.relay = decode_saml_redirect(dict(self.sp.start_login().params))
        self.correlation = request.id

    def handle(self, fields: dict[str, str]):
        return self.sp.handle_acs(fields)

    def deliver(self, assertion: SamlAssertion | None, *, correlation: str | None = None,
                relay: str | None = None, status: SamlStatus = SamlStatus.SUCCESS):
        response = make_response(assertion, issuer=BROKER_ID, status=status,
                                 in_response_to=correlation or self.correlation)
        message = encode_saml_response_post(response, relay or self.relay, ACS_URL)
        return self.handle(dict(message.fields))


class WsfedParty:
    """A ``MockWsfedSp`` with one login outstanding; its relay token is the
    RSTR ``Context``, which must equal ``wctx``."""

    mismatch = "ContextMismatch"

    def __init__(self, trusted: KeyStore):
        entity = FederationEntity(EntityId("https://wsfed-sp.example.test"), Role.SERVICE_PROVIDER,
                                  Dialect.WSFED11B, {"return": RETURN_URL})
        self.sp = MockWsfedSp(entity, trusted, BROKER_URL, clock_skew=SKEW)
        _, self.correlation = decode_wsfed_signin(dict(self.sp.start_login().params))
        self.relay = self.correlation

    def handle(self, fields: dict[str, str]):
        return self.sp.handle_return(fields)

    def deliver(self, assertion: SamlAssertion | None, *, correlation: str | None = None,
                relay: str | None = None):
        wctx = correlation or self.correlation
        rstr = make_rstr(assertion, context=relay or wctx)
        return self.handle(dict(encode_wsfed_signin_response_post(rstr, wctx, RETURN_URL).fields))


@pytest.fixture(params=[SamlParty, WsfedParty], ids=["saml", "wsfed"])
def party(request, broker_keys):
    return request.param(KeyStore([broker_keys[1]]))


@pytest.fixture
def saml(broker_keys):
    return SamlParty(KeyStore([broker_keys[1]]))


@pytest.fixture
def wsfed(broker_keys):
    return WsfedParty(KeyStore([broker_keys[1]]))


@pytest.fixture
def signed(broker_keys):
    def build(live: bool = True, **overrides) -> SamlAssertion:
        make = make_live_assertion if live else make_assertion
        return sign(make(issuer=BROKER_ID, **overrides), broker_keys[0])

    return build


def outcome(page) -> tuple[int, str, str]:
    headers = dict(page.headers)
    return page.status, headers["X-Outcome"], headers["X-Correlation"]


def refused(party, page, code: str, correlation: str | None = None) -> None:
    correlation = party.correlation if correlation is None else correlation
    assert outcome(page) == (403, f"failed:{code}", correlation)
    assert party.sp.failures == [code]
    assert party.sp.contexts == []


class TestAccepted:
    def test_signed_live_assertion_establishes_a_context(self, party, signed):
        assertion = signed()
        page = party.deliver(assertion)
        assert outcome(page) == (200, "established", party.correlation)
        (context,) = party.sp.contexts
        assert (context.subject, context.subject_format) == ("alice", assertion.subject_name_format)
        assert context.attributes == assertion.attributes
        assert context.assertion == assertion
        assert context.correlation == party.correlation
        assert party.sp.failures == []

    def test_each_request_is_consumed_once(self, party, signed):
        party.deliver(signed())
        page = party.deliver(signed())
        assert outcome(page) == (403, "failed:UnknownRequest", party.correlation)
        assert len(party.sp.contexts) == 1


class TestRefused:
    def test_undecodable_delivery_spends_no_request(self, party, signed):
        if isinstance(party, SamlParty):
            fields = {"SAMLResponse": "not base64!", "RelayState": party.relay}
            expected = (403, "failed:ProtocolError", "")
        else:
            fields = {"wa": "wsignin1.0", "wresult": "<not xml", "wctx": party.correlation}
            expected = (403, "failed:MalformedXml", party.correlation)
        assert outcome(party.handle(fields)) == expected
        assert outcome(party.deliver(signed()))[:2] == (200, "established")

    def test_unknown_request(self, party, signed):
        page = party.deliver(signed(), correlation="unknown-request")
        refused(party, page, "UnknownRequest", "unknown-request")

    def test_relay_token_mismatch_spends_the_request(self, party, signed):
        refused(party, party.deliver(signed(), relay="another-token"), party.mismatch)
        assert outcome(party.deliver(signed()))[1] == "failed:UnknownRequest"

    def test_signature_under_another_key(self, party):
        forger, _ = generate_keypair("broker-signing", BROKER_ID)
        page = party.deliver(sign(make_live_assertion(issuer=BROKER_ID), forger))
        refused(party, page, "SignatureInvalid")

    def test_unsigned_assertion(self, party):
        refused(party, party.deliver(make_live_assertion(issuer=BROKER_ID)), "MissingSignature")

    def test_no_subject(self, party, signed):
        refused(party, party.deliver(signed(subject_name="")), "NoSubject")

    # make_assertion's window is [NOW - 1 min, NOW + 5 min).
    @pytest.mark.parametrize("now, accepted", [
        (NOW - timedelta(minutes=1, seconds=SKEW, milliseconds=1), False),
        (NOW - timedelta(minutes=1, seconds=SKEW), True),
        (NOW + timedelta(minutes=5, seconds=SKEW, milliseconds=-1), True),
        (NOW + timedelta(minutes=5, seconds=SKEW), False),
    ], ids=["before-lower-edge", "at-lower-edge", "before-upper-edge", "at-upper-edge"])
    def test_validity_window_edges(self, party, signed, monkeypatch, now, accepted):
        assertion = signed(live=False)
        monkeypatch.setattr("fedbridge.mocks.time.time", lambda: now.timestamp())
        page = party.deliver(assertion)
        if accepted:
            assert outcome(page) == (200, "established", party.correlation)
        else:
            refused(party, page, "LifetimeInvalid")


class TestSamlOnly:
    @pytest.mark.parametrize("status", [SamlStatus.REQUESTER, SamlStatus.RESPONDER])
    def test_non_success_status(self, saml, status):
        refused(saml, saml.deliver(None, status=status), f"Status:{status.value}")


class TestWsfedOnly:
    def test_missing_token(self, wsfed):
        refused(wsfed, wsfed.deliver(None), "TokenMissing")

    def test_tokenless_response_for_an_unknown_context(self, wsfed):
        page = wsfed.deliver(None, correlation="unknown-context")
        refused(wsfed, page, "UnknownRequest", "unknown-context")


class TestAuthenticate:
    USERS = {"alice": {"mail": "alice@example.test"}}

    @pytest.fixture(params=[MockSamlIdp, MockWsfedSts], ids=["saml", "wsfed"])
    def authority(self, request, idp_keys):
        entity = FederationEntity(IDP_ID, Role.IDENTITY_PROVIDER, Dialect.SAML2)
        return request.param(entity, idp_keys[0], self.USERS, has_session=False)

    def test_prompts_without_a_session_then_reuses_it(self, authority):
        assert authority.authenticate(False) == "alice"
        assert authority.authenticate(False) == "alice"
        assert authority.auth_events == ["alice"]

    def test_force_prompts_despite_the_session(self, authority):
        authority.authenticate(False)
        authority.authenticate(True)
        assert authority.auth_events == ["alice", "alice"]

    def test_unknown_active_subject(self, authority):
        authority.active_subject = "mallory"
        with pytest.raises(UnknownSubject, match="mallory"):
            authority.authenticate(False)
        assert authority.auth_events == []
