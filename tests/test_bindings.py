"""Transport encodings: parameter names are wire constants, every
encode/decode pair is an inverse, and the SAML redirect payload follows the
deflate+base64 convention."""

from __future__ import annotations

import base64
import zlib
from urllib.parse import parse_qs, urlparse

import pytest
from hypothesis import given, settings

from fedbridge.bindings import (
    MAX_ECHOED_BYTES,
    MAX_INFLATED_BYTES,
    MAX_RELAY_STATE_BYTES,
    WREQ_MAX_BYTES,
    WSIGNIN,
    auto_post_html,
    decode_saml_redirect,
    decode_saml_response_post,
    decode_wsfed_signin,
    decode_wsfed_signin_response_post,
    encode_saml_redirect,
    encode_saml_response_post,
    encode_wsfed_signin,
    encode_wsfed_signin_response_post,
)
from fedbridge.client import extract_form
from fedbridge.errors import DtdForbidden, ProtocolError, RequestTooLarge
from fedbridge.messages import SamlStatus, canonical_bytes, parse, serialize, SamlAuthnRequest

from support import (
    authn_requests,
    make_authn_request,
    make_response,
    make_rst,
    make_rstr,
    responses,
    rsts,
    rstrs,
)

IDP_URL = "https://idp.example.test/sso"
ACS_URL = "https://sp.example.test/acs"


def location_params(message) -> dict[str, str]:
    query = urlparse(message.location).query
    return {k: v[0] for k, v in parse_qs(query, keep_blank_values=True).items()}


class TestParameterNames:
    def test_saml_redirect_parameter_names(self):
        message = encode_saml_redirect(make_authn_request(), "state-1", IDP_URL)
        assert [name for name, _ in message.params] == ["SAMLRequest", "RelayState"]

    def test_wsfed_signin_parameter_names_and_wa_value(self):
        message = encode_wsfed_signin(make_rst(), "ctx-1", IDP_URL)
        params = dict(message.params)
        assert list(dict(message.params)) == ["wa", "wreq", "wctx"]
        assert params["wa"] == "wsignin1.0"

    def test_saml_response_field_names(self):
        message = encode_saml_response_post(make_response(), "state-1", ACS_URL)
        assert [name for name, _ in message.fields] == ["SAMLResponse", "RelayState"]

    def test_wsfed_response_field_names(self):
        message = encode_wsfed_signin_response_post(make_rstr(), "ctx-1", ACS_URL)
        names = [name for name, _ in message.fields]
        assert names == ["wa", "wresult", "wctx"]
        assert dict(message.fields)["wa"] == "wsignin1.0"

    def test_empty_relay_state_omitted(self):
        message = encode_saml_redirect(make_authn_request(), "", IDP_URL)
        assert [name for name, _ in message.params] == ["SAMLRequest"]

    def test_location_is_built_on_first_use_only(self, monkeypatch):
        message = encode_saml_redirect(make_authn_request(), "state-1", IDP_URL)
        assert "location" not in vars(message)
        calls = []
        monkeypatch.setattr("fedbridge.bindings.urlencode",
                            lambda params: calls.append(params) or "q=1")
        assert message.location == message.location == f"{IDP_URL}?q=1"
        assert len(calls) == 1


class TestSamlRedirect:
    def test_payload_is_deflated_base64(self):
        req = make_authn_request()
        message = encode_saml_redirect(req, "", IDP_URL)
        raw = dict(message.params)["SAMLRequest"]
        # Independent decode: inflate by hand, then parse.
        xml = zlib.decompress(base64.b64decode(raw), -15).decode("utf-8")
        assert parse(xml, SamlAuthnRequest) == req

    def test_round_trip_through_location_url(self):
        req = make_authn_request()
        message = encode_saml_redirect(req, "some state & more", IDP_URL)
        decoded, relay_state = decode_saml_redirect(location_params(message))
        assert decoded == req
        assert relay_state == "some state & more"

    def test_location_targets_the_idp(self):
        message = encode_saml_redirect(make_authn_request(), "", IDP_URL)
        assert message.location.startswith(IDP_URL + "?")

    def test_bad_base64_rejected(self):
        with pytest.raises(ProtocolError):
            decode_saml_redirect({"SAMLRequest": "@@not-base64@@"})

    def test_missing_parameter_rejected(self):
        with pytest.raises(ProtocolError):
            decode_saml_redirect({"RelayState": "x"})

    @staticmethod
    def _deflated(xml: bytes) -> dict[str, str]:
        payload = zlib.compress(xml, 9)[2:-4]
        return {"SAMLRequest": base64.b64encode(payload).decode("ascii")}

    def test_inflate_bomb_refused(self):
        # ~11 KB on the wire: a valid request followed by 8 MB of blanks.
        bomb = self._deflated(serialize(make_authn_request()).encode() + b" " * (8 << 20))
        assert len(bomb["SAMLRequest"]) < 12_000
        with pytest.raises(RequestTooLarge):
            decode_saml_redirect(bomb)

    def test_inflated_size_capped_at_the_limit(self):
        req = make_authn_request()
        xml = serialize(req).encode()
        padded = self._deflated(xml.ljust(MAX_INFLATED_BYTES))
        assert decode_saml_redirect(padded)[0] == req
        with pytest.raises(RequestTooLarge):
            decode_saml_redirect(self._deflated(xml.ljust(MAX_INFLATED_BYTES + 1)))

    def test_truncated_stream_rejected(self):
        payload = zlib.compress(serialize(make_authn_request()).encode())[2:-4]
        with pytest.raises(ProtocolError):
            decode_saml_redirect(
                {"SAMLRequest": base64.b64encode(payload[: len(payload) // 2]).decode("ascii")}
            )

    @settings(max_examples=100)
    @given(authn_requests())
    def test_encode_decode_inverse(self, req):
        message = encode_saml_redirect(req, "rs", IDP_URL)
        decoded, _ = decode_saml_redirect(location_params(message))
        assert decoded == req


class TestWsfedSignin:
    def test_round_trip(self):
        rst = make_rst(force_authn=True)
        message = encode_wsfed_signin(rst, "ctx-9", IDP_URL)
        decoded, wctx = decode_wsfed_signin(location_params(message))
        assert decoded == rst
        assert wctx == "ctx-9"

    def test_wrong_wa_value_rejected(self):
        message = encode_wsfed_signin(make_rst(), "ctx", IDP_URL)
        params = location_params(message)
        params["wa"] = "wsignout1.0"
        with pytest.raises(ProtocolError):
            decode_wsfed_signin(params)

    def test_oversized_wreq_rejected(self):
        big = make_rst(
            claims_dialect="urn:x-test:dialect",
            claim_types=tuple(f"urn:x-test:claim:{i:04}:{'p' * 40}" for i in range(150)),
        )
        with pytest.raises(RequestTooLarge):
            encode_wsfed_signin(big, "ctx", IDP_URL)
        assert WREQ_MAX_BYTES == 6 * 1024

    @settings(max_examples=100)
    @given(rsts())
    def test_encode_decode_inverse(self, rst):
        message = encode_wsfed_signin(rst, "c", IDP_URL)
        decoded, _ = decode_wsfed_signin(location_params(message))
        assert decoded == rst


class TestSamlResponsePost:
    def test_round_trip(self):
        resp = make_response()
        message = encode_saml_response_post(resp, "rs-1", ACS_URL)
        decoded, relay_state = decode_saml_response_post(dict(message.fields))
        assert decoded == resp
        assert relay_state == "rs-1"

    def test_error_response_still_encodes(self):
        resp = make_response(status=SamlStatus.REQUESTER, assertion=None)
        message = encode_saml_response_post(resp, "", ACS_URL)
        decoded, _ = decode_saml_response_post(dict(message.fields))
        assert decoded.status is SamlStatus.REQUESTER

    @pytest.mark.parametrize("raw", [
        "@@not-base64@@",
        base64.b64encode(b"\xff\xfe<samlp:Response/>").decode("ascii"),  # not UTF-8
    ], ids=["bad_base64", "not_utf8"])
    def test_undecodable_response_refused(self, raw):
        with pytest.raises(ProtocolError, match="SAMLResponse is not base64"):
            decode_saml_response_post({"SAMLResponse": raw})

    @settings(max_examples=100)
    @given(responses())
    def test_encode_decode_inverse(self, resp):
        message = encode_saml_response_post(resp, "rs", ACS_URL)
        decoded, _ = decode_saml_response_post(dict(message.fields))
        assert decoded == resp


class TestWsfedResponsePost:
    def test_round_trip_keeps_token_bytes(self):
        rstr = make_rstr()
        message = encode_wsfed_signin_response_post(rstr, "ctx-2", ACS_URL)
        decoded, wctx = decode_wsfed_signin_response_post(dict(message.fields))
        assert decoded == rstr
        assert wctx == "ctx-2"
        assert canonical_bytes(decoded.requested_token) == canonical_bytes(
            rstr.requested_token
        )

    def test_tokenless_wresult_accepted_when_relaying_errors(self):
        rstr = make_rstr(token=None, lifetime=None)
        message = encode_wsfed_signin_response_post(rstr, "ctx", ACS_URL)
        decoded, _ = decode_wsfed_signin_response_post(dict(message.fields))
        assert decoded.requested_token is None

    @settings(max_examples=100)
    @given(rstrs())
    def test_encode_decode_inverse(self, rstr):
        message = encode_wsfed_signin_response_post(rstr, "c", ACS_URL)
        decoded, _ = decode_wsfed_signin_response_post(dict(message.fields))
        assert decoded == rstr


# A request decoder, a cap, and its parameters with one echoed value set.
ECHOED = {
    "saml-redirect-RelayState": (decode_saml_redirect, MAX_RELAY_STATE_BYTES, lambda value: (
        location_params(encode_saml_redirect(make_authn_request(), value, IDP_URL)))),
    "saml-redirect-ID": (decode_saml_redirect, MAX_ECHOED_BYTES, lambda value: (
        location_params(encode_saml_redirect(make_authn_request(id="_" + value[1:]), "",
                                             IDP_URL)))),
    "wsfed-signin-wctx": (decode_wsfed_signin, MAX_ECHOED_BYTES, lambda value: (
        location_params(encode_wsfed_signin(make_rst(), value, IDP_URL)))),
    "wsfed-signin-Context": (decode_wsfed_signin, MAX_ECHOED_BYTES, lambda value: (
        location_params(encode_wsfed_signin(make_rst(context=value), "", IDP_URL)))),
    # Not echoed, but capped the same way: the request document, padded with
    # the blanks XML allows after its root element.
    "wsfed-signin-wreq": (decode_wsfed_signin, WREQ_MAX_BYTES, lambda value: (
        {"wa": WSIGNIN, "wreq": serialize(make_rst()).ljust(len(value))})),
}


class TestEchoedValueCaps:
    """A value the origin of a request sends to have echoed back is refused one
    byte past its cap, counted in UTF-8 bytes."""

    @pytest.mark.parametrize("case", list(ECHOED))
    def test_refused_one_byte_past_the_cap(self, case):
        decode, limit, params = ECHOED[case]
        decode(params("x" * limit))
        with pytest.raises(RequestTooLarge):
            decode(params("x" * (limit + 1)))

    def test_counted_in_bytes_not_characters(self):
        decode, limit, params = ECHOED["saml-redirect-RelayState"]
        decode(params("é" * (limit // 2)))
        with pytest.raises(RequestTooLarge):
            decode(params("é" * (limit // 2 + 1)))


# Three levels of internal entities, referenced from an attribute no reader
# looks at: a parser that honours them reads a thousand characters there.
ENTITIES = (
    '<!DOCTYPE d [<!ENTITY a "aaaaaaaaaa">'
    '<!ENTITY b "&a;&a;&a;&a;&a;&a;&a;&a;&a;&a;">'
    '<!ENTITY c "&b;&b;&b;&b;&b;&b;&b;&b;&b;&b;">]>'
)


def entity_document(document) -> str:
    tag, _, rest = serialize(document).partition(" ")
    return f'{ENTITIES}{tag} x="&c;" {rest}'


def base64_text(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


# Each decoder, called on parameters that carry an entity document.
DECODE_ENTITY_DOCUMENT = {
    "SAMLRequest": lambda: decode_saml_redirect({"SAMLRequest": base64_text(
        zlib.compress(entity_document(make_authn_request()).encode())[2:-4])}),
    "wreq": lambda: decode_wsfed_signin({"wa": WSIGNIN, "wreq": entity_document(make_rst())}),
    "SAMLResponse": lambda: decode_saml_response_post({"SAMLResponse": base64_text(
        entity_document(make_response()).encode())}),
    "wresult": lambda: decode_wsfed_signin_response_post(
        {"wa": WSIGNIN, "wresult": entity_document(make_rstr())}),
}


class TestDocumentTypeDeclaration:
    """A document type declaration is refused before the parser could expand
    its entities, whichever parameter carries it."""

    @pytest.mark.parametrize("parameter", list(DECODE_ENTITY_DOCUMENT))
    def test_entity_document_refused(self, parameter):
        with pytest.raises(DtdForbidden):
            DECODE_ENTITY_DOCUMENT[parameter]()


class TestAutoPostHtml:
    def test_form_fields_survive_html_escaping(self):
        message = encode_saml_response_post(make_response(), 'tricky "<&>" state', ACS_URL)
        html_page = auto_post_html(message)
        form = extract_form(html_page)
        assert form is not None
        action, fields = form
        assert action == ACS_URL
        assert dict(fields) == dict(message.fields)
