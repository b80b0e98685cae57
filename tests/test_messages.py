"""Protocol document model: serialization, parsing, canonical bytes.

Covers the round-trip identity for every document kind, the byte-exact
namespace constants, error classification (MalformedXml / WrongNamespace /
InvariantViolation), and the determinism guarantees of canonical_bytes.
"""

from __future__ import annotations

from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbridge.errors import InvariantViolation, MalformedXml, WrongNamespace
from fedbridge.messages import (
    STATUS_URI_PREFIX,
    EntityId,
    SamlAuthnRequest,
    SamlResponse,
    SamlStatus,
    Signature,
    WstRequestSecurityToken,
    canonical_bytes,
    format_instant,
    parse,
    parse_instant,
    serialize,
)

import support
from support import (
    any_documents,
    make_assertion,
    make_authn_request,
    make_response,
    make_rst,
    make_rstr,
)


class TestNamespaces:
    def test_authn_request_namespace_is_saml2_protocol(self):
        xml = serialize(make_authn_request())
        assert 'xmlns:samlp="urn:oasis:names:tc:SAML:2.0:protocol"' in xml
        assert xml.startswith("<samlp:AuthnRequest ")

    def test_assertion_namespace_is_saml2_assertion(self):
        xml = serialize(make_assertion())
        assert 'xmlns:saml="urn:oasis:names:tc:SAML:2.0:assertion"' in xml
        assert xml.startswith("<saml:Assertion ")

    def test_rst_namespace_is_ws_trust_200512(self):
        xml = serialize(make_rst())
        assert 'xmlns:wst="http://docs.oasis-open.org/ws-sx/ws-trust/200512"' in xml
        assert xml.startswith("<wst:RequestSecurityToken ")

    def test_rstr_root_element(self):
        xml = serialize(make_rstr())
        assert xml.startswith("<wst:RequestSecurityTokenResponse ")

    def test_wire_element_names(self):
        req_xml = serialize(make_authn_request())
        for element in ("samlp:NameIDPolicy", "samlp:RequestedAuthnContext"):
            assert f"<{element}" in req_xml
        rst_xml = serialize(
            make_rst(
                claims_dialect="http://schemas.xmlsoap.org/ws/2006/12/authorization/authclaims",
                claim_types=(support.EMAIL_FORMAT,),
            )
        )
        for element in ("wst:RequestType", "wst:TokenType", "wst:Claims", "auth:ClaimType"):
            assert f"<{element}" in rst_xml


class TestSerialize:
    def test_empty_attributes_omit_attribute_statement(self):
        xml = serialize(make_assertion(attributes=()))
        assert "AttributeStatement" not in xml

    def test_non_success_response_has_no_assertion_element(self):
        xml = serialize(make_response(status=SamlStatus.REQUESTER, assertion=None))
        assert "saml:Assertion" not in xml
        assert "urn:oasis:names:tc:SAML:2.0:status:Requester" in xml

    def test_serialization_is_deterministic(self):
        doc = make_assertion()
        assert serialize(doc) == serialize(doc)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            serialize("<xml/>")  # type: ignore[arg-type]


# A document, one edit of its serialized text, and the message that one
# parser check alone gives for the edited text.
_SIGNED = make_assertion(signature=Signature("idp-signing", "ed25519", b"\x01" * 64))
# As long as the prefix: without the prefix check, cutting the prefix's
# length off this value would leave a valid code.
_UPPER_PREFIX = STATUS_URI_PREFIX.upper()
REFUSALS = {
    "authn-request-without-ID": (make_authn_request(id="_r"), ' ID="_r"', "",
                                 "samlp:AuthnRequest missing ID"),
    "assertion-without-ID": (make_assertion(id="_a"), ' ID="_a"', "",
                             "saml:Assertion missing ID"),
    "response-without-ID": (make_response(id="_p"), ' ID="_p"', "",
                            "samlp:Response missing ID"),
    "assertion-with-empty-ID": (make_assertion(id="_a"), ' ID="_a"', ' ID=""',
                                "SamlAssertion.id must be non-empty"),
    "response-with-empty-ID": (make_response(id="_p"), ' ID="_p"', ' ID=""',
                               "SamlResponse.id must be non-empty"),
    "status-without-its-prefix": (make_response(), STATUS_URI_PREFIX, _UPPER_PREFIX,
                                  f"samlp:StatusCode has unknown value "
                                  f"{_UPPER_PREFIX + 'Success'!r}"),
    "status-with-an-unknown-code": (make_response(), ":status:Success", ":status:Unknown",
                                    f"samlp:StatusCode has unknown value "
                                    f"{STATUS_URI_PREFIX + 'Unknown'!r}"),
    "claims-without-Dialect": (make_rst(claims_dialect="urn:x-test:d"), ' Dialect="urn:x-test:d"',
                               "", "wst:Claims missing Dialect"),
    "freshness-other-than-0": (make_rst(force_authn=True), ">0</fed:Freshness>",
                               ">1</fed:Freshness>", "fed:Freshness carries an unsupported value"),
    "token-without-an-assertion": (make_rstr(), "saml:Assertion", "saml:Token",
                                   "wst:RequestedSecurityToken carries no saml:Assertion"),
    "signature-value-not-base64": (_SIGNED, ' Value="AQEB', ' Value="!QEB',
                                   "sig:Signature Value is not base64"),
    "attribute-without-Name": (make_assertion(), ' Name="urn:example:attr:mail"', "",
                               "saml:Attribute missing Name"),
}


class TestParse:
    @pytest.mark.parametrize(
        "doc",
        [
            make_authn_request(),
            make_authn_request(name_id_policy_format=None, requested_authn_context=()),
            make_assertion(),
            make_assertion(attributes=(), subject_name="x & y < z"),
            make_response(),
            make_response(status=SamlStatus.RESPONDER, assertion=None),
            make_rst(),
            make_rst(
                claims_dialect="urn:x-test:dialect",
                claim_types=("urn:a", "urn:b"),
                authentication_type="urn:x-test:authn",
                force_authn=True,
            ),
            make_rstr(),
            make_rstr(token=None, lifetime=None),
        ],
        ids=lambda d: type(d).__name__,
    )
    def test_round_trip_identity(self, doc):
        assert parse(serialize(doc), type(doc)) == doc

    def test_wrong_namespace_on_saml1_document(self):
        # Derived fixture: rewrite a valid document's namespace to SAML 1.0.
        xml = serialize(make_authn_request()).replace(
            "urn:oasis:names:tc:SAML:2.0:protocol",
            "urn:oasis:names:tc:SAML:1.0:protocol",
        )
        with pytest.raises(WrongNamespace) as err:
            parse(xml, SamlAuthnRequest)
        assert "AuthnRequest" in str(err.value)

    def test_truncated_xml_is_malformed(self):
        xml = serialize(make_authn_request())
        with pytest.raises(MalformedXml):
            parse(xml[: len(xml) // 2], SamlAuthnRequest)

    def test_cross_dialect_namespace_mismatch(self):
        with pytest.raises(WrongNamespace):
            parse(serialize(make_rst()), SamlAuthnRequest)

    def test_lone_surrogate_is_malformed(self):
        xml = serialize(make_authn_request()).replace("</saml:Issuer>", "\ud800</saml:Issuer>")
        with pytest.raises(MalformedXml, match="not encodable"):
            parse(xml, SamlAuthnRequest)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TypeError, match="not a protocol document kind"):
            parse(serialize(make_authn_request()), str)

    def test_same_namespace_wrong_element(self):
        with pytest.raises(MalformedXml) as err:
            parse(serialize(make_response()), SamlAuthnRequest)
        assert "Response" in str(err.value)

    def test_missing_required_child_names_element(self):
        xml = serialize(make_rst())
        xml = xml.replace(
            "<wst:RequestType>http://docs.oasis-open.org/ws-sx/ws-trust/200512/Issue</wst:RequestType>",
            "",
        )
        with pytest.raises(InvariantViolation) as err:
            parse(xml, WstRequestSecurityToken)
        assert "RequestType" in str(err.value)

    @pytest.mark.parametrize("case", list(REFUSALS))
    def test_each_check_refuses_with_its_own_message(self, case):
        document, old, new, message = REFUSALS[case]
        xml = serialize(document)
        assert old in xml
        with pytest.raises(InvariantViolation) as err:
            parse(xml.replace(old, new), type(document))
        assert str(err.value) == f"InvariantViolation: {message}"

    def test_parse_ignores_attribute_order(self):
        doc = make_authn_request()
        xml = serialize(doc)
        # Shuffle root attribute order by hand: move ID after IssueInstant.
        reordered = xml.replace(
            f'ID="{doc.id}" Version="2.0" IssueInstant="2026-08-10T12:00:00Z"',
            f'Version="2.0" IssueInstant="2026-08-10T12:00:00Z" ID="{doc.id}"',
        )
        assert reordered != xml
        assert parse(reordered, SamlAuthnRequest) == doc

    @settings(max_examples=150)
    @given(any_documents())
    def test_round_trip_property(self, doc):
        assert parse(serialize(doc), type(doc)) == doc


def strptime_reading(text: str):
    """What the general parser makes of ``text``: the instant or the error."""
    try:
        return datetime.strptime(text.strip(), "%Y-%m-%dT%H:%M:%SZ").replace(
            tzinfo=timezone.utc
        )
    except ValueError:
        return InvariantViolation


def parse_instant_reading(text: str):
    try:
        return parse_instant(text, "test")
    except InvariantViolation:
        return InvariantViolation


def assert_same_reading(text: str) -> None:
    expected = strptime_reading(text)
    got = parse_instant_reading(text)
    assert got == expected, text
    if expected is not InvariantViolation:
        assert got.tzinfo is timezone.utc


_INSTANT_CHARS = "0123456789-T:Zzt \n\u0663\uff11\u00b2+."


class TestParseInstant:
    """The fixed-width fast path reads every text as ``strptime`` does."""

    @pytest.mark.parametrize(
        "text",
        [
            "2026-08-10T12:00:00Z",
            "1970-01-01T00:00:00Z",
            "9999-12-31T23:59:59Z",
            "2024-02-29T00:00:00Z",
            "2000-02-29T00:00:00Z",
            "2023-02-29T00:00:00Z",
            "1900-02-29T00:00:00Z",
            "2026-04-31T00:00:00Z",
            "2026-13-01T00:00:00Z",
            "2026-00-01T00:00:00Z",
            "2026-01-00T00:00:00Z",
            "2026-01-01T24:00:00Z",
            "2026-01-01T00:60:00Z",
            "2026-01-01T00:00:60Z",
            "2026-01-01T00:00:61Z",
            "0000-01-01T00:00:00Z",
            "2026-1-5T7:8:9Z",
            "2026-01-05T7:08:09Z",
            " 2026-01-01T00:00:00Z",
            "2026-01-01T00:00:00Z\n",
            "\t2026-01-01T00:00:00Z ",
            "\u0662\u0660\u0662\u0666-01-01T00:00:00Z",
            "2026-01-01T00:00:0\u0669Z",
            "\uff12\uff10\uff12\uff16-01-01T00:00:00Z",
            "2026-01-01T00:00:00z",
            "2026-01-01t00:00:00Z",
            "2026-01-01T00:00:00Zjunk",
            "2026-01-01T00:00:00Z0",
            "2026-01-01T00:00:00+00:00",
            "2026-01-01T00:00:00.5Z",
            "+026-01-01T00:00:00Z",
            "",
        ],
    )
    def test_table(self, text):
        assert_same_reading(text)

    @given(st.datetimes(timezones=st.just(timezone.utc)))
    def test_valid_fixed_width_instants(self, instant):
        text = "%04d-%02d-%02dT%02d:%02d:%02dZ" % instant.timetuple()[:6]
        assert parse_instant(text, "test") == instant.replace(microsecond=0)
        assert_same_reading(text)

    @given(
        st.tuples(
            st.integers(0, 9999), *[st.integers(0, 99) for _ in range(5)]
        )
    )
    def test_fixed_width_fields_of_any_value(self, fields):
        assert_same_reading("%04d-%02d-%02dT%02d:%02d:%02dZ" % fields)

    @settings(max_examples=300)
    @given(st.text(alphabet=_INSTANT_CHARS, max_size=24))
    def test_any_text(self, text):
        assert_same_reading(text)

    @given(st.datetimes(timezones=st.just(timezone.utc)).map(lambda d: d.replace(microsecond=0)))
    def test_format_then_parse_round_trips(self, instant):
        assert parse_instant(format_instant(instant), "test") == instant

    def test_format_pads_years_below_1000(self):
        instant = datetime(999, 1, 1, tzinfo=timezone.utc)
        assert format_instant(instant) == "0999-01-01T00:00:00Z"


class TestCanonicalBytes:
    def test_signature_field_excluded(self):
        plain = make_assertion()
        signed = replace(plain, signature=Signature("k", "ed25519", b"\x01\x02"))
        assert canonical_bytes(plain) == canonical_bytes(signed)

    def test_nested_signature_excluded(self):
        plain = make_assertion()
        signed = replace(plain, signature=Signature("k", "ed25519", b"\x01"))
        assert canonical_bytes(make_rstr(token=plain)) == canonical_bytes(
            make_rstr(token=signed)
        )

    def test_independent_of_source_attribute_order(self):
        doc = make_authn_request()
        xml = serialize(doc)
        reordered = xml.replace(
            f'ID="{doc.id}" Version="2.0"', f'Version="2.0" ID="{doc.id}"'
        )
        assert canonical_bytes(parse(reordered, SamlAuthnRequest)) == canonical_bytes(doc)

    def test_injective_on_generated_corpus(self):
        # Brute-force corpus: documents differing only in subject_name must
        # all canonicalize to distinct byte strings.
        corpus = [make_assertion(id="_fixed", subject_name=f"subject-{i}") for i in range(200)]
        blobs = {canonical_bytes(a) for a in corpus}
        assert len(blobs) == len(corpus)

    def test_differs_when_subject_differs(self):
        a = make_assertion(id="_same")
        b = make_assertion(id="_same", subject_name="someone-else")
        assert canonical_bytes(a) != canonical_bytes(b)


class TestInvariants:
    def test_entity_id_requires_absolute_uri(self):
        with pytest.raises(InvariantViolation):
            EntityId("not a uri")
        with pytest.raises(InvariantViolation):
            EntityId("")
        assert EntityId("urn:ok").value == "urn:ok"

    def test_validity_window_must_be_ordered(self):
        now = datetime(2026, 1, 1, tzinfo=timezone.utc)
        with pytest.raises(InvariantViolation):
            make_assertion(not_before=now, not_on_or_after=now)

    def test_success_requires_assertion(self):
        with pytest.raises(InvariantViolation):
            SamlResponse(
                id="_r1",
                in_response_to="",
                issuer=EntityId("urn:idp"),
                status=SamlStatus.SUCCESS,
                assertion=None,
            )

    def test_failure_forbids_assertion(self):
        with pytest.raises(InvariantViolation):
            make_response(status=SamlStatus.REQUESTER, assertion=make_assertion())

    def test_claim_types_require_dialect(self):
        with pytest.raises(InvariantViolation):
            make_rst(claims_dialect=None, claim_types=("urn:x",))

    def test_naive_datetime_rejected(self):
        with pytest.raises(InvariantViolation):
            make_assertion(authn_instant=datetime(2026, 1, 1))

    def test_timestamps_normalized_to_utc_seconds(self):
        instant = datetime(2026, 1, 1, 12, 0, 0, 654_321, tzinfo=timezone.utc)
        req = make_authn_request(issue_instant=instant)
        assert req.issue_instant.microsecond == 0

    def test_offset_instants_normalized_to_utc(self):
        instant = datetime(2026, 1, 1, 14, 0, 0, tzinfo=timezone(timedelta(hours=2)))
        req = make_authn_request(issue_instant=instant)
        assert req.issue_instant.tzinfo is timezone.utc
        assert req.issue_instant.hour == 12

    def test_unrepresentable_characters_rejected(self):
        with pytest.raises(InvariantViolation):
            make_assertion(subject_name="bad\x00byte")

    def test_empty_id_rejected(self):
        with pytest.raises(InvariantViolation):
            make_authn_request(id="")


class TestAssertionCopy:
    """``copy_with`` checks only what it changes, and gives what
    ``dataclasses.replace`` gives."""

    @settings(max_examples=50)
    @given(support.assertions(), support.assertions())
    def test_same_as_replace(self, assertion, other):
        changes = dict(subject_name=other.subject_name,
                       subject_name_format=other.subject_name_format,
                       attributes=list(other.attributes),
                       signature=Signature("k1", "ed25519", b"\x01" * 64))
        copy = assertion.copy_with(**changes)
        assert copy == replace(assertion, **changes)
        assert isinstance(copy.attributes, tuple)

    @pytest.mark.parametrize("changes", [
        {"subject_name": "bad\x00byte"},
        {"subject_name_format": "bad\x01format"},
        {"attributes": (("name", "bad\x02value"),)},
        {"attributes": (("bad\x03name", "value"),)},
    ], ids=["subject_name", "subject_name_format", "attribute_value", "attribute_name"])
    def test_changed_text_checked(self, changes):
        with pytest.raises(InvariantViolation):
            make_assertion().copy_with(**changes)

    @pytest.mark.parametrize("field", ["id", "issuer", "not_before", "not_on_or_after"])
    def test_identity_and_window_cannot_change(self, field):
        assertion = make_assertion()
        with pytest.raises(InvariantViolation):
            assertion.copy_with(**{field: getattr(assertion, field)})
