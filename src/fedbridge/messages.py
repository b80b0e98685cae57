"""Typed protocol documents and their XML wire form.

Covers both dialects spoken by the broker: SAML2 protocol/assertion documents
and WS-Trust issue requests/responses. Serialization is a deterministic
normal form (fixed prefixes, fixed element order, no insignificant
whitespace) so that a document's canonical byte form is well defined without
a full C14N stack: ``canonical_bytes`` is the normal-form serialization with
every signature field stripped, making signatures a pure function of the
semantic content.

``parse`` accepts any prefix/attribute ordering an XML emitter may choose;
the typed result depends only on the document's semantic fields.
"""

from __future__ import annotations

import base64
import re
import secrets
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import TypeVar, Union
from urllib.parse import urlparse
from xml.etree import ElementTree as ET

from .errors import InvariantViolation, MalformedXml, WrongNamespace

SAMLP_NS = "urn:oasis:names:tc:SAML:2.0:protocol"
SAML_NS = "urn:oasis:names:tc:SAML:2.0:assertion"
WST_NS = "http://docs.oasis-open.org/ws-sx/ws-trust/200512"
AUTH_NS = "http://schemas.xmlsoap.org/ws/2006/12/authorization"
WSA_NS = "http://www.w3.org/2005/08/addressing"
WSU_NS = (
    "http://docs.oasis-open.org/wss/2004/01/"
    "oasis-200401-wss-wssecurity-utility-1.0.xsd"
)
FED_NS = "http://schemas.xmlsoap.org/ws/2006/12/federation"
SIG_NS = "urn:x-fedbridge:detached-sig"

STATUS_URI_PREFIX = "urn:oasis:names:tc:SAML:2.0:status:"

_INSTANT_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
# _INSTANT_FORMAT with every field at its full width, in ASCII digits.
_FIXED_INSTANT = re.compile(r"(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)Z", re.ASCII)

# XML 1.0 cannot represent these code points at all, so they are invalid in
# any document field.
_FORBIDDEN_XML_CHARS = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f]")


def fresh_id() -> str:
    """Unique token string usable as a SAML ID (starts with a letter char)."""
    return "_" + secrets.token_hex(16)


def utc_now() -> datetime:
    """Current UTC time at the second precision used on the wire."""
    return datetime.now(timezone.utc).replace(microsecond=0)


def format_instant(dt: datetime) -> str:
    # strftime("%Y") does not pad years below 1000 on every platform.
    return (f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}"
            f"T{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}Z")


def parse_instant(text: str, element: str) -> datetime:
    """The instant ``text`` names, read exactly as ``strptime`` reads it.

    The fixed-width form that ``format_instant`` writes is read field by
    field, several times faster; any other text (unpadded fields,
    surrounding whitespace, non-ASCII digits, lower case) goes to
    ``strptime`` itself.
    """
    fixed = _FIXED_INSTANT.fullmatch(text)
    try:
        if fixed is not None:
            return datetime(*map(int, fixed.groups()), tzinfo=timezone.utc)
        return datetime.strptime(text.strip(), _INSTANT_FORMAT).replace(
            tzinfo=timezone.utc
        )
    except ValueError:
        raise InvariantViolation(f"{element}: bad timestamp {text!r}") from None


def _check_text(value: str, field_name: str) -> str:
    if _FORBIDDEN_XML_CHARS.search(value):
        raise InvariantViolation(f"{field_name} contains characters XML cannot carry")
    return value


def _checked_attributes(attributes) -> tuple[tuple[str, str], ...]:
    return tuple(
        (_check_text(n, "attribute name"), _check_text(v, "attribute value"))
        for n, v in attributes
    )


def _normalize_instant(value: datetime, field_name: str) -> datetime:
    if not isinstance(value, datetime) or value.tzinfo is None:
        raise InvariantViolation(f"{field_name} must be a timezone-aware datetime")
    if value.tzinfo is timezone.utc and not value.microsecond:
        return value
    return value.astimezone(timezone.utc).replace(microsecond=0)


def _escape_text(value: str) -> str:
    # \r must go out as a character reference or the parser's line-ending
    # normalization would fold it into \n.
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def _quote_attr(value: str) -> str:
    # Attribute-value normalization turns literal tab/newline into spaces,
    # so whitespace controls are emitted as character references.
    escaped = (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("\t", "&#9;")
        .replace("\n", "&#10;")
        .replace("\r", "&#13;")
    )
    return f'"{escaped}"'


def _attr(name: str, value: str) -> str:
    return f" {name}={_quote_attr(value)}"


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntityId:
    """Identity of an asserting or relying party: a non-empty absolute URI."""

    value: str

    def __post_init__(self) -> None:
        _check_text(self.value, "EntityId")
        if not self.value or not urlparse(self.value).scheme:
            raise InvariantViolation(f"EntityId must be an absolute URI: {self.value!r}")

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Signature:
    """Detached signature over the canonical bytes of the signed element."""

    key_id: str
    algorithm_id: str
    value: bytes

    def __post_init__(self) -> None:
        _check_text(self.key_id, "Signature.key_id")
        _check_text(self.algorithm_id, "Signature.algorithm_id")


class SamlStatus(Enum):
    SUCCESS = "Success"
    REQUESTER = "Requester"
    RESPONDER = "Responder"

    @property
    def uri(self) -> str:
        return STATUS_URI_PREFIX + self.value


@dataclass(frozen=True)
class SamlAuthnRequest:
    id: str
    issue_instant: datetime
    issuer: EntityId
    destination: str
    acs_url: str
    name_id_policy_format: str | None = None
    requested_authn_context: tuple[str, ...] = ()
    force_authn: bool = False

    def __post_init__(self) -> None:
        for name in ("id", "destination", "acs_url"):
            _check_text(getattr(self, name), name)
        if not self.id:
            raise InvariantViolation("SamlAuthnRequest.id must be non-empty")
        object.__setattr__(
            self, "issue_instant", _normalize_instant(self.issue_instant, "issue_instant")
        )
        if self.name_id_policy_format is not None:
            _check_text(self.name_id_policy_format, "name_id_policy_format")
        ctx = tuple(_check_text(c, "requested_authn_context") for c in self.requested_authn_context)
        object.__setattr__(self, "requested_authn_context", ctx)


@dataclass(frozen=True)
class SamlAssertion:
    id: str
    issuer: EntityId
    subject_name: str
    subject_name_format: str
    authn_context_class: str
    authn_instant: datetime
    not_before: datetime
    not_on_or_after: datetime
    attributes: tuple[tuple[str, str], ...] = ()
    signature: Signature | None = None

    def __post_init__(self) -> None:
        for name in ("id", "subject_name", "subject_name_format", "authn_context_class"):
            _check_text(getattr(self, name), name)
        if not self.id:
            raise InvariantViolation("SamlAssertion.id must be non-empty")
        object.__setattr__(
            self, "authn_instant", _normalize_instant(self.authn_instant, "authn_instant")
        )
        object.__setattr__(
            self, "not_before", _normalize_instant(self.not_before, "not_before")
        )
        object.__setattr__(
            self,
            "not_on_or_after",
            _normalize_instant(self.not_on_or_after, "not_on_or_after"),
        )
        if not self.not_before < self.not_on_or_after:
            raise InvariantViolation(
                "SamlAssertion requires not_before < not_on_or_after"
            )
        object.__setattr__(self, "attributes", _checked_attributes(self.attributes))

    def copy_with(self, **changes) -> SamlAssertion:
        """A copy with the subject, the attributes or the signature changed.

        Only the changed text is checked: ``dataclasses.replace`` would re-run
        every check above, one regex per attribute, and the relay path copies
        an assertion up to three times (attribute names, pseudonym,
        signature). The ID, issuer and validity window cannot change here.
        """
        for name, value in changes.items():
            if name == "attributes":
                changes[name] = _checked_attributes(value)
            elif name in ("subject_name", "subject_name_format"):
                _check_text(value, name)
            elif name != "signature":
                raise InvariantViolation(f"SamlAssertion.copy_with cannot change {name}")
        copy = object.__new__(SamlAssertion)
        copy.__dict__.update(self.__dict__, **changes)
        return copy


@dataclass(frozen=True)
class SamlResponse:
    id: str
    in_response_to: str
    issuer: EntityId
    status: SamlStatus
    assertion: SamlAssertion | None = None

    def __post_init__(self) -> None:
        _check_text(self.id, "id")
        _check_text(self.in_response_to, "in_response_to")
        if not self.id:
            raise InvariantViolation("SamlResponse.id must be non-empty")
        if self.status is SamlStatus.SUCCESS and self.assertion is None:
            raise InvariantViolation("Success response requires an assertion")
        if self.status is not SamlStatus.SUCCESS and self.assertion is not None:
            raise InvariantViolation("non-Success response must not carry an assertion")


@dataclass(frozen=True)
class WstRequestSecurityToken:
    context: str
    request_type: str
    token_type: str
    reply_to: str
    claims_dialect: str | None = None
    claim_types: tuple[str, ...] = ()
    authentication_type: str | None = None
    force_authn: bool = False

    def __post_init__(self) -> None:
        for name in ("context", "request_type", "token_type", "reply_to"):
            _check_text(getattr(self, name), name)
        if self.claims_dialect is not None:
            _check_text(self.claims_dialect, "claims_dialect")
        claims = tuple(_check_text(c, "claim_types") for c in self.claim_types)
        object.__setattr__(self, "claim_types", claims)
        if claims and self.claims_dialect is None:
            raise InvariantViolation("claim_types require a claims_dialect")
        if self.authentication_type is not None:
            _check_text(self.authentication_type, "authentication_type")


@dataclass(frozen=True)
class WstRequestSecurityTokenResponse:
    context: str
    token_type: str
    requested_token: SamlAssertion | None = None
    lifetime: tuple[datetime, datetime] | None = None

    def __post_init__(self) -> None:
        _check_text(self.context, "context")
        _check_text(self.token_type, "token_type")
        if self.lifetime is not None:
            created, expires = self.lifetime
            object.__setattr__(
                self,
                "lifetime",
                (
                    _normalize_instant(created, "lifetime.created"),
                    _normalize_instant(expires, "lifetime.expires"),
                ),
            )


ProtocolDocument = Union[
    SamlAuthnRequest,
    SamlAssertion,
    SamlResponse,
    WstRequestSecurityToken,
    WstRequestSecurityTokenResponse,
]

TDoc = TypeVar("TDoc", bound=ProtocolDocument)


# ---------------------------------------------------------------------------
# Serialization (normal form)
# ---------------------------------------------------------------------------


def _serialize_authn_request(req: SamlAuthnRequest, signed: bool) -> str:
    parts = [
        f'<samlp:AuthnRequest xmlns:samlp="{SAMLP_NS}" xmlns:saml="{SAML_NS}"',
        _attr("ID", req.id),
        ' Version="2.0"',
        _attr("IssueInstant", format_instant(req.issue_instant)),
    ]
    if req.destination:
        parts.append(_attr("Destination", req.destination))
    if req.acs_url:
        parts.append(_attr("AssertionConsumerServiceURL", req.acs_url))
    if req.force_authn:
        parts.append(' ForceAuthn="true"')
    parts.append(f"><saml:Issuer>{_escape_text(req.issuer.value)}</saml:Issuer>")
    if req.name_id_policy_format is not None:
        parts.append(f"<samlp:NameIDPolicy{_attr('Format', req.name_id_policy_format)}/>")
    if req.requested_authn_context:
        refs = "".join(
            f"<saml:AuthnContextClassRef>{_escape_text(c)}</saml:AuthnContextClassRef>"
            for c in req.requested_authn_context
        )
        parts.append(f"<samlp:RequestedAuthnContext>{refs}</samlp:RequestedAuthnContext>")
    parts.append("</samlp:AuthnRequest>")
    return "".join(parts)


def _serialize_assertion(a: SamlAssertion, signed: bool) -> str:
    parts = [
        f'<saml:Assertion xmlns:saml="{SAML_NS}"',
        _attr("ID", a.id),
        ' Version="2.0"',
        _attr("IssueInstant", format_instant(a.authn_instant)),
        f"><saml:Issuer>{_escape_text(a.issuer.value)}</saml:Issuer>",
    ]
    if signed and a.signature is not None:
        parts.append(
            f'<sig:Signature xmlns:sig="{SIG_NS}"'
            + _attr("KeyId", a.signature.key_id)
            + _attr("Algorithm", a.signature.algorithm_id)
            + _attr("Value", base64.b64encode(a.signature.value).decode("ascii"))
            + "/>"
        )
    parts.append(
        "<saml:Subject><saml:NameID"
        + _attr("Format", a.subject_name_format)
        + f">{_escape_text(a.subject_name)}</saml:NameID></saml:Subject>"
    )
    parts.append(
        "<saml:Conditions"
        + _attr("NotBefore", format_instant(a.not_before))
        + _attr("NotOnOrAfter", format_instant(a.not_on_or_after))
        + "/>"
    )
    parts.append(
        "<saml:AuthnStatement"
        + _attr("AuthnInstant", format_instant(a.authn_instant))
        + "><saml:AuthnContext><saml:AuthnContextClassRef>"
        + _escape_text(a.authn_context_class)
        + "</saml:AuthnContextClassRef></saml:AuthnContext></saml:AuthnStatement>"
    )
    if a.attributes:
        attrs = "".join(
            f"<saml:Attribute{_attr('Name', name)}>"
            f"<saml:AttributeValue>{_escape_text(value)}</saml:AttributeValue>"
            "</saml:Attribute>"
            for name, value in a.attributes
        )
        parts.append(f"<saml:AttributeStatement>{attrs}</saml:AttributeStatement>")
    parts.append("</saml:Assertion>")
    return "".join(parts)


def _serialize_response(resp: SamlResponse, signed: bool) -> str:
    parts = [
        f'<samlp:Response xmlns:samlp="{SAMLP_NS}" xmlns:saml="{SAML_NS}"',
        _attr("ID", resp.id),
        ' Version="2.0"',
    ]
    if resp.in_response_to:
        parts.append(_attr("InResponseTo", resp.in_response_to))
    parts.append(f"><saml:Issuer>{_escape_text(resp.issuer.value)}</saml:Issuer>")
    parts.append(
        f'<samlp:Status><samlp:StatusCode{_attr("Value", resp.status.uri)}/></samlp:Status>'
    )
    if resp.assertion is not None:
        parts.append(_serialize_assertion(resp.assertion, signed))
    parts.append("</samlp:Response>")
    return "".join(parts)


def _serialize_rst(rst: WstRequestSecurityToken, signed: bool) -> str:
    parts = [
        f'<wst:RequestSecurityToken xmlns:wst="{WST_NS}" xmlns:auth="{AUTH_NS}"'
        f' xmlns:wsa="{WSA_NS}" xmlns:fed="{FED_NS}"'
    ]
    if rst.context:
        parts.append(_attr("Context", rst.context))
    parts.append(f"><wst:RequestType>{_escape_text(rst.request_type)}</wst:RequestType>")
    parts.append(f"<wst:TokenType>{_escape_text(rst.token_type)}</wst:TokenType>")
    if rst.claims_dialect is not None:
        claim_types = "".join(
            f"<auth:ClaimType{_attr('Uri', uri)}/>" for uri in rst.claim_types
        )
        parts.append(
            f"<wst:Claims{_attr('Dialect', rst.claims_dialect)}>{claim_types}</wst:Claims>"
        )
    if rst.authentication_type is not None:
        parts.append(
            "<wst:AuthenticationType>"
            + _escape_text(rst.authentication_type)
            + "</wst:AuthenticationType>"
        )
    if rst.force_authn:
        parts.append("<fed:Freshness>0</fed:Freshness>")
    parts.append(
        f"<wsa:ReplyTo><wsa:Address>{_escape_text(rst.reply_to)}</wsa:Address></wsa:ReplyTo>"
    )
    parts.append("</wst:RequestSecurityToken>")
    return "".join(parts)


def _serialize_rstr(rstr: WstRequestSecurityTokenResponse, signed: bool) -> str:
    parts = [
        f'<wst:RequestSecurityTokenResponse xmlns:wst="{WST_NS}" xmlns:wsu="{WSU_NS}"'
    ]
    if rstr.context:
        parts.append(_attr("Context", rstr.context))
    parts.append(f"><wst:TokenType>{_escape_text(rstr.token_type)}</wst:TokenType>")
    if rstr.lifetime is not None:
        created, expires = rstr.lifetime
        parts.append(
            "<wst:Lifetime>"
            f"<wsu:Created>{format_instant(created)}</wsu:Created>"
            f"<wsu:Expires>{format_instant(expires)}</wsu:Expires>"
            "</wst:Lifetime>"
        )
    if rstr.requested_token is not None:
        parts.append(
            "<wst:RequestedSecurityToken>"
            + _serialize_assertion(rstr.requested_token, signed)
            + "</wst:RequestedSecurityToken>"
        )
    parts.append("</wst:RequestSecurityTokenResponse>")
    return "".join(parts)


# Each writer takes the document and whether assertions inside it carry
# their signature element.
_SERIALIZERS = {
    SamlAuthnRequest: _serialize_authn_request,
    SamlAssertion: _serialize_assertion,
    SamlResponse: _serialize_response,
    WstRequestSecurityToken: _serialize_rst,
    WstRequestSecurityTokenResponse: _serialize_rstr,
}


def _writer(document: ProtocolDocument):
    try:
        return _SERIALIZERS[type(document)]
    except KeyError:
        raise TypeError(f"not a protocol document: {type(document).__name__}") from None


def serialize(document: ProtocolDocument) -> str:
    """Normal-form XML text for any protocol document."""
    return _writer(document)(document, True)


def canonical_bytes(document: ProtocolDocument) -> bytes:
    """Deterministic byte form of the document's semantic content.

    Pure function of the typed fields: two parses of the same logical
    document yield identical bytes no matter how the source XML was
    formatted, and signature fields (at any nesting depth) are excluded so
    signing and re-signing never perturb the covered content.
    """
    return _writer(document)(document, False).encode("utf-8")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _tag(ns: str, local: str) -> str:
    return f"{{{ns}}}{local}"


def _split_tag(tag: str) -> tuple[str, str]:
    if tag.startswith("{"):
        ns, _, local = tag[1:].partition("}")
        return ns, local
    return "", tag


def _child(el: ET.Element, ns: str, local: str, *, required: bool = True) -> ET.Element | None:
    found = el.find(_tag(ns, local))
    if found is None and required:
        raise InvariantViolation(f"missing element {local}")
    return found


def _text(el: ET.Element | None, what: str, *, strip: bool = True) -> str:
    if el is None:
        raise InvariantViolation(f"missing element {what}")
    text = el.text or ""
    return text.strip() if strip else text


def _parse_authn_request(root: ET.Element) -> SamlAuthnRequest:
    issuer = _text(_child(root, SAML_NS, "Issuer"), "saml:Issuer")
    policy = root.find(_tag(SAMLP_NS, "NameIDPolicy"))
    requested = root.find(_tag(SAMLP_NS, "RequestedAuthnContext"))
    classes: tuple[str, ...] = ()
    if requested is not None:
        classes = tuple(
            _text(ref, "saml:AuthnContextClassRef")
            for ref in requested.findall(_tag(SAML_NS, "AuthnContextClassRef"))
        )
    if "ID" not in root.attrib:
        raise InvariantViolation("samlp:AuthnRequest missing ID")
    return SamlAuthnRequest(
        id=root.attrib["ID"],
        issue_instant=parse_instant(
            root.attrib.get("IssueInstant", ""), "samlp:AuthnRequest IssueInstant"
        ),
        issuer=EntityId(issuer),
        destination=root.attrib.get("Destination", ""),
        acs_url=root.attrib.get("AssertionConsumerServiceURL", ""),
        name_id_policy_format=policy.attrib.get("Format") if policy is not None else None,
        requested_authn_context=classes,
        force_authn=root.attrib.get("ForceAuthn", "false").lower() == "true",
    )


def _parse_assertion(root: ET.Element) -> SamlAssertion:
    issuer = _text(_child(root, SAML_NS, "Issuer"), "saml:Issuer")
    subject = _child(root, SAML_NS, "Subject")
    name_id = _child(subject, SAML_NS, "NameID")
    conditions = _child(root, SAML_NS, "Conditions")
    authn_statement = _child(root, SAML_NS, "AuthnStatement")
    authn_context = _child(authn_statement, SAML_NS, "AuthnContext")
    class_ref = _text(
        _child(authn_context, SAML_NS, "AuthnContextClassRef"),
        "saml:AuthnContextClassRef",
    )

    signature = None
    sig_el = root.find(_tag(SIG_NS, "Signature"))
    if sig_el is not None:
        try:
            sig_value = base64.b64decode(sig_el.attrib.get("Value", ""), validate=True)
        except Exception:
            raise InvariantViolation("sig:Signature Value is not base64") from None
        signature = Signature(
            key_id=sig_el.attrib.get("KeyId", ""),
            algorithm_id=sig_el.attrib.get("Algorithm", ""),
            value=sig_value,
        )

    attributes: list[tuple[str, str]] = []
    attr_statement = root.find(_tag(SAML_NS, "AttributeStatement"))
    if attr_statement is not None:
        for attr in attr_statement.findall(_tag(SAML_NS, "Attribute")):
            if "Name" not in attr.attrib:
                raise InvariantViolation("saml:Attribute missing Name")
            value_el = attr.find(_tag(SAML_NS, "AttributeValue"))
            value = value_el.text or "" if value_el is not None else ""
            attributes.append((attr.attrib["Name"], value))

    if "ID" not in root.attrib:
        raise InvariantViolation("saml:Assertion missing ID")
    return SamlAssertion(
        id=root.attrib["ID"],
        issuer=EntityId(issuer),
        subject_name=name_id.text or "",
        subject_name_format=name_id.attrib.get("Format", ""),
        authn_context_class=class_ref,
        authn_instant=parse_instant(
            authn_statement.attrib.get("AuthnInstant", ""), "saml:AuthnStatement AuthnInstant"
        ),
        not_before=parse_instant(
            conditions.attrib.get("NotBefore", ""), "saml:Conditions NotBefore"
        ),
        not_on_or_after=parse_instant(
            conditions.attrib.get("NotOnOrAfter", ""), "saml:Conditions NotOnOrAfter"
        ),
        attributes=tuple(attributes),
        signature=signature,
    )


def _parse_response(root: ET.Element) -> SamlResponse:
    issuer = _text(_child(root, SAML_NS, "Issuer"), "saml:Issuer")
    status_el = _child(root, SAMLP_NS, "Status")
    code_el = _child(status_el, SAMLP_NS, "StatusCode")
    status_uri = code_el.attrib.get("Value", "")
    if not status_uri.startswith(STATUS_URI_PREFIX):
        raise InvariantViolation(f"samlp:StatusCode has unknown value {status_uri!r}")
    try:
        status = SamlStatus(status_uri[len(STATUS_URI_PREFIX):])
    except ValueError:
        raise InvariantViolation(
            f"samlp:StatusCode has unknown value {status_uri!r}"
        ) from None

    assertion_el = root.find(_tag(SAML_NS, "Assertion"))
    assertion = _parse_assertion(assertion_el) if assertion_el is not None else None

    if "ID" not in root.attrib:
        raise InvariantViolation("samlp:Response missing ID")
    return SamlResponse(
        id=root.attrib["ID"],
        in_response_to=root.attrib.get("InResponseTo", ""),
        issuer=EntityId(issuer),
        status=status,
        assertion=assertion,
    )


def _parse_rst(root: ET.Element) -> WstRequestSecurityToken:
    request_type = _text(_child(root, WST_NS, "RequestType"), "wst:RequestType")
    token_type = _text(_child(root, WST_NS, "TokenType"), "wst:TokenType")

    claims_dialect = None
    claim_types: tuple[str, ...] = ()
    claims_el = root.find(_tag(WST_NS, "Claims"))
    if claims_el is not None:
        if "Dialect" not in claims_el.attrib:
            raise InvariantViolation("wst:Claims missing Dialect")
        claims_dialect = claims_el.attrib["Dialect"]
        claim_types = tuple(
            ct.attrib.get("Uri", "") for ct in claims_el.findall(_tag(AUTH_NS, "ClaimType"))
        )

    authentication_type = None
    auth_el = root.find(_tag(WST_NS, "AuthenticationType"))
    if auth_el is not None:
        authentication_type = _text(auth_el, "wst:AuthenticationType")

    force_authn = False
    fresh_el = root.find(_tag(FED_NS, "Freshness"))
    if fresh_el is not None:
        if _text(fresh_el, "fed:Freshness") != "0":
            raise InvariantViolation("fed:Freshness carries an unsupported value")
        force_authn = True

    reply_to_el = _child(root, WSA_NS, "ReplyTo")
    reply_to = _text(_child(reply_to_el, WSA_NS, "Address"), "wsa:Address")

    return WstRequestSecurityToken(
        context=root.attrib.get("Context", ""),
        request_type=request_type,
        token_type=token_type,
        reply_to=reply_to,
        claims_dialect=claims_dialect,
        claim_types=claim_types,
        authentication_type=authentication_type,
        force_authn=force_authn,
    )


def _parse_rstr(root: ET.Element) -> WstRequestSecurityTokenResponse:
    token_type = _text(_child(root, WST_NS, "TokenType"), "wst:TokenType")

    lifetime = None
    lifetime_el = root.find(_tag(WST_NS, "Lifetime"))
    if lifetime_el is not None:
        created = _text(_child(lifetime_el, WSU_NS, "Created"), "wsu:Created")
        expires = _text(_child(lifetime_el, WSU_NS, "Expires"), "wsu:Expires")
        lifetime = (
            parse_instant(created, "wsu:Created"),
            parse_instant(expires, "wsu:Expires"),
        )

    requested_token = None
    token_el = root.find(_tag(WST_NS, "RequestedSecurityToken"))
    if token_el is not None:
        assertion_el = token_el.find(_tag(SAML_NS, "Assertion"))
        if assertion_el is None:
            raise InvariantViolation(
                "wst:RequestedSecurityToken carries no saml:Assertion"
            )
        requested_token = _parse_assertion(assertion_el)

    return WstRequestSecurityTokenResponse(
        context=root.attrib.get("Context", ""),
        token_type=token_type,
        requested_token=requested_token,
        lifetime=lifetime,
    )


_PARSERS = {
    SamlAuthnRequest: (SAMLP_NS, "AuthnRequest", _parse_authn_request),
    SamlAssertion: (SAML_NS, "Assertion", _parse_assertion),
    SamlResponse: (SAMLP_NS, "Response", _parse_response),
    WstRequestSecurityToken: (WST_NS, "RequestSecurityToken", _parse_rst),
    WstRequestSecurityTokenResponse: (
        WST_NS,
        "RequestSecurityTokenResponse",
        _parse_rstr,
    ),
}


def parse(xml: str, expected_kind: type[TDoc]) -> TDoc:
    """Parse XML text into the expected protocol document type.

    Raises MalformedXml for syntax errors or an unexpected root element,
    WrongNamespace when the root element's namespace is not the one the
    expected kind declares, InvariantViolation when the document is
    structurally valid XML but breaks a type invariant.
    """
    try:
        ns, local, reader = _PARSERS[expected_kind]
    except KeyError:
        raise TypeError(f"not a protocol document kind: {expected_kind!r}") from None

    try:
        root = ET.fromstring(xml)
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from None

    root_ns, root_local = _split_tag(root.tag)
    if root_ns != ns:
        raise WrongNamespace(
            f"{root_local}: expected namespace {ns!r}, found {root_ns!r}"
        )
    if root_local != local:
        raise MalformedXml(f"expected element {local}, found {root_local}")
    return reader(root)
