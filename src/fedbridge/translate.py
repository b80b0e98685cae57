"""Semantic conversion between SAML2 and WS-Trust protocol documents.

Request direction: an authentication request becomes a generalist token
issue request (and back), with the expected subject-name format carried as
an authorization claim of the same type and the requested authentication
context folded through a configurable mapping table.

Response direction: the embedded assertion, already verified
(``verify_issuer``) and admitted by the caller, has its attribute names
mapped and is re-signed under the broker's key before being wrapped in the
other dialect's response document.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping

from .errors import (
    InvariantViolation,
    UnknownKeyId,
    UnmappedAuthnContext,
    UnsupportedRequestType,
    UnsupportedTokenType,
    UntrustedIssuer,
)
from .messages import (
    EntityId,
    SamlAssertion,
    SamlAuthnRequest,
    SamlResponse,
    SamlStatus,
    WstRequestSecurityToken,
    WstRequestSecurityTokenResponse,
    fresh_id,
    utc_now,
)
from .signing import KeyRecord, KeyStore, sign, verify

WST_ISSUE_URI = "http://docs.oasis-open.org/ws-sx/ws-trust/200512/Issue"
SAML2_ASSERTION_TOKEN_TYPE = "urn:oasis:names:tc:SAML:2.0:assertion"
AUTHCLAIMS_DIALECT = "http://schemas.xmlsoap.org/ws/2006/12/authorization/authclaims"

# Any SAML name-id format URI, whatever the spec generation (1.0/1.1/2.0).
_NAMEID_FORMAT_RE = re.compile(r"^urn:oasis:names:tc:SAML:[^:]+:nameid-format:.")

AssertionTransform = Callable[[SamlAssertion], SamlAssertion]


class MappingDirection(Enum):
    SAML_TO_WST = "saml-to-wst"
    WST_TO_SAML = "wst-to-saml"


@dataclass(frozen=True)
class _PairTable:
    """(SAML name, WS-Trust name) pairs forming a partial bijection, with the
    lookup of each direction built once, at construction."""

    entries: tuple[tuple[str, str], ...] = ()
    tables: Mapping[MappingDirection, Mapping[str, str]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        entries = tuple((a, b) for a, b in self.entries)
        to_wst, to_saml = dict(entries), {b: a for a, b in entries}
        if len(to_wst) != len(entries) or len(to_saml) != len(entries):
            raise InvariantViolation(
                f"{type(self).__name__} entries must form a partial bijection"
            )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "tables", {MappingDirection.SAML_TO_WST: to_wst,
                                            MappingDirection.WST_TO_SAML: to_saml})


@dataclass(frozen=True)
class AuthnContextMapping(_PairTable):
    """SAML authentication-context classes paired with WS-Trust authentication
    types. ``pass_through`` forwards unmapped SAML context URIs verbatim, for
    deployments whose token service accepts the SAML vocabulary directly."""

    pass_through: bool = False


@dataclass(frozen=True)
class AttributeNameMapping(_PairTable):
    """Attribute-name unification: SAML attribute names paired with the claim
    types the WS-Federation side uses for the same information. Names outside
    the table pass through unchanged."""

    def rename(
        self, attributes: tuple[tuple[str, str], ...], direction: MappingDirection
    ) -> tuple[tuple[str, str], ...]:
        table = self.tables[direction]
        return tuple((table.get(name, name), value) for name, value in attributes)


def map_authn_context(
    classes: tuple[str, ...] | list[str],
    ctx_map: AuthnContextMapping,
    direction: MappingDirection,
) -> str | None | tuple[str, ...]:
    """Fold context classes through the table in the given direction.

    SAML→WST yields the single authentication type (first class that maps
    wins; None when no class was requested). WST→SAML yields the recovered
    class list. Raises UnmappedAuthnContext when something was requested,
    nothing maps, and pass-through is off.
    """
    classes = tuple(classes)
    to_wst = direction is MappingDirection.SAML_TO_WST
    if not classes:
        return None if to_wst else ()
    table = ctx_map.tables[direction]
    for cls in classes:
        if cls in table or ctx_map.pass_through:
            mapped = table.get(cls, cls)
            return mapped if to_wst else (mapped,)
    raise UnmappedAuthnContext(", ".join(classes))


def name_id_policy_to_claims(format_uri: str) -> tuple[str, tuple[str, ...]]:
    """Subject-name policy becomes an authorization claim of the same type."""
    return AUTHCLAIMS_DIALECT, (format_uri,)


def claims_to_name_id_policy(
    dialect: str | None, claim_types: tuple[str, ...] | list[str]
) -> str | None:
    """Inverse of name_id_policy_to_claims; absent unless the dialect is the
    authorization-claims one and the first claim type is a SAML name-id
    format URI."""
    if dialect != AUTHCLAIMS_DIALECT or not claim_types:
        return None
    first = tuple(claim_types)[0]
    return first if _NAMEID_FORMAT_RE.match(first) else None


def authn_request_to_rst(
    req: SamlAuthnRequest,
    ctx_map: AuthnContextMapping,
    context: str,
    *,
    reply_to: str | None = None,
) -> WstRequestSecurityToken:
    """Express a SAML authentication request as a WS-Trust issue request.

    The token goes back to the requester's assertion consumer URL unless
    the caller (normally the broker) substitutes its own reply address.
    """
    claims_dialect = None
    claim_types: tuple[str, ...] = ()
    if req.name_id_policy_format is not None:
        claims_dialect, claim_types = name_id_policy_to_claims(req.name_id_policy_format)

    authentication_type = map_authn_context(
        req.requested_authn_context, ctx_map, MappingDirection.SAML_TO_WST
    )
    assert authentication_type is None or isinstance(authentication_type, str)

    return WstRequestSecurityToken(
        context=context,
        request_type=WST_ISSUE_URI,
        token_type=SAML2_ASSERTION_TOKEN_TYPE,
        reply_to=reply_to if reply_to is not None else req.acs_url,
        claims_dialect=claims_dialect,
        claim_types=claim_types,
        authentication_type=authentication_type,
        force_authn=req.force_authn,
    )


def rst_to_authn_request(
    rst: WstRequestSecurityToken,
    ctx_map: AuthnContextMapping,
    issuer: EntityId,
    *,
    acs_url: str | None = None,
    destination: str = "",
    request_id: str | None = None,
) -> SamlAuthnRequest:
    """Express a WS-Trust issue request as a SAML authentication request.

    Only issuance of SAML2 assertions translates; the request/response
    correlation lives in rst.context and is the caller's to preserve. The
    assertion consumer URL defaults to the requester's reply address unless
    the caller (normally the broker) substitutes its own.
    """
    if rst.request_type != WST_ISSUE_URI:
        raise UnsupportedRequestType(rst.request_type)
    if rst.token_type != SAML2_ASSERTION_TOKEN_TYPE:
        raise UnsupportedTokenType(rst.token_type)

    requested = map_authn_context(
        (rst.authentication_type,) if rst.authentication_type is not None else (),
        ctx_map,
        MappingDirection.WST_TO_SAML,
    )
    assert isinstance(requested, tuple)

    return SamlAuthnRequest(
        id=request_id or fresh_id(),
        issue_instant=utc_now(),
        issuer=issuer,
        destination=destination,
        acs_url=acs_url if acs_url is not None else rst.reply_to,
        name_id_policy_format=claims_to_name_id_policy(rst.claims_dialect, rst.claim_types),
        requested_authn_context=requested,
        force_authn=rst.force_authn,
    )


# Here, not in the broker: a tracer patches ``verify`` and ``sign`` in this module.
def verify_issuer(assertion: SamlAssertion, issuer_keys: KeyStore) -> None:
    """Refuse an assertion not signed by a key its own issuer owns, among the
    keys given."""
    try:
        owner = verify(assertion, issuer_keys)
    except UnknownKeyId as exc:
        raise UntrustedIssuer(f"no registered key {exc}") from None
    if owner != assertion.issuer:
        raise UntrustedIssuer(
            f"assertion issuer {assertion.issuer} does not own signing key"
        )


def _relay_assertion(
    assertion: SamlAssertion,
    broker_signer: KeyRecord,
    attr_map: AttributeNameMapping,
    direction: MappingDirection,
    transform: AssertionTransform | None,
) -> SamlAssertion:
    """map attribute names → optional rewrite → re-sign."""
    mapped = assertion
    renamed = attr_map.rename(assertion.attributes, direction)
    if renamed != assertion.attributes:
        mapped = assertion.copy_with(attributes=renamed)
    if transform is not None:
        mapped = transform(mapped)
    return sign(mapped, broker_signer)


def rstr_to_saml_response(
    rstr: WstRequestSecurityTokenResponse,
    broker_signer: KeyRecord,
    in_response_to: str,
    attr_map: AttributeNameMapping,
    *,
    transform: AssertionTransform | None = None,
) -> SamlResponse:
    """Extract the issued token, re-sign it, reformat as a SAML response.

    The caller relays a token-less response itself, and has already verified
    and admitted this token: nothing here checks it.
    """
    assert rstr.requested_token is not None
    assertion = _relay_assertion(
        rstr.requested_token, broker_signer, attr_map, MappingDirection.WST_TO_SAML, transform
    )
    return SamlResponse(
        id=fresh_id(),
        in_response_to=in_response_to,
        issuer=broker_signer.owner,
        status=SamlStatus.SUCCESS,
        assertion=assertion,
    )


def saml_response_to_rstr(
    resp: SamlResponse,
    broker_signer: KeyRecord,
    context: str,
    attr_map: AttributeNameMapping,
    *,
    transform: AssertionTransform | None = None,
) -> WstRequestSecurityTokenResponse:
    """Extract the assertion, re-sign it, embed it as the requested token.

    The caller relays a non-success status itself, and has already verified
    and admitted this assertion: nothing here checks it.
    """
    assert resp.assertion is not None
    assertion = _relay_assertion(
        resp.assertion, broker_signer, attr_map, MappingDirection.SAML_TO_WST, transform
    )
    return WstRequestSecurityTokenResponse(
        context=context,
        token_type=SAML2_ASSERTION_TOKEN_TYPE,
        requested_token=assertion,
        lifetime=(assertion.not_before, assertion.not_on_or_after),
    )
