"""Passive-client transport encodings for both dialects.

Authentication requests travel in the query string of an HTTP 302
redirect; authentication responses travel back as form fields in an HTTP
POST issued by an auto-submitting HTML page. The browser relays; it never
builds a protocol message itself.

Parameter names are fixed wire constants: ``SAMLRequest``/``SAMLResponse``
with ``RelayState`` on the SAML side; ``wa`` (always ``wsignin1.0``),
``wreq``, ``wresult`` and ``wctx`` on the WS-Federation side. The SAML
redirect payload is deflate-compressed and base64-encoded per the standard
redirect convention, and inflates to at most 64 KiB; the WS-Federation
request document rides URL-encoded XML and is therefore capped at 6 KiB
(``WREQ_MAX_BYTES``), on encode and on decode, to stay inside practical URL
limits. Every document is parsed by ``messages.parse``, which refuses a
document type declaration before the parser sees it.

What the origin of a request sends to have echoed back, and the broker keeps
for a whole flow, is capped where the request is decoded: ``RelayState`` at
80 bytes (SAML bindings §3.4.3); ``wctx``, a request ID and an RST
``Context`` at ``MAX_ECHOED_BYTES``.
"""

from __future__ import annotations

import base64
import html
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping
from urllib.parse import urlencode

from .errors import ProtocolError, RequestTooLarge
from .messages import (
    SamlAuthnRequest,
    SamlResponse,
    WstRequestSecurityToken,
    WstRequestSecurityTokenResponse,
    parse,
    serialize,
)

WSIGNIN = "wsignin1.0"
WREQ_MAX_BYTES = 6 * 1024
MAX_INFLATED_BYTES = 64 * 1024
MAX_RELAY_STATE_BYTES = 80
MAX_ECHOED_BYTES = 512


@dataclass(frozen=True)
class RedirectMessage:
    """A single HTTP 302 whose query string carries the message."""

    target: str
    params: tuple[tuple[str, str], ...]

    # Computed on first use: the broker builds the message, and the HTTP
    # adapter that answers with it pays the urlencode.
    @cached_property
    def location(self) -> str:
        query = urlencode(self.params)
        separator = "&" if "?" in self.target else "?"
        return f"{self.target}{separator}{query}" if query else self.target


@dataclass(frozen=True)
class PostMessage:
    """Form fields delivered through an auto-submitting HTML page."""

    target: str
    fields: tuple[tuple[str, str], ...]


def auto_post_html(message: PostMessage) -> str:
    """The self-submitting form page the passive client relays."""
    inputs = "".join(
        f'<input type="hidden" name="{html.escape(name, quote=True)}" '
        f'value="{html.escape(value, quote=True)}"/>'
        for name, value in message.fields
    )
    return (
        "<!DOCTYPE html><html><body onload=\"document.forms[0].submit()\">"
        f'<form method="post" action="{html.escape(message.target, quote=True)}">'
        f"{inputs}"
        '<noscript><input type="submit" value="Continue"/></noscript>'
        "</form></body></html>"
    )


def _require(params: Mapping[str, str], name: str) -> str:
    try:
        return params[name]
    except KeyError:
        raise ProtocolError(f"missing parameter {name}") from None


def _cap(name: str, value: str, limit: int) -> None:
    size = len(value.encode("utf-8", "surrogatepass"))  # counts a lone surrogate, never raises
    if size > limit:
        raise RequestTooLarge(f"{name} of {size} bytes exceeds {limit}")


# --- SAML redirect (authentication request) ---------------------------------


def encode_saml_redirect(
    req: SamlAuthnRequest, relay_state: str, idp_sso_url: str
) -> RedirectMessage:
    payload = zlib.compress(serialize(req).encode("utf-8"))[2:-4]
    params = [("SAMLRequest", base64.b64encode(payload).decode("ascii"))]
    if relay_state:
        params.append(("RelayState", relay_state))
    return RedirectMessage(idp_sso_url, tuple(params))


def decode_saml_redirect(params: Mapping[str, str]) -> tuple[SamlAuthnRequest, str]:
    raw = _require(params, "SAMLRequest")
    relay_state = params.get("RelayState", "")
    _cap("RelayState", relay_state, MAX_RELAY_STATE_BYTES)
    inflater = zlib.decompressobj(-15)
    try:
        inflated = inflater.decompress(base64.b64decode(raw, validate=True),
                                       MAX_INFLATED_BYTES + 1)
        xml = inflated.decode("utf-8") if inflater.eof else None
    except Exception:
        raise ProtocolError("SAMLRequest is not deflated base64") from None
    if len(inflated) > MAX_INFLATED_BYTES:
        raise RequestTooLarge(f"SAMLRequest inflates past {MAX_INFLATED_BYTES} bytes")
    if xml is None:
        raise ProtocolError("SAMLRequest is a truncated deflate stream")
    req = parse(xml, SamlAuthnRequest)
    _cap("request ID", req.id, MAX_ECHOED_BYTES)
    return req, relay_state


# --- WS-Federation sign-in redirect (token issue request) --------------------


def encode_wsfed_signin(
    rst: WstRequestSecurityToken, wctx: str, ip_url: str
) -> RedirectMessage:
    xml = serialize(rst)
    _cap("wreq", xml, WREQ_MAX_BYTES)
    params = [("wa", WSIGNIN), ("wreq", xml)]
    if wctx:
        params.append(("wctx", wctx))
    return RedirectMessage(ip_url, tuple(params))


def decode_wsfed_signin(params: Mapping[str, str]) -> tuple[WstRequestSecurityToken, str]:
    wa = _require(params, "wa")
    if wa != WSIGNIN:
        raise ProtocolError(f"wa must be {WSIGNIN}, got {wa!r}")
    xml = _require(params, "wreq")
    _cap("wreq", xml, WREQ_MAX_BYTES)
    wctx = params.get("wctx", "")
    _cap("wctx", wctx, MAX_ECHOED_BYTES)
    rst = parse(xml, WstRequestSecurityToken)
    _cap("Context", rst.context, MAX_ECHOED_BYTES)
    return rst, wctx


# --- SAML response POST -------------------------------------------------------


def encode_saml_response_post(
    resp: SamlResponse, relay_state: str, acs_url: str
) -> PostMessage:
    fields = [("SAMLResponse", base64.b64encode(serialize(resp).encode("utf-8")).decode("ascii"))]
    if relay_state:
        fields.append(("RelayState", relay_state))
    return PostMessage(acs_url, tuple(fields))


def decode_saml_response_post(fields: Mapping[str, str]) -> tuple[SamlResponse, str]:
    raw = _require(fields, "SAMLResponse")
    try:
        xml = base64.b64decode(raw, validate=True).decode("utf-8")
    except Exception:
        raise ProtocolError("SAMLResponse is not base64") from None
    return parse(xml, SamlResponse), fields.get("RelayState", "")


# --- WS-Federation sign-in response POST ---------------------------------------


def encode_wsfed_signin_response_post(
    rstr: WstRequestSecurityTokenResponse, wctx: str, return_url: str
) -> PostMessage:
    fields = [("wa", WSIGNIN), ("wresult", serialize(rstr))]
    if wctx:
        fields.append(("wctx", wctx))
    return PostMessage(return_url, tuple(fields))


def decode_wsfed_signin_response_post(
    fields: Mapping[str, str]
) -> tuple[WstRequestSecurityTokenResponse, str]:
    """The RSTR and its wctx; an RSTR with no token (a refusal) decodes too."""
    xml = _require(fields, "wresult")
    return parse(xml, WstRequestSecurityTokenResponse), fields.get("wctx", "")
