"""Mock federation actors for end-to-end exercise of the broker.

One authority and one service provider per dialect, each a small HTTP
service sharing the broker's message/binding code but none of its state.
Authorities keep a user table and a session set and record every
authentication event; providers keep their outstanding requests and record
every security context they establish, so scenario verdicts can inspect
exactly what crossed the wire. Both providers check what the broker relays
on one path, apart from the broker's own checks: decode, consume the
outstanding request, check the status or token, then ``accept``. Each
refusal is a raised ``FedBridgeError``; its code goes out in ``X-Outcome``.
"""

from __future__ import annotations

import secrets
import threading
import time
from dataclasses import dataclass
from datetime import timedelta
from urllib.parse import urlparse

from .bindings import (
    PostMessage,
    RedirectMessage,
    decode_saml_redirect,
    decode_saml_response_post,
    decode_wsfed_signin,
    decode_wsfed_signin_response_post,
    encode_saml_redirect,
    encode_saml_response_post,
    encode_wsfed_signin,
    encode_wsfed_signin_response_post,
)
from .errors import FedBridgeError, LifetimeInvalid, NoSubject, TokenMissing, UnknownSubject
from .httpd import (
    HttpResponse,
    RouteHandler,
    form_response,
    page_response,
    redirect_response,
)
from .messages import (
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
from .translate import (
    SAML2_ASSERTION_TOKEN_TYPE,
    WST_ISSUE_URI,
    claims_to_name_id_policy,
    name_id_policy_to_claims,
)
from .trust import FederationEntity

UNSPECIFIED_NAMEID_FORMAT = "urn:oasis:names:tc:SAML:1.1:nameid-format:unspecified"
PASSWORD_CONTEXT_CLASS = "urn:oasis:names:tc:SAML:2.0:ac:classes:Password"
ASSERTION_LIFETIME_SECONDS = 300


class Refused(FedBridgeError):
    """A refusal only the mock providers make, such as ``UnknownRequest``."""

    def __init__(self, code: str):
        super().__init__()
        self.code = code


@dataclass
class SecurityContext:
    """What a service provider holds after a successful sign-in."""

    subject: str
    subject_format: str
    attributes: tuple[tuple[str, str], ...]
    assertion: SamlAssertion
    correlation: str


class MockAuthority:
    """Common identity-provider machinery: user table, sessions, issuance."""

    def __init__(
        self,
        entity: FederationEntity,
        signing_key: KeyRecord,
        users: dict[str, dict[str, str]],
        *,
        active_subject: str | None = None,
        has_session: bool = True,
        clock_skew: float = 60.0,
    ):
        self.entity = entity
        self.signing_key = signing_key
        self.users = users
        self.active_subject = active_subject or next(iter(users), None)
        self.clock_skew = clock_skew
        self.auth_events: list[str] = []
        self.issued: list[SamlAssertion] = []
        self._sessions: set[str] = set(self.users) if has_session else set()
        self._lock = threading.Lock()

    def authenticate(self, force: bool) -> str:
        """The active subject, prompted (an authentication event recorded)
        unless a session exists and the request does not force freshness."""
        subject = self.active_subject
        if subject not in self.users:
            raise UnknownSubject(str(subject))
        with self._lock:
            if force or subject not in self._sessions:
                self.auth_events.append(subject)
                self._sessions.add(subject)
        return subject

    def issue_assertion(
        self,
        subject: str,
        authn_context_class: str,
        name_format: str = UNSPECIFIED_NAMEID_FORMAT,
        attrs: tuple[tuple[str, str], ...] | None = None,
    ) -> SamlAssertion:
        if subject not in self.users:
            raise UnknownSubject(subject)
        if attrs is None:
            attrs = tuple(sorted(self.users[subject].items()))
        now = utc_now()
        assertion = sign(
            SamlAssertion(
                id=fresh_id(),
                issuer=self.entity.id,
                subject_name=subject,
                subject_name_format=name_format,
                authn_context_class=authn_context_class,
                authn_instant=now,
                not_before=now - timedelta(seconds=int(self.clock_skew)),
                not_on_or_after=now + timedelta(seconds=ASSERTION_LIFETIME_SECONDS),
                attributes=attrs,
            ),
            self.signing_key,
        )
        with self._lock:
            self.issued.append(assertion)
        return assertion


class MockWsfedSts(MockAuthority):
    """WS-Federation authority: answers sign-in redirects with an issued
    token posted back through the passive client."""

    def handle_signin(self, params: dict[str, str]) -> PostMessage:
        rst, wctx = decode_wsfed_signin(params)
        subject = self.authenticate(rst.force_authn)

        name_format = (
            claims_to_name_id_policy(rst.claims_dialect, rst.claim_types)
            or UNSPECIFIED_NAMEID_FORMAT
        )
        assertion = self.issue_assertion(
            subject,
            rst.authentication_type or PASSWORD_CONTEXT_CLASS,
            name_format=name_format,
        )
        rstr = WstRequestSecurityTokenResponse(
            context=wctx,
            token_type=SAML2_ASSERTION_TOKEN_TYPE,
            requested_token=assertion,
            lifetime=(assertion.not_before, assertion.not_on_or_after),
        )
        return encode_wsfed_signin_response_post(rstr, wctx, rst.reply_to)

    def routes(self) -> dict[tuple[str, str], RouteHandler]:
        return {("GET", "/signin"): lambda query: form_response(self.handle_signin(query))}


class MockSamlIdp(MockAuthority):
    """SAML authority: answers authentication requests at its single
    sign-on endpoint."""

    def handle_sso(self, params: dict[str, str]) -> PostMessage:
        req, relay_state = decode_saml_redirect(params)
        subject = self.authenticate(req.force_authn)

        assertion = self.issue_assertion(
            subject,
            req.requested_authn_context[0]
            if req.requested_authn_context
            else PASSWORD_CONTEXT_CLASS,
            name_format=req.name_id_policy_format or UNSPECIFIED_NAMEID_FORMAT,
        )
        response = SamlResponse(
            id=fresh_id(),
            in_response_to=req.id,
            issuer=self.entity.id,
            status=SamlStatus.SUCCESS,
            assertion=assertion,
        )
        return encode_saml_response_post(response, relay_state, req.acs_url)

    def routes(self) -> dict[tuple[str, str], RouteHandler]:
        return {("GET", "/sso"): lambda query: form_response(self.handle_sso(query))}


class _MockSpBase:
    _mismatch = ""  # the code of a relay token other than the outstanding one

    def __init__(
        self,
        entity: FederationEntity,
        trusted: KeyStore,
        broker_entry_url: str,
        *,
        clock_skew: float = 60.0,
        name_id_format: str | None = None,
        force_authn: bool = False,
    ):
        self.entity = entity
        self.trusted = trusted
        self.broker_entry_url = broker_entry_url
        self.clock_skew = clock_skew
        self.name_id_format = name_id_format
        self.force_authn = force_authn
        self.contexts: list[SecurityContext] = []
        self.failures: list[str] = []
        self._outstanding: dict[str, str] = {}
        self._lock = threading.Lock()

    @property
    def login_url(self) -> str:
        consumer = self.entity.endpoints.get("acs") or self.entity.endpoints.get("return", "")
        parsed = urlparse(consumer)
        return f"{parsed.scheme}://{parsed.netloc}/login"

    def _consume(self, key: str, relay: str) -> None:
        """Spend the outstanding request ``key``; its relay token must be ``relay``."""
        with self._lock:
            expected = self._outstanding.pop(key, None)
        if expected is None:
            raise Refused("UnknownRequest")
        if relay != expected:
            raise Refused(self._mismatch)

    def accept(self, assertion: SamlAssertion, correlation: str) -> SecurityContext:
        """Establish and record a security context, or raise the refusal.

        Checked in order: the signature under the trusted keys, a subject
        name, and ``not_before - skew <= now < not_on_or_after + skew``.
        """
        verify(assertion, self.trusted)
        if not assertion.subject_name:
            raise NoSubject(f"assertion {assertion.id} names no subject")
        now = time.time()
        if (
            now < assertion.not_before.timestamp() - self.clock_skew
            or now >= assertion.not_on_or_after.timestamp() + self.clock_skew
        ):
            raise LifetimeInvalid(f"assertion {assertion.id} is outside its validity window")
        context = SecurityContext(
            subject=assertion.subject_name,
            subject_format=assertion.subject_name_format,
            attributes=assertion.attributes,
            assertion=assertion,
            correlation=correlation,
        )
        with self._lock:
            self.contexts.append(context)
        return context

    def _fail(self, code: str, correlation: str) -> HttpResponse:
        with self._lock:
            self.failures.append(code)
        return page_response(
            "sign-in failed",
            code,
            status=403,
            headers=(("X-Outcome", f"failed:{code}"), ("X-Correlation", correlation)),
        )

    def _established(self, context: SecurityContext) -> HttpResponse:
        return page_response(
            "signed in",
            f"welcome {context.subject}",
            headers=(("X-Outcome", "established"), ("X-Correlation", context.correlation)),
        )


class MockSamlSp(_MockSpBase):
    """SAML service provider: initiates at /login, consumes at /acs."""

    _mismatch = "RelayStateMismatch"

    def start_login(self) -> RedirectMessage:
        request = SamlAuthnRequest(
            id=fresh_id(),
            issue_instant=utc_now(),
            issuer=self.entity.id,
            destination=self.broker_entry_url,
            acs_url=self.entity.endpoint("acs"),
            name_id_policy_format=self.name_id_format,
            requested_authn_context=(PASSWORD_CONTEXT_CLASS,),
            force_authn=self.force_authn,
        )
        relay_state = secrets.token_urlsafe(12)
        with self._lock:
            self._outstanding[request.id] = relay_state
        return encode_saml_redirect(request, relay_state, self.broker_entry_url)

    def handle_acs(self, fields: dict[str, str]) -> HttpResponse:
        correlation = ""
        try:
            response, relay_state = decode_saml_response_post(fields)
            correlation = response.in_response_to
            self._consume(correlation, relay_state)
            if response.status is not SamlStatus.SUCCESS:
                raise Refused(f"Status:{response.status.value}")
            assert response.assertion is not None  # a Success response carries one
            context = self.accept(response.assertion, correlation)
        except FedBridgeError as exc:
            return self._fail(exc.code, correlation)
        return self._established(context)

    def routes(self) -> dict[tuple[str, str], RouteHandler]:
        return {
            ("GET", "/login"): lambda _: redirect_response(self.start_login()),
            ("POST", "/acs"): self.handle_acs,
        }


class MockWsfedSp(_MockSpBase):
    """WS-Federation service provider: initiates at /login, consumes at /return."""

    _mismatch = "ContextMismatch"

    def start_login(self) -> RedirectMessage:
        claims_dialect = None
        claim_types: tuple[str, ...] = ()
        if self.name_id_format is not None:
            claims_dialect, claim_types = name_id_policy_to_claims(self.name_id_format)
        context = secrets.token_urlsafe(12)
        rst = WstRequestSecurityToken(
            context=context,
            request_type=WST_ISSUE_URI,
            token_type=SAML2_ASSERTION_TOKEN_TYPE,
            reply_to=self.entity.endpoint("return"),
            claims_dialect=claims_dialect,
            claim_types=claim_types,
            force_authn=self.force_authn,
        )
        with self._lock:
            self._outstanding[context] = context
        return encode_wsfed_signin(rst, context, self.broker_entry_url)

    def handle_return(self, fields: dict[str, str]) -> HttpResponse:
        wctx = fields.get("wctx", "")
        try:
            rstr, _ = decode_wsfed_signin_response_post(fields)
            self._consume(wctx, rstr.context)
            if rstr.requested_token is None:
                raise TokenMissing("wresult carries no security token")
            context = self.accept(rstr.requested_token, wctx)
        except FedBridgeError as exc:
            return self._fail(exc.code, wctx)
        return self._established(context)

    def routes(self) -> dict[tuple[str, str], RouteHandler]:
        return {
            ("GET", "/login"): lambda _: redirect_response(self.start_login()),
            ("POST", "/return"): self.handle_return,
        }
