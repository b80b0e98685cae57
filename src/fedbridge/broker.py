"""The dedicated third party: terminates one dialect, translates, re-signs,
relays on the other.

Flow A (SAML service provider, WS-Federation authority): the provider's
authentication request arrives on /saml/sso, leaves as a WS-Trust issue
request toward the token service, and the issued assertion comes back on
/wsfed/return to be verified, re-signed and posted to the provider's
assertion consumer endpoint. Flow B is the mirror image through
/wsfed/signin and /saml/acs.

The four handle_* methods do only their dialect's work (decode, provider
lookup, translation, encode) over one inbound and one return path shared by
both flows. ``_open`` refuses an origin request ID (SAML request ID or RST
Context) already seen from its provider, finds the bridged authority and
draws a correlation, which ``_redirect`` keeps only once the request is
translated and encoded. ``_close`` requires the correlation parameter,
consumes it once and checks the flow's origin dialect; the response must
answer the broker's own request (RSTR Context or InResponseTo), and
``_relay`` passes an authority's refusal on as a SAML ``Responder`` status
or a token-less RSTR. Before it relays an assertion, ``check_relayable``
refuses one from another authority than the one the flow was sent to, one
outside its validity window (with the configured clock skew), and one
relayed before.

Everything a request needs from the configuration is resolved once, at
start, into a frozen ``RequestPlan``, and the keys come loaded on their
``KeyRecord``: no request walks the trust graph or rebuilds a key.

The correlation store (entries consumed at most once, atomically), the
seen-request-id set and the set of relayed assertion IDs drop expired
entries as new ones arrive, so each stays bounded by request rate x TTL,
abandoned flows included. Persistent pseudonyms are derived afresh on every
sign-on; the broker keeps the set of those it has issued, and no subject
name. No credential passes the broker.
"""

from __future__ import annotations

import json
import logging
import secrets
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

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
from .config import BrokerConfig
from .errors import (
    ExpiredCorrelation,
    FedBridgeError,
    LifetimeInvalid,
    NoTrustPath,
    ProtocolError,
    Replay,
    UnknownCorrelation,
    UnknownEntity,
    UnknownIssuer,
    UntrustedIssuer,
)
from .httpd import (
    HttpRequest,
    HttpResponse,
    RouteHandler,
    ServerHandle,
    form_response,
    page_response,
    redirect_response,
    start_server,
)
from .messages import (
    EntityId,
    SamlAssertion,
    SamlResponse,
    SamlStatus,
    WstRequestSecurityTokenResponse,
    fresh_id,
)
from .pseudonym import derive_persistent, fresh_transient
from .translate import (
    SAML2_ASSERTION_TOKEN_TYPE,
    AssertionTransform,
    rst_to_authn_request,
    authn_request_to_rst,
    rstr_to_saml_response,
    saml_response_to_rstr,
)
from .trust import Dialect, FederationEntity, Role, TrustTopology, resolve_path

logger = logging.getLogger(__name__)

PERSISTENT_NAMEID_FORMAT = "urn:oasis:names:tc:SAML:2.0:nameid-format:persistent"
TRANSIENT_NAMEID_FORMAT = "urn:oasis:names:tc:SAML:2.0:nameid-format:transient"

# How long past its relay an assertion may stay valid, beyond the clock skew:
# the mock authorities' 300 s. It sizes how long the broker remembers the ID
# of an assertion it relayed.
MAX_ASSERTION_LIFETIME_S = 300


@dataclass
class CorrelationEntry:
    """State tying the broker's outbound leg back to the originating one.

    ``correlation_id`` rides the outbound transport (wctx in flow A,
    RelayState in flow B); ``original_request_id`` is whatever the origin
    provider correlates on (its request ID, or its WS-Trust context);
    ``origin_relay`` is the transport token echoed back on the final POST;
    ``expected_issuer`` is the authority the outbound leg went to, the only
    issuer whose assertion the return leg relays.
    """

    correlation_id: str
    original_request_id: str
    origin_sp: EntityId
    origin_dialect: Dialect
    acs_or_return_url: str
    created: float
    ttl: float
    origin_relay: str = ""
    outbound_request_id: str = ""
    expected_issuer: EntityId | None = None


class _ExpiringMap:
    """An insertion-ordered map and its lock, swept from the front.

    Every entry of one map lives for the same TTL, so insertion order is
    also expiry order: a sweep pops expired entries off the front and stops
    at the first live one. Insert, pop and sweep are O(1) amortised, no
    entry is dropped before its own TTL has passed, and the map holds what
    arrived within the last TTL. Only a wall clock stepping back leaves an
    expired entry behind a live one, until the live one expires.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def _expired(self, value, now: float) -> bool:
        raise NotImplementedError

    def _sweep(self, now: float) -> None:
        """Drop the expired entries at the front; the caller holds the lock."""
        entries = self._entries
        while entries and self._expired(next(iter(entries.values())), now):
            entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


class CorrelationStore(_ExpiringMap):
    """Consume-once TTL store; concurrent duplicate consumes get exactly one hit."""

    _entries: OrderedDict[str, CorrelationEntry]

    def _expired(self, entry: CorrelationEntry, now: float) -> bool:
        return now - entry.created > entry.ttl

    def put(self, entry: CorrelationEntry) -> None:
        with self._lock:
            self._sweep(time.time())
            self._entries[entry.correlation_id] = entry

    def consume(self, correlation_id: str) -> CorrelationEntry:
        with self._lock:
            entry = self._entries.pop(correlation_id, None)
        if entry is None:
            raise UnknownCorrelation(correlation_id)
        # An entry past its TTL that no put has swept yet.
        if self._expired(entry, time.time()):
            raise ExpiredCorrelation(correlation_id)
        return entry


class SeenRequestIds(_ExpiringMap):
    """Replay guard: an ID, of a request or of an assertion, may be presented
    once per TTL window by one issuer."""

    _entries: OrderedDict[tuple[str, str], float]

    def __init__(self, ttl: float) -> None:
        super().__init__()
        self._ttl = ttl

    def _expired(self, seen_at: float, now: float) -> bool:
        return now - seen_at > self._ttl

    def observe(self, issuer: EntityId, request_id: str) -> None:
        key = (issuer.value, request_id)
        with self._lock:
            now = time.time()
            self._sweep(now)
            seen_at = self._entries.get(key)
            if seen_at is not None and not self._expired(seen_at, now):
                raise Replay(f"id {request_id} already seen from {issuer}")
            self._entries[key] = now


@dataclass(frozen=True)
class RequestPlan:
    """The request-time lookups, compiled from the topology at start.

    The topology never changes while the broker runs, so neither does the
    identity provider it bridges each service provider to, nor the
    WS-Federation provider that replies at each address. A lookup that
    finds nothing still fails the request: ``NoTrustPath`` for a provider
    the broker does not bridge, ``UnknownIssuer`` for an unknown address.
    """

    bridged_ips: Mapping[EntityId, FederationEntity | None]
    wsfed_sps_by_reply_to: Mapping[str, FederationEntity]

    @classmethod
    def compile(cls, topology: TrustTopology, broker_id: EntityId) -> RequestPlan:
        idps = topology.by_role(Role.IDENTITY_PROVIDER)
        sps = topology.by_role(Role.SERVICE_PROVIDER)
        bridged_ips: dict[EntityId, FederationEntity | None] = {}
        reply_to: dict[str, FederationEntity] = {}
        for sp in sps:
            bridged_ips[sp.id] = next(
                (ip for ip in idps if ip.dialect is not sp.dialect
                 and _bridges(topology, broker_id, sp, ip)),
                None,
            )
            address = sp.endpoints.get("return")
            if sp.dialect is Dialect.WSFED11B and address is not None:
                # Providers sharing an address: the first by entity ID wins.
                reply_to.setdefault(address, sp)
        return cls(MappingProxyType(bridged_ips), MappingProxyType(reply_to))

    def bridged_ip(self, sp: FederationEntity) -> FederationEntity:
        """The identity provider this broker bridges the given SP to."""
        ip = self.bridged_ips.get(sp.id)
        if ip is None:
            raise NoTrustPath(f"no identity provider brokered for {sp.id}")
        return ip

    def wsfed_sp(self, reply_to: str) -> FederationEntity:
        try:
            return self.wsfed_sps_by_reply_to[reply_to]
        except KeyError:
            raise UnknownIssuer(
                f"no registered service provider replies at {reply_to}"
            ) from None


def _bridges(
    topology: TrustTopology, broker_id: EntityId, sp: FederationEntity, ip: FederationEntity
) -> bool:
    try:
        path = resolve_path(topology, sp.id, ip.id)
    except (NoTrustPath, UnknownEntity):
        return False
    return len(path) == 3 and path[1] == broker_id


class Broker:
    """Protocol-level broker; the HTTP surface is a thin adapter over the
    four handle_* operations so they stay directly exercisable."""

    def __init__(self, config: BrokerConfig):
        self.config = config
        self.broker_id = config.broker_id
        self.signing_key = config.signing_key
        self.verify_store = config.broker_verify_store()
        self.correlations = CorrelationStore()
        self.seen_ids = SeenRequestIds(config.replay_ttl)
        # An assertion passes the window check until NotOnOrAfter + skew, and
        # its NotOnOrAfter may lie MAX_ASSERTION_LIFETIME_S + skew ahead.
        self.seen_assertions = SeenRequestIds(MAX_ASSERTION_LIFETIME_S + 2 * config.clock_skew)
        # The persistent pseudonyms issued, for the benchmark's gauge only.
        self.pseudonyms: set[str] = set()
        self.plan = RequestPlan.compile(config.topology, self.broker_id)

    # -- helpers -------------------------------------------------------------

    def _registered_sp(self, issuer: EntityId, dialect: Dialect) -> FederationEntity:
        try:
            entity = self.config.topology.entity(issuer)
        except UnknownEntity:
            raise UnknownIssuer(str(issuer)) from None
        if entity.role is not Role.SERVICE_PROVIDER or entity.dialect is not dialect:
            raise UnknownIssuer(f"{issuer} is not a registered {dialect.value} service provider")
        return entity

    def _pseudonym_transform(self, sp: EntityId) -> AssertionTransform | None:
        mode = self.config.pseudonym_modes.get(sp.value, "none")
        if mode == "none":
            return None
        secret = self.config.pseudonym_secret
        assert secret is not None  # enforced at config load

        def rewrite(assertion: SamlAssertion) -> SamlAssertion:
            if mode == "persistent":
                name = derive_persistent(assertion.subject_name, sp, secret)
                self.pseudonyms.add(name)
                name_format = PERSISTENT_NAMEID_FORMAT
            else:
                name, name_format = fresh_transient(), TRANSIENT_NAMEID_FORMAT
            return assertion.copy_with(subject_name=name, subject_name_format=name_format)

        return rewrite

    def _log_leg(self, leg: str, direction: str, correlation_id: str, outcome: str) -> None:
        if logger.isEnabledFor(logging.INFO):
            logger.info(json.dumps({"leg": leg, "direction": direction, "outcome": outcome,
                                    "correlation_id": correlation_id}, sort_keys=True))

    # -- the two shared paths --------------------------------------------------

    def _open(
        self, sp: FederationEntity, original_request_id: str, acs_or_return_url: str,
        origin_relay: str, outbound_request_id: str = "",
    ) -> tuple[CorrelationEntry, FederationEntity]:
        """Inbound leg: refuse a replayed origin request, find the bridged
        authority, and draw the correlation the outbound leg carries."""
        if original_request_id:  # an RST need not carry a Context: no ID, nothing to guard
            self.seen_ids.observe(sp.id, original_request_id)
        ip = self.plan.bridged_ip(sp)
        entry = CorrelationEntry(
            secrets.token_urlsafe(24), original_request_id, sp.id, sp.dialect, acs_or_return_url,
            time.time(), self.config.correlation_ttl, origin_relay, outbound_request_id, ip.id,
        )
        return entry, ip

    def _redirect(self, leg: str, entry: CorrelationEntry, encode, request, target: str):
        """Inbound leg: the translated request leaves with the correlation; it
        is kept only now, so a request that fails on the way leaves none."""
        message = encode(request, entry.correlation_id, target)
        self.correlations.put(entry)
        self._log_leg(leg, "sp->broker->ip", entry.correlation_id, "redirected")
        return message

    def _close(self, fields: dict[str, str], name: str, origin: Dialect) -> CorrelationEntry:
        """Return leg: the correlation parameter, consumed at most once, of a
        flow that began in the given dialect."""
        correlation_id = fields.get(name, "")
        if not correlation_id:
            raise ProtocolError(f"missing parameter {name}")
        entry = self.correlations.consume(correlation_id)
        if entry.origin_dialect is not origin:
            raise ProtocolError(f"correlation does not belong to a {origin.value}-origin flow")
        return entry

    def _relay(
        self, leg: str, entry: CorrelationEntry, status: SamlStatus,
        assertion: SamlAssertion | None, encode, result,
    ):
        """Return leg: a relayed assertion must be relayable; the result goes
        to the origin's consumer with its own relay token, the authority's
        refusal included."""
        if status is SamlStatus.SUCCESS:
            self.check_relayable(assertion, entry, time.time())
        message = encode(result, entry.origin_relay, entry.acs_or_return_url)
        outcome = "relayed" if status is SamlStatus.SUCCESS else f"relayed-error:{status.value}"
        self._log_leg(leg, "ip->broker->sp", entry.correlation_id, outcome)
        return message

    def check_relayable(
        self, assertion: SamlAssertion, entry: CorrelationEntry, now: float
    ) -> None:
        """Refuse an assertion the final service provider must not accept.

        The relayed copy keeps the authority's ID, issuer and validity
        window, so they are read there. Refused: another issuer than the
        authority the flow went to; an instant ``now`` outside the window,
        widened by the clock skew; a NotOnOrAfter further ahead than
        ``MAX_ASSERTION_LIFETIME_S`` plus the skew, which the set of relayed
        IDs could not outlive; and an ID that set already holds.
        """
        if assertion.issuer != entry.expected_issuer:
            raise UntrustedIssuer(f"{assertion.issuer} is not the authority this flow went to")
        skew = self.config.clock_skew
        not_on_or_after = assertion.not_on_or_after.timestamp()
        if now < assertion.not_before.timestamp() - skew or now >= not_on_or_after + skew:
            raise LifetimeInvalid(f"assertion {assertion.id} is outside its validity window")
        if not_on_or_after > now + MAX_ASSERTION_LIFETIME_S + skew:
            raise LifetimeInvalid(
                f"assertion {assertion.id} stays valid longer than {MAX_ASSERTION_LIFETIME_S} s"
            )
        self.seen_assertions.observe(assertion.issuer, assertion.id)

    # -- flow A: SAML SP -> broker -> WS-Fed IP --------------------------------

    def handle_saml_sso(self, params: dict[str, str]) -> RedirectMessage:
        """SAML authentication request in, WS-Federation sign-in redirect out."""
        req, relay_state = decode_saml_redirect(params)
        sp = self._registered_sp(req.issuer, Dialect.SAML2)
        registered_acs = sp.endpoints.get("acs", "")
        if req.acs_url and registered_acs and req.acs_url != registered_acs:
            raise ProtocolError(f"request ACS {req.acs_url} differs from registered endpoint")
        acs_url = req.acs_url or registered_acs
        if not acs_url:
            raise ProtocolError(f"{sp.id} has no assertion consumer endpoint")

        entry, ip = self._open(sp, req.id, acs_url, relay_state)
        # The token must come back through this broker, not go straight to
        # the origin provider; its consumer URL lives in the correlation entry.
        rst = authn_request_to_rst(
            req, self.config.ctx_map, context=entry.correlation_id,
            reply_to=self.config.broker_entity.endpoint("wsfed_return"),
        )
        return self._redirect("saml_sso", entry, encode_wsfed_signin, rst, ip.endpoint("signin"))

    def handle_wsfed_return(self, fields: dict[str, str]) -> PostMessage:
        """Issued token comes back; extract, re-sign, reformat, relay."""
        entry = self._close(fields, "wctx", Dialect.SAML2)
        rstr, _ = decode_wsfed_signin_response_post(fields, require_token=False)
        if rstr.context != entry.correlation_id:
            raise ProtocolError("wresult context does not match correlation")

        if rstr.requested_token is None:
            response = SamlResponse(id=fresh_id(), in_response_to=entry.original_request_id,
                                    issuer=self.broker_id, status=SamlStatus.RESPONDER)
        else:
            response = rstr_to_saml_response(
                rstr, self.verify_store, self.signing_key,
                in_response_to=entry.original_request_id, attr_map=self.config.attr_map,
                transform=self._pseudonym_transform(entry.origin_sp),
            )
        return self._relay("wsfed_return", entry, response.status, response.assertion,
                           encode_saml_response_post, response)

    # -- flow B: WS-Fed SP -> broker -> SAML IdP --------------------------------

    def handle_wsfed_signin(self, params: dict[str, str]) -> RedirectMessage:
        """WS-Trust issue request in, SAML authentication redirect out."""
        rst, wctx = decode_wsfed_signin(params)
        sp = self.plan.wsfed_sp(rst.reply_to)
        entry, ip = self._open(sp, rst.context, rst.reply_to, wctx, outbound_request_id=fresh_id())
        sso = ip.endpoint("sso")
        saml_req = rst_to_authn_request(
            rst, self.config.ctx_map, issuer=self.broker_id,
            acs_url=self.config.broker_entity.endpoint("saml_acs"),
            destination=sso, request_id=entry.outbound_request_id,
        )
        return self._redirect("wsfed_signin", entry, encode_saml_redirect, saml_req, sso)

    def handle_saml_acs(self, fields: dict[str, str]) -> PostMessage:
        """SAML response comes back; re-sign the assertion into an RSTR."""
        entry = self._close(fields, "RelayState", Dialect.WSFED11B)
        response, _ = decode_saml_response_post(fields)
        if response.in_response_to != entry.outbound_request_id:
            raise ProtocolError("response does not answer the broker's request")

        if response.status is SamlStatus.SUCCESS:
            rstr = saml_response_to_rstr(
                response, self.verify_store, self.signing_key,
                context=entry.original_request_id, attr_map=self.config.attr_map,
                transform=self._pseudonym_transform(entry.origin_sp),
            )
        else:
            rstr = WstRequestSecurityTokenResponse(
                context=entry.original_request_id, token_type=SAML2_ASSERTION_TOKEN_TYPE
            )
        return self._relay("saml_acs", entry, response.status, rstr.requested_token,
                           encode_wsfed_signin_response_post, rstr)

    # -- HTTP surface -----------------------------------------------------------

    def routes(self) -> dict[tuple[str, str], RouteHandler]:
        routes = {
            (method, path): self._route(method, handler, respond)
            for method, path, handler, respond in (
                ("GET", "/saml/sso", self.handle_saml_sso, redirect_response),
                ("POST", "/wsfed/return", self.handle_wsfed_return, form_response),
                ("GET", "/wsfed/signin", self.handle_wsfed_signin, redirect_response),
                ("POST", "/saml/acs", self.handle_saml_acs, form_response),
            )
        }
        routes["GET", "/healthz"] = lambda _: page_response("ok", self.broker_id.value)
        return routes

    def _route(self, method: str, handler, respond) -> RouteHandler:
        """A handle_* operation over HTTP; a refusal is logged under its leg."""
        leg = handler.__name__.removeprefix("handle_")

        def route(request: HttpRequest) -> HttpResponse:
            params = request.query if method == "GET" else request.form
            try:
                return respond(handler(params))
            except FedBridgeError as exc:
                correlation = params.get("wctx") or params.get("RelayState") or ""
                self._log_leg(leg, "error", correlation, exc.code)
                raise

        return route

    def serve(self) -> ServerHandle:
        return start_server(
            self.config.listen_host, self.config.listen_port, self.routes(), "broker"
        )
