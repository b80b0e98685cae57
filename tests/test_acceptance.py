"""Acceptance suite: one test per criterion, at the stated scale and
tolerance. The conftest hook prints a PASS/FAIL line per criterion.

C1  issue-request constant fidelity (100 requests, exact bytes, < 1 s)
C2  subject-name claim mapping fidelity (exact strings, both directions)
C3  request translation round trip (1000 requests, 0 failures)
C4  end-to-end flow A (Pass, broker-signed, byte-identical, < 5 s)
C5  end-to-end flow B (Pass, broker-signed wresult, matching wctx)
C6  tamper rejection (3/3 mutations refused, no downstream POST)
C7  topology responsibility rules (3 canned topologies + ambiguous)
C8  transport parameter exactness + inverse (1000 documents, 0 failures)
C9  pseudonymity (10^4 subjects x 2 SPs, deterministic/disjoint/collision-free, < 5 s)
C10 unmapped-context error path (strict raises, pass-through forwards)
C11 concurrency (50 concurrent flows Pass; duplicate delivery -> one success)
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import replace
from datetime import timedelta
from urllib.parse import parse_qs, urlparse

import pytest

from fedbridge.bindings import (
    decode_saml_redirect,
    decode_saml_response_post,
    decode_wsfed_signin,
    decode_wsfed_signin_response_post,
    encode_saml_redirect,
    encode_saml_response_post,
    encode_wsfed_signin,
    encode_wsfed_signin_response_post,
    encode_wsfed_signin_response_post as encode_wresult,
)
from fedbridge.broker import Broker
from fedbridge.client import extract_form, http_exchange
from fedbridge.errors import (
    SignatureInvalid,
    UnknownCorrelation,
    UnmappedAuthnContext,
)
from fedbridge.messages import (
    EntityId,
    SamlAssertion,
    SamlAuthnRequest,
    SamlResponse,
    SamlStatus,
    WstRequestSecurityToken,
    WstRequestSecurityTokenResponse,
    canonical_bytes,
    fresh_id,
    serialize,
    utc_now,
)
from fedbridge.pseudonym import derive_persistent, fresh_transient
from fedbridge.scenarios import (
    DEFAULT_AUTHN_CONTEXT_ENTRIES,
    Scenario,
    environment,
    run_concurrent,
    run_flow,
)
from fedbridge.signing import KeyStore, verify
from fedbridge.translate import (
    AuthnContextMapping,
    authn_request_to_rst,
    claims_to_name_id_policy,
    map_authn_context,
    MappingDirection,
    name_id_policy_to_claims,
    rst_to_authn_request,
)
from fedbridge.trust import resolve_responsible

from support import NOW, make_authn_request, make_response, make_rst, make_rstr
from test_trust import authority_centered, brokered, dual_hub, eid, provider_centered

ISSUE_URI = "http://docs.oasis-open.org/ws-sx/ws-trust/200512/Issue"
SAML2_TOKEN_TYPE = "urn:oasis:names:tc:SAML:2.0:assertion"
AUTHCLAIMS = "http://schemas.xmlsoap.org/ws/2006/12/authorization/authclaims"
EMAIL_FORMAT = "urn:oasis:names:tc:SAML:1.1:nameid-format:emailAddress"

CTX_MAP = AuthnContextMapping(
    entries=tuple((a, b) for a, b in DEFAULT_AUTHN_CONTEXT_ENTRIES)
)
CTX_POOL = [a for a, _ in DEFAULT_AUTHN_CONTEXT_ENTRIES]

NAME_FORMATS = [
    None,
    EMAIL_FORMAT,
    "urn:oasis:names:tc:SAML:2.0:nameid-format:persistent",
    "urn:oasis:names:tc:SAML:2.0:nameid-format:transient",
]

_TEXT_POOL = "abcdefghijklmnopqrstuvwxyz0123456789 &<>\"'~@/:."


def _rng_text(rng: random.Random, max_len: int = 24) -> str:
    return "".join(rng.choice(_TEXT_POOL) for _ in range(rng.randint(0, max_len)))


def _rng_request(rng: random.Random) -> SamlAuthnRequest:
    # Context classes restricted to the configured bijection; the WS-Trust
    # authentication type is single-valued, so at most one class round-trips.
    classes = (rng.choice(CTX_POOL),) if rng.random() < 0.75 else ()
    return SamlAuthnRequest(
        id=f"_{rng.getrandbits(96):024x}",
        issue_instant=NOW,
        issuer=EntityId(f"https://sp{rng.randint(0, 99)}.example.test"),
        destination="" if rng.random() < 0.3 else "https://broker.example.test/saml/sso",
        acs_url=f"https://sp{rng.randint(0, 99)}.example.test/acs",
        name_id_policy_format=rng.choice(NAME_FORMATS),
        requested_authn_context=classes,
        force_authn=rng.random() < 0.5,
    )


def _rng_assertion(rng: random.Random) -> SamlAssertion:
    attrs = tuple(
        (f"urn:example:attr:a{i}", _rng_text(rng)) for i in range(rng.randint(0, 3))
    )
    return SamlAssertion(
        id=f"_{rng.getrandbits(96):024x}",
        issuer=EntityId(f"https://idp{rng.randint(0, 9)}.example.test"),
        subject_name=_rng_text(rng) or "subject",
        subject_name_format=rng.choice(NAME_FORMATS[1:]),
        authn_context_class=rng.choice(CTX_POOL),
        authn_instant=NOW,
        not_before=NOW - timedelta(seconds=rng.randint(1, 300)),
        not_on_or_after=NOW + timedelta(seconds=rng.randint(1, 3600)),
        attributes=attrs,
    )


def _rng_response(rng: random.Random) -> SamlResponse:
    status = rng.choice(list(SamlStatus))
    return SamlResponse(
        id=f"_{rng.getrandbits(96):024x}",
        in_response_to=f"_{rng.getrandbits(64):016x}" if rng.random() < 0.8 else "",
        issuer=EntityId("https://idp.example.test"),
        status=status,
        assertion=_rng_assertion(rng) if status is SamlStatus.SUCCESS else None,
    )


def _rng_rst(rng: random.Random) -> WstRequestSecurityToken:
    name_format = rng.choice(NAME_FORMATS)
    dialect, claim_types = (
        name_id_policy_to_claims(name_format) if name_format else (None, ())
    )
    return WstRequestSecurityToken(
        context=f"ctx-{rng.getrandbits(48):012x}",
        request_type=ISSUE_URI,
        token_type=SAML2_TOKEN_TYPE,
        reply_to=f"https://rp{rng.randint(0, 99)}.example.test/return",
        claims_dialect=dialect,
        claim_types=claim_types,
        authentication_type=rng.choice([None, *(b for _, b in DEFAULT_AUTHN_CONTEXT_ENTRIES)]),
        force_authn=rng.random() < 0.5,
    )


def _rng_rstr(rng: random.Random) -> WstRequestSecurityTokenResponse:
    token = _rng_assertion(rng)
    return WstRequestSecurityTokenResponse(
        context=f"ctx-{rng.getrandbits(48):012x}",
        token_type=SAML2_TOKEN_TYPE,
        requested_token=token,
        lifetime=(token.not_before, token.not_on_or_after),
    )


def _location_params(message) -> dict[str, str]:
    query = urlparse(message.location).query
    return {k: v[0] for k, v in parse_qs(query, keep_blank_values=True).items()}


def test_c01_issue_request_constant_fidelity():
    rng = random.Random(101)
    started = time.monotonic()
    for _ in range(100):
        rst = authn_request_to_rst(_rng_request(rng), CTX_MAP, context=fresh_id())
        xml = serialize(rst)
        assert rst.request_type == ISSUE_URI
        assert rst.token_type == SAML2_TOKEN_TYPE
        assert f"<wst:RequestType>{ISSUE_URI}</wst:RequestType>" in xml
        assert f"<wst:TokenType>{SAML2_TOKEN_TYPE}</wst:TokenType>" in xml
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"constant check took {elapsed:.2f}s"


def test_c02_subject_name_claim_mapping_fidelity():
    dialect, claim_types = name_id_policy_to_claims(EMAIL_FORMAT)
    assert dialect == "http://schemas.xmlsoap.org/ws/2006/12/authorization/authclaims"
    assert claim_types == ("urn:oasis:names:tc:SAML:1.1:nameid-format:emailAddress",)
    assert claims_to_name_id_policy(dialect, claim_types) == EMAIL_FORMAT

    xml = serialize(
        authn_request_to_rst(
            make_authn_request(name_id_policy_format=EMAIL_FORMAT), CTX_MAP, "c"
        )
    )
    assert f'<wst:Claims Dialect="{AUTHCLAIMS}">' in xml
    assert f'<auth:ClaimType Uri="{EMAIL_FORMAT}"/>' in xml


def test_c03_translation_round_trip_1000():
    rng = random.Random(303)
    broker_id = EntityId("https://broker.example.test")
    failures = 0
    for _ in range(1000):
        req = _rng_request(rng)
        back = rst_to_authn_request(
            authn_request_to_rst(req, CTX_MAP, context="c"), CTX_MAP, broker_id
        )
        if (
            back.name_id_policy_format != req.name_id_policy_format
            or back.requested_authn_context != req.requested_authn_context
            or back.force_authn != req.force_authn
        ):
            failures += 1
    assert failures == 0


def test_c04_end_to_end_flow_a(demo_cfg):
    started = time.monotonic()
    with environment(demo_cfg) as env:
        trace = run_flow(env, Scenario.SAML_SP_TO_WSFED_IP)
        assert trace.passed, trace.reason

        received = env.saml_sp.contexts[-1]
        broker_store = KeyStore(
            [demo_cfg.public_keys[k] for k in demo_cfg.broker_entity.keys]
        )
        assert verify(received.assertion, broker_store) == demo_cfg.broker_id
        assert canonical_bytes(received.assertion) == canonical_bytes(
            env.wsfed_sts.issued[-1]
        )
        # in_response_to chain: decode the original SAMLRequest off the trace
        # and compare its id with the one the provider accepted against.
        original_request, _ = decode_saml_redirect(trace.steps[1].params)
        assert received.correlation == original_request.id
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"flow A took {elapsed:.2f}s including startup"


def test_c05_end_to_end_flow_b(demo_cfg):
    with environment(demo_cfg) as env:
        trace = run_flow(env, Scenario.WSFED_SP_TO_SAML_IP)
        assert trace.passed, trace.reason

        received = env.wsfed_sp.contexts[-1]
        broker_store = KeyStore(
            [demo_cfg.public_keys[k] for k in demo_cfg.broker_entity.keys]
        )
        assert verify(received.assertion, broker_store) == demo_cfg.broker_id
        assert canonical_bytes(received.assertion) == canonical_bytes(
            env.saml_idp.issued[-1]
        )
        # wctx chain: the provider's original context survives the round trip
        # on the transport parameter and inside the result document.
        original_wctx = trace.steps[1].params["wctx"]
        final_step = trace.steps[-1]
        assert final_step.params["wctx"] == original_wctx == received.correlation
        rstr, _ = decode_wsfed_signin_response_post(final_step.params)
        assert rstr.context == original_wctx
        assert rstr.requested_token.signature.key_id in demo_cfg.broker_entity.keys


def test_c06_tamper_rejection(demo_cfg):
    broker = Broker(demo_cfg)
    sp = demo_cfg.topology.entity(EntityId("https://saml-sp.example.test"))
    sts_entity = demo_cfg.topology.entity(EntityId("https://sts.example.test"))
    from fedbridge.mocks import MockWsfedSts

    sts = MockWsfedSts(
        sts_entity, demo_cfg.private_key_for(sts_entity.id), demo_cfg.mocks.users
    )

    mutations = [
        lambda a: replace(a, subject_name="mallory"),
        lambda a: replace(a, attributes=(("urn:example:attr:mail", "forged@evil"),)),
        lambda a: replace(a, not_on_or_after=a.not_on_or_after + timedelta(days=365)),
    ]

    rejected = 0
    for mutate in mutations:
        request = SamlAuthnRequest(
            id=fresh_id(),
            issue_instant=utc_now(),
            issuer=sp.id,
            destination="",
            acs_url=sp.endpoint("acs"),
        )
        redirect = broker.handle_saml_sso(
            _location_params(
                encode_saml_redirect(request, "rs", demo_cfg.broker_entity.endpoint("saml_sso"))
            )
        )
        sts_post = sts.handle_signin(_location_params(redirect))
        rstr, wctx = decode_wsfed_signin_response_post(dict(sts_post.fields))
        forged = encode_wresult(
            replace(rstr, requested_token=mutate(rstr.requested_token)), wctx, "ignored"
        )
        try:
            broker.handle_wsfed_return(dict(forged.fields))
        except SignatureInvalid:
            rejected += 1
    assert rejected == 3


def test_c07_topology_responsibility_rules():
    assert resolve_responsible(authority_centered(), eid("urn:sp-saml"), eid("urn:ip")) == eid("urn:ip")
    assert resolve_responsible(provider_centered(), eid("urn:sp"), eid("urn:ip-wsfed")) == eid("urn:sp")
    assert resolve_responsible(brokered(), eid("urn:sp"), eid("urn:ip")) == eid("urn:broker")
    with pytest.raises(Exception) as err:
        resolve_responsible(dual_hub(), eid("urn:sp"), eid("urn:ip"))
    assert err.value.code == "AmbiguousTopology"


def test_c08_transport_exactness_and_inverse_1000():
    # Golden parameter names, byte-exact.
    redirect = encode_saml_redirect(make_authn_request(), "rs", "https://ip/sso")
    assert [n for n, _ in redirect.params] == ["SAMLRequest", "RelayState"]
    signin = encode_wsfed_signin(make_rst(), "c", "https://ip/signin")
    assert [n for n, _ in signin.params] == ["wa", "wreq", "wctx"]
    assert dict(signin.params)["wa"] == "wsignin1.0"
    assert [n for n, _ in encode_saml_response_post(make_response(), "rs", "https://sp/acs").fields][0] == "SAMLResponse"
    assert [n for n, _ in encode_wsfed_signin_response_post(make_rstr(), "c", "https://sp/return").fields] == ["wa", "wresult", "wctx"]

    # Inverse property over 1000 generated documents, 250 per binding.
    rng = random.Random(808)
    failures = 0
    for _ in range(250):
        req = _rng_request(rng)
        out = decode_saml_redirect(
            _location_params(encode_saml_redirect(req, "rs", "https://ip/sso"))
        )[0]
        failures += out != req

        rst = _rng_rst(rng)
        out = decode_wsfed_signin(
            _location_params(encode_wsfed_signin(rst, "c", "https://ip/signin"))
        )[0]
        failures += out != rst

        resp = _rng_response(rng)
        out = decode_saml_response_post(
            dict(encode_saml_response_post(resp, "rs", "https://sp/acs").fields)
        )[0]
        failures += out != resp

        rstr = _rng_rstr(rng)
        out = decode_wsfed_signin_response_post(
            dict(encode_wsfed_signin_response_post(rstr, "c", "https://sp/return").fields)
        )[0]
        failures += out != rstr
    assert failures == 0


def test_c09_pseudonymity_corpus():
    secret = b"\x42" * 32
    sp1 = EntityId("https://sp1.example.test")
    sp2 = EntityId("https://sp2.example.test")
    subjects = [f"subject-{i}" for i in range(10_000)]

    started = time.monotonic()
    first_sp1 = [derive_persistent(s, sp1, secret) for s in subjects]
    second_sp1 = [derive_persistent(s, sp1, secret) for s in subjects]
    assert first_sp1 == second_sp1  # deterministic

    sp2_set = {derive_persistent(s, sp2, secret) for s in subjects}
    sp1_set = set(first_sp1)
    assert len(sp1_set) == len(subjects)  # collision-free
    assert len(sp2_set) == len(subjects)
    assert sp1_set.isdisjoint(sp2_set)  # pair-wise disjoint

    for _ in subjects[:100]:  # one fresh transient pseudonym per sign-on
        assert fresh_transient() != fresh_transient()
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"pseudonym corpus took {elapsed:.2f}s"


def test_c10_unmapped_context_error_path():
    strict = CTX_MAP
    lenient = AuthnContextMapping(entries=strict.entries, pass_through=True)
    exotic = "urn:oasis:names:tc:SAML:2.0:ac:classes:SmartcardPKI"

    request = make_authn_request(requested_authn_context=(exotic,))
    with pytest.raises(UnmappedAuthnContext):
        authn_request_to_rst(request, strict, "c")

    forwarded = authn_request_to_rst(request, lenient, "c")
    assert forwarded.authentication_type == exotic
    assert map_authn_context((exotic,), lenient, MappingDirection.SAML_TO_WST) == exotic


def test_c11_concurrency(demo_cfg):
    traces = run_concurrent(Scenario.SAML_SP_TO_WSFED_IP, demo_cfg, 50)
    assert len(traces) == 50
    assert all(t.passed for t in traces), [t.reason for t in traces if not t.passed]

    # Duplicate delivery of one wresult: exactly one success, one UnknownCorrelation.
    with environment(demo_cfg) as env:
        status, headers, _ = http_exchange("GET", env.saml_sp.login_url)
        assert status == 302
        status, headers, _ = http_exchange("GET", headers["Location"])
        assert status == 302
        status, headers, body = http_exchange("GET", headers["Location"])
        assert status == 200
        action, fields = extract_form(body)

        results: list[tuple[int, str]] = []
        lock = threading.Lock()
        barrier = threading.Barrier(2)

        def deliver():
            barrier.wait()
            code, response_headers, _ = http_exchange("POST", action, fields)
            with lock:
                results.append((code, response_headers.get("X-Error", "")))

        threads = [threading.Thread(target=deliver) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        codes = sorted(code for code, _ in results)
        assert codes == [200, 400], results
        assert [err for _, err in results if err] == ["UnknownCorrelation"]
