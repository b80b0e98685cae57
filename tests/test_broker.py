"""Broker handlers driven directly: correlation state, replay protection,
re-sign relay in both directions, pseudonym modes, error paths."""

from __future__ import annotations

import json
import logging
import sys
import threading
import time
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from urllib.parse import parse_qs, urlparse

import pytest
from cryptography.hazmat.primitives.asymmetric import ed25519

import fedbridge.broker as broker_module
from fedbridge.broker import (
    Broker,
    CorrelationEntry,
    CorrelationStore,
    PERSISTENT_NAMEID_FORMAT,
    SeenRequestIds,
    TRANSIENT_NAMEID_FORMAT,
)
from fedbridge.bindings import (
    decode_saml_redirect,
    decode_saml_response_post,
    decode_wsfed_signin,
    decode_wsfed_signin_response_post,
    encode_saml_redirect,
    encode_saml_response_post,
    encode_wsfed_signin,
    encode_wsfed_signin_response_post,
)
from fedbridge.config import config_from_dict
from fedbridge.errors import (
    ExpiredCorrelation,
    LifetimeInvalid,
    NoTrustPath,
    ProtocolError,
    Replay,
    SignatureInvalid,
    UnknownCorrelation,
    UnknownIssuer,
    UnsupportedRequestType,
    UntrustedIssuer,
)
from fedbridge.messages import (
    EntityId,
    SamlResponse,
    SamlStatus,
    WstRequestSecurityTokenResponse,
    canonical_bytes,
    fresh_id,
    utc_now,
)
from fedbridge.mocks import MockSamlIdp, MockSamlSp, MockWsfedSts
from fedbridge.pseudonym import derive_persistent
from fedbridge.signing import KeyStore, generate_keypair, sign, verify
from fedbridge.translate import SAML2_ASSERTION_TOKEN_TYPE
from fedbridge.trust import Dialect, TrustTopology

from support import make_rst

SAML_SP = "https://saml-sp.example.test"
WSFED_SP = "https://wsfed-sp.example.test"
STS = "https://sts.example.test"
IDP = "https://idp.example.test"
PASSWORD_CLASS = "urn:oasis:names:tc:SAML:2.0:ac:classes:Password"


def location_params(message) -> dict[str, str]:
    query = urlparse(message.location).query
    return {k: v[0] for k, v in parse_qs(query, keep_blank_values=True).items()}


@pytest.fixture
def broker(demo_cfg) -> Broker:
    return Broker(demo_cfg)


@pytest.fixture
def sts(demo_cfg) -> MockWsfedSts:
    entity = demo_cfg.topology.entity(EntityId(STS))
    return MockWsfedSts(
        entity,
        demo_cfg.private_key_for(entity.id),
        demo_cfg.mocks.users,
        active_subject="alice",
    )


@pytest.fixture
def idp(demo_cfg) -> MockSamlIdp:
    entity = demo_cfg.topology.entity(EntityId(IDP))
    return MockSamlIdp(
        entity,
        demo_cfg.private_key_for(entity.id),
        demo_cfg.mocks.users,
        active_subject="alice",
    )


def saml_sso_params(demo_cfg, **request_overrides) -> dict[str, str]:
    """Inbound /saml/sso parameters as a registered SAML SP would send them."""
    from fedbridge.messages import SamlAuthnRequest

    sp_entity = demo_cfg.topology.entity(EntityId(SAML_SP))
    values = dict(
        id=fresh_id(),
        issue_instant=utc_now(),
        issuer=sp_entity.id,
        destination=demo_cfg.broker_entity.endpoint("saml_sso"),
        acs_url=sp_entity.endpoint("acs"),
        name_id_policy_format="urn:oasis:names:tc:SAML:1.1:nameid-format:emailAddress",
        requested_authn_context=(PASSWORD_CLASS,),
    )
    values.update(request_overrides)
    req = SamlAuthnRequest(**values)
    message = encode_saml_redirect(
        req, "origin-relay-state", demo_cfg.broker_entity.endpoint("saml_sso")
    )
    return location_params(message) | {"__request_id": req.id}


def run_flow_a(broker, demo_cfg, sts, **request_overrides):
    params = saml_sso_params(demo_cfg, **request_overrides)
    request_id = params.pop("__request_id")
    redirect = broker.handle_saml_sso(params)
    sts_post = sts.handle_signin(location_params(redirect))
    final_post = broker.handle_wsfed_return(dict(sts_post.fields))
    return request_id, redirect, sts_post, final_post


def wsfed_signin_params(demo_cfg, **rst_overrides) -> dict[str, str]:
    sp_entity = demo_cfg.topology.entity(EntityId(WSFED_SP))
    values = dict(context="sp-context-1", reply_to=sp_entity.endpoint("return"))
    values.update(rst_overrides)
    rst = make_rst(**values)
    message = encode_wsfed_signin(
        rst, "sp-context-1", demo_cfg.broker_entity.endpoint("wsfed_signin")
    )
    return location_params(message)


class TestFlowA:
    def test_redirects_to_sts_with_signin_parameters(self, broker, demo_cfg):
        redirect = broker.handle_saml_sso(
            {k: v for k, v in saml_sso_params(demo_cfg).items() if k != "__request_id"}
        )
        assert redirect.target == demo_cfg.topology.entity(EntityId(STS)).endpoint("signin")
        params = location_params(redirect)
        assert params["wa"] == "wsignin1.0"
        assert "wreq" in params and "wctx" in params
        rst, _ = decode_wsfed_signin(params)
        assert rst.request_type.endswith("/Issue")
        assert rst.reply_to == demo_cfg.broker_entity.endpoint("wsfed_return")
        assert len(broker.correlations) == 1

    def test_full_relay_resigns_without_content_change(self, broker, demo_cfg, sts):
        request_id, _, _, final_post = run_flow_a(broker, demo_cfg, sts)

        assert final_post.target == demo_cfg.topology.entity(EntityId(SAML_SP)).endpoint("acs")
        response, relay_state = decode_saml_response_post(dict(final_post.fields))
        assert relay_state == "origin-relay-state"
        assert response.in_response_to == request_id
        assert response.issuer == demo_cfg.broker_id
        assert response.status is SamlStatus.SUCCESS

        broker_store = KeyStore(
            [demo_cfg.public_keys[k] for k in demo_cfg.broker_entity.keys]
        )
        assert verify(response.assertion, broker_store) == demo_cfg.broker_id
        assert canonical_bytes(response.assertion) == canonical_bytes(sts.issued[-1])

    def test_unknown_issuer(self, broker, demo_cfg):
        params = saml_sso_params(
            demo_cfg,
            issuer=EntityId("https://stranger.example.test"),
            acs_url="https://stranger.example.test/acs",
        )
        params.pop("__request_id")
        with pytest.raises(UnknownIssuer):
            broker.handle_saml_sso(params)

    def test_replayed_request_id(self, broker, demo_cfg):
        params = saml_sso_params(demo_cfg)
        params.pop("__request_id")
        broker.handle_saml_sso(dict(params))
        with pytest.raises(Replay):
            broker.handle_saml_sso(dict(params))

    def test_acs_mismatch_rejected(self, broker, demo_cfg):
        params = saml_sso_params(demo_cfg, acs_url="https://elsewhere.example.test/acs")
        params.pop("__request_id")
        with pytest.raises(ProtocolError):
            broker.handle_saml_sso(params)

    def test_no_acs_url_anywhere_rejected(self, demo_cfg, demo_cfg_dict, tmp_path):
        entity = next(e for e in demo_cfg_dict["entities"] if e["id"] == SAML_SP)
        entity["endpoints"].pop("acs")
        broker = Broker(config_from_dict(demo_cfg_dict, base_dir=tmp_path))
        params = saml_sso_params(demo_cfg, acs_url="")
        params.pop("__request_id")
        with pytest.raises(ProtocolError):
            broker.handle_saml_sso(params)

    def test_no_trust_path_without_broker_link(self, demo_cfg_dict, tmp_path):
        demo_cfg_dict["links"] = [
            pair for pair in demo_cfg_dict["links"] if STS not in pair
        ]
        cfg = config_from_dict(demo_cfg_dict, base_dir=tmp_path)
        broker = Broker(cfg)
        params = saml_sso_params(cfg)
        params.pop("__request_id")
        with pytest.raises(NoTrustPath):
            broker.handle_saml_sso(params)


class TestWsfedReturn:
    def test_unknown_correlation(self, broker):
        with pytest.raises(UnknownCorrelation):
            broker.handle_wsfed_return({"wctx": "never-issued", "wresult": "<x/>"})

    def test_missing_wctx(self, broker):
        with pytest.raises(ProtocolError):
            broker.handle_wsfed_return({"wresult": "<x/>"})

    def test_expired_correlation(self, broker, demo_cfg, sts):
        params = saml_sso_params(demo_cfg)
        params.pop("__request_id")
        redirect = broker.handle_saml_sso(params)
        wctx = location_params(redirect)["wctx"]
        entry = broker.correlations._entries[wctx]
        entry.created = time.time() - demo_cfg.correlation_ttl - 1

        sts_post = sts.handle_signin(location_params(redirect))
        with pytest.raises(ExpiredCorrelation):
            broker.handle_wsfed_return(dict(sts_post.fields))

    def test_correlation_consumed_once(self, broker, demo_cfg, sts):
        params = saml_sso_params(demo_cfg)
        params.pop("__request_id")
        redirect = broker.handle_saml_sso(params)
        sts_post = sts.handle_signin(location_params(redirect))
        broker.handle_wsfed_return(dict(sts_post.fields))
        with pytest.raises(UnknownCorrelation):
            broker.handle_wsfed_return(dict(sts_post.fields))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda a: replace(a, subject_name="mallory"),
            lambda a: replace(a, attributes=(("urn:example:attr:mail", "evil@x"),)),
            lambda a: replace(a, not_on_or_after=a.not_on_or_after.replace(year=2099)),
        ],
        ids=["subject_name", "attribute_value", "not_on_or_after"],
    )
    def test_tampered_assertion_rejected_before_any_post(self, broker, demo_cfg, sts, mutate):
        params = saml_sso_params(demo_cfg)
        params.pop("__request_id")
        redirect = broker.handle_saml_sso(params)
        sts_post = sts.handle_signin(location_params(redirect))

        fields = dict(sts_post.fields)
        rstr, wctx = decode_wsfed_signin_response_post(fields)
        tampered = replace(rstr, requested_token=mutate(rstr.requested_token))
        forged = encode_wsfed_signin_response_post(tampered, wctx, "ignored")

        with pytest.raises(SignatureInvalid):
            broker.handle_wsfed_return(dict(forged.fields))


class TestFlowB:
    def test_translates_to_saml_redirect(self, broker, demo_cfg):
        redirect = broker.handle_wsfed_signin(wsfed_signin_params(demo_cfg))
        assert redirect.target == demo_cfg.topology.entity(EntityId(IDP)).endpoint("sso")
        params = location_params(redirect)
        assert "SAMLRequest" in params and "RelayState" in params

    def test_full_relay_back_to_wsfed_sp(self, broker, demo_cfg, idp):
        redirect = broker.handle_wsfed_signin(wsfed_signin_params(demo_cfg))
        idp_post = idp.handle_sso(location_params(redirect))
        final_post = broker.handle_saml_acs(dict(idp_post.fields))

        assert final_post.target == demo_cfg.topology.entity(EntityId(WSFED_SP)).endpoint("return")
        fields = dict(final_post.fields)
        assert fields["wa"] == "wsignin1.0"
        assert fields["wctx"] == "sp-context-1"
        rstr, _ = decode_wsfed_signin_response_post(fields)
        assert rstr.context == "sp-context-1"
        broker_store = KeyStore(
            [demo_cfg.public_keys[k] for k in demo_cfg.broker_entity.keys]
        )
        assert verify(rstr.requested_token, broker_store) == demo_cfg.broker_id
        assert canonical_bytes(rstr.requested_token) == canonical_bytes(idp.issued[-1])

    def test_missing_wa(self, broker, demo_cfg):
        params = wsfed_signin_params(demo_cfg)
        params.pop("wa")
        with pytest.raises(ProtocolError):
            broker.handle_wsfed_signin(params)

    def test_renew_request_type(self, broker, demo_cfg):
        params = wsfed_signin_params(
            demo_cfg,
            request_type="http://docs.oasis-open.org/ws-sx/ws-trust/200512/Renew",
        )
        with pytest.raises(UnsupportedRequestType):
            broker.handle_wsfed_signin(params)

    def test_unknown_reply_to(self, broker, demo_cfg):
        params = wsfed_signin_params(demo_cfg, reply_to="https://stranger.example.test/return")
        with pytest.raises(UnknownIssuer):
            broker.handle_wsfed_signin(params)

    def test_in_response_to_must_match_brokers_request(self, broker, demo_cfg, idp):
        redirect = broker.handle_wsfed_signin(wsfed_signin_params(demo_cfg))
        idp_post = idp.handle_sso(location_params(redirect))
        fields = dict(idp_post.fields)
        response, relay_state = decode_saml_response_post(fields)
        forged = encode_saml_response_post(
            replace(response, in_response_to="_someone_elses"), relay_state, "ignored"
        )
        with pytest.raises(ProtocolError):
            broker.handle_saml_acs(dict(forged.fields))

    def test_replayed_relay_state(self, broker, demo_cfg, idp):
        redirect = broker.handle_wsfed_signin(wsfed_signin_params(demo_cfg))
        idp_post = idp.handle_sso(location_params(redirect))
        broker.handle_saml_acs(dict(idp_post.fields))
        with pytest.raises(UnknownCorrelation):
            broker.handle_saml_acs(dict(idp_post.fields))

    def test_no_trust_path_without_brokered_idp(self, demo_cfg_dict, tmp_path):
        demo_cfg_dict["links"] = [
            pair for pair in demo_cfg_dict["links"] if IDP not in pair
        ]
        cfg = config_from_dict(demo_cfg_dict, base_dir=tmp_path)
        broker = Broker(cfg)
        with pytest.raises(NoTrustPath):
            broker.handle_wsfed_signin(wsfed_signin_params(cfg))

    def test_shared_reply_to_resolves_to_first_provider_by_id(self, demo_cfg_dict, tmp_path):
        # Listed after the original but first by entity ID, as the topology
        # orders providers.
        twin = "https://a-wsfed-sp.example.test"
        original = next(e for e in demo_cfg_dict["entities"] if e["id"] == WSFED_SP)
        demo_cfg_dict["entities"].append({**original, "id": twin})
        demo_cfg_dict["links"].append([twin, demo_cfg_dict["broker"]["entity_id"]])
        cfg = config_from_dict(demo_cfg_dict, base_dir=tmp_path)
        broker = Broker(cfg)

        redirect = broker.handle_wsfed_signin(wsfed_signin_params(cfg))
        entry = broker.correlations._entries[location_params(redirect)["RelayState"]]
        assert entry.origin_sp == EntityId(twin)

    def test_non_success_relayed_as_tokenless_result(self, broker, demo_cfg):
        from fedbridge.messages import SamlResponse

        redirect = broker.handle_wsfed_signin(wsfed_signin_params(demo_cfg))
        relay_state = location_params(redirect)["RelayState"]
        entry = broker.correlations._entries[relay_state]
        refusal = SamlResponse(
            id=fresh_id(),
            in_response_to=entry.outbound_request_id,
            issuer=EntityId(IDP),
            status=SamlStatus.REQUESTER,
        )
        post = broker.handle_saml_acs(
            dict(encode_saml_response_post(refusal, relay_state, "ignored").fields)
        )
        fields = dict(post.fields)
        rstr, wctx = decode_wsfed_signin_response_post(fields, require_token=False)
        assert rstr.requested_token is None
        assert rstr.context == "sp-context-1"
        assert wctx == "sp-context-1"


class TestSharedPaths:
    """Both flows run one inbound and one return path, so a check either flow
    makes, the other makes too."""

    def test_replayed_rst_context(self, broker, demo_cfg):
        broker.handle_wsfed_signin(wsfed_signin_params(demo_cfg))
        with pytest.raises(Replay):
            broker.handle_wsfed_signin(wsfed_signin_params(demo_cfg))

    def test_rst_without_context_not_taken_for_a_replay(self, broker, demo_cfg):
        broker.handle_wsfed_signin(wsfed_signin_params(demo_cfg, context=""))
        broker.handle_wsfed_signin(wsfed_signin_params(demo_cfg, context=""))
        assert len(broker.correlations) == 2

    def test_empty_rstr_context_refused(self, broker, demo_cfg, sts):
        params = saml_sso_params(demo_cfg)
        params.pop("__request_id")
        redirect = broker.handle_saml_sso(params)
        sts_post = sts.handle_signin(location_params(redirect))
        rstr, wctx = decode_wsfed_signin_response_post(dict(sts_post.fields))
        forged = encode_wsfed_signin_response_post(replace(rstr, context=""), wctx, "ignored")
        with pytest.raises(ProtocolError):
            broker.handle_wsfed_return(dict(forged.fields))

    def test_tokenless_result_reaches_saml_sp_as_responder(self, broker, demo_cfg, caplog):
        entity = demo_cfg.topology.entity(EntityId(SAML_SP))
        sp = MockSamlSp(entity, demo_cfg.trusted_store_for_sp(entity.id),
                        demo_cfg.broker_entity.endpoint("saml_sso"))
        login = location_params(sp.start_login())
        request, relay_state = decode_saml_redirect(login)
        with caplog.at_level(logging.INFO, logger="fedbridge.broker"):
            wctx = location_params(broker.handle_saml_sso(login))["wctx"]
            tokenless = WstRequestSecurityTokenResponse(
                context=wctx, token_type=SAML2_ASSERTION_TOKEN_TYPE
            )
            post = broker.handle_wsfed_return(
                dict(encode_wsfed_signin_response_post(tokenless, wctx, "ignored").fields)
            )

        response, relayed_state = decode_saml_response_post(dict(post.fields))
        assert response.status is SamlStatus.RESPONDER and response.assertion is None
        assert response.in_response_to == request.id
        assert relayed_state == relay_state
        page = sp.handle_acs(dict(post.fields))
        assert dict(page.headers)["X-Outcome"] == "failed:Status:Responder"
        assert sp.failures == ["Status:Responder"] and sp.contexts == []
        outcomes = [json.loads(r.message)["outcome"] for r in caplog.records
                    if r.name == "fedbridge.broker"]
        assert outcomes == ["redirected", "relayed-error:Responder"]

    def test_flow_b_correlation_refused_at_wsfed_return(self, broker, demo_cfg):
        redirect = broker.handle_wsfed_signin(wsfed_signin_params(demo_cfg))
        relay_state = location_params(redirect)["RelayState"]
        tokenless = WstRequestSecurityTokenResponse(
            context=relay_state, token_type=SAML2_ASSERTION_TOKEN_TYPE
        )
        post = encode_wsfed_signin_response_post(tokenless, relay_state, "ignored")
        with pytest.raises(ProtocolError):
            broker.handle_wsfed_return(dict(post.fields))

    def test_flow_a_correlation_refused_at_saml_acs(self, broker, demo_cfg):
        params = saml_sso_params(demo_cfg)
        params.pop("__request_id")
        wctx = location_params(broker.handle_saml_sso(params))["wctx"]
        # Flow A keeps no outbound request ID, so this answers "its" request.
        refusal = SamlResponse(
            id=fresh_id(), in_response_to="", issuer=EntityId(IDP), status=SamlStatus.REQUESTER
        )
        post = encode_saml_response_post(refusal, wctx, "ignored")
        with pytest.raises(ProtocolError):
            broker.handle_saml_acs(dict(post.fields))

    def test_missing_relay_state(self, broker, demo_cfg, idp):
        redirect = broker.handle_wsfed_signin(wsfed_signin_params(demo_cfg))
        fields = dict(idp.handle_sso(location_params(redirect)).fields)
        fields.pop("RelayState")
        with pytest.raises(ProtocolError):
            broker.handle_saml_acs(fields)

    @pytest.mark.parametrize("issuer", [WSFED_SP, IDP], ids=["wsfed_sp", "saml_idp"])
    def test_authn_request_from_no_saml_sp(self, broker, demo_cfg, issuer):
        params = saml_sso_params(demo_cfg, issuer=EntityId(issuer))
        params.pop("__request_id")
        with pytest.raises(UnknownIssuer):
            broker.handle_saml_sso(params)


class TestPseudonymModes:
    def _cfg_with_mode(self, demo_cfg_dict, tmp_path, mode):
        demo_cfg_dict["pseudonym"]["modes"] = {SAML_SP: mode}
        return config_from_dict(demo_cfg_dict, base_dir=tmp_path)

    def _subject_of(self, final_post):
        response, _ = decode_saml_response_post(dict(final_post.fields))
        return response.assertion.subject_name, response.assertion.subject_name_format

    def test_persistent_mode_rewrites_subject_stably(self, demo_cfg_dict, tmp_path, sts):
        cfg = self._cfg_with_mode(demo_cfg_dict, tmp_path, "persistent")
        broker = Broker(cfg)
        _, _, _, first = run_flow_a(broker, cfg, sts)
        _, _, _, second = run_flow_a(broker, cfg, sts)

        name1, format1 = self._subject_of(first)
        name2, format2 = self._subject_of(second)
        assert name1 == name2 != "alice"
        assert format1 == format2 == PERSISTENT_NAMEID_FORMAT
        assert name1 == derive_persistent("alice", EntityId(SAML_SP), cfg.pseudonym_secret)
        assert broker.pseudonyms == {name1}

    def test_transient_mode_changes_per_session(self, demo_cfg_dict, tmp_path, sts):
        cfg = self._cfg_with_mode(demo_cfg_dict, tmp_path, "transient")
        broker = Broker(cfg)
        _, _, _, first = run_flow_a(broker, cfg, sts)
        _, _, _, second = run_flow_a(broker, cfg, sts)

        name1, format1 = self._subject_of(first)
        name2, _ = self._subject_of(second)
        assert name1 != name2
        assert format1 == TRANSIENT_NAMEID_FORMAT

    def test_transient_sign_ons_keep_no_record(self, demo_cfg_dict, tmp_path, sts):
        cfg = self._cfg_with_mode(demo_cfg_dict, tmp_path, "transient")
        broker = Broker(cfg)
        before = len(broker.pseudonyms)
        for _ in range(5):
            run_flow_a(broker, cfg, sts)
        assert len(broker.pseudonyms) == before

    def test_default_mode_keeps_subject(self, broker, demo_cfg, sts):
        _, _, _, final_post = run_flow_a(broker, demo_cfg, sts)
        name, _ = self._subject_of(final_post)
        assert name == "alice"


class TestAttributeMapping:
    def test_claim_names_translated_on_the_way_to_the_saml_sp(
        self, demo_cfg_dict, tmp_path
    ):
        demo_cfg_dict["attribute_name_map"] = [
            ["urn:example:attr:mail", "http://schemas.example.test/claims/email"]
        ]
        # The token service speaks the claim-type vocabulary.
        demo_cfg_dict["mocks"]["users"] = [
            {
                "subject": "alice",
                "attributes": {"http://schemas.example.test/claims/email": "alice@example.test"},
            }
        ]
        cfg = config_from_dict(demo_cfg_dict, base_dir=tmp_path)
        broker = Broker(cfg)
        sts_entity = cfg.topology.entity(EntityId(STS))
        sts = MockWsfedSts(sts_entity, cfg.private_key_for(sts_entity.id), cfg.mocks.users)

        _, _, _, final_post = run_flow_a(broker, cfg, sts)
        response, _ = decode_saml_response_post(dict(final_post.fields))
        assert response.assertion.attributes == (
            ("urn:example:attr:mail", "alice@example.test"),
        )


class TestRequestPlan:
    """Routes and keys are resolved when the broker starts, not per request."""

    def test_requests_walk_no_trust_graph_and_load_no_key(
        self, broker, demo_cfg, sts, idp, monkeypatch
    ):
        calls = {}

        def count(owner, name):
            original = getattr(owner, name)
            calls[name] = 0

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(broker_module, "resolve_path")
        count(TrustTopology, "by_role")
        count(ed25519.Ed25519PrivateKey, "from_private_bytes")
        count(ed25519.Ed25519PublicKey, "from_public_bytes")

        run_flow_a(broker, demo_cfg, sts)
        redirect = broker.handle_wsfed_signin(wsfed_signin_params(demo_cfg))
        broker.handle_saml_acs(dict(idp.handle_sso(location_params(redirect)).fields))
        abandoned = saml_sso_params(demo_cfg)
        abandoned.pop("__request_id")
        broker.handle_saml_sso(abandoned)
        assert calls == dict.fromkeys(calls, 0)

        # The counters see the calls that start-up makes.
        Broker(demo_cfg)
        generate_keypair("spare", demo_cfg.broker_id)
        assert all(calls.values()), calls


class TestCorrelationStore:
    def test_concurrent_consume_single_winner(self):
        store = CorrelationStore()
        store.put(
            CorrelationEntry(
                correlation_id="c1",
                original_request_id="_r",
                origin_sp=EntityId("urn:sp"),
                origin_dialect=Dialect.SAML2,
                acs_or_return_url="https://sp/acs",
                created=time.time(),
                ttl=300,
            )
        )
        wins, losses = [], []
        barrier = threading.Barrier(8)

        def consume():
            barrier.wait()
            try:
                wins.append(store.consume("c1"))
            except UnknownCorrelation:
                losses.append(1)

        threads = [threading.Thread(target=consume) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert len(losses) == 7


class FakeClock:
    def __init__(self, now: float) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch) -> FakeClock:
    fake = FakeClock(1_000.0)
    monkeypatch.setattr("fedbridge.broker.time.time", fake)
    return fake


def correlation(correlation_id: str, created: float, ttl: float = 300.0) -> CorrelationEntry:
    return CorrelationEntry(
        correlation_id=correlation_id,
        original_request_id="_r",
        origin_sp=EntityId(SAML_SP),
        origin_dialect=Dialect.SAML2,
        acs_or_return_url="https://sp/acs",
        created=created,
        ttl=ttl,
    )


class TestExpiringState:
    """Both stores drop what has expired as new entries arrive, and nothing
    earlier: an entry exactly one TTL old is still live."""

    def test_replay_guard_drops_expired_ids(self, clock):
        guard = SeenRequestIds(ttl=10.0)
        for n in range(100):
            guard.observe(EntityId(SAML_SP), f"_r{n}")
            clock.now += 1.0
        # The last observe, at 1099, keeps the IDs seen from 1089 on.
        assert len(guard) == 11

    def test_replay_within_ttl_refused(self, clock):
        guard = SeenRequestIds(ttl=10.0)
        guard.observe(EntityId(SAML_SP), "_r1")
        clock.now += 5.0
        guard.observe(EntityId(SAML_SP), "_r2")
        with pytest.raises(Replay):
            guard.observe(EntityId(SAML_SP), "_r1")

    def test_replay_window_boundary(self, clock):
        guard = SeenRequestIds(ttl=10.0)
        guard.observe(EntityId(SAML_SP), "_r1")
        clock.now += 10.0
        with pytest.raises(Replay):
            guard.observe(EntityId(SAML_SP), "_r1")
        clock.now += 0.5
        guard.observe(EntityId(SAML_SP), "_r1")
        with pytest.raises(Replay):
            guard.observe(EntityId(SAML_SP), "_r1")

    def test_expired_id_behind_a_live_one_accepted(self, clock):
        guard = SeenRequestIds(ttl=10.0)
        guard.observe(EntityId(SAML_SP), "_r1")
        clock.now -= 5.0  # the wall clock steps back
        guard.observe(EntityId(SAML_SP), "_r2")
        clock.now += 12.0
        # _r2 is 12 s old, but the sweep stops at _r1, which is 7 s old.
        guard.observe(EntityId(SAML_SP), "_r2")
        with pytest.raises(Replay):
            guard.observe(EntityId(SAML_SP), "_r1")

    def test_concurrent_observe_accepts_each_id_once(self):
        guard = SeenRequestIds(ttl=300.0)
        ids = [f"_r{n}" for n in range(200)]
        accepted: list[str] = []
        barrier = threading.Barrier(8)

        def observe_all(order: list[str]) -> None:
            barrier.wait()
            for request_id in order:
                try:
                    guard.observe(EntityId(SAML_SP), request_id)
                except Replay:
                    continue
                accepted.append(request_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=observe_all, args=(ids[k:] + ids[:k],))
                for k in range(0, 200, 25)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(accepted) == sorted(ids)
        assert len(guard) == 200

    def test_abandoned_correlations_swept(self, clock):
        store = CorrelationStore()
        for n in range(500):
            store.put(correlation(f"c{n}", created=clock.now))
        clock.now += 300.0
        store.put(correlation("at-ttl", created=clock.now))
        assert len(store) == 501
        clock.now += 300.5
        store.put(correlation("last", created=clock.now))
        assert len(store) == 1
        assert store.consume("last").correlation_id == "last"

    def test_expired_entry_not_yet_swept(self, clock):
        store = CorrelationStore()
        store.put(correlation("c1", created=clock.now))
        clock.now += 300.5
        assert len(store) == 1
        with pytest.raises(ExpiredCorrelation):
            store.consume("c1")
        with pytest.raises(UnknownCorrelation):
            store.consume("c1")


def at(seconds: float) -> datetime:
    return datetime.fromtimestamp(seconds, timezone.utc)


def reissued(authority, **changes):
    """An assertion the authority signs for alice, with ``changes`` made first."""
    issued = authority.issue_assertion("alice", PASSWORD_CLASS)
    return sign(replace(issued, **changes), authority.signing_key)


def deliver_on_sts_leg(broker, demo_cfg, assertion):
    """Open a fresh flow A and deliver the assertion on its STS leg."""
    params = saml_sso_params(demo_cfg)
    params.pop("__request_id")
    wctx = location_params(broker.handle_saml_sso(params))["wctx"]
    rstr = WstRequestSecurityTokenResponse(
        context=wctx, token_type=SAML2_ASSERTION_TOKEN_TYPE, requested_token=assertion,
        lifetime=(assertion.not_before, assertion.not_on_or_after),
    )
    post = encode_wsfed_signin_response_post(rstr, wctx, "ignored")
    return broker.handle_wsfed_return(dict(post.fields))


def deliver_on_idp_leg(broker, demo_cfg, assertion):
    """Open a fresh flow B and deliver the assertion on its IdP leg."""
    redirect = broker.handle_wsfed_signin(wsfed_signin_params(demo_cfg, context=fresh_id()))
    request, relay_state = decode_saml_redirect(location_params(redirect))
    response = SamlResponse(
        id=fresh_id(), in_response_to=request.id, issuer=assertion.issuer,
        status=SamlStatus.SUCCESS, assertion=assertion,
    )
    post = encode_saml_response_post(response, relay_state, "ignored")
    return broker.handle_saml_acs(dict(post.fields))


class TestRelayChecks:
    """What the final service provider must not accept, the broker refuses to
    relay: a validly signed assertion from the wrong authority, outside its
    validity window, or relayed before."""

    def test_saml_idp_assertion_on_the_sts_leg(self, broker, demo_cfg, idp):
        with pytest.raises(UntrustedIssuer):
            deliver_on_sts_leg(broker, demo_cfg, idp.issue_assertion("alice", PASSWORD_CLASS))

    def test_sts_assertion_on_the_idp_leg(self, broker, demo_cfg, sts):
        with pytest.raises(UntrustedIssuer):
            deliver_on_idp_leg(broker, demo_cfg, sts.issue_assertion("alice", PASSWORD_CLASS))

    def test_assertion_expired_nine_days_ago(self, broker, demo_cfg, sts):
        expired = at(time.time() - 9 * 86_400)
        assertion = reissued(
            sts, not_before=expired - timedelta(seconds=360), not_on_or_after=expired
        )
        with pytest.raises(LifetimeInvalid):
            deliver_on_sts_leg(broker, demo_cfg, assertion)

    def test_assertion_not_yet_valid_past_the_skew(self, broker, demo_cfg, idp, clock):
        skew = demo_cfg.clock_skew
        assertion = reissued(
            idp, not_before=at(clock.now + skew + 30), not_on_or_after=at(clock.now + skew + 90)
        )
        with pytest.raises(LifetimeInvalid):
            deliver_on_idp_leg(broker, demo_cfg, assertion)

    def test_window_edges_widened_by_the_skew(self, broker, demo_cfg, sts, clock):
        skew = demo_cfg.clock_skew
        deliver_on_sts_leg(broker, demo_cfg, reissued(
            sts, not_before=at(clock.now + skew), not_on_or_after=at(clock.now + skew + 60)))
        deliver_on_sts_leg(broker, demo_cfg, reissued(
            sts, not_before=at(clock.now - 300), not_on_or_after=at(clock.now - skew + 1)))
        with pytest.raises(LifetimeInvalid):
            deliver_on_sts_leg(broker, demo_cfg, reissued(
                sts, not_before=at(clock.now - 300), not_on_or_after=at(clock.now - skew)))

    def test_lifetime_beyond_the_cap_refused(self, broker, demo_cfg, sts, clock):
        horizon = clock.now + broker_module.MAX_ASSERTION_LIFETIME_S + demo_cfg.clock_skew
        deliver_on_sts_leg(broker, demo_cfg, reissued(
            sts, not_before=at(clock.now), not_on_or_after=at(horizon)))
        with pytest.raises(LifetimeInvalid):
            deliver_on_sts_leg(broker, demo_cfg, reissued(
                sts, not_before=at(clock.now), not_on_or_after=at(horizon + 1)))

    def test_captured_sts_assertion_replayed_under_a_fresh_correlation(
        self, broker, demo_cfg, sts
    ):
        # The benchmark's replay step: the RSTR Context lies outside the
        # signature, so the captured wresult is rewritten to the fresh wctx.
        captured = dict(run_flow_a(broker, demo_cfg, sts)[2].fields)
        params = saml_sso_params(demo_cfg)
        params.pop("__request_id")
        fresh = location_params(broker.handle_saml_sso(params))["wctx"]
        old = f'Context="{captured["wctx"]}"'
        assert old in captured["wresult"]
        forged = {"wa": captured["wa"], "wctx": fresh,
                  "wresult": captured["wresult"].replace(old, f'Context="{fresh}"')}
        with pytest.raises(Replay):
            broker.handle_wsfed_return(forged)

    def test_captured_idp_assertion_replayed_in_a_fresh_response(self, broker, demo_cfg, idp):
        redirect = broker.handle_wsfed_signin(wsfed_signin_params(demo_cfg))
        post = idp.handle_sso(location_params(redirect))
        broker.handle_saml_acs(dict(post.fields))
        response, _ = decode_saml_response_post(dict(post.fields))
        with pytest.raises(Replay):
            deliver_on_idp_leg(broker, demo_cfg, response.assertion)

    def test_replay_refused_while_the_window_admits_the_assertion(
        self, broker, demo_cfg, sts, clock
    ):
        # Valid for the longest lifetime accepted, the assertion passes the
        # window check until NotOnOrAfter + skew; its ID must outlive that.
        skew = demo_cfg.clock_skew
        lifetime = broker_module.MAX_ASSERTION_LIFETIME_S + skew
        assertion = reissued(
            sts, not_before=at(clock.now), not_on_or_after=at(clock.now + lifetime)
        )
        deliver_on_sts_leg(broker, demo_cfg, assertion)
        clock.now += lifetime + skew - 1
        with pytest.raises(Replay):
            deliver_on_sts_leg(broker, demo_cfg, assertion)


class TestStructuredLog:
    def test_each_leg_logs_one_json_line(self, broker, demo_cfg, sts, caplog):
        with caplog.at_level(logging.INFO, logger="fedbridge.broker"):
            run_flow_a(broker, demo_cfg, sts)
        lines = [json.loads(r.message) for r in caplog.records if r.name == "fedbridge.broker"]
        legs = [line["leg"] for line in lines]
        assert legs == ["saml_sso", "wsfed_return"]
        assert all({"correlation_id", "direction", "outcome"} <= set(line) for line in lines)
