"""End-to-end scenarios over live HTTP: broker plus mocks plus passive client."""

from __future__ import annotations

import json
import urllib.request

import pytest

from fedbridge.config import config_from_dict
from fedbridge.errors import UnknownSubject
from fedbridge.messages import canonical_bytes
from fedbridge.scenarios import (
    Scenario,
    environment,
    run_concurrent,
    run_flow,
    run_scenario,
)
from fedbridge.signing import KeyStore, verify


def param_names_per_protocol_step(trace):
    interesting = []
    for step in trace.steps:
        names = set(step.params)
        protocol = names & {"SAMLRequest", "SAMLResponse", "wa", "wreq", "wresult", "wctx"}
        if protocol:
            interesting.append(sorted(protocol))
    return interesting


class TestFlowA:
    def test_passes_and_follows_the_relay_pattern(self, demo_cfg, tmp_path):
        trace = run_scenario(
            Scenario.SAML_SP_TO_WSFED_IP, demo_cfg, trace_path=tmp_path / "trace.json"
        )
        assert trace.passed, trace.reason
        assert param_names_per_protocol_step(trace) == [
            ["SAMLRequest"],
            ["wa", "wctx", "wreq"],
            ["wa", "wctx", "wresult"],
            ["SAMLResponse"],
        ]

        written = json.loads((tmp_path / "trace.json").read_text())
        assert written["verdict"] == "Pass"
        assert [s["actor"] for s in written["steps"]] == [
            "saml-sp",
            "broker",
            "wsfed-sts",
            "broker",
            "saml-sp",
        ]

    def test_assertion_reaches_sp_byte_identical(self, demo_cfg):
        with environment(demo_cfg) as env:
            trace = run_flow(env, Scenario.SAML_SP_TO_WSFED_IP)
            assert trace.passed, trace.reason

            issued = env.wsfed_sts.issued[-1]
            received = env.saml_sp.contexts[-1].assertion
            assert canonical_bytes(received) == canonical_bytes(issued)
            assert received.signature.key_id == "broker-signing"
            assert received.signature.key_id != issued.signature.key_id

    def test_sp_without_broker_trust_fails_signature(self, demo_cfg_dict, tmp_path):
        demo_cfg_dict["mocks"]["sp_trusted_keys"] = {
            "https://saml-sp.example.test": ["idp-signing"]
        }
        cfg = config_from_dict(demo_cfg_dict, base_dir=tmp_path)
        trace = run_scenario(Scenario.SAML_SP_TO_WSFED_IP, cfg)
        assert not trace.passed
        assert "UnknownKeyId" in (trace.reason or "") or "SignatureInvalid" in (
            trace.reason or ""
        )

    def test_client_never_originates_a_parameter(self, demo_cfg):
        with environment(demo_cfg) as env:
            from fedbridge.client import PassiveClient

            with PassiveClient(env.actor_for) as client:
                result = client.run(env.saml_sp.login_url)
            assert result.relay_violations == []
            assert result.final_outcome == "established"

    def test_sts_session_honored_without_force(self, demo_cfg):
        with environment(demo_cfg) as env:
            trace = run_flow(env, Scenario.SAML_SP_TO_WSFED_IP, force_authn=False)
            assert trace.passed
            assert env.wsfed_sts.auth_events == []

    def test_force_authn_triggers_sts_authentication(self, demo_cfg):
        with environment(demo_cfg) as env:
            trace = run_flow(env, Scenario.SAML_SP_TO_WSFED_IP, force_authn=True)
            assert trace.passed
            assert env.wsfed_sts.auth_events == ["alice"]

    def test_no_session_triggers_authentication_event(self, demo_cfg_dict, tmp_path):
        demo_cfg_dict["mocks"]["sts_has_session"] = False
        cfg = config_from_dict(demo_cfg_dict, base_dir=tmp_path)
        with environment(cfg) as env:
            trace = run_flow(env, Scenario.SAML_SP_TO_WSFED_IP)
            assert trace.passed
            assert env.wsfed_sts.auth_events == ["alice"]


class TestFlowB:
    def test_passes_with_matching_context(self, demo_cfg):
        with environment(demo_cfg) as env:
            trace = run_flow(env, Scenario.WSFED_SP_TO_SAML_IP)
            assert trace.passed, trace.reason

            context = env.wsfed_sp.contexts[-1]
            broker_store = KeyStore(
                [demo_cfg.public_keys[k] for k in demo_cfg.broker_entity.keys]
            )
            assert verify(context.assertion, broker_store) == demo_cfg.broker_id
            assert canonical_bytes(context.assertion) == canonical_bytes(
                env.saml_idp.issued[-1]
            )

    def test_relay_pattern_is_reversed(self, demo_cfg):
        trace = run_scenario(Scenario.WSFED_SP_TO_SAML_IP, demo_cfg)
        assert trace.passed, trace.reason
        pattern = param_names_per_protocol_step(trace)
        assert pattern[0] == ["wa", "wctx", "wreq"]
        assert pattern[1] == ["SAMLRequest"]
        assert "wresult" in pattern[-1]

    def test_force_authn_reaches_the_saml_idp(self, demo_cfg):
        with environment(demo_cfg) as env:
            trace = run_flow(env, Scenario.WSFED_SP_TO_SAML_IP, force_authn=True)
            assert trace.passed
            assert env.saml_idp.auth_events == ["alice"]

    def test_unknown_subject_fails_the_flow(self, demo_cfg):
        trace = run_scenario(Scenario.WSFED_SP_TO_SAML_IP, demo_cfg, subject="mallory")
        assert not trace.passed
        assert "UnknownSubject" in (trace.reason or "")


class TestBrokerSeesOnlyProtocolDocuments:
    PROTOCOL_PARAMS = {
        "SAMLRequest",
        "SAMLResponse",
        "RelayState",
        "wa",
        "wreq",
        "wresult",
        "wctx",
    }

    @pytest.mark.parametrize(
        "scenario", [Scenario.SAML_SP_TO_WSFED_IP, Scenario.WSFED_SP_TO_SAML_IP]
    )
    def test_broker_legs_carry_nothing_beyond_protocol_parameters(self, demo_cfg, scenario):
        # The client authenticates against the authority directly; nothing
        # credential-shaped may ride a broker-bound request.
        demo_cfg.mocks.sts_has_session = False
        demo_cfg.mocks.idp_has_session = False
        with environment(demo_cfg) as env:
            trace = run_flow(env, scenario)
            assert trace.passed, trace.reason
            broker_steps = [s for s in trace.steps if s.actor == "broker"]
            assert broker_steps
            for step in broker_steps:
                assert set(step.params) <= self.PROTOCOL_PARAMS


class TestMockAuthorities:
    def test_issue_assertion_verifies_under_mock_key(self, demo_cfg):
        with environment(demo_cfg) as env:
            assertion = env.saml_idp.issue_assertion(
                "alice", "urn:oasis:names:tc:SAML:2.0:ac:classes:Password"
            )
            idp_store = KeyStore([demo_cfg.public_keys["idp-signing"]])
            assert verify(assertion, idp_store) == env.saml_idp.entity.id

    def test_issue_assertion_unknown_subject(self, demo_cfg):
        with environment(demo_cfg) as env:
            with pytest.raises(UnknownSubject):
                env.saml_idp.issue_assertion("mallory", "urn:ctx")

    def test_empty_attrs_give_no_attribute_statement(self, demo_cfg):
        from fedbridge.messages import serialize

        with environment(demo_cfg) as env:
            assertion = env.saml_idp.issue_assertion("alice", "urn:ctx", attrs=())
            assert "AttributeStatement" not in serialize(assertion)


class TestService:
    def test_healthz(self, demo_cfg):
        with environment(demo_cfg) as env:
            url = demo_cfg.broker_entity.endpoint("saml_sso").replace("/saml/sso", "/healthz")
            with urllib.request.urlopen(url) as response:
                assert response.status == 200

    def test_error_pages_carry_machine_readable_code(self, demo_cfg):
        with environment(demo_cfg) as env:
            url = demo_cfg.broker_entity.endpoint("saml_sso") + "?SAMLRequest=%40%40"
            request = urllib.request.Request(url)
            try:
                urllib.request.urlopen(request)
                raise AssertionError("expected HTTP error")
            except urllib.error.HTTPError as err:
                assert err.status == 400
                assert err.headers["X-Error"] == "ProtocolError"

    def test_concurrent_flows_all_pass(self, demo_cfg):
        traces = run_concurrent(Scenario.SAML_SP_TO_WSFED_IP, demo_cfg, 10)
        assert all(t.passed for t in traces), [t.reason for t in traces]
