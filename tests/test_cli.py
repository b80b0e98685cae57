"""Command-line surface: demo-config, topo, translate, scenario."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from urllib.parse import urlparse

import pytest

from fedbridge.cli import main
from fedbridge.config import load_config
from fedbridge.messages import (
    SamlAuthnRequest,
    WstRequestSecurityToken,
    parse,
    serialize,
)
from fedbridge.signing import sign
from fedbridge.translate import SAML2_ASSERTION_TOKEN_TYPE, WST_ISSUE_URI

from support import (
    IDP_ID,
    make_assertion,
    make_authn_request,
    make_response,
    make_rst,
    make_rstr,
)


@pytest.fixture
def demo_config_path(tmp_path):
    assert main(["demo-config", "--out-dir", str(tmp_path)]) == 0
    return tmp_path / "config.json"


class TestDemoConfig:
    def test_writes_config_and_keys(self, tmp_path, demo_config_path, capsys):
        assert demo_config_path.exists()
        data = json.loads(demo_config_path.read_text())
        assert {e["role"] for e in data["entities"]} == {
            "broker",
            "identity-provider",
            "service-provider",
        }
        assert (tmp_path / "keys" / "broker-signing.key.pem").exists()


class TestTopo:
    def test_brokered_pair(self, demo_config_path, capsys):
        code = main(
            [
                "topo",
                "--config",
                str(demo_config_path),
                "--sp",
                "https://saml-sp.example.test",
                "--ip",
                "https://sts.example.test",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "responsible: https://broker.example.test" in out
        assert (
            "path: https://saml-sp.example.test -> https://broker.example.test"
            " -> https://sts.example.test" in out
        )

    def test_no_path_is_nonzero(self, demo_config_path, tmp_path, capsys):
        data = json.loads(demo_config_path.read_text())
        data["links"] = [pair for pair in data["links"] if "sts" not in pair[1]]
        demo_config_path.write_text(json.dumps(data))
        code = main(
            [
                "topo",
                "--config",
                str(demo_config_path),
                "--sp",
                "https://saml-sp.example.test",
                "--ip",
                "https://sts.example.test",
            ]
        )
        assert code == 3
        assert "NoTrustPath" in capsys.readouterr().err


class TestTranslate:
    def test_saml_request_to_wsfed(self, tmp_path, demo_config_path):
        infile = tmp_path / "request.xml"
        outfile = tmp_path / "request.wst.xml"
        infile.write_text(serialize(make_authn_request()))

        code = main(
            [
                "translate",
                "--from",
                "saml",
                "--to",
                "wsfed",
                "--in",
                str(infile),
                "--out",
                str(outfile),
                "--config",
                str(demo_config_path),
                "--context",
                "cli-ctx",
            ]
        )
        assert code == 0
        rst = parse(outfile.read_text().strip(), WstRequestSecurityToken)
        assert rst.request_type == WST_ISSUE_URI
        assert rst.token_type == SAML2_ASSERTION_TOKEN_TYPE
        assert rst.context == "cli-ctx"

    def test_wsfed_request_to_saml_without_config(self, tmp_path):
        infile = tmp_path / "rst.xml"
        outfile = tmp_path / "req.xml"
        infile.write_text(serialize(make_rst(authentication_type="urn:x-test:authn")))

        code = main(
            ["translate", "--from", "wsfed", "--to", "saml", "--in", str(infile), "--out", str(outfile)]
        )
        assert code == 0
        req = parse(outfile.read_text().strip(), SamlAuthnRequest)
        # No config: permissive pass-through mapping carries the value over.
        assert req.requested_authn_context == ("urn:x-test:authn",)

    def test_same_dialect_rejected(self, tmp_path, capsys):
        infile = tmp_path / "x.xml"
        infile.write_text(serialize(make_rst()))
        code = main(
            ["translate", "--from", "saml", "--to", "saml", "--in", str(infile), "--out", str(infile)]
        )
        assert code == 2

    @pytest.mark.parametrize("source, wrap", [
        ("saml", lambda assertion: make_response(assertion=assertion)),
        ("wsfed", lambda assertion: make_rstr(token=assertion)),
    ], ids=["saml-response", "rstr"])
    def test_response_documents_refused(self, tmp_path, demo_config_path, capsys, source, wrap):
        # Signed with the demo identity provider's own key, the assertion
        # would verify; but only the broker's return path, with its relay
        # checks, re-signs an assertion.
        signing_key = load_config(demo_config_path).private_key_for(IDP_ID)
        infile, outfile = tmp_path / "response.xml", tmp_path / "out.xml"
        infile.write_text(serialize(wrap(sign(make_assertion(), signing_key))))
        target = "wsfed" if source == "saml" else "saml"
        code = main(["translate", "--from", source, "--to", target, "--in", str(infile),
                     "--out", str(outfile), "--config", str(demo_config_path)])
        assert code == 3
        assert "MalformedXml" in capsys.readouterr().err
        assert not outfile.exists()

    def test_unparseable_input_reports_error(self, tmp_path, capsys):
        infile = tmp_path / "x.xml"
        infile.write_text("<broken")
        code = main(
            ["translate", "--from", "saml", "--to", "wsfed", "--in", str(infile), "--out", str(infile)]
        )
        assert code == 3
        assert "MalformedXml" in capsys.readouterr().err


def _probe(url: str, process: subprocess.Popen, attempts: int = 50) -> int:
    """Poll until the service under `process` answers; return the status."""
    from fedbridge.client import http_exchange

    for _ in range(attempts):
        if process.poll() is not None:
            raise AssertionError(f"process exited early: {process.returncode}")
        try:
            status, _, _ = http_exchange("GET", url, timeout=1)
            return status
        except OSError:
            time.sleep(0.1)
    raise AssertionError(f"{url} never came up")


class TestLongRunningCommands:
    def test_broker_command_serves_healthz(self, demo_config_path):
        data = json.loads(demo_config_path.read_text())
        listen = data["broker"]["listen"]
        process = subprocess.Popen(
            [sys.executable, "-m", "fedbridge.cli", "broker", "--config", str(demo_config_path)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            assert _probe(f"http://{listen}/healthz", process) == 200
        finally:
            process.terminate()
            process.wait(timeout=5)

    def test_mocks_command_serves_the_mock_actors(self, demo_config_path):
        data = json.loads(demo_config_path.read_text())
        sp_acs = next(
            e["endpoints"]["acs"] for e in data["entities"] if "acs" in e.get("endpoints", {})
        )
        login = f"http://{urlparse(sp_acs).netloc}/login"
        process = subprocess.Popen(
            [sys.executable, "-m", "fedbridge.cli", "mocks", "--config", str(demo_config_path)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # The provider's /login answers 302 toward the (absent) broker:
            # proof the mock half is up and initiating correctly on its own.
            assert _probe(login, process) == 302
        finally:
            process.terminate()
            process.wait(timeout=5)


class TestScenario:
    def test_flow_a_pass_exit_zero(self, tmp_path, demo_config_path, capsys):
        trace_file = tmp_path / "trace.json"
        code = main(
            [
                "scenario",
                "saml-sp-to-wsfed-ip",
                "--config",
                str(demo_config_path),
                "--trace",
                str(trace_file),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "saml-sp-to-wsfed-ip: Pass" in out
        written = json.loads(trace_file.read_text())
        assert written["verdict"] == "Pass"
        assert len(written["steps"]) == 5

    def test_unknown_scenario_name(self, demo_config_path, capsys):
        code = main(["scenario", "nonsense", "--config", str(demo_config_path)])
        assert code == 3
        assert "ScenarioSetupError" in capsys.readouterr().err

    def test_scenario_accepts_camel_case_names(self, demo_config_path):
        assert main(["scenario", "WsfedSpToSamlIp", "--config", str(demo_config_path)]) == 0
