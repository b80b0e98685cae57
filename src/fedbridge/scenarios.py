"""Complete cross-dialect sign-on flows against a live broker and mocks.

``start_environment`` brings up the broker plus every mock actor the
configuration's topology names, each on the host:port its endpoint URLs
declare. ``run_scenario`` then drives a passive client from a service
provider's login URL through the full relay chain and reduces what the
provider recorded to a Pass/Fail verdict.

``write_demo_config`` produces a self-contained runnable deployment
(fresh keys, free ports, two-user table) for the CLI and the test suite.
"""

from __future__ import annotations

import json
import secrets
import socket
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from urllib.parse import urlparse

from .broker import Broker
from .client import ClientResult, PassiveClient, ScenarioTrace
from .config import BrokerConfig, load_config
from .errors import ScenarioSetupError
from .httpd import ServerHandle
from .messages import EntityId
from .mocks import MockSamlIdp, MockSamlSp, MockWsfedSp, MockWsfedSts
from .signing import generate_keypair, save_key_pem
from .trust import Dialect, Role

EMAIL_NAMEID_FORMAT = "urn:oasis:names:tc:SAML:1.1:nameid-format:emailAddress"

DEFAULT_AUTHN_CONTEXT_ENTRIES = [
    [
        "urn:oasis:names:tc:SAML:2.0:ac:classes:Password",
        "http://schemas.xmlsoap.org/ws/2005/05/identity/authenticationmethods/password",
    ],
    [
        "urn:oasis:names:tc:SAML:2.0:ac:classes:TLSClient",
        "http://schemas.xmlsoap.org/ws/2005/05/identity/authenticationmethods/tlsclient",
    ],
    [
        "urn:oasis:names:tc:SAML:2.0:ac:classes:X509",
        "http://schemas.xmlsoap.org/ws/2005/05/identity/authenticationmethods/x509",
    ],
]


class Scenario(Enum):
    SAML_SP_TO_WSFED_IP = "saml-sp-to-wsfed-ip"
    WSFED_SP_TO_SAML_IP = "wsfed-sp-to-saml-ip"

    @classmethod
    def from_name(cls, name: str) -> "Scenario":
        normalized = name.replace("_", "").replace("-", "").lower()
        for scenario in cls:
            if scenario.value.replace("-", "") == normalized:
                return scenario
        raise ScenarioSetupError(f"unknown scenario {name!r}")


@dataclass
class Environment:
    """A started broker plus mock actors, addressable for one test run."""

    config: BrokerConfig
    broker: Broker | None = None
    handles: list[ServerHandle] = field(default_factory=list)
    actors: dict[str, str] = field(default_factory=dict)
    saml_sps: list[MockSamlSp] = field(default_factory=list)
    wsfed_sps: list[MockWsfedSp] = field(default_factory=list)
    saml_idps: list[MockSamlIdp] = field(default_factory=list)
    wsfed_stss: list[MockWsfedSts] = field(default_factory=list)

    @property
    def saml_sp(self) -> MockSamlSp:
        return self._one(self.saml_sps, "SAML service provider")

    @property
    def wsfed_sp(self) -> MockWsfedSp:
        return self._one(self.wsfed_sps, "WS-Federation service provider")

    @property
    def saml_idp(self) -> MockSamlIdp:
        return self._one(self.saml_idps, "SAML identity provider")

    @property
    def wsfed_sts(self) -> MockWsfedSts:
        return self._one(self.wsfed_stss, "WS-Federation token service")

    @staticmethod
    def _one(items, what):
        if not items:
            raise ScenarioSetupError(f"topology declares no {what}")
        return items[0]

    def actor_for(self, netloc: str) -> str:
        return self.actors.get(netloc, netloc)

    def close(self) -> None:
        for handle in self.handles:
            handle.stop()
        self.handles.clear()


def _netloc(url: str) -> tuple[str, int]:
    parsed = urlparse(url)
    if parsed.hostname is None or parsed.port is None:
        raise ScenarioSetupError(f"endpoint needs an explicit host:port: {url}")
    return parsed.hostname, parsed.port


def start_environment(config: BrokerConfig, *, with_broker: bool = True) -> Environment:
    """Start the broker and one mock per topology entity; endpoints decide
    where each one binds. Without the broker, the mocks run on their own."""
    env = Environment(config=config)
    started: dict[tuple[str, int], str] = {}

    def launch(name: str, bind_url: str, routes) -> None:
        address = _netloc(bind_url)
        if address in started:
            raise ScenarioSetupError(
                f"{name} and {started[address]} both want {address[0]}:{address[1]}"
            )
        try:
            handle = ServerHandle(address[0], address[1], routes, name)
        except OSError as exc:
            raise ScenarioSetupError(f"cannot bind {name} at {address}: {exc}") from None
        env.handles.append(handle)
        env.actors[f"{address[0]}:{address[1]}"] = name
        started[address] = name

    try:
        broker_entity = config.broker_entity
        if with_broker:
            env.broker = Broker(config)
            launch("broker", broker_entity.endpoint("saml_sso"), env.broker.routes())

        mocks = config.mocks
        for entity in config.topology.entities():
            if entity.role is Role.IDENTITY_PROVIDER and entity.dialect is Dialect.WSFED11B:
                sts = MockWsfedSts(
                    entity,
                    config.private_key_for(entity.id),
                    mocks.users,
                    active_subject=mocks.active_subject,
                    has_session=mocks.sts_has_session,
                    clock_skew=config.clock_skew,
                )
                env.wsfed_stss.append(sts)
                launch(_actor_name("wsfed-sts", len(env.wsfed_stss)),
                       entity.endpoint("signin"), sts.routes())
            elif entity.role is Role.IDENTITY_PROVIDER and entity.dialect is Dialect.SAML2:
                idp = MockSamlIdp(
                    entity,
                    config.private_key_for(entity.id),
                    mocks.users,
                    active_subject=mocks.active_subject,
                    has_session=mocks.idp_has_session,
                    clock_skew=config.clock_skew,
                )
                env.saml_idps.append(idp)
                launch(_actor_name("saml-idp", len(env.saml_idps)),
                       entity.endpoint("sso"), idp.routes())
            elif entity.role is Role.SERVICE_PROVIDER and entity.dialect is Dialect.SAML2:
                sp = MockSamlSp(
                    entity,
                    config.trusted_store_for_sp(entity.id),
                    broker_entity.endpoint("saml_sso"),
                    clock_skew=config.clock_skew,
                    name_id_format=EMAIL_NAMEID_FORMAT,
                )
                env.saml_sps.append(sp)
                launch(_actor_name("saml-sp", len(env.saml_sps)),
                       entity.endpoint("acs"), sp.routes())
            elif entity.role is Role.SERVICE_PROVIDER and entity.dialect is Dialect.WSFED11B:
                sp = MockWsfedSp(
                    entity,
                    config.trusted_store_for_sp(entity.id),
                    broker_entity.endpoint("wsfed_signin"),
                    clock_skew=config.clock_skew,
                    name_id_format=EMAIL_NAMEID_FORMAT,
                )
                env.wsfed_sps.append(sp)
                launch(_actor_name("wsfed-sp", len(env.wsfed_sps)),
                       entity.endpoint("return"), sp.routes())
    except Exception:
        env.close()
        raise
    return env


def _actor_name(base: str, index: int) -> str:
    return base if index == 1 else f"{base}-{index}"


@contextmanager
def environment(config: BrokerConfig):
    env = start_environment(config)
    try:
        yield env
    finally:
        env.close()


def _result_to_trace(result: ClientResult, sp) -> ScenarioTrace:
    trace = ScenarioTrace(steps=result.steps)
    if result.relay_violations:
        trace.verdict = "Fail"
        trace.reason = "client originated a parameter: " + result.relay_violations[0]
        return trace
    if result.final_outcome == "established":
        matching = [
            c for c in sp.contexts if c.correlation == result.final_correlation
        ]
        if matching:
            trace.verdict = "Pass"
            return trace
        trace.reason = "provider page reported success without a recorded context"
        return trace
    trace.reason = result.final_outcome or f"terminal status {result.final_status}"
    return trace


def run_flow(
    env: Environment,
    scenario: Scenario,
    *,
    force_authn: bool = False,
    subject: str | None = None,
) -> ScenarioTrace:
    """Drive one passive client through a started environment."""
    if scenario is Scenario.SAML_SP_TO_WSFED_IP:
        sp = env.saml_sp
        authority = env.wsfed_sts
    else:
        sp = env.wsfed_sp
        authority = env.saml_idp
    sp.force_authn = force_authn
    if subject is not None:
        authority.active_subject = subject

    with PassiveClient(env.actor_for) as client:
        result = client.run(sp.login_url)
    return _result_to_trace(result, sp)


def run_scenario(
    name: str | Scenario,
    config: BrokerConfig,
    *,
    force_authn: bool = False,
    subject: str | None = None,
    trace_path: str | Path | None = None,
) -> ScenarioTrace:
    """Start broker and mocks per config, run the named scenario, tear down."""
    scenario = name if isinstance(name, Scenario) else Scenario.from_name(name)
    with environment(config) as env:
        trace = run_flow(env, scenario, force_authn=force_authn, subject=subject)
    if trace_path is not None:
        trace.write(trace_path)
    return trace


def run_concurrent(
    name: str | Scenario, config: BrokerConfig, count: int
) -> list[ScenarioTrace]:
    """Stress mode: many passive clients through one environment at once."""
    from concurrent.futures import ThreadPoolExecutor

    scenario = name if isinstance(name, Scenario) else Scenario.from_name(name)
    with environment(config) as env:
        sp = env.saml_sp if scenario is Scenario.SAML_SP_TO_WSFED_IP else env.wsfed_sp

        def one_flow(_: int) -> ScenarioTrace:
            with PassiveClient(env.actor_for) as client:
                result = client.run(sp.login_url)
            return _result_to_trace(result, sp)

        with ThreadPoolExecutor(max_workers=count) as pool:
            return list(pool.map(one_flow, range(count)))


# ---------------------------------------------------------------------------
# Demo deployment
# ---------------------------------------------------------------------------


def free_ports(count: int, host: str = "127.0.0.1") -> list[int]:
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def build_demo_config(directory: str | Path, *, host: str = "127.0.0.1") -> dict:
    """Write keys and master secret under ``directory`` and return a config
    dict wiring one broker, one authority and one provider per dialect."""
    directory = Path(directory)
    keys_dir = directory / "keys"
    keys_dir.mkdir(parents=True, exist_ok=True)
    broker_port, sts_port, idp_port, saml_sp_port, wsfed_sp_port = free_ports(5, host)

    broker_id = "https://broker.example.test"
    sts_id = "https://sts.example.test"
    idp_id = "https://idp.example.test"
    saml_sp_id = "https://saml-sp.example.test"
    wsfed_sp_id = "https://wsfed-sp.example.test"

    key_specs = []
    for key_id, owner in (
        ("broker-signing", broker_id),
        ("sts-signing", sts_id),
        ("idp-signing", idp_id),
    ):
        private, public = generate_keypair(key_id, EntityId(owner))
        save_key_pem(private, keys_dir / f"{key_id}.key.pem")
        save_key_pem(public, keys_dir / f"{key_id}.pub.pem")
        key_specs.append(
            {
                "key_id": key_id,
                "owner": owner,
                "public_key_file": f"keys/{key_id}.pub.pem",
                "private_key_file": f"keys/{key_id}.key.pem",
            }
        )

    secret_file = keys_dir / "pseudonym.secret"
    secret_file.write_bytes(secrets.token_bytes(32))

    return {
        "broker": {
            "entity_id": broker_id,
            "listen": f"{host}:{broker_port}",
            "signing_key_id": "broker-signing",
        },
        "ttl": {
            "correlation_seconds": 300,
            "replay_seconds": 300,
            "clock_skew_seconds": 60,
        },
        "keys": key_specs,
        "entities": [
            {
                "id": broker_id,
                "role": "broker",
                "dialect": "both",
                "keys": ["broker-signing"],
                "endpoints": {
                    "saml_sso": f"http://{host}:{broker_port}/saml/sso",
                    "saml_acs": f"http://{host}:{broker_port}/saml/acs",
                    "wsfed_signin": f"http://{host}:{broker_port}/wsfed/signin",
                    "wsfed_return": f"http://{host}:{broker_port}/wsfed/return",
                },
            },
            {
                "id": sts_id,
                "role": "identity-provider",
                "dialect": "wsfed1.1b",
                "keys": ["sts-signing"],
                "endpoints": {"signin": f"http://{host}:{sts_port}/signin"},
            },
            {
                "id": idp_id,
                "role": "identity-provider",
                "dialect": "saml2",
                "keys": ["idp-signing"],
                "endpoints": {"sso": f"http://{host}:{idp_port}/sso"},
            },
            {
                "id": saml_sp_id,
                "role": "service-provider",
                "dialect": "saml2",
                "endpoints": {"acs": f"http://{host}:{saml_sp_port}/acs"},
            },
            {
                "id": wsfed_sp_id,
                "role": "service-provider",
                "dialect": "wsfed1.1b",
                "endpoints": {"return": f"http://{host}:{wsfed_sp_port}/return"},
            },
        ],
        "links": [
            [saml_sp_id, broker_id],
            [wsfed_sp_id, broker_id],
            [broker_id, sts_id],
            [broker_id, idp_id],
        ],
        "authn_context_map": {
            "pass_through": False,
            "entries": [list(pair) for pair in DEFAULT_AUTHN_CONTEXT_ENTRIES],
        },
        "attribute_name_map": [],
        "pseudonym": {
            "master_secret_file": "keys/pseudonym.secret",
            "modes": {},
        },
        "mocks": {
            "users": [
                {
                    "subject": "alice",
                    "attributes": {
                        "urn:example:attr:mail": "alice@example.test",
                        "urn:example:attr:displayName": "Alice Example",
                    },
                },
                {
                    "subject": "bob",
                    "attributes": {"urn:example:attr:mail": "bob@example.test"},
                },
            ],
            "active_subject": "alice",
            "sts_has_session": True,
            "idp_has_session": True,
        },
    }


def write_demo_config(directory: str | Path, *, host: str = "127.0.0.1") -> Path:
    """Materialize a runnable demo deployment; returns the config file path."""
    directory = Path(directory)
    data = build_demo_config(directory, host=host)
    path = directory / "config.json"
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return path


__all__ = [
    "Scenario",
    "Environment",
    "start_environment",
    "environment",
    "run_flow",
    "run_scenario",
    "run_concurrent",
    "build_demo_config",
    "write_demo_config",
    "free_ports",
    "load_config",
    "EMAIL_NAMEID_FORMAT",
    "DEFAULT_AUTHN_CONTEXT_ENTRIES",
]
