"""Broker configuration: one JSON file describing the deployment.

Carries the broker identity and listen address, key files, TTLs, the trust
topology (entities, links, endpoints, key ownership), the
authentication-context and attribute-name mapping tables, and the pseudonym
policy. A ``mocks`` section configures the test harness actors (user table,
which keys each mock service provider trusts) so one file can drive a full
scenario.

Relative file paths are resolved against the directory containing the
configuration file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .messages import EntityId
from .signing import KeyRecord, KeyRole, KeyStore, load_key_pem
from .translate import AttributeNameMapping, AuthnContextMapping
from .trust import Dialect, FederationEntity, Role, TrustTopology

DEFAULT_CORRELATION_TTL = 300.0
DEFAULT_REPLAY_TTL = 300.0
DEFAULT_CLOCK_SKEW = 60.0

# The longest a TTL may be. The broker's expiring maps hold what arrived
# within their TTL, up to a fixed cap, so the TTL sets the request rate the
# cap serves; an hour is far longer than a passive sign-on takes.
MAX_TTL_S = 3600.0
# The most clock skew tolerated. The skew widens every assertion's validity
# window and lengthens how long the broker remembers a relayed assertion ID
# (MAX_ASSERTION_LIFETIME_S + 2 x skew); past a few minutes it no longer
# covers drifting clocks but admits assertions long expired.
MAX_CLOCK_SKEW_S = 300.0

PSEUDONYM_MODES = ("none", "persistent", "transient")


@dataclass
class MocksConfig:
    """Harness actors: static user table and per-SP trust overrides."""

    users: dict[str, dict[str, str]] = field(default_factory=dict)
    active_subject: str | None = None
    sts_has_session: bool = True
    idp_has_session: bool = True
    sp_trusted_keys: dict[str, list[str]] = field(default_factory=dict)


@dataclass
class BrokerConfig:
    broker_id: EntityId
    listen_host: str
    listen_port: int
    signing_key: KeyRecord
    topology: TrustTopology
    ctx_map: AuthnContextMapping
    attr_map: AttributeNameMapping
    public_keys: dict[str, KeyRecord]
    private_keys: dict[str, KeyRecord]
    correlation_ttl: float = DEFAULT_CORRELATION_TTL
    replay_ttl: float = DEFAULT_REPLAY_TTL
    clock_skew: float = DEFAULT_CLOCK_SKEW
    pseudonym_secret: bytes | None = None
    pseudonym_modes: dict[str, str] = field(default_factory=dict)
    mocks: MocksConfig = field(default_factory=MocksConfig)

    @property
    def broker_entity(self) -> FederationEntity:
        return self.topology.entity(self.broker_id)

    def trusted_store_for_sp(self, sp_id: EntityId) -> KeyStore:
        """What a mock service provider trusts; default: the broker's key."""
        key_ids = self.mocks.sp_trusted_keys.get(
            sp_id.value, list(self.broker_entity.keys)
        )
        return KeyStore([self.public_keys[k] for k in key_ids if k in self.public_keys])

    def private_key_for(self, entity_id: EntityId) -> KeyRecord:
        entity = self.topology.entity(entity_id)
        for key_id in entity.keys:
            if key_id in self.private_keys:
                return self.private_keys[key_id]
        raise ValueError(f"no private key configured for {entity_id}")


def _load_entity(spec: dict[str, Any]) -> FederationEntity:
    return FederationEntity(
        id=EntityId(spec["id"]),
        role=Role(spec["role"]),
        dialect=Dialect(spec["dialect"]),
        endpoints=spec.get("endpoints", {}),
        keys=tuple(spec.get("keys", ())),
    )


def load_config(path: str | Path) -> BrokerConfig:
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    return config_from_dict(data, base_dir=path.parent)


def config_from_dict(data: dict[str, Any], base_dir: str | Path = ".") -> BrokerConfig:
    base = Path(base_dir)

    def resolve(p: str) -> Path:
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base / candidate

    broker_section = data["broker"]
    broker_id = EntityId(broker_section["entity_id"])
    listen = broker_section.get("listen", "127.0.0.1:0")
    host, _, port_text = listen.rpartition(":")
    listen_host, listen_port = host or "127.0.0.1", int(port_text)

    entities = [_load_entity(spec) for spec in data.get("entities", [])]
    links = [
        (EntityId(a), EntityId(b)) for a, b in data.get("links", [])
    ]
    topology = TrustTopology(entities, links)

    owners = {e.id.value: e for e in entities}
    public_keys: dict[str, KeyRecord] = {}
    private_keys: dict[str, KeyRecord] = {}
    for key_spec in data.get("keys", []):
        key_id = key_spec["key_id"]
        owner = EntityId(key_spec["owner"])
        if owner.value not in owners:
            raise ValueError(f"key {key_id} owned by unknown entity {owner}")
        public_keys[key_id] = load_key_pem(
            resolve(key_spec["public_key_file"]), key_id, owner, KeyRole.VERIFYING_PUBLIC
        )
        if "private_key_file" in key_spec:
            private_keys[key_id] = load_key_pem(
                resolve(key_spec["private_key_file"]), key_id, owner, KeyRole.SIGNING_PRIVATE
            )

    signing_key_id = broker_section["signing_key_id"]
    if signing_key_id not in private_keys:
        raise ValueError(f"broker signing key {signing_key_id!r} has no private key file")
    signing_key = private_keys[signing_key_id]
    if signing_key.owner != broker_id:
        raise ValueError("broker signing key must be owned by the broker entity")

    ctx_section = data.get("authn_context_map", {})
    ctx_map = AuthnContextMapping(
        entries=tuple((a, b) for a, b in ctx_section.get("entries", [])),
        pass_through=bool(ctx_section.get("pass_through", False)),
    )
    attr_map = AttributeNameMapping(
        entries=tuple((a, b) for a, b in data.get("attribute_name_map", []))
    )

    ttl_section = data.get("ttl", {})
    ttls = {name: float(ttl_section.get(name, default)) for name, default in (
        ("correlation_seconds", DEFAULT_CORRELATION_TTL),
        ("replay_seconds", DEFAULT_REPLAY_TTL),
        ("clock_skew_seconds", DEFAULT_CLOCK_SKEW),
    )}
    for name in ("correlation_seconds", "replay_seconds"):
        if not 0 < ttls[name] <= MAX_TTL_S:
            raise ValueError(f"ttl.{name} must lie in (0, {MAX_TTL_S:g}] s, not {ttls[name]:g}")
    if not 0 <= ttls["clock_skew_seconds"] <= MAX_CLOCK_SKEW_S:
        raise ValueError(f"ttl.clock_skew_seconds must lie in [0, {MAX_CLOCK_SKEW_S:g}] s, "
                         f"not {ttls['clock_skew_seconds']:g}")

    pseudonym_section = data.get("pseudonym", {})
    pseudonym_secret = None
    if "master_secret_file" in pseudonym_section:
        pseudonym_secret = resolve(pseudonym_section["master_secret_file"]).read_bytes()
    pseudonym_modes = dict(pseudonym_section.get("modes", {}))
    for sp_id, mode in pseudonym_modes.items():
        if mode not in PSEUDONYM_MODES:
            raise ValueError(f"unknown pseudonym mode {mode!r} for {sp_id}")
        if mode != "none" and pseudonym_secret is None:
            raise ValueError("pseudonym modes require a master_secret_file")
        sp = owners.get(sp_id)
        if sp is None or sp.role is not Role.SERVICE_PROVIDER:
            raise ValueError(f"pseudonym.modes names {sp_id}, not a registered service provider")

    mocks_section = data.get("mocks", {})
    mocks = MocksConfig(
        users={
            u["subject"]: dict(u.get("attributes", {}))
            for u in mocks_section.get("users", [])
        },
        active_subject=mocks_section.get("active_subject"),
        sts_has_session=bool(mocks_section.get("sts_has_session", True)),
        idp_has_session=bool(mocks_section.get("idp_has_session", True)),
        sp_trusted_keys={
            k: list(v) for k, v in mocks_section.get("sp_trusted_keys", {}).items()
        },
    )

    config = BrokerConfig(
        broker_id=broker_id,
        listen_host=listen_host,
        listen_port=listen_port,
        signing_key=signing_key,
        topology=topology,
        ctx_map=ctx_map,
        attr_map=attr_map,
        public_keys=public_keys,
        private_keys=private_keys,
        correlation_ttl=ttls["correlation_seconds"],
        replay_ttl=ttls["replay_seconds"],
        clock_skew=ttls["clock_skew_seconds"],
        pseudonym_secret=pseudonym_secret,
        pseudonym_modes=pseudonym_modes,
        mocks=mocks,
    )

    broker_entity = config.broker_entity
    if broker_entity.role is not Role.BROKER:
        raise ValueError(f"{broker_id} is not declared with the broker role")
    for kind in ("saml_sso", "saml_acs", "wsfed_signin", "wsfed_return"):
        broker_entity.endpoint(kind)
    for entity in entities:
        for key_id in entity.keys:
            if key_id not in public_keys:
                raise ValueError(f"entities: {entity.id} lists key {key_id!r}, which keys lacks")
            if public_keys[key_id].owner != entity.id:
                raise ValueError(f"entities: {entity.id} lists key {key_id!r}, "
                                 f"owned by {public_keys[key_id].owner}")
        if entity.role is Role.SERVICE_PROVIDER:
            kind = "acs" if entity.dialect is Dialect.SAML2 else "return"
            if kind not in entity.endpoints:
                raise ValueError(f"entities: service provider {entity.id} has no "
                                 f"{kind!r} endpoint")
    return config
