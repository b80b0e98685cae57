"""Seeded federations: keys, users, topology and the config file the broker loads.

Everything here comes from ``random.Random(seed)``: the Ed25519 keys, the
pseudonym master secret, the users and their attributes. The program gets
only these generated inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ed25519

BROKER_ID = "https://broker.bench.test"
STS_ID = "https://sts.bench.test"
IDP_ID = "https://idp.bench.test"
BROKER_KEY_ID = "broker-signing"

PASSWORD_CLASS = "urn:oasis:names:tc:SAML:2.0:ac:classes:Password"
PASSWORD_METHOD = "http://schemas.xmlsoap.org/ws/2005/05/identity/authenticationmethods/password"
PERSISTENT_FORMAT = "urn:oasis:names:tc:SAML:2.0:nameid-format:persistent"
TRANSIENT_FORMAT = "urn:oasis:names:tc:SAML:2.0:nameid-format:transient"

_CLAIMS = "http://schemas.xmlsoap.org/ws/2005/05/identity/claims/"
# SAML attribute name <-> WS-Federation claim type, for the attribute-name map.
ATTRIBUTE_MAP = [
    ("urn:oid:0.9.2342.19200300.100.1.3", _CLAIMS + "emailaddress"),
    ("urn:oid:2.5.4.42", _CLAIMS + "givenname"),
    ("urn:oid:2.5.4.4", _CLAIMS + "surname"),
    ("urn:oid:2.16.840.1.113730.3.1.241", _CLAIMS + "name"),
    ("urn:oid:1.3.6.1.4.1.5923.1.1.1.6", _CLAIMS + "upn"),
    ("urn:oid:2.5.4.20", _CLAIMS + "mobilephone"),
    ("urn:oid:2.5.4.10", _CLAIMS + "organization"),
    ("urn:oid:1.3.6.1.4.1.5923.1.1.1.1", _CLAIMS + "role"),
]
UNMAPPED_NAMES = [f"urn:bench:attr:{word}" for word in (
    "department", "costCenter", "building", "floor", "locale", "timezone",
    "employeeType", "manager", "badge", "clearance", "project", "team",
    "shell", "homeDirectory", "quota", "expiry",
)]
_VALUE_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .-_@&<>\"'"


@dataclass
class Federation:
    config_path: Path
    broker_public_pem: Path
    pseudonym_secret: bytes
    users: dict[str, dict[str, str]]
    saml_sps: list[str]
    wsfed_sps: list[str]
    attribute_map: list[tuple[str, str]]
    pseudonym_modes: dict[str, str] = field(default_factory=dict)


def _write_keypair(rng: random.Random, directory: Path, key_id: str) -> tuple[str, str]:
    private = ed25519.Ed25519PrivateKey.from_private_bytes(rng.randbytes(32))
    private_file = directory / f"{key_id}.key.pem"
    public_file = directory / f"{key_id}.pub.pem"
    private_file.write_bytes(private.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    ))
    public_file.write_bytes(private.public_key().public_bytes(
        serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo
    ))
    return private_file.name, public_file.name


def seeded_users(rng: random.Random, count: int, attrs: tuple[int, int],
                 mapped: bool) -> dict[str, dict[str, str]]:
    """``count`` users with ``attrs[0]``..``attrs[1]`` attributes each. With
    ``mapped``, names come from both sides of the attribute-name map (at most
    one of each pair per user) as well as from unmapped names."""
    users = {}
    for index in range(count):
        subject = f"user{index:03d}.{rng.randbytes(4).hex()}@bench.test"
        pool = list(UNMAPPED_NAMES)
        if mapped:
            pool += [pair[rng.randrange(2)] for pair in ATTRIBUTE_MAP]
        names = rng.sample(pool, rng.randint(*attrs))
        users[subject] = {
            name: "".join(rng.choices(_VALUE_CHARS, k=rng.randint(4, 40))) for name in names
        }
    return users


def build_federation(
    directory: Path,
    rng: random.Random,
    *,
    sps_per_dialect: int,
    users: dict[str, dict[str, str]],
    attribute_map: bool,
    pseudonyms: bool,
    decoy_authorities: bool,
    broker_base: str,
    replay_seconds: int = 300,
    sp_bases: tuple[str, str] | None = None,
    sts_url: str = "https://sts.bench.test/signin",
    idp_url: str = "https://idp.bench.test/sso",
) -> Federation:
    """Write keys and config.json under ``directory``.

    One STS and one SAML IdP sit behind the broker. ``decoy_authorities``
    adds two more authorities per dialect that the broker does not bridge
    (one linked straight to the first SP of the other dialect, one linked to
    nobody), so each outbound request resolves more than one trust path.
    ``replay_seconds`` is how long the broker remembers a request ID.
    ``sp_bases`` (two ``http://host:port``) places the SAML and the
    WS-Federation SP on real ports; otherwise SP endpoints are names only.
    """
    directory.mkdir(parents=True, exist_ok=True)
    keys = []
    for key_id, owner in ((BROKER_KEY_ID, BROKER_ID), ("sts-signing", STS_ID),
                          ("idp-signing", IDP_ID)):
        private_file, public_file = _write_keypair(rng, directory, key_id)
        keys.append({"key_id": key_id, "owner": owner,
                     "public_key_file": public_file, "private_key_file": private_file})
    secret = rng.randbytes(32)
    (directory / "pseudonym.secret").write_bytes(secret)

    entities = [
        {"id": BROKER_ID, "role": "broker", "dialect": "both", "keys": [BROKER_KEY_ID],
         "endpoints": {"saml_sso": f"{broker_base}/saml/sso",
                       "saml_acs": f"{broker_base}/saml/acs",
                       "wsfed_signin": f"{broker_base}/wsfed/signin",
                       "wsfed_return": f"{broker_base}/wsfed/return"}},
        {"id": STS_ID, "role": "identity-provider", "dialect": "wsfed1.1b",
         "keys": ["sts-signing"], "endpoints": {"signin": sts_url}},
        {"id": IDP_ID, "role": "identity-provider", "dialect": "saml2",
         "keys": ["idp-signing"], "endpoints": {"sso": idp_url}},
    ]
    links = [[BROKER_ID, STS_ID], [BROKER_ID, IDP_ID]]
    saml_sps, wsfed_sps = [], []
    for index in range(sps_per_dialect):
        saml_id = f"https://saml-sp-{index:02d}.bench.test"
        wsfed_id = f"https://wsfed-sp-{index:02d}.bench.test"
        saml_base, wsfed_base = sp_bases or (saml_id, wsfed_id)
        saml_acs, wsfed_return = f"{saml_base}/acs", f"{wsfed_base}/return"
        entities.append({"id": saml_id, "role": "service-provider", "dialect": "saml2",
                         "endpoints": {"acs": saml_acs}})
        entities.append({"id": wsfed_id, "role": "service-provider", "dialect": "wsfed1.1b",
                         "endpoints": {"return": wsfed_return}})
        links += [[saml_id, BROKER_ID], [wsfed_id, BROKER_ID]]
        saml_sps.append(saml_id)
        wsfed_sps.append(wsfed_id)
    if decoy_authorities:
        for dialect, kind, first_sp in (("wsfed1.1b", "sts", saml_sps[0]),
                                        ("saml2", "idp", wsfed_sps[0])):
            endpoint = "signin" if kind == "sts" else "sso"
            linked = f"https://zz-{kind}-direct.bench.test"
            lonely = f"https://zz-{kind}-unlinked.bench.test"
            for decoy in (linked, lonely):
                entities.append({"id": decoy, "role": "identity-provider", "dialect": dialect,
                                 "endpoints": {endpoint: f"{decoy}/{endpoint}"}})
            links.append([first_sp, linked])

    pairs = list(ATTRIBUTE_MAP) if attribute_map else []
    modes = {}
    if pseudonyms:
        modes = {sp: "persistent" for sp in saml_sps} | {sp: "transient" for sp in wsfed_sps}
    first_user = next(iter(users))
    config = {
        "broker": {"entity_id": BROKER_ID, "listen": broker_base.split("//", 1)[1],
                   "signing_key_id": BROKER_KEY_ID},
        "ttl": {"correlation_seconds": 300, "replay_seconds": replay_seconds,
                "clock_skew_seconds": 60},
        "keys": keys,
        "entities": entities,
        "links": links,
        "authn_context_map": {"pass_through": False,
                              "entries": [[PASSWORD_CLASS, PASSWORD_METHOD]]},
        "attribute_name_map": [list(pair) for pair in pairs],
        "pseudonym": {"master_secret_file": "pseudonym.secret", "modes": modes},
        "mocks": {
            "users": [{"subject": s, "attributes": a} for s, a in users.items()],
            "active_subject": first_user,
            "sts_has_session": True,
            "idp_has_session": True,
        },
    }
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return Federation(
        config_path=config_path,
        broker_public_pem=directory / f"{BROKER_KEY_ID}.pub.pem",
        pseudonym_secret=secret,
        users=users,
        saml_sps=saml_sps,
        wsfed_sps=wsfed_sps,
        attribute_map=pairs,
        pseudonym_modes=modes,
    )
