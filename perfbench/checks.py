"""Output checks computed apart from the program.

Wire messages are decoded here with the standard library (``zlib``,
``base64``, ``xml.etree``), signatures are checked with ``cryptography``
directly, and persistent pseudonyms are recomputed with ``hmac``. Nothing
here calls fedbridge's parsers, serializers or signing code.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import re
import zlib
import xml.etree.ElementTree as ET
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization

SAML_NS = "urn:oasis:names:tc:SAML:2.0:assertion"
WSA_NS = "http://www.w3.org/2005/08/addressing"

_ASSERTION_RE = re.compile(r"<(?:\w+:)?Assertion\b.*?</(?:\w+:)?Assertion>", re.S)
_SIGNATURE_RE = re.compile(r"<(?:\w+:)?Signature\b[^>]*/>")
_ATTR_RE = re.compile(r'(\w+)="([^"]*)"')


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def query(url: str) -> dict[str, str]:
    return dict(parse_qsl(urlsplit(url).query, keep_blank_values=True))


def target(url: str) -> str:
    parts = urlsplit(url)
    return f"{parts.scheme}://{parts.netloc}{parts.path}"


def saml_request(location: str) -> tuple[ET.Element, str]:
    """The AuthnRequest element and RelayState of a SAML redirect."""
    params = query(location)
    xml = zlib.decompress(base64.b64decode(params["SAMLRequest"]), -15)
    return ET.fromstring(xml), params.get("RelayState", "")


def _local(tag: str) -> str:
    return tag.rpartition("}")[2]


def assertion_fields(xml: str) -> dict:
    """Every field of the one assertion in ``xml``, read with ElementTree."""
    root = ET.fromstring(xml)
    if _local(root.tag) != "Assertion":
        root = next(el for el in root.iter() if _local(el.tag) == "Assertion")
    name_id = root.find(f"{{{SAML_NS}}}Subject/{{{SAML_NS}}}NameID")
    conditions = root.find(f"{{{SAML_NS}}}Conditions")
    statement = root.find(f"{{{SAML_NS}}}AuthnStatement")
    return {
        "id": root.get("ID"),
        "issuer": root.findtext(f"{{{SAML_NS}}}Issuer"),
        "subject": name_id.text,
        "subject_format": name_id.get("Format"),
        "not_before": conditions.get("NotBefore"),
        "not_on_or_after": conditions.get("NotOnOrAfter"),
        "authn_instant": statement.get("AuthnInstant"),
        "authn_class": statement.findtext(f".//{{{SAML_NS}}}AuthnContextClassRef"),
        "attributes": [
            (attr.get("Name"), attr.findtext(f"{{{SAML_NS}}}AttributeValue") or "")
            for attr in root.iter(f"{{{SAML_NS}}}Attribute")
        ],
    }


class BrokerSignature:
    """Checks a relayed assertion's signature under the broker's public key,
    loaded from its PEM file. The signed bytes are the assertion element as
    it travelled, with its detached signature element taken out."""

    def __init__(self, pem_path: Path, key_id: str) -> None:
        self.key = serialization.load_pem_public_key(Path(pem_path).read_bytes())
        self.key_id = key_id

    def check(self, document_xml: str) -> None:
        match = _ASSERTION_RE.search(document_xml)
        require(match is not None, "relayed document carries no assertion")
        assertion = match.group(0)
        signature = _SIGNATURE_RE.search(assertion)
        require(signature is not None, "relayed assertion is unsigned")
        attrs = dict(_ATTR_RE.findall(signature.group(0)))
        require(attrs.get("KeyId") == self.key_id,
                f"relayed assertion signed with key {attrs.get('KeyId')!r}")
        require(attrs.get("Algorithm") == "ed25519", "relayed assertion not signed with ed25519")
        signed = (assertion[:signature.start()] + assertion[signature.end():]).encode("utf-8")
        try:
            self.key.verify(base64.b64decode(attrs.get("Value", "")), signed)
        except InvalidSignature:
            raise CheckFailed("relayed assertion fails verification under the broker key") from None


def persistent_pseudonym(secret: bytes, subject: str, sp: str) -> str:
    digest = hmac.new(secret, subject.encode() + b"\x00" + sp.encode(), hashlib.sha256).digest()
    return base64.urlsafe_b64encode(digest).decode("ascii").rstrip("=")


def renamed(attributes: list[tuple[str, str]], table: dict[str, str]) -> list[tuple[str, str]]:
    return [(table.get(name, name), value) for name, value in attributes]


def check_relayed_assertion(original: dict, relayed: dict, *, subject: str,
                            subject_format: str | None, attributes) -> None:
    """The relayed assertion equals the authority's field for field, apart
    from the subject (``subject``, and ``subject_format`` when the broker
    rewrote it) and the renamed ``attributes``."""
    for key in ("id", "issuer", "not_before", "not_on_or_after", "authn_instant", "authn_class"):
        require(relayed[key] == original[key], f"relayed assertion changed {key}")
    require(relayed["subject"] == subject, "relayed subject is not the expected one")
    require(relayed["subject_format"] == (subject_format or original["subject_format"]),
            "relayed subject format is not the expected one")
    require(relayed["attributes"] == list(attributes), "relayed attributes differ")
