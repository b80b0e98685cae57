"""Exception vocabulary shared by every fedbridge layer.

Each exception carries a stable ``code`` string so the HTTP layer can relay
errors to passive clients in a machine-readable header without leaking
tracebacks, and so tests can assert on the exact failure kind.
"""

from __future__ import annotations


class FedBridgeError(Exception):
    """Base class: ``code`` is the stable machine-readable error name."""

    code = "FedBridgeError"
    http_status = 400

    def __str__(self) -> str:
        detail = super().__str__()
        return f"{self.code}: {detail}" if detail else self.code


# --- message model -----------------------------------------------------------

class MalformedXml(FedBridgeError):
    code = "MalformedXml"


class WrongNamespace(FedBridgeError):
    code = "WrongNamespace"


class InvariantViolation(FedBridgeError):
    code = "InvariantViolation"


# --- signing ------------------------------------------------------------------

class SignatureInvalid(FedBridgeError):
    code = "SignatureInvalid"


class MissingSignature(FedBridgeError):
    code = "MissingSignature"


class UnknownKeyId(FedBridgeError):
    code = "UnknownKeyId"


class WrongKeyRole(FedBridgeError):
    code = "WrongKeyRole"


# --- translation --------------------------------------------------------------

class UnmappedAuthnContext(FedBridgeError):
    code = "UnmappedAuthnContext"


class UnsupportedRequestType(FedBridgeError):
    code = "UnsupportedRequestType"


class UnsupportedTokenType(FedBridgeError):
    code = "UnsupportedTokenType"


class TokenMissing(FedBridgeError):
    code = "TokenMissing"


class NonSuccessStatus(FedBridgeError):
    code = "NonSuccessStatus"


class UntrustedIssuer(FedBridgeError):
    code = "UntrustedIssuer"


# --- trust registry -----------------------------------------------------------

class NoTrustPath(FedBridgeError):
    code = "NoTrustPath"


class AmbiguousTopology(FedBridgeError):
    code = "AmbiguousTopology"


class UnknownEntity(FedBridgeError):
    code = "UnknownEntity"


# --- transport bindings ---------------------------------------------------------

class RequestTooLarge(FedBridgeError):
    code = "RequestTooLarge"


# --- broker service --------------------------------------------------------------

class ProtocolError(FedBridgeError):
    code = "ProtocolError"


class UnknownIssuer(FedBridgeError):
    code = "UnknownIssuer"


class Replay(FedBridgeError):
    code = "Replay"


class UnknownCorrelation(FedBridgeError):
    code = "UnknownCorrelation"


class ExpiredCorrelation(FedBridgeError):
    code = "ExpiredCorrelation"


class LifetimeInvalid(FedBridgeError):
    code = "LifetimeInvalid"


# --- harness ----------------------------------------------------------------------

class ScenarioSetupError(FedBridgeError):
    code = "ScenarioSetupError"
    http_status = 500


class UnknownSubject(FedBridgeError):
    code = "UnknownSubject"
