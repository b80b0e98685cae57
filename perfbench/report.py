"""End-to-end and per-layer figures from what a run recorded."""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field

from tracer import SpanTable

HANDLERS = ("saml_sso", "wsfed_return", "wsfed_signin", "saml_acs")


@dataclass
class Timings:
    """Per sign-on figures of one timed phase, in order; replayed deliveries
    and checks stay out. ``broker_s`` is the broker's share of the sign-on
    (its handle_* calls, or its hops over HTTP), ``cpu_s`` the broker CPU
    time it cost."""

    signon_s: list[float] = field(default_factory=list)
    broker_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    wire_bytes: int = 0
    untraced_s: list[float] = field(default_factory=list)  # traced run: the untraced rounds

    def add(self, signon_s: float, broker_s: float, cpu_s: float) -> None:
        self.signon_s.append(signon_s)
        self.broker_s.append(broker_s)
        self.cpu_s.append(cpu_s)


def p50(values: list[float]) -> float:
    return statistics.median(values)


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def self_max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def gauge(owner, attr: str) -> float | None:
    """len() of a piece of broker state, or None when the program no longer has it."""
    try:
        return float(len(getattr(owner, attr)))
    except (AttributeError, TypeError):
        return None


def end_to_end(timed: Timings, setup_s: list[float],
               max_rss_mb: float) -> dict[str, tuple[float, str]]:
    """The user-facing figures, over every sign-on of the timed phase."""
    count = len(timed.signon_s)
    return {
        "signon_ms_p50": (p50(timed.signon_s) * 1e3, "ms"),
        "signon_ms_p95": (p95(timed.signon_s) * 1e3, "ms"),
        "signons_per_s": (count / sum(timed.signon_s), "1/s"),
        "broker_ms_p50": (p50(timed.broker_s) * 1e3, "ms"),
        "broker_ms_p95": (p95(timed.broker_s) * 1e3, "ms"),
        "broker_cpu_ms_per_signon": (sum(timed.cpu_s) * 1e3 / count, "ms"),
        "setup_s": (p50(setup_s), "s"),
        "max_rss_mb": (max_rss_mb, "MB"),
    }


# metric -> span names it is built from; a metric whose span name could not
# be patched is reported absent.
LAYER_SOURCES = {
    "signing.sign_us": ["signing.sign"],
    "signing.verify_us": ["signing.verify"],
    "signing.calls_per_signon": ["signing.sign", "signing.verify"],
    "messages.canonical_bytes_us": ["messages.canonical_bytes"],
    "messages.canonical_bytes_calls_per_signon": ["messages.canonical_bytes"],
    "messages.parse_us": ["messages.parse"],
    "messages.serialize_us": ["messages.serialize"],
    "translate.self_us_per_signon": [
        "translate.authn_request_to_rst", "translate.rst_to_authn_request",
        "translate.rstr_to_saml_response", "translate.saml_response_to_rstr",
    ],
    "broker.replay_observe_us": ["broker.replay_observe"],
    "broker.correlation_put_us": ["broker.correlation_put"],
    "broker.correlation_consume_us": ["broker.correlation_consume"],
    **{f"broker.handle_{h}_self_us": [f"broker.handle_{h}"] for h in HANDLERS},
    "trust.resolve_path_us": ["trust.resolve_path"],
    "trust.resolve_path_calls_per_request": ["trust.resolve_path"],
    "pseudonym.rewrite_us": ["translate.rstr_to_saml_response", "translate.saml_response_to_rstr"],
    "bindings.decode_us": ["bindings.decode"],
    "bindings.encode_us": ["bindings.encode"],
    **{f"httpd.broker_hop_ms_p50.{h}": [f"broker.handle_{h}"] for h in HANDLERS},
    "httpd.overhead_ms_per_request": [f"broker.handle_{h}" for h in HANDLERS],
}


def per_layer(broker: SpanTable, mocks: SpanTable, *, signons: int, timed: Timings,
              absent_spans: set[str], state: dict[str, float | None],
              hops: dict[str, list[float]],
              overhead_pct: float) -> tuple[dict, set[str]]:
    """Layer figures of the broker's side of the traced phase.

    Means are per call; a layer the workload never calls reads 0, and its
    ``calls_per_*`` count says so. ``state`` holds the broker's gauges
    (None when the program no longer has them); ``hops`` the broker hop
    times by handler as the caller sees them: over HTTP the client's
    request, in process the handle_* call itself. Returns the metrics and
    the names of those that are absent.
    """
    requests = sum(broker.count(f"broker.handle_{h}") for h in HANDLERS)
    metrics = {
        "signing.sign_us": (broker.mean_us("signing.sign"), "us"),
        "signing.verify_us": (broker.mean_us("signing.verify"), "us"),
        "signing.calls_per_signon": (
            (broker.count("signing.sign") + broker.count("signing.verify")) / signons, "count"),
        "messages.canonical_bytes_us": (broker.mean_us("messages.canonical_bytes"), "us"),
        "messages.canonical_bytes_calls_per_signon": (
            broker.count("messages.canonical_bytes") / signons, "count"),
        "messages.parse_us": (broker.mean_us("messages.parse"), "us"),
        "messages.serialize_us": (broker.mean_us("messages.serialize"), "us"),
        "translate.self_us_per_signon": (
            broker.total_us("translate.", self_time=True) / signons, "us"),
        "broker.replay_observe_us": (broker.mean_us("broker.replay_observe"), "us"),
        "broker.correlation_put_us": (broker.mean_us("broker.correlation_put"), "us"),
        "broker.correlation_consume_us": (broker.mean_us("broker.correlation_consume"), "us"),
        "trust.resolve_path_us": (broker.mean_us("trust.resolve_path"), "us"),
        "trust.resolve_path_calls_per_request": (
            broker.count("trust.resolve_path") / max(requests, 1), "count"),
        "pseudonym.rewrite_us": (broker.mean_us("pseudonym.rewrite"), "us"),
        "bindings.decode_us": (broker.mean_us("bindings.decode"), "us"),
        "bindings.encode_us": (broker.mean_us("bindings.encode"), "us"),
        "bindings.wire_bytes_per_signon": (timed.wire_bytes / signons, "bytes"),
        "mocks.ms_per_signon": (mocks.total_us("mocks.", side="mocks") / 1e3 / signons, "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    for handler in HANDLERS:
        metrics[f"broker.handle_{handler}_self_us"] = (
            broker.mean_us(f"broker.handle_{handler}", self_time=True), "us")
        hop = hops.get(handler)
        metrics[f"httpd.broker_hop_ms_p50.{handler}"] = (p50(hop) * 1e3 if hop else 0.0, "ms")
    hop_s = sum(s for values in hops.values() for s in values)
    handler_us = sum(broker.total_us(f"broker.handle_{h}") for h in HANDLERS)
    metrics["httpd.overhead_ms_per_request"] = (
        (hop_s * 1e6 - handler_us) / max(requests, 1) / 1e3, "ms")
    for name, value in state.items():
        if value is not None:
            metrics[name] = (float(value), "count")

    absent = {m for m, spans in LAYER_SOURCES.items() if absent_spans.intersection(spans)}
    absent |= {name for name, value in state.items() if value is None}
    for name in absent:
        metrics.pop(name, None)
    return metrics, absent
