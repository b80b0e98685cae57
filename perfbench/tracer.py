"""Spans around fedbridge's public functions, recorded from outside the program.

A name is patched where it is looked up: ``fedbridge.translate.sign`` is the
broker's signing call (the translation functions look ``sign`` up in their
own module), ``fedbridge.mocks.sign`` is a mock authority's. Each span keeps
its name, start, end and parent, so self time and broker-side versus
mock-side attribution come from the parent chain. Spans stay in memory and
are written out when the run ends.

A target that no longer exists is recorded as absent; the metrics built
from it are then reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from pathlib import Path

# (span name, module, attribute path) -- the attribute path may name a
# class method, as in "Broker.handle_saml_sso".
BROKER_TARGETS = [
    ("broker.handle_saml_sso", "fedbridge.broker", "Broker.handle_saml_sso"),
    ("broker.handle_wsfed_return", "fedbridge.broker", "Broker.handle_wsfed_return"),
    ("broker.handle_wsfed_signin", "fedbridge.broker", "Broker.handle_wsfed_signin"),
    ("broker.handle_saml_acs", "fedbridge.broker", "Broker.handle_saml_acs"),
    ("broker.replay_observe", "fedbridge.broker", "SeenRequestIds.observe"),
    ("broker.correlation_put", "fedbridge.broker", "CorrelationStore.put"),
    ("broker.correlation_consume", "fedbridge.broker", "CorrelationStore.consume"),
    ("bindings.decode", "fedbridge.broker", "decode_saml_redirect"),
    ("bindings.decode", "fedbridge.broker", "decode_saml_response_post"),
    ("bindings.decode", "fedbridge.broker", "decode_wsfed_signin"),
    ("bindings.decode", "fedbridge.broker", "decode_wsfed_signin_response_post"),
    ("bindings.encode", "fedbridge.broker", "encode_saml_redirect"),
    ("bindings.encode", "fedbridge.broker", "encode_saml_response_post"),
    ("bindings.encode", "fedbridge.broker", "encode_wsfed_signin"),
    ("bindings.encode", "fedbridge.broker", "encode_wsfed_signin_response_post"),
    ("messages.parse", "fedbridge.bindings", "parse"),
    ("messages.serialize", "fedbridge.bindings", "serialize"),
    ("messages.canonical_bytes", "fedbridge.signing", "canonical_bytes"),
    ("signing.sign", "fedbridge.translate", "sign"),
    ("signing.verify", "fedbridge.translate", "verify"),
    ("translate.authn_request_to_rst", "fedbridge.broker", "authn_request_to_rst"),
    ("translate.rst_to_authn_request", "fedbridge.broker", "rst_to_authn_request"),
    ("translate.rstr_to_saml_response", "fedbridge.broker", "rstr_to_saml_response"),
    ("translate.saml_response_to_rstr", "fedbridge.broker", "saml_response_to_rstr"),
    ("trust.resolve_path", "fedbridge.broker", "resolve_path"),
]

MOCK_TARGETS = [
    ("mocks.saml_sp.start_login", "fedbridge.mocks", "MockSamlSp.start_login"),
    ("mocks.saml_sp.handle_acs", "fedbridge.mocks", "MockSamlSp.handle_acs"),
    ("mocks.wsfed_sp.start_login", "fedbridge.mocks", "MockWsfedSp.start_login"),
    ("mocks.wsfed_sp.handle_return", "fedbridge.mocks", "MockWsfedSp.handle_return"),
    ("mocks.wsfed_sts.handle_signin", "fedbridge.mocks", "MockWsfedSts.handle_signin"),
    ("mocks.saml_idp.handle_sso", "fedbridge.mocks", "MockSamlIdp.handle_sso"),
]

# The translation functions take the pseudonym rewrite as their
# ``transform`` argument; it gets a span of its own.
TRANSFORM_SPAN = "pseudonym.rewrite"


class Tracer:
    """Records spans while ``on``; off, a patched call costs one test."""

    def __init__(self) -> None:
        self.on = False
        self.spans: list[tuple[int, int, str, int, int]] = []  # id, parent, name, start, end
        self.absent: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            transform = kwargs.get("transform")
            if transform is not None:
                kwargs["transform"] = tracer.wrap(transform, TRANSFORM_SPAN)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))

        return traced

    def patch(self, targets) -> None:
        for name, module_name, path in targets:
            *owners, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            setattr(owner, attr, self.wrap(original, name))
            self._undo.append((owner, attr, original))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(json.dumps([span_id, parent, name, start, end]) + "\n")


def read_spans(path: str | Path) -> list[tuple[int, int, str, int, int]]:
    with open(path, encoding="utf-8") as source:
        return [tuple(json.loads(line)) for line in source if line.strip()]


class SpanTable:
    """Durations, self times and sides of a span list, for the layer report."""

    def __init__(self, spans) -> None:
        self.by_id = {s[0]: s for s in spans}
        child_ns: dict[int, int] = {}
        for span_id, parent, _, start, end in spans:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        self.rows = []  # (name, duration_ns, self_ns, side)
        for span_id, parent, name, start, end in spans:
            duration = end - start
            self.rows.append(
                (name, duration, duration - child_ns.get(span_id, 0), self._side(span_id))
            )

    def _side(self, span_id: int) -> str:
        """"broker" or "mocks" by the outermost span of the chain."""
        side = ""
        while span_id >= 0:
            span = self.by_id.get(span_id)
            if span is None:
                break
            name = span[2]
            if name.startswith("broker.handle_"):
                side = "broker"
            elif name.startswith("mocks."):
                side = "mocks"
            span_id = span[1]
        return side

    def select(self, prefix: str, side: str = "broker"):
        return [r for r in self.rows if r[0].startswith(prefix) and r[3] == side]

    def mean_us(self, prefix: str, *, self_time: bool = False, side: str = "broker") -> float:
        rows = self.select(prefix, side)
        if not rows:
            return 0.0
        column = 2 if self_time else 1
        return sum(r[column] for r in rows) / len(rows) / 1e3

    def count(self, prefix: str, side: str = "broker") -> int:
        return len(self.select(prefix, side))

    def total_us(self, prefix: str, *, self_time: bool = False, side: str = "broker") -> float:
        column = 2 if self_time else 1
        return sum(r[column] for r in self.select(prefix, side)) / 1e3
