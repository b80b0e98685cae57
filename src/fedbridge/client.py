"""Passive-client simulator: a browser that only relays.

The client fetches a URL, follows every 302 by requesting its Location,
and auto-submits any HTML form it is handed; it never fabricates a
protocol parameter. Every hop is recorded as a trace step, and every
parameter the client sends is checked against the set of values it
previously received from some server, so a scenario can prove the client
stayed a pure relay.

Like a browser, a ``PassiveClient`` keeps one persistent HTTP/1.1
connection per server for its lifetime; ``close()`` (or leaving a ``with``
block) ends them. A request on a kept connection that the server has
closed in the meantime is sent once more on a fresh one. ``http_exchange``
is the same exchange over a connection of its own.

The client speaks HTTP/1.1 through the core in ``fedbridge.httpd``: each
request is one head string and its body in one ``sendall``, and each
response head is read by ``read_head``. A response body is framed by its
``Content-Length``, or, without one, runs to the close of the connection;
a chunked response is refused.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass, field
from html.parser import HTMLParser
from pathlib import Path
from typing import Callable
from urllib.parse import parse_qsl, urlencode, urljoin, urlsplit

from .errors import ProtocolError, ScenarioSetupError
from .httpd import read_head

MAX_STEPS = 12


@dataclass
class TraceStep:
    actor: str
    method: str
    url: str
    params: dict[str, str]
    outcome: str


@dataclass
class ScenarioTrace:
    steps: list[TraceStep] = field(default_factory=list)
    verdict: str = "Fail"
    reason: str | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "Pass"

    def to_dict(self) -> dict:
        return {
            "steps": [vars(step) for step in self.steps],
            "verdict": self.verdict,
            "reason": self.reason,
        }

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")


def http_exchange(
    method: str,
    url: str,
    fields: list[tuple[str, str]] | None = None,
    timeout: float = 10.0,
) -> tuple[int, dict[str, str], str]:
    """One plain-HTTP request with no redirect following, on a connection of
    its own; returns (status, headers, body)."""
    netloc, target = _split_url(url)
    connection = _Connection(netloc, timeout)
    try:
        return _exchange(connection, method, target, fields or [])
    finally:
        connection.close()


def _split_url(url: str) -> tuple[str, str]:
    parsed = urlsplit(url)
    if parsed.scheme != "http":
        raise ScenarioSetupError(f"passive client only speaks plain http: {url}")
    target = parsed.path or "/"
    return parsed.netloc, f"{target}?{parsed.query}" if parsed.query else target


class _Connection:
    """One persistent HTTP/1.1 connection to the server at ``netloc``,
    opened on first use."""

    def __init__(self, netloc: str, timeout: float) -> None:
        parsed = urlsplit(f"//{netloc}")
        self.netloc = netloc
        self.host, self.port = parsed.hostname, parsed.port or 80
        self.timeout = timeout
        self.sock: socket.socket | None = None

    def connect(self) -> None:
        self.sock = socket.create_connection((self.host, self.port), self.timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def close(self) -> None:
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
            self.sock = None

    def request(self, request: bytes) -> tuple[str, list[tuple[str, str]]]:
        """Send one whole request; the head of its response."""
        if self.sock is None:
            self.connect()
        self.sock.sendall(request)
        head = read_head(self.rfile)
        if head is None:
            raise ConnectionResetError("server closed the connection without a response")
        return head


def _read_response(
    rfile, head: tuple[str, list[tuple[str, str]]]
) -> tuple[int, dict[str, str], bytes, bool]:
    """The status, headers and body of the response whose head was read
    from ``rfile``, and whether the connection ends after it."""
    start, fields = head
    version, _, rest = start.partition(" ")
    code = rest[:3]
    if not version.startswith("HTTP/") or not (code.isascii() and code.isdigit()):
        raise ProtocolError(f"malformed status line {start[:80]!r}")
    length = None
    connection = ""
    for name, value in fields:
        key = name.lower()
        if key == "content-length":
            if not (value.isascii() and value.isdigit()):
                raise ProtocolError(f"unreadable response framing {value[:80]!r}")
            length = int(value)
        elif key == "transfer-encoding":
            raise ProtocolError("a chunked response is not read")
        elif key == "connection":
            connection = value.lower()
    close = "close" in connection if version == "HTTP/1.1" else "keep-alive" not in connection
    if length is None:
        return int(code), dict(fields), rfile.read(), True
    body = rfile.read(length)
    if len(body) < length:
        raise ConnectionError("connection closed inside a response body")
    return int(code), dict(fields), body, close


def _exchange(
    connection: _Connection,
    method: str,
    target: str,
    fields: list[tuple[str, str]],
) -> tuple[int, dict[str, str], str]:
    """One request and its response on ``connection``. If the connection
    was open before and the server closed it while idle, the request goes
    once more on a fresh connection; a fresh connection is never retried."""
    if method == "POST":
        body = urlencode(fields).encode("latin-1")
        framing = ("Content-Type: application/x-www-form-urlencoded\r\n"
                   f"Content-Length: {len(body)}\r\n")
    else:
        body, framing = b"", ""
    request = f"{method} {target} HTTP/1.1\r\nHost: {connection.netloc}\r\n{framing}\r\n"
    request = request.encode("latin-1") + body
    reused = connection.sock is not None
    try:
        try:
            head = connection.request(request)
        except (ConnectionResetError, BrokenPipeError):
            if not reused:
                raise
            connection.close()
            head = connection.request(request)
        status, headers, payload, close = _read_response(connection.rfile, head)
    except BaseException:
        connection.close()
        raise
    if close:
        connection.close()
    return status, headers, payload.decode("utf-8", errors="replace")


class _FormExtractor(HTMLParser):
    def __init__(self) -> None:
        super().__init__()
        self.action: str | None = None
        self.fields: list[tuple[str, str]] = []
        self._in_form = False

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        attrs_dict = {k: v or "" for k, v in attrs}
        if tag == "form" and self.action is None:
            self.action = attrs_dict.get("action", "")
            self._in_form = True
        elif tag == "input" and self._in_form and attrs_dict.get("type") == "hidden":
            if "name" in attrs_dict:
                self.fields.append((attrs_dict["name"], attrs_dict.get("value", "")))

    def handle_endtag(self, tag: str) -> None:
        if tag == "form":
            self._in_form = False


def extract_form(body: str) -> tuple[str, list[tuple[str, str]]] | None:
    parser = _FormExtractor()
    parser.feed(body)
    return (parser.action or "", parser.fields) if parser.action is not None else None


@dataclass
class ClientResult:
    steps: list[TraceStep]
    final_status: int
    final_outcome: str
    final_correlation: str
    relay_violations: list[str]


class PassiveClient:
    """Drives sign-on flows; ``actor_for`` labels servers in the trace."""

    def __init__(self, actor_for: Callable[[str], str] | None = None, timeout: float = 10.0):
        self.actor_for = actor_for or (lambda netloc: netloc)
        self.timeout = timeout
        self._connections: dict[str, _Connection] = {}

    def close(self) -> None:
        for connection in self._connections.values():
            connection.close()
        self._connections.clear()

    def __enter__(self) -> "PassiveClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, start_url: str) -> ClientResult:
        steps: list[TraceStep] = []
        received: set[str] = set()
        violations: list[str] = []

        method = "GET"
        url = start_url
        fields: list[tuple[str, str]] = []
        params = dict(parse_qsl(urlsplit(url).query, keep_blank_values=True))

        for _ in range(MAX_STEPS):
            for name, value in params.items():
                if value and steps and value not in received:
                    violations.append(f"{name} sent without having been received")

            status, headers, body = self._request(method, url, fields)
            outcome = str(status)
            if "X-Error" in headers:
                outcome = f"{status} {headers['X-Error']}"
            elif "X-Outcome" in headers:
                outcome = f"{status} {headers['X-Outcome']}"
            steps.append(
                TraceStep(
                    actor=self.actor_for(urlsplit(url).netloc),
                    method=method,
                    url=url,
                    params=params,
                    outcome=outcome,
                )
            )

            if status in (301, 302, 303):
                location = urljoin(url, headers.get("Location", ""))
                pairs = parse_qsl(urlsplit(location).query, keep_blank_values=True)
                received.update(value for _, value in pairs)
                method, url, fields, params = "GET", location, [], dict(pairs)
                continue

            if status == 200:
                form = extract_form(body)
                if form is not None and form[0]:
                    action, form_fields = form
                    received.update(value for _, value in form_fields)
                    method, url, fields = "POST", urljoin(url, action), form_fields
                    params = dict(fields)
                    continue

            return ClientResult(
                steps=steps,
                final_status=status,
                final_outcome=headers.get("X-Outcome", headers.get("X-Error", "")),
                final_correlation=headers.get("X-Correlation", ""),
                relay_violations=violations,
            )

        return ClientResult(
            steps=steps,
            final_status=-1,
            final_outcome="too-many-steps",
            final_correlation="",
            relay_violations=violations,
        )

    def _request(
        self, method: str, url: str, fields: list[tuple[str, str]]
    ) -> tuple[int, dict[str, str], str]:
        netloc, target = _split_url(url)
        connection = self._connections.get(netloc)
        if connection is None:
            connection = _Connection(netloc, self.timeout)
            self._connections[netloc] = connection
        return _exchange(connection, method, target, fields)
