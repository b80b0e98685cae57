"""Minimal threaded HTTP plumbing shared by the broker and the mock actors.

Routes are plain callables from a parsed request to a response. A raised
FedBridgeError becomes an HTML error page for the passive client plus an
``X-Error`` header carrying the machine-readable code, since a browser
mid-redirect cannot digest a structured fault body.

Connections are persistent HTTP/1.1 (RFC 9112 §9.3), one thread each:
- every response leaves in one write on a ``TCP_NODELAY`` socket, since a
  body written after its headers would wait on the client's delayed ACK;
- a connection that sends nothing for ``IDLE_TIMEOUT_S`` is closed, so an
  idle or stalled client gives its thread back;
- a request body is framed by one decimal ``Content-Length`` of at most
  ``MAX_BODY_BYTES``; any other framing is refused and the connection
  closed, since the next request's start is then unknown;
- a client that closes, resets or stalls ends its connection with a debug
  log line, not a traceback;
- ``ServerHandle.stop()`` ends the kept-alive connections too.
"""

from __future__ import annotations

import html
import logging
import socket
import sys
import threading
from dataclasses import dataclass, field, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Mapping
from urllib.parse import parse_qs, urlparse

from .bindings import PostMessage, RedirectMessage, auto_post_html
from .errors import FedBridgeError, ProtocolError, RequestTooLarge

logger = logging.getLogger(__name__)

IDLE_TIMEOUT_S = 5.0
# About ten times the largest form a relay posts.
MAX_BODY_BYTES = 64 * 1024


@dataclass
class HttpRequest:
    method: str
    path: str
    query: dict[str, str]
    form: dict[str, str]
    headers: Mapping[str, str]


@dataclass
class HttpResponse:
    status: int = 200
    body: bytes = b""
    content_type: str = "text/html; charset=utf-8"
    headers: tuple[tuple[str, str], ...] = ()


RouteHandler = Callable[[HttpRequest], HttpResponse]


def first_values(qs: str) -> dict[str, str]:
    return {k: v[0] for k, v in parse_qs(qs, keep_blank_values=True).items()}


def redirect_response(message: RedirectMessage) -> HttpResponse:
    return HttpResponse(status=302, headers=(("Location", message.location),))


def form_response(message: PostMessage) -> HttpResponse:
    return HttpResponse(status=200, body=auto_post_html(message).encode("utf-8"))


def page_response(title: str, text: str, *, status: int = 200,
                  headers: tuple[tuple[str, str], ...] = ()) -> HttpResponse:
    body = (
        f"<!DOCTYPE html><html><head><title>{html.escape(title)}</title></head>"
        f"<body><h1>{html.escape(title)}</h1><p>{html.escape(text)}</p></body></html>"
    )
    return HttpResponse(status=status, body=body.encode("utf-8"), headers=headers)


def error_response(error: FedBridgeError) -> HttpResponse:
    return page_response(
        error.code,
        str(error),
        status=error.http_status,
        headers=(("X-Error", error.code),),
    )


class _RouteServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default listen backlog of 5 resets connections when a
    # burst of clients connects at once.
    request_queue_size = 128

    def __init__(self, address, routes: dict[tuple[str, str], RouteHandler], name: str):
        # Kept-alive connections outlive serve_forever(); server_close() ends them.
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, _Handler)
        self.routes = routes
        self.name = name

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._connections_lock:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def handle_error(self, request, client_address) -> None:
        # A client that resets or stalls ends its own connection: no server
        # fault, so no traceback on stderr as socketserver would print.
        exc = sys.exc_info()[1]
        if isinstance(exc, OSError):
            logger.debug("%s: connection from %s ended: %r", self.name, client_address, exc)
        else:
            logger.exception("%s: unhandled error on a connection from %s",
                             self.name, client_address)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S
    disable_nagle_algorithm = True
    server: _RouteServer

    def log_message(self, fmt: str, *args) -> None:
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("%s %s", self.server.name, fmt % args)

    def _read_body(self) -> bytes | None:
        """The request body, or None once a refusal that closes the
        connection has been sent instead."""
        lengths = self.headers.get_all("Content-Length", [])
        if ("Transfer-Encoding" in self.headers or len(set(lengths)) > 1
                or not all(n.isascii() and n.isdigit() for n in lengths)):
            refusal = error_response(ProtocolError("unreadable body framing"))
        elif lengths and int(lengths[0]) > MAX_BODY_BYTES:
            refusal = replace(
                error_response(RequestTooLarge(f"body over {MAX_BODY_BYTES} bytes")), status=413)
        else:
            return self.rfile.read(int(lengths[0]) if lengths else 0)
        # Where the next request starts is unknown, so the connection ends.
        self._send(replace(refusal, headers=refusal.headers + (("Connection", "close"),)))
        return None

    def _dispatch(self, method: str) -> None:
        body = self._read_body()
        if body is None:
            return
        parsed = urlparse(self.path)
        handler = self.server.routes.get((method, parsed.path))
        if handler is None:
            self._send(page_response("Not Found", parsed.path, status=404))
            return

        form: dict[str, str] = {}
        if method == "POST":
            form = first_values(body.decode("utf-8", errors="replace"))

        request = HttpRequest(
            method=method,
            path=parsed.path,
            query=first_values(parsed.query),
            form=form,
            headers=dict(self.headers.items()),
        )
        try:
            response = handler(request)
        except FedBridgeError as exc:
            response = error_response(exc)
        except Exception:
            logger.exception("%s: unhandled error on %s %s", self.server.name, method, parsed.path)
            response = page_response("Internal Error", "unhandled error", status=500)
        self._send(response)

    def _send(self, response: HttpResponse) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        self.send_header("Cache-Control", "no-store")
        for name, value in response.headers:
            self.send_header(name, value)
        # end_headers() would write the headers and the body apart. An
        # HTTP/0.9 request gets the bare body, as it does there.
        head = b""
        if self.request_version != "HTTP/0.9":
            head = b"".join(self._headers_buffer) + b"\r\n"
            self._headers_buffer = []
        self.wfile.write(head + response.body)

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")


@dataclass
class ServerHandle:
    """A running HTTP actor; stop() shuts it down and joins the thread."""

    name: str
    server: _RouteServer
    thread: threading.Thread
    host: str = field(init=False)
    port: int = field(init=False)

    def __post_init__(self) -> None:
        self.host, self.port = self.server.server_address[:2]

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


def start_server(
    host: str, port: int, routes: dict[tuple[str, str], RouteHandler], name: str
) -> ServerHandle:
    server = _RouteServer((host, port), routes, name)
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.05),
        name=f"httpd-{name}",
        daemon=True,
    )
    thread.start()
    return ServerHandle(name=name, server=server, thread=thread)
