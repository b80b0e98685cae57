"""The HTTP/1.1 core shared by the broker, the mock actors and the passive
client, and the route server built on it.

A route maps its binding's parameters to a response: a GET route gets the
first value of each query parameter, a POST route the first value of each
form field. The route table is keyed by (method, path), so each route knows
which one it gets. A raised FedBridgeError becomes an HTML error page for
the passive client plus an ``X-Error`` header carrying the machine-readable
code, since a browser mid-redirect cannot digest a structured fault body.

One head reader serves both ends: the server reads requests with
``read_head`` and ``fedbridge.client`` reads responses with it. It reads a
start line and ``Name: value`` field lines with plain ``readline`` and
``partition`` (RFC 9112 §2–5):
- a line is at most ``MAX_LINE_BYTES``; a longer request line gets 414 and
  a longer field line 431;
- a head has at most ``MAX_HEADERS`` field lines, or it gets 431;
- a field line without a colon, with whitespace before its colon, or
  folded onto the previous line (obs-fold) gets 400.

Connections are persistent HTTP/1.1 (RFC 9112 §9.3), one daemon thread each:
- every response is one head string and its body, sent in one ``sendall``
  on a ``TCP_NODELAY`` socket, since a body written after its headers
  would wait on the client's delayed ACK;
- a connection that sends nothing for ``IDLE_TIMEOUT_S`` is closed, so an
  idle or stalled client gives its thread back;
- a request body is framed by one decimal ``Content-Length`` of at most
  ``MAX_BODY_BYTES``; any other framing is refused and the connection
  closed, since the next request's start is then unknown;
- a refusal that ends the connection (400, 413, 414, 431, 501, 505) is a
  lingering close (RFC 9112 §9.6): the write side is shut, and what the
  client still sends is read and dropped, for a bounded time and byte
  count, so that a client still sending its body reads the refusal
  instead of a reset;
- a client that closes, resets or stalls ends its connection with a debug
  log line, not a traceback;
- a running server is one ``ServerHandle``: built, it listens and accepts;
  its ``stop()`` ends the accept loop and the kept-alive connections.
"""

from __future__ import annotations

import html
import logging
import socket
import threading
import time
from dataclasses import dataclass, replace
from http import HTTPStatus
from typing import BinaryIO, Callable
from urllib.parse import parse_qs

from .bindings import PostMessage, RedirectMessage, auto_post_html
from .errors import FedBridgeError, ProtocolError, RequestTooLarge

logger = logging.getLogger(__name__)

IDLE_TIMEOUT_S = 5.0
# About ten times the largest form a relay posts.
MAX_BODY_BYTES = 64 * 1024
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100
# A lingering close drops at most this much of what follows a refusal.
_LINGER_S = 2.0
_LINGER_BYTES = 4 * 1024 * 1024
# How soon the accept loop sees a stop.
_ACCEPT_POLL_S = 0.05
_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n" for s in HTTPStatus}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


@dataclass
class HttpResponse:
    status: int = 200
    body: bytes = b""
    headers: tuple[tuple[str, str], ...] = ()


# A GET route gets the query's parameters, a POST route the form's fields.
RouteHandler = Callable[[dict[str, str]], HttpResponse]


class MalformedHead(ProtocolError):
    """A message head the core will not read; ``http_status`` refuses it."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.http_status = status


def read_head(rfile: BinaryIO) -> tuple[str, list[tuple[str, str]]] | None:
    """The start line and the (name, value) field lines of one message head,
    or None if the peer closed before the head began. One empty line before
    the start line is skipped (RFC 9112 §2.2)."""
    line = rfile.readline(MAX_LINE_BYTES + 1)
    if line == b"\r\n" or line == b"\n":
        line = rfile.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise MalformedHead(414, "start line too long")
    fields: list[tuple[str, str]] = []
    while True:
        raw = rfile.readline(MAX_LINE_BYTES + 1)
        if raw == b"\r\n" or raw == b"\n":
            return line.decode("iso-8859-1").rstrip("\r\n"), fields
        if not raw:
            raise ConnectionResetError("connection closed inside a message head")
        if len(raw) > MAX_LINE_BYTES:
            raise MalformedHead(431, "field line too long")
        if len(fields) == MAX_HEADERS:
            raise MalformedHead(431, f"more than {MAX_HEADERS} field lines")
        name, colon, value = raw.decode("iso-8859-1").partition(":")
        if not colon or not name or name[0] in " \t" or name[-1] in " \t":
            raise MalformedHead(400, "malformed field line")
        fields.append((name, value.strip(" \t\r\n")))


def _http_date() -> str:
    """The current time as an HTTP-date (RFC 9110 §5.6.7)."""
    t = time.gmtime()
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


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


class _Connection:
    """One accepted connection, served request by request on its own thread."""

    timeout = IDLE_TIMEOUT_S

    def __init__(self, server: ServerHandle, sock: socket.socket, address) -> None:
        self.server = server
        self.sock = sock
        self.address = address
        self.rfile = sock.makefile("rb")

    def serve(self) -> None:
        try:
            self.sock.settimeout(self.timeout)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while self._respond():
                pass
        except OSError as exc:
            # A client that resets or stalls ends its own connection: no
            # server fault, so no traceback.
            logger.debug("%s: connection from %s ended: %r", self.server.name, self.address, exc)
        except Exception:
            logger.exception("%s: unhandled error on a connection from %s",
                             self.server.name, self.address)
        finally:
            self.server.forget(self.sock)
            self.rfile.close()
            self.sock.close()

    def _respond(self) -> bool:
        """Read one request and answer it; False once the connection ends."""
        try:
            head = read_head(self.rfile)
        except MalformedHead as exc:
            return self._refuse(error_response(exc))
        if head is None:
            return False
        start, fields = head
        parts = start.split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            return self._refuse(error_response(MalformedHead(400, "malformed request line")))
        method, target, version = parts
        if version != "HTTP/1.1" and version != "HTTP/1.0":
            return self._refuse(error_response(MalformedHead(505, f"{version} not spoken")))
        if method != "GET" and method != "POST":
            return self._refuse(page_response("Not Implemented", method, status=501))

        keep_alive = version == "HTTP/1.1"
        lengths: list[str] = []
        chunked = expect_continue = False
        for name, value in fields:
            key = name.lower()
            if key == "content-length":
                lengths.append(value)
            elif key == "transfer-encoding":
                chunked = True
            elif key == "connection":
                token = value.lower()
                if token == "close":
                    keep_alive = False
                elif token == "keep-alive":
                    keep_alive = True
            elif key == "expect":
                expect_continue = version == "HTTP/1.1" and value.lower() == "100-continue"
        if chunked or len(set(lengths)) > 1 or not all(
                n.isascii() and n.isdigit() for n in lengths):
            return self._refuse(error_response(ProtocolError("unreadable body framing")))
        length = int(lengths[0]) if lengths else 0
        if length > MAX_BODY_BYTES:
            return self._refuse(replace(
                error_response(RequestTooLarge(f"body over {MAX_BODY_BYTES} bytes")), status=413))
        if expect_continue:
            self._write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(length) if length else b""
        if len(body) < length:
            raise ConnectionResetError("connection closed inside a request body")

        path, _, query = target.partition("?")
        handler = self.server.routes.get((method, path))
        if handler is None:
            response = page_response("Not Found", path, status=404)
        else:
            params = body.decode("utf-8", errors="replace") if method == "POST" else query
            try:
                response = handler(first_values(params))
            except FedBridgeError as exc:
                response = error_response(exc)
            except Exception:
                logger.exception("%s: unhandled error on %s %s", self.server.name, method, path)
                response = page_response("Internal Error", "unhandled error", status=500)
        logger.debug("%s: %s %s", self.server.name, start, response.status)
        self._send(response, close=not keep_alive)
        return keep_alive

    def _refuse(self, response: HttpResponse) -> bool:
        """Send a refusal that ends the connection, then linger; the next
        request's start is unknown."""
        self._send(response, close=True)
        self.sock.shutdown(socket.SHUT_WR)
        deadline = time.monotonic() + _LINGER_S
        drained = 0
        while drained < _LINGER_BYTES:
            left = deadline - time.monotonic()
            if left <= 0:
                break
            self.sock.settimeout(left)
            chunk = self.sock.recv(65536)
            if not chunk:
                break
            drained += len(chunk)
        return False

    def _send(self, response: HttpResponse, *, close: bool) -> None:
        status, body = response.status, response.body
        extra = "".join(f"{name}: {value}\r\n" for name, value in response.headers)
        if close:
            extra += "Connection: close\r\n"
        status_line = _STATUS_LINES.get(status) or f"HTTP/1.1 {status} \r\n"
        head = (
            f"{status_line}Content-Type: text/html; charset=utf-8\r\nContent-Length: {len(body)}\r\n"
            f"Cache-Control: no-store\r\nDate: {_http_date()}\r\n{extra}\r\n"
        )
        self._write(head.encode("latin-1") + body)

    def _write(self, data: bytes) -> None:
        self.sock.sendall(data)


class ServerHandle:
    """A running HTTP actor: a listening socket and its accept thread, whose
    accepted connections each get a daemon thread of their own. stop() ends
    the accept loop and the kept-alive connections."""

    def __init__(self, host: str, port: int,
                 routes: dict[tuple[str, str], RouteHandler], name: str) -> None:
        # A short listen backlog resets connections when a burst of clients
        # connects at once.
        self.socket = socket.create_server((host, port), backlog=128)
        self.socket.settimeout(_ACCEPT_POLL_S)
        self.host, self.port = self.socket.getsockname()[:2]
        self.routes = routes
        self.name = name
        self._stopping = threading.Event()
        # Kept-alive connections outlive the accept loop; stop() ends them.
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._thread = threading.Thread(target=self._accept, name=f"httpd-{name}", daemon=True)
        self._thread.start()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _accept(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, address = self.socket.accept()
            except TimeoutError:
                continue
            except OSError as exc:  # out of descriptors, say: try again later
                logger.warning("%s: accept failed: %r", self.name, exc)
                self._stopping.wait(_ACCEPT_POLL_S)
                continue
            with self._connections_lock:
                self._connections.add(sock)
            threading.Thread(target=_Connection(self, sock, address).serve, daemon=True).start()

    def forget(self, sock: socket.socket) -> None:
        with self._connections_lock:
            self._connections.discard(sock)

    def stop(self) -> None:
        self._stopping.set()
        self._thread.join(timeout=5)
        self.socket.close()
        with self._connections_lock:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
