"""Minimal threaded HTTP plumbing shared by the broker and the mock actors.

Routes are plain callables from a parsed request to a response. A raised
FedBridgeError becomes an HTML error page for the passive client plus an
``X-Error`` header carrying the machine-readable code, since a browser
mid-redirect cannot digest a structured fault body.
"""

from __future__ import annotations

import html
import logging
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Mapping
from urllib.parse import parse_qs, urlparse

from .bindings import PostMessage, RedirectMessage, auto_post_html
from .errors import FedBridgeError

logger = logging.getLogger(__name__)


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
        super().__init__(address, _Handler)
        self.routes = routes
        self.name = name


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: _RouteServer

    def log_message(self, fmt: str, *args) -> None:
        logger.debug("%s %s", self.server.name, fmt % args)

    def _dispatch(self, method: str) -> None:
        parsed = urlparse(self.path)
        handler = self.server.routes.get((method, parsed.path))
        if handler is None:
            self._send(page_response("Not Found", parsed.path, status=404))
            return

        form: dict[str, str] = {}
        if method == "POST":
            length = int(self.headers.get("Content-Length", "0"))
            body = self.rfile.read(length).decode("utf-8") if length else ""
            form = first_values(body)

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
        self.end_headers()
        if response.body:
            self.wfile.write(response.body)

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
