"""Persistent HTTP/1.1 between the passive client and the actors: one
connection per server for a client's lifetime, one write per response, the
idle timeout, body framing on a kept-alive connection, the lingering close
after a refusal, strict head lines, the head reader against ``http.client``,
quiet connection ends, and a broker process that still stops on SIGINT."""

from __future__ import annotations

import http.client
import io
import json
import logging
import re
import select
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbridge import client as client_module
from fedbridge import httpd
from fedbridge.client import PassiveClient, http_exchange
from fedbridge.scenarios import environment, write_demo_config


@pytest.fixture
def connects(monkeypatch):
    """The host:port of every TCP connection the client opens."""
    opened: list[str] = []
    original = client_module._Connection.connect

    def connect(self):
        opened.append(f"{self.host}:{self.port}")
        original(self)

    monkeypatch.setattr(client_module._Connection, "connect", connect)
    return opened


@pytest.fixture
def closing_server():
    """The URL of a listener that closes every connection unanswered."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()

    def serve() -> None:
        while not stop.is_set():
            try:
                connection, _ = listener.accept()
            except TimeoutError:
                continue
            connection.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{listener.getsockname()[1]}/"
    stop.set()
    thread.join()
    listener.close()


def _signons(env, client: PassiveClient) -> None:
    """One flow A and one flow B, both established."""
    for sp in (env.saml_sp, env.wsfed_sp):
        result = client.run(sp.login_url)
        assert result.final_outcome == "established", result.steps[-1].outcome


def _broker_address(env) -> tuple[str, int]:
    handle = next(h for h in env.handles if h.name == "broker")
    return handle.host, handle.port


def _exchange_raw(sock: socket.socket, data: bytes) -> http.client.HTTPResponse:
    sock.sendall(data)
    response = http.client.HTTPResponse(sock)
    response.begin()
    response.read()
    return response


class TestConnectionReuse:
    def test_one_connection_per_server_for_the_client_lifetime(self, demo_cfg, connects):
        with environment(demo_cfg) as env, PassiveClient(env.actor_for) as client:
            _signons(env, client)
            assert sorted(connects) == sorted(env.actors)
            _signons(env, client)
            assert len(connects) == len(env.actors)

    def test_connection_closed_while_idle_is_retried_once(
        self, demo_cfg, connects, monkeypatch
    ):
        monkeypatch.setattr(httpd._Connection, "timeout", 0.3)
        with environment(demo_cfg) as env, PassiveClient(env.actor_for) as client:
            assert client.run(env.saml_sp.login_url).final_outcome == "established"
            servers = len(connects)
            time.sleep(1.0)
            assert client.run(env.saml_sp.login_url).final_outcome == "established"
            assert len(connects) == 2 * servers

    def test_stop_ends_kept_alive_connections(self, demo_cfg):
        with PassiveClient() as client:
            with environment(demo_cfg) as env:
                assert client.run(env.saml_sp.login_url).final_outcome == "established"
            with pytest.raises(ConnectionError):
                client.run(env.saml_sp.login_url)

    def test_fresh_connection_is_never_retried(self, closing_server, connects):
        with pytest.raises(ConnectionError):
            http_exchange("GET", closing_server, timeout=2)
        assert len(connects) == 1
        with PassiveClient(timeout=2) as client, pytest.raises(ConnectionError):
            client.run(closing_server)
        assert len(connects) == 2

    def test_each_redirect_location_is_parsed_once(self, demo_cfg, monkeypatch):
        calls = []
        original = client_module.parse_qsl

        def parse_qsl(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(client_module, "parse_qsl", parse_qsl)
        with environment(demo_cfg) as env, PassiveClient(env.actor_for) as client:
            result = client.run(env.saml_sp.login_url)
        redirects = [s for s in result.steps if s.outcome.startswith("302")]
        assert result.final_outcome == "established"
        assert len(calls) == 1 + len(redirects)


class TestOneWritePerResponse:
    def test_headers_and_body_leave_together(self, demo_cfg, monkeypatch):
        writes: list[bytes] = []
        original = httpd._Connection._write

        def write(self, data):
            writes.append(bytes(data))
            return original(self, data)

        monkeypatch.setattr(httpd._Connection, "_write", write)
        with environment(demo_cfg) as env, PassiveClient(env.actor_for) as client:
            result = client.run(env.saml_sp.login_url)
            status, _, _ = http_exchange(
                "GET", demo_cfg.broker_entity.endpoint("saml_sso") + "?SAMLRequest=%40%40")
        assert result.final_outcome == "established" and status == 400
        assert len(writes) == len(result.steps) + 1
        for data in writes:
            head, _, body = data.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 ")
            assert len(body) == int(re.search(rb"\r\nContent-Length: (\d+)", head)[1])


class TestIdleTimeout:
    def test_every_connection_has_a_timeout_of_a_few_seconds(self):
        assert httpd._Connection.timeout == httpd.IDLE_TIMEOUT_S
        assert 1 <= httpd.IDLE_TIMEOUT_S <= 30

    def test_half_sent_request_line_is_dropped_while_signons_pass(
        self, demo_cfg, monkeypatch
    ):
        monkeypatch.setattr(httpd._Connection, "timeout", 0.2)
        with environment(demo_cfg) as env, PassiveClient(env.actor_for) as client:
            stalled = socket.create_connection(_broker_address(env), timeout=5)
            with stalled:
                start = time.monotonic()
                stalled.sendall(b"GET /saml/s")
                _signons(env, client)
                assert stalled.recv(1024) == b""
                assert time.monotonic() - start < 1.0


class TestBodyFraming:
    @pytest.mark.parametrize(
        "framing",
        [
            b"Content-Length: abc\r\n",
            b"Content-Length: -5\r\n",
            b"Content-Length: \xb2\r\n",
            b"Content-Length: 3\r\nContent-Length: 4\r\n",
            b"Transfer-Encoding: chunked\r\n",
        ],
        ids=["not-a-number", "negative", "non-ascii-digit", "two-lengths", "chunked"],
    )
    def test_unreadable_framing_gets_400_and_a_closed_connection(self, demo_cfg, framing):
        with environment(demo_cfg) as env, PassiveClient(env.actor_for) as client:
            with socket.create_connection(_broker_address(env), timeout=5) as sock:
                response = _exchange_raw(
                    sock, b"POST /saml/acs HTTP/1.1\r\nHost: broker\r\n" + framing + b"\r\n")
                assert response.status == 400 and response.will_close
                assert sock.recv(1) == b""
            _signons(env, client)

    def test_oversized_body_gets_413_unread_and_a_closed_connection(self, demo_cfg):
        with environment(demo_cfg) as env, PassiveClient(env.actor_for) as client:
            with socket.create_connection(_broker_address(env), timeout=5) as sock:
                length = httpd.MAX_BODY_BYTES + 1
                response = _exchange_raw(
                    sock,
                    b"POST /saml/acs HTTP/1.1\r\nHost: broker\r\n"
                    + f"Content-Length: {length}\r\n\r\n".encode(),
                )
                assert response.status == 413 and response.will_close
                assert response.getheader("X-Error") == "RequestTooLarge"
                assert sock.recv(1) == b""
            _signons(env, client)

    def test_client_still_sending_a_large_body_reads_the_413_page(self, demo_cfg):
        body = b"SAMLResponse=" + b"x" * 1_000_000
        with environment(demo_cfg) as env:
            with socket.create_connection(_broker_address(env), timeout=5) as sock:
                sock.sendall(b"POST /saml/acs HTTP/1.1\r\nHost: broker\r\n"
                             + f"Content-Length: {len(body)}\r\n\r\n".encode() + body[:1000])
                # The refusal is sent before the rest of the body.
                assert select.select([sock], [], [], 5)[0]
                sock.sendall(body[1000:])
                response = _exchange_raw(sock, b"")
                assert response.status == 413 and response.will_close
                assert response.getheader("X-Error") == "RequestTooLarge"
            status, headers, page = http_exchange(
                "POST", demo_cfg.broker_entity.endpoint("saml_acs"),
                [("SAMLResponse", "x" * 1_000_000)])
            assert status == 413 and "RequestTooLarge" in page

    def test_expect_100_continue_is_answered_before_the_body(self, demo_cfg):
        with environment(demo_cfg) as env:
            with socket.create_connection(_broker_address(env), timeout=5) as sock:
                sock.sendall(b"POST /saml/acs HTTP/1.1\r\nHost: broker\r\n"
                             b"Expect: 100-continue\r\nContent-Length: 3\r\n\r\n")
                assert sock.recv(4096) == b"HTTP/1.1 100 Continue\r\n\r\n"
                response = _exchange_raw(sock, b"x=1")
                assert response.getheader("X-Error") == "ProtocolError"
                assert not response.will_close

    def test_body_at_the_cap_and_missing_body_keep_the_connection(self, demo_cfg):
        at_cap = b"x=" + b"y" * (httpd.MAX_BODY_BYTES - 2)
        with environment(demo_cfg) as env:
            with socket.create_connection(_broker_address(env), timeout=5) as sock:
                for request in (
                    b"POST /saml/acs HTTP/1.1\r\nHost: broker\r\n\r\n",
                    b"POST /saml/acs HTTP/1.1\r\nHost: broker\r\n"
                    + f"Content-Length: {len(at_cap)}\r\n\r\n".encode() + at_cap,
                ):
                    response = _exchange_raw(sock, request)
                    assert response.getheader("X-Error") == "ProtocolError"
                    assert not response.will_close
                healthz = _exchange_raw(sock, b"GET /healthz HTTP/1.1\r\nHost: broker\r\n\r\n")
                assert healthz.status == 200


class TestRouteParameters:
    """A GET route reads only the query, a POST route only the form."""

    @staticmethod
    def _refusal(env, method: str, target: str, body: str) -> tuple[int, str | None, str]:
        connection = http.client.HTTPConnection(*_broker_address(env), timeout=5)
        try:
            connection.request(method, target, body=body.encode(), headers={
                "Content-Type": "application/x-www-form-urlencoded"})
            response = connection.getresponse()
            return response.status, response.getheader("X-Error"), response.read().decode()
        finally:
            connection.close()

    def test_post_ignores_a_correlation_in_its_query(self, demo_cfg):
        with environment(demo_cfg) as env:
            status, error, page = self._refusal(
                env, "POST", "/wsfed/return?wctx=abc", "wa=wsignin1.0&wresult=x")
        assert (status, error) == (400, "ProtocolError")
        assert "missing parameter wctx" in page

    def test_get_ignores_a_request_in_its_body(self, demo_cfg):
        with environment(demo_cfg) as env:
            location = env.saml_sp.start_login().location
            status, error, page = self._refusal(
                env, "GET", "/saml/sso", location.partition("?")[2])
        assert (status, error) == (400, "ProtocolError")
        assert "missing parameter SAMLRequest" in page


def _healthz(*lines: bytes, start: bytes = b"GET /healthz HTTP/1.1") -> bytes:
    return b"\r\n".join((start, b"Host: broker", *lines)) + b"\r\n\r\n"


class TestHeadLines:
    @pytest.mark.parametrize(
        "request_bytes, status, closes",
        [
            (_healthz(), 200, False),
            (_healthz(start=b"GET /" + b"a" * 65536 + b" HTTP/1.1"), 414, True),
            (_healthz(b"X-Long: " + b"a" * 65536), 431, True),
            (_healthz(*[b"X-N: %d" % n for n in range(99)]), 200, False),
            (_healthz(*[b"X-N: %d" % n for n in range(100)]), 431, True),
            (_healthz(b"bogus"), 400, True),
            (_healthz(b"X-Space : 1"), 400, True),
            (_healthz(b"X-Fold: 1", b" continued"), 400, True),
            (_healthz(b"X-Fold: 1", b"\tcontinued"), 400, True),
            (_healthz(b": no name"), 400, True),
            (_healthz(start=b"GET /healthz"), 400, True),
            (_healthz(start=b"GET /healthz HTTP/2.0"), 505, True),
            (_healthz(start=b"DELETE /healthz HTTP/1.1"), 501, True),
            (_healthz(start=b"GET /healthz HTTP/1.0"), 200, True),
            (_healthz(b"Connection: keep-alive", start=b"GET /healthz HTTP/1.0"), 200, False),
            (_healthz(b"Connection: close"), 200, True),
            (_healthz(start=b"GET /nowhere HTTP/1.1"), 404, False),
            (b"\r\n" + _healthz(), 200, False),
        ],
        ids=[
            "plain", "request-line-too-long", "field-line-too-long", "100-fields",
            "101-fields", "no-colon", "space-before-colon", "obs-fold-space", "obs-fold-tab",
            "empty-name", "two-part-request-line", "http-2", "delete", "http-1.0",
            "http-1.0-keep-alive", "connection-close", "not-found", "leading-empty-line",
        ],
    )
    def test_status_and_whether_the_connection_stays(
        self, demo_cfg, request_bytes, status, closes
    ):
        with environment(demo_cfg) as env:
            with socket.create_connection(_broker_address(env), timeout=5) as sock:
                response = _exchange_raw(sock, request_bytes)
                assert response.status == status
                if closes:
                    assert response.will_close and sock.recv(1) == b""
                else:
                    assert _exchange_raw(sock, _healthz()).status == 200


_TCHAR = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
# Visible ASCII and obs-text. 0x85 is left out: http.client's header parse
# splits a decoded line at U+0085 (str.splitlines), so it reads a
# well-formed value containing that byte as two lines.
_VCHAR = "".join(chr(c) for c in [*range(0x21, 0x7F), *range(0x80, 0x100)] if c != 0x85)
_OWS = st.sampled_from(["", " ", "\t", "  \t"])
_FIELDS = st.lists(
    st.tuples(
        st.text(_TCHAR, min_size=1, max_size=16),
        _OWS,
        st.text(_VCHAR + " \t", max_size=40).map(lambda v: v.strip(" \t")),
        _OWS,
    ),
    max_size=30,
)


def _head_bytes(start: str, fields) -> bytes:
    lines = [start, *(f"{name}:{pre}{value}{post}" for name, pre, value, post in fields)]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("iso-8859-1")


class _BytesSocket:
    """What http.client.HTTPResponse needs of a socket, over fixed bytes."""

    def __init__(self, data: bytes) -> None:
        self.data = data

    def makefile(self, mode: str) -> io.BytesIO:
        return io.BytesIO(self.data)


class TestHeadReader:
    """The core's head reader and response reader against http.client, on
    well-formed messages. RFC 9112 §5 leaves the OWS after a field value
    out of the value; http.client keeps it, so it is stripped there before
    the comparison."""

    @settings(max_examples=200, deadline=None)
    @given(fields=_FIELDS)
    def test_fields_are_those_http_client_reads(self, fields):
        data = _head_bytes("GET / HTTP/1.1", fields) + b"next"
        reference = io.BytesIO(data)
        reference.readline()
        expected = [(name, value.rstrip(" \t"))
                    for name, value in http.client.parse_headers(reference).items()]
        rfile = io.BytesIO(data)
        assert httpd.read_head(rfile) == ("GET / HTTP/1.1", expected)
        assert rfile.read() == reference.read() == b"next"

    @settings(max_examples=200, deadline=None)
    @given(
        version=st.sampled_from(["HTTP/1.1", "HTTP/1.0"]),
        status=st.sampled_from([200, 302, 400, 404, 413, 500]),
        connection=st.sampled_from([None, "close", "keep-alive", "upgrade"]),
        framed=st.booleans(),
        fields=_FIELDS.map(lambda fs: [f for f in fs if f[0].lower() not in (
            "content-length", "connection", "transfer-encoding", "keep-alive")]),
        body=st.binary(max_size=300),
    )
    def test_response_reads_as_http_client_reads_it(
        self, version, status, connection, framed, fields, body
    ):
        fields = list(fields)
        if connection is not None:
            fields.append(("Connection", " ", connection, ""))
        if framed:
            fields.append(("Content-Length", " ", str(len(body)), ""))
        data = _head_bytes(f"{version} {status} Reason", fields) + body
        if framed:
            data += b"HTTP/1.1 200 OK\r\n"  # the next response on a kept connection
        reference = http.client.HTTPResponse(_BytesSocket(data))
        reference.begin()
        expected = (reference.status,
                    {name: value.rstrip(" \t") for name, value in reference.getheaders()},
                    reference.read(), reference.will_close)
        rfile = io.BytesIO(data)
        assert client_module._read_response(rfile, httpd.read_head(rfile)) == expected

    @pytest.mark.parametrize("framed", [True, False], ids=["content-length", "until-close"])
    def test_passive_client_reads_the_body_http_client_reads(self, framed):
        body = "<p>é</p>".encode() * 50
        head = b"HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n"
        if framed:
            head += f"Content-Length: {len(body)}\r\n".encode()
        listener = socket.create_server(("127.0.0.1", 0))

        def serve() -> None:
            for _ in range(2):
                connection, _ = listener.accept()
                with connection:
                    connection.recv(65536)
                    connection.sendall(head + b"\r\n" + body)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        with listener:
            url = f"http://127.0.0.1:{listener.getsockname()[1]}/"
            with PassiveClient(timeout=5) as client:
                status, headers, page = client._request("GET", url, [])
            reference = http.client.HTTPConnection(*listener.getsockname(), timeout=5)
            try:
                reference.request("GET", "/")
                expected = reference.getresponse().read()
            finally:
                reference.close()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert status == 200 and page.encode() == body == expected


class TestQuietConnectionEnds:
    def test_close_reset_and_stall_end_at_debug_with_nothing_on_stderr(
        self, demo_cfg, monkeypatch, caplog, capfd
    ):
        monkeypatch.setattr(httpd._Connection, "timeout", 0.2)
        caplog.set_level(logging.DEBUG, logger=httpd.__name__)
        with environment(demo_cfg) as env:
            address = _broker_address(env)
            socket.create_connection(address).close()
            reset = socket.create_connection(address)
            reset.sendall(b"GET /healthz HTTP/1.1\r\nHost: broker\r\n\r\n")
            reset.recv(4096)
            reset.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            reset.close()
            with socket.create_connection(address, timeout=5) as stalled:
                stalled.sendall(b"GET /")
                assert stalled.recv(1) == b""
            deadline = time.monotonic() + 3
            while time.monotonic() < deadline and not any(
                "ConnectionResetError" in r.getMessage() for r in caplog.records
            ):
                time.sleep(0.02)
        messages = [r.getMessage() for r in caplog.records if r.name == httpd.__name__]
        assert any("ConnectionResetError" in m for m in messages), messages
        assert any("timed out" in m for m in messages), messages
        assert all(r.levelno == logging.DEBUG for r in caplog.records if r.name == httpd.__name__)
        assert capfd.readouterr().err == ""


class TestBrokerProcess:
    def test_stops_on_sigint_while_a_client_holds_an_idle_connection(self, tmp_path):
        config_path = write_demo_config(tmp_path)
        listen = json.loads(config_path.read_text())["broker"]["listen"]
        process = subprocess.Popen(
            [sys.executable, "-m", "fedbridge.cli", "broker", "--config", str(config_path)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        idle = http.client.HTTPConnection(listen, timeout=1)
        try:
            for _ in range(100):
                assert process.poll() is None, process.returncode
                try:
                    idle.request("GET", "/healthz")
                    response = idle.getresponse()
                    response.read()
                    break
                except OSError:
                    idle.close()
                    time.sleep(0.1)
            else:
                pytest.fail("the broker never answered /healthz")
            assert response.status == 200 and idle.sock is not None
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=5) == 0
        finally:
            idle.close()
            if process.poll() is None:
                process.kill()
                process.wait()
