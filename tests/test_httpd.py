"""Persistent HTTP/1.1 between the passive client and the actors: one
connection per server for a client's lifetime, one write per response, the
idle timeout, body framing on a kept-alive connection, quiet connection
ends, and a broker process that still stops on SIGINT."""

from __future__ import annotations

import http.client
import json
import logging
import re
import signal
import socket
import socketserver
import struct
import subprocess
import sys
import threading
import time

import pytest

from fedbridge import client as client_module
from fedbridge import httpd
from fedbridge.client import PassiveClient, http_exchange
from fedbridge.scenarios import environment, write_demo_config


@pytest.fixture
def connects(monkeypatch):
    """The host:port of every TCP connection an HTTPConnection opens."""
    opened: list[str] = []
    original = http.client.HTTPConnection.connect

    def connect(self):
        opened.append(f"{self.host}:{self.port}")
        original(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", connect)
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
        monkeypatch.setattr(httpd._Handler, "timeout", 0.3)
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
        original = socketserver._SocketWriter.write

        def write(self, data):
            writes.append(bytes(data))
            return original(self, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write", write)
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
        assert httpd._Handler.timeout == httpd.IDLE_TIMEOUT_S
        assert 1 <= httpd.IDLE_TIMEOUT_S <= 30

    def test_half_sent_request_line_is_dropped_while_signons_pass(
        self, demo_cfg, monkeypatch
    ):
        monkeypatch.setattr(httpd._Handler, "timeout", 0.2)
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


class TestQuietConnectionEnds:
    def test_close_reset_and_stall_end_at_debug_with_nothing_on_stderr(
        self, demo_cfg, monkeypatch, caplog, capfd
    ):
        monkeypatch.setattr(httpd._Handler, "timeout", 0.2)
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
