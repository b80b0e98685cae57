"""signon-http: full PassiveClient sign-ons over loopback HTTP.

The broker runs as its own process (``python -m fedbridge.cli broker``, or
``traced_broker.py`` for the traced run), with its log sent to a file. The
mock actors and the client run in this process, on the one-per-dialect
demo topology, with 2-attribute users and no pseudonyms. Flows A and B
alternate.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlencode, urlsplit

from fedbridge.client import PassiveClient
from fedbridge.config import load_config
from fedbridge.scenarios import Environment, free_ports, start_environment

from checks import require
from federation import build_federation, seeded_users
from report import Timings
from tracer import read_spans

HOST = "127.0.0.1"
USERS = 16
WARMUP_SIGNONS = 40
HEALTHZ_TIMEOUT_S = 60.0
BENCH_DIR = Path(__file__).resolve().parent
ENDPOINTS = {"/saml/sso": "saml_sso", "/wsfed/return": "wsfed_return",
             "/wsfed/signin": "wsfed_signin", "/saml/acs": "saml_acs"}


class TimedClient(PassiveClient):
    """The passive client, timing each hop to the broker as it sees it."""

    def __init__(self, actor_for, broker_netloc: str) -> None:
        super().__init__(actor_for)
        self.broker_netloc = broker_netloc
        self.broker_s: list[float] = []
        self.hops: dict[str, list[float]] = {}
        self.wire = False
        self.wire_bytes = 0

    def _request(self, method, url, fields):
        start = time.perf_counter()
        out = super()._request(method, url, fields)
        elapsed = time.perf_counter() - start
        parts = urlsplit(url)
        if parts.netloc == self.broker_netloc:
            self.broker_s.append(elapsed)
            if self.wire:
                self.hops.setdefault(ENDPOINTS.get(parts.path, parts.path), []).append(elapsed)
        if self.wire:
            self.wire_bytes += len(url) + (len(urlencode(fields)) if method == "POST" else 0)
        return out


@dataclass
class Deployment:
    broker: subprocess.Popen
    log: object
    env: Environment
    client: TimedClient
    users: dict[str, dict[str, str]]
    spans_path: Path
    tracer: object = None


def _proc_cpu_ticks(pid: int) -> int:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])  # utime + stime


def _proc_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


def _wait_healthz(process: subprocess.Popen, base: str, log_path: Path) -> None:
    parts = urlsplit(base)
    deadline = time.monotonic() + HEALTHZ_TIMEOUT_S
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"broker exited with {process.returncode}; see {log_path}")
        connection = http.client.HTTPConnection(parts.netloc, timeout=1.0)
        try:
            connection.request("GET", "/healthz")
            if connection.getresponse().status == 200:
                return
        except OSError:
            pass
        finally:
            connection.close()
        time.sleep(0.01)
    raise RuntimeError(f"broker not healthy after {HEALTHZ_TIMEOUT_S} s; see {log_path}")


class SignonHttp:
    name = "signon-http"
    broker_in_process = False
    rounds_per_second = 45

    def __init__(self, seed: int, src: Path) -> None:
        self.seed = seed
        self.src = src
        self.traced = False

    def setup(self, directory: Path) -> Deployment:
        """Broker process up and healthy, mocks started, warm-up done."""
        directory.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"{self.seed}:federation")
        users = seeded_users(rng, USERS, (2, 2), mapped=False)
        broker, sts, idp, saml_sp, wsfed_sp = (f"http://{HOST}:{p}" for p in free_ports(5, HOST))
        fed = build_federation(
            directory, rng, sps_per_dialect=1, users=users, attribute_map=False,
            pseudonyms=False, decoy_authorities=False, broker_base=broker,
            sp_bases=(saml_sp, wsfed_sp), sts_url=f"{sts}/signin", idp_url=f"{idp}/sso",
        )
        spans_path = directory / "broker-spans.jsonl"
        if self.traced:
            command = [sys.executable, str(BENCH_DIR / "traced_broker.py"),
                       str(fed.config_path), str(spans_path)]
        else:
            command = [sys.executable, "-m", "fedbridge.cli", "broker",
                       "--config", str(fed.config_path)]
        log_path = directory / "broker.log"
        log = open(log_path, "wb")
        env = dict(os.environ, PYTHONPATH=str(self.src))
        process = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT,
                                   stdin=subprocess.DEVNULL, env=env)
        deployment = None
        try:
            _wait_healthz(process, broker, log_path)
            mocks = start_environment(load_config(fed.config_path), with_broker=False)
            client = TimedClient(mocks.actor_for, urlsplit(broker).netloc)
            deployment = Deployment(process, log, mocks, client, users, spans_path)
            warm = random.Random(f"{self.seed}:warmup")
            for index in range(WARMUP_SIGNONS):
                self._signon(deployment, index % 2 == 0, warm.choice(list(users)))
        except BaseException:
            self._stop(process, log, deployment.env if deployment else None)
            raise
        return deployment

    def _signon(self, d: Deployment, flow_a: bool, subject: str) -> tuple[float, float]:
        """One checked sign-on: its seconds, and the seconds of its broker hops."""
        env = d.env
        sp, authority = (env.saml_sp, env.wsfed_sts) if flow_a else (env.wsfed_sp, env.saml_idp)
        authority.active_subject = subject
        d.client.broker_s = []
        start = time.perf_counter()
        result = d.client.run(sp.login_url)
        seconds = time.perf_counter() - start
        if d.tracer is not None:
            d.tracer.on = False
        require(not result.relay_violations,
                f"client originated a parameter: {result.relay_violations[:1]}")
        require(result.final_status == 200 and result.final_outcome == "established",
                f"sign-on ended with {result.final_status} {result.final_outcome}")
        require(len(sp.contexts) == 1, "SP did not record exactly one context")
        context = sp.contexts[0]
        require(context.correlation == result.final_correlation, "context of another sign-on")
        require(context.subject == subject, "SP signed in another subject")
        require(sorted(context.attributes) == sorted(d.users[subject].items()),
                "SP received other attributes than the seeded ones")
        require(len(authority.issued) == 1, "authority did not issue exactly one assertion")
        # Cleared after each check, so the harness does not grow GC work.
        sp.contexts.clear()
        authority.issued.clear()
        if d.tracer is not None:
            d.tracer.on = True
        return seconds, sum(d.client.broker_s)

    def run(self, d: Deployment, rounds: int, wire: bool = False, alternate: bool = False):
        """Rounds of one flow A and one flow B. The broker's CPU time is read
        from /proc between sign-ons, in clock ticks. ``alternate`` has no
        effect: the broker process is traced for its whole life or not."""
        rng = random.Random(f"{self.seed}:signons")
        subjects = list(d.users)
        timed = Timings()
        d.client.wire = wire
        tick_s = 1 / os.sysconf("SC_CLK_TCK")
        ticks = _proc_cpu_ticks(d.broker.pid)
        self.phase_ns = [time.perf_counter_ns()]
        if d.tracer is not None:
            d.tracer.on = True
        for _ in range(rounds):
            for flow_a in (True, False):
                seconds, broker_s = self._signon(d, flow_a, rng.choice(subjects))
                now = _proc_cpu_ticks(d.broker.pid)
                timed.add(seconds, broker_s, (now - ticks) * tick_s)
                ticks = now
        if d.tracer is not None:
            d.tracer.on = False
        self.phase_ns.append(time.perf_counter_ns())
        self.peak_rss_mb = _proc_peak_rss_mb(d.broker.pid)
        timed.wire_bytes = d.client.wire_bytes
        return timed, 2 * rounds, 0

    def max_rss_mb(self, d: Deployment) -> float:
        return self.peak_rss_mb

    def hops(self, d: Deployment) -> dict[str, list[float]]:
        return d.client.hops

    def broker_trace(self, d: Deployment, tracer):
        """The broker process's spans inside the traced phase, the span
        names it could not patch, and its state gauges."""
        self._stop(d.broker, d.log, None)
        meta = json.loads(d.spans_path.with_suffix(".meta.json").read_text())
        start, end = self.phase_ns
        spans = [s for s in read_spans(d.spans_path) if start <= s[3] and s[4] <= end]
        return spans, set(meta["absent"]), meta["state"]

    def teardown(self, d: Deployment) -> None:
        self._stop(d.broker, d.log, d.env)

    @staticmethod
    def _stop(process: subprocess.Popen, log, env: Environment | None) -> None:
        if env is not None:
            env.close()
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        log.close()
