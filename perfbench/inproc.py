"""In-process workloads: the broker's four handle_* methods and the mock actors.

Messages travel through the encodings a browser relays: a redirect's
``location`` read back with ``first_values``, a form POST's ``fields``.

relay-inproc  flows A and B alternate over a federation of dozens of SPs per
              dialect; each round also replays one captured STS assertion
              under a fresh correlation (a known fault, counted as failed).
sso-backlog   abandoned flow-A attempts (SP start_login, then handle_saml_sso
              only) on top of thousands pre-loaded in set-up.
"""

from __future__ import annotations

import base64
import random
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlencode, urlsplit

from fedbridge.broker import Broker
from fedbridge.config import load_config
from fedbridge.errors import FedBridgeError
from fedbridge.httpd import first_values
from fedbridge.messages import EntityId
from fedbridge.mocks import MockSamlIdp, MockSamlSp, MockWsfedSp, MockWsfedSts
from fedbridge.scenarios import EMAIL_NAMEID_FORMAT

import checks
from checks import CheckFailed, require
from federation import (
    ATTRIBUTE_MAP, BROKER_KEY_ID, IDP_ID, PERSISTENT_FORMAT, STS_ID, TRANSIENT_FORMAT,
    UNMAPPED_NAMES, build_federation, seeded_users,
)
from report import Timings, gauge, self_max_rss_mb

SPS_PER_DIALECT = 24
# Enough users that the slowest sign-ons (the users with the most and the
# longest attributes) are many, and p95 does not hang on a handful of them.
USERS = 1000
ATTRIBUTES = (10, 20)
# The replayed assertion belongs to a fixed user at a fixed SP, so the
# failing operation's inputs do not depend on the seed.
REPLAY_SUBJECT = "replay-victim@bench.test"
REPLAY_ATTRIBUTES = {ATTRIBUTE_MAP[0][1]: "replay-victim@bench.test",
                     UNMAPPED_NAMES[0]: "audit"}


def _query(url: str) -> dict[str, str]:
    return first_values(urlsplit(url).query)


@dataclass
class Flow:
    """One sign-on as the browser relayed it, with the broker's share of it."""

    sp_id: str
    subject: str
    login: object        # RedirectMessage from the SP
    outbound: object     # RedirectMessage from the broker
    issued: object       # PostMessage from the authority
    relayed: object      # PostMessage from the broker
    page: object         # HttpResponse of the SP
    seconds: float
    broker_s: list[float]
    broker_cpu_s: float

    def wire_bytes(self) -> int:
        return (len(self.login.location) + len(self.outbound.location)
                + len(urlencode(self.issued.fields)) + len(urlencode(self.relayed.fields)))


class Federated:
    """A broker plus mock actors in this process, and the checks on what
    they hand each other. With ``tracer`` set, spans are recorded during
    the measured sign-ons only."""

    def __init__(self, directory: Path, seed: int, replay_seconds: int) -> None:
        fed_rng = random.Random(f"{seed}:federation")
        users = seeded_users(fed_rng, USERS, ATTRIBUTES, mapped=True)
        users[REPLAY_SUBJECT] = dict(REPLAY_ATTRIBUTES)
        self.fed = build_federation(
            directory, fed_rng, sps_per_dialect=SPS_PER_DIALECT, users=users,
            attribute_map=True, pseudonyms=True, decoy_authorities=True,
            broker_base="https://broker.bench.test:8443", replay_seconds=replay_seconds,
        )
        self.subjects = [s for s in users if s != REPLAY_SUBJECT]
        config = load_config(self.fed.config_path)
        self.broker = Broker(config)
        self.tracer = None
        self.tracing = True
        topology, broker_entity = config.topology, config.broker_entity
        self.sts_signin = topology.entity(EntityId(STS_ID)).endpoint("signin")
        self.wsfed_return = broker_entity.endpoint("wsfed_return")

        def authority(cls, entity_id):
            return cls(topology.entity(EntityId(entity_id)),
                       config.private_key_for(EntityId(entity_id)), config.mocks.users,
                       clock_skew=config.clock_skew)

        def provider(cls, entity_id, entry):
            return cls(topology.entity(EntityId(entity_id)),
                       config.trusted_store_for_sp(EntityId(entity_id)),
                       broker_entity.endpoint(entry), clock_skew=config.clock_skew,
                       name_id_format=EMAIL_NAMEID_FORMAT)

        self.sts = authority(MockWsfedSts, STS_ID)
        self.idp = authority(MockSamlIdp, IDP_ID)
        self.saml_sps = {sp: provider(MockSamlSp, sp, "saml_sso") for sp in self.fed.saml_sps}
        self.wsfed_sps = {sp: provider(MockWsfedSp, sp, "wsfed_signin")
                          for sp in self.fed.wsfed_sps}
        self.signature = checks.BrokerSignature(self.fed.broker_public_pem, BROKER_KEY_ID)
        self.to_saml = {claim: saml for saml, claim in self.fed.attribute_map}
        self.to_wsfed = dict(self.fed.attribute_map)
        self.transients: set[str] = set()
        self._broker_s: list[float] = []
        self._broker_cpu = 0.0
        self.hops: dict[str, list[float]] = {}  # traced calls, by handler

    # -- driving ---------------------------------------------------------------

    def _trace(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.on = on and self.tracing

    def _broker(self, handler, params):
        """Call a handle_* method; in process it is the broker hop."""
        cpu = time.thread_time()
        start = time.perf_counter()
        out = handler(params)
        seconds = time.perf_counter() - start
        self._broker_cpu += time.thread_time() - cpu
        self._broker_s.append(seconds)
        if self.tracer is not None and self.tracer.on:
            self.hops.setdefault(handler.__name__.removeprefix("handle_"), []).append(seconds)
        return out

    def _flow(self, sp_id, subject, sp, authority, entry, exit_, traced) -> Flow:
        self._broker_s, self._broker_cpu = [], 0.0
        authority.active_subject = subject
        self._trace(traced)
        start = time.perf_counter()
        login = sp.start_login()
        outbound = self._broker(entry, _query(login.location))
        if authority is self.sts:
            issued = authority.handle_signin(_query(outbound.location))
        else:
            issued = authority.handle_sso(_query(outbound.location))
        relayed = self._broker(exit_, dict(issued.fields))
        if isinstance(sp, MockSamlSp):
            page = sp.handle_acs(dict(relayed.fields))
        else:
            page = sp.handle_return(dict(relayed.fields))
        seconds = time.perf_counter() - start
        self._trace(False)
        return Flow(sp_id, subject, login, outbound, issued, relayed, page, seconds,
                    self._broker_s, self._broker_cpu)

    def flow_a(self, sp_id: str, subject: str, traced: bool = True) -> Flow:
        return self._flow(sp_id, subject, self.saml_sps[sp_id], self.sts,
                          self.broker.handle_saml_sso, self.broker.handle_wsfed_return, traced)

    def flow_b(self, sp_id: str, subject: str, traced: bool = True) -> Flow:
        return self._flow(sp_id, subject, self.wsfed_sps[sp_id], self.idp,
                          self.broker.handle_wsfed_signin, self.broker.handle_saml_acs, traced)

    def abandoned_a(self, sp_id: str, traced: bool = True):
        """SP start_login, then handle_saml_sso, and nothing after. Returns
        the two redirects, the seconds they took, and the broker's seconds
        and CPU seconds."""
        self._broker_s, self._broker_cpu = [], 0.0
        self._trace(traced)
        start = time.perf_counter()
        login = self.saml_sps[sp_id].start_login()
        outbound = self._broker(self.broker.handle_saml_sso, _query(login.location))
        seconds = time.perf_counter() - start
        self._trace(False)
        return login, outbound, seconds, self._broker_s[0], self._broker_cpu

    # -- checks ------------------------------------------------------------------

    def _expected_subject(self, flow: Flow) -> tuple[str | None, str | None]:
        mode = self.fed.pseudonym_modes.get(flow.sp_id, "none")
        if mode == "persistent":
            return (checks.persistent_pseudonym(self.fed.pseudonym_secret, flow.subject,
                                                flow.sp_id), PERSISTENT_FORMAT)
        if mode == "transient":
            return None, TRANSIENT_FORMAT
        return flow.subject, None

    def _check_relayed(self, flow: Flow, original_xml: str, relayed_xml: str,
                       table: dict[str, str], sp, authority) -> None:
        self.signature.check(relayed_xml)
        original = checks.assertion_fields(original_xml)
        relayed = checks.assertion_fields(relayed_xml)
        require(original["subject"] == flow.subject, "authority issued for another subject")
        require(original["attributes"] == sorted(self.fed.users[flow.subject].items()),
                "authority issued other attributes than the seeded ones")
        subject, subject_format = self._expected_subject(flow)
        if subject is None:  # transient: fresh for each sign-on
            subject = relayed["subject"]
            require(subject != flow.subject and subject not in self.transients,
                    "transient pseudonym is not fresh")
            self.transients.add(subject)
        checks.check_relayed_assertion(original, relayed, subject=subject,
                                       subject_format=subject_format,
                                       attributes=checks.renamed(original["attributes"], table))
        headers = dict(flow.page.headers)
        require(flow.page.status == 200 and headers.get("X-Outcome") == "established",
                f"SP refused the sign-on: {headers.get('X-Outcome')}")
        require(len(sp.contexts) == 1 and sp.contexts[0].subject == subject,
                "SP did not record exactly one context for the subject")
        require(len(authority.issued) == 1, "authority did not issue exactly one assertion")
        # Cleared after each check, so the harness does not grow GC work.
        sp.contexts.clear()
        authority.issued.clear()

    def check_a(self, flow: Flow) -> None:
        sp = self.saml_sps[flow.sp_id]
        request, relay_state = checks.saml_request(flow.login.location)
        fields = dict(flow.relayed.fields)
        require(flow.relayed.target == sp.entity.endpoint("acs"), "response sent elsewhere")
        require(fields.get("RelayState") == relay_state, "RelayState does not match")
        response_xml = base64.b64decode(fields["SAMLResponse"]).decode("utf-8")
        require(ET.fromstring(response_xml).get("InResponseTo") == request.get("ID"),
                "InResponseTo does not match the SP's request")
        self.check_outbound(flow.outbound)
        self._check_relayed(flow, dict(flow.issued.fields)["wresult"], response_xml,
                            self.to_saml, sp, self.sts)

    def check_b(self, flow: Flow) -> None:
        sp = self.wsfed_sps[flow.sp_id]
        wctx = checks.query(flow.login.location)["wctx"]
        fields = dict(flow.relayed.fields)
        require(flow.relayed.target == sp.entity.endpoint("return"), "response sent elsewhere")
        require(fields.get("wctx") == wctx, "wctx does not match")
        require(ET.fromstring(fields["wresult"]).get("Context") == wctx,
                "RSTR Context does not match the SP's request")
        issued_xml = base64.b64decode(dict(flow.issued.fields)["SAMLResponse"]).decode("utf-8")
        self._check_relayed(flow, issued_xml, fields["wresult"], self.to_wsfed, sp, self.idp)

    def check_outbound(self, outbound) -> str:
        """A flow-A redirect goes to the STS sign-in endpoint with
        wa=wsignin1.0, and its RST's Context is the wctx and its ReplyTo the
        broker's wsfed_return. Returns the wctx."""
        params = checks.query(outbound.location)
        require(checks.target(outbound.location) == self.sts_signin, "redirect not to the STS")
        require(params.get("wa") == "wsignin1.0", "wa is not wsignin1.0")
        rst = ET.fromstring(params["wreq"])
        require(rst.get("Context") == params.get("wctx"), "RST Context differs from wctx")
        require(rst.findtext(f"{{{checks.WSA_NS}}}ReplyTo/{{{checks.WSA_NS}}}Address")
                == self.wsfed_return, "RST ReplyTo is not the broker's wsfed_return")
        return params["wctx"]

    # -- the known fault -----------------------------------------------------------

    def replay_captured_assertion(self) -> bool:
        """Deliver a captured STS assertion in a wresult under a different,
        fresh correlation, with the RSTR Context (outside the signature)
        rewritten to match. True when the broker re-signs it."""
        sp_id = self.fed.saml_sps[0]
        captured = self.flow_a(sp_id, REPLAY_SUBJECT, traced=False)
        self.check_a(captured)
        fields = dict(captured.issued.fields)
        outbound = self.abandoned_a(sp_id, traced=False)[1]
        fresh = checks.query(outbound.location)["wctx"]
        old = f'Context="{fields["wctx"]}"'
        require(old in fields["wresult"], "captured RSTR carries no Context")
        forged = {"wa": fields["wa"], "wctx": fresh,
                  "wresult": fields["wresult"].replace(old, f'Context="{fresh}"')}
        try:
            relayed = self.broker.handle_wsfed_return(forged)
        except FedBridgeError:
            return False
        sp = self.saml_sps[sp_id]
        sp.handle_acs(dict(relayed.fields))
        sp.contexts.clear()
        return True


class _InProcess:
    """What the run needs from a workload whose broker shares this process."""

    broker_in_process = True

    def teardown(self, bench: Federated) -> None:
        pass

    def max_rss_mb(self, bench: Federated) -> float:
        return self_max_rss_mb()

    def broker_trace(self, bench: Federated, tracer):
        state = {"broker.live_correlations": gauge(bench.broker, "correlations"),
                 "pseudonym.registry_records": gauge(bench.broker, "pseudonyms")}
        return list(tracer.spans), set(), state

    def hops(self, bench: Federated) -> dict[str, list[float]]:
        return bench.hops


class RelayInproc(_InProcess):
    """Rounds of ten sign-ons (A and B alternate) and one replayed delivery.

    The broker remembers request IDs for one second here, so its replay
    guard holds about a second of flow-A requests and stays small."""

    name = "relay-inproc"
    signons_per_round = 10
    warmup_rounds = 20
    rounds_per_second = 30

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, directory: Path) -> Federated:
        bench = Federated(directory, self.seed, replay_seconds=1)
        rng = random.Random(f"{self.seed}:warmup")
        for _ in range(self.warmup_rounds):
            self._round(bench, rng, Timings(), wire=False)
        return bench

    def _round(self, bench: Federated, rng: random.Random, timed: Timings,
               wire: bool) -> tuple[int, int]:
        for index in range(self.signons_per_round):
            subject = rng.choice(bench.subjects)
            if index % 2 == 0:
                flow = bench.flow_a(rng.choice(bench.fed.saml_sps), subject)
                bench.check_a(flow)
            else:
                flow = bench.flow_b(rng.choice(bench.fed.wsfed_sps), subject)
                bench.check_b(flow)
            timed.add(flow.seconds, sum(flow.broker_s), flow.broker_cpu_s)
            if wire:
                timed.wire_bytes += flow.wire_bytes()
        failed = bench.replay_captured_assertion()
        return self.signons_per_round + 1, int(failed)

    def run(self, bench: Federated, rounds: int, wire: bool = False, alternate: bool = False):
        rng = random.Random(f"{self.seed}:signons")
        timed, plain = Timings(), Timings()
        attempted = failed = 0
        for index in range(rounds):
            bench.tracing = not alternate or index % 2 == 1
            a, f = self._round(bench, rng, timed if bench.tracing else plain, wire)
            attempted += a
            failed += f
        timed.untraced_s = plain.signon_s
        return timed, attempted, failed


class SsoBacklog(_InProcess):
    """Abandoned flow-A attempts on a broker pre-loaded with thousands more.

    Request IDs and correlations are kept for 300 s, so nothing expires
    during a run: every attempt adds to the state the next one works on."""

    name = "sso-backlog"
    preload = 2000
    warmup_flows = 20
    resent = 20
    attempts_per_round = 10
    rounds_per_second = 45

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.resend: list[dict[str, str]] = []

    def setup(self, directory: Path) -> Federated:
        bench = Federated(directory, self.seed, replay_seconds=300)
        rng = random.Random(f"{self.seed}:warmup")
        for _ in range(self.warmup_flows):
            bench.check_a(bench.flow_a(rng.choice(bench.fed.saml_sps),
                                       rng.choice(bench.subjects)))
        self.resend = []
        for index in range(self.preload):
            login = bench.abandoned_a(rng.choice(bench.fed.saml_sps))[0]
            if index % (self.preload // self.resent) == 0:
                self.resend.append(_query(login.location))
        return bench

    def run(self, bench: Federated, rounds: int, wire: bool = False, alternate: bool = False):
        rng = random.Random(f"{self.seed}:signons")
        timed, plain = Timings(), Timings()
        seen: set[str] = set()
        for index in range(rounds):
            bench.tracing = not alternate or index % 2 == 1
            into = timed if bench.tracing else plain
            for _ in range(self.attempts_per_round):
                login, outbound, seconds, broker_s, cpu_s = bench.abandoned_a(
                    rng.choice(bench.fed.saml_sps))
                into.add(seconds, broker_s, cpu_s)
                if wire:
                    into.wire_bytes += len(login.location) + len(outbound.location)
                wctx = bench.check_outbound(outbound)
                require(wctx not in seen, "wctx repeated")
                seen.add(wctx)
        self.after(bench)
        timed.untraced_s = plain.signon_s
        return timed, rounds * self.attempts_per_round, 0

    def after(self, bench: Federated) -> None:
        """Untimed: earlier requests re-sent are refused with Replay, and a
        complete flow A and a complete flow B still pass. In a traced run
        the two flows are traced, so the layers the attempts never reach
        are measured too."""
        for params in self.resend:
            try:
                bench.broker.handle_saml_sso(params)
            except FedBridgeError as exc:
                require(exc.code == "Replay", f"re-sent request refused with {exc.code}")
            else:
                raise CheckFailed("re-sent AuthnRequest was accepted")
        bench.tracing = True
        bench.check_a(bench.flow_a(bench.fed.saml_sps[-1], bench.subjects[0]))
        bench.check_b(bench.flow_b(bench.fed.wsfed_sps[-1], bench.subjects[1]))
