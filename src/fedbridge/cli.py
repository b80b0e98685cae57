"""fedbridge command line.

subcommands:
  broker       run the interoperability broker from a configuration file
  mocks        run the mock authorities and providers from the same file
  scenario     drive a full cross-dialect sign-on and report Pass/Fail
  translate    convert one authentication request between dialects; a
               response is refused, since only the broker's return path,
               with its relay checks, re-signs an assertion
  topo         print the responsible entity and relay path for an SP/IP pair
  demo-config  write a runnable demo deployment (keys, ports, config.json)
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import threading
from pathlib import Path

from .config import load_config
from .errors import FedBridgeError
from .messages import (
    EntityId,
    SamlAuthnRequest,
    WstRequestSecurityToken,
    fresh_id,
    parse,
    serialize,
)
from .scenarios import (
    Scenario,
    run_scenario,
    start_environment,
    write_demo_config,
)
from .translate import (
    AuthnContextMapping,
    authn_request_to_rst,
    rst_to_authn_request,
)
from .trust import resolve_path, resolve_responsible


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedbridge",
        description="SAML2 / WS-Federation interoperability broker and harness",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_broker = sub.add_parser("broker", help="run the broker service")
    p_broker.add_argument("--config", required=True)

    p_mocks = sub.add_parser("mocks", help="run mock authorities and providers")
    p_mocks.add_argument("--config", required=True)

    p_scenario = sub.add_parser("scenario", help="run an end-to-end flow")
    p_scenario.add_argument(
        "name",
        help="saml-sp-to-wsfed-ip or wsfed-sp-to-saml-ip",
    )
    p_scenario.add_argument("--config", required=True)
    p_scenario.add_argument("--trace", help="write the step trace as JSON")
    p_scenario.add_argument("--force-authn", action="store_true")
    p_scenario.add_argument("--subject", help="which mock user signs in")

    p_translate = sub.add_parser(
        "translate", help="convert one authentication request between dialects"
    )
    p_translate.add_argument("--from", dest="source", choices=("saml", "wsfed"), required=True)
    p_translate.add_argument("--to", dest="target", choices=("saml", "wsfed"), required=True)
    p_translate.add_argument("--in", dest="infile", required=True)
    p_translate.add_argument("--out", dest="outfile", required=True)
    p_translate.add_argument("--config", help="context mapping table and broker identity")
    p_translate.add_argument("--context", default="", help="WS-Trust context of the RST written")

    p_topo = sub.add_parser("topo", help="resolve interoperability responsibility")
    p_topo.add_argument("--config", required=True)
    p_topo.add_argument("--sp", required=True)
    p_topo.add_argument("--ip", required=True)

    p_demo = sub.add_parser("demo-config", help="write a runnable demo deployment")
    p_demo.add_argument("--out-dir", required=True)
    p_demo.add_argument("--host", default="127.0.0.1")

    return parser


def _wait_forever() -> None:
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass


def _cmd_broker(args) -> int:
    config = load_config(args.config)
    from .broker import Broker

    handle = Broker(config).serve()
    print(f"broker {config.broker_id} listening on {handle.base_url}")
    _wait_forever()
    handle.stop()
    return 0


def _cmd_mocks(args) -> int:
    config = load_config(args.config)
    env = start_environment(config, with_broker=False)
    for handle in env.handles:
        print(f"{handle.name} listening on {handle.base_url}")
    _wait_forever()
    env.close()
    return 0


def _cmd_scenario(args) -> int:
    config = load_config(args.config)
    trace = run_scenario(
        Scenario.from_name(args.name),
        config,
        force_authn=args.force_authn,
        subject=args.subject,
        trace_path=args.trace,
    )
    for step in trace.steps:
        print(f"  {step.actor:<12} {step.method:<4} {step.url}  [{step.outcome}]")
    if trace.passed:
        print(f"{args.name}: Pass")
        return 0
    print(f"{args.name}: Fail({trace.reason})")
    return 1


def _permissive_ctx_map() -> AuthnContextMapping:
    return AuthnContextMapping(entries=(), pass_through=True)


def _cmd_translate(args) -> int:
    if args.source == args.target:
        print("translate: --from and --to must differ", file=sys.stderr)
        return 2
    xml = Path(args.infile).read_text(encoding="utf-8")
    config = load_config(args.config) if args.config else None
    ctx_map = config.ctx_map if config else _permissive_ctx_map()

    if args.source == "saml":
        out = authn_request_to_rst(parse(xml, SamlAuthnRequest), ctx_map,
                                   context=args.context or fresh_id())
    else:
        issuer = config.broker_id if config else EntityId("urn:fedbridge:translator")
        out = rst_to_authn_request(parse(xml, WstRequestSecurityToken), ctx_map, issuer)

    Path(args.outfile).write_text(serialize(out) + "\n", encoding="utf-8")
    print(f"wrote {type(out).__name__} to {args.outfile}")
    return 0


def _cmd_topo(args) -> int:
    config = load_config(args.config)
    sp, ip = EntityId(args.sp), EntityId(args.ip)
    responsible = resolve_responsible(config.topology, sp, ip)
    path = resolve_path(config.topology, sp, ip)
    print(f"responsible: {responsible}")
    print("path: " + " -> ".join(str(e) for e in path))
    return 0


def _cmd_demo_config(args) -> int:
    path = write_demo_config(args.out_dir, host=args.host)
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "broker": _cmd_broker,
    "mocks": _cmd_mocks,
    "scenario": _cmd_scenario,
    "translate": _cmd_translate,
    "topo": _cmd_topo,
    "demo-config": _cmd_demo_config,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(message)s",
        stream=sys.stderr,
    )
    try:
        return _COMMANDS[args.command](args)
    except FedBridgeError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
