"""``fedbridge broker`` with spans around the broker's public functions.

    PYTHONPATH=src python3 perfbench/traced_broker.py CONFIG SPANS_PATH

The broker runs through ``fedbridge.cli.main`` as ``fedbridge broker``
does. On SIGINT it stops; the spans go to SPANS_PATH, and the span names
that could not be patched and the broker's state gauges go to
SPANS_PATH with the suffix ``.meta.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from fedbridge import cli
from fedbridge.broker import Broker

from report import gauge
from tracer import BROKER_TARGETS, Tracer


def main(config: str, spans_path: str) -> int:
    brokers = []
    original_init = Broker.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        brokers.append(self)

    Broker.__init__ = init
    tracer = Tracer()
    tracer.patch(BROKER_TARGETS)
    tracer.on = True
    try:
        return cli.main(["broker", "--config", config])
    finally:
        tracer.on = False
        tracer.write(spans_path)
        broker = brokers[0] if brokers else None
        state = {"broker.live_correlations": gauge(broker, "correlations"),
                 "pseudonym.registry_records": gauge(broker, "pseudonyms")}
        Path(spans_path).with_suffix(".meta.json").write_text(
            json.dumps({"absent": sorted(tracer.absent), "state": state}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
