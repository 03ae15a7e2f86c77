#!/usr/bin/env python
"""Two of the paper's §6 future-work ideas, implemented and demonstrated.

1. **Template sharing across services** — one shared TemplateStore
   between clients for different endpoints: serialize once, content-
   match everywhere.
2. **Differential deserialization** — the receiving side parses only
   the value spans that changed.

Run:  python examples/template_store_extensions.py
"""

import time

import numpy as np

from repro import BSoapClient, DiffPolicy, Parameter, SOAPMessage, StuffMode, StuffingPolicy
from repro.core import TemplateStore
from repro.schema import ArrayType, DOUBLE
from repro.server import DeserKind, DifferentialDeserializer
from repro.transport import CollectSink, MemcpySink


def msg(values):
    return SOAPMessage(
        "broadcast", "urn:grid:multicast",
        [Parameter("field", ArrayType(DOUBLE), values)],
    )


def main() -> None:
    rng = np.random.default_rng(3)
    data = rng.random(10_000)

    # -- 1. shared store: one template, many services -------------------
    print("=== §6: template sharing across remote services ===")
    store = TemplateStore()
    services = {
        name: BSoapClient(MemcpySink(), store=store)
        for name in ("svc-alpha", "svc-beta", "svc-gamma")
    }
    for name, client in services.items():
        report = client.send(msg(data))
        print(f"  send to {name:10s}: {report.match_kind.value}")
    print(f"  templates in the shared store: {store.template_count} "
          f"(serialization paid once for {len(services)} services)\n")

    # -- 2. differential deserialization ---------------------------------
    print("=== §6: differential deserialization on the receiver ===")
    sink = CollectSink()
    sender = BSoapClient(sink, DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX)))
    call = sender.prepare(msg(data))
    call.send()
    receiver = DifferentialDeserializer()
    receiver.deserialize(sink.last)
    for changed in (10, 100, 1000):
        call.tracked("field").update(
            rng.choice(10_000, changed, replace=False), rng.random(changed)
        )
        call.send()
        t0 = time.perf_counter()
        _, report = receiver.deserialize(sink.last)
        dt = (time.perf_counter() - t0) * 1000
        print(f"  {changed:5d} values changed → {report.kind.value:13s} "
              f"parsed {report.leaves_parsed:5d}/{report.total_leaves} leaves "
              f"in {dt:7.2f} ms")


if __name__ == "__main__":
    main()
