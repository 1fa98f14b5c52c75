#!/usr/bin/env python
"""Scenario: surviving link (edge) failures — statically, then live.

The paper analyses vertex faults — the harder model — but its machinery
handles *link* (edge) faults verbatim. This example shows both views of
that threat model on an ISP-style topology:

1. **Static overlay.** Build an r-edge-fault-tolerant 3-spanner of a
   random-geometric "fiber map" (nodes = POPs, edges = fibers) through
   the typed front door (``SpannerSpec("theorem21")`` with
   ``FaultModel.edge(r)``: the registry's one Theorem 2.1 row reads the
   fault kind from the spec) and verify it exhaustively against every
   set of up to ``r`` cut links.

2. **Live service.** A spanner built once only survives the cuts it was
   *sized* for; :class:`repro.serve.SpannerService` keeps one valid
   while fibers actually fail. A :class:`~repro.serve.ChaosInjector`
   cuts links — adversarially, aiming at the overlay's own edges — and
   the tiered repair engine (patch → region → full) heals the Lemma 3.1
   damage. Run with the lazy policy, the service *degrades gracefully*:
   reads answered from a damaged overlay are flagged ``degraded``, and
   one ``repair()`` restores health.

Run:  python examples/link_failures.py
"""

from __future__ import annotations

from repro import FaultModel, Session, SpannerSpec
from repro.analysis import print_table
from repro.serve import (
    ChaosInjector,
    Operation,
    RepairPolicy,
    SpannerService,
    WorkloadGenerator,
    read_write_weights,
)
from repro.graph import random_geometric_graph


def static_overlay(fibers, r: int) -> None:
    session = Session()
    overlay = session.build(
        SpannerSpec(
            "theorem21", stretch=3, faults=FaultModel.edge(r), seed=13
        ),
        graph=fibers,
    )
    exhaustive = session.verify(overlay, graph=fibers, mode="exhaustive")
    print_table(
        ["quantity", "value"],
        [
            ["overlay links", overlay.size],
            ["of fiber map", f"{100 * overlay.size / fibers.num_edges:.0f}%"],
            ["oversampling iterations", overlay.stats["iterations"]],
            [f"exhaustive over all <= {r} link cuts", exhaustive],
        ],
        title=f"static r={r} edge-fault-tolerant 3-spanner of the fiber map",
    )


def live_service(fibers, r: int) -> None:
    # Eager (default) policy: a mixed day of traffic — mostly distance
    # queries, some fiber build-out and decommissioning — followed by an
    # adversarial burst of link cuts. Every answer comes from a valid
    # spanner; the tier histogram shows repairs stayed local.
    service = SpannerService(fibers.copy(), r=r, seed=0)
    traffic = WorkloadGenerator(
        fibers, seed=7, weights=read_write_weights(0.9)
    ).generate(200)
    chaos = ChaosInjector(seed=12, adversarial=True)
    traffic += chaos.edge_burst(service.host, 8, spanner=service.spanner)
    results = service.apply_all(traffic)
    assert service.is_valid()
    summary = service.summary()
    degraded = sum(1 for res in results if res.health == "degraded")
    print_table(
        ["quantity", "value"],
        [
            ["ops applied", summary["ops_applied"]],
            ["adversarial link cuts", 8],
            ["repair tiers", summary["stats"]["tiers"]],
            ["repaired links", summary["stats"]["repaired_edges"]],
            ["degraded answers", degraded],
            ["overlay valid at end", service.is_valid()],
        ],
        title="eager service: traffic + adversarial cuts, healed in-stream",
    )

    # Lazy policy: repairs are deferred, so the same burst leaves the
    # overlay damaged and reads honestly report it — the graceful
    # degradation contract. A single repair() then restores health.
    lazy = SpannerService(
        fibers.copy(), r=r, policy=RepairPolicy.lazy(), seed=0
    )
    burst = ChaosInjector(seed=12, adversarial=True).edge_burst(
        lazy.host, 8, spanner=lazy.spanner
    )
    burst_results = lazy.apply_all(burst)
    probes = list(lazy.host.vertices())[:4]
    reads = [
        Operation("QUERY_DIST", {"u": probes[0], "v": probes[-1]}),
        Operation("READ_NBRS", {"v": probes[1]}),
    ]
    read_results = lazy.apply_all(reads)
    flagged = [res.health for res in read_results]
    tier = lazy.repair()
    print_table(
        ["quantity", "value"],
        [
            ["link cuts applied", len(burst)],
            ["peak Lemma 3.1 damage",
             max(res.damage for res in burst_results)],
            ["reads while damaged", f"{flagged} (never silently healthy)"],
            ["repair() tier", tier],
            ["overlay valid after repair", lazy.is_valid()],
        ],
        title="lazy service: degrade under the burst, one repair() to heal",
    )


def main() -> None:
    r = 1
    fibers = random_geometric_graph(22, 0.45, seed=12)
    print(
        f"fiber map: n={fibers.num_vertices} POPs, "
        f"m={fibers.num_edges} links"
    )
    static_overlay(fibers, r)
    live_service(fibers, r)


if __name__ == "__main__":
    main()
