"""Inputs shared by the benchmark (``run.py``) and its reference
generator (``make_refs.py``).

Everything here is a constant or a pure function of a seed, so both
scripts see the same instances.  Functions import ``repro`` lazily: the
benchmark measures that import as part of its set-up time.
"""

from __future__ import annotations

import random

TABLE2_NETWORKS = ("Tiny", "Small", "Large")
TABLE2_SCENARIOS = ("A", "B", "C", "D", "E")

SCENARIO = "C"
"""Leveling of the transit-hier and fleet-repair workloads."""

TRANSIT_STUB_DOMAINS = 333
"""``scaling_network_domains(333)``: 3 + 30 * 333 = 9993 nodes."""
TRANSIT_POOL_SEED = 2004
TRANSIT_POOL_SIZE = 64

FLEET_SIZE = 3
FLEET_EVENTS = 12
FLEET_FAULT_SEEDS = tuple(range(12))

# Nominal request rates on a 2-CPU host.  A run's request count is
# ``--seconds`` times this rate, a fixed number for a given ``--seconds``,
# so runs of different program versions compare the same work and the
# same tail percentile.
TABLE2_ROUNDS_PER_S = 1 / 7.5
TRANSIT_SOLVES_PER_S = 1.0
FLEET_CALLS_PER_S = 1 / 6


def transit_pairs(network) -> list[tuple[str, str]]:
    """The pool of transit-hier endpoint pairs: server and client in two
    distinct stub domains, drawn from a fixed seed."""
    from repro.network.partition import partition_transit_stub

    domains = partition_transit_stub(network).domains
    rng = random.Random(TRANSIT_POOL_SEED)
    pairs: list[tuple[str, str]] = []
    while len(pairs) < TRANSIT_POOL_SIZE:
        a, b = rng.sample(range(len(domains)), 2)
        src = rng.choice(sorted(domains[a].members))
        dst = rng.choice(sorted(domains[b].members))
        if (src, dst) not in pairs:
            pairs.append((src, dst))
    return pairs


def union_network(network, partition, src: str, dst: str):
    """The union subnetwork of one transit-hier pair: the transit
    backbone plus the stub domains of ``src`` and ``dst``.

    Built here rather than by ``repro.hierarchy``, so the reference and
    the benchmark's check share no code with the path under test.
    """
    from repro.network import Network

    keep = set(partition.transit_nodes)
    for node in (src, dst):
        keep |= set(partition.domain_of(node).members)
    union = Network(f"{network.name}#ref")
    for node_id in sorted(keep):
        node = network.node(node_id)
        union.add_node(
            node_id, dict(node.resources), labels=set(node.labels), software=node.software
        )
    for link in network.links.values():
        if link.a in keep and link.b in keep:
            union.add_link(link.a, link.b, dict(link.resources), labels=set(link.labels))
    return union


def fleet_spec(fault_seed: int, delta: bool) -> dict:
    """The controller spec of one fleet-repair call."""
    return {
        "fleet": FLEET_SIZE,
        "faults": {"seed": fault_seed, "events": FLEET_EVENTS},
        "delta_replanning": delta,
    }


def strip_record(record: dict) -> dict:
    """A controller record minus timings and compile-path provenance.

    What remains is the same whichever compile path produced it, so a
    delta-replanning run is compared against a full-recompile reference.
    """
    summary = {
        k: v
        for k, v in record["summary"].items()
        if k not in ("ttr_ms_mean", "ttr_ms_max", "delta_hits", "delta_full")
    }
    steps = [
        {
            **step,
            "repairs": [
                {k: v for k, v in repair.items() if k != "ttr_ms"}
                for repair in step["repairs"]
            ],
        }
        for step in record["steps"]
    ]
    out = {k: v for k, v in record.items() if k != "wall_ms"}
    out.update(summary=summary, steps=steps)
    return out
