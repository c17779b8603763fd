"""Regenerate the benchmark's reference outputs under ``perfbench/refs``.

The references come from paths independent of the ones the benchmark
times:

* ``transit_hier.json`` -- for every endpoint pair of the pool, the cost
  of *flat* planning on the pair's union subnetwork (the backbone plus
  the two stub domains), where the benchmark times hierarchical solves.
  The search uses the admissible PLRG_MAX heuristic, which returns the
  optimum, when it finishes within ``PLRG_MAX_NODES`` search nodes, and
  the default SLRG heuristic otherwise; each entry names its source;
* ``fleet_repair.json`` -- for every fault seed of the pool, the
  controller record of a full recompilation (no compile cache, no delta
  replanning, one worker), with timings and provenance stripped, where
  the benchmark times delta replanning over a worker pool.

``table2.json`` is written by hand from the paper's Table 2 and is not
generated.  Run from the repository root:

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
PLRG_MAX_NODES = 40_000
"""RG node budget of the PLRG_MAX search.  Its bound is weak on this
network: it finishes on 15 of the 64 pairs within 40k nodes, and on the
first pair it exceeds even the planner's default budget of 500k."""


def transit_refs() -> dict:
    from repro.domains.media import build_app
    from repro.experiments.scaling import scaling_network_domains
    from repro.experiments.scenarios import scenario
    from repro.network.partition import partition_transit_stub
    from repro.planner import Heuristic, Planner, PlannerConfig, SearchBudgetExceeded

    from inputs import SCENARIO, TRANSIT_STUB_DOMAINS, transit_pairs, union_network

    network = scaling_network_domains(TRANSIT_STUB_DOMAINS)[0]
    partition = partition_transit_stub(network)
    leveling = scenario(SCENARIO).leveling()
    admissible = PlannerConfig(
        leveling=leveling, heuristic=Heuristic.PLRG_MAX, rg_node_budget=PLRG_MAX_NODES
    )
    requests = []
    for src, dst in transit_pairs(network):
        union = union_network(network, partition, src, dst)
        app = build_app(src, dst)
        try:
            plan, source = Planner(admissible).solve(app, union), "plrg-max"
        except SearchBudgetExceeded:
            plan, source = Planner(PlannerConfig(leveling=leveling)).solve(app, union), "slrg"
        requests.append(
            {
                "server": src,
                "client": dst,
                "union_nodes": len(union.nodes),
                "source": source,
                "cost_lb": plan.cost_lb,
                "exact_cost": plan.exact_cost,
            }
        )
        print(f"transit {src} -> {dst}: exact cost {plan.exact_cost:g} ({source})", flush=True)
    return {"stub_domains": TRANSIT_STUB_DOMAINS, "scenario": SCENARIO, "requests": requests}


def fleet_refs() -> dict:
    from repro.domains.media import build_app
    from repro.experiments.networks import large_case
    from repro.experiments.scenarios import scenario
    from repro.simulate import run_controller

    from inputs import FLEET_FAULT_SEEDS, SCENARIO, fleet_spec, strip_record

    case = large_case()
    app = build_app(case.server, case.client)
    leveling = scenario(SCENARIO).leveling()
    records = {}
    for fault_seed in FLEET_FAULT_SEEDS:
        record = run_controller(
            app, case.network, leveling, fleet_spec(fault_seed, delta=False),
            compile_cache=None, workers=1,
        )
        records[str(fault_seed)] = strip_record(record)
        print(f"fleet seed {fault_seed}: {record['summary']}", flush=True)
    return {"scenario": SCENARIO, "records": records}


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    REFS.mkdir(exist_ok=True)
    (REFS / "transit_hier.json").write_text(json.dumps(transit_refs(), indent=1) + "\n")
    (REFS / "fleet_repair.json").write_text(json.dumps(fleet_refs(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
