"""The benchmark's three workloads.

Each workload generates its network once (``generate``), turns a seed
into a fixed list of requests (``inputs``), and runs them one after
another as a closed loop with one client (``run``), checking every
output against the committed reference in ``refs/``.  ``run`` takes an
optional :class:`~repro.obs.Telemetry`: ``None`` for timed runs, one
object for the traced run, whose spans ``layers.py`` attributes.

Importing this module imports every layer of ``repro`` the workloads
call; the benchmark's set-up time measures that import.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.compile import compile_problem
from repro.domains.media import build_app
from repro.experiments.networks import large_case, network_case
from repro.experiments.scaling import scaling_network_domains
from repro.experiments.scenarios import scenario
from repro.hierarchy import HierarchyConfig, solve_hierarchical
from repro.network.partition import partition_transit_stub
from repro.obs import maybe_span
from repro.parallel import CompileCache
from repro.planner import Planner, PlannerConfig, PlanningError
from repro.planner.executor import execute_plan
from repro.simulate import run_controller

import inputs as spec

REFS = Path(__file__).resolve().parent / "refs"
TOLERANCE = 1e-6
STREAM_INTERVAL_S = 3600.0
"""Frame-stream heartbeat period for fleet-repair.  The benchmark reads
only the task start/end frames; a heartbeat this rare never fires."""


@dataclass
class Request:
    """One request as the client saw it."""

    key: str
    latency_ms: float
    ok: bool
    counts: tuple = ()
    """Work counts that must repeat exactly whenever ``key`` recurs."""


@dataclass
class Pass:
    """Everything one pass over a workload's requests produced."""

    requests: list[Request] = field(default_factory=list)
    busy_s: float = 0.0
    """Summed wall time of the timed calls (checks excluded)."""
    chunks: list[tuple[int, float]] = field(default_factory=list)
    """Per chunk of calls: (correct requests, busy seconds)."""
    speed_factor: float = 1.0
    """Scale from raw times to reference-host-speed times (``speed.py``)."""
    rg_actions_replayed: int = 0
    fallbacks: int = 0
    delta_hits: int = 0
    delta_full: int = 0
    batch_slowest_ms: list[float] = field(default_factory=list)
    """Per controller batch, in order: the slowest member's service time."""

    def crashed(self, key: str, t0: float, n: int = 1) -> None:
        """Record ``n`` failed requests for a call that raised."""
        print(f"request {key} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        self.busy_s += time.perf_counter() - t0
        self.requests += [Request(key, math.inf, False) for _ in range(n)]


def _load_ref(name: str) -> dict:
    return json.loads((REFS / name).read_text())


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= TOLERANCE


class Table2:
    """The paper's grid: Tiny/Small/Large x scenarios A-E, flat planning,
    each cell compiled fresh and run serially."""

    name = "table2"
    pooled = False
    chunk = len(spec.TABLE2_NETWORKS) * len(spec.TABLE2_SCENARIOS)
    """Calls per throughput sample: one round of the grid."""

    def __init__(self, workers: int):
        self.ref = _load_ref("table2.json")["cells"]
        self.cases = None

    def generate(self) -> None:
        self.cases = {key: network_case(key) for key in spec.TABLE2_NETWORKS}

    def inputs(self, seed: int, seconds: float) -> list[tuple[str, str]]:
        rounds = max(1, round(seconds * spec.TABLE2_ROUNDS_PER_S))
        rng = random.Random(seed)
        cells = [(n, s) for n in spec.TABLE2_NETWORKS for s in spec.TABLE2_SCENARIOS]
        requests = []
        for _ in range(rounds):
            order = list(cells)
            rng.shuffle(order)
            requests += order
        return requests

    def run(self, requests, telemetry, out: Pass) -> None:
        for net, scen in requests:
            key = f"{net}/{scen}"
            case = self.cases[net]
            plan = report = problem = None
            outcome = "solved"
            t0 = time.perf_counter()
            try:
                with maybe_span(telemetry, "bench.request", request=key):
                    app = build_app(case.server, case.client)
                    planner = Planner(
                        PlannerConfig(leveling=scenario(scen).leveling(), telemetry=telemetry)
                    )
                    problem = planner.compile(app, case.network)
                    try:
                        with maybe_span(telemetry, "bench.solve"):
                            plan = planner.solve(problem=problem)
                    except PlanningError as exc:
                        outcome = type(exc).__name__
                    if plan is not None:
                        # The exact executor validates the plan and yields
                        # the bandwidth figures Table 2 reports.
                        with maybe_span(telemetry, "bench.execute"):
                            report = plan.execute()
            except Exception:
                out.crashed(key, t0)
                continue
            latency_ms = (time.perf_counter() - t0) * 1e3
            out.busy_s += latency_ms / 1e3

            ref = self.ref[key]
            ok = outcome == ref["outcome"]
            counts = (outcome, len(problem.actions) + problem.reachability_pruned,
                      len(problem.actions))
            if ok and report is not None:
                lan = case.lan_link_vars()
                reserved = report.max_consumed(lan) if lan else None
                delivered = report.value(f"ibw:M@{case.client}")
                ok = _close(reserved, ref["reserved_lan_bw"]) and _close(
                    delivered, ref["delivered_bw"]
                )
                stats = plan.stats
                counts += (stats.rg_nodes, stats.rg_expanded, stats.rg_actions_replayed)
                out.rg_actions_replayed += stats.rg_actions_replayed
            if not ok:
                print(f"request {key}: output differs from the reference", file=sys.stderr)
            out.requests.append(Request(key, latency_ms, ok, counts))


class TransitHier:
    """Hierarchical planning on the 9993-node domain-count transit-stub
    network, domains fanned out over a worker pool per solve."""

    name = "transit-hier"
    pooled = True
    chunk = 6

    def __init__(self, workers: int):
        self.ref = _load_ref("transit_hier.json")["requests"]
        self.workers = workers
        self.network = None
        self.partition = None

    def generate(self) -> None:
        self.network = scaling_network_domains(spec.TRANSIT_STUB_DOMAINS)[0]

    def inputs(self, seed: int, seconds: float) -> list[dict]:
        n = max(1, round(seconds * spec.TRANSIT_SOLVES_PER_S))
        rng = random.Random(seed)
        if n <= len(self.ref):
            return rng.sample(self.ref, n)
        return [rng.choice(self.ref) for _ in range(n)]

    def run(self, requests, telemetry, out: Pass) -> None:
        leveling = scenario(spec.SCENARIO).leveling()
        config = HierarchyConfig(workers=self.workers)
        for ref in requests:
            key = f"{ref['server']}->{ref['client']}"
            t0 = time.perf_counter()
            try:
                with maybe_span(telemetry, "bench.request", request=key):
                    outcome = solve_hierarchical(
                        build_app(ref["server"], ref["client"]),
                        self.network,
                        leveling=leveling,
                        config=config,
                        planner_config=PlannerConfig(leveling=leveling, telemetry=telemetry),
                    )
            except Exception:
                out.crashed(key, t0)
                continue
            latency_ms = (time.perf_counter() - t0) * 1e3
            out.busy_s += latency_ms / 1e3
            plan = outcome.plan
            ok = plan is not None and self._check(ref, plan)
            if not ok:
                print(f"request {key}: invalid, or its cost differs from flat planning",
                      file=sys.stderr)
            out.fallbacks += outcome.mode != "hierarchical"
            counts = (outcome.mode, outcome.domains, len(plan) if plan is not None else 0)
            out.requests.append(Request(key, latency_ms, ok, counts))

    def _check(self, ref: dict, plan) -> bool:
        """Replay the plan's actions, by name, with the exact executor on
        a union problem compiled here, independently of the one the
        hierarchical solve built, and compare its costs with the flat
        reference.

        The problem is compiled afresh for every request and not kept:
        kept problems would add about 5 MB each to ``peak_rss_mb``.  It
        is compiled with ``compile_problem``, not ``Planner.compile``, so
        the traced run does not charge it to ``compile.ms``.
        """
        if self.partition is None:
            self.partition = partition_transit_stub(self.network)
        src, dst = ref["server"], ref["client"]
        union = spec.union_network(self.network, self.partition, src, dst)
        problem = compile_problem(build_app(src, dst), union, scenario(spec.SCENARIO).leveling())
        by_name = {action.name: action for action in problem.actions}
        try:
            actions = [by_name[action.name] for action in plan.actions]
            report = execute_plan(problem, actions)
        except (KeyError, PlanningError):
            return False
        cost_lb = sum(action.cost_lb for action in actions)
        return _close(report.total_cost, ref["exact_cost"]) and _close(cost_lb, ref["cost_lb"])


class FleetRepair:
    """``run_controller`` on the 93-node Large network: a fleet at
    scenario C over a seeded fault timeline, delta replanning and the
    compile cache on, repairs fanned out over a long-lived pool."""

    name = "fleet-repair"
    pooled = True
    chunk = 1

    def __init__(self, workers: int):
        self.ref = _load_ref("fleet_repair.json")["records"]
        self.workers = workers
        self.case = None

    def generate(self) -> None:
        self.case = large_case()

    def inputs(self, seed: int, seconds: float) -> list[int]:
        calls = max(1, round(seconds * spec.FLEET_CALLS_PER_S))
        rng = random.Random(seed)
        seeds = list(spec.FLEET_FAULT_SEEDS)
        if calls <= len(seeds):
            return rng.sample(seeds, calls)
        return [rng.choice(seeds) for _ in range(calls)]

    def run(self, requests, telemetry, out: Pass) -> None:
        app = build_app(self.case.server, self.case.client)
        leveling = scenario(spec.SCENARIO).leveling()
        for fault_seed in requests:
            key = f"faults-{fault_seed}"
            frames: list[dict] = []

            def on_frame(_slot: int, frame: dict) -> None:
                if frame["kind"] in ("task_start", "task_end"):
                    frames.append(frame)

            t0 = time.perf_counter()
            try:
                with maybe_span(telemetry, "bench.request", request=key):
                    record = run_controller(
                        app,
                        self.case.network,
                        leveling,
                        spec.fleet_spec(fault_seed, delta=True),
                        compile_cache=CompileCache(),
                        workers=self.workers,
                        telemetry=telemetry,
                        on_frame=on_frame,
                        stream_interval_s=STREAM_INTERVAL_S,
                    )
            except Exception:
                out.crashed(key, t0, n=spec.FLEET_SIZE * (spec.FLEET_EVENTS + 1))
                continue
            out.busy_s += time.perf_counter() - t0
            batches = service_times(frames, spec.FLEET_SIZE)
            out.requests += self._check(key, record, batches)
            out.delta_hits += record["summary"]["delta_hits"]
            out.delta_full += record["summary"]["delta_full"]
            out.batch_slowest_ms += [max(batch) for batch in batches]

    def _check(self, key: str, record: dict, batches: list[list[float]]) -> list[Request]:
        """One request per initial deploy and per member repair, each
        failed when it differs from the reference.  An outage the
        reference also has is the correct output and counts with its
        service time."""
        ref = self.ref[key.removeprefix("faults-")]
        got = spec.strip_record(record)
        whole_ok = (
            got["summary"] == ref["summary"]
            and got["fleet"] == ref["fleet"]
            and [s["event"] for s in got["steps"]] == [s["event"] for s in ref["steps"]]
        )
        entries = [("initial", got["initial"], ref["initial"])] + [
            (f"step-{i}", step["repairs"], ref_step["repairs"])
            for i, (step, ref_step) in enumerate(zip(got["steps"], ref["steps"]))
        ]
        requests = []
        if len(batches) != len(entries) or len(got["steps"]) != len(ref["steps"]):
            print(f"request {key}: batch count differs from the reference", file=sys.stderr)
            n = spec.FLEET_SIZE * (len(ref["steps"]) + 1)
            return [Request(key, math.inf, False) for _ in range(n)]
        for (stage, members, ref_members), batch in zip(entries, batches):
            for member, ref_member, latency_ms in zip(members, ref_members, batch):
                name = f"{key}/{stage}/{member['app']}"
                ok = whole_ok and member == ref_member
                if not ok:
                    print(f"request {name}: differs from the reference", file=sys.stderr)
                requests.append(Request(name, latency_ms, ok))
        counts = (record["summary"]["delta_hits"], record["summary"]["delta_full"])
        requests[0].counts = counts
        return requests


def service_times(frames: list[dict], fleet: int) -> list[list[float]]:
    """Per controller batch, each member's service time in ms, measured
    in the worker from its task-start frame to its task-end frame.

    Batches run one after another and each holds one task per fleet
    member, indexed by member, so consecutive runs of ``fleet`` task-end
    frames form the batches.
    """
    starts: dict[tuple[int, int], float] = {}
    batches: list[list[float]] = []
    current: dict[int, float] = {}
    for frame in frames:
        slot = (frame["pid"], frame["task"])
        if frame["kind"] == "task_start":
            starts[slot] = frame["ts_s"]
            continue
        current[frame["task"]] = (frame["ts_s"] - starts.pop(slot)) * 1e3
        if len(current) == fleet:
            batches.append([current[i] for i in sorted(current)])
            current = {}
    return batches


WORKLOADS = {w.name: w for w in (Table2, TransitHier, FleetRepair)}


def setup_probe(name: str) -> None:
    """Generate one workload's network (the set-up a user pays)."""
    WORKLOADS[name](workers=1).generate()
