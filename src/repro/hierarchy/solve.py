"""The hierarchical solve entry point and its fallback ladder.

:func:`solve_hierarchical` is the domain-decomposed counterpart of
:meth:`repro.planner.Planner.solve`.  It never grounds the full network:
the backbone is planned over the tiny abstract network, each involved
stub domain is planned over its own members, and only the *union
subnetwork* (involved stubs + backbone) is compiled to validate the
stitched result — at 10k nodes that is the difference between grounding
tens of nodes and grounding all ten thousand.

Correctness comes from the exact executor, not from the decomposition:
the stitched sequence must execute cleanly on the union subnetwork, and
by locality of execution (see :mod:`repro.hierarchy.stitch`) that
certificate transfers verbatim to the full network.  Whenever any stage
misses, the **fallback ladder** walks down:

1. ``hierarchical`` — partition, abstract, fan out, stitch, validate;
2. ``widened`` — flat planning on the union subnetwork (the boundary is
   widened from per-domain contracts to the whole involved region);
3. ``flat`` — flat planning on the full network, bit-for-bit what a
   non-hierarchical solve would do.

With telemetry attached, the stages run under ``hierarchy.partition`` /
``hierarchy.abstract`` / ``hierarchy.stitch`` spans, the
``hierarchy.domains`` counter records fan-out width, and
``hierarchy.stitch.retries`` counts every rung the ladder had to walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..model import AppSpec, Leveling
from ..network import Network
from ..network.partition import PartitionError, partition_transit_stub
from ..obs import Telemetry, maybe_span
from ..planner.errors import PlanningError
from ..planner.plan import Plan
from ..planner.planner import Planner, PlannerConfig
from ..planner.stats import PlannerStats
from .abstraction import abstract_network
from .contracts import (
    ContractError,
    abstracted_app,
    build_domain_problem,
    derive_contracts,
)
from .stitch import StitchError, stitch_hierarchical

__all__ = ["HierarchyConfig", "HierarchyOutcome", "solve_hierarchical"]


@dataclass(frozen=True)
class HierarchyConfig:
    """Knobs of the hierarchical path (``PlannerConfig.hierarchy``)."""

    workers: int = 1
    """Domain-subproblem fan-out width.  ``1`` solves domains in-process
    (same task payloads, same results — byte-identical by construction);
    ``>1`` dispatches over a supervised spawn pool."""
    use_cache: bool = True
    """Route domain/union compilations through the process-global
    warm-start compile caches."""
    fallback: bool = True
    """Walk the widened/flat rungs on a miss.  ``False`` raises the
    triggering error instead — used by tests that must observe the
    hierarchical path itself."""
    domain_rg_node_budget: int = 200_000
    backbone_rg_node_budget: int = 200_000


@dataclass
class HierarchyOutcome:
    """What the ladder produced, and how it got there."""

    plan: Plan | None
    mode: str = "hierarchical"  # "hierarchical" | "widened" | "flat"
    domains: int = 0
    stitch_retries: int = 0
    failure: str = ""
    notes: list[str] = field(default_factory=list)

    @property
    def solved(self) -> bool:
        return self.plan is not None

    def describe(self) -> str:
        lines = list(self.notes)
        if self.solved:
            lines.append(
                f"=> {self.mode} plan: {len(self.plan)} actions, "
                f"cost lower bound {self.plan.cost_lb:g}"
            )
        else:
            lines.append(f"=> no plan ({self.failure})")
        return "\n".join(lines)


def solve_hierarchical(
    app: AppSpec,
    network: Network,
    leveling: Leveling | None = None,
    config: HierarchyConfig | None = None,
    planner_config: PlannerConfig | None = None,
    telemetry: Telemetry | None = None,
) -> HierarchyOutcome:
    """Solve by domain decomposition, falling back to flat planning.

    ``planner_config`` seeds the flat-planner settings used at every
    stage (budgets, validation, static pruning ...); ``leveling`` and
    ``telemetry`` default from it.  Planning failures that no rung can
    absorb (e.g. a logically unsolvable goal, reported by the final flat
    rung) propagate as the usual :class:`~repro.planner.PlanningError`
    subclasses so callers see exactly what a flat solve would raise.
    """
    cfg = config or HierarchyConfig()
    base = planner_config or PlannerConfig()
    if leveling is None:
        leveling = base.leveling
    tele = telemetry if telemetry is not None else base.telemetry
    base = replace(base, leveling=leveling, telemetry=tele, hierarchy=None)
    outcome = HierarchyOutcome(plan=None)

    def note(text: str) -> None:
        outcome.notes.append(text)

    def count_retry() -> None:
        outcome.stitch_retries += 1
        if tele is not None:
            tele.metrics.inc("hierarchy.stitch.retries")

    def flat(scope: Network, mode: str) -> HierarchyOutcome:
        plan = Planner(base).solve(app, scope)
        outcome.plan = plan
        outcome.mode = mode
        return outcome

    # -- rung 1: partition + abstract + fan out + stitch -----------------------
    try:
        with maybe_span(tele, "hierarchy.partition", network=network.name) as span:
            partition = partition_transit_stub(network)
            involved = _involved_domains(app, partition)
            if span is not None:
                span.attrs.update(domains=len(partition.domains), involved=len(involved))
        outcome.domains = len(involved)
        if tele is not None:
            tele.metrics.inc("hierarchy.domains", len(involved))

        with maybe_span(tele, "hierarchy.abstract", included=len(involved)):
            abstraction = abstract_network(network, partition, involved)
            abs_app = abstracted_app(app, abstraction)
            abs_config = replace(
                base, rg_node_budget=cfg.backbone_rg_node_budget, validate=True
            )
            abs_plan = Planner(abs_config).solve(abs_app, abstraction.network)
            decomposition = derive_contracts(abs_plan.problem, abs_plan.actions, abstraction)

        domain_problems = [
            build_domain_problem(
                app, network, domain, decomposition.domain_contracts(domain.key)
            )
            for domain in abstraction.included
        ]
        results = _solve_domains(domain_problems, leveling, cfg, tele)
        failed = [r for r in results if not r.solved]
        if failed:
            raise StitchError(
                "domain subproblems failed: "
                + ", ".join(f"{r.domain} ({r.failure})" for r in failed)
            )

        with maybe_span(tele, "hierarchy.stitch", domains=len(results)) as span:
            union_net = _union_network(network, partition, abstraction.included)
            union_problem = Planner(base).compile(app, union_net)
            actions, report = stitch_hierarchical(
                union_problem,
                decomposition,
                {r.domain: r.action_names for r in results},
                {p.domain.key: p.synthetic_components for p in domain_problems},
            )
            if span is not None:
                span.attrs.update(actions=len(actions), cost=report.total_cost)
        stats = PlannerStats(
            total_actions=len(union_problem.actions),
            compile_ms=union_problem.compile_seconds * 1e3,
        )
        outcome.plan = Plan(
            problem=union_problem,
            actions=actions,
            cost_lb=sum(a.cost_lb for a in actions),
            stats=stats,
        )
        outcome.plan._report = report
        outcome.mode = "hierarchical"
        return outcome
    except (PartitionError, ContractError, StitchError, PlanningError) as exc:
        if not cfg.fallback:
            raise
        note(f"hierarchical: {type(exc).__name__}: {exc}")
        outcome.failure = type(exc).__name__
        widen = not isinstance(exc, (PartitionError, PlanningError))

    # -- rung 2: widened boundary — flat planning on the union subnetwork ------
    if widen:
        count_retry()
        try:
            partition = partition_transit_stub(network)
            involved = _involved_domains(app, partition)
            union_net = _union_network(
                network,
                partition,
                tuple(d for d in partition.domains if d.key in involved),
            )
            plan = flat(union_net, "widened")
            note("widened: solved flat on the union subnetwork")
            return plan
        except (PartitionError, PlanningError) as exc:
            note(f"widened: {type(exc).__name__}: {exc}")
            outcome.failure = type(exc).__name__

    # -- rung 3: flat planning on the full network -----------------------------
    count_retry()
    result = flat(network, "flat")
    note("flat: solved on the full network")
    return result


def _involved_domains(app: AppSpec, partition) -> frozenset[str]:
    """Keys of the stub domains hosting pinned / placed components."""
    nodes = {p.node for p in app.initial_placements}
    nodes |= {p.node for p in app.goal_placements}
    nodes |= set(app.pinned.values())
    involved = set()
    for node in nodes:
        domain = partition.domain_of(node)
        if domain is not None:
            involved.add(domain.key)
    return frozenset(involved)


def _union_network(net: Network, partition, domains) -> Network:
    """Backbone plus the involved stub domains, concrete and verbatim."""
    union = Network(f"{net.name}#union")
    keep = set(partition.transit_nodes)
    for domain in domains:
        keep |= set(domain.members)
    for node_id in sorted(keep):
        node = net.node(node_id)
        union.add_node(
            node_id, dict(node.resources), labels=set(node.labels), software=node.software
        )
    for link in net.links.values():
        if link.a in keep and link.b in keep:
            union.add_link(link.a, link.b, dict(link.resources), labels=set(link.labels))
    return union


def _solve_domains(domain_problems, leveling, cfg: HierarchyConfig, tele):
    """Fan the domain subproblems out (or solve them in-process).

    Task payloads are derived from the abstract plan alone, so serial
    and parallel runs hand identical inputs to identical solvers —
    results are byte-identical at any worker count.
    """
    from ..parallel import DomainTask, fan_out, run_domain_task

    tasks = [
        DomainTask(
            domain=p.domain.key,
            app=p.app,
            network=p.network,
            leveling=leveling,
            rg_node_budget=cfg.domain_rg_node_budget,
            with_metrics=tele is not None,
            use_cache=cfg.use_cache,
        )
        for p in sorted(domain_problems, key=lambda p: p.domain.key)
    ]
    return fan_out(run_domain_task, tasks, cfg.workers, telemetry=tele).raise_on_failure()
