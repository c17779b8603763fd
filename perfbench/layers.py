"""Per-layer attribution of a traced pass.

The traced pass runs the same requests as a timed pass with one
:class:`~repro.obs.Telemetry` threaded through.  Every request runs
under a ``bench.request`` root span; the program's own spans nest under
it.  Where the program records no span, the benchmark adds one from
outside (:func:`instrument`) or infers it from the timeline:

* ``bench.compile`` around every ``Planner.compile`` call in this
  process -- grounding in a Table-2 cell, the union compile inside
  ``hierarchy.stitch``;
* ``bench.pool`` around every ``Supervisor`` start and close;
* ``hierarchy.fanout``: the gap between the ``hierarchy.abstract`` and
  ``hierarchy.stitch`` spans of one solve, where the domain subproblems
  are built and fanned out.

:func:`attribute` then charges every span's self time (its duration
minus its children's) to a layer metric.  Root self time and spans of no
known layer are reported as ``unattributed_ms`` rather than guessed, so
the layer metrics plus ``unattributed_ms`` sum to ``trace.wall_ms``, the
summed duration of the request roots.  Spans recorded in pool workers
run in parallel with the coordinator's wait for them, so they count only
towards work counts (RG nodes), never towards the time split.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

LAYER_OF_SPAN = {
    "bench.compile": "compile.ms",
    "compile": "compile.ms",
    "plrg": "planner.plrg_ms",
    "slrg": "planner.slrg_ms",
    "rg": "planner.rg_ms",
    "execute": "planner.execute_ms",
    "bench.execute": "planner.execute_ms",
    "plan.solve": "planner.other_ms",
    "bench.solve": "planner.other_ms",
    "analysis": "planner.other_ms",
    "hierarchy.partition": "hierarchy.partition_ms",
    "hierarchy.abstract": "hierarchy.abstract_ms",
    "hierarchy.fanout": "hierarchy.fanout_ms",
    "hierarchy.stitch": "hierarchy.stitch_ms",
    "controller.batch": "controller.batch_ms",
    "bench.pool": "pool.lifecycle_ms",
    "supervise.respawn": "pool.lifecycle_ms",
}
LAYER_METRICS = tuple(dict.fromkeys(LAYER_OF_SPAN.values()))


@dataclass
class _Node:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict


@contextmanager
def instrument(telemetry, compiles: list[tuple[int, int]]):
    """Add the benchmark's own spans around calls that record none.

    Every ``Planner.compile`` in this process runs under a
    ``bench.compile`` span and appends ``(grounded, kept)`` to
    ``compiles``: ground actions before the reachability prune, and
    after.  Pool workers import ``repro`` afresh and are not affected.
    """
    from repro.parallel import Supervisor
    from repro.planner import Planner

    original_compile = Planner.compile
    original_init = Supervisor.__init__
    original_close = Supervisor.close

    def compile(self, app, network):
        with telemetry.span("bench.compile"):
            problem = original_compile(self, app, network)
        compiles.append((len(problem.actions) + problem.reachability_pruned, len(problem.actions)))
        return problem

    def init(self, *args, **kwargs):
        with telemetry.span("bench.pool", phase="start"):
            original_init(self, *args, **kwargs)

    def close(self, *args, **kwargs):
        with telemetry.span("bench.pool", phase="close"):
            return original_close(self, *args, **kwargs)

    Planner.compile, Supervisor.__init__, Supervisor.close = compile, init, close
    try:
        yield
    finally:
        Planner.compile = original_compile
        Supervisor.__init__ = original_init
        Supervisor.close = original_close


def _with_fanout(nodes: list[_Node]) -> list[_Node]:
    """Insert a ``hierarchy.fanout`` node into every abstract→stitch gap
    and move the spans inside that gap (pool start and close) under it."""
    by_parent: dict[int | None, list[_Node]] = {}
    for node in nodes:
        by_parent.setdefault(node.parent, []).append(node)
    next_id = -1
    out = list(nodes)
    for siblings in by_parent.values():
        siblings.sort(key=lambda n: n.start)
        for i, node in enumerate(siblings):
            if node.name != "hierarchy.abstract":
                continue
            stitch = next((s for s in siblings[i + 1:] if s.name == "hierarchy.stitch"), None)
            if stitch is None:
                continue
            gap = _Node(next_id, "hierarchy.fanout", node.end, stitch.start, node.parent, {})
            next_id -= 1
            for inner in siblings:
                if gap.start <= inner.start and inner.end <= gap.end:
                    inner.parent = gap.id
            out.append(gap)
    return out


def attribute(telemetry) -> dict:
    """Layer self times of the traced pass, plus the per-request split.

    Returns ``{"layers": {metric: ms}, "unattributed_ms", "wall_ms",
    "requests": [(request key, {metric: ms}), ...]}``.
    """
    nodes = [
        _Node(s.id, s.name, s.start_s, s.end_s, s.parent, s.attrs)
        for s in telemetry.spans.spans
        if s.end_s is not None
    ]
    nodes = _with_fanout(nodes)
    child_ms: dict[int, float] = {}
    for node in nodes:
        if node.parent is not None:
            child_ms[node.parent] = child_ms.get(node.parent, 0.0) + (node.end - node.start) * 1e3
    parent_of = {node.id: node.parent for node in nodes}

    def root_of(node_id: int) -> int:
        while parent_of[node_id] is not None:
            node_id = parent_of[node_id]
        return node_id

    layers = dict.fromkeys(LAYER_METRICS, 0.0)
    per_root: dict[int, dict[str, float]] = {}
    unattributed = wall = 0.0
    for node in nodes:
        self_ms = (node.end - node.start) * 1e3 - child_ms.get(node.id, 0.0)
        metric = LAYER_OF_SPAN.get(node.name, "unattributed_ms")
        if metric == "unattributed_ms":
            unattributed += self_ms
        else:
            layers[metric] += self_ms
        split = per_root.setdefault(root_of(node.id), {})
        split[metric] = split.get(metric, 0.0) + self_ms
        if node.parent is None:
            wall += (node.end - node.start) * 1e3
    roots = {node.id: node for node in nodes if node.parent is None}
    requests = [
        (roots[rid].attrs.get("request", roots[rid].name), split)
        for rid, split in sorted(per_root.items(), key=lambda kv: roots[kv[0]].start)
    ]
    return {"layers": layers, "unattributed_ms": unattributed, "wall_ms": wall,
            "requests": requests}


def rg_node_counts(telemetry) -> tuple[int, int]:
    """(created, expanded) RG nodes over every ``rg`` span, local and remote."""
    spans = list(telemetry.spans.spans) + list(telemetry.remote_spans)
    created = sum(s.attrs.get("nodes_created", 0) for s in spans if s.name == "rg")
    expanded = sum(s.attrs.get("nodes_expanded", 0) for s in spans if s.name == "rg")
    return created, expanded


def counter(telemetry, name: str) -> float:
    metric = telemetry.metrics.get(name)
    return metric.value if metric is not None else 0


def controller_batches_ms(telemetry) -> list[float]:
    """Durations of the ``controller.batch`` spans, in start order."""
    batches = sorted(
        (s for s in telemetry.spans.spans if s.name == "controller.batch"),
        key=lambda s: s.start_s,
    )
    return [s.duration_ms for s in batches]
