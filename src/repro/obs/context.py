"""Cross-process trace propagation: contexts, remote spans, stitching.

A coordinator that fans planner work out over worker processes opens a
dispatch span (``table2.fanout``, ``campaign.fanout``,
``controller.batch``) and stamps every task envelope with a
:class:`TraceContext` — the coordinator's trace id plus the id of that
dispatch span.  Workers build their :class:`~repro.obs.Telemetry` *under*
that context; when the task result travels home, the worker's recorded
spans ride along inside the metrics snapshot
(:class:`repro.parallel.MetricsSnapshot`) and :func:`stitch_snapshot`
grafts them into the coordinator's telemetry as :class:`RemoteSpan`
records — re-identified (worker-local span ids collide across workers),
re-parented (worker roots hang off the dispatch span), and re-based onto
the coordinator's clock — so one export renders the whole fleet on one
timeline, one lane per worker pid.

Clock mapping: span timestamps are ``time.perf_counter`` seconds, which
are only comparable within one process.  Every ``Telemetry`` therefore
captures a paired (epoch, perf_counter) anchor at construction; a worker
timestamp maps onto the coordinator's perf timeline through the epoch:

    epoch  = worker.epoch_anchor + (t - worker.perf_anchor)
    parent = parent.perf_anchor + (epoch - parent.epoch_anchor)

Wall-clock skew between the two anchors is bounded by process spawn
latency on one machine — microseconds against millisecond spans.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field

__all__ = [
    "TraceContext",
    "RemoteSpan",
    "REMOTE_ID_BASE",
    "new_trace_id",
    "spans_payload",
    "stitch_snapshot",
]

REMOTE_ID_BASE = 1_000_000
"""First span id handed to stitched remote spans.  Coordinator-local ids
are list indices (0, 1, 2, ...); starting remote ids here keeps the two
ranges disjoint without coordinating allocation across processes."""


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id (uuid4)."""
    return uuid.uuid4().hex


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The cross-process trace position a task envelope carries.

    ``parent_span_id`` is the coordinator-side span that dispatched the
    work; worker root spans are re-parented onto it when stitched.  The
    dataclass is tiny, immutable, and trivially picklable — a disabled
    pipeline ships ``None`` instead, so the telemetry-off hot path pays
    one ``None`` field per task envelope and nothing else.
    """

    trace_id: str
    parent_span_id: int | None = None


@dataclass(slots=True)
class RemoteSpan:
    """A worker span after stitching into the coordinator's telemetry.

    Same shape as :class:`~repro.obs.Span` plus provenance: the worker
    process pid (the trace lane) and, when the task ran in a worker, the
    supervisor slot that returned it.  Timestamps are coordinator ``perf_counter``
    seconds — already re-based, directly comparable to local spans.
    """

    id: int
    name: str
    start_s: float
    end_s: float | None
    parent: int | None
    attrs: dict = field(default_factory=dict)
    pid: int = 0
    worker: int | None = None

    @property
    def duration_s(self) -> float:
        return 0.0 if self.end_s is None else self.end_s - self.start_s

    @property
    def duration_ms(self) -> float:
        return self.duration_s * 1e3


def spans_payload(recorder) -> tuple[dict, ...]:
    """Flatten a :class:`~repro.obs.SpanRecorder` for the trip home.

    Plain dicts (not :class:`Span` objects) cross the process boundary:
    the envelope contract stays schema-stable and versionable, and the
    parent never unpickles worker-side classes.  Order is preserved —
    the recorder appends parents before children, which
    :func:`stitch_snapshot` relies on when remapping ids.
    """
    return tuple(
        {
            "id": sp.id,
            "name": sp.name,
            "start_s": sp.start_s,
            "end_s": sp.end_s,
            "parent": sp.parent,
            "attrs": dict(sp.attrs),
        }
        for sp in recorder.spans
    )


def stitch_snapshot(telemetry, snapshot, worker: int | None = None) -> list[RemoteSpan]:
    """Graft a worker snapshot's spans into ``telemetry.remote_spans``.

    Re-identifies every span (fresh ids from the coordinator's remote
    allocator), re-parents worker roots onto the dispatching span named
    by the snapshot's context (only when the snapshot belongs to this
    telemetry's trace — foreign snapshots stitch as unparented lanes),
    and re-bases timestamps onto the coordinator's perf clock via the
    paired epoch/perf anchors.  Returns the grafted spans; a snapshot
    without spans is a cheap no-op.
    """
    if not snapshot.spans:
        return []
    parent_local = (
        snapshot.parent_span_id
        if snapshot.trace_id and snapshot.trace_id == telemetry.trace_id
        else None
    )
    # worker perf -> epoch -> coordinator perf (see module docstring)
    shift = (
        (snapshot.epoch_anchor_s - snapshot.perf_anchor_s)
        + (telemetry.perf_anchor_s - telemetry.epoch_anchor_s)
    )
    id_map: dict[int, int] = {}
    grafted: list[RemoteSpan] = []
    for record in snapshot.spans:
        new_id = telemetry.allocate_remote_id()
        id_map[record["id"]] = new_id
        parent = record.get("parent")
        end_s = record.get("end_s")
        grafted.append(
            RemoteSpan(
                id=new_id,
                name=record["name"],
                start_s=record["start_s"] + shift,
                end_s=None if end_s is None else end_s + shift,
                parent=id_map[parent] if parent is not None else parent_local,
                attrs=dict(record.get("attrs") or {}),
                pid=snapshot.pid,
                worker=worker,
            )
        )
    telemetry.remote_spans.extend(grafted)
    return grafted
