"""Portfolio racing for the graceful-degradation ladder.

Sequential :func:`~repro.planner.solve_robust` walks the ladder rung by
rung, slicing the time budget between attempts (half to the full solve,
most of the rest to the coarsened retry, the remainder to greedy).  With
``workers > 1`` the rungs *race* instead: each rung runs in its own
spawn-started process with the **whole** remaining budget, and the walk
returns as soon as the best rung that can still win has resolved.

Acceptance policy (this is what keeps racing a pure wall-clock
optimization): a finished rung's plan is accepted only once every
higher-priority rung has failed — a greedy plan arriving first never
preempts a full solve that is still running.  The payoff is that losing
rungs stop costing wall clock: the ladder's worst case drops from the
*sum* of the rung budgets to the *maximum* of them, and a full solve
that would have been cut short by its sequential half-budget slice gets
the entire window (so racing may legitimately return a *better* rung
than the sequential walk — the outcome records which).

Failures keep ladder semantics: :class:`~repro.planner.Unsolvable` and
:class:`~repro.planner.ResourceInfeasible` from any rung abort the whole
race (no rung below can fix either), and rungs still running when the
winner is accepted are terminated and recorded as ``cancelled``.  A rung
whose process dies *silently* (OOM kill, stray signal) is relaunched
once with the remaining budget before being recorded as ``crashed`` —
the racing mode's slice of the supervision story (docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass, replace

from ..model import AppSpec, Leveling
from ..network import Network
from ..obs.context import TraceContext
from .envelope import MetricsSnapshot, PlanEnvelope
from .supervisor import START_METHOD

__all__ = ["RungJob", "RungOutcome", "race_rungs"]

_POLL_S = 0.02
_GRACE_S = 2.0  # extra wall clock allowed past the budget for self-deadlines


@dataclass(frozen=True)
class RungJob:
    """One racing rung: its name, leveling, and planner configuration."""

    rung: str
    app: AppSpec
    network: Network
    leveling: Leveling | None
    config: object  # PlannerConfig with telemetry stripped
    with_metrics: bool = False
    trace: TraceContext | None = None


@dataclass
class RungOutcome:
    """How one racing rung ended."""

    rung: str
    status: str  # 'ok' | 'error' | 'cancelled' | 'crashed'
    plan: PlanEnvelope | None = None
    error_type: str = ""
    detail: str = ""
    elapsed_s: float = 0.0
    metrics: MetricsSnapshot | None = None


def _race_child(job: RungJob, queue) -> None:
    """Run one rung to completion and report through the queue."""
    from ..obs import Telemetry
    from ..planner.errors import ResourceInfeasible, SearchBudgetExceeded, Unsolvable
    from ..planner.planner import Planner

    telemetry = Telemetry(context=job.trace) if job.with_metrics else None
    config = replace(job.config, leveling=job.leveling, telemetry=telemetry)
    t0 = time.perf_counter()
    try:
        plan = Planner(config).solve(job.app, job.network)
    except (SearchBudgetExceeded, Unsolvable, ResourceInfeasible) as exc:
        queue.put(
            RungOutcome(
                rung=job.rung,
                status="error",
                error_type=type(exc).__name__,
                detail=str(exc).splitlines()[0],
                elapsed_s=time.perf_counter() - t0,
                metrics=MetricsSnapshot.from_telemetry(telemetry),
            )
        )
        return
    queue.put(
        RungOutcome(
            rung=job.rung,
            status="ok",
            plan=PlanEnvelope.from_plan(plan),
            detail=f"{len(plan.actions)} actions, cost lower bound {plan.cost_lb:g}"
            + (" (incumbent)" if plan.incumbent else ""),
            elapsed_s=time.perf_counter() - t0,
            metrics=MetricsSnapshot.from_telemetry(telemetry),
        )
    )


def race_rungs(
    jobs: list[RungJob],
    workers: int,
    time_limit_s: float | None = None,
) -> tuple[RungOutcome | None, list[RungOutcome]]:
    """Race ladder rungs across processes; return (winner, all outcomes).

    ``jobs`` must be in priority order (best rung first).  At most
    ``workers`` processes run at once; pending rungs launch as slots
    free up.  The winner is the highest-priority rung that succeeded,
    accepted as soon as every better rung has failed.  Outcomes are
    returned in priority order and include cancelled/unstarted rungs.

    The race itself never raises planner errors — a rung that fails with
    ``Unsolvable``/``ResourceInfeasible`` aborts the race (ladder
    semantics: no lower rung can fix those), which surfaces as
    ``winner=None`` with the failing rung's outcome carrying the error.
    """
    ctx = mp.get_context(START_METHOD)
    queue = ctx.SimpleQueue()
    outcomes: dict[str, RungOutcome] = {}
    procs: dict[str, mp.process.BaseProcess] = {}
    pending = list(jobs)
    jobs_by_rung = {job.rung: job for job in jobs}
    relaunched: set[str] = set()
    deadline = (
        time.monotonic() + time_limit_s + _GRACE_S if time_limit_s is not None else None
    )
    priority = [job.rung for job in jobs]

    def launch_available() -> None:
        while pending and len(procs) < max(workers, 1):
            job = pending.pop(0)
            proc = ctx.Process(
                target=_race_child, args=(job, queue), name=f"repro-race-{job.rung}"
            )
            proc.start()
            procs[job.rung] = proc

    def resolved(rung: str) -> bool:
        return rung in outcomes

    def decide() -> RungOutcome | None:
        """The winner, if one can be accepted already."""
        for rung in priority:
            if not resolved(rung):
                return None  # a better rung is still running/pending
            outcome = outcomes[rung]
            if outcome.status == "ok":
                return outcome
            # failed → the next rung down may win
        return None

    def abort(reason: str) -> None:
        for rung, proc in procs.items():
            if proc.is_alive():
                proc.terminate()
            proc.join()
            if not resolved(rung):
                outcomes[rung] = RungOutcome(rung=rung, status="cancelled", detail=reason)
        procs.clear()
        for job in pending:
            outcomes[job.rung] = RungOutcome(
                rung=job.rung, status="cancelled", detail=reason
            )
        pending.clear()

    launch_available()
    winner: RungOutcome | None = None
    fatal = False
    while procs or pending:
        if not queue.empty():
            outcome: RungOutcome = queue.get()
            outcomes[outcome.rung] = outcome
            proc = procs.pop(outcome.rung, None)
            if proc is not None:
                proc.join()
            if outcome.status == "error" and outcome.error_type in (
                "Unsolvable",
                "ResourceInfeasible",
            ):
                fatal = True
                abort(f"aborted: {outcome.rung} is {outcome.error_type}")
                break
            winner = decide()
            if winner is not None:
                abort(f"lost race to {winner.rung}")
                break
            launch_available()
            continue
        # Reap silent crashes (a terminated/killed child posts nothing).
        crashed = [r for r, p in procs.items() if not p.is_alive() and queue.empty()]
        for rung in crashed:
            proc = procs.pop(rung)
            proc.join()
            if resolved(rung):
                continue
            if rung not in relaunched:
                # One supervised relaunch per rung: a transient death
                # (OOM kill, stray signal) should not forfeit the race.
                relaunched.add(rung)
                pending.insert(0, jobs_by_rung[rung])
                continue
            outcomes[rung] = RungOutcome(
                rung=rung,
                status="crashed",
                error_type="WorkerCrashed",
                detail=(
                    f"rung process exited with code {proc.exitcode} "
                    "(crashed again after one relaunch)"
                ),
            )
        if crashed:
            launch_available()
            continue
        if deadline is not None and time.monotonic() > deadline:
            abort("race deadline expired")
            break
        time.sleep(_POLL_S)

    if winner is None and not fatal:
        winner = decide() or next(
            (
                outcomes[r]
                for r in priority
                if r in outcomes and outcomes[r].status == "ok"
            ),
            None,
        )
    ordered = [
        outcomes.get(rung, RungOutcome(rung=rung, status="cancelled", detail="not run"))
        for rung in priority
    ]
    return winner, ordered
