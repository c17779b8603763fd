"""The graceful-degradation ladder (docs/ROBUSTNESS.md).

:func:`solve_robust` keeps producing deployment plans when the planner is
under time pressure or its search budgets are too small, by walking a
ladder of progressively cheaper configurations:

1. **full** — the leveled planner, run to optimality.
2. **anytime** — the same run's best-so-far *incumbent* complete plan,
   returned when the deadline or node budget cuts the search short
   (rungs 1 and 2 share one search; see ``PlannerConfig.anytime``).
3. **coarsened** — a retry with every level spec halved
   (:func:`coarsen_leveling`): fewer levels mean fewer ground actions,
   so compilation and search both shrink, at the price of plan quality.
4. **greedy** — the original greedy Sekitei (trivial leveling), the
   paper's Scenario A baseline: fast, worst-case-feasible, never optimal.

Every rung validates its plan with the exact executor (the planner's
``validate`` default), so whatever the ladder returns is a *correct*
deployment — only optimality degrades.

One ladder serves both modes: the rung list (:func:`_ladder`), one rung
runner (:func:`_run_rung`) and one acceptance rule (:func:`_accept`),
applied in priority order — an ``ok`` rung wins; a fatal verdict ends the
walk with no plan (:class:`Unsolvable` is a logical gap and
:class:`ResourceInfeasible` only gets worse as levels coarsen, since
coarser intervals raise worst-case consumption); any other failure passes
to the next rung; an unresolved rung means wait.  The sequential walk
(``workers=1``) runs the rungs in turn, in this process; the race
(``workers > 1``) runs them at once through :func:`repro.parallel.fan_out`
and ends the run as soon as the rule decides, terminating the rungs still
running.  Racing therefore changes wall clock, never the verdict's rule.

The returned :class:`SolveOutcome` names the rung that produced the plan
and records why every earlier rung failed.  With telemetry attached, the
walk increments ``robust.attempt.<rung>`` per attempt
(``robust.cancelled.<rung>`` for a raced rung stopped early),
``robust.fallback.<rung>`` for the winning rung, and ``robust.failed``
when no rung succeeds; each attempt runs under a ``robust.rung`` span,
raced ones under one ``robust.race``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

from ..model import AppSpec, Leveling, LevelSpec
from ..network import Network
from ..obs import Telemetry, TraceContext, maybe_span
from .deadline import Deadline
from .errors import ResourceInfeasible, SearchBudgetExceeded, Unsolvable
from .plan import Plan
from .planner import Planner, PlannerConfig

__all__ = [
    "RUNGS",
    "RungAttempt",
    "SolveOutcome",
    "coarsen_leveling",
    "solve_robust",
]

RUNGS = ("full", "anytime", "coarsened", "greedy")
"""Ladder rungs, best to worst (``full``/``anytime`` share one search)."""

# Share of the time budget the first (full/anytime) attempt may spend; the
# coarsened retry gets this share of whatever remains, and the greedy rung
# everything left.  Unused time rolls down the ladder automatically.
_FIRST_SHARE = 0.5
_COARSE_SHARE = 0.6
_MIN_SLICE_S = 1e-3

_FATAL = ("Unsolvable", "ResourceInfeasible")
"""Verdicts no lower rung can fix: they end the walk with no plan."""


@dataclass
class RungAttempt:
    """One rung of the ladder: what was tried and how it went."""

    rung: str
    succeeded: bool
    detail: str = ""
    error_type: str = ""
    elapsed_s: float = 0.0

    def describe(self) -> str:
        status = "ok" if self.succeeded else f"failed ({self.error_type})"
        line = f"{self.rung}: {status} in {self.elapsed_s:.3f}s"
        if self.detail:
            line += f" — {self.detail}"
        return line


@dataclass
class SolveOutcome:
    """Result of a ladder walk: the plan (if any) and the full history."""

    plan: Plan | None
    rung: str = ""
    attempts: list[RungAttempt] = field(default_factory=list)

    @property
    def solved(self) -> bool:
        return self.plan is not None

    @property
    def degraded(self) -> bool:
        """True when a rung below ``full`` produced the plan."""
        return self.solved and self.rung != "full"

    def describe(self) -> str:
        lines = [a.describe() for a in self.attempts]
        if self.solved:
            lines.append(
                f"=> plan from rung '{self.rung}': {len(self.plan)} actions, "
                f"cost lower bound {self.plan.cost_lb:g}"
            )
        else:
            lines.append("=> no plan from any rung")
        return "\n".join(lines)


def coarsen_leveling(leveling: Leveling) -> Leveling | None:
    """A cheaper leveling: every spec keeps every other cutpoint.

    The highest cutpoint always survives (it caps utilization, which is
    what keeps resource-constrained instances feasible at all); specs with
    a single cutpoint are unchanged.  Returns ``None`` when nothing can be
    coarsened — the caller should skip the rung rather than re-solve an
    identical problem.
    """
    specs: dict[str, LevelSpec] = {}
    changed = False
    for var, spec in leveling.specs.items():
        cuts = spec.cutpoints
        if len(cuts) <= 1:
            specs[var] = spec
            continue
        kept = tuple(reversed(cuts[::-1][::2]))
        specs[var] = LevelSpec(kept)
        changed = True
    if not changed:
        return None
    return Leveling(specs, name=f"{leveling.name}-coarse")


def solve_robust(
    app: AppSpec,
    network: Network,
    leveling: Leveling | None = None,
    *,
    config: PlannerConfig | None = None,
    time_limit_s: float | None = None,
    telemetry: Telemetry | None = None,
    workers: int = 1,
) -> SolveOutcome:
    """Walk the degradation ladder until some rung produces a valid plan.

    Parameters
    ----------
    config:
        Base planner configuration; the ladder overrides ``leveling``,
        ``time_limit_s``, ``anytime``, and ``telemetry`` per rung and
        leaves everything else (budgets, heuristic, validation) alone.
    time_limit_s:
        Total wall-clock budget for the *whole walk* (overrides
        ``config.time_limit_s``).  The first attempt gets half, the
        coarsened retry most of the remainder, the greedy rung the rest;
        a rung that finishes early donates its leftover time down the
        ladder.  ``None`` means no deadline — lower rungs then only fire
        on node-budget exhaustion.
    telemetry:
        Metrics sink for the ``robust.*`` counters (overrides
        ``config.telemetry``).
    workers:
        ``1`` (the default) walks the ladder sequentially in this
        process.  ``> 1`` races the rungs in that many worker processes
        instead: every rung gets the *whole* time budget, bounded by its
        own planner deadline, and the run ends once the acceptance rule
        decides, with the rungs still running recorded as ``Cancelled``.
        The rule is the sequential one, so the two modes differ only in
        wall clock and, under deadline pressure, in which rung wins
        (always recorded in ``SolveOutcome.rung``).

    Never raises :class:`~repro.planner.PlanningError` — an unsolvable
    walk is reported via ``SolveOutcome.plan is None``.  Configuration
    errors (:class:`~repro.model.SpecError`, ``ValueError``) and executor
    bugs (:class:`~repro.planner.ExecutionError`) still propagate (from a
    raced rung, as :class:`~repro.parallel.TaskFailed`).
    """
    base = config or PlannerConfig()
    leveling = leveling if leveling is not None else base.leveling
    telemetry = telemetry if telemetry is not None else base.telemetry
    if time_limit_s is None:
        time_limit_s = base.time_limit_s
    # Every rung runs in anytime mode, so the full rung degrades to its own
    # incumbent exactly as rung 2 does.
    config = replace(base, anytime=True, telemetry=telemetry)
    rungs = _ladder(leveling)
    if workers > 1:
        attempts, winner, plan = _race(app, network, rungs, config, time_limit_s, workers)
    else:
        attempts, winner, plan = _walk(app, network, rungs, config, time_limit_s)
    outcome = SolveOutcome(plan=plan, attempts=attempts)
    metrics = telemetry.metrics if telemetry is not None else None
    if plan is None:
        if metrics is not None:
            metrics.inc("robust.failed")
        return outcome
    outcome.rung = "anytime" if winner == "full" and plan.incumbent else winner
    if metrics is not None:
        metrics.inc(f"robust.fallback.{outcome.rung}")
    return outcome


@dataclass(frozen=True)
class _Rung:
    """One ladder rung: its name, leveling, and sequential budget share."""

    name: str
    leveling: Leveling | None
    share: float
    """Share of the walk's remaining time the sequential walk gives it."""


def _ladder(leveling: Leveling | None) -> list[_Rung]:
    """The rungs in priority order (coarsened only when levels coarsen)."""
    rungs = [_Rung("full", leveling, _FIRST_SHARE)]
    coarse = coarsen_leveling(leveling) if leveling is not None else None
    if coarse is not None:
        rungs.append(_Rung("coarsened", coarse, _COARSE_SHARE))
    rungs.append(_Rung("greedy", Leveling({}, name="greedy-trivial"), 1.0))
    return rungs


def _accept(attempts: Sequence[RungAttempt | None]) -> tuple[bool, int | None]:
    """The ladder's acceptance rule over attempts in priority order.

    ``attempts[i]`` is rung ``i``'s attempt, ``None`` while unresolved.
    Returns ``(decided, winner)``: the first ``ok`` rung wins; a fatal
    verdict decides with no winner; any other failure passes to the next
    rung; an unresolved rung leaves it undecided — a lower rung's verdict
    never preempts a higher rung still running.  Past the last rung the
    walk is decided with no winner.
    """
    for index, attempt in enumerate(attempts):
        if attempt is None:
            return False, None
        if attempt.succeeded:
            return True, index
        if attempt.error_type in _FATAL:
            return True, None
    return True, None


def _run_rung(
    rung: str, app: AppSpec, network: Network, config: PlannerConfig
) -> tuple[RungAttempt, Plan | None]:
    """Run one rung (``config`` carries its leveling and time limit).

    Planner verdicts come back as a failed attempt, never raised; with
    telemetry the attempt runs under a ``robust.rung`` span.
    """
    with maybe_span(config.telemetry, "robust.rung", rung=rung) as span:
        t0 = time.perf_counter()
        try:
            plan = Planner(config).solve(app, network)
        except (SearchBudgetExceeded, Unsolvable, ResourceInfeasible) as exc:
            plan = None
            attempt = RungAttempt(
                rung=rung,
                succeeded=False,
                detail=str(exc).splitlines()[0],
                error_type=type(exc).__name__,
                elapsed_s=time.perf_counter() - t0,
            )
        else:
            attempt = RungAttempt(
                rung=rung,
                succeeded=True,
                detail=f"{len(plan)} actions, cost lower bound {plan.cost_lb:g}"
                + (" (incumbent)" if plan.incumbent else ""),
                elapsed_s=time.perf_counter() - t0,
            )
        if span is not None:
            span.attrs["ok"] = attempt.succeeded
    return attempt, plan


def _walk(
    app: AppSpec,
    network: Network,
    rungs: list[_Rung],
    config: PlannerConfig,
    time_limit_s: float | None,
) -> tuple[list[RungAttempt], str, Plan | None]:
    """The sequential ladder: each rung in turn, with its share of what is left."""
    walk = Deadline.after(time_limit_s) if time_limit_s is not None else None
    metrics = config.telemetry.metrics if config.telemetry is not None else None
    attempts: list[RungAttempt | None] = [None] * len(rungs)
    for index, rung in enumerate(rungs):
        if metrics is not None:
            metrics.inc(f"robust.attempt.{rung.name}")
        limit = (
            None if walk is None
            else max(walk.remaining_s() * rung.share, _MIN_SLICE_S)
        )
        attempts[index], plan = _run_rung(
            rung.name, app, network,
            replace(config, leveling=rung.leveling, time_limit_s=limit),
        )
        decided, winner = _accept(attempts)
        if decided:
            break
    tried = [a for a in attempts if a is not None]
    if winner is None:
        return tried, "", None
    return tried, rungs[winner].name, plan


@dataclass(frozen=True)
class _RungTask:
    """One raced rung, as shipped to a worker process."""

    rung: str
    app: AppSpec
    network: Network
    config: PlannerConfig  # leveling and time limit set, telemetry stripped
    with_metrics: bool = False
    trace: TraceContext | None = None


@dataclass(frozen=True)
class _RungResult:
    """A raced rung's attempt, plan envelope and worker metrics."""

    attempt: RungAttempt
    plan: object  # PlanEnvelope | None
    metrics: object  # MetricsSnapshot


def _run_rung_task(task: _RungTask) -> _RungResult:
    """Worker side of the race: :func:`_run_rung`, shipped home as data."""
    from ..parallel.envelope import MetricsSnapshot, PlanEnvelope

    telemetry = Telemetry(context=task.trace) if task.with_metrics else None
    attempt, plan = _run_rung(
        task.rung, task.app, task.network, replace(task.config, telemetry=telemetry)
    )
    return _RungResult(
        attempt=attempt,
        plan=PlanEnvelope.from_plan(plan) if plan is not None else None,
        metrics=MetricsSnapshot.from_telemetry(telemetry),
    )


def _race(
    app: AppSpec,
    network: Network,
    rungs: list[_Rung],
    config: PlannerConfig,
    time_limit_s: float | None,
    workers: int,
) -> tuple[list[RungAttempt], str, Plan | None]:
    """Race the rungs through :func:`repro.parallel.fan_out` (``workers > 1``).

    Each rung runs in a worker with the whole time budget.  ``on_result``
    applies :func:`_accept` as results land and ends the run once it
    decides; unresolved rungs are recorded as ``Cancelled``, and a rung
    whose worker the supervisor quarantined as ``WorkerCrashed``.  The
    winner's plan travels home as a :class:`~repro.parallel.PlanEnvelope`
    and is rebound to a problem compiled here through the warm-start
    cache; only the winner's worker metrics are stitched and merged (the
    losers' work was cancelled, so counting it would misstate the cost of
    the returned plan).
    """
    from ..parallel import default_compile_cache, fan_out

    telemetry = config.telemetry
    metrics = telemetry.metrics if telemetry is not None else None
    child = replace(config, time_limit_s=time_limit_s, telemetry=None)
    attempts: list[RungAttempt | None] = [None] * len(rungs)

    def on_result(index: int, result: _RungResult) -> bool:
        attempts[index] = result.attempt
        return _accept(attempts)[0]

    with maybe_span(telemetry, "robust.race", workers=workers, rungs=len(rungs)):
        # Raced rungs inherit the dispatch span's context, so the
        # winner's remote spans stitch under it in the merged trace.
        trace = telemetry.current_context() if telemetry is not None else None
        tasks = [
            _RungTask(
                rung=rung.name,
                app=app,
                network=network,
                config=replace(child, leveling=rung.leveling),
                with_metrics=metrics is not None,
                trace=trace,
            )
            for rung in rungs
        ]
        report = fan_out(_run_rung_task, tasks, workers, on_result=on_result)
    for q in report.quarantined:
        attempts[q.index] = RungAttempt(
            rung=rungs[q.index].name, succeeded=False, detail=q.reason,
            error_type="WorkerCrashed",
        )
    _, winner = _accept(attempts)
    for index, rung in enumerate(rungs):
        if attempts[index] is None:
            attempts[index] = RungAttempt(
                rung=rung.name, succeeded=False, error_type="Cancelled",
                detail=f"lost race to {rungs[winner].name}" if winner is not None
                else "race ended by a fatal verdict",
            )
        if metrics is not None:
            error = attempts[index].error_type
            if error == "Cancelled":
                metrics.inc(f"robust.cancelled.{rung.name}")
            elif error != "WorkerCrashed":
                metrics.inc(f"robust.attempt.{rung.name}")
    if winner is None:
        return attempts, "", None

    rung = rungs[winner]
    result = report.values[winner]
    problem = default_compile_cache().compile(
        app, network, rung.leveling, metrics=metrics
    )
    plan = result.plan.restore(problem)
    if metrics is not None:
        telemetry.stitch_snapshot(result.metrics)
        result.metrics.merge_into(metrics)
    return attempts, rung.name, plan
