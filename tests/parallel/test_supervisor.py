"""Supervisor behavior: death detection, respawn, retry, quarantine, fallback.

These tests spawn real worker processes and really SIGKILL them, so the
module is marked slow like the rest of the parallel suite.  Task
functions live at module level (spawn workers import this module by
name, like ``test_pool``).
"""

import os
import signal
import time

import pytest

from repro.obs import Telemetry
from repro.parallel import (
    SupervisionStats,
    Supervisor,
    SupervisorConfig,
    TaskFailed,
    TaskQuarantined,
    fan_out,
)
from repro.simulate import RetryPolicy

pytestmark = pytest.mark.slow  # spawns real worker processes


def square(x):
    return x * x


def die_on_three(x):
    """Poison task: kills every worker it lands on."""
    if x == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 10


def boom_on_odd(x):
    if x % 2:
        raise ValueError(f"odd input {x}")
    return x


def stop_once(payload):
    """SIGSTOP this worker the first time; a retry completes normally."""
    path, value = payload
    if not os.path.exists(path):
        open(path, "w").close()
        os.kill(os.getpid(), signal.SIGSTOP)
    return value


def slow_echo(x):
    time.sleep(0.05)
    return x


def sleep_for(seconds):
    time.sleep(seconds)
    return seconds


class TestHealthyRuns:
    def test_run_returns_values_in_task_order(self):
        with Supervisor(3) as sup:
            report = sup.run(square, list(range(10)))
        assert report.ok
        assert report.values == [i * i for i in range(10)]
        assert report.stats.respawns == 0 and report.stats.retries == 0

    def test_map_matches_pool_contract(self):
        with Supervisor(2) as sup:
            assert sup.map(square, [3, 4, 5]) == [9, 16, 25]

    def test_task_exceptions_raise_with_all_indices(self):
        with Supervisor(2) as sup:
            with pytest.raises(TaskFailed) as err:
                sup.map(boom_on_odd, list(range(6)))
        assert err.value.index == 1
        assert err.value.indices == [1, 3, 5]
        assert set(err.value.failures) == {1, 3, 5}
        assert "odd input 3" in str(err.value)

    def test_empty_payloads(self):
        with Supervisor(2) as sup:
            assert sup.run(square, []).values == []


class TestKillAndRespawn:
    def test_injected_kill_respawns_and_retries(self):
        telemetry = Telemetry()
        with Supervisor(4, telemetry=telemetry) as sup:
            report = sup.run(square, list(range(12)), inject_kill={5})
        assert report.ok
        assert report.values == [i * i for i in range(12)]
        assert report.stats.respawns == 1
        assert report.stats.retries == 1
        assert report.stats.backoff_s > 0  # accounted, never slept
        assert telemetry.metrics.counter("pool.worker.respawned").value == 1
        assert telemetry.metrics.counter("pool.task.retried").value == 1

    def test_recovery_emits_respawn_and_retry_frames(self):
        frames = []
        with Supervisor(2) as sup:
            report = sup.run(
                square, list(range(6)), inject_kill={2},
                on_frame=lambda wid, f: frames.append(f),
                stream_interval_s=0.05,
            )
        assert report.ok
        kinds = {f["kind"] for f in frames}
        assert "worker_respawned" in kinds
        assert "task_retried" in kinds

    def test_workers_survive_for_later_runs(self):
        with Supervisor(2) as sup:
            first = sup.run(square, list(range(4)), inject_kill={1})
            second = sup.run(square, list(range(4)))
        assert first.ok and second.ok
        assert second.stats.respawns == 0

    def test_multiple_kills_across_workers(self):
        with Supervisor(4) as sup:
            report = sup.run(square, list(range(16)), inject_kill={2, 5, 11})
        assert report.ok
        assert report.values == [i * i for i in range(16)]
        assert report.stats.respawns == 3
        assert report.stats.retries == 3


class TestQuarantine:
    def test_poison_task_is_quarantined_not_fatal(self):
        telemetry = Telemetry()
        with Supervisor(2, telemetry=telemetry) as sup:
            report = sup.run(die_on_three, list(range(6)))
        assert report.values[3] is None
        assert [report.values[i] for i in (0, 1, 2, 4, 5)] == [0, 10, 20, 40, 50]
        assert len(report.quarantined) == 1
        q = report.quarantined[0]
        assert isinstance(q, TaskQuarantined)
        assert q.index == 3
        assert q.workers_killed == 2  # the default poison threshold
        assert "poison" in q.reason
        assert telemetry.metrics.counter("pool.task.quarantined").value == 1

    def test_map_raises_on_quarantine(self):
        with Supervisor(2) as sup:
            with pytest.raises(TaskFailed) as err:
                sup.map(die_on_three, list(range(6)))
        assert err.value.index == 3
        assert "quarantined" in str(err.value)

    def test_retry_budget_exhaustion_quarantines(self):
        config = SupervisorConfig(
            retry=RetryPolicy(max_attempts=1), poison_kills=99
        )
        with Supervisor(2, config=config) as sup:
            report = sup.run(die_on_three, list(range(6)))
        assert len(report.quarantined) == 1
        assert "retry budget exhausted" in report.quarantined[0].reason


class TestGracefulDegradation:
    def test_in_process_fallback_when_respawn_budget_spent(self):
        config = SupervisorConfig(max_respawns=0)
        with Supervisor(1, config=config) as sup:
            report = sup.run(die_on_three, list(range(6)))
        # The killer task is quarantined (never risked in-process); the
        # rest of the shard completes serially in the coordinator.
        assert report.stats.respawns == 0
        assert report.stats.inprocess >= 1
        assert len(report.quarantined) == 1
        assert report.quarantined[0].index == 3
        assert "refusing in-process retry" in report.quarantined[0].reason
        assert [report.values[i] for i in (0, 1, 2, 4, 5)] == [0, 10, 20, 40, 50]

    def test_survivors_absorb_a_dead_slot(self):
        config = SupervisorConfig(max_respawns=0)
        with Supervisor(3, config=config) as sup:
            report = sup.run(square, list(range(9)), inject_kill={4})
            # Slot 1 died and cannot respawn; workers 0 and 2 absorb its
            # remaining tasks, so everything still completes correctly.
            assert len(sup.live_slots()) == 2
        assert report.values == [i * i for i in range(9)]
        assert report.stats.respawns == 0

    def test_workers_n_never_less_reliable_than_serial(self):
        # Same poison workload, any worker count: the run completes and
        # quarantines exactly the poison task.
        for workers in (1, 2, 4):
            with Supervisor(workers) as sup:
                report = sup.run(die_on_three, list(range(6)))
            assert [report.values[i] for i in (0, 1, 2, 4, 5)] == [
                0, 10, 20, 40, 50,
            ], f"workers={workers}"
            assert {q.index for q in report.quarantined} == {3}


class TestStallEscalation:
    def test_frozen_worker_is_killed_and_task_retried(self, tmp_path):
        frames = []
        config = SupervisorConfig(stall_kill_intervals=8)
        flag = str(tmp_path / "stopped-once")
        with Supervisor(2, config=config) as sup:
            report = sup.run(
                stop_once,
                [(flag, i) for i in range(4)],
                on_frame=lambda wid, f: frames.append(f),
                stream_interval_s=0.05,
            )
        # One worker froze (SIGSTOP), was flagged, then killed past the
        # stall budget; the retry ran clean because the flag file exists.
        assert report.ok
        assert report.values == [0, 1, 2, 3]
        assert report.stats.stall_kills >= 1
        assert report.stats.respawns >= 1
        kinds = [f["kind"] for f in frames]
        assert "heartbeat_missed" in kinds
        assert "worker_respawned" in kinds


class TestStopOnResult:
    """Cancel-on-win: ``on_result`` returning True ends the run early."""

    def test_stopped_run_counts_nothing_and_the_pool_runs_again(self):
        with Supervisor(2) as sup:
            before = sup.pids
            t0 = time.monotonic()
            report = sup.run(
                sleep_for, [0.0, 30.0, 30.0, 30.0], on_result=lambda i, v: i == 0
            )
            assert time.monotonic() - t0 < 15.0  # the sleepers were cut off
            assert report.values == [0.0, None, None, None]
            assert report.ok
            assert report.stats == SupervisionStats()
            # Both slots still held tasks, so both were terminated; the
            # next run starts them again and completes normally.
            second = sup.run(square, list(range(6)))
            assert second.values == [i * i for i in range(6)]
            assert second.stats == SupervisionStats()
            assert all(p > 0 for p in sup.pids) and set(sup.pids).isdisjoint(before)
            t_close = time.monotonic()
        assert time.monotonic() - t_close < 5.0

    def test_in_process_fan_out_honours_the_stop(self):
        report = fan_out(square, [1, 2, 3], workers=1, on_result=lambda i, v: i == 1)
        assert report.values == [1, 4, None]


class TestLifecycle:
    def test_closed_supervisor_refuses_runs(self):
        sup = Supervisor(2)
        sup.close()
        with pytest.raises(RuntimeError):
            sup.run(square, [1])

    def test_close_is_idempotent(self):
        sup = Supervisor(2)
        sup.close()
        sup.close()

    def test_pids_track_slots(self):
        with Supervisor(2) as sup:
            pids = sup.pids
            assert len(pids) == 2 and all(p > 0 for p in pids)


class TestFanOut:
    def test_one_worker_runs_in_process_with_worker_zero_frames(self):
        frames, landed = [], []
        report = fan_out(
            square, [1, 2, 3], workers=1,
            on_frame=lambda wid, f: frames.append((wid, f["kind"], f["task"])),
            on_result=lambda i, v: landed.append((i, v)),
        )
        assert report.values == [1, 4, 9]
        assert report.slots == [None, None, None]
        assert landed == [(0, 1), (1, 4), (2, 9)]
        assert frames == [
            (0, kind, task) for task in range(3) for kind in ("task_start", "task_end")
        ]

    def test_pooled_results_carry_the_slot_that_returned_them(self):
        with Supervisor(2) as sup:
            report = fan_out(square, list(range(6)), pool=sup)
        assert report.values == [i * i for i in range(6)]
        assert report.slots == [i % 2 for i in range(6)]

    def test_task_failure_raises_but_quarantine_is_reported(self):
        with pytest.raises(TaskFailed):
            fan_out(boom_on_odd, [0, 1], workers=2)
        report = fan_out(die_on_three, [1, 3], workers=2)
        assert report.values[0] == 10
        assert [q.index for q in report.quarantined] == [1]
