"""The worker-pool contract of :class:`~repro.parallel.Supervisor`.

Payload order, deterministic sharding, remote tracebacks and lifecycle
errors — the strict ``map`` surface every fan-out builds on.  Recovery
from worker deaths is covered by ``test_supervisor``.

Task functions live at module level (spawn pickles them by reference),
so the helpers here double as a check that the test package itself is
importable from a cold worker process — exactly what real task functions
must guarantee.
"""

import os

import pytest

from repro.parallel import Supervisor, TaskFailed, resolve_workers


# -- module-level task functions (spawn requirement) ---------------------------

def square(x):
    return x * x


def whoami(x):
    return (x, os.getpid())


def fail_on_odd(x):
    if x % 2 == 1:
        raise ValueError(f"odd input {x}")
    return x


class TestResolveWorkers:
    def test_serial_requests_stay_serial(self):
        assert resolve_workers(None, 10) == 1
        assert resolve_workers(1, 10) == 1
        assert resolve_workers(0, 10) == 1
        assert resolve_workers(-3, 10) == 1

    def test_clamped_to_task_count(self):
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(2, 3) == 2


class TestWorkerPool:
    """A :class:`Supervisor` used as a plain pool: no worker dies."""

    def test_map_preserves_payload_order(self):
        with Supervisor(2) as pool:
            assert pool.map(square, list(range(10))) == [x * x for x in range(10)]

    def test_deterministic_sharding(self):
        """Task i runs on worker i % W — the same worker every time."""
        with Supervisor(2) as pool:
            first = pool.map(whoami, list(range(6)))
            second = pool.map(whoami, list(range(6)))
        pids = {pid for _, pid in first}
        assert len(pids) == 2
        # identical task->pid assignment across repeated maps
        assert first == second
        # the i % W rule itself
        by_worker = {}
        for i, pid in first:
            by_worker.setdefault(i % 2, set()).add(pid)
        assert all(len(s) == 1 for s in by_worker.values())

    def test_task_failure_carries_remote_traceback(self):
        with Supervisor(2) as pool:
            with pytest.raises(TaskFailed) as err:
                pool.map(fail_on_odd, [0, 2, 3, 5])
            # lowest-index failure wins deterministically
            assert err.value.index == 2
            assert "odd input 3" in str(err.value)
            assert "remote traceback" in str(err.value)
            assert "ValueError" in err.value.remote_traceback
            # the pool survives a task failure
            assert pool.map(square, [4]) == [16]

    def test_closed_pool_refuses_work(self):
        pool = Supervisor(1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(square, [1])

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            Supervisor(0)

    def test_empty_payload_list(self):
        with Supervisor(2) as pool:
            assert pool.map(square, []) == []
