"""Process runner: the one dispatch loop over a persistent worker pool.

This is the default environment for ``jobs>1``, used by every sweep
(:func:`~repro.par.engine.run_cells`) and by the serve daemon's
:class:`~repro.par.engine.CellExecutor` alike:

* **warm workers** — cells are dispatched to a persistent
  :class:`~repro.par.pool.WorkerPool` instead of a fresh fork each, so
  consecutive sweeps amortise fork + import cost;
* **work stealing** — each worker slot owns a deque of tickets
  (``ticket % jobs``), and an idle slot steals half the busiest
  sibling's backlog, so one expensive shard cannot strand the rest of
  the pool;
* **shared-memory results** — large result payloads cross via
  ``multiprocessing.shared_memory`` instead of the pipe
  (:mod:`repro.par.transport`).

A dispatcher thread owns the loop.  It waits on a wake pipe (new
tickets, close), on worker pipes *and* on process sentinels, so a
worker that dies without reporting (SIGKILL, ``os._exit``, OOM) fails
only its cell and the pool respawns the slot back to target size.  An
optional stall budget converts a wedged worker (alive but silent) into
a failed cell plus a respawn, and a cell whose dispatch fails twice
fails alone; in every case the loop keeps serving.  The dispatcher
holds ``pool.lock`` only while it has cells queued or in flight, so
runners sharing a pool take turns and control-plane calls
(:meth:`~repro.par.pool.WorkerPool.call_all`) get in between batches.
"""

from __future__ import annotations

import os
import threading
import time
from multiprocessing import connection

from repro.par import transport
from repro.par.cells import CellResult, CellTask
from repro.par.pool import PoolWorker, WorkerPool
from repro.par.runners.base import SHUT_DOWN, Runner

#: Floor for the dispatcher's wait timeout while a stall budget is armed,
#: so a budget that just expired still polls promptly without spinning.
_MIN_WAIT_S = 0.05


class ProcessRunner(Runner):
    """Run cells on a (usually shared) pool of persistent workers."""

    env_name = "process"

    def __init__(self, pool: WorkerPool, trace_dir: str | None = None,
                 stall_timeout_s: float | None = None):
        super().__init__(pool.size, trace_dir)
        self.pool = pool
        self.stall_timeout_s = stall_timeout_s
        #: (read, write) ends of the wake pipe; ``None`` once closed.
        self._wake: tuple[int, int] | None = os.pipe()
        # A full pipe already holds a pending wake-up: never block on it.
        os.set_blocking(self._wake[1], False)
        self._thread = threading.Thread(target=self._dispatch_loop,
                                        args=(self._wake[0],),
                                        name="repro-dispatch", daemon=True)
        self._thread.start()

    def _batch_started(self) -> None:
        self.pool.batches += 1

    def _enqueue(self, ticket: int, task: CellTask) -> None:
        super()._enqueue(ticket, task)
        self._signal(self._wake[1])

    @staticmethod
    def _signal(wake_w: int) -> None:
        try:
            os.write(wake_w, b"x")
        except BlockingIOError:
            pass

    # -- the dispatch loop -------------------------------------------------

    def _dispatch_loop(self, wake_r: int) -> None:
        pool = self.pool
        # slot -> (ticket, task, the PoolWorker it went to)
        in_flight: dict[int, tuple[int, CellTask, PoolWorker]] = {}
        holding = False
        try:
            while True:
                with self._lock:
                    if self._closed:
                        break
                    queued = bool(self._tasks)
                if queued and not holding:
                    pool.lock.acquire()
                    holding = True
                if queued:
                    for slot in range(pool.size):
                        if slot not in in_flight:
                            self._feed(slot, in_flight)
                if holding and not in_flight:
                    pool.lock.release()
                    holding = False
                waitables = [wake_r]
                for _, _, worker in in_flight.values():
                    waitables += (worker.conn, worker.proc.sentinel)
                ready = set(connection.wait(
                    waitables, timeout=self._stall_budget(in_flight)))
                if wake_r in ready:
                    os.read(wake_r, 4096)
                now = time.monotonic()
                for slot in list(in_flight):
                    ticket, task, worker = in_flight[slot]
                    if worker.conn in ready or worker.proc.sentinel in ready:
                        result = self._harvest(task, worker, slot)
                    elif self._stalled(worker, now):
                        result = self._kill_stalled(task, worker, slot)
                    else:
                        continue
                    del in_flight[slot]
                    self._deliver(ticket, result)
        finally:
            # Closing (or a dispatcher bug): stop the cells still
            # running and fail everything unfinished — never hang.
            for ticket, task, worker in in_flight.values():
                if worker.proc.is_alive():
                    worker.proc.terminate()
                worker.proc.join(timeout=5.0)
                self._deliver(ticket, CellResult(
                    index=task.index, ok=False, error=SHUT_DOWN,
                    worker_pid=worker.pid))
            if holding:
                pool.lock.release()
            with self._lock:
                self._closed = True
                self._fail_queued()

    def _feed(self, slot: int, in_flight: dict) -> None:
        """Hand slot ``slot`` its next ticket, if the scheduler has one."""
        while True:
            with self._lock:
                entry = self._next(slot)
            if entry is None:
                return
            ticket, task = entry
            try:
                worker = self._dispatch(slot, ticket, task)
            except (BrokenPipeError, OSError) as exc:
                error = f"worker pipe failed twice ({exc})"
            except Exception as exc:  # e.g. a task that will not pickle
                error = f"{type(exc).__name__}: {exc}"
            else:
                in_flight[slot] = (ticket, task, worker)
                return
            # This cell fails alone; the slot moves on to its next one.
            self._deliver(ticket, CellResult(
                index=task.index, ok=False,
                error=f"cannot dispatch cell {task.index}: {error}"))

    def _dispatch(self, slot: int, ticket: int,
                  task: CellTask) -> PoolWorker:
        try:
            return self.pool.dispatch(slot, task, self.trace_dir,
                                      tag=ticket)
        except (BrokenPipeError, OSError):
            # The worker died between health check and send; replace
            # it and retry once — a second failure fails the cell.
            self.pool.respawn(slot)
            return self.pool.dispatch(slot, task, self.trace_dir,
                                      tag=ticket)

    # -- harvest -----------------------------------------------------------

    def _harvest(self, task: CellTask, worker: PoolWorker,
                 slot: int) -> CellResult:
        """Collect one result (or synthesise a death notice)."""
        result = None
        if worker.conn.poll():
            try:
                result = transport.recv_result(worker.conn.recv())
            except (EOFError, OSError):
                result = None
        if result is not None:
            self.pool.mark_idle(worker)
            return result
        # Sentinel fired with nothing in the pipe: the worker died
        # mid-cell.  Same failure shape as the fork-per-cell engine.
        worker.proc.join(timeout=5.0)
        result = CellResult(
            index=task.index, ok=False,
            error=(f"worker died before reporting "
                   f"(exit code {worker.proc.exitcode})"),
            worker_pid=worker.pid)
        self.pool.respawn(slot)
        return result

    # -- stalls ------------------------------------------------------------

    def _stalled(self, worker: PoolWorker, now: float) -> bool:
        return (self.stall_timeout_s is not None
                and now - worker.dispatched_at > self.stall_timeout_s)

    def _kill_stalled(self, task: CellTask, worker: PoolWorker,
                      slot: int) -> CellResult:
        self.pool.kill(slot, reason="stalled")
        self.pool.respawn(slot)
        return CellResult(
            index=task.index, ok=False,
            error=(f"worker stalled: no result within "
                   f"{self.stall_timeout_s:g}s; killed and respawned"),
            worker_pid=worker.pid)

    def _stall_budget(self, in_flight: dict) -> float | None:
        """The dispatcher's wait timeout: time until the first stall fires."""
        if self.stall_timeout_s is None or not in_flight:
            return None
        now = time.monotonic()
        deadline = min(worker.dispatched_at + self.stall_timeout_s
                       for _, _, worker in in_flight.values())
        return max(deadline - now, _MIN_WAIT_S)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop the dispatcher: running cells are terminated and every
        unfinished ticket fails.  The pool itself stays up."""
        with self._lock:
            self._closed = True
            wake, self._wake = self._wake, None
        if wake is None:
            return
        self._signal(wake[1])
        self._thread.join()
        os.close(wake[0])
        os.close(wake[1])

    def stats(self) -> dict:
        return {**super().stats(), "pool": self.pool.stats()}
