"""Thread runner: worker threads serving tickets from the steal scheduler.

Threads share the parent's interpreter, so this environment is the
cheap one: no fork, no pickling, and the parent's memo caches
(:func:`repro.experiments.runner.run_one`'s table) are visible to every
worker.  The cost is no crash isolation — a cell that takes down the
interpreter takes down the sweep — which is why the process environment
stays the default for ``jobs>1``.

Determinism is untouched by threading: the scheduler decides *which
thread* runs a cell, never *what the cell computes* (seeds derive from
the cell index), and results are handed back by ticket.  The GIL
serialises the pure-Python simulation work, so on CPython this
environment is about observing scheduler behaviour and cache sharing,
not wall-clock speedups.
"""

from __future__ import annotations

import threading

from repro.par.cells import CellResult, CellTask, execute_cell
from repro.par.runners.base import SHUT_DOWN, Runner


class ThreadRunner(Runner):
    """``jobs`` worker threads pulling tickets from per-worker deques."""

    env_name = "thread"

    def __init__(self, jobs: int, trace_dir: str | None = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        super().__init__(jobs, trace_dir)
        self._work = threading.Condition(self._lock)
        #: Tickets a worker thread is executing right now.
        self._running: dict[int, CellTask] = {}
        for index in range(jobs):
            threading.Thread(target=self._worker, args=(index,),
                             name=f"repro-cell-{index}",
                             daemon=True).start()

    def _enqueue(self, ticket: int, task: CellTask) -> None:
        super()._enqueue(ticket, task)
        # Any idle thread will do: an empty deque steals.
        self._work.notify()

    def _worker(self, index: int) -> None:
        while True:
            with self._work:
                while True:
                    if self._closed:
                        return
                    entry = self._next(index)
                    if entry is not None:
                        break
                    self._work.wait()
                ticket, task = entry
                self._running[ticket] = task
            result = execute_cell(task, self.trace_dir)
            with self._lock:
                del self._running[ticket]
                self._deliver(ticket, result)

    def close(self) -> None:
        # A running cell cannot be interrupted: its ticket fails now and
        # the thread drops the late result before it exits.
        with self._lock:
            for ticket, task in self._running.items():
                self._deliver(ticket, CellResult(
                    index=task.index, ok=False, error=SHUT_DOWN))
            super().close()
            self._work.notify_all()
