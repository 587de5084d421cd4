"""The streaming runner protocol shared by every execution environment."""

from __future__ import annotations

import threading

from repro.par.cells import CellResult, CellTask
from repro.par.stealing import StealScheduler

#: Error carried by every cell a closing runner did not finish.
SHUT_DOWN = "executor shut down"


class Runner:
    """Execute cells as tickets: ``submit`` now, ``wait``/``poll`` later.

    The contract every environment's runner honours:

    * **tickets** — :meth:`submit` returns a ticket at once; the cell's
      :class:`CellResult` is handed over exactly once, by :meth:`wait`
      or by a :meth:`poll` that finds it done;
    * **order** — :meth:`run` submits a batch and waits on each ticket
      in submit order, so results come back in task-list order
      whatever order the cells finish in;
    * **failure shape** — a cell that raises, crashes its worker,
      stalls, or cannot be dispatched yields a failed result for its
      ticket; sibling cells are untouched and the runner keeps serving;
    * **purity** — runners never mutate tasks; a cell's output depends
      on its task alone, which is what makes environments digest-
      interchangeable.

    Queued tickets wait in a :class:`StealScheduler`, dealt by ticket
    number across ``workers`` deques.  :meth:`close` fails every cell
    that has not finished and releases what the runner owns (worker
    threads, the dispatcher); a pool it borrows outlives it.
    """

    #: Environment name this runner was built for (diagnostics).
    env_name: str = "?"

    def __init__(self, workers: int = 1, trace_dir: str | None = None):
        self.workers = workers
        self.trace_dir = trace_dir
        # Re-entrant: the inline runner delivers from inside submit.
        self._lock = threading.RLock()
        self._scheduler = StealScheduler(0, workers)
        #: Tickets accepted but not yet started.
        self._tasks: dict[int, CellTask] = {}
        self._events: dict[int, threading.Event] = {}
        self._done: dict[int, CellResult] = {}
        self._next_ticket = 0
        self._closed = False
        self.submitted = 0
        self.completed = 0

    # -- tickets -----------------------------------------------------------

    def submit(self, task: CellTask) -> int:
        """Queue one cell; returns a ticket for :meth:`wait`/:meth:`poll`."""
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is shut down")
            ticket = self._next_ticket
            self._next_ticket += 1
            self._events[ticket] = threading.Event()
            self.submitted += 1
            self._enqueue(ticket, task)
        return ticket

    def poll(self, ticket: int) -> CellResult | None:
        """The cell's result if it finished, else ``None`` (never blocks).
        A returned result is handed over: the ticket is retired."""
        with self._lock:
            result = self._done.pop(ticket, None)
            if result is not None:
                self._events.pop(ticket, None)
            return result

    def wait(self, ticket: int,
             timeout: float | None = None) -> CellResult | None:
        """Block until the cell finishes; ``None`` only on timeout."""
        event = self._events.get(ticket)
        if event is not None and not event.wait(timeout):
            return None
        return self.poll(ticket)

    def run(self, tasks: list[CellTask]) -> list[CellResult]:
        """Execute every task; return results in task-list order."""
        self._batch_started()
        tickets = [self.submit(task) for task in tasks]
        return [self.wait(ticket) for ticket in tickets]

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self.submitted - self.completed

    @property
    def queued(self) -> int:
        """Cells accepted but not yet started."""
        with self._lock:
            return len(self._tasks)

    # -- the environment side ----------------------------------------------

    def _batch_started(self) -> None:
        """:meth:`run` is about to submit a batch."""

    def _enqueue(self, ticket: int, task: CellTask) -> None:
        """Hand a new ticket to the workers (called under the lock)."""
        self._tasks[ticket] = task
        self._scheduler.push(ticket)

    def _next(self, worker: int) -> tuple[int, CellTask] | None:
        """Worker ``worker``'s next ticket and task (under the lock)."""
        ticket = self._scheduler.next_for(worker)
        if ticket is None:
            return None
        return ticket, self._tasks.pop(ticket)

    def _deliver(self, ticket: int, result: CellResult) -> None:
        """Settle a ticket; a ticket already settled (failed by
        :meth:`close`) keeps its first result."""
        with self._lock:
            event = self._events.get(ticket)
            if event is None or event.is_set():
                return
            self._done[ticket] = result
            self.completed += 1
            event.set()

    def _fail_queued(self) -> None:
        """Fail every ticket not yet started (under the lock)."""
        for ticket, task in self._tasks.items():
            self._deliver(ticket, CellResult(index=task.index, ok=False,
                                             error=SHUT_DOWN))
        self._tasks.clear()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop accepting cells and fail the unfinished ones
        (idempotent)."""
        with self._lock:
            self._closed = True
            self._fail_queued()

    def stats(self) -> dict:
        """Plain-data diagnostics (never part of any digest)."""
        return {"environment": self.env_name, "jobs": self.workers,
                "scheduler": self._scheduler.stats()}
