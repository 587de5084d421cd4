"""The parallel experiment engine: run sweep cells in any environment.

Every sweep in the repo — the fault matrix, the race sweep, the Figure 5
grid, table rows, the benchmark matrix — is a list of *cells*: pure
functions of their parameters (including an explicit seed) that return a
picklable result.  :func:`run_cells` executes such a list under a
pluggable :mod:`execution environment <repro.par.environment>` —
serial inline, worker threads, or a persistent work-stealing pool of
forked processes — with three guarantees that hold in *every*
environment:

* **determinism** — cell results are a function of the task list alone.
  Aggregated output is ordered by task position, never by completion
  order, and per-cell seeds come from
  :func:`repro.par.seeds.derive_cell_seed`, so worker count, scheduling
  and environment choice cannot leak into results.
* **crash isolation** (process environment) — a worker that dies
  (``os._exit``, segfault, OOM kill) fails *its* cell with a diagnostic
  :class:`CellResult` and leaves every sibling cell untouched; the pool
  respawns the worker back to target size.  The inline path mirrors
  this by catching per-cell exceptions, so every environment agrees on
  failure shape.
* **pickle-safe envelopes** — tasks carry a module-level callable plus
  plain-data kwargs; results carry plain data (value or error string).
  Anything unpicklable is converted to a failed cell, not a hung pool.

Observability composes: a task created with ``with_obs=True`` gets a
fresh :class:`repro.obs.ObsHub` injected as its ``obs`` kwarg, and the
worker writes the hub's trace as JSONL next to its siblings; the parent
merges the per-worker files into one stream with
:func:`merge_cell_traces` (ordered by cell index, like every other
aggregate).

:class:`CellExecutor` is the ticket-based face of the same machinery
for daemons (``repro serve``): cells arrive one at a time from many
client connections and share one persistent pool.  Both faces drive the
same streaming runner, so each environment has exactly one dispatch
loop.
"""

from __future__ import annotations

# Re-exported envelope API (the historical public surface of this
# module; sweeps and tests import these names from here).
from repro.par.cells import (
    CellResult,
    CellTask,
    ParallelCellError,
    execute_cell,
    merge_cell_traces,
    raise_failures,
)
from repro.par.environment import (
    ExecutionEnvironment,
    ProcessEnvironment,
    environment_for,
    resolve_environment,
)
from repro.par.pool import WorkerPool

__all__ = [
    "CellTask",
    "CellResult",
    "CellExecutor",
    "ParallelCellError",
    "run_cells",
    "raise_failures",
    "merge_cell_traces",
]


def run_cells(tasks, jobs: int = 1, trace_dir: str | None = None,
              env: str | ExecutionEnvironment | None = None,
              stall_timeout_s: float | None = None) -> list[CellResult]:
    """Run every task and return results **in task-list order**.

    ``env`` selects the execution environment by name (``inline``,
    ``thread``, ``process``) or instance; ``None`` keeps the historical
    behaviour — inline for ``jobs<=1``, the persistent process pool
    otherwise.  Single-cell batches always run
    inline (there is nothing to parallelise).  ``stall_timeout_s`` arms
    the process environment's wedged-worker harvester.
    """
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        return [execute_cell(task, trace_dir) for task in tasks]
    runner = resolve_environment(env, jobs).make_runner(
        jobs, trace_dir=trace_dir, stall_timeout_s=stall_timeout_s)
    try:
        return runner.run(tasks)
    finally:
        runner.close()


class CellExecutor:
    """A long-lived runner: submit cells over time, share the slots.

    :func:`run_cells` is a synchronous batch — fine for sweeps, useless
    for a daemon whose cells (serve sessions) arrive one at a time from
    many client connections.  The executor keeps the engine's guarantees
    (crash isolation, pickle-safe envelopes, explicit per-cell seeds —
    determinism never depends on completion order) while letting N
    independent submitters share at most ``jobs`` *persistent* workers:
    the pool forks once and serves every subsequent session warm, and a
    worker that dies is respawned without disturbing its siblings.

    ``jobs == 0`` (or ``env="inline"``) runs every cell inline in the
    submitting thread — no fork at all, used by tests and fork-less
    platforms; results are identical because cells are pure functions of
    their task.  ``env="thread"`` uses worker threads instead of forked
    processes (shared caches, no crash isolation).

    The executor is a thin face over the environment's streaming
    runner (:mod:`repro.par.runners`): the same dispatch loop serves
    sweeps and daemon tickets.  Single-consumer per ticket:
    :meth:`wait` (or a :meth:`poll` that finds the cell done) hands the
    result over exactly once.
    """

    def __init__(self, jobs: int = 2, trace_dir: str | None = None,
                 env: str | None = None,
                 stall_timeout_s: float | None = None):
        self.jobs = max(0, jobs)
        self.env = "inline" if self.jobs == 0 else env or "process"
        # Private pool: the executor's lifecycle (daemon start/stop)
        # owns these workers, independent of any shared sweep pool.
        self._pool = WorkerPool(self.jobs) if self.env == "process" \
            else None
        environment = (ProcessEnvironment(self._pool)
                       if self._pool is not None
                       else environment_for(self.env))
        self._runner = environment.make_runner(
            self.jobs, trace_dir=trace_dir,
            stall_timeout_s=stall_timeout_s)

    def submit(self, task: CellTask) -> int:
        """Queue one cell; returns a ticket for :meth:`wait`/:meth:`poll`."""
        return self._runner.submit(task)

    def poll(self, ticket: int) -> CellResult | None:
        """The cell's result if it finished, else ``None`` (never blocks).
        A returned result is handed over: the ticket is retired."""
        return self._runner.poll(ticket)

    def wait(self, ticket: int,
             timeout: float | None = None) -> CellResult | None:
        """Block until the cell finishes; ``None`` only on timeout."""
        return self._runner.wait(ticket, timeout)

    @property
    def submitted(self) -> int:
        return self._runner.submitted

    @property
    def completed(self) -> int:
        return self._runner.completed

    @property
    def in_flight(self) -> int:
        return self._runner.in_flight

    @property
    def queued(self) -> int:
        """Cells accepted but not yet dispatched to a worker (the
        queue-depth gauge ``serve status`` and the metrics op report)."""
        return self._runner.queued

    def pool_stats(self) -> dict | None:
        """Persistent-pool diagnostics (``None`` outside process envs)."""
        if self._pool is None:
            return None
        return self._pool.stats()

    def stats(self) -> dict:
        """The executor block of ``serve status`` and the host metrics:
        ticket counts, queue depth, and the pool and scheduler stats."""
        runner = self._runner.stats()
        stats = {"jobs": self.jobs, "env": self.env,
                 "submitted": self.submitted, "completed": self.completed,
                 "in_flight": self.in_flight, "queued": self.queued,
                 "scheduler": runner["scheduler"]}
        if "pool" in runner:
            stats["pool"] = runner["pool"]
        return stats

    def shutdown(self) -> None:
        """Stop the pool: running workers are terminated, queued cells
        fail with a diagnostic result (nothing hangs)."""
        self._runner.close()
        if self._pool is not None:
            self._pool.shutdown()
