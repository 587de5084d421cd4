"""Inline runner: each cell runs inside ``submit``, in the caller."""

from __future__ import annotations

from repro.par.cells import CellTask, execute_cell
from repro.par.runners.base import Runner


class InlineRunner(Runner):
    """The serial oracle: no pool, no threads, nothing queued.

    Every other environment is tested for digest-equality against this
    one; it is also what ``jobs<=1`` resolves to everywhere, preserving
    the historical serial behaviour (including memo-cache hits, which
    live in the calling process).
    """

    env_name = "inline"

    def _enqueue(self, ticket: int, task: CellTask) -> None:
        self._deliver(ticket, execute_cell(task, self.trace_dir))
