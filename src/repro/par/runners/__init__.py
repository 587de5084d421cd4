"""Runners: per-environment strategies for executing cells.

Every runner is streaming: :meth:`~repro.par.runners.base.Runner.submit`
returns a ticket, ``poll``/``wait`` hand its
:class:`~repro.par.cells.CellResult` over once, and ``run`` (written
once, in the base class) submits a batch and waits on each ticket in
submit order.  Queued tickets wait in a work-stealing scheduler:

* :class:`InlineRunner` — runs each cell inside ``submit``, in the
  caller (the historical serial path and the determinism oracle).
* :class:`ThreadRunner` — worker threads serving tickets from the
  scheduler; cheap, shares the parent's memo caches, but offers no
  crash isolation.
* :class:`ProcessRunner` — the one process dispatch loop: a dispatcher
  thread feeding a persistent :class:`~repro.par.pool.WorkerPool` of
  forked workers, with crash isolation, stall harvesting, and
  shared-memory result transport.

Runners are built by :mod:`repro.par.environment`; sweeps and the serve
daemon never pick one directly.
"""

from repro.par.runners.base import Runner
from repro.par.runners.inline import InlineRunner
from repro.par.runners.process import ProcessRunner
from repro.par.runners.thread import ThreadRunner

__all__ = ["Runner", "InlineRunner", "ThreadRunner", "ProcessRunner"]
