"""Wrap the public entry points of each ``repro`` layer with spans.

Everything here patches from the outside: class attributes and module
globals are replaced by timing wrappers, and nothing under ``src/``
changes.  :func:`install` must run before the process forks a pool or
starts a daemon, so forked workers inherit the wrappers; the recorder
resets itself in each forked child and writes the child's spans when
it exits.

Span names are ``<layer>.<call>``; the layer is the first component.
The layers are the ones the benchmark reports: ``sched``, ``monitor``
and ``agents`` (``repro.core``), ``kernel``, ``guest``,
``experiments``, ``par``, ``serve``, ``replay`` and ``obs``.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

from perfbench.spans import SpanRecorder

#: (dotted class or module path, attribute, span name, is a wait span)
TARGETS = (
    ("repro.sched.machine.Machine", "advance", "sched.advance", False),
    ("repro.core.monitor.Monitor", "before_syscall",
     "monitor.before_syscall", False),
    ("repro.core.monitor.Monitor", "after_syscall",
     "monitor.after_syscall", False),
    ("repro.core.agents.total_order.TotalOrderAgent", "before_sync_op",
     "agents.total_order.before_sync_op", False),
    ("repro.core.agents.total_order.TotalOrderAgent", "after_sync_op",
     "agents.total_order.after_sync_op", False),
    ("repro.core.agents.partial_order.PartialOrderAgent",
     "before_sync_op", "agents.partial_order.before_sync_op", False),
    ("repro.core.agents.partial_order.PartialOrderAgent",
     "after_sync_op", "agents.partial_order.after_sync_op", False),
    ("repro.core.agents.wall_of_clocks.WallOfClocksAgent",
     "before_sync_op", "agents.wall_of_clocks.before_sync_op", False),
    ("repro.core.agents.wall_of_clocks.WallOfClocksAgent",
     "after_sync_op", "agents.wall_of_clocks.after_sync_op", False),
    ("repro.kernel.kernel.VirtualKernel", "execute", "kernel.execute",
     False),
    ("repro.kernel.kernel.VirtualKernel", "apply_replicated",
     "kernel.apply_replicated", False),
    ("repro.experiments.runner", "run_one", "experiments.run_one", False),
    ("repro.experiments.runner", "native_cycles",
     "experiments.native_cycles", False),
    ("repro.experiments.runner", "run_native", "experiments.run_native",
     False),
    ("repro.par.cells", "execute_cell", "par.execute_cell", False),
    ("repro.par.engine", "run_cells", "par.run_cells", True),
    ("repro.par.engine.CellExecutor", "submit", "par.submit", False),
    ("repro.par.engine.CellExecutor", "wait", "par.wait", True),
    ("repro.serve.daemon.ServeDaemon", "handle", "serve.handle", False),
    ("repro.serve.client.ServeClient", "request", "serve.client_request",
     True),
    ("repro.serve.session", "run_session_cell", "serve.run_session_cell",
     False),
    ("repro.serve.session", "build_mvee", "serve.build_mvee", False),
    ("repro.replay.driver", "record_run", "replay.record_run", False),
    ("repro.replay.driver", "replay_run", "replay.replay_run", False),
    ("repro.replay.checkpoint.Checkpointer", "take", "replay.checkpoint",
     False),
    ("repro.replay.log.DecisionLog", "load", "replay.load", False),
)

#: ObsHub methods that are not hooks the simulator calls.
OBS_NON_HOOKS = frozenset({"digest", "attach_profiler", "bind_clock"})

#: The only recorder a process has; set by :func:`install`.
RECORDER: SpanRecorder | None = None


def _resolve(path: str):
    """Import ``a.b.c`` or ``a.b.C`` and return the object."""
    import importlib

    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


def _span_wrapper(recorder: SpanRecorder, name: str, fn, wait: bool):
    code = recorder.code_for(name)
    open_span, close_span = recorder.open, recorder.close
    if wait:
        cpu = time.thread_time

        @functools.wraps(fn)
        def waiting(*args, **kwargs):
            buf, index = open_span(code)
            begin = cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                buf.busy[index] = cpu() - begin
                close_span(buf, index)
        return waiting

    @functools.wraps(fn)
    def working(*args, **kwargs):
        buf, index = open_span(code)
        try:
            return fn(*args, **kwargs)
        finally:
            close_span(buf, index)
    return working


def _replace_everywhere(original, wrapper) -> None:
    """Point every loaded ``repro`` module global bound to ``original``
    (``from x import f`` copies) at ``wrapper``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


class _TimedGenerator:
    """A guest thread's generator whose every resume is a span."""

    __slots__ = ("_gen", "_code")

    def __init__(self, gen, code: int):
        self._gen = gen
        self._code = code

    def send(self, value):
        buf, index = RECORDER.open(self._code)
        try:
            return self._gen.send(value)
        finally:
            RECORDER.close(buf, index)

    def throw(self, *args):
        return self._gen.throw(*args)

    def close(self):
        return self._gen.close()

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _install_guest(recorder: SpanRecorder) -> None:
    from repro.sched.machine import Machine

    code = recorder.code_for("guest.resume")
    add_thread = Machine.add_thread

    @functools.wraps(add_thread)
    def add_timed_thread(self, vm, logical_id, gen):
        return add_thread(self, vm, logical_id, _TimedGenerator(gen, code))

    Machine.add_thread = add_timed_thread


def _install_obs(recorder: SpanRecorder) -> None:
    import inspect

    from repro.obs import ObsHub

    for name, member in list(vars(ObsHub).items()):
        if (name.startswith("_") or name in OBS_NON_HOOKS
                or not inspect.isfunction(member)):
            continue
        setattr(ObsHub, name,
                _span_wrapper(recorder, f"obs.{name}", member, False))


def install(run_id: str, out_dir: str) -> SpanRecorder:
    """Wrap every target; returns the process's recorder."""
    global RECORDER
    from multiprocessing import util

    recorder = SpanRecorder(run_id, out_dir)
    RECORDER = recorder
    for path, attr, name, wait in TARGETS:
        owner = _resolve(path)
        raw = vars(owner)[attr] if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            wrapped = _span_wrapper(recorder, name, raw.__func__, wait)
            setattr(owner, attr, classmethod(wrapped))
            continue
        original = getattr(owner, attr)
        wrapped = _span_wrapper(recorder, name, original, wait)
        setattr(owner, attr, wrapped)
        if not isinstance(owner, type):
            _replace_everywhere(original, wrapped)
    _install_guest(recorder)
    _install_obs(recorder)
    for name in ("unattributed.run", "unattributed.client"):
        recorder.code_for(name)
    util.register_after_fork(recorder, SpanRecorder.after_fork)
    return recorder


@contextlib.contextmanager
def root_span(name: str):
    """A benchmark-side root span: the time the benchmark itself spends
    in a run, outside every layer.  A no-op when tracing is off."""
    if RECORDER is None:
        yield
        return
    buf, index = RECORDER.open(RECORDER.code_for(name))
    try:
        yield
    finally:
        RECORDER.close(buf, index)


def track_schedulers() -> list:
    """Collect every :class:`~repro.par.stealing.StealScheduler` built
    from now on, so a sweep's steal count can be read from the par
    layer's own state after :func:`repro.par.run_cells` returns."""
    from repro.par.stealing import StealScheduler

    made: list = []
    init = StealScheduler.__init__

    @functools.wraps(init)
    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    StealScheduler.__init__ = tracked_init
    return made
