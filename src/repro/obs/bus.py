"""The observer bus: one event mechanism for every passive observer.

The paper's monitor watches the variants through a single interception
point; this simulator's observers do the same.  :class:`repro.core.mvee.
MVEE` builds one :class:`HookBus` from whatever it was given — the
:class:`~repro.obs.ObsHub`, the hub's cycle profiler, a race detector,
a deadlock detector, a decision recorder or replayer — and hands it to
the machine, the monitor, the agents' shared state and every futex
table as their ``hooks`` attribute.  With nothing attached ``hooks`` is
``None``, so a bare run pays one attribute test per hook site.

Each event is a method name (see :data:`EVENTS`).  A subscriber takes an
event by defining a method of that name; the bus resolves the bound
methods once, when it is built, and exposes each event as one callable:

* no subscriber — a shared no-op;
* one subscriber — that subscriber's bound method itself, so the hook
  site calls it directly with no fan-out frame;
* several — a fan-out calling them in subscription order.

Subscribers fire in the order the MVEE lists them: hub, profiler,
races, deadlocks, replay.  Detectors, the replayer, the checkpointer
and the fault injector publish their findings (``race_detected``,
``deadlock_detected``, ``replay_diverged``, ``checkpoint_taken``,
``fault_injected``) on the same bus, which delivers them to the hub.

Observers never charge simulated cycles, consume scheduler randomness or
park threads.  Fault injection is not an observer: the injector answers
questions that change the run, so it keeps its own ``faults`` rail.
"""

from __future__ import annotations

#: Every event the simulator and its observers publish.
EVENTS = (
    # machine
    "thread_created", "thread_spawned", "thread_joined", "thread_finished",
    "sched_grant", "step_committed", "park", "unpark", "sync_op",
    "syscall_committed", "divergence",
    # kernel futex tables
    "futex_park", "futex_unpark", "futex_wake",
    # monitor
    "monitored_call", "rendezvous_arrive", "rendezvous_complete",
    "clock_tick", "clock_stall", "stream_publish", "stream_wait",
    "watchdog_timeout", "variant_quarantined", "variant_caught_up",
    # agents
    "sync_record", "sync_replay", "sync_stall", "clock_lag",
    # MVEE restart, and findings published by observers and faults
    "variant_restarted", "fault_injected", "race_detected",
    "deadlock_detected", "checkpoint_taken", "replay_diverged",
)


def _ignore(*args) -> None:
    """An event no subscriber takes."""


def _fan_out(handlers: tuple):
    def fan_out(*args) -> None:
        for handler in handlers:
            handler(*args)
    return fan_out


class HookBus:
    """Each :data:`EVENTS` name, bound to its subscribers' handlers."""

    def __init__(self, subscribers):
        for event in EVENTS:
            handlers = tuple(getattr(subscriber, event)
                             for subscriber in subscribers
                             if callable(getattr(subscriber, event, None)))
            if len(handlers) == 1:
                handler = handlers[0]
            else:
                handler = _fan_out(handlers) if handlers else _ignore
            setattr(self, event, handler)
