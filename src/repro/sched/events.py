"""Events yielded by guest threads.

A guest thread body is a Python generator.  Each ``yield`` hands the
simulator one of the event types below; the simulator performs the event's
semantic action at its *commit time* (after the simulated duration has
elapsed) and resumes the generator with the event's result.

The event set mirrors the two interaction types the paper identifies as
behaviour-affecting (Section 3): system calls operating on shared resources
(:class:`Syscall`) and inter-thread communication through synchronization
variables (:class:`SyncOp`).  :class:`Compute` is pure local work and only
affects timing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable


class InstructionClass(enum.Enum):
    """The paper's three x86 atomic-access instruction classes (§4.3)."""

    #: Type (i): instructions with a LOCK prefix (LOCK CMPXCHG, LOCK XADD).
    LOCK_PREFIXED = "lock"
    #: Type (ii): XCHG (implicitly locked on x86).
    XCHG = "xchg"
    #: Type (iii): aligned load/store instructions.  Only a sync op when
    #: the accessed variable may alias a type (i)/(ii) operand.
    PLAIN = "plain"


@dataclass(slots=True)
class Compute:
    """Pure computation taking ``cycles`` simulated cycles."""

    cycles: float


@dataclass(slots=True)
class Syscall:
    """A system call.  ``args`` already carry materialized values.

    Real MVEEs must dereference pointer arguments to compare buffers; our
    events carry the buffer contents directly, which models a monitor that
    performed that dereference.
    """

    name: str
    args: tuple = ()


@dataclass(slots=True)
class SyncOp:
    """One atomic instruction on a synchronization variable.

    ``op`` is one of ``"cas"``, ``"xchg"``, ``"fetch_add"``, ``"load"``,
    ``"store"``.  ``addr`` is a variant-local address (diversified layouts
    make it differ across variants for the same logical variable).
    ``site`` labels the static instruction site (e.g.
    ``"libpthread.mutex_lock.cas"``); the instrumentation step decides per
    site whether the agent wrappers are invoked (Listing 3 of the paper —
    un-instrumented sites execute bare, which is how the nginx divergence
    is demonstrated).

    Results delivered to the guest:

    * ``cas(addr, expected, new)`` -> the *old* value (success iff equal to
      ``expected``),
    * ``xchg(addr, new)`` -> old value,
    * ``fetch_add(addr, delta)`` -> old value,
    * ``load(addr)`` -> value,
    * ``store(addr, value)`` -> ``None``.
    """

    op: str
    addr: int
    args: tuple = ()
    iclass: InstructionClass = InstructionClass.LOCK_PREFIXED
    site: str = "anonymous"

    #: Width in bytes; the wall-of-clocks hash deliberately maps adjacent
    #: 32-bit words in one 64-bit granule to the same clock (§4.5).
    width: int = 4


@dataclass(slots=True)
class Spawn:
    """Create a new guest thread running ``fn(ctx, *args)``.

    Reported to the monitor as a ``clone`` system call (ordered and
    security-sensitive).  The result delivered to the guest is the child's
    logical thread id, stable across variants by construction (parent id +
    per-parent child index).
    """

    fn: Callable
    args: tuple = ()
    name: str | None = None


@dataclass(slots=True)
class Join:
    """Wait for the thread with logical id ``tid``; result is its return
    value."""

    tid: str


@dataclass(slots=True)
class Annotate:
    """A no-cost trace annotation (used by tests and the figure benches)."""

    label: str
    payload: Any = None


#: All event types, for isinstance dispatch.
EVENT_TYPES = (Compute, Syscall, SyncOp, Spawn, Join, Annotate)
