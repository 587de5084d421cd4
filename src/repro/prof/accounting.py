"""Cycle accounting: attribute every simulated cycle to a category.

The simulator already knows, at every instant, what each variant thread
is doing — running a committed step, sitting in the core queue, or
parked on a wait key whose *kind* names the subsystem responsible
(``rdv``/``order_clock`` → the monitor, ``woc_buf``/``to_log`` → the
agent, ``futex`` → the kernel, ``fault_stall`` → an injected fault).
The :class:`CycleProfiler` subscribes to the observer bus
(:mod:`repro.obs.bus`) — the machine's lifecycle, scheduling and
step-commit events among them — and tiles each thread's lifetime into
contiguous spans, one category per span:

* a committed step charges its duration to ``guest-compute`` (compute,
  sync ops, annotations), ``syscall-service`` (syscalls, spawn, join),
  or — for a mid-event resume — the category of the wait that parked it
  (the recheck belongs to whatever caused the wait);
* a park→unpark interval charges the wait key's category
  (:func:`classify_wait_key`);
* time between becoming runnable and the next core grant charges
  ``core-queue``.

Because spans are contiguous and never overlap, per-thread category
totals sum to the thread's accounted lifetime, and the profile-wide
total is the exact sum of its categories — the invariant the report and
the tests lean on.  The profiler is a pure observer: it never charges a
simulated cycle, never consumes scheduler randomness, and detaching it
leaves the timeline byte-identical (pinned in ``test_determinism.py``).

Known attribution caveat: monitor/agent overhead delivered through
``GuestThread.carry_cost`` lands inside the *next* committed step and is
therefore charged to that step's category, not to the monitor — the
dominant monitor/agent costs (the waits) are exact, the inline wrapper
costs ride the guest categories.  See ``docs/PROFILING.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.prof.analytics import LagTracker

#: Accounting categories, in canonical (report) order.
CATEGORIES = (
    "guest-compute",    # committed compute/sync-op/annotate steps
    "syscall-service",  # committed syscall/spawn/join steps
    "agent-wait",       # parked on a sync agent (replay order, buffers)
    "monitor-ordering", # parked on the monitor (rendezvous, §4.1 clock)
    "futex-sleep",      # parked on a futex word
    "guest-wait",       # parked on guest/kernel waits (join, pipe, net)
    "core-queue",       # runnable, waiting for a core
    "fault-recovery",   # injected-fault stalls + restart-resync service
)

#: Wait-key kind -> category.  Anything unknown is a guest-level wait.
_WAIT_CATEGORY = {
    # lockstep + §4.1 ordering: the monitor made the thread wait
    "rdv": "monitor-ordering",
    "result": "monitor-ordering",
    "stream": "monitor-ordering",
    "order_clock": "monitor-ordering",
    "order_cs": "monitor-ordering",
    "order_log": "monitor-ordering",
    # sync agents: replay order and buffer backpressure
    "woc_buf": "agent-wait",
    "woc_clock": "agent-wait",
    "woc_full": "agent-wait",
    "to_full": "agent-wait",
    "to_log": "agent-wait",
    "to_next": "agent-wait",
    "po_consume": "agent-wait",
    "po_full": "agent-wait",
    "po_log": "agent-wait",
    "dmt_turn": "agent-wait",
    "recplay": "agent-wait",
    "varan_log": "agent-wait",
    "varan_res": "agent-wait",
    # kernel futex queue
    "futex": "futex-sleep",
    # injected stalls (the watchdog's raison d'être)
    "fault_stall": "fault-recovery",
}

#: Committed-step kind -> category ("resume" is resolved dynamically).
_STEP_CATEGORY = {
    "compute": "guest-compute",
    "syncop": "guest-compute",
    "annotate": "guest-compute",
    "syscall": "syscall-service",
    "spawn": "syscall-service",
    "join": "syscall-service",
}


def classify_wait_key(wait_key) -> str:
    """Category charged while parked on ``wait_key``."""
    kind = wait_key[0] if wait_key else None
    return _WAIT_CATEGORY.get(kind, "guest-wait")


class _ThreadAccount:
    """Accumulating span state for one thread incarnation."""

    __slots__ = ("variant", "thread", "start", "end", "mode", "since",
                 "wait_category", "categories")

    def __init__(self, variant: int, thread: str, now: float):
        self.variant = variant
        self.thread = thread
        self.start = now
        self.end: float | None = None
        #: "queue" | "run" | "blocked"
        self.mode = "queue"
        self.since = now
        #: Category of the current/most recent wait (resume attribution).
        self.wait_category = "syscall-service"
        self.categories: dict[str, float] = {}

    def charge(self, category: str, cycles: float) -> None:
        if cycles:
            self.categories[category] = (
                self.categories.get(category, 0.0) + cycles)


@dataclass
class CycleProfile:
    """Deterministic snapshot of one run's cycle accounting.

    ``threads`` is sorted by (variant, thread); every float in it is a
    pure function of the simulated run, so two snapshots of the same
    seeded run are equal (and ``to_dict`` output is byte-stable through
    ``json.dumps(..., sort_keys=True)``).
    """

    threads: list[dict] = field(default_factory=list)
    machine_cycles: float = 0.0
    #: Lag-series snapshot (see :class:`repro.prof.analytics.LagTracker`).
    lag: dict = field(default_factory=dict)
    #: Futex traffic observed (cross-check for the futex-sleep bucket).
    futex_parks: int = 0
    futex_wakes: int = 0

    def per_category(self) -> dict[str, float]:
        """Category -> total cycles across all variants and threads."""
        totals = {category: 0.0 for category in CATEGORIES}
        for entry in self.threads:
            for category, cycles in entry["categories"].items():
                totals[category] = totals.get(category, 0.0) + cycles
        return totals

    def per_variant(self) -> dict[int, dict[str, float]]:
        """Variant -> category -> cycles."""
        out: dict[int, dict[str, float]] = {}
        for entry in self.threads:
            bucket = out.setdefault(entry["variant"],
                                    {c: 0.0 for c in CATEGORIES})
            for category, cycles in entry["categories"].items():
                bucket[category] = bucket.get(category, 0.0) + cycles
        return out

    @property
    def total_cycles(self) -> float:
        """Total accounted cycles == exact sum of the category totals."""
        return sum(self.per_category().values())

    def to_dict(self) -> dict:
        per_category = self.per_category()
        return {
            "kind": "repro-cycle-profile",
            "machine_cycles": self.machine_cycles,
            "total_cycles": sum(per_category.values()),
            "per_category": per_category,
            "per_variant": {str(variant): categories for variant, categories
                            in sorted(self.per_variant().items())},
            "threads": self.threads,
            "lag": self.lag,
            "futex": {"parks": self.futex_parks,
                      "wakes": self.futex_wakes},
        }


class CycleProfiler:
    """Observer building a :class:`CycleProfile` from the hook stream.

    Attach via ``ObsHub(profile=True)``: the MVEE subscribes the hub's
    profiler to the observer bus right after the hub, so it takes the
    scheduling, park/unpark, step-commit, agent record/replay and futex
    events under the hub's names and signatures.  All methods are cheap
    dictionary work on host time only.
    """

    def __init__(self, lag_sample_every: int = 1):
        self._clock = lambda: 0.0
        #: (variant, thread) -> live account.
        self._accounts: dict[tuple[int, str], _ThreadAccount] = {}
        #: Closed accounts (finished threads, replaced incarnations).
        self._retired: list[_ThreadAccount] = []
        self.lag = LagTracker(sample_every=lag_sample_every)
        self.futex_parks = 0
        self.futex_wakes = 0
        self._finalized_at: float | None = None
        #: Variants resyncing after a restart.  Their *syscall-service*
        #: charges — the committed steps carrying the monitor's
        #: history-replay costs — are recategorized to ``fault-recovery``
        #: until they catch up; re-executed guest compute and wait time
        #: keep their natural categories.  The bucket thus isolates the
        #: monitor overhead of resync, which checkpoint-mode resync
        #: provably shrinks (see ``docs/REPLAY.md``).
        self._recovering: set[int] = set()

    def bind_clock(self, clock) -> None:
        self._clock = clock

    def _category_for(self, variant: int, category: str) -> str:
        if category == "syscall-service" and variant in self._recovering:
            return "fault-recovery"
        return category

    # -- resilience hooks --------------------------------------------------

    def variant_restarted(self, variant: int) -> None:
        self._recovering.add(variant)

    def variant_caught_up(self, variant: int) -> None:
        self._recovering.discard(variant)

    # -- lifecycle hooks ---------------------------------------------------

    def thread_created(self, variant: int, thread_global: str,
                       thread: str) -> None:
        now = self._clock()
        key = (variant, thread)
        old = self._accounts.get(key)
        if old is not None:
            # A restarted variant reuses logical ids: retire the old
            # incarnation at its last accounted point.
            self._close(old, now)
        self._accounts[key] = _ThreadAccount(variant, thread, now)

    def thread_finished(self, variant: int, thread_global: str,
                        thread: str) -> None:
        account = self._accounts.pop((variant, thread), None)
        if account is None:
            return
        self._close(account, self._clock())

    # -- scheduling hooks --------------------------------------------------

    def sched_grant(self, variant: int, thread: str) -> None:
        account = self._accounts.get((variant, thread))
        if account is None:
            return
        now = self._clock()
        # Whatever elapsed since the last accounted point — creation,
        # unpark, or the committed step after which the thread yielded
        # its core — was spent runnable in the queue.
        account.charge(self._category_for(variant, "core-queue"),
                       now - account.since)
        account.mode = "run"
        account.since = now

    def step_committed(self, variant: int, thread_global: str,
                       thread: str, kind: str, duration: float) -> None:
        account = self._accounts.get((variant, thread))
        if account is None:
            return
        if kind == "resume":
            category = account.wait_category
        else:
            category = _STEP_CATEGORY.get(kind, "guest-compute")
        account.charge(self._category_for(variant, category), duration)
        account.since = self._clock()

    def park(self, variant: int, thread_global: str, thread: str,
             wait_key) -> None:
        account = self._accounts.get((variant, thread))
        if account is None:
            return
        account.mode = "blocked"
        account.wait_category = classify_wait_key(wait_key)
        account.since = self._clock()

    def unpark(self, variant: int, thread_global: str,
               thread: str) -> None:
        account = self._accounts.get((variant, thread))
        if account is None:
            return
        now = self._clock()
        account.charge(self._category_for(variant,
                                          account.wait_category),
                       now - account.since)
        account.mode = "queue"
        account.since = now

    # -- agent / kernel hooks ----------------------------------------------

    def sync_record(self, variant: int, thread: str, buffer: str,
                    occupancy: int) -> None:
        self.lag.record(self._clock())

    def sync_replay(self, variant: int, thread: str, buffer: str,
                    occupancy: int) -> None:
        self.lag.replay(self._clock(), variant)

    def clock_lag(self, variant: int, thread: str, clock_id: int,
                  lag: float) -> None:
        self.lag.clock_sample(variant, lag)

    def futex_park(self, variant: int, thread_global: str,
                   addr: int) -> None:
        self.futex_parks += 1

    def futex_wake(self, variant: int, addr: int, woken: list,
                   waker: str | None) -> None:
        self.futex_wakes += len(woken)

    # -- snapshot ----------------------------------------------------------

    def _close(self, account: _ThreadAccount, now: float) -> None:
        if account.mode == "blocked":
            account.charge(self._category_for(account.variant,
                                              account.wait_category),
                           now - account.since)
            account.end = now
        elif account.mode == "queue":
            account.charge(self._category_for(account.variant,
                                              "core-queue"),
                           now - account.since)
            account.end = now
        else:
            # Mid-step at close time: the in-flight step was never
            # committed (mirrors busy_cycles accounting), so the
            # account ends at its last committed point.
            account.end = account.since
        self._retired.append(account)

    def finalize(self, now: float | None = None) -> None:
        """Close every still-open account (killed threads, exit_group).

        Idempotent; call once after the run with ``machine.now``.
        """
        now = self._clock() if now is None else now
        self._finalized_at = now
        for key in sorted(self._accounts):
            self._close(self._accounts.pop(key), now)

    def snapshot(self) -> CycleProfile:
        """Deterministic profile over all (live + retired) accounts.

        Accounts of the same (variant, thread) key — e.g. a restarted
        variant's incarnations — are merged by summing categories.
        """
        now = (self._finalized_at if self._finalized_at is not None
               else self._clock())
        merged: dict[tuple[int, str], dict] = {}
        open_accounts = []
        for key in sorted(self._accounts):
            account = self._accounts[key]
            snap = _ThreadAccount(account.variant, account.thread,
                                  account.start)
            snap.categories = dict(account.categories)
            snap.mode = account.mode
            snap.since = account.since
            snap.wait_category = account.wait_category
            self_closed = snap
            self._close_view(self_closed, now)
            open_accounts.append(self_closed)
        for account in list(self._retired) + open_accounts:
            key = (account.variant, account.thread)
            entry = merged.get(key)
            if entry is None:
                merged[key] = {
                    "variant": account.variant,
                    "thread": account.thread,
                    "start": account.start,
                    "end": account.end,
                    "categories": dict(account.categories),
                }
                continue
            entry["start"] = min(entry["start"], account.start)
            entry["end"] = max(entry["end"], account.end)
            for category, cycles in account.categories.items():
                entry["categories"][category] = (
                    entry["categories"].get(category, 0.0) + cycles)
        threads = [merged[key] for key in sorted(merged)]
        for entry in threads:
            entry["categories"] = {
                category: entry["categories"][category]
                for category in CATEGORIES
                if category in entry["categories"]}
        return CycleProfile(
            threads=threads,
            machine_cycles=now,
            lag=self.lag.to_dict(),
            futex_parks=self.futex_parks,
            futex_wakes=self.futex_wakes,
        )

    @staticmethod
    def _close_view(account: _ThreadAccount, now: float) -> None:
        """Close a copied account for snapshotting without mutating the
        live one (lets snapshots be taken mid-run)."""
        if account.mode == "blocked":
            account.charge(account.wait_category, now - account.since)
            account.end = now
        elif account.mode == "queue":
            account.charge("core-queue", now - account.since)
            account.end = now
        else:
            account.end = account.since
