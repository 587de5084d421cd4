"""The strict, security-oriented MVEE monitor.

Implements the synchronization model of Section 2: variants execute
monitored system calls in lockstep — no variant proceeds past a monitored
call until all variants have arrived at an equivalent call — with the
master performing I/O and the monitor replicating results to the slaves.
Cross-thread ordering of shared-resource calls uses the Lamport-clock
scheme of Section 4.1 (:mod:`repro.core.syscall_order`).

Structure: one `Monitor` instance per variant set, acting as the
simulator's :class:`~repro.sched.interceptor.SyscallInterceptor`.  State
is keyed by *(logical thread, per-thread monitored-call sequence number)*
— the simulation analogue of ReMon's one-monitor-thread-per-thread-set
design: each key identifies one logical call across all variants.

Divergence responses (each produces a :class:`DivergenceReport`):

* argument/name mismatch at a lockstep rendezvous,
* result mismatch on an execute-all call (e.g. FD numbers),
* a thread exiting in one variant while its twin keeps calling,
* a variant faulting (crash under attack, protection violation),
* a watchdog timeout (a variant that never reaches the rendezvous).

What happens *next* is the :class:`~repro.core.divergence.MonitorPolicy`
``degradation`` policy's decision: ``kill`` (the paper's behaviour —
terminate every variant), ``quarantine`` (demote only the condemned
variant(s) and keep the rest running, using a majority vote when ≥3
variants disagree), or ``restart`` (quarantine, then resync a rebuilt
variant from the retained master history).  See ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.divergence import (
    DivergenceKind,
    DivergenceReport,
    MonitorPolicy,
    QuarantineEvent,
)
from repro.core.syscall_order import SyscallOrderer
from repro.kernel.syscalls import MVEE_GET_ROLE, SyscallSpec, spec_for
from repro.perf.costs import CostModel, DEFAULT_COSTS
from repro.sched.interceptor import Kill, Proceed, Result, Wait
from repro.sched.interceptor import SyscallInterceptor

#: How many times a watchdog deadline is extended for a variant that is
#: still resyncing from history before it is condemned anyway.  Bounds
#: the rearm loop so a restarted variant that itself deadlocks cannot
#: postpone the verdict forever.
_MAX_WATCHDOG_REARMS = 16


@dataclass
class _CallInfo:
    """Per-(variant, thread) state for the in-flight monitored call."""

    seq: int
    name: str
    overhead_charged: bool = False
    registered: bool = False
    observed: bool = False


@dataclass
class _Rendezvous:
    """State for one logical call across all variants."""

    expected: int
    #: variant -> (name, normalized args)
    arrivals: dict[int, tuple] = field(default_factory=dict)
    compared: bool = False
    #: Master result for replicated calls (set by after_syscall).
    result_ready: bool = False
    result: Any = None
    #: variant -> local result, for execute-all result comparison.
    local_results: dict[int, Any] = field(default_factory=dict)
    finished: int = 0


def normalize_args(spec: SyscallSpec, args: tuple) -> tuple:
    """Mask address-valued arguments; addresses legally differ (ASLR)."""
    return tuple("<addr>" if index in spec.address_args else arg
                 for index, arg in enumerate(args))


class Monitor(SyscallInterceptor):
    """Strict lockstep monitor for one variant set."""

    def __init__(self, n_variants: int,
                 policy: MonitorPolicy | None = None,
                 costs: CostModel | None = None):
        self.n_variants = n_variants
        self.policy = policy or MonitorPolicy()
        self.costs = costs or DEFAULT_COSTS
        self.orderer = SyscallOrderer(n_variants, wake=lambda key: None)
        self._wake = lambda key: None
        #: (variant, thread) -> _CallInfo for the in-flight call.
        self._current: dict[tuple[int, str], _CallInfo] = {}
        #: (variant, thread) -> count of completed monitored calls.
        self._seq: dict[tuple[int, str], int] = {}
        #: (thread, seq) -> rendezvous state.
        self._rendezvous: dict[tuple[str, int], _Rendezvous] = {}
        #: (variant, thread) -> monitored-call count at thread exit.
        self._exited: dict[tuple[int, str], int] = {}
        #: Per-thread blocking-result streams (futex/nanosleep):
        #: (thread, k) -> master result; counters per (variant, thread).
        self._stream: dict[tuple[str, int], Any] = {}
        self._stream_count: dict[tuple[int, str], int] = {}
        self.divergence: DivergenceReport | None = None
        #: Optional observer bus (set by the MVEE bootstrap).
        self.hooks = None
        #: Variants still being cross-checked.  Quarantine removes a
        #: variant; restart re-admits it.
        self.active: set[int] = set(range(n_variants))
        #: Every graceful-degradation action taken, in order.
        self.quarantine_log: list[QuarantineEvent] = []
        self._machine = None
        #: Watchdog bookkeeping (only populated when the policy sets a
        #: deadline): stream keys already guarded, and per-rendezvous
        #: rearm counts for variants still resyncing.
        self._stream_armed: set = set()
        self._rearm_count: dict = {}
        #: Stream indices declared spurious after a quarantine: the
        #: perturbed slave schedule can block where the master never
        #: publishes, so these waits are served as spurious wakeups.
        self._stream_spurious: set = set()
        #: Restart support: callback installed by the MVEE, restart
        #: counts per variant, variants currently resyncing, and the
        #: master call history they resync from (recorded only under the
        #: restart policy).
        self._restart_cb = None
        self._restart_counts: dict[int, int] = {}
        self._catchup: set[int] = set()
        self._history: dict[tuple[str, int], dict] | None = (
            {} if self.policy.degradation == "restart" else None)
        #: Optional :class:`repro.replay.CheckpointStore` (set by the
        #: MVEE when a checkpointer is attached); under
        #: ``resync_mode == "checkpoint"`` the latest checkpoint's
        #: ``master_seq`` is the fast-forward frontier.
        self.checkpoints = None
        #: variant -> {"mode", "restarts", "fast_forwarded", "resynced"}
        #: — how each restarted variant caught up (fault-matrix column).
        self.resync_stats: dict[int, dict] = {}
        #: variant -> fast-forward frontier ({thread logical -> seq}),
        #: frozen at readmit time from the then-latest checkpoint.
        self._ff_frontier: dict[int, dict] = {}
        self._caught_up_announced: set[int] = set()

    def bind_machine(self, machine) -> None:
        """Install the wake callback (MVEE bootstrap)."""
        self._wake = machine.wake_key
        self.orderer.bind_wake(machine.wake_key)
        self._machine = machine

    def set_restart_callback(self, callback) -> None:
        """Install the MVEE's variant-rebuild hook (restart policy)."""
        self._restart_cb = callback

    # -- helpers ----------------------------------------------------------

    def _kill(self, report: DivergenceReport) -> Kill:
        self.divergence = report
        return Kill(report=report)

    def _call_info(self, vm, thread, name: str) -> _CallInfo:
        key = (vm.index, thread.logical_id)
        info = self._current.get(key)
        if info is None:
            info = _CallInfo(seq=self._seq.get(key, 0), name=name)
            self._current[key] = info
        return info

    def _finish_call(self, vm, thread) -> None:
        key = (vm.index, thread.logical_id)
        info = self._current.pop(key, None)
        if info is None:
            return
        self._seq[key] = info.seq + 1
        rdv_key = (thread.logical_id, info.seq)
        rdv = self._rendezvous.get(rdv_key)
        if rdv is not None:
            rdv.finished += 1
            if rdv.finished >= len(self.active):
                del self._rendezvous[rdv_key]

    # -- degradation ------------------------------------------------------

    def _resolve(self, report: DivergenceReport, culprits,
                 allow_restart: bool = True):
        """Apply the degradation policy to a condemned variant set.

        Returns a :class:`Kill` directive when the whole run must die
        (the default policy, no quorum, master condemned, or too few
        survivors), or ``None`` when every culprit was quarantined and
        the remaining set continues.
        """
        mode = self.policy.degradation
        if mode == "kill-all":
            mode = "kill"
        culprits = set(culprits or ())
        survivors = self.active - culprits
        if (mode not in ("quarantine", "restart")
                or not culprits
                or 0 in culprits
                or len(survivors) < max(self.policy.min_active, 1)):
            return self._kill(report)
        for variant in sorted(culprits):
            self._quarantine(variant, report,
                             restart=(mode == "restart" and allow_restart))
        return None

    def _quarantine(self, variant: int, report: DivergenceReport,
                    restart: bool = False) -> None:
        """Demote one variant: kill its threads, keep the rest running."""
        self.active.discard(variant)
        self._catchup.discard(variant)
        machine = self._machine
        event = QuarantineEvent(
            variant=variant, report=report,
            at_cycles=machine.now if machine is not None else 0.0)
        self.quarantine_log.append(event)
        if machine is not None:
            machine.terminate_variant(variant)
        if self.hooks is not None:
            self.hooks.variant_quarantined(variant, report.kind.value,
                                           report.thread,
                                           report.syscall_seq)
        if (restart and self._restart_cb is not None
                and machine is not None
                and self._restart_counts.get(variant, 0)
                < max(self.policy.max_restarts, 0)):
            self._restart_counts[variant] = (
                self._restart_counts.get(variant, 0) + 1)
            event.restarted = True
            machine.call_soon(
                lambda m, v=variant: self._restart_cb(v))
        # Rendezvous blocked on the demoted variant can now complete.
        for rdv_key in list(self._rendezvous):
            self._wake(("rdv", rdv_key))

    def _vote(self, observations: dict[int, Any]):
        """Majority vote over per-variant observations.

        Returns the minority variant set to condemn, or ``None`` when no
        strict majority exists (vote tie ⇒ no quorum ⇒ kill fallback).
        """
        groups: dict[Any, set[int]] = {}
        for variant, observed in observations.items():
            groups.setdefault(observed, set()).add(variant)
        winners = max(groups.values(), key=len)
        if 2 * len(winners) <= len(observations):
            return None
        return set(observations) - winners

    def master_seq_snapshot(self) -> dict[str, int]:
        """Master's completed monitored calls per logical thread.

        This is what a checkpoint pins as the fast-forward frontier:
        history entries below it predate the snapshot and can be served
        to a resyncing variant at zero monitor cost.
        """
        return {thread: seq for (variant, thread), seq
                in self._seq.items() if variant == 0}

    def readmit(self, variant: int) -> None:
        """Re-admit a rebuilt variant (restart): wipe its per-variant
        state so it resyncs from the retained master history."""
        self.active.add(variant)
        self._catchup.add(variant)
        self._caught_up_announced.discard(variant)
        stats = self.resync_stats.setdefault(
            variant, {"mode": self.policy.resync_mode, "restarts": 0,
                      "fast_forwarded": 0, "resynced": 0})
        stats["restarts"] += 1
        frontier: dict[str, int] = {}
        if (self.policy.resync_mode == "checkpoint"
                and self.checkpoints is not None):
            latest = self.checkpoints.latest()
            if latest is not None:
                frontier = dict(latest.master_seq)
        self._ff_frontier[variant] = frontier
        for table in (self._seq, self._current, self._stream_count,
                      self._exited):
            for key in [k for k in table if k[0] == variant]:
                del table[key]
        # Align the replacement's blocking-call streams with the
        # master's publish counters: history-covered blocking calls are
        # served as spurious wakeups (see _before_stream), so once live
        # the replacement must consume *new* publishes, not the
        # master's already-drained backlog.
        for (owner, thread_logical), count in list(
                self._stream_count.items()):
            if owner == 0:
                self._stream_count[(variant, thread_logical)] = count
        self.orderer.reset_variant(variant)

    def _rdv_expected(self, rdv_key) -> set[int]:
        """Which variants a rendezvous must wait for.

        A restarted variant serves history-covered calls outside the
        live rendezvous, so live completion must not wait for it there.
        """
        if not self._catchup or self._history is None:
            return self.active
        if rdv_key in self._history:
            return {v for v in self.active if v not in self._catchup}
        return self.active

    # -- watchdog ---------------------------------------------------------

    def _arm_watchdog(self, rdv_key, deadline: float) -> None:
        self._machine.schedule_watchdog(
            deadline,
            lambda machine, time, key=rdv_key:
                self._watchdog_fire(key, time))

    def _watchdog_cause(self) -> str:
        """Classify a watchdog timeout for the diagnosis detail.

        ``deadlock-suspected`` when at least two variants are wedged on
        futex words — replicated sync ordering wedges every variant
        identically, so multi-variant futex blockage at the deadline is
        the guest-deadlock signature; ``stall`` otherwise (one slow or
        wedged variant).  Runs with a deadlock detector attached never
        reach this path: the cycle is flagged at formation.
        """
        vms = getattr(self._machine, "vms", None) or ()
        wedged = 0
        for vm in vms:
            # The master's deadlocked threads park on futex words; its
            # slaves park on the blocking-call *streams* of those same
            # calls (the master never publishes a result).  Either way,
            # >= 2 threads wedged in blocking sync is the hold-and-wait
            # signature; join/timer parks don't count.
            parked = sum(
                1 for thread in vm.threads.values()
                if thread.park_key is not None
                and thread.park_key[0] in ("futex", "stream"))
            if parked >= 2:
                wedged += 1
        return "deadlock-suspected" if wedged >= 2 else "stall"

    def _watchdog_fire(self, rdv_key, time: float) -> None:
        """Rendezvous deadline elapsed: diagnose who never arrived."""
        if self.divergence is not None:
            return
        rdv = self._rendezvous.get(rdv_key)
        if rdv is None or rdv.compared:
            return
        expected = self._rdv_expected(rdv_key)
        missing = expected - set(rdv.arrivals)
        if not missing:
            return
        if (missing <= self._catchup
                and self._rearm_count.get(rdv_key, 0)
                < _MAX_WATCHDOG_REARMS):
            # Only resyncing variants are late: extend the deadline
            # rather than re-condemning a variant we just restarted.
            self._rearm_count[rdv_key] = (
                self._rearm_count.get(rdv_key, 0) + 1)
            self._arm_watchdog(rdv_key,
                               time + self.policy.watchdog_cycles)
            return
        self._machine.commit_time(time)
        thread_logical, seq = rdv_key
        call_name = next((arrival[0]
                          for arrival in rdv.arrivals.values()), "?")
        observations = {v: rdv.arrivals.get(v, "<never arrived>")
                        for v in sorted(self.active)}
        report = DivergenceReport(
            kind=DivergenceKind.WATCHDOG_TIMEOUT,
            thread=thread_logical, syscall_seq=seq,
            detail=(f"variant(s) {sorted(missing)} failed to reach "
                    f"monitored call #{seq} ({call_name}) within the "
                    f"{self.policy.watchdog_cycles:.0f}-cycle "
                    "rendezvous deadline "
                    f"[cause: {self._watchdog_cause()}]"),
            observations=observations)
        if self.hooks is not None:
            self.hooks.watchdog_timeout(thread_logical, seq,
                                        sorted(missing))
        directive = self._resolve(report, culprits=missing)
        if directive is not None:
            self._machine.kill_all(report)

    def _stream_watchdog_fire(self, stream_key, time: float) -> None:
        """The master never published a blocking-call result in time.

        The publisher is the master — the one variant wired to real I/O
        — so there is nothing to quarantine: diagnose and kill.
        """
        if self.divergence is not None:
            return
        if stream_key in self._stream:
            return
        if not self._machine.has_waiters(("stream", stream_key)):
            return
        if self.quarantine_log:
            # Degraded set: the quarantine perturbed the survivors'
            # scheduling, so a slave may legitimately block where the
            # master never publishes.  Blocking calls are spurious-wake
            # safe, so recover the waiters instead of killing the run
            # we just fought to keep alive.
            self._machine.commit_time(time)
            self._stream_spurious.add(stream_key)
            self._stream_armed.discard(stream_key)
            self._wake(("stream", stream_key))
            return
        self._machine.commit_time(time)
        thread_logical, index = stream_key
        report = DivergenceReport(
            kind=DivergenceKind.WATCHDOG_TIMEOUT,
            thread=thread_logical, syscall_seq=index,
            detail=(f"master never published blocking-call result "
                    f"#{index} for thread {thread_logical!r} within the "
                    f"{self.policy.watchdog_cycles:.0f}-cycle deadline "
                    "(master-side hang: lost wake or stalled blocking "
                    f"call) [cause: {self._watchdog_cause()}]"),
            observations={0: "<blocking call never returned>"})
        if self.hooks is not None:
            self.hooks.watchdog_timeout(thread_logical, index, [0])
        self.divergence = report
        self._machine.kill_all(report)

    # -- interceptor: before --------------------------------------------------

    def before_syscall(self, vm, thread, name: str, args: tuple):
        if self.divergence is not None:
            # A divergence was flagged asynchronously (thread-exit check);
            # any thread reaching the monitor now is killed.
            return Kill(report=self.divergence)
        if vm.index not in self.active:  # pragma: no cover - defensive
            return Proceed()
        spec = spec_for(name)
        if name == MVEE_GET_ROLE:
            # The self-awareness pseudo-syscall: answered by the monitor,
            # never forwarded to the kernel (Section 4.5).
            return Result(vm.index, cost=self.costs.syscall_base)
        if spec.stream_replicated:
            return self._before_stream(vm, thread, name, args, spec)
        info = self._call_info(vm, thread, name)
        hooks = self.hooks
        if hooks is not None and not info.observed:
            info.observed = True
            hooks.monitored_call(vm.index, thread.logical_id, name,
                                 spec.cls.value, info.seq)
        base_cost = 0.0
        if not info.overhead_charged:
            base_cost += self.costs.monitor_syscall_overhead
            info.overhead_charged = True
        if self._catchup and vm.index in self._catchup:
            served = self._serve_from_history(vm, thread, name, args,
                                              spec, info, base_cost)
            if served is not None:
                return served
        lockstep = self.policy.is_locksteped(spec)
        rdv_key = (thread.logical_id, info.seq)
        if lockstep:
            rdv = self._rendezvous.get(rdv_key)
            if rdv is None:
                rdv = _Rendezvous(expected=self.n_variants)
                self._rendezvous[rdv_key] = rdv
                if (self.policy.watchdog_cycles is not None
                        and self._machine is not None):
                    self._arm_watchdog(
                        rdv_key,
                        self._machine.now + self.policy.watchdog_cycles)
            if not info.registered:
                rdv.arrivals[vm.index] = (name,
                                          normalize_args(spec, args))
                info.registered = True
                if hooks is not None:
                    hooks.rendezvous_arrive(rdv_key, vm.index,
                                            thread.logical_id)
                mismatch = self._check_exited_twins(vm, thread, info.seq)
                if mismatch is not None:
                    return mismatch
                if vm.index not in self.active:
                    # The exit-mismatch vote condemned this caller.
                    return Proceed()
            if not (self._rdv_expected(rdv_key)
                    <= rdv.arrivals.keys()):
                return Wait(("rdv", rdv_key),
                            cost=base_cost + self.costs.rendezvous_recheck)
            if not rdv.compared:
                rdv.compared = True
                self._wake(("rdv", rdv_key))
                relevant = {v: arrival
                            for v, arrival in rdv.arrivals.items()
                            if v in self.active}
                observed = set(relevant.values())
                if hooks is not None:
                    hooks.rendezvous_complete(rdv_key, vm.index,
                                              thread.logical_id,
                                              len(observed) <= 1)
                if len(observed) > 1:
                    culprits = self._vote(relevant)
                    report = DivergenceReport(
                        kind=DivergenceKind.SYSCALL_MISMATCH,
                        thread=thread.logical_id,
                        syscall_seq=info.seq,
                        detail="lockstep argument comparison failed",
                        observations=dict(rdv.arrivals))
                    directive = self._resolve(report, culprits)
                    if directive is not None:
                        return directive
                    if vm.index not in self.active:
                        # This caller was the outvoted minority; its
                        # threads are already terminated.
                        return Proceed()
        if spec.ordered and self.policy.order_syscalls:
            outcome = self.orderer.check(vm.index, thread.logical_id,
                                         thread.global_id)
            if isinstance(outcome, Wait):
                if hooks is not None:
                    hooks.clock_stall(vm.index, thread.logical_id,
                                      outcome.key)
                outcome.cost += base_cost + self.costs.ordering_bookkeeping
                return outcome
            base_cost += self.costs.ordering_bookkeeping
        if spec.replicated and vm.index != 0:
            rdv = self._rendezvous.get(rdv_key)
            if rdv is None:
                rdv = _Rendezvous(expected=self.n_variants)
                self._rendezvous[rdv_key] = rdv
            if not rdv.result_ready:
                return Wait(("result", rdv_key),
                            cost=base_cost + self.costs.rendezvous_recheck)
            if spec.ordered and self.policy.order_syscalls:
                # The slave never executes locally, so after_syscall
                # never runs for it: advance its Lamport clock here or
                # every later ordered call of this variant stalls.
                self.orderer.finish(vm.index, thread.logical_id,
                                    thread.global_id)
            vm.kernel.apply_replicated(name, args, rdv.result)
            self._finish_call(vm, thread)
            return Result(rdv.result,
                          cost=base_cost + self.costs.replication_copy)
        return Proceed(cost=base_cost)

    def _before_stream(self, vm, thread, name, args, spec):
        """Blocking-call streams (futex / nanosleep): Section 4.1 footnote."""
        if vm.index == 0:
            return Proceed()
        key = (vm.index, thread.logical_id)
        index = self._stream_count.get(key, 0)
        stream_key = (thread.logical_id, index)
        if stream_key not in self._stream:
            if stream_key in self._stream_spurious:
                # Declared unservable after a quarantine perturbed the
                # schedule: serve a spurious wakeup (no consumption, so
                # the counter stays aligned with the master's stream).
                return Result(0, cost=self.costs.replication_copy)
            if self._catchup and vm.index in self._catchup:
                # Restart resync: the replacement's local blocking
                # pattern need not match the master's historical one,
                # so it may block where the master never published.
                # Blocking calls are spurious-wake safe by contract
                # (futex loops re-check their predicate, nanosleep may
                # be cut short), so serve an immediate spurious wakeup
                # instead of waiting on a result that may never come.
                return Result(0, cost=self.costs.replication_copy)
            if self.hooks is not None:
                self.hooks.stream_wait(vm.index, thread.logical_id, index)
            if (self.policy.watchdog_cycles is not None
                    and self._machine is not None
                    and stream_key not in self._stream_armed):
                self._stream_armed.add(stream_key)
                self._machine.schedule_watchdog(
                    self._machine.now + self.policy.watchdog_cycles,
                    lambda machine, time, skey=stream_key:
                        self._stream_watchdog_fire(skey, time))
            return Wait(("stream", stream_key))
        self._stream_count[key] = index + 1
        return Result(self._stream[stream_key],
                      cost=self.costs.replication_copy)

    def _check_exited_twins(self, vm, thread, seq: int):
        """Did this thread's twin already exit in another variant?"""
        exited = set()
        for variant in self.active:
            if variant == vm.index:
                continue
            final = self._exited.get((variant, thread.logical_id))
            if final is not None and final <= seq:
                exited.add(variant)
        if not exited:
            return None
        still_calling = self.active - exited
        # Majority heuristic: condemn whichever side is the minority
        # (ties and a condemned master fall back to kill in _resolve).
        if len(exited) >= len(still_calling):
            culprits = still_calling
        else:
            culprits = exited
        report = DivergenceReport(
            kind=DivergenceKind.THREAD_EXIT_MISMATCH,
            thread=thread.logical_id,
            syscall_seq=seq,
            detail=(f"thread exited in variant(s) {sorted(exited)} but "
                    f"its twin in {sorted(still_calling)} made call "
                    f"#{seq}"))
        return self._resolve(report, culprits)

    # -- restart resync ---------------------------------------------------

    def _mark_caught_up(self, variant: int) -> None:
        """First history miss after a restart: the variant is live again."""
        if variant in self._caught_up_announced:
            return
        self._caught_up_announced.add(variant)
        if self.hooks is not None:
            self.hooks.variant_caught_up(variant)

    def _is_fast_forward(self, variant: int, thread_logical: str,
                         seq: int) -> bool:
        """Is this history call below the checkpoint frontier?

        Fast-forwarded calls keep their ordering semantics (the Lamport
        clock still decides FD allocation order) but charge zero monitor
        cost — the checkpoint already vouches for everything before it.
        """
        frontier = self._ff_frontier.get(variant)
        if not frontier:
            return False
        return seq < frontier.get(thread_logical, 0)

    def _count_resync(self, variant: int, fast: bool) -> None:
        stats = self.resync_stats.get(variant)
        if stats is not None:
            stats["fast_forwarded" if fast else "resynced"] += 1

    def _serve_from_history(self, vm, thread, name, args, spec, info,
                            base_cost: float):
        """Resync a restarted variant from the retained master history.

        Returns ``None`` when the call is not covered by history — the
        variant has caught up and rejoins the live lockstep protocol.
        """
        key = (thread.logical_id, info.seq)
        entry = self._history.get(key)
        if entry is None:
            self._mark_caught_up(vm.index)
            return None
        fast = self._is_fast_forward(vm.index, thread.logical_id,
                                     info.seq)
        if fast:
            base_cost = 0.0
        if (name, normalize_args(spec, args)) != entry["call"]:
            report = DivergenceReport(
                kind=DivergenceKind.SYSCALL_MISMATCH,
                thread=thread.logical_id, syscall_seq=info.seq,
                detail=(f"restarted variant {vm.index} diverged from "
                        "the recorded master history while resyncing"),
                observations={0: entry["call"],
                              vm.index: (name,
                                         normalize_args(spec, args))})
            directive = self._resolve(report, culprits={vm.index},
                                      allow_restart=False)
            return directive if directive is not None else Proceed()
        if spec.ordered and self.policy.order_syscalls:
            outcome = self.orderer.check(vm.index, thread.logical_id,
                                         thread.global_id)
            if isinstance(outcome, Wait):
                if self.hooks is not None:
                    self.hooks.clock_stall(vm.index, thread.logical_id,
                                           outcome.key)
                if not fast:
                    outcome.cost += (base_cost
                                     + self.costs.ordering_bookkeeping)
                return outcome
            if not fast:
                base_cost += self.costs.ordering_bookkeeping
        if entry["replicated"]:
            if spec.ordered and self.policy.order_syscalls:
                self.orderer.finish(vm.index, thread.logical_id,
                                    thread.global_id)
            vm.kernel.apply_replicated(name, args, entry["result"])
            self._finish_call(vm, thread)
            self._count_resync(vm.index, fast)
            copy_cost = 0.0 if fast else self.costs.replication_copy
            return Result(entry["result"], cost=base_cost + copy_cost)
        # Execute-all call: run it locally; _after_from_history compares.
        return Proceed(cost=base_cost)

    def _after_from_history(self, vm, thread, name, spec, info, entry,
                            result):
        """Completion of a history-served execute-all call."""
        fast = self._is_fast_forward(vm.index, thread.logical_id,
                                     info.seq)
        cost = 0.0
        if spec.ordered and self.policy.order_syscalls:
            self.orderer.finish(vm.index, thread.logical_id,
                                thread.global_id)
            if not fast:
                cost += self.costs.ordering_bookkeeping
        expected_repr = entry.get("result_repr")
        if (self.policy.compare_results and expected_repr is not None
                and repr(result) != expected_repr):
            self._finish_call(vm, thread)
            report = DivergenceReport(
                kind=DivergenceKind.RESULT_MISMATCH,
                thread=thread.logical_id, syscall_seq=info.seq,
                detail=(f"restarted variant {vm.index}: {name} result "
                        "diverged from the recorded master history"),
                observations={0: expected_repr, vm.index: repr(result)})
            directive = self._resolve(report, culprits={vm.index},
                                      allow_restart=False)
            return directive if directive is not None else Proceed()
        self._finish_call(vm, thread)
        self._count_resync(vm.index, fast)
        return Proceed(cost=cost)

    # -- interceptor: after -------------------------------------------------------

    def after_syscall(self, vm, thread, name: str, args: tuple, result):
        if self.divergence is not None:
            return Kill(report=self.divergence)
        spec = spec_for(name)
        if spec.stream_replicated:
            if vm.index == 0:
                key = (vm.index, thread.logical_id)
                index = self._stream_count.get(key, 0)
                self._stream_count[key] = index + 1
                stream_key = (thread.logical_id, index)
                self._stream[stream_key] = result
                self._wake(("stream", stream_key))
                if self.hooks is not None:
                    self.hooks.stream_publish(vm.index, thread.logical_id,
                                              index)
            return Proceed(cost=self.costs.replication_copy)
        info = self._current.get((vm.index, thread.logical_id))
        if info is None:  # pragma: no cover - defensive
            return Proceed()
        if self._catchup and vm.index in self._catchup:
            entry = self._history.get((thread.logical_id, info.seq))
            if entry is not None:
                return self._after_from_history(vm, thread, name, spec,
                                                info, entry, result)
        rdv_key = (thread.logical_id, info.seq)
        cost = 0.0
        if spec.ordered and self.policy.order_syscalls:
            timestamp = self.orderer.finish(vm.index, thread.logical_id,
                                            thread.global_id)
            cost += self.costs.ordering_bookkeeping
            if self.hooks is not None and vm.index == 0:
                self.hooks.clock_tick(vm.index, thread.logical_id,
                                      timestamp)
        if spec.replicated and vm.index == 0:
            rdv = self._rendezvous.get(rdv_key)
            if rdv is None:
                rdv = _Rendezvous(expected=self.n_variants)
                self._rendezvous[rdv_key] = rdv
            rdv.result = result
            rdv.result_ready = True
            self._wake(("result", rdv_key))
            cost += self.costs.replication_copy
        elif (not spec.replicated and self.policy.compare_results
                and self.policy.is_locksteped(spec)
                and not spec.address_result):
            rdv = self._rendezvous.get(rdv_key)
            if rdv is not None:
                rdv.local_results[vm.index] = result
                relevant = {v: r
                            for v, r in rdv.local_results.items()
                            if v in self.active}
                if (len(relevant) >= len(self.active)
                        and len(set(map(repr, relevant.values()))) > 1):
                    culprits = self._vote(
                        {v: repr(r) for v, r in relevant.items()})
                    self._finish_call(vm, thread)
                    report = DivergenceReport(
                        kind=DivergenceKind.RESULT_MISMATCH,
                        thread=thread.logical_id,
                        syscall_seq=info.seq,
                        detail=f"{name} returned differing results",
                        observations=dict(rdv.local_results))
                    directive = self._resolve(report, culprits)
                    if directive is not None:
                        return directive
                    return Proceed(cost=cost)
        if self._history is not None and vm.index == 0:
            self._history[(thread.logical_id, info.seq)] = {
                "call": (name, normalize_args(spec, args)),
                "replicated": spec.replicated,
                "result": result if spec.replicated else None,
                "result_repr": (repr(result)
                                if (not spec.replicated
                                    and not spec.address_result)
                                else None),
            }
        self._finish_call(vm, thread)
        return Proceed(cost=cost)

    # -- interceptor: lifecycle ------------------------------------------------------

    def on_thread_exit(self, vm, thread) -> None:
        if vm.index not in self.active:
            return
        key = (vm.index, thread.logical_id)
        self._exited[key] = self._seq.get(key, 0)
        final = self._exited[key]
        # If twins in other variants are parked at a rendezvous this thread
        # will never join, that is a divergence; find and flag it.
        for (logical, seq), rdv in list(self._rendezvous.items()):
            if logical != thread.logical_id or seq < final:
                continue
            waiting = {v for v in rdv.arrivals
                       if v in self.active and v != vm.index}
            if not waiting:
                continue
            report = DivergenceReport(
                kind=DivergenceKind.THREAD_EXIT_MISMATCH,
                thread=logical,
                syscall_seq=seq,
                detail=(f"variant {vm.index} thread exited but twins "
                        f"are waiting at monitored call #{seq}"),
                observations=dict(rdv.arrivals))
            directive = self._resolve(report, culprits={vm.index})
            if directive is not None:
                # Wake the waiters; their next before_syscall sees the
                # divergence and the kill flag.
                self._wake(("rdv", (logical, seq)))
            return

    def on_fault(self, vm, thread, exc):
        report = DivergenceReport(
            kind=DivergenceKind.VARIANT_FAULT,
            thread=thread.logical_id,
            syscall_seq=self._seq.get((vm.index, thread.logical_id), 0),
            detail=f"variant {vm.index} faulted: {exc}",
            observations={vm.index: str(exc)})
        if vm.index not in self.active:  # pragma: no cover - defensive
            return None
        return self._resolve(report, culprits={vm.index})
