"""Machine checkpoints: periodic, timeline-neutral state snapshots.

Guest threads are Python generators and cannot be pickled, so a
checkpoint is *log-positional*, not a memory image: it pins

* the decision-log position (``decision_index``) and the scheduler RNG
  state at that position — enough to resume a recorded run by replaying
  the log prefix and handing the live RNG back its saved state;
* the master's per-thread completed-call counts (``master_seq``) — the
  *fast-forward frontier* the restart policy uses to resync a
  replacement variant from the nearest checkpoint instead of replaying
  full master history at full cost (``MonitorPolicy.resync_mode``);
* a diagnostic machine fingerprint (thread states, futex queues, buffer
  cursors, vector clocks via agent state, event counters) used by
  forensics and the checkpoint CLI.

The :class:`Checkpointer` fires off the machine's *watchdog* event
lane, which is exempt from the cycle clock and event budget: arming it
moves no simulated cycle (pinned in ``test_determinism.py``).  It stops
re-arming once nothing but its own probes is left on the event heap
(finished, deadlocked, or stalled machine), and skips duplicate
snapshots across probes that observed no progress.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from repro.errors import ReplayError

#: Default snapshot cadence in simulated cycles.
DEFAULT_EVERY_CYCLES = 250_000.0

STORE_KIND = "repro-checkpoints"
STORE_FORMAT = 1


def encode_rng_state(state):
    """``random.Random.getstate()`` -> JSON-safe (tuples -> lists)."""
    if isinstance(state, tuple):
        return [encode_rng_state(item) for item in state]
    return state


def decode_rng_state(data):
    """JSON round-trip -> the tuple shape ``setstate`` demands."""
    if isinstance(data, list):
        return tuple(decode_rng_state(item) for item in data)
    return data


@dataclass
class CheckpointPolicy:
    """When to snapshot."""

    every_cycles: float = DEFAULT_EVERY_CYCLES


@dataclass
class Checkpoint:
    """One snapshot; JSON-safe throughout."""

    index: int
    at_cycles: float
    #: Machine steps committed when taken (None without a recorder).
    steps: int | None
    #: Decision-log records written when taken (None without a recorder).
    decision_index: int | None
    #: Encoded scheduler RNG state at that log position.
    rng_state: list | None
    #: Master thread logical id -> completed monitored calls.
    master_seq: dict = field(default_factory=dict)
    #: Diagnostic machine-state fingerprint.
    fingerprint: dict = field(default_factory=dict)

    def digest(self) -> str:
        payload = json.dumps(
            {"index": self.index, "at_cycles": self.at_cycles,
             "steps": self.steps, "decision_index": self.decision_index,
             "rng_state": self.rng_state, "master_seq": self.master_seq,
             "fingerprint": self.fingerprint},
            sort_keys=True, separators=(",", ":"), default=repr)
        return "sha256:" + hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> dict:
        return {"index": self.index, "at_cycles": self.at_cycles,
                "steps": self.steps,
                "decision_index": self.decision_index,
                "rng_state": self.rng_state,
                "master_seq": dict(self.master_seq),
                "fingerprint": self.fingerprint,
                "digest": self.digest()}

    @classmethod
    def from_dict(cls, data: dict) -> "Checkpoint":
        try:
            ckpt = cls(index=data["index"], at_cycles=data["at_cycles"],
                       steps=data.get("steps"),
                       decision_index=data.get("decision_index"),
                       rng_state=data.get("rng_state"),
                       master_seq=dict(data.get("master_seq") or {}),
                       fingerprint=dict(data.get("fingerprint") or {}))
        except (KeyError, TypeError) as exc:
            raise ReplayError(f"malformed checkpoint record: {exc}") \
                from exc
        recorded = data.get("digest")
        if recorded is not None and recorded != ckpt.digest():
            raise ReplayError(
                f"checkpoint {ckpt.index} digest mismatch "
                f"(file {recorded}, computed {ckpt.digest()})")
        return ckpt


class CheckpointStore:
    """An ordered list of checkpoints, optionally persisted as JSON."""

    def __init__(self, path: str | None = None):
        self.path = path
        self.checkpoints: list[Checkpoint] = []

    def __len__(self) -> int:
        return len(self.checkpoints)

    def add(self, checkpoint: Checkpoint) -> None:
        self.checkpoints.append(checkpoint)
        if self.path:
            self.persist()

    def latest(self) -> Checkpoint | None:
        return self.checkpoints[-1] if self.checkpoints else None

    def to_dict(self) -> dict:
        return {"kind": STORE_KIND, "format": STORE_FORMAT,
                "checkpoints": [c.to_dict() for c in self.checkpoints]}

    def persist(self) -> None:
        tmp = f"{self.path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.to_dict(), handle, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    @classmethod
    def load(cls, path: str) -> "CheckpointStore":
        try:
            with open(path) as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ReplayError(f"cannot read checkpoint store {path!r}: "
                              f"{exc.strerror or exc}") from exc
        except ValueError as exc:
            raise ReplayError(f"checkpoint store {path!r} is not valid "
                              f"JSON: {exc}") from exc
        if not isinstance(data, dict) or data.get("kind") != STORE_KIND:
            raise ReplayError(f"{path!r} is not a checkpoint store "
                              f"(missing kind == {STORE_KIND!r})")
        store = cls(path=path)
        for entry in data.get("checkpoints", []):
            store.checkpoints.append(Checkpoint.from_dict(entry))
        return store


def machine_fingerprint(mvee) -> dict:
    """Diagnostic snapshot of live machine state (JSON-safe)."""
    machine = mvee.machine
    threads = {}
    futexes = {}
    syscalls = {}
    sync_ops = {}
    for vm in machine.vms:
        key = str(vm.index)
        threads[key] = {logical: thread.state.name
                        for logical, thread in sorted(vm.threads.items())}
        futexes[key] = vm.kernel.futexes.snapshot()
        syscalls[key] = vm.total_syscalls
        sync_ops[key] = vm.total_sync_ops
    fingerprint = {
        "cycles": machine.now,
        "threads": threads,
        "futexes": futexes,
        "syscalls": syscalls,
        "sync_ops": sync_ops,
    }
    agent = _agent_fingerprint(getattr(mvee, "agent_shared", None))
    if agent:
        fingerprint["agent"] = agent
    return fingerprint


def _agent_fingerprint(shared) -> dict | None:
    """Collect ``fingerprint()``-capable agent state (buffer cursors,
    vector clocks) without knowing any particular agent's layout."""
    if shared is None:
        return None
    out: dict = {}
    for name, value in sorted(vars(shared).items()):
        method = getattr(value, "fingerprint", None)
        if callable(method):
            out[name] = method()
            continue
        if isinstance(value, dict):
            sub = {}
            for key, item in value.items():
                item_fp = getattr(item, "fingerprint", None)
                if callable(item_fp):
                    sub[str(key)] = item_fp()
            if sub:
                out[name] = dict(sorted(sub.items()))
    return out or None


class Checkpointer:
    """Takes snapshots on the machine's watchdog lane."""

    def __init__(self, mvee, policy: CheckpointPolicy | None = None,
                 recorder=None, store: CheckpointStore | None = None):
        self.mvee = mvee
        self.machine = mvee.machine
        self.policy = policy or CheckpointPolicy()
        self.recorder = recorder
        self.store = store if store is not None else CheckpointStore()
        self._last_progress = None

    def arm(self) -> None:
        """Schedule the first probe; call once after the MVEE is built."""
        self.machine.schedule_watchdog(
            self.machine.now + self.policy.every_cycles, self._probe)

    def _progress_marker(self) -> tuple:
        machine = self.machine
        return (machine.now,
                sum(vm.total_syscalls for vm in machine.vms),
                sum(vm.total_sync_ops for vm in machine.vms))

    def _probe(self, machine, time: float) -> None:
        if not any(t.alive for t in machine._threads_by_id.values()):
            return  # run is over; stop re-arming so the heap drains
        if not any(kind != "watchdog" for _, _, kind, _ in machine._heap):
            return  # nothing but probes left (deadlock/stall): stop
        marker = self._progress_marker()
        if marker != self._last_progress:
            # Snapshot only when the run moved since the last probe —
            # a long quiet stretch (one big compute step spanning
            # several cadences) re-arms without stacking duplicates.
            self._last_progress = marker
            self.take()
        machine.schedule_watchdog(time + self.policy.every_cycles,
                                  self._probe)

    def take(self) -> Checkpoint:
        """Snapshot now; appended to (and persisted by) the store."""
        recorder = self.recorder
        monitor = self.mvee.monitor
        seq_of = getattr(monitor, "master_seq_snapshot", None)
        checkpoint = Checkpoint(
            index=len(self.store),
            at_cycles=self.machine.now,
            steps=recorder.steps if recorder is not None else None,
            decision_index=(len(recorder.log.records)
                            if recorder is not None else None),
            rng_state=encode_rng_state(self.machine.rng.getstate()),
            master_seq=seq_of() if callable(seq_of) else {},
            fingerprint=machine_fingerprint(self.mvee),
        )
        self.store.add(checkpoint)
        hooks = self.mvee.hooks
        if hooks is not None:
            hooks.checkpoint_taken(checkpoint.index, checkpoint.at_cycles,
                                   checkpoint.decision_index)
        return checkpoint
