"""The DecisionReplayer: re-drive a run from its decision log.

Attached via ``MVEE(..., replay=replayer)``, it consumes the log's
single global record queue in commit order:

* RNG draws are *fed from the log* (:class:`ReplayRandom`), so the
  replay machine's own seed never matters — this is what makes replay
  bit-identical;
* the sync-op, syscall and futex-wake events it takes from the observer
  bus (:mod:`repro.obs.bus`) are only *verified* against the next
  expected record: the first mismatch (or early exhaustion) is captured
  once as :class:`ReplayMismatch`, published on the bus as
  ``replay_diverged``, and the replayer degrades to passthrough —
  raising from inside machine dispatch would corrupt the very run the
  forensics want to look at.  The RNG substitution is the only way the
  replayer steers the run.

``handoff_at`` supports checkpoint resume: the replayer drives the run
verbatim through the first ``handoff_at`` records, then goes live
(draws fall through to the real RNG — the caller restores its state
from the checkpoint).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.replay.log import DecisionLog


@dataclass
class ReplayMismatch:
    """The first point where the live run left the recorded stream."""

    step: int            # machine step index at divergence
    index: int           # record index into the log
    expected: dict | None  # what the log said (None: log exhausted)
    actual: dict         # what the run did

    def describe(self) -> str:
        expected = ("log exhausted" if self.expected is None
                    else f"expected {self.expected}")
        return (f"replay diverged at step {self.step} "
                f"(record {self.index}): {expected}, got {self.actual}")


class ReplayRandom:
    """Feed scheduler draws from the log; fall back to a real RNG when
    the replayer goes live (checkpoint handoff or divergence).

    The replayer may carry a ``pending_rng_state`` (from a checkpoint):
    it is applied to the fallback RNG lazily, right before the first
    live draw, so the handoff is exact even if the event that crossed
    the handoff index also draws randomness.
    """

    def __init__(self, replayer: "DecisionReplayer", fallback):
        self._replayer = replayer
        self._fallback = fallback

    def _live_rng(self):
        state = self._replayer.pending_rng_state
        if state is not None:
            self._fallback.setstate(state)
            self._replayer.pending_rng_state = None
        return self._fallback

    def randrange(self, *args):
        return self._replayer.draw(
            "randrange", lambda: self._live_rng().randrange(*args))

    def uniform(self, a, b):
        return self._replayer.draw(
            "uniform", lambda: self._live_rng().uniform(a, b))

    def random(self):
        return self._replayer.draw(
            "random", lambda: self._live_rng().random())

    def getstate(self):
        return self._fallback.getstate()

    def setstate(self, state):
        self._fallback.setstate(state)

    def __getattr__(self, name):
        return getattr(self._fallback, name)


def _strip_index(record: dict) -> dict:
    return {key: value for key, value in record.items() if key != "i"}


@dataclass
class DecisionReplayer:
    """Observer consuming a :class:`DecisionLog` in commit order."""

    log: DecisionLog
    #: Record index at which to stop replaying and go live (checkpoint
    #: resume).  None = replay and verify the entire log.
    handoff_at: int | None = None
    mode: str = field(default="replay", init=False)
    pos: int = field(default=0, init=False)
    steps: int = field(default=0, init=False)
    live: bool = field(default=False, init=False)
    verified: int = field(default=0, init=False)
    first_divergence: ReplayMismatch | None = field(default=None,
                                                    init=False)
    #: The observer bus, set by the MVEE; a divergence is published on
    #: it as ``replay_diverged``.
    hooks = None
    #: Checkpoint resume: RNG state to hand the live RNG at handoff
    #: (applied lazily by :class:`ReplayRandom`).
    pending_rng_state = None
    #: Checkpoint resume: a :class:`DecisionRecorder` that takes over
    #: once live, so the resumed run keeps extending the same log with
    #: no decision lost in the handoff window.
    tail_recorder = None

    def __post_init__(self):
        if self.handoff_at is not None and self.handoff_at <= 0:
            self.live = True

    # -- cursor ------------------------------------------------------------

    def _peek(self) -> dict | None:
        if self.pos < len(self.log.records):
            return self.log.records[self.pos]
        return None

    def _advance(self) -> None:
        self.pos += 1
        if self.handoff_at is not None and self.pos >= self.handoff_at:
            self.live = True

    def _diverged(self, expected: dict | None, actual: dict) -> None:
        if self.first_divergence is None:
            self.first_divergence = ReplayMismatch(
                step=self.steps, index=self.pos, expected=expected,
                actual=actual)
            if self.hooks is not None:
                self.hooks.replay_diverged(self.steps, self.pos)
        # Desynced: stop steering/verifying, let the run limp on live.
        self.live = True

    # -- bus events --------------------------------------------------------

    def step_committed(self, variant: int, thread_global: str,
                       thread: str, kind: str, duration: float) -> None:
        self.steps += 1
        if self.tail_recorder is not None:
            self.tail_recorder.steps = self.steps

    def draw(self, method: str, fallback):
        if self.live:
            value = fallback()
            if self.tail_recorder is not None:
                self.tail_recorder.on_rng(method, value)
            return value
        record = self._peek()
        if (record is None or record.get("k") != "rng"
                or record.get("m") != method):
            self._diverged(record, {"k": "rng", "m": method})
            return fallback()
        self._advance()
        self.verified += 1
        return record["v"]

    def _verify(self, actual: dict) -> None:
        record = self._peek()
        if record is None or _strip_index(record) != actual:
            self._diverged(record, actual)
            return
        self._advance()
        self.verified += 1

    def sync_op(self, vm, thread, event, value) -> None:
        if vm.index != 0:
            return
        if self.live:
            if self.tail_recorder is not None:
                self.tail_recorder.sync_op(vm, thread, event, value)
            return
        self._verify({"k": "sync", "t": thread.logical_id, "o": event.op,
                      "s": event.site, "v": value})

    def syscall_committed(self, variant: int, thread: str, name: str,
                          result) -> None:
        if variant != 0:
            return
        if self.live:
            if self.tail_recorder is not None:
                self.tail_recorder.syscall_committed(variant, thread,
                                                     name, result)
            return
        self._verify({"k": "sys", "t": thread, "n": name,
                      "r": repr(result)})

    def futex_wake(self, variant: int, addr: int, woken: list,
                   waker: str | None) -> None:
        if variant != 0 or not woken:
            return
        if self.live:
            if self.tail_recorder is not None:
                self.tail_recorder.futex_wake(variant, addr, woken, waker)
            return
        self._verify({"k": "wake", "a": addr, "w": list(woken)})

    # -- outcome -----------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """All records consumed (a complete, faithful replay)."""
        return self.pos >= len(self.log.records)

    def faithful(self) -> bool:
        """True when the whole log was re-enacted without divergence."""
        return self.first_divergence is None and self.exhausted
