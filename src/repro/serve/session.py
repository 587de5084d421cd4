"""Sessions: one lockstep MVEE execution owned by the serve daemon.

A session binds a workload, agent, variant count, optional fault plan,
and seed — exactly the knobs of a single ``repro run`` invocation — and
can be driven two ways:

* **stepped** (the ``step`` op): the daemon holds the live
  :class:`~repro.core.mvee.MVEE` and advances it in bounded event
  batches via :meth:`MVEE.advance`, streaming verdicts, recovery
  events, and metrics snapshots back after each batch.  Budgeted
  stepping is byte-identical to a one-shot run by construction (the
  event heap is popped in the same order either way).
* **batch** (the ``run`` op): the session is shipped as a pickle-safe
  spec through the shared :class:`repro.par.engine.CellExecutor`, so N
  sessions fan out across one *persistent* worker pool — workers fork
  once at daemon startup demand and serve every later session warm,
  in whichever execution environment the daemon was started with
  (``--env inline|thread|process``) — without breaking per-cell seed
  derivation.

Both paths end in the same result dict, whose ``obs_digest`` (see
:meth:`repro.obs.ObsHub.digest`) is the byte-identity anchor against
single-shot ``repro run`` for the same (workload, agent, seed).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

from repro.errors import BadRequest, SessionConflict
from repro.faults import DEGRADATION_POLICIES as POLICY_NAMES

#: Every state a session can be in.  Transitions:
#: created -> running -> finished | killed       (stepped path)
#: created -> queued -> finished | killed        (batch path)
#: any in-flight state -> quarantined | killed | created   (daemon restart,
#:   per degradation policy — see registry.recover_state)
#: finished | quarantined | killed -> closed
SESSION_STATES = ("created", "running", "queued", "finished",
                  "quarantined", "killed", "closed")

#: States a close() accepts from; everything else must finish or be
#: killed first.
CLOSEABLE_STATES = ("created", "finished", "quarantined", "killed")

AGENT_NAMES = ("none", "total_order", "partial_order", "wall_of_clocks",
               "dmt")

#: Default nginx sizing for serve sessions: short enough that a session
#: completes in milliseconds, long enough to exercise the acceptor pool
#: and produce non-trivial sync traffic.
SHORT_NGINX = {"pool_threads": 2, "connections": 2,
               "requests_per_connection": 1, "work_cycles": 5000.0}


@dataclass(frozen=True)
class SessionSpec:
    """Everything needed to (re)build a session's MVEE, JSON-safe.

    The spec is the unit of persistence: the registry journals it, a
    daemon restart replays it, and the batch path pickles it into a
    worker.  Rebuilding from the same spec reproduces the same
    simulated timeline (seeded determinism), which is what makes
    quarantine-resume converge to the original result.
    """

    workload: str
    agent: str = "wall_of_clocks"
    variants: int = 2
    seed: int = 1
    scale: float = 0.25
    #: Fault plan text as accepted by ``repro run --faults`` (None = no
    #: faults); stored as text and re-parsed so it journals as JSON.
    faults: str | None = None
    fault_seed: int = 0
    policy: str = "kill-all"
    watchdog: float | None = None
    race_detect: bool = False
    #: Restart resync strategy: "history" or "checkpoint" (the latter
    #: needs a checkpointer attached; see MonitorPolicy.resync_mode).
    resync_mode: str = "history"
    #: Workload-specific overrides (nginx: pool_threads, connections,
    #: requests_per_connection, work_cycles).
    params: dict = field(default_factory=dict)
    #: Host trace-context wire dict (``repro.telemetry``): set by the
    #: daemon from the creating request, journaled with the spec, and
    #: pickled into batch workers — so a session's host spans (even
    #: after a daemon crash + resume) carry the original trace_id.
    #: Never a simulated quantity; ``None`` keeps pre-telemetry specs
    #: byte-identical on the wire and in the journal.
    trace: dict | None = None

    def validate(self) -> "SessionSpec":
        from repro.workloads.spec import ALL_SPECS

        if self.workload != "nginx" and self.workload not in ALL_SPECS:
            raise BadRequest(f"unknown workload {self.workload!r} "
                             "(see the 'workloads' op)")
        if self.agent not in AGENT_NAMES:
            raise BadRequest(f"unknown agent {self.agent!r}; expected "
                             "one of " + ", ".join(AGENT_NAMES))
        if self.policy not in POLICY_NAMES:
            raise BadRequest(f"unknown policy {self.policy!r}; expected "
                             "one of " + ", ".join(POLICY_NAMES))
        if self.resync_mode not in ("history", "checkpoint"):
            raise BadRequest(f"unknown resync_mode "
                             f"{self.resync_mode!r}; expected 'history' "
                             "or 'checkpoint'")
        if not 2 <= int(self.variants) <= 16:
            raise BadRequest("variants must be between 2 and 16 "
                             "(an MVEE needs at least two)")
        if not 0.001 <= float(self.scale) <= 4.0:
            raise BadRequest("scale must be between 0.001 and 4.0")
        if self.faults is not None:
            from repro.errors import ConfigError
            from repro.faults import parse_fault_plan

            try:
                parse_fault_plan(self.faults, seed=self.fault_seed,
                                 n_variants=self.variants)
            except ConfigError as exc:
                raise BadRequest(f"bad fault plan: {exc}") from None
        if not isinstance(self.params, dict):
            raise BadRequest("params must be an object")
        if self.trace is not None and not isinstance(self.trace, dict):
            raise BadRequest("trace must be an object (or omitted)")
        return self

    def to_dict(self) -> dict:
        data = {"workload": self.workload, "agent": self.agent,
                "variants": self.variants, "seed": self.seed,
                "scale": self.scale, "faults": self.faults,
                "fault_seed": self.fault_seed, "policy": self.policy,
                "watchdog": self.watchdog,
                "race_detect": self.race_detect,
                "resync_mode": self.resync_mode,
                "params": dict(self.params)}
        if self.trace is not None:
            data["trace"] = dict(self.trace)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SessionSpec":
        if not isinstance(data, dict):
            raise BadRequest("spec must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise BadRequest("unknown spec field(s): "
                             + ", ".join(sorted(extra)))
        if "workload" not in data:
            raise BadRequest("spec needs a 'workload' field")
        try:
            return cls(**data)
        except TypeError as exc:
            raise BadRequest(f"bad spec: {exc}") from None


def build_mvee(spec: SessionSpec, obs=None, replay=None,
               checkpoints=None):
    """Instantiate the MVEE for a spec, plus the native-cycle baseline.

    Mirrors the CLI paths exactly — synthetic twins match ``repro run``
    (``max_cycles = native * 400``), nginx matches
    :func:`repro.experiments.runner.run_nginx_condition` — so a serve
    session's verdict and obs digest are byte-identical to the
    equivalent single-shot command.
    """
    from repro.core.divergence import MonitorPolicy
    from repro.core.mvee import MVEE

    agent = None if spec.agent == "none" else spec.agent
    policy = MonitorPolicy(degradation=spec.policy,
                           watchdog_cycles=spec.watchdog,
                           resync_mode=spec.resync_mode)
    plan = None
    if spec.faults is not None:
        from repro.faults import parse_fault_plan

        plan = parse_fault_plan(spec.faults, seed=spec.fault_seed,
                                n_variants=spec.variants)
    detector = None
    if spec.race_detect:
        from repro.races import RaceDetector

        detector = RaceDetector()
    if spec.workload == "nginx":
        from repro.experiments.runner import RACE_SWEEP_COSTS
        from repro.workloads.nginx import (
            NginxConfig,
            NginxServer,
            TrafficStats,
            make_traffic,
        )

        params = dict(SHORT_NGINX)
        params.update(spec.params)
        try:
            config = NginxConfig(**params)
        except TypeError as exc:
            raise BadRequest(f"bad nginx params: {exc}") from None
        stats = TrafficStats()
        mvee = MVEE(NginxServer(config), variants=spec.variants,
                    agent=agent, seed=spec.seed,
                    costs=RACE_SWEEP_COSTS, policy=policy,
                    with_network=True,
                    traffic=make_traffic(config, 0.0, stats),
                    max_cycles=5e9, obs=obs, faults=plan,
                    races=detector, replay=replay,
                    checkpoints=checkpoints)
        return mvee, None
    from repro.experiments.runner import native_cycles
    from repro.workloads.synthetic import make_benchmark

    if spec.params:
        raise BadRequest("params are only accepted for the nginx "
                         "workload")
    native = native_cycles(spec.workload, scale=spec.scale,
                           seed=spec.seed)
    mvee = MVEE(make_benchmark(spec.workload, scale=spec.scale),
                variants=spec.variants, agent=agent, seed=spec.seed,
                policy=policy, max_cycles=native * 400, obs=obs,
                faults=plan, races=detector, replay=replay,
                checkpoints=checkpoints)
    return mvee, native


def outcome_to_result(outcome, native: float | None,
                      obs=None, bundle_path: str | None = None) -> dict:
    """Fold an MVEEOutcome into the JSON result both paths return."""
    result = {
        "verdict": outcome.verdict,
        "cycles": outcome.cycles,
        "syscalls": (outcome.report.total_syscalls
                     if outcome.report is not None else None),
        "sync_ops": (outcome.report.total_sync_ops
                     if outcome.report is not None else None),
        "faults_injected": len(outcome.faults),
        "quarantines": [event.summary() for event in outcome.quarantines],
        "races": (len(outcome.races.races)
                  if outcome.races is not None else 0),
        "divergence": (outcome.divergence.explain()
                       if outcome.divergence is not None else None),
        "obs_digest": obs.digest() if obs is not None else None,
        "bundle": None,
    }
    if native:
        result["slowdown"] = outcome.cycles / native
    if bundle_path and outcome.obs_bundle is not None:
        outcome.obs_bundle.save(bundle_path)
        result["bundle"] = bundle_path
    return result


class Session:
    """One live, step-drivable session inside the daemon.

    The MVEE is built lazily on the first step so that ``create`` stays
    cheap (admission control responds in microseconds) and so a
    batch-mode session never materialises guest state in the daemon
    process.  Each session carries its own lock: steps on one session
    serialize, steps on different sessions proceed concurrently.
    """

    def __init__(self, session_id: str, spec: SessionSpec,
                 max_cycles: float | None = None,
                 bundle_dir: str | None = None,
                 state_dir: str | None = None,
                 checkpoint_every: float | None = None):
        self.id = session_id
        self.spec = spec
        self.state = "created"
        self.max_cycles = max_cycles
        self.bundle_dir = bundle_dir
        #: When both are set, stepped execution records its decision
        #: stream and checkpoints to ``state_dir`` so an interrupted
        #: session can be resumed from checkpoint + log prefix.
        self.state_dir = state_dir
        self.checkpoint_every = checkpoint_every
        #: Set by the registry when on-disk replay artifacts from a
        #: previous daemon incarnation should be resumed.
        self.resume_from_disk = False
        #: Populated after a successful resume (diagnostics).
        self.resumed: dict | None = None
        self.lock = threading.Lock()
        self.result: dict | None = None
        #: CellExecutor ticket while the session is queued (batch path).
        self.ticket: int | None = None
        self.steps = 0
        self.events_processed = 0
        self._mvee = None
        self._hub = None
        self._native = None
        self._recorder = None
        self._writer = None
        self._event_seq = itertools.count()
        self._seen_recovery = 0
        self._seen_races = 0
        self._seen_faults = 0

    @property
    def recording(self) -> bool:
        return (self.state_dir is not None
                and self.checkpoint_every is not None)

    def decision_log_path(self) -> str | None:
        if self.state_dir is None:
            return None
        import os

        return os.path.join(self.state_dir,
                            f"{self.id}.decisions.jsonl")

    def checkpoint_path(self) -> str | None:
        if self.state_dir is None:
            return None
        import os

        return os.path.join(self.state_dir, f"{self.id}.ckpt.json")

    # -- stepped execution ---------------------------------------------------

    def _ensure_mvee(self):
        if self._mvee is not None:
            return None
        from repro.obs import ObsHub

        self._hub = ObsHub(trace=False)
        if self.recording:
            return self._build_recording()
        self._mvee, self._native = build_mvee(self.spec, obs=self._hub)
        self.state = "running"
        return None

    def _build_recording(self):
        """Build (or resume) a recording MVEE; returns a finished
        outcome in the rare case the run completed while replaying a
        resumed prefix."""
        from repro.replay import (
            CheckpointPolicy,
            Checkpointer,
            CheckpointStore,
            DecisionLog,
            DecisionLogWriter,
            DecisionRecorder,
            resume_recorded,
        )

        log_path = self.decision_log_path()
        ckpt_path = self.checkpoint_path()
        outcome = None
        if self.resume_from_disk:
            self.resume_from_disk = False
            handle = resume_recorded(
                self.spec, log_path, ckpt_path,
                checkpoint_every=self.checkpoint_every, hub=self._hub)
            if handle is not None:
                self._mvee = handle.mvee
                self._native = handle.native
                self._recorder = handle.recorder
                self._writer = DecisionLogWriter(log_path, handle.log)
                self.resumed = {
                    "checkpoint": handle.checkpoint.index,
                    "at_cycles": handle.checkpoint.at_cycles,
                    "replayed_records": handle.checkpoint.decision_index,
                    "discarded_records": handle.discarded_records,
                }
                self.state = "running"
                return handle.outcome
        if self._mvee is None:
            log = DecisionLog(spec=self.spec.to_dict(),
                              meta={"session": self.id})
            self._recorder = DecisionRecorder(log)
            self._mvee, self._native = build_mvee(
                self.spec, obs=self._hub, replay=self._recorder)
            checkpointer = Checkpointer(
                self._mvee,
                CheckpointPolicy(every_cycles=self.checkpoint_every),
                recorder=self._recorder,
                store=CheckpointStore(path=ckpt_path))
            self._mvee.checkpointer = checkpointer
            if hasattr(self._mvee.monitor, "checkpoints"):
                self._mvee.monitor.checkpoints = checkpointer.store
            checkpointer.arm()
            self._writer = DecisionLogWriter(log_path, log)
        self.state = "running"
        return outcome

    def step(self, max_events: int) -> dict:
        """Advance by at most ``max_events`` simulator events.

        Returns the step envelope: new events since the previous step
        (faults, recovery actions, races), a live metrics snapshot, and
        — once the run completes — the final result dict.  Caller holds
        ``self.lock``.

        When the spec carries a trace context and host telemetry is
        recording, each step emits one host-time span on the session's
        track, annotated ``resumed`` when the session was rebuilt from
        on-disk replay artifacts — the span keeps the *original*
        trace_id across daemon incarnations because the spec (and its
        trace) is journaled.
        """
        from repro.telemetry.context import TraceContext
        from repro.telemetry.spans import enabled, span

        if self.spec.trace is None or not enabled():
            return self._step_inner(max_events)
        parent = TraceContext.from_dict(self.spec.trace)
        ctx = parent.child() if parent is not None else None
        was_resume = self.resume_from_disk or self.resumed is not None
        with span("session.step", ctx=ctx, service="session",
                  track=f"session {self.id}", session=self.id) as live:
            envelope = self._step_inner(max_events)
            if was_resume or self.resumed is not None:
                live.attrs["resumed"] = True
            live.attrs["steps"] = self.steps
            if envelope.get("done"):
                live.attrs["done"] = True
            return envelope

    def _step_inner(self, max_events: int) -> dict:
        if self.state not in ("created", "running"):
            raise SessionConflict(
                f"session {self.id} is {self.state}; step needs a "
                "created or running session")
        outcome = self._ensure_mvee()
        if outcome is None:
            outcome = self._mvee.advance(max_events)
        if self._writer is not None:
            self._writer.flush()
        self.steps += 1
        self.events_processed += max_events if outcome is None else 0
        envelope = {
            "done": outcome is not None,
            "state": self.state,
            "steps": self.steps,
            "events": self._drain_events(),
            "cycles": self._mvee.machine.now,
        }
        if outcome is not None:
            bundle_path = None
            if self.bundle_dir and outcome.obs_bundle is not None:
                bundle_path = f"{self.bundle_dir}/{self.id}.bundle.json"
            self.result = outcome_to_result(outcome, self._native,
                                            obs=self._hub,
                                            bundle_path=bundle_path)
            if self.resumed is not None:
                self.result["resumed"] = dict(self.resumed)
            self.state = "finished"
            envelope["state"] = self.state
            envelope["result"] = self.result
            if self._writer is not None:
                self._writer.close(
                    steps=self._recorder.steps,
                    verdict=outcome.verdict, cycles=outcome.cycles,
                    obs_digest=self.result.get("obs_digest"))
                self._writer = None
        elif (self.max_cycles is not None
                and self._mvee.machine.now > self.max_cycles):
            self.state = "killed"
            self.result = {"verdict": "killed",
                           "reason": "cycle quota exceeded",
                           "cycles": self._mvee.machine.now}
            envelope["state"] = self.state
            envelope["result"] = self.result
            self.release_writer()
        return envelope

    def release_writer(self) -> None:
        """Close the decision-log handle without sealing (the log keeps
        its torn-tolerant prefix for a later resume)."""
        if self._writer is not None:
            self._writer.abandon()
            self._writer = None

    def _drain_events(self) -> list[dict]:
        """New fault/recovery/race records since the last step.

        Each record is delivered exactly once, wrapped with a
        session-level ``stream_seq`` (the records' own fields — some
        carry a per-variant ``seq`` — are passed through untouched).
        """
        hub = self._hub
        events = []

        def _wrap(kind: str, record: dict) -> dict:
            return {"stream_seq": next(self._event_seq), "type": kind,
                    "record": dict(record)}

        for record in hub.fault_log[self._seen_faults:]:
            events.append(_wrap("fault", record))
        self._seen_faults = len(hub.fault_log)
        for record in hub.recovery_log[self._seen_recovery:]:
            events.append(_wrap("recovery", record))
        self._seen_recovery = len(hub.recovery_log)
        for record in hub.race_log[self._seen_races:]:
            events.append(_wrap("race", record))
        self._seen_races = len(hub.race_log)
        return events

    def metrics_snapshot(self) -> dict:
        if self._hub is None:
            return {}
        return self._hub.metrics.snapshot()

    def describe(self) -> dict:
        return {"id": self.id, "state": self.state,
                "spec": self.spec.to_dict(), "steps": self.steps,
                "result": self.result}


def run_session_cell(spec_dict: dict, session_id: str,
                     bundle_dir: str | None = None) -> dict:
    """Batch path: execute one session start-to-finish in a worker.

    Module-level and argument-pure so :class:`CellTask` pickles it by
    reference into a forked worker; builds a fresh ObsHub there, so the
    digest is computed from the same simulated quantities as the
    stepped path.
    """
    from contextlib import nullcontext

    from repro.obs import ObsHub
    from repro.telemetry.context import TraceContext
    from repro.telemetry.spans import enabled, span

    spec = SessionSpec.from_dict(spec_dict).validate()
    host_span = nullcontext()
    if spec.trace is not None and enabled():
        parent = TraceContext.from_dict(spec.trace)
        host_span = span("session.run",
                         ctx=parent.child() if parent else None,
                         service="session",
                         track=f"session {session_id}",
                         session=session_id)
    hub = ObsHub(trace=False)
    with host_span:
        mvee, native = build_mvee(spec, obs=hub)
        outcome = mvee.run()
    bundle_path = None
    if bundle_dir and outcome.obs_bundle is not None:
        bundle_path = f"{bundle_dir}/{session_id}.bundle.json"
    return outcome_to_result(outcome, native, obs=hub,
                             bundle_path=bundle_path)
