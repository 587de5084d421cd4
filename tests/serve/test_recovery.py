"""Serve crash recovery: resume in-flight work from replay artifacts.

A recording session (``state_dir`` + ``checkpoint_every``) streams its
decision log and checkpoints to disk as it runs.  When the daemon dies
mid-session, the next incarnation finds the journal saying the session
was running, rebuilds it from the newest usable checkpoint plus the
(possibly torn) log prefix, and — because the replayed prefix is
re-observed — converges to exactly the verdict, cycle count, and obs
digest an uninterrupted run produces.
"""

from __future__ import annotations

import json
import os

from repro.serve.registry import SessionRegistry
from repro.serve.session import SessionSpec

SPEC = {"workload": "nginx", "seed": 5, "policy": "restart"}

#: Long enough that a resumed session is still running after the
#: resume's first fast-forward batch, so it can crash a second time.
LONG_SPEC = {"workload": "dedup", "seed": 5, "policy": "restart",
             "scale": 0.05}

CHECKPOINT_EVERY = 10_000.0
STEP_EVENTS = 25


def _spec(spec=SPEC) -> SessionSpec:
    return SessionSpec.from_dict(spec).validate()


def _registry(root) -> SessionRegistry:
    return SessionRegistry(state_dir=str(root),
                           checkpoint_every=CHECKPOINT_EVERY)


def _reference_result(root, spec) -> dict:
    """The uninterrupted run, in its own state dir."""
    registry = _registry(root)
    session = registry.create(_spec(spec))
    registry.mark(session, "running")
    result = _drive(session)
    registry.mark(session, session.state)
    registry.shutdown()
    return result


def _step_then_crash(registry, session, steps):
    """Run ``steps`` steps, then die: no seal, no journal update."""
    for _ in range(steps):
        with session.lock:
            envelope = session.step(STEP_EVENTS)
        assert not envelope["done"]
    session.release_writer()
    registry.shutdown()


def _tear(path, nbytes):
    """Cut the last ``nbytes`` bytes off ``path`` (a torn final line)."""
    with open(path, "rb+") as handle:
        handle.truncate(os.path.getsize(path) - nbytes)


def _stored_indices(path) -> list:
    """Checkpoint indices exactly as the store file holds them."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    return [json.loads(line)["index"] for line in lines[1:]]


def _drive(session, limit=200):
    """Step a session to completion; returns its final result dict."""
    for _ in range(limit):
        with session.lock:
            envelope = session.step(STEP_EVENTS)
        if envelope["done"]:
            return envelope["result"]
    raise AssertionError("session did not finish within the budget")


class TestCrashRecovery:
    def test_resumed_session_converges_to_uninterrupted_result(
            self, tmp_path):
        # Uninterrupted reference run in its own state dir.
        ref_registry = _registry(tmp_path / "ref")
        ref_session = ref_registry.create(_spec())
        ref_registry.mark(ref_session, "running")
        reference = _drive(ref_session)
        ref_registry.mark(ref_session, ref_session.state)
        ref_registry.shutdown()

        # The same run, killed mid-flight: journal says "running", the
        # decision log is left with a torn tail past the checkpoint.
        state = tmp_path / "state"
        registry = SessionRegistry(state_dir=str(state),
                                   checkpoint_every=CHECKPOINT_EVERY)
        session = registry.create(_spec())
        registry.mark(session, "running")
        for _ in range(8):
            with session.lock:
                envelope = session.step(STEP_EVENTS)
            assert not envelope["done"]
        session.release_writer()   # crash: no seal, no journal update
        registry.shutdown()
        log_path = session.decision_log_path()
        assert os.path.exists(log_path)
        assert os.path.exists(session.checkpoint_path())
        with open(log_path, "rb+") as handle:
            handle.truncate(os.path.getsize(log_path) - 30)

        recovered = SessionRegistry(state_dir=str(state),
                                    checkpoint_every=CHECKPOINT_EVERY)
        survivor = recovered.get(session.id)
        assert survivor.state == "created"
        assert survivor.resume_from_disk
        result = _drive(survivor)
        recovered.shutdown()

        resumed = result["resumed"]
        assert resumed["replayed_records"] > 0
        assert resumed["discarded_records"] > 0
        assert result["verdict"] == reference["verdict"]
        assert result["cycles"] == reference["cycles"]
        assert result["obs_digest"] == reference["obs_digest"]

    def test_second_crash_after_resume_converges(self, tmp_path):
        reference = _reference_result(tmp_path / "ref", LONG_SPEC)

        # First crash: torn decision log *and* a checkpoint store whose
        # last line is cut mid-checkpoint.
        state = str(tmp_path / "state")
        registry = _registry(state)
        session = registry.create(_spec(LONG_SPEC))
        registry.mark(session, "running")
        _step_then_crash(registry, session, 10)
        ckpt_path = session.checkpoint_path()
        before = _stored_indices(ckpt_path)
        _tear(session.decision_log_path(), 30)
        _tear(ckpt_path, 40)

        # Resume, record a little further (new checkpoints are
        # appended), then crash again.
        registry = _registry(state)
        survivor = registry.get(session.id)
        assert survivor.resume_from_disk
        registry.mark(survivor, "running")
        _step_then_crash(registry, survivor, 6)
        resumed_at = survivor.resumed["checkpoint"]
        indices = _stored_indices(ckpt_path)
        assert indices == list(range(len(indices)))
        assert len(indices) > resumed_at + 1
        assert indices[:resumed_at + 1] == before[:resumed_at + 1]
        _tear(survivor.decision_log_path(), 30)
        _tear(ckpt_path, 40)

        # The second recovery still lands on the uninterrupted result.
        registry = _registry(state)
        second = registry.get(session.id)
        assert second.resume_from_disk
        result = _drive(second)
        registry.shutdown()
        assert "resumed" in result
        assert result["verdict"] == reference["verdict"]
        assert result["cycles"] == reference["cycles"]
        assert result["obs_digest"] == reference["obs_digest"]
        indices = _stored_indices(ckpt_path)
        assert indices == list(range(len(indices)))

    def test_recovery_without_artifacts_restarts_from_scratch(
            self, tmp_path):
        state = tmp_path / "state"
        registry = _registry(state)
        session = registry.create(_spec())
        registry.mark(session, "running")
        registry.shutdown()
        # No step ever ran: there is no decision log or checkpoint on
        # disk, so the recovered session runs from scratch — and still
        # lands on the seeded-deterministic result.
        recovered = _registry(state)
        survivor = recovered.get(session.id)
        assert survivor.state == "created"
        assert survivor.resume_from_disk
        result = _drive(survivor)
        recovered.shutdown()
        assert "resumed" not in result
        assert result["verdict"] == "clean"
