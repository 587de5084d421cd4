"""Differential oracle: observers never move the run they observe.

For every quick-matrix benchmark under all three agents at two and three
variants, a bare run is compared against the same run with every
observer attached at once — an :class:`~repro.obs.ObsHub` with the cycle
profiler, a :class:`~repro.races.RaceDetector`, a
:class:`~repro.races.DeadlockDetector` and a
:class:`~repro.replay.DecisionRecorder`.  Verdict, cycles and guest
stdout must be identical.  The recorded decision log must then replay
faithfully and reproduce the recorded verdict, cycles and obs digest.
"""

import pytest

from repro.core.divergence import MonitorPolicy
from repro.core.mvee import MVEE
from repro.experiments.runner import native_cycles
from repro.obs import ObsHub
from repro.par.bench import QUICK_BENCHMARKS, QUICK_SCALE
from repro.races import DeadlockDetector, RaceDetector
from repro.replay import DecisionLog, DecisionRecorder, replay_run
from repro.serve.session import SessionSpec
from repro.workloads.synthetic import make_benchmark

AGENTS = ("total_order", "partial_order", "wall_of_clocks")
VARIANTS = (2, 3)
SEED = 1

CELLS = [(workload, agent, variants)
         for workload in QUICK_BENCHMARKS
         for agent in AGENTS
         for variants in VARIANTS]


def _run(spec: SessionSpec, **observers):
    """One run built the way ``repro.serve.session.build_mvee`` builds a
    synthetic spec, so ``replay_run`` rebuilds the identical MVEE."""
    native = native_cycles(spec.workload, scale=spec.scale, seed=spec.seed)
    policy = MonitorPolicy(degradation=spec.policy,
                           watchdog_cycles=spec.watchdog,
                           resync_mode=spec.resync_mode)
    return MVEE(make_benchmark(spec.workload, scale=spec.scale),
                variants=spec.variants, agent=spec.agent, seed=spec.seed,
                policy=policy, max_cycles=native * 400,
                **observers).run()


@pytest.mark.parametrize("workload,agent,variants", CELLS,
                         ids=[f"{w}-{a}-{v}" for w, a, v in CELLS])
def test_observers_leave_the_run_unchanged(workload, agent, variants):
    spec = SessionSpec(workload=workload, agent=agent, variants=variants,
                       seed=SEED, scale=QUICK_SCALE).validate()
    bare = _run(spec)

    hub = ObsHub(profile=True)
    races, deadlocks = RaceDetector(), DeadlockDetector()
    recorder = DecisionRecorder(DecisionLog(spec=spec.to_dict()))
    observed = _run(spec, obs=hub, races=races, deadlocks=deadlocks,
                    replay=recorder)

    assert bare.verdict == "clean"
    assert observed.verdict == bare.verdict
    assert observed.cycles == bare.cycles  # exact, not approx
    assert observed.stdout == bare.stdout
    # Every observer really was attached and saw the run.
    assert hub.metrics.snapshot()
    assert hub.prof.snapshot().total_cycles > 0
    assert races.report.sync_ops_seen > 0
    assert deadlocks.report.observed_sites
    assert recorder.steps > 0 and recorder.log.records

    # Same hub configuration on both sides: a hub without a tracer has
    # no clock, so its latency histograms read differently.
    replayed = replay_run(recorder.log, hub=ObsHub(profile=True))
    assert replayed.faithful
    assert replayed.outcome.verdict == observed.verdict
    assert replayed.outcome.cycles == observed.cycles
    assert replayed.hub.digest() == hub.digest()
