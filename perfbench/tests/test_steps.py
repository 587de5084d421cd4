"""The step count: one ``step_committed`` hook per committed step."""

from perfbench import workloads


def test_step_counter_agrees_with_the_decision_recorder():
    from repro.replay import record_run
    from repro.serve.session import SessionSpec, build_mvee

    spec = {"workload": "fft", "agent": "wall_of_clocks", "variants": 2,
            "seed": 5, "scale": 0.05}
    hub = workloads._step_counter()
    mvee, _native = build_mvee(SessionSpec.from_dict(spec).validate(),
                               obs=hub)
    counted = mvee.run()
    recorded = record_run(spec)
    assert hub.steps > 0
    assert hub.steps == recorded.recorder.steps
    assert counted.cycles == recorded.outcome.cycles


def test_counted_cell_matches_the_bare_cell():
    from repro.experiments.runner import reset_caches, run_one

    reset_caches()
    try:
        result, steps = workloads.count_cell("dedup", "total_order", 2,
                                             0.05, 9)
        bare = run_one("dedup", "total_order", 2, scale=0.05, seed=9)
    finally:
        reset_caches()
    assert steps > 0
    assert result == bare
    # The count is a function of the cell alone.
    again, steps_again = workloads.count_cell("dedup", "total_order", 2,
                                              0.05, 9)
    assert (again, steps_again) == (result, steps)
