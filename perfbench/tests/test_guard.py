"""The memo guard fires on a pool or memo that already did the work."""

import pytest

from perfbench import guard


@pytest.fixture
def cold_memos():
    from repro.experiments.runner import reset_caches

    reset_caches()
    yield
    reset_caches()


def _tasks():
    from repro.par.bench import bench_tasks, build_matrix

    return bench_tasks(build_matrix(quick=True, seed=3))


def test_fresh_pool_and_cold_memos_pass(cold_memos):
    from repro.par import WorkerPool

    pool = WorkerPool(2)
    try:
        guard.check_fresh(pool.stats())
    finally:
        pool.shutdown()


def test_guard_fires_on_a_warmed_pool(cold_memos):
    from repro.par import ProcessEnvironment, WorkerPool, run_cells

    pool = WorkerPool(2)
    try:
        tasks = _tasks()
        results = run_cells(tasks, jobs=2,
                            env=ProcessEnvironment(pool=pool))
        assert all(r.ok for r in results)
        guard.check_served_only(pool.stats(), len(tasks))
        with pytest.raises(guard.MemoGuardError, match="already served"):
            guard.check_fresh(pool.stats())
        with pytest.raises(guard.MemoGuardError, match="expected exactly"):
            guard.check_served_only(pool.stats(), len(tasks) - 1)
    finally:
        pool.shutdown()


def test_guard_fires_on_warm_memos_in_the_forking_process(cold_memos):
    task = _tasks()[0]
    task.fn(**task.kwargs)
    assert guard.memo_sizes()["_cell_cache"] == 1
    with pytest.raises(guard.MemoGuardError, match="warm"):
        guard.check_fresh(None)
