"""The memo guard: a timed phase must simulate, not read a memo.

``repro.experiments.runner`` memoizes grid cells and native runtimes
per process, and pool workers keep their memos across sweeps, so a
sweep on a pool that already ran the same cells returns in a fraction
of its real time.  Every timed phase of the benchmark therefore starts
in a fresh process, and these checks fail it if the pool it is about to
use has served tasks before, or if the memos it forks from are warm.
"""

from __future__ import annotations


class MemoGuardError(RuntimeError):
    """A timed phase would have ridden a warm pool or warm memo."""


def memo_sizes() -> dict[str, int]:
    """Entries in this process's experiment memos (read-only)."""
    from repro.experiments import runner

    return {"_cell_cache": len(runner._cell_cache),
            "_native_cache": len(runner._native_cache)}


def check_fresh(pool_stats: dict | None) -> None:
    """Raise unless the pool is unused and this process's memos are
    empty (forked workers inherit them)."""
    if pool_stats is not None and pool_stats.get("tasks", 0):
        raise MemoGuardError(
            f"the pool already served {pool_stats['tasks']} task(s) "
            "before the timed phase")
    warm = {name: size for name, size in memo_sizes().items() if size}
    if warm:
        raise MemoGuardError(f"memo caches are warm before the timed "
                             f"phase: {warm}")


def check_served_only(pool_stats: dict, expected_tasks: int) -> None:
    """Raise unless the pool served exactly the timed phase's tasks."""
    if pool_stats.get("tasks") != expected_tasks:
        raise MemoGuardError(
            f"the pool served {pool_stats.get('tasks')} task(s), "
            f"expected exactly the {expected_tasks} of the timed phase")
