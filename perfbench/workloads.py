"""The three workloads, each run in a fresh child process.

``perfbench/run.py`` starts ``python3 -m perfbench.child CONFIG`` once
per timed repetition, so every repetition starts from a fresh process
tree: no inherited pool, no warm memo.  A child sets the workload up,
reports how long set-up took since its parent launched it, runs one
measured phase, checks the outputs, and prints one JSON line.

Modes (``CONFIG["mode"]``):

``fig5.setup`` / ``serve.setup`` / ``rr.setup``
    Set up only (imports, pool spawn, daemon listening), then stop.
``fig5.sweep``
    One timed 225-cell Figure-5 sweep via ``repro.par.run_cells`` on a
    fresh 2-worker process pool, then a seeded sample of cells
    recomputed inline and compared field for field.
``fig5.count``
    The same task list with a step-counting ObsHub in each cell
    (untimed): committed machine steps per cell, and a second,
    independent computation of every cell to compare against.
``serve.load``
    An in-process ServeDaemon (``jobs=2``, ``env=process``) and a
    closed loop of 2 client connections, each running create -> run ->
    close on nginx sessions.  The load runs in laps over the same 1000
    specs (at least 2, more while they fit in the configured seconds);
    then a seeded sample is checked against ``serve_load.single_shot``.
``rr.pass``
    Record, load and replay each record/replay spec once, with a bare
    run of the same spec for comparison.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import threading
import time

from perfbench import calib, guard, layers, stats

#: Pool workers and client connections (``nproc`` on the reference host).
JOBS = 2
CLIENTS = 2

#: Figure-5 grid cells recomputed inline after each sweep.
FIG5_SAMPLE = 5
#: Served specs re-run through ``serve_load.single_shot``, and timed
#: after every lap for the single-core step rate.
SERVE_SAMPLE = 48
#: Sessions per lap of the serve load: every lap runs the same specs, so
#: a p99 over one lap's specs keeps 10 sessions beyond it.
SERVE_LAP = 1000
SERVE_MIN_LAPS = 2

#: Record/replay specs: workloads x agents, 3 variants, checkpoints on.
RR_WORKLOADS = ("dedup", "ferret", "fluidanimate", "nginx")
RR_AGENTS = ("total_order", "partial_order", "wall_of_clocks")
RR_VARIANTS = 3
RR_SCALE = 0.1
RR_CHECKPOINT_EVERY = 2e5
RR_SWEEP_ID = "perfbench-rr"

#: sha256 of the canonical 225-cell aggregate at seed 1 (BENCH_par.json).
FIG5_SEED1_DIGEST = ("sha256:9796fb66cc90569df3f96f9be4facbfdd34125de"
                     "69f44caa40726ae2ed316976")


def _since(t0: float) -> float:
    return time.monotonic() - t0


def _peak_rss_kb() -> int:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _hwm_kb(pid: int) -> int:
    """Peak resident set of a live process (Linux ``VmHWM``), 0 if
    unknown."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# -- fig5-matrix -------------------------------------------------------------


def _fig5_setup():
    """The fresh process's shared 2-worker pool, forked and unused."""
    import repro.par as par
    import repro.par.bench  # noqa: F401  (imported during set-up)

    pool = par.shared_pool(JOBS)
    guard.check_fresh(pool.stats())
    for slot in range(JOBS):
        pool.worker(slot)
    return pool


def fig5_setup(cfg: dict) -> dict:
    _fig5_setup()
    setup = _since(cfg["t0"])
    import repro.par as par

    par.shutdown_shared_pools()
    return {"setup_s": setup}


def fig5_sweep(cfg: dict) -> dict:
    schedulers = layers.track_schedulers()
    pool = _fig5_setup()
    setup = _since(cfg["t0"])
    import repro.par as par
    from repro.par.bench import (bench_tasks, build_matrix, canonical_cells,
                                 digest_of)

    tasks = bench_tasks(build_matrix(seed=cfg["seed"]))
    with layers.root_span("unattributed.run"):
        start = time.perf_counter()
        results = par.run_cells(tasks, jobs=JOBS, env="process")
        wall = time.perf_counter() - start
    pool_stats = pool.stats()
    guard.check_served_only(pool_stats, len(tasks))
    par.shutdown_shared_pools()

    failures = [r.index for r in results
                if not r.ok or r.value.verdict != "clean"]
    ok = [r for r in results if r.ok]
    cells = canonical_cells(results)
    rng = random.Random(f"fig5-sample-{cfg['seed']}")
    sample = rng.sample(range(len(tasks)), FIG5_SAMPLE)
    mismatched = []
    for index in sample if cfg.get("checks", True) else ():
        task = tasks[index]
        inline = par.CellResult(index=index, ok=True,
                                value=task.fn(**task.kwargs))
        if canonical_cells([inline])[0] != cells[index]:
            mismatched.append(index)
    table1 = (stats.table1_error([r.value for r in ok])
              if len(ok) == len(results) else None)
    pids: dict[str, int] = {}
    for r in results:
        pids[str(r.worker_pid)] = pids.get(str(r.worker_pid), 0) + 1
    return {
        "setup_s": setup, "wall_s": wall, "cells": len(results),
        "durations": [r.duration_s for r in results],
        "failed_cells": failures, "sample_mismatched": mismatched, "digest": digest_of(cells),
        "table1_error": table1, "cells_per_worker_pid": pids,
        "pool": pool_stats,
        "steals": sum(len(s.steals) for s in schedulers),
    }


def count_cell(benchmark: str, agent: str, variants: int, scale: float,
               seed: int):
    """A Figure-5 cell with a step-counting hub attached (the hub only
    observes; outputs are the same as the bare cell's)."""
    from repro.experiments.runner import run_one

    hub = _step_counter()
    result = run_one(benchmark, agent, variants, scale=scale, seed=seed,
                     obs=hub)
    return result, hub.steps


def _step_counter():
    from repro.obs import ObsHub

    class StepCounter(ObsHub):
        """Counts ``step_committed`` hooks: one per committed step."""

        def __init__(self):
            super().__init__(trace=False)
            self.steps = 0

        def step_committed(self, *args) -> None:
            self.steps += 1

    return StepCounter()


def fig5_count(cfg: dict) -> dict:
    import dataclasses

    _fig5_setup()
    import repro.par as par
    from repro.par.bench import (bench_tasks, build_matrix, canonical_cells,
                                 digest_of)

    tasks = [dataclasses.replace(task, fn=count_cell)
             for task in bench_tasks(build_matrix(seed=cfg["seed"]))]
    results = par.run_cells(tasks, jobs=JOBS, env="process")
    par.shutdown_shared_pools()
    failed = [r.index for r in results if not r.ok]
    plain = [par.CellResult(index=r.index, ok=r.ok,
                            value=r.value[0] if r.ok else None,
                            error=r.error) for r in results]
    return {"steps": sum(r.value[1] for r in results if r.ok),
            "failed_cells": failed,
            "digest": digest_of(canonical_cells(plain))}


# -- serve-nginx -------------------------------------------------------------


def _serve_setup():
    from repro.serve.client import ServeClient
    from repro.serve.daemon import ServeConfig, ServeDaemon

    daemon = ServeDaemon(ServeConfig(port=0, jobs=JOBS, env="process"))
    guard.check_fresh(daemon.executor.pool_stats())
    # The executor forks lazily on first dispatch; spawn now so set-up
    # pays for it and the first timed session does not.
    for slot in range(JOBS):
        daemon.executor._pool.worker(slot)
    host, port = daemon.start()
    clients = [ServeClient(host, port) for _ in range(CLIENTS)]
    for client in clients:
        client.ping()
    return daemon, clients


def _serve_teardown(daemon, clients) -> None:
    for client in clients:
        client.close()
    daemon.stop()


def serve_setup(cfg: dict) -> dict:
    daemon, clients = _serve_setup()
    setup = _since(cfg["t0"])
    _serve_teardown(daemon, clients)
    return {"setup_s": setup}


def _client_loop(client, specs, state, out) -> None:
    from repro.errors import QuotaExceeded

    with layers.root_span("unattributed.client"):
        while True:
            with state["lock"]:
                index = state["next"]
                if index >= len(specs):
                    return
                state["next"] += 1
            row = {"index": index}
            t0 = time.perf_counter()
            try:
                sid = client.create(specs[index])
            except QuotaExceeded:
                row["refused"] = True
                out.append(row)
                continue
            t1 = time.perf_counter()
            reply = client.run(sid)
            t2 = time.perf_counter()
            client.close_session(sid)
            t3 = time.perf_counter()
            result = reply.get("result") or {}
            row.update(verdict=result.get("verdict"),
                       obs_digest=result.get("obs_digest"),
                       latency_s=t3 - t0, create_s=t1 - t0,
                       run_s=t2 - t1, close_s=t3 - t2)
            out.append(row)


def _serve_lap(clients, specs) -> dict:
    """Every spec once, in a closed loop over all client connections."""
    state = {"lock": threading.Lock(), "next": 0}
    rows: list[dict] = []
    threads = [threading.Thread(target=_client_loop,
                                args=(client, specs, state, rows))
               for client in clients]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    rows.sort(key=lambda row: row["index"])
    return {"wall_s": wall, "rows": rows}


def serve_load(cfg: dict) -> dict:
    from repro.experiments.serve_load import build_load, single_shot
    from repro.serve.session import SessionSpec, build_mvee

    daemon, clients = _serve_setup()
    setup = _since(cfg["t0"])
    specs = build_load(SERVE_LAP, base_seed=cfg["seed"])
    checks = cfg.get("checks", True)
    rng = random.Random(f"serve-sample-{cfg['seed']}")
    sample = rng.sample(range(SERVE_LAP), SERVE_SAMPLE if checks else 0)
    # Single-core speed of the sampled specs, timed between laps (the
    # daemon is idle then) so the samples spread over the whole run.
    # A host-speed probe (perfbench/calib.py) runs before the first lap
    # and after each lap's sample timings; the parent scales by them.
    sim_s = {index: [] for index in sample}
    steps = 0
    laps = []
    probes = [calib.probe(cfg["probe_procs"], cfg["root"])]
    start = time.perf_counter()
    while True:
        laps.append(_serve_lap(clients, specs))
        steps = 0
        for index in sample:
            hub = _step_counter()
            mvee, _native = build_mvee(
                SessionSpec.from_dict(specs[index]).validate(), obs=hub)
            t0 = time.perf_counter()
            mvee.run()
            sim_s[index].append(time.perf_counter() - t0)
            steps += hub.steps
        probes.append(calib.probe(cfg["probe_procs"], cfg["root"]))
        spent = time.perf_counter() - start
        if (len(laps) >= SERVE_MIN_LAPS
                and spent + spent / len(laps) > cfg["seconds"]):
            break
    status = clients[0].status()
    pings = []
    for _ in range(200 if checks else 0):
        t0 = time.perf_counter()
        clients[0].ping()
        pings.append(time.perf_counter() - t0)
    # This process and its live pool workers; not RUSAGE_CHILDREN, which
    # would also hold the host-speed probes this process started.
    peak_kb = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
                  + [_hwm_kb(worker.pid)
                     for worker in daemon.executor._pool.live_workers()])
    _serve_teardown(daemon, clients)

    rows = [row for lap in laps for row in lap["rows"]]
    failed = sorted({r["index"] for r in rows
                     if r.get("refused") or r.get("verdict") != "clean"})
    outcomes: dict[int, set] = {}
    for row in rows:
        if "verdict" in row:
            outcomes.setdefault(row["index"], set()).add(
                (row["verdict"], row["obs_digest"]))
    unstable = sorted(i for i, seen in outcomes.items() if len(seen) > 1)
    unverified, shot_s = [], []
    for index in sample:
        t0 = time.perf_counter()
        shot = single_shot(specs[index])
        shot_s.append(time.perf_counter() - t0)
        if {(shot["verdict"], shot["obs_digest"])} != outcomes.get(index):
            unverified.append(index)
    bad = set(unstable) | set(unverified)
    failed_rows = sum(1 for r in rows if r.get("refused")
                      or r.get("verdict") != "clean" or r["index"] in bad)
    executor = status.get("executor", {})

    def column(lap, key):
        return [row.get(key) for row in lap["rows"]]

    return {
        "setup_s": setup, "peak_rss_kb": peak_kb,
        "attempted": len(rows), "failed": failed_rows,
        "failed_sessions": failed, "unstable": unstable,
        "unverified": unverified,
        "probes": probes,
        "laps": [{"wall_s": lap["wall_s"],
                  **{key: column(lap, key)
                     for key in ("latency_s", "create_s", "run_s",
                                 "close_s")}}
                 for lap in laps],
        "ping_s": pings,
        "refused": sum(1 for r in rows if r.get("refused")),
        "single_shot_s": shot_s, "sample_steps": steps,
        "sample_step_s": sum(min(times) for times in sim_s.values()),
        "pool": executor.get("pool"),
        "executor": {k: executor.get(k)
                     for k in ("submitted", "completed")},
    }


# -- record-replay -------------------------------------------------------------


def rr_specs(seed: int) -> list[dict]:
    """The record/replay spec list; each spec's seed derives from its
    position and the run's seed."""
    from repro.par.seeds import derive_cell_seed

    specs = []
    for workload in RR_WORKLOADS:
        for agent in RR_AGENTS:
            spec = {"workload": workload, "agent": agent,
                    "variants": RR_VARIANTS,
                    "seed": derive_cell_seed(RR_SWEEP_ID, len(specs),
                                             seed)}
            if workload != "nginx":
                spec["scale"] = RR_SCALE
            specs.append(spec)
    return specs


def _rr_setup(cfg: dict):
    import repro.replay as replay
    from repro.serve.session import SessionSpec, build_mvee

    guard.check_fresh(None)
    work_dir = os.path.join(cfg["scratch"], f"rr-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    return replay, SessionSpec, build_mvee, work_dir


def rr_setup(cfg: dict) -> dict:
    _replay, _spec, _build, work_dir = _rr_setup(cfg)
    setup = _since(cfg["t0"])
    os.rmdir(work_dir)
    return {"setup_s": setup}


def rr_pass(cfg: dict) -> dict:
    replay, SessionSpec, build_mvee, work_dir = _rr_setup(cfg)
    setup = _since(cfg["t0"])
    rows = []
    with layers.root_span("unattributed.run"):
        start = time.perf_counter()
        for number, spec in enumerate(rr_specs(cfg["seed"])):
            rows.append(_rr_round(replay, SessionSpec, build_mvee,
                                  work_dir, number, spec))
        wall = time.perf_counter() - start
    os.rmdir(work_dir)
    return {"setup_s": setup, "wall_s": wall, "rounds": rows}


def _rr_round(replay, SessionSpec, build_mvee, work_dir, number, spec):
    log_path = os.path.join(work_dir, f"{number}.log")
    ckpt_path = os.path.join(work_dir, f"{number}.ckpt.json")
    mvee, _native = build_mvee(SessionSpec.from_dict(spec).validate())
    t0 = time.perf_counter()
    bare = mvee.run()
    t1 = time.perf_counter()
    bare = (bare.verdict, bare.cycles)
    del mvee
    recorded = replay.record_run(spec, out_path=log_path,
                                 checkpoint_every=RR_CHECKPOINT_EVERY,
                                 checkpoint_path=ckpt_path)
    t2 = time.perf_counter()
    steps = recorded.recorder.steps
    checkpoints = (len(recorded.checkpointer.store)
                   if recorded.checkpointer else 0)
    agrees = bare == (recorded.outcome.verdict, recorded.outcome.cycles)
    del recorded
    log = replay.DecisionLog.load(log_path)
    t3 = time.perf_counter()
    replayed = replay.replay_run(log)
    t4 = time.perf_counter()
    matches = replayed.matches()
    faithful = (matches["faithful"]
                and all(matches[key]["match"]
                        for key in ("verdict", "cycles", "obs_digest"))
                and matches["log_digest_match"]
                and agrees and bare[0] == "clean")
    log_bytes = os.path.getsize(log_path)
    os.remove(log_path)
    if os.path.exists(ckpt_path):
        os.remove(ckpt_path)
    return {"workload": spec["workload"], "agent": spec["agent"],
            "steps": steps, "bare_s": t1 - t0,
            "record_s": t2 - t1, "load_s": t3 - t2, "replay_s": t4 - t3,
            "log_bytes": log_bytes, "checkpoints": checkpoints,
            "faithful": bool(faithful), "log_digest": log.digest()}


MODES = {
    "fig5.setup": fig5_setup, "fig5.sweep": fig5_sweep,
    "fig5.count": fig5_count,
    "serve.setup": serve_setup, "serve.load": serve_load,
    "rr.setup": rr_setup, "rr.pass": rr_pass,
}


def main(argv: list[str]) -> int:
    cfg = json.loads(argv[1])
    sys.path.insert(0, os.path.join(cfg["root"], "src"))
    recorder = None
    if cfg.get("trace_dir"):
        recorder = layers.install(cfg["run_id"], cfg["trace_dir"])
    result = MODES[cfg["mode"]](cfg)
    if recorder is not None:
        result["spans_written"] = recorder.flush()
    result.setdefault("peak_rss_kb", _peak_rss_kb())
    result["pid"] = os.getpid()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0
