"""The repository's benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every timed repetition runs in a fresh
child process (``perfbench/workloads.py``), so no repetition inherits a
warm pool or memo.  With ``--trace 0`` the command prints the
end-to-end metrics; with ``--trace 1`` it makes one untraced and one
traced pass and prints the per-layer metrics.  Human-readable lines
come first, a ``report:`` line carries the host record and the
workload's own figures, and the last line is the result JSON.  The
exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import calib, stats  # noqa: E402

#: Where children write span files and record/replay logs.
SCRATCH = os.path.join(ROOT, ".perfbench_run")

#: The whole command must end within this many seconds.
DEADLINE_S = 170.0

#: Set-up-only children started per run; ``setup_s`` is their median.
SETUPS = 6

#: Seconds of each single-process probe around the set-up children.
SETUP_PROBE_S = 0.5

#: Timed repetitions every run makes, however short ``--seconds`` is.
MIN_REPS = 2

#: Tail percentile per workload: the highest level that keeps ten
#: samples beyond it (225 cells; 1000 sessions per lap).  Record-replay
#: has 12 specs, too few for any tail percentile; its tail is the
#: slowest spec.
TAIL = {"fig5-matrix": 0.95, "serve-nginx": 0.99}

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYERS = ("sched", "monitor", "agents", "kernel", "guest", "experiments",
          "par", "serve", "replay", "obs", "unattributed")
AGENTS = ("total_order", "partial_order", "wall_of_clocks")

PER_LAYER = {
    "sched.steps": "count",
    "sched.self_us_per_step": "us",
    "monitor.calls": "count",
    "monitor.self_us_per_call": "us",
    "agents.calls": "count",
    **{f"agents.{a}.self_us_per_call": "us" for a in AGENTS},
    "kernel.calls": "count",
    "kernel.self_us_per_call": "us",
    "guest.resumes": "count",
    "experiments.native_runs": "count",
    "experiments.native_memo_hit_ratio": "ratio",
    "experiments.table1_error": "ratio",
    "par.worker_busy_frac": "ratio",
    "par.dispatch_ms_per_cell": "ms",
    "par.steals": "count",
    "par.spawned": "count",
    "par.respawns": "count",
    "serve.create_ms_p50": "ms",
    "serve.run_ms_p50": "ms",
    "serve.close_ms_p50": "ms",
    "serve.ping_ms_p50": "ms",
    "serve.sim_share": "ratio",
    "serve.refused_per_create": "ratio",
    "replay.log_bytes_per_step": "B/step",
    "replay.checkpoints": "count",
    "replay.checkpoint_share": "ratio",
    "replay.load_ms": "ms",
    "replay.record_vs_bare_x": "x",
    "replay.replay_vs_bare_x": "x",
    "replay.record_steps_per_s": "1/s",
    "replay.replay_steps_per_s": "1/s",
    "obs.hook_calls": "count",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
}


class ChildFailed(RuntimeError):
    """A child process exited non-zero or printed no result."""


class Runner:
    """Starts children against one deadline and keeps what they report.

    Timed children are bracketed by host-speed probes
    (:mod:`perfbench.calib`) on ``probe_procs`` processes, which give
    the ``scale`` their host times are multiplied by.  Set-up children
    run one process at a time, so theirs are bracketed by
    single-process probes."""

    def __init__(self, workload: str, seed: int, seconds: int,
                 probe_procs: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.probe_procs = probe_procs
        self.deadline = time.monotonic() + DEADLINE_S
        self.children: list[dict] = []
        self.probes: list[dict] = []
        #: The ``probe_procs`` probe taken since the last child, if any.
        self.fresh_probe: float | None = None

    def child(self, mode: str, **extra) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise ChildFailed(f"{mode}: out of time before it started")
        cfg = {"mode": mode, "seed": self.seed, "root": ROOT,
               "scratch": SCRATCH, "seconds": self.seconds, **extra}
        cfg["t0"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "perfbench.child", json.dumps(cfg)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode}: timed out") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
            raise ChildFailed(f"{mode}: exit {proc.returncode}\n{tail}")
        result = json.loads(lines[-1])
        self.children.append(result)
        self.fresh_probe = None
        return result

    def probe(self, procs: int | None = None,
              seconds: float = calib.PROBE_S) -> float:
        """Host-speed probe: mean iteration time of the reference load on
        ``procs`` processes (default ``probe_procs``)."""
        procs = procs or self.probe_procs
        if self.deadline - time.monotonic() <= seconds + 5.0:
            raise ChildFailed("out of time before a host-speed probe")
        try:
            value = calib.probe(procs, ROOT, seconds)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            raise ChildFailed(f"host-speed probe failed: {exc}") from None
        self.probes.append({"procs": procs, "mean_s": value})
        self.fresh_probe = value if procs == self.probe_procs else None
        return value

    def scaled(self, mode: str, **extra) -> dict:
        """One timed child between two probes, with its ``scale``."""
        before = self.fresh_probe or self.probe()
        result = self.child(mode, **extra)
        result["scale"] = calib.scale([before, self.probe()])
        return result

    def repeat(self, mode: str, **extra) -> tuple[list[dict], float]:
        """Timed repetitions, each in a fresh child followed by a probe,
        while the next one is expected to fit in ``seconds``; at least
        MIN_REPS.  Returns them with the scale from the median probe."""
        probes = [self.fresh_probe or self.probe()]
        reps: list[dict] = []
        start = time.monotonic()
        while True:
            reps.append(self.child(mode, **extra))
            probes.append(self.probe())
            spent = time.monotonic() - start
            if (len(reps) >= MIN_REPS
                    and spent + spent / len(reps) > self.seconds):
                return reps, calib.scale(probes)

    def setup_s(self, mode: str) -> float:
        """Median set-up time of SETUPS set-up-only children, scaled by
        single-process probes before, among and after them."""
        probes = [self.probe(1, SETUP_PROBE_S)]
        raw = []
        for half in (SETUPS // 2, SETUPS - SETUPS // 2):
            raw += [self.child(mode)["setup_s"] for _ in range(half)]
            probes.append(self.probe(1, SETUP_PROBE_S))
        return stats.median(raw) * calib.scale(probes)

    def traced(self, mode: str, **extra) -> tuple[dict, dict]:
        """One traced child; returns its result and the span table."""
        from perfbench import spans

        run_id = f"{self.workload}-{self.seed}-{uuid.uuid4().hex[:12]}"
        trace_dir = os.path.join(SCRATCH, run_id)
        try:
            result = self.scaled(mode, run_id=run_id, trace_dir=trace_dir,
                                 checks=False, **extra)
            table = spans.aggregate(spans.load_run(trace_dir, run_id))
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)
        result["run_id"] = run_id
        return result, table

    def peak_rss_mb(self) -> float:
        return max(c["peak_rss_kb"] for c in self.children) / 1024.0


def host_record(workers: int, connections: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        nproc = os.cpu_count()
    return {"nproc": nproc, "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "workers": workers, "connections": connections}


# -- per-layer arithmetic --------------------------------------------------------


def layer_metrics(table: dict) -> dict:
    """Shares and per-call self times from an aggregated span table."""

    def rows(prefix):
        return [row for name, row in table.items()
                if name == prefix or name.startswith(prefix + ".")]

    def calls(prefix):
        return sum(row["calls"] for row in rows(prefix))

    def self_s(prefix):
        return sum(row["self_s"] for row in rows(prefix))

    def per_call_us(prefix):
        n = calls(prefix)
        return self_s(prefix) / n * 1e6 if n else 0.0

    total = sum(row["self_s"] for row in table.values())
    out = {f"{layer}.self_share": (self_s(layer) / total if total else 0.0)
           for layer in LAYERS}
    out.update({
        "monitor.calls": calls("monitor"),
        "monitor.self_us_per_call": per_call_us("monitor"),
        "agents.calls": calls("agents"),
        "kernel.calls": calls("kernel"),
        "kernel.self_us_per_call": per_call_us("kernel"),
        "guest.resumes": calls("guest"),
        "obs.hook_calls": calls("obs"),
    })
    for agent in AGENTS:
        out[f"agents.{agent}.self_us_per_call"] = per_call_us(
            f"agents.{agent}")
    native_lookups = calls("experiments.native_cycles")
    native_runs = calls("experiments.run_native")
    out["experiments.native_runs"] = native_runs
    out["experiments.native_memo_hit_ratio"] = (
        1.0 - native_runs / native_lookups if native_lookups else 0.0)
    return out


def sched_per_step(table: dict, steps: int) -> dict:
    sched_self = sum(row["self_s"] for name, row in table.items()
                     if name.startswith("sched."))
    return {"sched.steps": steps,
            "sched.self_us_per_step": (sched_self / steps * 1e6
                                       if steps else 0.0)}


def zero_layer_metrics() -> dict:
    return {name: 0.0 if unit != "count" else 0
            for name, unit in PER_LAYER.items()}


# -- fig5-matrix -------------------------------------------------------------------


def fig5_checks(sweeps: list[dict], count: dict, seed: int) -> list[str]:
    problems = []
    for sweep in sweeps:
        if sweep["failed_cells"]:
            problems.append(f"cells not ok+clean: {sweep['failed_cells']}")
        if sweep.get("sample_mismatched"):
            problems.append("inline recompute differs for cells "
                            f"{sweep['sample_mismatched']}")
        if sweep["digest"] != count["digest"]:
            problems.append(f"sweep digest {sweep['digest']} != count "
                            f"pass digest {count['digest']}")
    if count["failed_cells"]:
        problems.append(f"count pass cells failed: {count['failed_cells']}")
    from perfbench.workloads import FIG5_SEED1_DIGEST

    if seed == 1 and count["digest"] != FIG5_SEED1_DIGEST:
        problems.append(f"seed-1 digest {count['digest']} != committed "
                        f"{FIG5_SEED1_DIGEST}")
    return problems


def best_of(reps: list[list[float]]) -> list[float]:
    """Per item, the fastest of its repetitions (host noise only ever
    adds time; the same item does the same work in every repetition)."""
    return [min(times) for times in zip(*reps)]


def fig5_metrics(sweeps: list[dict], steps: int,
                 scale: float = 1.0) -> dict:
    """End-to-end figures of the sweeps, host times times ``scale``."""
    cells = [d * scale for d in best_of([s["durations"] for s in sweeps])]
    level, tail = stats.tail(cells, TAIL["fig5-matrix"])
    return {
        "throughput_per_s": max(s["cells"] / s["wall_s"]
                                for s in sweeps) / scale,
        "latency_p50_ms": stats.median(cells) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "steps_per_s": steps / sum(cells),
        "_tail_level": level, "_samples": len(cells),
    }


def fig5_par(sweep: dict) -> dict:
    busy = sum(sweep["durations"])
    slots = sweep["pool"]["size"] * sweep["wall_s"]
    return {"par.worker_busy_frac": busy / slots,
            "par.dispatch_ms_per_cell": (slots - busy) / sweep["cells"]
            * 1e3,
            "par.steals": sweep["steals"],
            "par.spawned": sweep["pool"]["spawned"],
            "par.respawns": sweep["pool"]["respawns"]}


def run_fig5(runner: Runner, trace: bool) -> dict:
    if trace:
        sweep = runner.scaled("fig5.sweep")
        count = runner.child("fig5.count")
        traced, table = runner.traced("fig5.sweep")
        problems = fig5_checks([sweep], count, runner.seed)
        if traced["digest"] != count["digest"]:
            problems.append("traced sweep digest differs")
        metrics = zero_layer_metrics()
        metrics.update(layer_metrics(table))
        metrics.update(sched_per_step(table, count["steps"]))
        metrics.update(fig5_par(sweep))
        metrics["experiments.table1_error"] = sweep["table1_error"]
        metrics["trace.overhead_frac"] = (
            traced["wall_s"] * traced["scale"]
            / (sweep["wall_s"] * sweep["scale"]) - 1.0)
        attempted = sweep["cells"] + traced["cells"]
        failed = len(sweep["failed_cells"]) + len(traced["failed_cells"])
        report = {"traced_run_id": traced["run_id"],
                  "cells_per_worker_pid": sweep["cells_per_worker_pid"]}
        return dict(metrics=metrics, attempted=attempted, failed=failed,
                    problems=problems, report=report)
    setup_s = runner.setup_s("fig5.setup")
    sweeps, scale = runner.repeat("fig5.sweep")
    count = runner.child("fig5.count")
    problems = fig5_checks(sweeps, count, runner.seed)
    metrics = fig5_metrics(sweeps, count["steps"], scale)
    metrics["setup_s"] = setup_s
    attempted = sum(s["cells"] for s in sweeps)
    failed = sum(len(s["failed_cells"]) + len(s["sample_mismatched"])
                 for s in sweeps)
    report = {
        "sweeps": len(sweeps), "steps": count["steps"],
        "digest": count["digest"],
        "table1_error": sweeps[0]["table1_error"],
        "cells_per_worker_pid": [s["cells_per_worker_pid"]
                                 for s in sweeps],
        "scale": scale,
        "unscaled": fig5_metrics(sweeps, count["steps"]),
        "named": {"sweep_cells_per_s": metrics["throughput_per_s"],
                  "steps_per_s": metrics["steps_per_s"],
                  "cell_p50_ms": metrics["latency_p50_ms"],
                  "cell_p95_ms": metrics["latency_tail_ms"],
                  "table1_error": sweeps[0]["table1_error"]},
    }
    return dict(metrics=metrics, attempted=attempted, failed=failed,
                problems=problems, report=report)


# -- serve-nginx -------------------------------------------------------------------


def serve_checks(load: dict) -> list[str]:
    problems = []
    if load["failed_sessions"]:
        problems.append(f"{len(load['failed_sessions'])} session(s) "
                        "refused or not clean")
    if load["unstable"]:
        problems.append("verdict or obs_digest differs between laps for "
                        f"sessions {load['unstable']}")
    if load["unverified"]:
        problems.append("single-shot disagrees for sessions "
                        f"{load['unverified']}")
    return problems


def served(lap: dict) -> int:
    return sum(1 for v in lap["latency_s"] if v is not None)


def serve_scale(load: dict) -> float:
    """The load child's laps lie among its own probes."""
    return calib.scale(load["probes"])


def serve_rate(load: dict, scale: float = 1.0) -> float:
    """Sessions per second of the fastest lap."""
    return max(served(lap) / lap["wall_s"] for lap in load["laps"]) / scale


def serve_metrics(load: dict, scale: float = 1.0) -> dict:
    """End-to-end figures of the laps, host times times ``scale``."""
    per_spec = zip(*(lap["latency_s"] for lap in load["laps"]))
    latencies = [min(v for v in times if v is not None) * scale
                 for times in per_spec
                 if any(v is not None for v in times)]
    level, tail = stats.tail(latencies, TAIL["serve-nginx"])
    return {
        "throughput_per_s": serve_rate(load, scale),
        "latency_p50_ms": stats.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "steps_per_s": load["sample_steps"] / (load["sample_step_s"]
                                               * scale),
        "_tail_level": level, "_samples": len(latencies),
    }


def serve_layer(load: dict) -> dict:
    scale = serve_scale(load)

    def p50(key):
        return stats.median([v for lap in load["laps"] for v in lap[key]
                             if v is not None])

    return {
        "serve.create_ms_p50": p50("create_s") * scale * 1e3,
        "serve.run_ms_p50": p50("run_s") * scale * 1e3,
        "serve.close_ms_p50": p50("close_s") * scale * 1e3,
        "serve.ping_ms_p50": stats.median(load["ping_s"]) * scale * 1e3,
        # A ratio of host times, so unscaled.
        "serve.sim_share": (stats.median(load["single_shot_s"])
                            / p50("latency_s")),
        "serve.refused_per_create": load["refused"] / load["attempted"],
    }


def run_serve(runner: Runner, trace: bool) -> dict:
    if trace:
        load = runner.child("serve.load", probe_procs=runner.probe_procs)
        traced, table = runner.traced("serve.load",
                                      probe_procs=runner.probe_procs)
        problems = serve_checks(load) + serve_checks(traced)
        metrics = zero_layer_metrics()
        metrics.update(layer_metrics(table))
        metrics.update(sched_per_step(
            table, table.get("obs.step_committed", {}).get("calls", 0)))
        metrics.update(serve_layer(load))
        cell_s = table.get("par.execute_cell", {}).get("total_s", 0.0)
        cells = table.get("par.execute_cell", {}).get("calls", 0)
        slots = traced["pool"]["size"] * sum(lap["wall_s"]
                                             for lap in traced["laps"])
        metrics.update({
            "par.worker_busy_frac": cell_s / slots,
            "par.dispatch_ms_per_cell": ((slots - cell_s) / cells * 1e3
                                         if cells else 0.0),
            "par.spawned": load["pool"]["spawned"],
            "par.respawns": load["pool"]["respawns"],
        })
        metrics["trace.overhead_frac"] = (
            serve_rate(load, serve_scale(load))
            / serve_rate(traced, serve_scale(traced)) - 1.0)
        return dict(metrics=metrics,
                    attempted=load["attempted"] + traced["attempted"],
                    failed=load["failed"] + traced["failed"],
                    problems=problems,
                    report={"traced_run_id": traced["run_id"]})
    setup_s = runner.setup_s("serve.setup")
    load = runner.child("serve.load", probe_procs=runner.probe_procs)
    metrics = serve_metrics(load, serve_scale(load))
    metrics["setup_s"] = setup_s
    report = {
        "laps": len(load["laps"]),
        "sessions": sum(served(lap) for lap in load["laps"]),
        "verified_by_single_shot": len(load["single_shot_s"])
        - len(load["unverified"]),
        "executor": load["executor"], "pool": load["pool"],
        "serve": serve_layer(load),
        "scale": serve_scale(load),
        "unscaled": serve_metrics(load),
        "named": {"sessions_per_s": metrics["throughput_per_s"],
                  "session_p50_ms": metrics["latency_p50_ms"],
                  "session_p99_ms": metrics["latency_tail_ms"]},
    }
    return dict(metrics=metrics, attempted=load["attempted"],
                failed=load["failed"], problems=serve_checks(load),
                report=report)


# -- record-replay -------------------------------------------------------------------


def rr_checks(passes: list[dict]) -> list[str]:
    problems = []
    digests: dict[int, set] = {}
    for p in passes:
        for number, row in enumerate(p["rounds"]):
            digests.setdefault(number, set()).add(row["log_digest"])
            if not row["faithful"]:
                problems.append(f"unfaithful replay: {row['workload']} "
                                f"{row['agent']}")
    if any(len(d) > 1 for d in digests.values()):
        problems.append("a spec's log digest differs between passes")
    return problems


def rr_best(passes: list[dict], *keys: str,
            scale: float = 1.0) -> list[float]:
    """Per spec, the fastest pass's time summed over ``keys``, times
    ``scale``."""
    return [t * scale for t in best_of(
        [[sum(r[k] for k in keys) for r in p["rounds"]] for p in passes])]


def rr_metrics(passes: list[dict], scale: float = 1.0) -> dict:
    """End-to-end figures of the passes, host times times ``scale``."""
    rounds = rr_best(passes, "record_s", "load_s", "replay_s",
                     scale=scale)
    steps = sum(r["steps"] for r in passes[0]["rounds"])
    return {
        "throughput_per_s": len(rounds) / sum(rounds),
        "latency_p50_ms": stats.median(rounds) * 1e3,
        "latency_tail_ms": max(rounds) * 1e3,
        "steps_per_s": steps / sum(rr_best(passes, "bare_s",
                                           scale=scale)),
        "_tail_level": 1.0, "_samples": len(rounds),
    }


def rr_layer(passes: list[dict], scale: float) -> dict:
    rounds = passes[0]["rounds"]
    steps = sum(r["steps"] for r in rounds)
    bare = sum(rr_best(passes, "bare_s", scale=scale))
    record = sum(rr_best(passes, "record_s", scale=scale))
    replay = sum(rr_best(passes, "load_s", "replay_s", scale=scale))
    return {
        "replay.log_bytes_per_step": sum(r["log_bytes"] for r in rounds)
        / steps,
        "replay.checkpoints": sum(r["checkpoints"] for r in rounds),
        "replay.load_ms": stats.median(rr_best(passes, "load_s",
                                               scale=scale)) * 1e3,
        "replay.record_vs_bare_x": record / bare,
        "replay.replay_vs_bare_x": replay / bare,
        "replay.record_steps_per_s": steps / record,
        "replay.replay_steps_per_s": steps / replay,
    }


def run_rr(runner: Runner, trace: bool) -> dict:
    if trace:
        plain = runner.scaled("rr.pass")
        traced, table = runner.traced("rr.pass")
        problems = rr_checks([plain, traced])
        metrics = zero_layer_metrics()
        metrics.update(layer_metrics(table))
        # bare, record and replay each commit every step once.
        metrics.update(sched_per_step(
            table, 3 * sum(r["steps"] for r in traced["rounds"])))
        metrics.update(rr_layer([plain], plain["scale"]))
        record = table.get("replay.record_run", {}).get("total_s", 0.0)
        checkpoint = table.get("replay.checkpoint", {}).get("total_s", 0.0)
        metrics["replay.checkpoint_share"] = (checkpoint / record
                                              if record else 0.0)
        metrics["trace.overhead_frac"] = (
            traced["wall_s"] * traced["scale"]
            / (plain["wall_s"] * plain["scale"]) - 1.0)
        rounds = plain["rounds"] + traced["rounds"]
        return dict(metrics=metrics, attempted=len(rounds),
                    failed=sum(1 for r in rounds if not r["faithful"]),
                    problems=problems,
                    report={"traced_run_id": traced["run_id"]})
    setup_s = runner.setup_s("rr.setup")
    passes, scale = runner.repeat("rr.pass")
    problems = rr_checks(passes)
    metrics = rr_metrics(passes, scale)
    metrics["setup_s"] = setup_s
    rounds = [r for p in passes for r in p["rounds"]]
    layer = rr_layer(passes, scale)
    report = {"passes": len(passes), "replay": layer, "scale": scale,
              "unscaled": rr_metrics(passes),
              "named": {
                  "record_steps_per_s": layer["replay.record_steps_per_s"],
                  "replay_steps_per_s": layer["replay.replay_steps_per_s"]}}
    return dict(metrics=metrics, attempted=len(rounds),
                failed=sum(1 for r in rounds if not r["faithful"]),
                problems=problems, report=report)


#: workload -> (runner, pool workers, client connections, processes the
#: timed phase keeps busy, which is how many the host-speed probe runs).
WORKLOADS = {
    "fig5-matrix": (run_fig5, 2, 0, 2),
    "serve-nginx": (run_serve, 2, 2, 2),
    "record-replay": (run_rr, 0, 0, 1),
}


def emit(workload: str, outcome: dict, trace: bool, host: dict) -> dict:
    units = PER_LAYER if trace else END_TO_END
    raw = outcome["metrics"]
    metrics = {name: {"value": raw[name], "unit": unit}
               for name, unit in units.items()}
    attempted = max(1, outcome["attempted"])
    for name, entry in metrics.items():
        print(f"{workload:14s} {name:36s} {entry['value']:>14.6g} "
              f"{entry['unit']}")
    print(f"{workload:14s} {'error_rate':36s} "
          f"{outcome['failed'] / attempted:>14.6g} ratio "
          f"({outcome['failed']} failed of {attempted} attempted)")
    for problem in outcome["problems"]:
        print(f"{workload:14s} CHECK FAILED: {problem}")
    for name, value in outcome["report"].get("named", {}).items():
        print(f"{workload:14s} {name:36s} {value:>14.6g}  (workload name)")
    report = dict(outcome["report"], host=host,
                  samples=raw.get("_samples"),
                  tail_level=raw.get("_tail_level"))
    print("report: " + json.dumps(report, sort_keys=True))
    correct = not outcome["problems"] and outcome["failed"] == 0
    return {"correct": correct, "attempted": attempted,
            "failed": outcome["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    run, workers, connections, busy = WORKLOADS[args.workload]
    runner = Runner(args.workload, args.seed, args.seconds, busy)
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        outcome = run(runner, bool(args.trace))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    outcome["metrics"]["peak_rss_mb"] = runner.peak_rss_mb()
    outcome["report"]["host_probes"] = runner.probes
    for child in runner.children:
        outcome["report"]["host_probes"] += [
            {"procs": runner.probe_procs, "mean_s": value}
            for value in child.get("probes", [])]
    result = emit(args.workload, outcome, bool(args.trace),
                  host_record(workers, connections))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
