"""Host-speed reference: a fixed pure-Python load timed between repetitions.

The benchmark runs on shared hosts whose speed drifts by tens of
percent over minutes (other tenants' load, memory-bandwidth contention).
A drift that lasts a whole repetition cannot be removed by taking the
fastest of several, so every host time the benchmark reports is scaled
to a reference host speed:

    reported = measured * REFERENCE_S / probe

where ``probe`` is the mean iteration time of :func:`reference_work`,
measured on as many processes at once as the timed work keeps busy,
before and after each timed repetition of a run; a run is scaled by the
median of its probes, so one probe that caught a burst moves nothing.
The mean, not the median or the minimum, because a host that
time-slices the vCPUs with other tenants makes a few iterations very
slow and leaves the rest alone; the mean slows with it as the
repetition does (a competing busy process slowed the Figure-5 sweep
2.0x and this mean 2.0x, while the probe's median moved 5%).
``REFERENCE_S`` is that mean on the 2-vCPU reference container, so
reported times read as milliseconds or seconds on that host.  The
reference load imports nothing from ``repro``: a change to the program
cannot move it, only the host can.

Run as ``python3 -m perfbench.calib SECONDS`` a probe process prints
the JSON list of its iteration times.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time

#: Mean iteration time of the reference load on the reference host.
REFERENCE_S = 1.9e-3

#: How long each probe process runs.
PROBE_S = 1.0

#: Objects in the reference heap: a few tens of MB, like a simulator
#: worker's resident set, so the probe feels cache and memory-bandwidth
#: contention as the simulator does.
HEAP_OBJECTS = 150_000
WALKS = 64
WALK_LEN = 150


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt):
        self.key = key
        self.value = value
        self.next = nxt


def build_heap(seed: int = 7) -> tuple[list, list]:
    rng = random.Random(seed)
    heap = [{"k": i, "v": [i, i + 1], "n": None}
            for i in range(HEAP_OBJECTS)]
    for obj in heap:
        obj["n"] = heap[rng.randrange(len(heap))]
    starts = [rng.randrange(len(heap)) for _ in range(WALKS)]
    return heap, starts


def reference_work(heap: list, starts: list) -> int:
    """One iteration: pointer-chasing dict reads and writes over the
    heap, then allocation, dict and string churn like an interpreter
    loop's."""
    acc = 0
    for start in starts:
        obj = heap[start]
        for _ in range(WALK_LEN):
            acc += obj["k"]
            obj["v"][0] += 1
            obj = obj["n"]
    table: dict = {}
    chain = None
    for i in range(1000):
        chain = _Node(i & 63, (i, i + 1), chain)
        table[(i * 7919) % 4099] = chain
        acc += len(str(i))
    for key in sorted(table):
        acc += table[key].key
    while chain is not None:
        acc += chain.key
        chain = chain.next
    return acc


def iteration_times(seconds: float) -> list[float]:
    heap, starts = build_heap()
    reference_work(heap, starts)
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        reference_work(heap, starts)
        times.append(time.perf_counter() - t0)
    return times


def probe(procs: int, cwd: str, seconds: float = PROBE_S) -> float:
    """Mean iteration time of ``procs`` probe processes run at once."""
    children = [subprocess.Popen(
        [sys.executable, "-m", "perfbench.calib", str(seconds)],
        cwd=cwd, stdout=subprocess.PIPE, text=True)
        for _ in range(procs)]
    times: list[float] = []
    try:
        for child in children:
            out, _err = child.communicate(timeout=seconds + 30)
            if child.returncode != 0:
                raise RuntimeError(f"probe exited {child.returncode}")
            times.extend(json.loads(out))
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
    return statistics.fmean(times)


def scale(probes: list[float]) -> float:
    """The factor host times measured among ``probes`` are scaled by."""
    return REFERENCE_S / statistics.median(probes)


if __name__ == "__main__":
    sys.stdout.write(json.dumps(iteration_times(float(sys.argv[1]))) + "\n")
