"""Span recording for the traced run, and the self-time arithmetic.

A span is one call into a layer: a name, a start and an end on the
host's monotonic clock, the span that was open on the same thread when
it began (its parent), and the run id.  Spans are appended to
per-thread arrays in memory and written out when the process ends, one
file per thread, so the hot path takes no lock and does no I/O.

*Wait* spans mark calls that block on another thread or process (a
client waiting for the daemon, a parent waiting for its pool).  They
also record the thread's CPU time across the call; only that busy part
counts as the layer's self time, the rest is time spent waiting.
"""

from __future__ import annotations

import array
import json
import os
import threading
import time
from collections import defaultdict

_now = time.perf_counter


class ThreadSpans:
    """The spans one thread recorded, as parallel arrays."""

    __slots__ = ("thread", "code", "parent", "start", "end", "busy",
                 "stack")

    def __init__(self, thread: str):
        self.thread = thread
        self.code = array.array("H")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        #: span index -> thread CPU seconds, for wait spans only.
        self.busy: dict[int, float] = {}
        self.stack: list[int] = []


class SpanRecorder:
    """Per-process span store; one :class:`ThreadSpans` per thread."""

    def __init__(self, run_id: str, out_dir: str):
        self.run_id = run_id
        self.out_dir = out_dir
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._reset()

    def _reset(self) -> None:
        self._buffers: list[ThreadSpans] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def code_for(self, name: str) -> int:
        """Register a span name (before any thread records it)."""
        code = self._codes.get(name)
        if code is None:
            code = len(self.names)
            self.names.append(name)
            self._codes[name] = code
        return code

    def _buffer(self) -> ThreadSpans:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = ThreadSpans(threading.current_thread().name)
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def open(self, code: int):
        buf = self._buffer()
        index = len(buf.code)
        buf.code.append(code)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.end.append(0.0)
        buf.stack.append(index)
        buf.start.append(_now())
        return buf, index

    @staticmethod
    def close(buf: ThreadSpans, index: int) -> None:
        buf.end[index] = _now()
        buf.stack.pop()

    def after_fork(self) -> None:
        """Forget the parent's spans in a freshly forked child, and
        arrange for the child's own spans to be written when it exits
        (``multiprocessing`` runs its finalizers before ``os._exit``)."""
        from multiprocessing import util

        self._reset()
        util.Finalize(None, self.flush, exitpriority=10)

    def flush(self) -> int:
        """Write every thread's closed spans; returns the span count."""
        os.makedirs(self.out_dir, exist_ok=True)
        written = 0
        with self._lock:
            buffers = list(self._buffers)
        for number, buf in enumerate(buffers):
            if not len(buf.code):
                continue
            path = os.path.join(self.out_dir,
                                f"spans-{self.run_id}-{os.getpid()}-"
                                f"{number}.bin")
            write_spans(path, self.run_id, self.names, buf)
            written += len(buf.code)
        return written


def write_spans(path: str, run_id: str, names: list[str],
                buf: ThreadSpans) -> None:
    header = {"run_id": run_id, "pid": os.getpid(), "thread": buf.thread,
              "names": names, "count": len(buf.code),
              "busy": {str(k): v for k, v in buf.busy.items()}}
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode() + b"\n")
        for arr in (buf.code, buf.parent, buf.start, buf.end):
            arr.tofile(handle)


def read_spans(path: str) -> dict:
    """Load one thread's span file: header fields plus the arrays."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["count"]
        data = dict(header)
        for key, typecode in (("code", "H"), ("parent", "i"),
                              ("start", "d"), ("end", "d")):
            arr = array.array(typecode)
            arr.fromfile(handle, count)
            data[key] = arr
    data["busy"] = {int(k): v for k, v in header["busy"].items()}
    return data


def load_run(out_dir: str, run_id: str) -> list[dict]:
    """Every span file of one run (files of other runs are ignored)."""
    threads = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".bin"):
            data = read_spans(os.path.join(out_dir, name))
            if data["run_id"] == run_id:
                threads.append(data)
    return threads


def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(start, end, parent, busy=None) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children that overlap each other are counted once (interval union),
    and a child reaching past its parent is clipped to the parent.  For
    a wait span (``busy`` holds its thread CPU seconds) the self time is
    at most that busy part.  Spans never closed (end 0) get 0.
    """
    busy = busy or {}
    children: dict[int, list[int]] = defaultdict(list)
    for index, up in enumerate(parent):
        if up >= 0:
            children[up].append(index)
    out = []
    for index in range(len(start)):
        lo, hi = start[index], end[index]
        if hi <= 0.0 or hi < lo:
            out.append(0.0)
            continue
        kids = children.get(index)
        covered = 0.0
        if kids:
            covered = covered_length(
                lo, hi, [(start[k], end[k]) for k in kids if end[k] > 0])
        own = (hi - lo) - covered
        if index in busy:
            own = min(own, busy[index])
        out.append(max(own, 0.0))
    return out


def aggregate(threads: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total duration and self time (seconds)."""
    table: dict[str, dict] = {}
    for data in threads:
        names = data["names"]
        selfs = self_times(data["start"], data["end"], data["parent"],
                           data["busy"])
        for index, code in enumerate(data["code"]):
            if data["end"][index] <= 0.0:
                continue
            row = table.setdefault(names[code],
                                   {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += data["end"][index] - data["start"][index]
            row["self_s"] += selfs[index]
    return table
