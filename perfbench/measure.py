"""Measurement helpers: percentiles, process-tree CPU and memory, span trees."""

from __future__ import annotations

import math
import os
import resource
import statistics
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> List[float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return [value, value, value]
    return statistics.quantiles(values, n=4)


# ---------------------------------------------------------------------------
# CPU time and peak memory of the pash processes under the benchmark
# ---------------------------------------------------------------------------


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


def _descendants() -> List[int]:
    found: List[int] = []
    stack = _children(os.getpid())
    while stack:
        pid = stack.pop()
        found.append(pid)
        stack.extend(_children(pid))
    return found


def _process_cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` and of the children it has reaped."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return sum(int(value) for value in fields[11:15]) / os.sysconf("SC_CLK_TCK")


def tree_cpu_seconds() -> float:
    """CPU seconds used so far by this process and all its descendants.

    Living descendants (pool workers, the daemon and its pool) are read from
    ``/proc``; exited ones (cluster workers) are in ``RUSAGE_CHILDREN`` or in
    their parent's reaped-children times.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    for pid in _descendants():
        total += _process_cpu_seconds(pid)
    return total


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


class PeakRssSampler:
    """The largest VmHWM of any process under this one, polled on a thread.

    ``RUSAGE_CHILDREN``'s ``ru_maxrss`` cannot stand in for it: a child
    that execs (a cluster worker, the daemon) is charged the high-water RSS
    of the address space it replaced, i.e. of this process at spawn time.
    VmHWM is the process's own, once the process has exec'd: a child caught
    between fork and exec still shows this process's memory, so a process
    counts only from the second sample that sees it.  Short-lived processes
    (a cluster worker lives about 0.4 s) are caught while they run;
    long-lived ones get a last sample in ``stop``.  The thread's own CPU
    time is kept in ``cpu_seconds`` so a caller can take it out.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.peak_kb = 0
        self.cpu_seconds = 0.0
        self._previous: set = set()
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        started = time.thread_time()
        current = set(_descendants())
        for pid in current & self._previous:
            self.peak_kb = max(self.peak_kb, _vm_hwm_kb(pid))
        self._previous = current
        self.cpu_seconds += time.thread_time() - started

    def _loop(self) -> None:
        while not self._stopped.wait(self.interval):
            self._sample()

    def stop(self) -> float:
        """Take a last sample, stop the thread, return the peak in MB."""
        if not self._stopped.is_set():
            self._stopped.set()
            self._thread.join()
            self._sample()
        return self.peak_kb / 1024.0


# ---------------------------------------------------------------------------
# Span trees: self time per layer
# ---------------------------------------------------------------------------


class Span:
    """The fields of a span the waterfall needs (from any exporter)."""

    __slots__ = ("name", "span_id", "parent_id", "pid", "tid", "start", "end", "attributes")

    def __init__(self, name, span_id, parent_id, pid, tid, start, duration, attributes=None):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.pid = pid
        self.tid = tid
        self.start = start
        self.end = start + duration
        self.attributes = attributes or {}

    @classmethod
    def from_record(cls, record) -> "Span":
        return cls(
            record.name, record.span_id, record.parent_id, record.pid, record.tid,
            record.start_us, record.duration_us, record.attributes,
        )

    @classmethod
    def from_chrome(cls, event: Dict) -> "Span":
        args = event.get("args") or {}
        return cls(
            event["name"], args.get("span_id"), args.get("parent_id"), event["pid"],
            event["tid"], event["ts"], event["dur"], args,
        )


def layer_of(name: str) -> str:
    """The waterfall part a span's self time belongs to."""
    if name.startswith("pass:"):
        return "transform.passes"
    if name.startswith("region:"):
        return "engine.residual"
    if name.startswith("node:"):
        return "runtime.coordinator_nodes"
    if name.startswith("resilience:"):
        return "resilience"
    return SPAN_LAYERS.get(name, "other." + name.split(":")[0])


#: Span name -> waterfall part.  ``bench:*`` spans are recorded by this
#: benchmark around calls into pash; the rest are pash's own spans.
SPAN_LAYERS = {
    "bench:op": "bench.other",
    "bench:compile": "api.compile_other",
    "parse": "api.frontend_other",
    "bench:translate": "dfg.translate",
    "bench:parse": "shell.parse",
    "bench:render": "backend.emit",
    "bench:execute": "engine.residual",
    "engine:run": "engine.run_other",
    "scheduler:spawn": "engine.spawn",
    "scheduler:plan": "engine.plan",
    "scheduler:dispatch": "engine.dispatch",
    "scheduler:collect": "engine.collect",
    "service:job": "service.job_other",
    "jit:script": "jit.driver",
    "jit:compile": "jit.compile",
    "jit:cache-hit": "jit.cache_lookup",
    "jit:fallback": "jit.fallback",
    "jit:region-execute": "jit.region_other",
}


def self_times(
    children: Dict[str, List[Span]], root: Span, rename: Optional[Dict[str, str]] = None
) -> Dict[str, float]:
    """Split ``root``'s interval into per-part self times (microseconds).

    ``children`` maps a span id to its child spans.  Only children on the
    root's own thread count: workers in other processes run concurrently
    with the thread that waits for them, so they do not partition its time.
    Each child is clipped to its parent's window before recursing, which
    makes the parts sum exactly to the root's duration.
    """
    parts: Dict[str, float] = defaultdict(float)

    def walk(span: Span, start: float, end: float) -> None:
        covered = 0.0
        cursor = start
        own = [child for child in children.get(span.span_id, ())
               if child.pid == root.pid and child.tid == root.tid]
        for child in sorted(own, key=lambda item: item.start):
            child_start = max(child.start, cursor)
            child_end = min(child.end, end)
            if child_end <= child_start:
                continue
            covered += child_end - child_start
            cursor = child_end
            walk(child, child_start, child_end)
        part = layer_of(span.name)
        if rename:
            part = rename.get(part, part)
        parts[part] += (end - start) - covered

    walk(root, root.start, root.end)
    return dict(parts)
