"""Metric names and units (from ``BENCHMARK.json``), and which end-to-end
metric each layer metric should move on which workload.

``BENCHMARK.json`` is the one source of the workload list and of every
metric's name, unit and direction.  This module adds only what the file does
not hold: the layer map.  In the map,
``moves`` names (end-to-end metric, workload) pairs where the layer does the
work; ``still_on`` names workloads where the layer does little work, so a
change to it should not move their end-to-end numbers.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")

with open(BENCHMARK_JSON) as _handle:
    BENCHMARK = json.load(_handle)

WORKLOAD_NAMES: List[str] = [entry["name"] for entry in BENCHMARK["workloads"]]
END_TO_END: List[str] = [entry["name"] for entry in BENCHMARK["end_to_end"]]
PER_LAYER: List[str] = [entry["name"] for entry in BENCHMARK["per_layer"]]
UNITS: Dict[str, str] = {
    entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
}

#: End-to-end quantities measured on the wall clock.  They are reported as
#: per-layer metrics, from the untraced half of a traced run, because on the
#: 2-vCPU virtual machine the benchmark was built on they do not repeat
#: within a tenth from run to run (see README).  The layer map still names
#: them: they are what a layer change moves for the user.
WALL_CLOCK = ["ops_per_s", "input_mb_per_s", "latency_p50_ms", "latency_p90_ms",
              "latency_samples", "compile_ms_p50", "fail_frac"]

SMALL, BULK, SERVICE, CLUSTER = "oneliners-small", "oneliners-bulk", "service-mix", "cluster-fanout"
ONELINERS = [SMALL, BULK]

# The daemon compiles every fresh-binding job of service-mix, so front-end
# and pass costs reach its latency; bulk and cluster ops are 40x to 180x
# longer than a compile.
_FRONT = {"moves": [("latency_p50_ms", SMALL), ("latency_p50_ms", SERVICE), ("cpu_ms_per_op", SERVICE)],
          "still_on": [BULK, CLUSTER]}
_EMIT = {"moves": [("latency_p50_ms", SMALL)], "still_on": [BULK, CLUSTER]}
_SHAPE = {"moves": [("latency_p50_ms", SMALL), ("input_mb_per_s", BULK), ("cpu_ms_per_op", BULK)],
          "still_on": []}
_FIXED = {"moves": [("latency_p50_ms", SMALL), ("ops_per_s", SMALL), ("latency_p50_ms", SERVICE),
                    ("ops_per_s", SERVICE), ("cpu_ms_per_op", SERVICE)], "still_on": [BULK]}
_DATA = {"moves": [("input_mb_per_s", BULK), ("cpu_ms_per_op", BULK), ("peak_rss_mb", BULK)],
         "still_on": [SMALL]}
_COMPUTE = {"moves": [("input_mb_per_s", BULK), ("cpu_ms_per_op", BULK)], "still_on": [SMALL]}
_JIT = {"moves": [("latency_p50_ms", SERVICE), ("cpu_ms_per_op", SERVICE)], "still_on": ONELINERS}
_SERVICE = {"moves": [("latency_p50_ms", SERVICE), ("ops_per_s", SERVICE)], "still_on": ONELINERS}
_CLUSTER = {"moves": [("input_mb_per_s", CLUSTER), ("ops_per_s", CLUSTER), ("cpu_ms_per_op", CLUSTER)],
            "still_on": ONELINERS}
_NONE = {"moves": [], "still_on": []}

#: The default pass pipeline, in order (``PashConfig().pipeline()``).
DEFAULT_PASSES = ["split-insertion", "parallelize", "aggregation-lowering", "eager-relays", "fuse-stages"]
NODE_KINDS = ["command", "fused", "cat", "split", "aggregator"]

#: Per-layer metric name -> what it should move.
LAYER_MAP: Dict[str, Dict[str, List]] = {
    **{name: _NONE for name in WALL_CLOCK},
    "shell.parse_ms": _FRONT,
    "dfg.translate_ms": _FRONT,
    "dfg.nodes": _FRONT,
    "transform.passes_ms": _FRONT,
    **{f"transform.pass.{name}_ms": _FRONT for name in DEFAULT_PASSES},
    "transform.nodes_out": _SHAPE,
    "transform.stages_fused": _SHAPE,
    "backend.emit_ms": _EMIT,
    "backend.emitted_bytes": _EMIT,
    **{f"engine.{name}": _FIXED for name in (
        "execute_ms", "spawn_ms", "plan_ms", "dispatch_ms", "collect_ms", "residual_ms",
        "processes_spawned", "pool_reuse_ratio")},
    **{f"engine.{name}": _DATA for name in (
        "bytes_moved_per_input_byte", "edges_direct", "edges_buffered", "spilled_bytes",
        "peak_buffered_bytes", "worker_wait_s", "worker_utilization")},
    **{f"runtime.compute_s.{kind}": _COMPUTE for kind in NODE_KINDS},
    "runtime.interp_ms": _NONE,
    "runtime.ops_slower_than_interp": {"moves": [("latency_p50_ms", SMALL), ("input_mb_per_s", BULK)],
                                       "still_on": []},
    **{f"jit.{name}": _JIT for name in ("regions_compiled", "cache_hits", "fallbacks", "compile_ms")},
    **{f"service.{name}": _SERVICE for name in (
        "server_ms_p50", "overhead_ms_p50", "rejected", "plan_cache_hit_ratio")},
    **{f"cluster.{name}": _CLUSTER for name in (
        "fleet_start_ms", "remote_tasks", "requeued_tasks", "bytes_moved_per_input_byte")},
    "obs.trace_overhead_frac": _NONE,
    "known_defect.mismatch_frac": _NONE,
}

#: Per-layer metrics that deliberately move no end-to-end metric: baselines
#: and the check on the traced run itself.
MOVES_NOTHING = {
    **{name: "an end-to-end quantity itself (see WALL_CLOCK)" for name in WALL_CLOCK},
    "runtime.interp_ms": "the sequential-interpreter baseline the parallel "
    "latency is compared with; pash changes should not move it",
    "obs.trace_overhead_frac": "keeps the traced numbers honest; tracing is "
    "off in every end-to-end run",
    "known_defect.mismatch_frac": "the untimed probe of the known tr -cs defect; "
    "a fix of it drives this to 0",
}
