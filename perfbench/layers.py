"""End-to-end and per-layer metrics from op records and spans."""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List, Optional

from perfbench import catalog
from perfbench.measure import Span, percentile, self_times


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def end_to_end(records, setup_times: List[float], peak_rss_mb: float,
               cpu_seconds: float) -> Dict[str, float]:
    # Per attempted op; a correct run has no failed op, so that is every
    # completed op too.
    return {
        "setup_s": statistics.median(setup_times),
        "cpu_ms_per_op": cpu_seconds * 1000 / max(1, len(records)),
        "peak_rss_mb": peak_rss_mb,
    }


def wall_clock(records, elapsed: float) -> Dict[str, float]:
    """The wall-clock end-to-end quantities, kept as per-layer metrics (see
    README): throughput, latency percentiles, compile time and failures.

    Failed ops keep their measured latency, so the script mix behind each
    percentile is the same whatever the seed; they are counted on their
    own, in ``fail_frac``.
    """
    completed = [record for record in records if record["ok"]]
    latencies = [record["latency"] for record in records]
    compiles = [record["compile"] for record in records if record["compile"] is not None]
    return {
        "ops_per_s": len(completed) / elapsed,
        "input_mb_per_s": sum(record["bytes"] for record in completed) / 1e6 / elapsed,
        "latency_p50_ms": percentile(latencies, 0.5) * 1000,
        "latency_p90_ms": percentile(latencies, 0.9) * 1000,
        "latency_samples": float(len(records)),
        "compile_ms_p50": percentile(compiles, 0.5) * 1000 if compiles else 0.0,
        "fail_frac": (len(records) - len(completed)) / max(1, len(records)),
    }


def failing_pairs(workload: str, records, label) -> Dict[str, int]:
    counts: Dict[str, int] = defaultdict(int)
    for record in records:
        if not record["ok"]:
            counts[f"{workload}/{label(record['op'])}: {record['reason'][:120]}"] += 1
    return dict(counts)


# ---------------------------------------------------------------------------
# Span trees per op
# ---------------------------------------------------------------------------


class SpanIndex:
    def __init__(self, spans: List[Span]) -> None:
        self.by_id = {span.span_id: span for span in spans}
        self.children: Dict[str, List[Span]] = defaultdict(list)
        for span in spans:
            if span.parent_id:
                self.children[span.parent_id].append(span)

    def subtree(self, root: Span) -> List[Span]:
        found, stack = [], [root]
        while stack:
            span = stack.pop()
            found.append(span)
            stack.extend(self.children.get(span.span_id, ()))
        return found


def _durations(spans: List[Span]) -> Dict[str, float]:
    """Total microseconds per span name, plus ``@nodes``: the DFG nodes the
    front-end translated (an attribute of the benchmark's translate span)."""
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.end - span.start
        if span.name == "bench:translate":
            totals["@nodes"] += span.attributes.get("nodes", 0)
    return totals


def waterfall(workload: str, records, client_spans: List[Span], server_spans: List[Span]):
    """Mean per-op self time of every part (ms); the parts sum to the mean
    traced op time.  Returns ``(parts, op_ms, per_op_durations)``."""
    client = SpanIndex(client_spans)
    server = SpanIndex(server_spans)
    jobs = {span.attributes.get("job_id"): span for span in server_spans if span.name == "service:job"}
    rename = {"engine.residual": "cluster.fleet_start"} if workload == "cluster-fanout" else None
    parts: Dict[str, float] = defaultdict(float)
    per_op: List[Dict[str, float]] = []
    op_total = 0.0
    counted = 0
    for record in records:
        root = client.by_id.get(record["root"])
        if root is None:
            continue
        counted += 1
        op_total += root.end - root.start
        if workload == "service-mix":
            job = jobs.get(record.get("job_id"))
            server_us = (record["server"] or 0.0) * 1e6
            parts["service.overhead"] += (root.end - root.start) - server_us
            if job is None:
                parts["service.unattributed"] += server_us
                per_op.append({})
                continue
            parts["service.job_other"] += server_us - (job.end - job.start)
            for part, value in self_times(server.children, job).items():
                parts[part] += value
            per_op.append(_durations(server.subtree(job)))
        else:
            for part, value in self_times(client.children, root, rename).items():
                parts[part] += value
            per_op.append(_durations(client.subtree(root)))
    scale = 1000.0 * max(1, counted)
    return {part: value / scale for part, value in parts.items()}, op_total / scale, per_op


def per_layer(
    workload: str,
    untraced: List[Dict[str, Any]],
    untraced_elapsed: float,
    traced: List[Dict[str, Any]],
    per_op_durations: List[Dict[str, float]],
    interp_ms: Dict[str, float],
    label,
    stats_delta: Optional[Dict[str, int]] = None,
) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` (0 where a layer is idle)."""
    values = {name: 0.0 for name in catalog.PER_LAYER}
    values.update(wall_clock(untraced, untraced_elapsed))
    count = max(1, len(traced))
    service = workload == "service-mix"

    # Span-derived timings, mean per op (ms).
    def span_ms(*names: str) -> float:
        return _mean(sum(op.get(name, 0.0) for name in names) / 1000 for op in per_op_durations)

    execute_name = "jit:region-execute" if service else "bench:execute"
    values["shell.parse_ms"] = span_ms("bench:parse")
    values["dfg.translate_ms"] = span_ms("bench:translate") - values["shell.parse_ms"]
    values["backend.emit_ms"] = span_ms("bench:render")
    values["engine.execute_ms"] = span_ms(execute_name)
    for phase in ("spawn", "plan", "dispatch", "collect"):
        values[f"engine.{phase}_ms"] = span_ms(f"scheduler:{phase}")
    values["engine.residual_ms"] = values["engine.execute_ms"] - span_ms("engine:run")
    if workload == "cluster-fanout":
        values["cluster.fleet_start_ms"] = values["engine.residual_ms"]

    # Compile-side counters pash returns (client-side compiles only).
    pass_seconds: Dict[str, float] = defaultdict(float)
    for record in traced:
        for report in record["reports"]:
            for name, seconds in report.pass_seconds.items():
                pass_seconds[name] += seconds
    for name in catalog.DEFAULT_PASSES:
        values[f"transform.pass.{name}_ms"] = pass_seconds.get(name, 0.0) * 1000 / count
    values["transform.passes_ms"] = sum(pass_seconds.values()) * 1000 / count
    if service:
        # The daemon compiles: its pass spans stand in for the reports.
        for name in catalog.DEFAULT_PASSES:
            values[f"transform.pass.{name}_ms"] = span_ms(f"pass:{name}")
        values["transform.passes_ms"] = span_ms(*(f"pass:{name}" for name in catalog.DEFAULT_PASSES))
    values["backend.emitted_bytes"] = _mean(record["text_bytes"] for record in traced)

    # Engine counters (EngineMetrics of each op).
    runs = [record for record in traced if record["metrics"] is not None]
    metrics = [record["metrics"] for record in runs]
    spawned = sum(m.processes_spawned for m in metrics)
    reused = sum(m.processes_reused for m in metrics)
    if service and stats_delta:
        spawned, reused = stats_delta["spawned"], stats_delta["reused"]
    values["engine.processes_spawned"] = spawned / count
    values["engine.pool_reuse_ratio"] = reused / (spawned + reused) if spawned + reused else 0.0
    input_bytes = sum(record["bytes"] for record in runs)
    moved = sum(m.total_bytes_moved for m in metrics)
    values["engine.bytes_moved_per_input_byte"] = moved / input_bytes if input_bytes else 0.0
    values["engine.edges_direct"] = _mean(m.edges_direct for m in metrics)
    values["engine.edges_buffered"] = _mean(m.edges_buffered for m in metrics)
    values["engine.spilled_bytes"] = _mean(m.total_spilled_bytes for m in metrics)
    values["engine.peak_buffered_bytes"] = float(max((m.peak_buffered_bytes for m in metrics), default=0))
    values["engine.worker_wait_s"] = _mean(
        sum(node.wall_seconds - node.compute_seconds for node in m.nodes) for m in metrics
    )
    values["engine.worker_utilization"] = _mean(m.worker_utilization for m in metrics)
    values["transform.stages_fused"] = _mean(m.stages_fused for m in metrics)
    for kind in catalog.NODE_KINDS:
        values[f"runtime.compute_s.{kind}"] = _mean(
            sum(node.compute_seconds for node in m.nodes if node.kind == kind) for m in metrics
        )
    if not service:
        values["dfg.nodes"] = _mean(op.get("@nodes", 0.0) for op in per_op_durations)
        values["transform.nodes_out"] = _mean(record["nodes_out"] for record in runs)
    if workload == "cluster-fanout":
        values["cluster.remote_tasks"] = _mean(m.remote_tasks for m in metrics)
        values["cluster.requeued_tasks"] = _mean(m.requeued_tasks for m in metrics)
        values["cluster.bytes_moved_per_input_byte"] = values["engine.bytes_moved_per_input_byte"]

    # JIT and service counters.
    if service:
        jit = [record["jit"] for record in traced if record["jit"]]
        compiled = sum(report["regions_compiled"] for report in jit)
        values["jit.regions_compiled"] = compiled / count
        values["jit.cache_hits"] = sum(report["cache_hits"] for report in jit) / count
        values["jit.fallbacks"] = sum(report["fallbacks"] for report in jit) / count
        values["jit.compile_ms"] = (
            sum(report["compile_seconds"] for report in jit) * 1000 / compiled if compiled else 0.0
        )
        done = [record for record in traced if record["server"] is not None]
        values["service.server_ms_p50"] = percentile([r["server"] * 1000 for r in done], 0.5)
        values["service.overhead_ms_p50"] = percentile(
            [(r["latency"] - r["server"]) * 1000 for r in done], 0.5
        )
        if stats_delta:
            lookups = stats_delta["hits"] + stats_delta["misses"]
            values["service.plan_cache_hit_ratio"] = stats_delta["hits"] / lookups if lookups else 0.0
            values["service.rejected"] = float(stats_delta["rejected"])

    # The never-a-slowdown baseline: the sequential interpreter, same inputs.
    values["runtime.interp_ms"] = _mean(interp_ms.values())
    by_label: Dict[str, List[float]] = defaultdict(list)
    for record in untraced:
        by_label[label(record["op"])].append(record["latency"] * 1000)
    values["runtime.ops_slower_than_interp"] = float(sum(
        1 for name, timings in by_label.items()
        if name in interp_ms and statistics.median(timings) > interp_ms[name]
    ))

    untraced_mean = _mean(record["latency"] for record in untraced)
    traced_mean = _mean(record["latency"] for record in traced)
    values["obs.trace_overhead_frac"] = (
        (traced_mean - untraced_mean) / untraced_mean if untraced_mean else 0.0
    )
    return values
