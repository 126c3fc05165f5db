"""EXP-ENGINE — measured wall-clock speedup of the parallel engine.

Every other benchmark regenerates the paper's numbers through the
discrete-event simulator; this one runs the same dataflow graphs for real on
``repro.engine`` and times them.  Three workloads:

* *latency-bound* — grep with a fixed per-line cost (the stand-in for the
  paper's complex-NFA grep, whose real cost is ~0.24 ms/line per Table 2).
  A width-4 graph overlaps the four workers' stage latency, so the engine
  must beat the interpreter on any machine — concurrency, not core count,
  is what's being bought.
* *CPU-bound* — the Table-2 ``sort`` one-liner over an in-memory corpus.
  Here the speedup depends on the cores actually available, so the
  assertion only applies on multi-core machines; the measurement is always
  printed.
* *spawn-bound* — a batch of short Table-2-style pipelines run back to back
  through one session.  This is where the persistent worker pool, stage
  fusion, relay elision, and direct (pump-free) edges pay: the same
  workload is also run on the legacy configuration (one fork per node per
  run, one pump per edge, no fusion) and the ratio is asserted ≥ 1.5x.

Run with ``--bench-json`` to persist the measurements (see conftest).
"""

import os
import time

from conftest import print_header

from repro import api
from repro.api import Pash, PashConfig
from repro.commands import standard_registry
from repro.engine.scheduler import SchedulerOptions
from repro.evaluation.harness import measure_benchmark
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.streams import VirtualFileSystem
from repro.workloads import text
from repro.workloads.oneliners import get_one_liner

WIDTH = 4
LINES_PER_CHUNK = 300
SECONDS_PER_LINE = 4e-4  # ≈ Table 2's complex-NFA grep cost


def _slow_grep_registry():
    """The standard registry with grep carrying a per-line latency."""
    registry = standard_registry().copy()
    real_grep = registry.lookup("grep").function

    def slow_grep(arguments, inputs):
        time.sleep(SECONDS_PER_LINE * sum(len(stream) for stream in inputs))
        return real_grep(arguments, inputs)

    registry.register_function(
        "grep", slow_grep, "grep with per-line latency (complex-NFA stand-in)"
    )
    return registry


def _environment():
    files = {
        f"in{index}.txt": text.text_lines(LINES_PER_CHUNK, seed=index) for index in range(WIDTH)
    }
    return ExecutionEnvironment(
        filesystem=VirtualFileSystem(files), registry=_slow_grep_registry()
    )


def _run_latency_workload():
    chunks = " ".join(f"in{index}.txt" for index in range(WIDTH))
    script = f"cat {chunks} | grep the > out.txt"
    config = PashConfig.paper_default(WIDTH)

    interpreter = api.run(script, backend="interpreter", environment=_environment())
    parallel = api.run(
        script, config=config, backend="parallel", environment=_environment()
    )
    return interpreter, parallel


def test_bench_engine_latency_bound_speedup(benchmark, bench_record):
    interpreter, parallel = benchmark.pedantic(_run_latency_workload, rounds=1, iterations=1)
    speedup = interpreter.elapsed_seconds / parallel.elapsed_seconds

    print_header("Engine — latency-bound grep, measured wall clock")
    print(f"{'backend':<14}{'seconds':<10}{'workers':<9}{'bytes moved'}")
    print(f"{'interpreter':<14}{interpreter.elapsed_seconds:<10.3f}{1:<9}{'-'}")
    print(
        f"{'parallel':<14}{parallel.elapsed_seconds:<10.3f}"
        f"{parallel.metrics.worker_count:<9}{parallel.metrics.total_bytes_moved}"
    )
    print(f"speedup: {speedup:.2f}x at width {WIDTH}")

    bench_record(
        "engine_latency_bound_grep",
        width=WIDTH,
        interpreter_seconds=round(interpreter.elapsed_seconds, 4),
        parallel_seconds=round(parallel.elapsed_seconds, 4),
        speedup=round(speedup, 3),
        processes_spawned=parallel.metrics.processes_spawned,
        processes_reused=parallel.metrics.processes_reused,
    )
    assert parallel.output_of("out.txt") == interpreter.output_of("out.txt")
    assert parallel.metrics.worker_count >= 2
    # Width-4 stage latency overlaps across worker processes regardless of
    # core count; the engine must clearly beat sequential evaluation.
    assert speedup > 1.3


CPU_ROUNDS = 5
CPU_LINES = 60_000


def _median_run(runs):
    return sorted(runs, key=lambda run: run.elapsed_seconds)[len(runs) // 2]


def _run_cpu_workload():
    """Each side timed as the median of ``CPU_ROUNDS`` interleaved rounds.

    Static and adaptive width differ by a few tens of milliseconds here, so
    one shot per side cannot rank them; rounds alternate the sides so that a
    burst of host load hits all three alike.
    """
    sort = get_one_liner("sort")
    sides = {
        "interpreter": dict(backend="interpreter"),
        "static": dict(config=PashConfig.paper_default(WIDTH)),
        "adaptive": dict(config=PashConfig.paper_default(WIDTH, adaptive_width=True)),
    }
    runs = {side: [] for side in sides}
    for _ in range(CPU_ROUNDS):
        for side, options in sides.items():
            runs[side].append(measure_benchmark(sort, WIDTH, lines=CPU_LINES, **options))
    baseline, static, adaptive = (_median_run(runs[side]) for side in sides)
    return (
        (baseline, static, baseline.elapsed_seconds / static.elapsed_seconds),
        (baseline, adaptive, baseline.elapsed_seconds / adaptive.elapsed_seconds),
    )


def test_bench_engine_cpu_bound_sort(benchmark, bench_record):
    """Static width vs width clamped to the cores actually available.

    The seed baseline showed a 0.11x *slowdown* at static width 4 on a
    1-core box: the fan-out's splitting/aggregation overhead bought no
    parallelism.  The ``adaptive_width`` clamp caps the effective width at
    the usable core count, so on starved machines the graph stays (near-)
    sequential and the slowdown disappears, while on ≥4-core machines the
    clamp is a no-op and the static numbers are unchanged.
    """
    (static_run, adaptive_run) = benchmark.pedantic(
        _run_cpu_workload, rounds=1, iterations=1
    )
    baseline, parallel, speedup = static_run
    adaptive_baseline, adaptive, adaptive_speedup = adaptive_run
    cores = len(os.sched_getaffinity(0))

    bench_record(
        "engine_cpu_bound_sort",
        width=WIDTH,
        interpreter_seconds=round(baseline.elapsed_seconds, 4),
        parallel_seconds=round(parallel.elapsed_seconds, 4),
        speedup=round(speedup, 3),
        adaptive_seconds=round(adaptive.elapsed_seconds, 4),
        adaptive_speedup=round(adaptive_speedup, 3),
        usable_cores=cores,
    )

    print_header("Engine — Table-2 sort one-liner, measured wall clock")
    print(f"{'backend':<18}{'seconds':<10}{'workers'}")
    print(f"{'interpreter':<18}{baseline.elapsed_seconds:<10.3f}{1}")
    print(
        f"{'parallel':<18}{parallel.elapsed_seconds:<10.3f}{parallel.metrics.worker_count}"
    )
    print(
        f"{'adaptive-width':<18}{adaptive.elapsed_seconds:<10.3f}"
        f"{adaptive.metrics.worker_count}"
    )
    print(f"static speedup: {speedup:.2f}x, adaptive: {adaptive_speedup:.2f}x "
          f"at width {WIDTH} ({cores} usable cores)")

    assert baseline.output_lines == parallel.output_lines
    assert adaptive_baseline.output_lines == adaptive.output_lines
    assert parallel.metrics.worker_count >= 2
    if cores >= WIDTH:
        # With the width's worth of cores the parallel engine must win and
        # the clamp must not get in its way.
        assert speedup > 1.0
        assert adaptive_speedup > 1.0
    else:
        # Core-starved: the clamp must recover (most of) the static fan-out's
        # overhead — this is the BENCH_engine.json 0.11x fix, gated.
        assert adaptive_speedup > speedup


# ---------------------------------------------------------------------------
# Spawn-bound: many short pipelines through one session (PR-4 vs PR-3 path)
# ---------------------------------------------------------------------------

SHORT_RUNS = 8
SHORT_SCRIPT = "cat in0.txt in1.txt in2.txt in3.txt | grep the | tr A-Z a-z > out.txt"

#: The engine exactly as PR 3 left it: one fresh fork per node per run, an
#: eager pump (thread + copy hop) on every channel, every relay a process.
LEGACY_OPTIONS = SchedulerOptions(use_pool=False, pump_policy="all", elide_relays=False)


def _short_environment():
    files = {f"in{i}.txt": text.text_lines(LINES_PER_CHUNK, seed=i) for i in range(4)}
    return ExecutionEnvironment(filesystem=VirtualFileSystem(files))


def _run_batch(compiled, runs, **backend_options):
    """Execute the compiled script ``runs`` times; returns (seconds, results)."""
    environments = [_short_environment() for _ in range(runs)]
    started = time.perf_counter()
    results = [
        compiled.execute(backend="parallel", environment=environment, **backend_options)
        for environment in environments
    ]
    return time.perf_counter() - started, results


def _run_spawn_workload():
    fused = Pash(PashConfig.paper_default(WIDTH)).compile(SHORT_SCRIPT)
    legacy = Pash(
        PashConfig.paper_default(WIDTH, fuse_stages=False)
    ).compile(SHORT_SCRIPT)

    expected = api.run(SHORT_SCRIPT, backend="interpreter", environment=_short_environment())

    # Warm-up: pay the pool's startup once, outside the timed window (the
    # legacy path has no warm-up to pay — that asymmetry is the feature).
    fused.execute(backend="parallel", environment=_short_environment())

    new_seconds, new_results = _run_batch(fused, SHORT_RUNS)
    legacy_seconds, legacy_results = _run_batch(legacy, SHORT_RUNS, options=LEGACY_OPTIONS)
    return expected, new_seconds, new_results, legacy_seconds, legacy_results


def test_bench_engine_short_pipeline_batch(benchmark, bench_record):
    """Persistent pool + fused stages vs the PR-3 fork-per-node hot path."""
    expected, new_seconds, new_results, legacy_seconds, legacy_results = benchmark.pedantic(
        _run_spawn_workload, rounds=1, iterations=1
    )
    ratio = legacy_seconds / new_seconds
    new_spawned = sum(result.metrics.processes_spawned for result in new_results)
    new_reused = sum(result.metrics.processes_reused for result in new_results)
    legacy_spawned = sum(result.metrics.processes_spawned for result in legacy_results)
    new_metrics = new_results[-1].metrics

    print_header("Engine — spawn-bound short pipelines, pooled+fused vs PR-3 path")
    print(f"{'configuration':<22}{'seconds':<10}{'spawned':<9}{'reused':<8}{'per-run ms'}")
    print(
        f"{'pool+fuse+direct':<22}{new_seconds:<10.3f}{new_spawned:<9}"
        f"{new_reused:<8}{new_seconds / SHORT_RUNS * 1000:.1f}"
    )
    print(
        f"{'fork-per-node (PR-3)':<22}{legacy_seconds:<10.3f}{legacy_spawned:<9}"
        f"{0:<8}{legacy_seconds / SHORT_RUNS * 1000:.1f}"
    )
    print(
        f"speedup vs PR-3 path: {ratio:.2f}x over {SHORT_RUNS} runs "
        f"(fused {new_metrics.commands_fused} commands into "
        f"{new_metrics.stages_fused} stages, elided {new_metrics.relays_elided} "
        f"relays, {new_metrics.edges_direct} direct edges)"
    )

    bench_record(
        "engine_short_pipeline_batch",
        width=WIDTH,
        runs=SHORT_RUNS,
        pooled_seconds=round(new_seconds, 4),
        legacy_seconds=round(legacy_seconds, 4),
        speedup_vs_pr3=round(ratio, 3),
        processes_spawned=new_spawned,
        processes_reused=new_reused,
        legacy_processes_spawned=legacy_spawned,
        stages_fused=new_metrics.stages_fused,
        commands_fused=new_metrics.commands_fused,
        relays_elided=new_metrics.relays_elided,
        edges_direct=new_metrics.edges_direct,
    )

    # Cross-path and cross-backend byte-identity first, speed second.
    for result in new_results + legacy_results:
        assert result.output_of("out.txt") == expected.output_of("out.txt")
    # Stage fusion must be doing real work on this shape (grep|tr chains)...
    assert new_metrics.stages_fused >= WIDTH
    # ...and the pooled runs must not be re-forking the graph every time.
    assert new_spawned < legacy_spawned
    # The acceptance bar: ≥ 1.5x lower wall clock than the PR-3 engine path.
    assert ratio >= 1.5
