#!/usr/bin/env python3
"""Run one benchmark workload against the pash sources of this checkout.

    python3 perfbench/run.py --workload oneliners-bulk --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout (the directory holding ``src/repro``).
Inputs and oracle outputs are generated from ``--seed`` into
``.perfbench_cache/`` first (untimed, and reused by later runs with the same
seed).  The measurement then runs in a fresh child process: pash is set up
several times (``drivers.repeat_setup``), and ops run closed-loop for
``--seconds``, every output checked against the sequential oracle.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced, prints the per-layer waterfall, exports a
Chrome trace to ``.perfbench_out/`` and validates it with
``tools/check_trace.py``, and reports the per-layer metrics.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def parse_arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    arguments = parse_arguments(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return _fail(f"no pash sources under {os.path.join(ROOT, 'src')}; run from a checkout root")
    if not os.path.isfile(os.path.join(ROOT, "tools", "check_trace.py")):
        return _fail("tools/check_trace.py is missing; run from a checkout root")
    sys.path[:0] = [os.path.dirname(HERE), os.path.join(ROOT, "src")]
    from perfbench import catalog, inputs

    if arguments.workload not in catalog.WORKLOAD_NAMES:
        return _fail(f"unknown workload {arguments.workload!r}; one of {catalog.WORKLOAD_NAMES}")
    if arguments.seconds < 1:
        return _fail("--seconds must be at least 1")
    if arguments.measure:
        print(json.dumps(run(arguments)))
        return 0
    inputs.prepare(ROOT, arguments.workload, arguments.seed, arguments.seconds)
    # The measurement runs in a fresh child: every process it reaps is one
    # of pash's, so its RUSAGE_CHILDREN peak is theirs alone, and input
    # generation's time and memory stay out of it.
    command = [sys.executable, os.path.abspath(__file__), "--measure"] + [
        f"--{key}={value}" for key, value in
        (("workload", arguments.workload), ("seed", arguments.seed),
         ("seconds", arguments.seconds), ("trace", arguments.trace))
    ]
    # pash's spill directories and the daemon's scratch files go to the
    # temp directory: keep them inside the checkout too.
    temporary = os.path.join(ROOT, ".perfbench_out", "tmp")
    os.makedirs(temporary, exist_ok=True)
    environment = dict(os.environ, TMPDIR=temporary)
    return subprocess.run(command, cwd=ROOT, env=environment, timeout=900).returncode


def run(arguments):
    from perfbench import drivers, inputs, layers
    from perfbench.measure import PeakRssSampler, tree_cpu_seconds

    workload, seed, seconds = arguments.workload, arguments.seed, arguments.seconds
    directory = inputs.cache_directory(ROOT, workload, seed, seconds)
    run_directory = os.path.join(ROOT, ".perfbench_out", f"{workload}-seed{seed}-trace{arguments.trace}")
    os.makedirs(run_directory, exist_ok=True)
    driver = drivers.make_driver(workload, directory, ROOT, run_directory)
    sampler = None
    try:
        setup_times = drivers.repeat_setup(driver)
        driver.load()
        # The loaded inputs and oracle live until the run ends: keep them out
        # of the collector's way, so its cost in this process stays pash's.
        gc.collect()
        gc.freeze()
        if arguments.trace:
            return traced_run(arguments, driver, run_directory)
        # Every pash process of the phase runs under this one: the pool of
        # the last set-up, the daemon and its pool, or each op's cluster
        # workers.  The sampler's own CPU time is not pash's.
        sampler = PeakRssSampler()
        cpu_started = tree_cpu_seconds() - sampler.cpu_seconds
        records, elapsed = driver.phase(seconds)
        cpu_seconds = tree_cpu_seconds() - sampler.cpu_seconds - cpu_started
        peak_rss_mb = sampler.stop()
    finally:
        if sampler is not None:
            sampler.stop()
        driver.close()
    values = layers.end_to_end(records, setup_times, peak_rss_mb, cpu_seconds)
    print_header(workload, seed, seconds, arguments.trace)
    print(f"setup times (s), {len(setup_times)} set-ups: {', '.join(f'{value:.4f}' for value in setup_times)}")
    print(f"ops: {len(records)} attempted in {elapsed:.3f} s")
    print_metrics(values, layers.wall_clock(records, elapsed))
    print_failures(layers.failing_pairs(workload, records, driver.op_label))
    return result_document(records, values)


def traced_run(arguments, driver, run_directory):
    from perfbench import catalog, layers
    from perfbench.measure import Span
    from repro.obs.export import chrome_trace_events
    from repro.obs.tracer import Tracer

    workload, seconds = arguments.workload, arguments.seconds
    untraced, untraced_elapsed = driver.phase(seconds / 2)
    tracer = Tracer()
    traced, _ = driver.phase(seconds / 2, tracer)
    stats_delta = getattr(driver, "stats_delta", None)
    interp_ms = driver.interpreter_ms()
    probe = {"ops": 0, "mismatches": 0, "errors": 0}
    if hasattr(driver, "defect_probe"):
        probe = driver.defect_probe()

    events = chrome_trace_events(tracer.spans)
    server_spans = []
    if workload == "service-mix":
        with open(driver.trace_path) as handle:
            server_events = json.load(handle)["traceEvents"]
        events += server_events
        server_spans = [Span.from_chrome(event) for event in server_events if event.get("ph") == "X"]
    trace_path = os.path.join(run_directory, "trace.json")
    with open(trace_path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    span_count = load_check_trace().check_trace_file(trace_path)

    client_spans = [Span.from_record(record) for record in tracer.spans]
    parts, op_ms, per_op = layers.waterfall(workload, traced, client_spans, server_spans)
    values = layers.per_layer(
        workload, untraced, untraced_elapsed, traced, per_op, interp_ms, driver.op_label,
        stats_delta,
    )
    values["known_defect.mismatch_frac"] = probe["mismatches"] / probe["ops"] if probe["ops"] else 0.0
    print_header(workload, arguments.seed, seconds, arguments.trace)
    print(f"ops: {len(untraced)} untraced, {len(traced)} traced; "
          f"trace {os.path.relpath(trace_path, ROOT)}: {span_count} spans, check_trace OK")
    print_waterfall(parts, op_ms)
    print(f"{'metric':<40}{'value':>16}  unit")
    for name in catalog.PER_LAYER:
        print(f"{name:<40}{values[name]:>16.6g}  {catalog.UNITS[name]}")
    print_failures(layers.failing_pairs(workload, untraced + traced, driver.op_label))
    if probe["ops"]:
        print(f"known defect probe (tr -cs, untimed): {probe['mismatches']} of {probe['ops']} ops "
              f"differ from the oracle, {probe['errors']} raised")
    return result_document(untraced + traced, values, probe_errors=probe["errors"])


def load_check_trace():
    spec = importlib.util.spec_from_file_location("check_trace", os.path.join(ROOT, "tools", "check_trace.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_document(records, values, probe_errors=0):
    from perfbench import catalog

    failed = sum(1 for record in records if not record["ok"])
    finite = all(isinstance(value, float) and math.isfinite(value) for value in values.values())
    return {
        # Every op was compared byte for byte with the oracle; the run is
        # correct only if every one of them matched (and no probe op raised).
        "correct": bool(records) and failed == 0 and probe_errors == 0 and finite,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": catalog.UNITS[name]} for name, value in values.items()},
    }


def print_header(workload, seed, seconds, trace) -> None:
    from perfbench import inputs

    print(f"== perfbench {workload} seed={seed} seconds={seconds} trace={trace} "
          f"width={inputs.WIDTH} nproc={os.cpu_count()} at {time.strftime('%Y-%m-%dT%H:%M:%S')}")


def print_metrics(values, extras) -> None:
    from perfbench import catalog

    print(f"{'metric':<28}{'value':>14}  unit")
    for name, value in list(values.items()) + list(extras.items()):
        print(f"{name:<28}{value:>14.6g}  {catalog.UNITS[name]}")


def print_waterfall(parts, op_ms) -> None:
    print(f"waterfall: mean self time per traced op (ms); parts sum to {op_ms:.4f} ms")
    for part, value in sorted(parts.items(), key=lambda item: -item[1]):
        print(f"  {part:<32}{value:>12.4f}")
    print(f"  {'(sum of parts)':<32}{sum(parts.values()):>12.4f}")


def print_failures(pairs) -> None:
    for pair, count in sorted(pairs.items()):
        print(f"FAILED x{count}: {pair}")


if __name__ == "__main__":
    sys.exit(main())
