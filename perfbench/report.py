#!/usr/bin/env python3
"""One command for the whole benchmark: every workload, repeated runs, quartiles.

    python3 perfbench/report.py --seed 1                 # 3 untraced + 1 traced run each
    python3 perfbench/report.py --seed 1 --runs 10 --distinct-seeds --workloads service-mix

Run from the root of a checkout.  Each run is a separate ``perfbench/run.py``
process.  For every workload it prints each end-to-end metric (untraced runs)
and each per-layer metric (traced runs) by name with its unit: the median,
the quartiles as ``statistics.quantiles(n=4)`` gives them, and the spread
(q3 - q1) / median.  It also prints the op counts, ``nproc``, the width,
the last traced run's waterfall, and every failing (workload, script) pair
with its count.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.getcwd(), "src")]

from perfbench import catalog  # noqa: E402  (path set above)
from perfbench.inputs import WIDTH  # noqa: E402
from perfbench.measure import quartiles  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({' '.join(command)}):\n{completed.stderr[-3000:]}")
    failures = [line for line in lines if line.startswith("FAILED")]
    waterfall = []
    for line in lines:
        if line.startswith("waterfall:"):
            waterfall = [line]
        elif waterfall and line.startswith("  "):
            waterfall.append(line)
        elif waterfall:
            break
    return json.loads(lines[-1]), failures, waterfall


def summarize(workload: str, documents, failures, trace: int) -> dict:
    names = list(catalog.PER_LAYER if trace else catalog.END_TO_END)
    rows = {}
    for name in names:
        values = [document["metrics"][name]["value"] for document in documents]
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / median if median else 0.0
        unit = catalog.UNITS[name]
        rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "unit": unit,
                      "values": values}
    attempted = sum(document["attempted"] for document in documents)
    failed = sum(document["failed"] for document in documents)
    pairs = defaultdict(int)
    for line in failures:
        count, _, pair = line[len("FAILED x"):].partition(": ")
        pairs[pair] += int(count)
    return {"rows": rows, "attempted": attempted, "failed": failed, "pairs": dict(pairs),
            "correct": all(document["correct"] for document in documents)}


def print_block(workload: str, summary: dict, trace: int) -> None:
    kind = "per-layer (traced runs)" if trace else "end-to-end (untraced runs)"
    print(f"\n[{workload}] {kind}: ops attempted {summary['attempted']}, failed "
          f"{summary['failed']} (fail_frac {summary['failed'] / max(1, summary['attempted']):.4f}), "
          f"correct={summary['correct']}")
    print(f"  {'metric':<40}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}  unit")
    for name, row in summary["rows"].items():
        print(f"  {name:<40}{row['median']:>14.6g}{row['q1']:>14.6g}{row['q3']:>14.6g}"
              f"{row['spread']:>9.3f}  {row['unit']} (n={len(row['values'])})")
        if not trace:
            print(f"  {'':<40}runs: {' '.join(f'{value:.5g}' for value in row['values'])}")
    for pair, count in sorted(summary["pairs"].items()):
        print(f"  failing: {pair}  x{count}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--runs", type=int, default=3, help="untraced runs per workload")
    parser.add_argument("--traced-runs", type=int, default=1, help="traced runs per workload")
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--workloads", nargs="*", default=catalog.WORKLOAD_NAMES)
    parser.add_argument("--distinct-seeds", action="store_true",
                        help="run i uses seed + i (the spread check) instead of one seed")
    arguments = parser.parse_args(argv)
    seconds = arguments.seconds
    if seconds is None:
        seconds = catalog.BENCHMARK["run_seconds"]

    print(f"perfbench report: seed={arguments.seed} seconds={seconds} width={WIDTH} "
          f"nproc={os.cpu_count()} runs={arguments.runs}+{arguments.traced_runs} traced")
    summaries = {}
    for workload in arguments.workloads:
        for trace, count in ((0, arguments.runs), (1, arguments.traced_runs)):
            if count <= 0:
                continue
            documents, failures = [], []
            for index in range(count):
                seed = arguments.seed + index if arguments.distinct_seeds else arguments.seed
                document, failed, waterfall = run_once(workload, seed, seconds, trace)
                documents.append(document)
                failures += failed
            summary = summarize(workload, documents, failures, trace)
            summaries[f"{workload}/trace{trace}"] = summary
            print_block(workload, summary, trace)
            if waterfall:
                print("\n  last traced run's " + "\n  ".join(waterfall))

    if arguments.runs <= 0:
        return 0
    print("\nsummary: medians of the end-to-end metrics, one row per workload")
    names = list(catalog.END_TO_END)
    print(f"  {'workload':<18}" + "".join(f"{name:>16}" for name in names) + f"{'fail_frac':>12}")
    for workload in arguments.workloads:
        summary = summaries.get(f"{workload}/trace0")
        if summary is None:
            continue
        cells = "".join(f"{summary['rows'][name]['median']:>16.5g}" for name in names)
        frac = summary["failed"] / max(1, summary["attempted"])
        print(f"  {workload:<18}{cells}{frac:>12.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
