"""Self-tests of the benchmark: names, the layer map, the oracle check, seeding.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the repo root.
The workloads are shrunk to a couple of input variants so the suite stays
fast; the code paths are the ones a full run takes.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from perfbench import catalog, drivers, inputs, layers, run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture
def small_workloads(monkeypatch):
    """Two input variants per workload, and a short service job list."""
    for spec in inputs.WORKLOADS.values():
        monkeypatch.setitem(spec, "variants", 2)
    monkeypatch.setitem(inputs.WORKLOADS["oneliners-small"], "lines_per_file", 40)
    monkeypatch.setattr(inputs, "SERVICE_JOBS_PER_SECOND", 12)


def test_names_and_units_are_legal(benchmark_json):
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in benchmark_json[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for entry in benchmark_json["end_to_end"] + benchmark_json["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in benchmark_json["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = [entry for entry in benchmark_json["end_to_end"] if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(entry["bound"] for entry in benchmark_json["end_to_end"])


def test_every_layer_metric_names_what_it_should_move(benchmark_json):
    end_to_end = {entry["name"] for entry in benchmark_json["end_to_end"]}
    workloads = {entry["name"] for entry in benchmark_json["workloads"]}
    for entry in benchmark_json["per_layer"]:
        assert entry["name"] in catalog.LAYER_MAP, entry["name"]
        mapping = catalog.LAYER_MAP[entry["name"]]
        if entry["name"] in catalog.MOVES_NOTHING:
            assert mapping["moves"] == []
            continue
        assert mapping["moves"], entry["name"]
        for metric, workload in mapping["moves"]:
            assert metric in end_to_end | set(catalog.WALL_CLOCK), entry["name"]
            assert workload in workloads, entry["name"]
        assert set(mapping["still_on"]) <= workloads


def test_corrupted_output_counts_as_a_failure(tmp_path, small_workloads):
    directory = inputs.prepare(str(tmp_path), "oneliners-small", 5, 1)
    driver = drivers.make_driver("oneliners-small", directory, ROOT, str(tmp_path))
    try:
        driver.setup()
        driver.load()
        clean, _ = driver.phase(0, rounds=1)
        key = inputs.oracle_key("grep", 0)
        expected = driver.oracle[key]
        driver.oracle[key] = dict(expected, files={"out.txt": expected["files"]["out.txt"] + ["corrupted"]})
        corrupted, elapsed = driver.phase(0, rounds=1)
    finally:
        driver.close()
    failed = {record["op"] for record in corrupted if not record["ok"]}
    assert ("grep", 0) in failed
    assert len(failed) == sum(1 for record in clean if not record["ok"]) + 1
    values = layers.wall_clock(corrupted, elapsed)
    assert values["ops_per_s"] * elapsed == pytest.approx(len(corrupted) - len(failed))
    assert values["fail_frac"] * len(corrupted) == pytest.approx(len(failed))
    assert run.result_document(clean, values)["correct"]
    document = run.result_document(corrupted, values)
    assert not document["correct"] and document["failed"] == len(failed)


def test_defect_probe_runs_the_defect_scripts_outside_the_timed_ops(tmp_path, small_workloads):
    for workload in ("oneliners-small", "oneliners-bulk"):
        spec = inputs.WORKLOADS[workload]
        assert spec["probe"] and not set(spec["probe"]) & set(spec["scripts"])
    directory = inputs.prepare(str(tmp_path), "oneliners-small", 5, 1)
    driver = drivers.make_driver("oneliners-small", directory, ROOT, str(tmp_path))
    try:
        driver.setup()
        driver.load()
        counts = driver.defect_probe()
    finally:
        driver.close()
    # Each script on each variant, as generated and with the trigger.
    assert counts["ops"] == len(inputs.DEFECT_SCRIPTS) * 2 * 2 and counts["errors"] == 0
    assert 0 <= counts["mismatches"] <= counts["ops"]
    assert inputs.with_trigger({"in0.txt": ["a b"], "in1.txt": ["c"]}) == {"in0.txt": ["a b."], "in1.txt": ["c"]}


def _counts(workload, root, run_directory):
    directory = inputs.prepare(root, workload, 7, 1)
    driver = drivers.make_driver(workload, directory, ROOT, run_directory)
    try:
        driver.setup()
        driver.load()
        records, _ = driver.phase(0, rounds=2 if workload != "service-mix" else 12)
        delta = getattr(driver, "stats_delta", None)
    finally:
        driver.close()
    metrics = [record["metrics"] for record in records if record["metrics"] is not None]
    jit = [record["jit"] for record in records if record["jit"]]
    return {
        "fail_frac": layers.wall_clock(records, 1.0)["fail_frac"],
        "processes_spawned": sum(m.processes_spawned for m in metrics),
        "edges_direct": sum(m.edges_direct for m in metrics),
        "stages_fused": sum(m.stages_fused for m in metrics),
        "regions_compiled": sum(report["regions_compiled"] for report in jit),
        "cache_hits": sum(report["cache_hits"] for report in jit),
        "plan_cache": (delta["hits"], delta["misses"]) if delta else None,
    }


@pytest.mark.parametrize("workload", ["oneliners-small", "service-mix"])
def test_same_seed_gives_identical_inputs_and_counts(tmp_path, small_workloads, workload):
    first = _counts(workload, str(tmp_path / "a"), str(tmp_path))
    second = _counts(workload, str(tmp_path / "b"), str(tmp_path))
    assert first == second
    a = inputs.cache_directory(str(tmp_path / "a"), workload, 7, 1)
    b = inputs.cache_directory(str(tmp_path / "b"), workload, 7, 1)
    for name in sorted(os.listdir(a)):
        with open(os.path.join(a, name)) as left, open(os.path.join(b, name)) as right:
            assert left.read() == right.read(), name
    if workload == "service-mix":
        assert first["plan_cache"][1] > 0 and first["cache_hits"] > 0


def test_different_seed_gives_different_inputs(small_workloads):
    assert inputs.generate_variants("oneliners-small", 1) != inputs.generate_variants("oneliners-small", 2)
    assert inputs.service_jobs(1, 1) != inputs.service_jobs(2, 1)
    assert inputs.generate_variants("oneliners-small", 1) == inputs.generate_variants("oneliners-small", 1)


def test_waterfall_parts_sum_to_the_op():
    from perfbench.measure import Span, self_times

    root = Span("bench:op", "r", None, 1, 1, 0, 100)
    spans = [
        root,
        Span("bench:compile", "c", "r", 1, 1, 5, 20),
        Span("bench:parse", "p", "c", 1, 1, 6, 4),
        Span("bench:execute", "e", "r", 1, 1, 30, 70),
        Span("engine:run", "g", "e", 1, 1, 35, 70),  # overruns its parent: clipped
        Span("node:worker", "w", "g", 2, 9, 36, 50),  # another process: not a part
    ]
    children = {}
    for span in spans[1:]:
        children.setdefault(span.parent_id, []).append(span)
    parts = self_times(children, root)
    assert sum(parts.values()) == pytest.approx(100)
    assert parts["engine.run_other"] == pytest.approx(65)
    assert parts["shell.parse"] == pytest.approx(4)


def test_peak_rss_counts_children_not_the_measuring_process():
    """In a fresh process, so no worker left by another test is under it."""
    import subprocess
    import sys

    measure = """
import subprocess, sys
from perfbench.measure import PeakRssSampler
ballast = bytearray(150 << 20)  # the measuring process: not counted
ballast[::4096] = b"x" * len(ballast[::4096])
sampler = PeakRssSampler(interval=0.02)
subprocess.run([sys.executable, "-c", "import time; b = bytearray(40 << 20); "
                "b[::4096] = b'x' * len(b[::4096]); time.sleep(0.6)"], check=True)
print(sampler.stop())
"""
    completed = subprocess.run([sys.executable, "-c", measure], capture_output=True, text=True,
                               check=True, env=dict(os.environ, PYTHONPATH=ROOT), timeout=60)
    assert 40 <= float(completed.stdout.split()[-1]) < 100
