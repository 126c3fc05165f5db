"""Seeded inputs, per-op scripts and the sequential oracle of every workload.

Everything here is a pure function of ``(workload, seed)`` (plus the run
length for ``service-mix``, whose job list must outlast the run).  The
prepared inputs and oracle outputs are written to a cache directory once per
seed, outside every timed phase and outside ``setup_s``; pash only ever sees
the generated files.

An *op* is one script over one input set:

* ``oneliners-*`` and ``cluster-fanout``: ``(script name, variant index)``,
  run as ``Pash.compile`` then ``CompiledScript.execute``;
* ``service-mix``: one submitted job ``(kind, script text, variant index)``.
"""

from __future__ import annotations

import json
import os
import random
from typing import Any, Dict, List

from repro import api
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.interpreter import ShellInterpreter
from repro.runtime.streams import VirtualFileSystem
from repro.workloads import text
from repro.workloads.oneliners import ONE_LINERS, get_one_liner

#: The parallel width of every workload; fixed, never derived from the box.
WIDTH = 2

#: Bumped whenever generation or the oracle changes, so stale caches are
#: never read.
CACHE_VERSION = 3

#: The one-liners hit by the known ``tr -cs SET '\\n'`` defect (README): on
#: some inputs their parallel output differs from the oracle's.  They are
#: kept out of the timed ops, where every op must match, and run instead by
#: the defect probe of a traced run, which reports their mismatch rate.
DEFECT_SCRIPTS = ["top-n", "wf", "bi-grams"]
#: Input variants the probe runs each defect script on, as generated and
#: with the defect's trigger (``with_trigger``).
PROBE_VARIANTS = 8

#: Workload name -> what it is made of.  ``variants`` input sets are
#: generated per seed and op ``i`` of a round ``r`` reads variant ``r % variants``.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "oneliners-small": {
        "scripts": [benchmark.name for benchmark in ONE_LINERS
                    if benchmark.name not in DEFECT_SCRIPTS],
        "probe": DEFECT_SCRIPTS,
        "lines_per_file": 150,
        "variants": 32,
    },
    "oneliners-bulk": {
        # An odd script count puts the latency median inside one script's
        # distribution instead of on the gap between two of them.
        "scripts": ["grep", "grep-light", "shortest-scripts", "sort", "bi-grams-opt"],
        "probe": ["top-n"],
        # About 0.4 MB per op and 23 MB per seed: a multi-MB op would leave a
        # 20-s run one or two rounds, and generating plus oracling a fresh
        # seed's corpus would take most of a run's time limit (README).
        "lines_per_file": 5000,
        "variants": 24,
    },
    "service-mix": {
        "lines_per_file": 150,
        "variants": 8,
    },
    "cluster-fanout": {
        "scripts": ["grep", "grep-light"],
        "lines_per_file": 12000,
        "variants": 2,
    },
}

#: service-mix job kinds and their shares of the job list.
SERVICE_READ_SCRIPTS = ["grep", "grep-light", "sort", "sort-sort"]
SERVICE_LOOP_SCRIPT = (
    "for i in 1 2 3; do cat in0.txt in1.txt | grep the | wc -l; done"
)
SERVICE_SHARES = (("read", 0.60), ("loop", 0.15), ("write", 0.25))
#: Jobs generated per second of run length: far above what the daemon
#: completes, so a run never wraps around into already-cached "fresh" jobs.
SERVICE_JOBS_PER_SECOND = 400


def sub_seed(workload: str, seed: int, *parts: Any) -> int:
    """A deterministic integer seed for one generated piece of a workload."""
    return random.Random(":".join(str(part) for part in (workload, seed) + parts)).randrange(
        1 << 30
    )


def script_text(name: str) -> str:
    return get_one_liner(name).script_for_width(WIDTH)


def _reads_paths(name: str) -> bool:
    """Whether a one-liner reads the path-list corpus instead of English."""
    return get_one_liner(name).corpus_generator.__name__ == "_paths"


def op_files(name: str, variant: Dict[str, Any]) -> Dict[str, List[str]]:
    """The input files one one-liner reads from one variant."""
    benchmark = get_one_liner(name)
    files = dict(variant["paths"] if _reads_paths(name) else variant["english"])
    if benchmark.static_files is not None:
        files.update(benchmark.static_files())
    return files


def with_trigger(files: Dict[str, List[str]]) -> Dict[str, List[str]]:
    """``files`` with the last line of ``in0.txt``, a non-last input, ending
    in a character ``tr -cs A-Za-z`` complements: the input on which the
    known defect always shows (README)."""
    files = dict(files)
    files["in0.txt"] = files["in0.txt"][:-1] + [files["in0.txt"][-1] + "."]
    return files


def input_bytes(files: Dict[str, List[str]]) -> int:
    return sum(len(line.encode()) + 1 for lines in files.values() for line in lines)


def generate_variants(workload: str, seed: int) -> List[Dict[str, Any]]:
    spec = WORKLOADS[workload]
    count = spec["lines_per_file"]
    variants = []
    for index in range(spec["variants"]):
        variant = {
            "english": {
                f"in{chunk}.txt": text.text_lines(
                    count, seed=sub_seed(workload, seed, "english", index, chunk)
                )
                for chunk in range(WIDTH)
            }
        }
        if any(_reads_paths(name) for name in spec.get("scripts", [])):
            variant["paths"] = {
                f"in{chunk}.txt": text.script_paths(
                    count, seed=sub_seed(workload, seed, "paths", index, chunk)
                )
                for chunk in range(WIDTH)
            }
        variants.append(variant)
    return variants


def service_jobs(seed: int, seconds: int) -> List[Dict[str, Any]]:
    """The seeded job list of one service-mix run (kind, script, variant)."""
    rng = random.Random(sub_seed("service-mix", seed, "jobs"))
    variants = WORKLOADS["service-mix"]["variants"]
    jobs = []
    for index in range(SERVICE_JOBS_PER_SECOND * seconds):
        draw, kind = rng.random(), SERVICE_SHARES[-1][0]
        for name, share in SERVICE_SHARES:
            if draw < share:
                kind = name
                break
            draw -= share
        if kind == "read":
            script = script_text(rng.choice(SERVICE_READ_SCRIPTS))
        elif kind == "loop":
            script = SERVICE_LOOP_SCRIPT
        else:
            # A fresh binding per job: its region key misses the plan cache,
            # so the daemon compiles and inserts (a cache write).
            word = "".join(rng.choice("bcdfghjkmnpqrstvwxz") for _ in range(7))
            script = (
                f"pat={word}{index}; cat in0.txt in1.txt | grep -v $pat"
                " | tr A-Z a-z | sort > out.txt"
            )
        jobs.append({"kind": kind, "script": script, "variant": index % variants})
    return jobs


def warmup_script() -> str:
    """One job whose regions are every repeated plan of service-mix.

    A region's plan-cache key does not depend on the statements around it,
    so this single warm-up job leaves the cache as a long-running daemon has
    it: every read and loop job of the timed phase is a cache read.
    """
    return "\n".join([script_text(name) for name in SERVICE_READ_SCRIPTS] + [SERVICE_LOOP_SCRIPT])


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def oracle_oneliner(source: str, files: Dict[str, List[str]]) -> Dict[str, Any]:
    """Outputs of the unoptimized script on the sequential interpreter."""
    environment = ExecutionEnvironment(filesystem=VirtualFileSystem(dict(files)))
    result = api.run(source, backend="interpreter", environment=environment)
    return {"stdout": list(result.stdout), "files": {k: list(v) for k, v in result.files.items()}}


def oracle_shell(source: str, files: Dict[str, List[str]]) -> Dict[str, Any]:
    """Outputs of a script with loops or variables on ``ShellInterpreter``."""
    filesystem = VirtualFileSystem(dict(files))
    stdout = ShellInterpreter(filesystem=filesystem).run_script(source)
    written = {
        name: list(filesystem.read(name)) for name in ("out.txt",) if name in source
    }
    return {"stdout": list(stdout), "files": written}


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


def cache_directory(root: str, workload: str, seed: int, seconds: int) -> str:
    suffix = f"-{seconds}s" if workload == "service-mix" else ""
    return os.path.join(
        root, ".perfbench_cache", f"v{CACHE_VERSION}-{workload}-{seed}{suffix}"
    )


def prepare(root: str, workload: str, seed: int, seconds: int) -> str:
    """Generate inputs and oracle outputs into the cache (idempotent)."""
    directory = cache_directory(root, workload, seed, seconds)
    if os.path.exists(os.path.join(directory, "done")):
        return directory
    os.makedirs(directory, exist_ok=True)
    variants = generate_variants(workload, seed)
    for index, variant in enumerate(variants):
        _write_json(os.path.join(directory, f"variant-{index}.json"), variant)
    if workload == "service-mix":
        jobs = service_jobs(seed, seconds)
        oracle: Dict[str, Any] = {}
        for job in jobs:
            key = oracle_key(job["script"], job["variant"])
            if key not in oracle:
                files = variants[job["variant"]]["english"]
                oracle[key] = oracle_shell(job["script"], files)
        _write_json(os.path.join(directory, "jobs.json"), jobs)
        _write_oracle(directory, oracle)
    else:
        oracle = {}
        for name in WORKLOADS[workload]["scripts"]:
            for index, variant in enumerate(variants):
                oracle[oracle_key(name, index)] = oracle_oneliner(
                    script_text(name), op_files(name, variant)
                )
        _write_oracle(directory, oracle)
    with open(os.path.join(directory, "done"), "w") as handle:
        handle.write("ok\n")
    return directory


def oracle_key(script: str, variant: int) -> str:
    return f"{variant}:{script}"


def _write_oracle(directory: str, oracle: Dict[str, Any]) -> None:
    """Store each distinct output once: many service jobs share one."""
    outputs: List[Any] = []
    index: Dict[str, int] = {}
    keys = {}
    for key, output in oracle.items():
        text = json.dumps(output, sort_keys=True)
        if text not in index:
            index[text] = len(outputs)
            outputs.append(output)
        keys[key] = index[text]
    _write_json(os.path.join(directory, "oracle.json"), {"outputs": outputs, "keys": keys})


def load_oracle(directory: str) -> Dict[str, Any]:
    """Op key -> expected outputs.  Keys with equal outputs share one object,
    so treat the entries as read-only."""
    stored = _read_json(os.path.join(directory, "oracle.json"))
    return {key: stored["outputs"][position] for key, position in stored["keys"].items()}


def load_variants(directory: str, count: int, start: int = 0) -> List[Dict[str, Any]]:
    return [_read_json(os.path.join(directory, f"variant-{index}.json")) for index in range(start, count)]


def load_json(directory: str, name: str) -> Any:
    return _read_json(os.path.join(directory, name))


def _write_json(path: str, payload: Any) -> None:
    temporary = path + ".tmp"
    with open(temporary, "w") as handle:
        json.dump(payload, handle)
    os.replace(temporary, path)


def _read_json(path: str) -> Any:
    with open(path) as handle:
        return json.load(handle)
