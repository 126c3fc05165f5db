"""Workload drivers: set up pash, run ops closed-loop, check every output.

Three drivers share one contract:

* ``setup()`` builds what the timed phase uses (a warm pool, a daemon...)
  and runs one warm-up op; it returns its own duration in seconds;
* ``phase(seconds, tracer)`` runs whole rounds of ops until ``seconds`` have
  passed and returns one record per op; each record says whether the op's
  outputs equal the oracle, byte for byte;
* ``close()`` stops every process the driver started.

With an enabled ``tracer`` the ops run with pash tracing on, and the
benchmark's own ``bench:*`` spans wrap the calls into each layer.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from perfbench import inputs
from repro.api import Pash, PashConfig
from repro.api.config import ClusterConfig
from repro.engine.metrics import EngineMetrics
from repro.engine.pool import WorkerPool
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.streams import VirtualFileSystem

#: ``setup_s`` is the median of at least ``SETUP_REPEATS`` set-ups, and of
#: as many more (up to ``SETUP_MAX``) as fit in ``SETUP_SECONDS``.  A set-up
#: lasts 0.05 to 0.5 s, and its wall time swings by up to 2x from one to the
#: next on a busy host, so short set-ups are repeated more often.
SETUP_REPEATS = 7
SETUP_SECONDS = 3.0
SETUP_MAX = 41


def repeat_setup(driver) -> List[float]:
    """Set the driver up repeatedly; the last set-up stays in place."""
    times: List[float] = []
    started = time.perf_counter()
    while len(times) < SETUP_REPEATS or (
        len(times) < SETUP_MAX and time.perf_counter() - started < SETUP_SECONDS
    ):
        times.append(driver.setup())
    return times


def outputs_match(expected: Dict[str, Any], stdout, files: Dict[str, List[str]]) -> bool:
    """Byte-for-byte: every stream the oracle produced, and nothing else."""
    if list(stdout) != expected["stdout"]:
        return False
    if set(files) != set(expected["files"]):
        return False
    return all(list(files[name]) == lines for name, lines in expected["files"].items())


class Hooks:
    """``bench:*`` spans around pash's compile stages, from outside ``src/``.

    Wraps the module-level names ``Pash.compile`` looks up at call time
    (``translate_script``, ``render_script``) and the parser the DFG
    front-end calls; ``uninstall`` puts the originals back.
    """

    def __init__(self, tracer: Tracer) -> None:
        import repro.api.pash as pash_module
        import repro.dfg.builder as builder_module

        self.tracer = tracer
        self._saved = []
        self._wrap(builder_module, "parse", "bench:parse", None)
        self._wrap(pash_module, "translate_script", "bench:translate", _count_nodes)
        self._wrap(pash_module, "render_script", "bench:render", lambda text: {"bytes": len(text)})

    def _wrap(self, module, attribute: str, span_name: str, describe: Optional[Callable]) -> None:
        original = getattr(module, attribute)
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            with tracer.span(span_name, "bench") as span:
                value = original(*args, **kwargs)
                if describe is not None:
                    span.set(**describe(value))
                return value

        self._saved.append((module, attribute, original))
        setattr(module, attribute, wrapper)

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._saved):
            setattr(module, attribute, original)
        self._saved.clear()


def _count_nodes(translation) -> Dict[str, int]:
    return {"nodes": sum(len(region.dfg.nodes) for region in translation.regions)}


def _record(**fields) -> Dict[str, Any]:
    record = {
        "ok": False, "reason": "", "latency": 0.0, "compile": None, "bytes": 0,
        "metrics": None, "reports": [], "text_bytes": 0, "root": None, "server": None,
        "jit": None, "nodes_out": 0,
    }
    record.update(fields)
    return record


# ---------------------------------------------------------------------------
# One-liners through Pash.compile -> CompiledScript.execute
# ---------------------------------------------------------------------------


class OnelinerDriver:
    """``oneliners-small``/``-bulk`` (parallel) and ``cluster-fanout`` (cluster)."""

    def __init__(self, workload: str, directory: str, backend: str) -> None:
        self.directory = directory
        self.backend = backend
        spec = inputs.WORKLOADS[workload]
        self.scripts = spec["scripts"]
        self.probe_scripts = spec.get("probe", [])
        self.variant_count = spec["variants"]
        self.sources = {name: inputs.script_text(name) for name in self.scripts + self.probe_scripts}
        overrides: Dict[str, Any] = {"backend": backend}
        if backend == "cluster":
            overrides["cluster"] = ClusterConfig(workers=2)
        self.config = PashConfig.paper_default(inputs.WIDTH, **overrides)
        self.pool: Optional[WorkerPool] = None
        self.pash: Optional[Pash] = None
        # Variant 0 serves the warm-up; the rest load after the pool exists,
        # so forked pool workers do not inherit the whole corpus.
        self.variants = inputs.load_variants(directory, 1)
        self.oracle: Dict[str, Any] = {}
        self.files: Dict[Any, Dict[str, List[str]]] = {}
        #: Workers one timed op can need at once: the largest compiled graph.
        self.pool_size = max(
            Pash(self.config).compile(self.sources[name]).node_count for name in self.scripts
        )

    def setup(self) -> float:
        self.close()
        started = time.perf_counter()
        if self.backend == "parallel":
            options = self.config.scheduler_options()
            self.pool = WorkerPool(start_method=options.start_method)
            self.pool.prewarm(self.pool_size)
        self.pash = Pash(self.config)
        name = self.scripts[0]
        files = inputs.op_files(name, self.variants[0])
        self.pash.compile(self.sources[name]).execute(
            environment=ExecutionEnvironment(filesystem=VirtualFileSystem(dict(files))),
            **self._execute_options(),
        )
        return time.perf_counter() - started

    def load(self) -> None:
        """Load the remaining variants and the oracle (after set-up)."""
        self.variants += inputs.load_variants(self.directory, self.variant_count, len(self.variants))
        self.oracle = inputs.load_oracle(self.directory)
        for name in self.scripts:
            for index, variant in enumerate(self.variants):
                self.files[name, index] = inputs.op_files(name, variant)

    def _execute_options(self) -> Dict[str, Any]:
        return {"pool": self.pool} if self.pool is not None else {}

    def round_ops(self, round_index: int) -> List[Any]:
        variant = round_index % self.variant_count
        return [(name, variant) for name in self.scripts]

    def run_op(self, op, pash: Pash, tracer: Tracer) -> Dict[str, Any]:
        name, variant = op
        files = self.files[name, variant]
        environment = ExecutionEnvironment(filesystem=VirtualFileSystem(dict(files)))
        source = self.sources[name]
        with tracer.span("bench:op", "bench", script=name, variant=variant) as root:
            started = time.perf_counter()
            try:
                with tracer.span("bench:compile", "bench"):
                    compiled = pash.compile(source)
                compiled_at = time.perf_counter()
                with tracer.span("bench:execute", "bench"):
                    result = compiled.execute(environment=environment, **self._execute_options())
            except Exception as exc:  # noqa: BLE001 - every failure is counted, never fatal
                return _record(
                    op=op, reason=f"{type(exc).__name__}: {exc}",
                    latency=time.perf_counter() - started,
                )
            finished = time.perf_counter()
        expected = self.oracle[inputs.oracle_key(name, variant)]
        ok = outputs_match(expected, result.stdout, result.files)
        return _record(
            op=op, ok=ok, reason="" if ok else "output differs from oracle",
            latency=finished - started, compile=compiled_at - started,
            bytes=inputs.input_bytes(files), metrics=result.metrics,
            reports=compiled.reports, text_bytes=len(compiled.text.encode()),
            nodes_out=compiled.node_count,
            root=getattr(root, "span_id", None),
        )

    def phase(self, seconds: float, tracer: Tracer = NULL_TRACER, rounds: Optional[int] = None):
        """Whole rounds until ``seconds`` pass (or exactly ``rounds``)."""
        pash = self.pash if not tracer.enabled else Pash(self.config.replace(tracing=True), tracer=tracer)
        hooks = Hooks(tracer) if tracer.enabled else None
        records: List[Dict[str, Any]] = []
        started = time.perf_counter()
        try:
            round_index = 0
            while True:
                for op in self.round_ops(round_index):
                    records.append(self.run_op(op, pash, tracer))
                round_index += 1
                elapsed = time.perf_counter() - started
                if (rounds is not None and round_index >= rounds) or (
                    rounds is None and elapsed >= seconds
                ):
                    return records, elapsed
        finally:
            if hooks is not None:
                hooks.uninstall()

    def defect_probe(self) -> Dict[str, int]:
        """Each probe script on the first variants, as generated and with the
        defect's trigger; untimed, the oracle computed on the spot.

        Counts the ops whose outputs differ from the oracle (the known
        defect) and, apart, the ops that raised.
        """
        counts = {"ops": 0, "mismatches": 0, "errors": 0}
        for name in self.probe_scripts:
            for variant in self.variants[:inputs.PROBE_VARIANTS]:
                generated = inputs.op_files(name, variant)
                for files in (generated, inputs.with_trigger(generated)):
                    environment = ExecutionEnvironment(filesystem=VirtualFileSystem(dict(files)))
                    counts["ops"] += 1
                    try:
                        result = self.pash.compile(self.sources[name]).execute(
                            environment=environment, **self._execute_options())
                    except Exception:  # noqa: BLE001 - counted, and makes the run incorrect
                        counts["errors"] += 1
                        continue
                    expected = inputs.oracle_oneliner(self.sources[name], files)
                    counts["mismatches"] += not outputs_match(expected, result.stdout, result.files)
        return counts

    def interpreter_ms(self) -> Dict[str, float]:
        """Sequential-interpreter time per script on variant 0 (the baseline)."""
        timings = {}
        for name in self.scripts:
            files = self.files[name, 0]
            started = time.perf_counter()
            inputs.oracle_oneliner(self.sources[name], files)
            timings[name] = (time.perf_counter() - started) * 1000
        return timings

    @staticmethod
    def op_label(op) -> str:
        return op[0]

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None
        self.pash = None


# ---------------------------------------------------------------------------
# service-mix: ServiceClient.submit against a pash-serve process
# ---------------------------------------------------------------------------


CLIENT_THREADS = 2
JOB_TIMEOUT_SECONDS = 60.0


class ServiceDriver:
    """A ``pash-serve`` subprocess (jit, 2 executors) and 2 client threads."""

    def __init__(self, workload: str, directory: str, root: str, run_directory: str) -> None:
        self.directory = directory
        self.root = root
        self.run_directory = run_directory
        self.variants = [variant["english"] for variant in inputs.load_variants(
            directory, inputs.WORKLOADS[workload]["variants"])]
        self.jobs: List[Dict[str, Any]] = []
        self.oracle: Dict[str, Any] = {}
        self.process: Optional[subprocess.Popen] = None
        self.client = None
        self.trace_path: Optional[str] = None
        self.next_job = 0
        self._lock = threading.Lock()

    def _start_daemon(self, trace_path: Optional[str]) -> float:
        from repro.service.client import ServiceClient
        from repro.service.protocol import parse_address

        self.close()
        log_path = os.path.join(self.run_directory, "daemon.log")
        command = [
            sys.executable, "-m", "repro.service.daemon", "--listen", "127.0.0.1:0",
            "--executors", "2", "--width", str(inputs.WIDTH), "--execute", "jit",
            "--jit-backend", "parallel",
        ]
        if trace_path:
            command += ["--trace", trace_path]
        self.trace_path = trace_path
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.path.join(self.root, "src")
        started = time.perf_counter()
        with open(log_path, "w") as log:
            self.process = subprocess.Popen(
                command, stdout=subprocess.DEVNULL, stderr=log, stdin=subprocess.DEVNULL,
                env=environment, cwd=self.run_directory,
            )
        deadline = started + 60
        address = None
        while address is None:
            if self.process.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("pash-serve did not start: " + open(log_path).read()[-2000:])
            with open(log_path) as log:
                match = re.search(r"listening on (\S+)", log.read())
            if match:
                address = parse_address(match.group(1))
            else:
                time.sleep(0.005)
        self.client = ServiceClient(address, timeout=JOB_TIMEOUT_SECONDS)
        job = self.client.submit(inputs.warmup_script(), files=self.variants[0])
        if job["state"] != "done":
            raise RuntimeError(f"service warm-up job failed: {job.get('error')}")
        return time.perf_counter() - started

    def setup(self) -> float:
        return self._start_daemon(None)

    def load(self) -> None:
        self.jobs = inputs.load_json(self.directory, "jobs.json")
        self.oracle = inputs.load_oracle(self.directory)

    def run_op(self, job: Dict[str, Any], tracer: Tracer) -> Dict[str, Any]:
        from repro.service.admission import ServiceBusy, ServiceError

        files = self.variants[job["variant"]]
        op = (job["kind"], job["script"])
        with tracer.span("bench:submit", "bench", kind=job["kind"]) as root:
            started = time.perf_counter()
            try:
                payload = self.client.submit(job["script"], files=files)
            except ServiceBusy as exc:
                return _record(op=op, reason=f"rejected: {exc}", latency=time.perf_counter() - started)
            except ServiceError as exc:
                return _record(op=op, reason=f"service error: {exc}", latency=time.perf_counter() - started)
            except OSError as exc:
                return _record(op=op, reason=f"{type(exc).__name__}: {exc}", latency=time.perf_counter() - started)
            finished = time.perf_counter()
        report = payload.get("report") or {}
        if payload["state"] != "done":
            return _record(op=op, reason=f"job {payload['state']}: {payload.get('error')}",
                           latency=finished - started)
        expected = self.oracle[inputs.oracle_key(job["script"], job["variant"])]
        written = {name: lines for name, lines in (payload.get("files") or {}).items()
                   if name in expected["files"]}
        ok = outputs_match(expected, payload.get("stdout") or [], written)
        metrics = EngineMetrics.from_dict(report["metrics"]) if report.get("metrics") else None
        return _record(
            op=op, ok=ok, reason="" if ok else "output differs from oracle",
            latency=finished - started, bytes=inputs.input_bytes(files), metrics=metrics,
            server=payload.get("elapsed_seconds", 0.0), jit=report.get("jit"),
            root=getattr(root, "span_id", None), job_id=payload.get("job_id"),
        )

    def phase(self, seconds: float, tracer: Tracer = NULL_TRACER, rounds: Optional[int] = None):
        """Closed loop, no think time: each client submits its next job when
        the previous reply arrives.  ``rounds`` bounds the job count instead."""
        if tracer.enabled:
            # The traced phase needs a daemon that records spans itself;
            # its start is not part of any measurement.
            self._start_daemon(os.path.join(self.run_directory, "daemon-trace.json"))
        limit = len(self.jobs) if rounds is None else min(len(self.jobs), rounds)
        records: List[Dict[str, Any]] = []
        started = time.perf_counter()
        deadline = started + seconds if rounds is None else float("inf")
        before = self.client.stats()

        def client_loop() -> None:
            while time.perf_counter() < deadline:
                with self._lock:
                    if self.next_job >= limit:
                        return
                    job = self.jobs[self.next_job]
                    self.next_job += 1
                record = self.run_op(job, tracer)
                with self._lock:
                    records.append(record)

        self.next_job = 0
        threads = [threading.Thread(target=client_loop) for _ in range(CLIENT_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        after = self.client.stats()
        self.stats_delta = _stats_delta(before, after)
        if tracer.enabled:
            self._stop_daemon()
        return records, elapsed

    def interpreter_ms(self) -> Dict[str, float]:
        """``ShellInterpreter`` time per job kind (first jobs of the list)."""
        totals: Dict[str, List[float]] = {}
        for job in self.jobs[:60]:
            started = time.perf_counter()
            inputs.oracle_shell(job["script"], self.variants[job["variant"]])
            totals.setdefault(job["kind"], []).append((time.perf_counter() - started) * 1000)
        return {kind: sum(values) / len(values) for kind, values in totals.items()}

    @staticmethod
    def op_label(op) -> str:
        return op[0]

    def _stop_daemon(self) -> None:
        if self.process is None:
            return
        if self.client is not None:
            try:
                self.client.shutdown()
            except Exception:  # noqa: BLE001 - the process is killed below if needed
                pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process = None

    def close(self) -> None:
        self._stop_daemon()


def _stats_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, int]:
    def count(stats, section, key):
        return int((stats.get(section) or {}).get(key, 0))

    return {
        "hits": count(after, "plan_cache", "hits") - count(before, "plan_cache", "hits"),
        "misses": count(after, "plan_cache", "misses") - count(before, "plan_cache", "misses"),
        "rejected": sum(
            count(after, "admission", key) - count(before, "admission", key)
            for key in ("rejected_queue_full", "rejected_quota")
        ),
        "spawned": count(after, "pool", "processes_spawned") - count(before, "pool", "processes_spawned"),
        "reused": count(after, "pool", "tasks_reused") - count(before, "pool", "tasks_reused"),
    }


def make_driver(workload: str, directory: str, root: str, run_directory: str):
    if workload == "service-mix":
        return ServiceDriver(workload, directory, root, run_directory)
    backend = "cluster" if workload == "cluster-fanout" else "parallel"
    return OnelinerDriver(workload, directory, backend)
