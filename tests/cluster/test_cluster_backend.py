"""Cluster tier unit tests: sharding policy, edge store, backend semantics."""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import engine
from repro.cluster.coordinator import (
    ClusterBackend,
    ClusterCoordinator,
    ClusterOptions,
    EdgeStore,
    remote_eligible,
    shutdown_fleets,
)
from repro.dfg.builder import DFGBuilder
from repro.dfg.nodes import AggregatorNode, CatNode, CommandNode, SplitNode
from repro.runtime.executor import ExecutionEnvironment, ExecutionError
from repro.runtime.streams import VirtualFileSystem

FILES = {"a.txt": ["banana", "apple foo"], "b.txt": ["cherry foo", "date"]}
SCRIPT = "cat a.txt b.txt | grep foo | sort > out.txt"


def env():
    return ExecutionEnvironment(
        filesystem=VirtualFileSystem({name: list(lines) for name, lines in FILES.items()})
    )


# ---------------------------------------------------------------------------
# Sharding policy
# ---------------------------------------------------------------------------


def test_sharding_policy_matches_statelessness():
    graph = DFGBuilder().build_from_script(SCRIPT)
    verdicts = {node.label(): remote_eligible(node) for node in graph.nodes.values()}
    assert verdicts["grep foo"] is True  # stateless: shards across workers
    assert verdicts["sort"] is False  # needs the whole stream: stays local
    assert verdicts["cat"] is False  # fan-in point: stays local


def test_structural_nodes_stay_on_coordinator():
    assert not remote_eligible(SplitNode(node_id=1))
    assert not remote_eligible(CatNode(node_id=2))
    assert not remote_eligible(AggregatorNode(node_id=3, aggregator="sort -m"))


# ---------------------------------------------------------------------------
# EdgeStore
# ---------------------------------------------------------------------------


def test_edge_store_memory_roundtrip(tmp_path):
    store = EdgeStore(directory=str(tmp_path))
    try:
        store.put_lines(1, ["alpha", "beta"])
        assert store.has(1)
        assert store.lines(1) == ["alpha", "beta"]
        assert b"".join(store.frames(1)) == b"alpha\nbeta\n"
    finally:
        store.close()


def test_edge_store_spills_past_threshold(tmp_path):
    store = EdgeStore(spill_threshold=8, directory=str(tmp_path))
    try:
        lines = [f"line {i}" for i in range(100)]
        store.put_lines(1, lines)
        assert store._spilled and not store._memory
        assert store.lines(1) == lines
    finally:
        store.close()


def test_edge_sink_commit_and_abandon(tmp_path):
    store = EdgeStore(spill_threshold=4, directory=str(tmp_path))
    try:
        sink = store.sink(5)
        sink.write(b"one\ntwo\n")  # beyond threshold: goes to a spill file
        sink.commit()
        assert store.lines(5) == ["one", "two"]

        abandoned = store.sink(6)
        abandoned.write(b"partial\n")
        abandoned.abandon()
        assert not store.has(6)
    finally:
        store.close()


def test_store_directory_removed_on_close(tmp_path):
    store = EdgeStore(directory=str(tmp_path))
    directory = store.directory
    assert os.path.isdir(directory)
    store.close()
    assert not os.path.exists(directory)


# ---------------------------------------------------------------------------
# Backend semantics
# ---------------------------------------------------------------------------


def test_cluster_registered_as_backend():
    assert "cluster" in engine.available_backends()
    backend = engine.create_backend("cluster", workers=3)
    assert isinstance(backend, ClusterBackend)
    assert backend.options.workers == 3


def test_cluster_run_matches_interpreter_and_uses_workers():
    graph = DFGBuilder().build_from_script(SCRIPT)
    expected = engine.run(graph, backend="interpreter", environment=env())
    graph = DFGBuilder().build_from_script(SCRIPT)
    result = engine.run(graph, backend="cluster", environment=env())
    assert result.output_of("out.txt") == expected.output_of("out.txt")
    assert result.backend == "cluster"
    assert result.metrics.cluster_workers == 2
    assert result.metrics.remote_tasks >= 1
    remote_pids = {node.pid for node in result.metrics.nodes} - {os.getpid()}
    assert remote_pids


def test_remote_command_error_fails_cleanly():
    graph = DFGBuilder().build_from_script("cat a.txt | grep [ | sort")
    with pytest.raises(ExecutionError):
        engine.run(graph, backend="cluster", environment=env())


def test_startup_timeout_is_a_clean_error():
    coordinator = ClusterCoordinator(
        ClusterOptions(workers=1, connect="127.0.0.1:0", register_timeout_seconds=0.5)
    )
    with pytest.raises(ExecutionError, match="timed out"):
        coordinator.start()


def test_malformed_connect_address_is_a_clean_error():
    coordinator = ClusterCoordinator(ClusterOptions(connect="nonsense"))
    with pytest.raises(ExecutionError, match="HOST:PORT"):
        coordinator.start()


# ---------------------------------------------------------------------------
# Fleet lifetime: reuse across executes, replacement, and teardown
# ---------------------------------------------------------------------------


@pytest.fixture()
def fresh_fleets():
    """No idle fleet before or after the test: worker pids are the test's own."""
    shutdown_fleets()
    yield
    shutdown_fleets()


def _cmdline_mentions_worker(pid):
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return b"repro.cluster.worker" in handle.read()
    except OSError:
        return False


def _worker_children(pid):
    """Pids of the live pash-worker processes started by process ``pid``."""
    children = []
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return sorted(child for child in children if _cmdline_mentions_worker(child))


def _gone(pid):
    """Whether ``pid`` has exited (a zombie has exited, only not been reaped)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return True
    return state in ("Z", "X")


def _wait_gone(pids, seconds):
    deadline = time.monotonic() + seconds
    while not all(_gone(pid) for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def _oracle():
    graph = DFGBuilder().build_from_script(SCRIPT)
    return engine.run(graph, backend="interpreter", environment=env()).output_of("out.txt")


def _run(backend, script=SCRIPT):
    return backend.execute(DFGBuilder().build_from_script(script), env())


def test_second_execute_reuses_the_fleet(fresh_fleets):
    backend = ClusterBackend(workers=2)
    first = _run(backend)
    fleet = _worker_children(os.getpid())
    assert first.metrics.processes_spawned == 2
    assert len(fleet) == 2
    second = _run(backend)
    assert second.metrics.processes_spawned == 0
    assert _worker_children(os.getpid()) == fleet
    remote_pids = {node.pid for node in second.metrics.nodes} - {os.getpid()}
    assert remote_pids and remote_pids <= set(fleet)
    assert second.output_of("out.txt") == first.output_of("out.txt") == _oracle()


def test_worker_killed_between_runs_replaces_the_fleet(fresh_fleets):
    backend = ClusterBackend(workers=2)
    _run(backend)
    fleet = _worker_children(os.getpid())
    os.kill(fleet[0], signal.SIGKILL)
    assert _wait_gone([fleet[0]], 10.0)
    result = _run(backend)
    # Detected at check-out: the whole fleet is replaced before the run, so
    # nothing is requeued mid-run and no old worker survives.
    assert result.metrics.processes_spawned == 2
    assert result.metrics.requeued_tasks == 0
    assert _wait_gone(fleet, 10.0)
    replacement = _worker_children(os.getpid())
    assert len(replacement) == 2 and not set(replacement) & set(fleet)
    assert result.output_of("out.txt") == _oracle()


def test_fleet_idle_past_heartbeat_timeout_is_not_declared_lost(fresh_fleets):
    backend = ClusterBackend(workers=2, heartbeat_interval=0.1, heartbeat_timeout=1.0)
    _run(backend)
    time.sleep(2.0)  # heartbeats pile up unread while the fleet is idle
    result = _run(backend)
    assert result.metrics.processes_spawned == 0
    assert result.metrics.requeued_tasks == 0
    assert result.output_of("out.txt") == _oracle()


def test_failed_run_does_not_return_its_fleet(fresh_fleets):
    backend = ClusterBackend(workers=2)
    with pytest.raises(ExecutionError):
        _run(backend, "cat a.txt | grep [ | sort")
    assert _worker_children(os.getpid()) == []
    result = _run(backend)
    assert result.metrics.processes_spawned == 2
    assert result.output_of("out.txt") == _oracle()


def test_concurrent_callers_get_distinct_fleets(fresh_fleets, monkeypatch):
    from repro.cluster import coordinator as coordinator_module

    # Both callers hold a fleet at the same moment before either runs.
    barrier = threading.Barrier(2, timeout=60.0)
    checked_out = []
    original = coordinator_module.check_out_fleet

    def check_out_together(options):
        fleet = original(options)
        checked_out.append(fleet[0])
        barrier.wait()
        return fleet

    monkeypatch.setattr(coordinator_module, "check_out_fleet", check_out_together)
    scripts = {"left": SCRIPT, "right": "cat b.txt a.txt | grep a | sort > out.txt"}
    results, errors = {}, []

    def run(name):
        try:
            results[name] = _run(ClusterBackend(workers=2), scripts[name])
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(name,)) for name in scripts]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert errors == []
    assert len(results) == 2
    fleets = [{process.pid for process in fleet.processes} for fleet in checked_out]
    assert len(fleets[0]) == len(fleets[1]) == 2
    assert not fleets[0] & fleets[1]
    for name, result in results.items():
        graph = DFGBuilder().build_from_script(scripts[name])
        expected = engine.run(graph, backend="interpreter", environment=env())
        assert result.output_of("out.txt") == expected.output_of("out.txt")
        remote_pids = {node.pid for node in result.metrics.nodes} - {os.getpid()}
        assert remote_pids
        assert sum(remote_pids <= fleet for fleet in fleets) == 1


def test_free_list_never_hands_one_fleet_to_two_callers(fresh_fleets, monkeypatch):
    """More callers than cores, switching threads as often as possible: no
    fleet is ever checked out twice at once, and none is lost."""
    from repro.cluster import coordinator as coordinator_module

    guard = threading.Lock()
    in_use, violations = set(), []
    original_out = coordinator_module.check_out_fleet
    original_in = coordinator_module.check_in_fleet

    def check_out(options):
        fleet = original_out(options)
        with guard:
            if id(fleet[0]) in in_use:
                violations.append(fleet[0])
            in_use.add(id(fleet[0]))
        return fleet

    def check_in(coordinator):
        with guard:
            in_use.discard(id(coordinator))
        original_in(coordinator)

    monkeypatch.setattr(coordinator_module, "check_out_fleet", check_out)
    monkeypatch.setattr(coordinator_module, "check_in_fleet", check_in)
    outputs, errors = [], []

    def run():
        try:
            for _ in range(4):
                outputs.append(_run(ClusterBackend(workers=1)).output_of("out.txt"))
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and violations == []
    assert outputs == [_oracle()] * 12
    idle = sum(len(fleets) for fleets in coordinator_module._idle_fleets.values())
    assert 1 <= idle <= 3
    assert len(_worker_children(os.getpid())) == idle


def test_no_worker_processes_leak(fresh_fleets):
    """(a) Fleets stay warm between executes and go at shutdown_fleets()."""
    _run(ClusterBackend(workers=2))
    fleet = _worker_children(os.getpid())
    assert len(fleet) == 2
    shutdown_fleets()
    assert all(_gone(pid) for pid in fleet)
    alive = [
        pid
        for pid in os.listdir("/proc")
        if pid.isdigit() and _cmdline_mentions_worker(pid)
    ]
    assert alive == []


#: One cluster execute in a child process, which then reports the fleet's
#: worker pids and waits for a line on stdin.  ``report`` is registered
#: before repro is imported, so atexit runs it after shutdown_fleets() and
#: it sees how the workers exited.
CHILD = """
import atexit, sys
processes = []
atexit.register(lambda: print("exit codes", *[p.returncode for p in processes], flush=True))
from repro import engine
from repro.cluster import coordinator
from repro.dfg.builder import DFGBuilder
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.streams import VirtualFileSystem
environment = ExecutionEnvironment(filesystem=VirtualFileSystem({"a.txt": ["x ray", "none"]}))
graph = DFGBuilder().build_from_script("cat a.txt | grep x | sort")
engine.run(graph, backend="cluster", workers=2, environment=environment)
for fleets in coordinator._idle_fleets.values():
    for fleet in fleets:
        processes.extend(fleet.processes)
print("ready", *[p.pid for p in processes], flush=True)
sys.stdin.readline()
"""


def _start_child():
    import repro

    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=source_root),
        text=True,
    )
    words = child.stdout.readline().split()
    assert words[:1] == ["ready"], words
    pids = [int(word) for word in words[1:]]
    assert len(pids) == 2 and sorted(pids) == _worker_children(child.pid)
    return child, pids


def test_exiting_process_leaves_no_workers():
    """(b) A normal exit sends SHUTDOWN through atexit: workers exit 0."""
    child, pids = _start_child()
    output, _ = child.communicate("\n", timeout=60.0)
    assert child.returncode == 0
    assert output.split() == ["exit", "codes", "0", "0"]
    assert all(_gone(pid) for pid in pids)


def test_killed_process_workers_exit_on_eof():
    """(c) A SIGKILLed owner runs no atexit; its workers exit on socket EOF."""
    child, pids = _start_child()
    child.kill()
    child.wait(timeout=10.0)
    child.stdout.close()
    child.stdin.close()
    assert _wait_gone(pids, 10.0)
