import os
import signal

import pytest

from facegcn import parallel
from facegcn.mesh_core import load_mesh

from test_mesh_core import assert_same_mesh, pinned_ply_bytes, spy_body_records


def item_and_pid(x):
    return x, os.getpid()


def nested_map(i):
    """This process's pid, an inner map's results, and how many workers this process has."""
    inner = parallel.map_in_order(item_and_pid, [(10 * i + j,) for j in range(3)])
    return os.getpid(), inner, len(parallel._workers)


def test_a_nested_call_runs_in_its_own_process(monkeypatch, fresh_workers):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    out = parallel.map_in_order(nested_map, [(i,) for i in range(5)])
    pids = [pid for pid, _, _ in out]
    assert pids[0] == os.getpid() and len(set(pids)) == 3  # the caller and two workers
    for i, (pid, inner, workers) in enumerate(out):
        assert inner == [(10 * i + j, pid) for j in range(3)]
        assert workers == (2 if pid == os.getpid() else 0)  # no grandchild was forked
    assert len(parallel._workers) == 2


def affinity(_):
    return os.sched_getaffinity(0)


@pytest.mark.skipif(not os.path.exists("/proc/thread-self/stat"), reason="no /proc")
def test_the_workers_leave_the_callers_cpu_to_it(monkeypatch, fresh_workers):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    cpus = os.sched_getaffinity(0)
    caller, *workers = parallel.map_in_order(affinity, [(i,) for i in range(3)])
    assert len(caller) == 1 and caller <= cpus
    assert workers == [cpus - caller or cpus] * 2
    assert os.sched_getaffinity(0) == cpus  # the caller's own, back after the call


def descriptors(pid):
    """fd number -> what it links to, for the open descriptors of ``pid``."""
    fds = f"/proc/{pid}/fd"
    return {int(fd): os.readlink(f"{fds}/{fd}") for fd in os.listdir(fds)}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc")
def test_a_worker_keeps_only_the_standard_streams_and_its_pipes(tmp_path, monkeypatch,
                                                               fresh_workers):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    p = tmp_path / "m.ply"
    p.write_bytes(pinned_ply_bytes())
    other = os.open(tmp_path, os.O_RDONLY | os.O_DIRECTORY)  # held by the caller at the fork
    try:
        load_mesh(p)  # forks the worker while the mesh file is open too
        (worker,) = parallel._workers
        held = descriptors(worker.pid)
    finally:
        os.close(other)
    kept = {fd: link for fd, link in held.items() if fd > 2}
    assert len(kept) == 2 and all(link.startswith("pipe:") for link in kept.values()), held
    assert not any(str(tmp_path) in link for link in held.values())


def test_a_worker_forked_in_another_directory_reads_the_callers_file(tmp_path, monkeypatch,
                                                                    fresh_workers):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    (first / "m.ply").write_bytes(pinned_ply_bytes().replace(b"\n3 0 1 2\n", b"\n3 0 2 1\n"))
    (second / "m.ply").write_bytes(pinned_ply_bytes())
    monkeypatch.chdir(first)
    assert load_mesh("m.ply").faces[0].tolist() == [0, 2, 1]  # the worker is forked here
    monkeypatch.chdir(second)
    assert load_mesh("m.ply").faces[0].tolist() == [0, 1, 2]


def test_a_lost_worker_costs_one_load_the_plain_path(tmp_path, monkeypatch, fresh_workers):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    p = tmp_path / "m.ply"
    p.write_bytes(pinned_ply_bytes())
    want = load_mesh(p)
    os.kill(parallel._workers[0].pid, signal.SIGKILL)
    calls = spy_body_records(monkeypatch)
    assert_same_mesh(load_mesh(p), want)
    assert calls == [p] and parallel._workers == []  # the general reader; workers reaped
    assert_same_mesh(load_mesh(p), want)
    assert calls == [p] and len(parallel._workers) == 1  # the plain path on a new worker
