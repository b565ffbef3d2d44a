"""Work on every usable CPU: the CPU count and an in-order map on forked workers.

``map_in_order(fn, items)`` gives ``[fn(*item) for item in items]`` on
min(usable CPUs, len(items)) processes: the caller plus worker processes.
Two callers use it: ``dataset_synth.build_dataset`` (one item per sequence)
and ``mesh_core.load_mesh`` (a plain ASCII PLY file's vertex and face
blocks). The workers are forked on the first call that needs them and kept
for later calls, so each starts with everything the caller had imported, and
runs ``fn`` as it stood at that fork: a later patch of the caller's modules
does not reach them. For the length of a call the caller is pinned to the
CPU it is on, and each worker to the caller's other usable CPUs: unpinned,
a woken worker often shared the caller's CPU while another CPU sat idle. A
worker keeps no descriptor of the caller but its standard streams, ignores
SIGINT and exits at the end of file on its task pipe, which comes when the
caller closes it at exit or when the kernel closes it because the caller
was killed.
"""

from __future__ import annotations

import atexit
import fcntl
import os
import pickle
import select
import signal
import struct
import threading
import warnings
from contextlib import contextmanager, suppress
from typing import NamedTuple

_HEADER = struct.Struct("<Q")  # the byte length of the pickle that follows
# room for about two shipped sequences' results in the pipe, so that a
# worker goes on while the caller runs its own share (the default is 64 KiB)
_PIPE_BYTES = 1 << 20


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Worker(NamedTuple):
    pid: int
    tasks: int  # write end of the pipe the worker reads its shares from
    results: int  # read end of the pipe it writes one result per item to


_workers: list[_Worker] = []
_owner = os.getpid()  # the process that forked _workers
_in_use = threading.Lock()  # held by the call that has the workers


def map_in_order(fn, items: list) -> list:
    """``[fn(*item) for item in items]``, run on min(usable CPUs, len(items)) processes.

    Process p of P (the caller is 0) runs items p, p + P, p + 2P, ... in
    turn. The results come back in item order, and the error raised is the
    one of the lowest item that failed: every earlier item has run by then,
    as in the one-process loop, so results and errors do not depend on the
    CPU count. A process stops its share at its first error. ``fn`` must be
    a module-level function, and items, results and errors must pickle.
    With one usable CPU or one item, without ``os.fork``, or while another
    thread's call has the workers, the caller runs the loop alone.

    A call made by ``fn`` runs alone in its own process too, forking
    nothing, whether ``fn`` runs on the caller or on a worker. On the caller
    the outer call holds ``_in_use``. A worker holds it for its whole life,
    because it is forked while the call that forks it holds it, and it
    never releases it; only this keeps a worker from forking workers of its
    own (a test pins it).
    """
    n = min(usable_cpus(), len(items))
    if n < 2 or not hasattr(os, "fork") or not _in_use.acquire(blocking=False):
        return [fn(*item) for item in items]
    try:
        return _map(fn, items, n)
    finally:
        _in_use.release()


def _map(fn, items: list, n: int) -> list:
    out = [None] * len(items)
    errors: dict[int, BaseException] = {}
    awaited: dict[int, list[int]] = {}  # results fd -> its items still to come, last first
    try:
        workers = _started(n - 1)
        with _on_this_cpu() as cpu:
            for p, worker in enumerate(workers, 1):
                share = range(p, len(items), n)
                _send(worker.tasks, (cpu, fn, [items[i] for i in share]))
                awaited[worker.results] = list(reversed(share))
            for i in range(0, len(items), n):
                if errors and i > min(errors):
                    break
                try:
                    out[i] = fn(*items[i])
                except Exception as exc:
                    errors[i] = exc
                _collect(awaited, out, errors, timeout=0)
            while awaited:
                _collect(awaited, out, errors, timeout=None)
    except BaseException:  # an interrupt, or a worker gone: no worker is left mid-share
        _stop_workers(kill=True)
        raise
    if errors:
        raise errors[min(errors)]
    return out


@contextmanager
def _on_this_cpu():
    """Pin the calling thread to the CPU it runs on for the body; yield that CPU.

    The workers of the call keep off that CPU (``_serve``). The caller's
    affinity is restored after the body. Yields None, and pins nothing,
    where the CPU is not known.
    """
    cpu = _current_cpu() if hasattr(os, "sched_setaffinity") else None
    if cpu is None:
        yield None
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, cpus)


def _current_cpu() -> int | None:
    """The CPU the calling thread runs on, from Linux's /proc; None elsewhere."""
    try:
        with open("/proc/thread-self/stat", "rb") as f:
            return int(f.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _collect(awaited: dict[int, list[int]], out: list, errors: dict, timeout) -> None:
    """Read one result from each worker that has one ready within ``timeout`` ms."""
    poll = select.poll()  # unlike select(), any descriptor number
    for fd in awaited:
        poll.register(fd, select.POLLIN)
    for fd, _ in poll.poll(timeout):
        pending = awaited[fd]
        i = pending.pop()
        try:
            ok, value = _recv(fd)
        except EOFError:
            raise ChildProcessError("a worker process exited before it returned its share")
        if ok:
            out[i] = value
        else:
            errors[i] = value
            pending.clear()  # the worker stopped its share here
        if not pending:
            del awaited[fd]


def _started(count: int) -> list[_Worker]:
    """The first ``count`` workers of this process, forking those it lacks."""
    global _owner
    if _owner != os.getpid():  # a fork of the owner: its workers are not ours
        for worker in _workers:
            os.close(worker.tasks)
            os.close(worker.results)
        _workers.clear()
        _owner = os.getpid()
    while len(_workers) < count:
        _workers.append(_fork())
    return _workers[:count]


def _fork() -> _Worker:
    tasks_r, tasks_w = os.pipe()
    results_r, results_w = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        with suppress(OSError):  # above the system's limit: the default size
            fcntl.fcntl(results_w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    with warnings.catch_warnings():
        # Python 3.12+ warns on any fork once BLAS has started its threads at
        # numpy import. The child runs only _serve, numpy and pickle, and
        # takes no lock that another thread of the caller could be holding.
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                DeprecationWarning)
        try:
            pid = os.fork()
        except OSError:
            for fd in (tasks_r, tasks_w, results_r, results_w):
                os.close(fd)
            raise
    if pid:
        os.close(tasks_r)
        os.close(results_w)
        return _Worker(pid, tasks_w, results_r)
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller decides on an interrupt
        # every inherited descriptor but the standard streams and this
        # worker's two pipe ends: the caller's ends and earlier workers' pipes
        # would keep a worker from seeing the caller exit, and an open file
        # or a locked directory would stay open for the worker's life
        lo = 3
        for fd in sorted({tasks_r, results_w}):
            if lo < fd:  # closerange(lo, 0) would close every descriptor from lo on
                os.closerange(lo, fd)
            lo = max(lo, fd + 1)
        os.closerange(lo, os.sysconf("SC_OPEN_MAX"))
        _workers.clear()
        _serve(tasks_r, results_w)
        code = 0
    finally:
        os._exit(code)  # never the caller's atexit handlers or buffered output


def _serve(tasks: int, results: int) -> None:
    """A worker's loop: run each share it is sent, one result per item, until end of file.

    Each share runs off the CPU the caller is pinned to, when there is another.
    """
    usable = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    while True:
        try:
            caller_cpu, fn, share = _recv(tasks)
        except EOFError:
            return
        if caller_cpu is not None and usable - {caller_cpu}:
            os.sched_setaffinity(0, usable - {caller_cpu})
        for item in share:
            try:
                out = True, fn(*item)
            except Exception as exc:
                out = False, exc
            _send(results, out)
            if not out[0]:
                break


def _send(fd: int, obj) -> None:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    view = memoryview(_HEADER.pack(len(payload)) + payload)
    while view:
        view = view[os.write(fd, view):]


def _recv(fd: int):
    """The next object sent on ``fd``; EOFError when its writer is gone."""
    (size,) = _HEADER.unpack(_read(fd, _HEADER.size))
    return pickle.loads(_read(fd, size))


def _read(fd: int, size: int) -> bytearray:
    buf = bytearray(size)
    view = memoryview(buf)
    got = 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if n == 0:
            raise EOFError
        got += n
    return buf


@atexit.register
def _stop_workers(kill: bool = False) -> None:
    """End this process's workers, then reap them.

    Closing a worker's pipes ends it at its next read or write; ``kill``
    ends it at once, in the middle of a share.
    """
    if _owner != os.getpid():
        return
    for worker in _workers:
        if kill:
            with suppress(ProcessLookupError):
                os.kill(worker.pid, signal.SIGKILL)
        os.close(worker.tasks)
        os.close(worker.results)
    for worker in _workers:
        with suppress(ChildProcessError):  # already reaped elsewhere
            os.waitpid(worker.pid, 0)
    _workers.clear()
