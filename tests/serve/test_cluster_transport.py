"""The cluster transport: two one-way pipes per worker, no router heap
backlog, no helper threads, one deadline-bounded wait.

The router writes frames into a worker's command pipe without blocking
and returns only once a frame is in the kernel, so frames waiting for a
slow worker sit in the pipe buffer (~60 KB), not in router memory.
These tests pin what follows from that: no unsent bytes and no queue
feeder thread after any public call, a journal bounded by the pipe
rather than by a queue depth, a stalled worker failing its wait within
``op_timeout``, a worker's death waking the wait, and a failed
``start()`` leaving no worker behind.  The fork-hygiene tests pin that
a worker holds only its own two pipe ends, so a SIGKILLed router takes
its workers with it.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.serve import (DEFAULT_BENCH_APPS, ClusterError, ClusterService,
                         TenantSpec, merge_workloads, workload_from_app)

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                reason="reads /proc")


def bench_stream(laps: int, seed: int = 0):
    """The cluster-mix stream shape: the three bench apps at 16 steps in
    256-envelope chunks, replayed ``laps`` times with virtual time
    continuing across laps.  Returns (tenant specs, [(vt, arrival)])."""
    parts = [workload_from_app(app, steps=16, chunk_envelopes=256,
                               seed=seed, ordering_required=ordered)
             for app, ordered in DEFAULT_BENCH_APPS]
    wl = merge_workloads("bench", parts)
    period = wl.arrivals[-1].vt * (1 + 1 / len(wl.arrivals))
    return wl.tenants, [(a.vt + k * period, a)
                        for k in range(laps) for a in wl.arrivals]


def drive(cluster: ClusterService, arrivals, after_call) -> None:
    """Serve ``arrivals`` and call ``after_call()`` after every public
    call: each submit, the run-out advance, the drain and the barrier."""
    for vt, a in arrivals:
        cluster.submit(a.tenant, a.messages, a.requests, at_vt=vt)
        after_call()
    cluster.advance_to(cluster.now + 2 * cluster.batching.max_delay_vt)
    after_call()
    cluster.drain()
    after_call()
    cluster.sync()
    after_call()


def process_state(pid: int) -> str:
    """The state letter in ``/proc/<pid>/stat`` (``Z``: exited, not yet
    reaped)."""
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rsplit(")", 1)[1].split()[0]


def one_worker_cluster(specs, **kw) -> ClusterService:
    cluster = ClusterService(n_workers=1, seed=0, start_method="fork",
                             promote_after=2, **kw)
    for spec in specs:
        cluster.register(spec)
    return cluster


def test_no_unsent_bytes_and_no_feeder_thread():
    specs, arrivals = bench_stream(laps=2)
    cluster = one_worker_cluster(specs)

    def check() -> None:
        assert all(not w.link.out for w in cluster._workers)
        assert not any(t.name == "QueueFeederThread"
                       for t in threading.enumerate())

    with cluster:
        drive(cluster, arrivals, check)
        cluster.checkpoint_now()
        check()
    assert len(cluster.results) > 0


def test_journal_is_bounded_by_the_pipe():
    """The router runs ahead of its worker only by what the command
    pipe holds, so checkpoint replies come back promptly and the journal
    stays near the checkpoint cadence however long the stream."""
    specs, arrivals = bench_stream(laps=8)
    cluster = one_worker_cluster(specs)
    assert cluster.checkpoint_every == 8
    worker = cluster._workers[0]
    peak = [0]

    def check() -> None:
        peak[0] = max(peak[0], len(worker.journal))

    with cluster:
        drive(cluster, arrivals, check)
    assert len(arrivals) > 256
    assert 0 < peak[0] <= 64


def test_stopped_worker_fails_the_barrier_within_op_timeout():
    """A SIGSTOPped worker makes the wait raise after ``op_timeout``
    (naming the worker and the wait); after SIGCONT the cluster still
    stops cleanly."""
    cluster = ClusterService(n_workers=1, seed=0, start_method="fork",
                             op_timeout=1.0)
    cluster.register(TenantSpec(name="t"))
    cluster.start()
    proc = cluster._workers[0].proc
    try:
        cluster.sync()
        os.kill(proc.pid, signal.SIGSTOP)
        t0 = time.monotonic()
        with pytest.raises(ClusterError,
                           match=r"workers \[0\] missed the stats barrier"):
            cluster.sync()
        assert time.monotonic() - t0 < 2.0
    finally:
        os.kill(proc.pid, signal.SIGCONT)
        cluster.stop()
    assert proc.exitcode == 0


def test_death_wakes_the_wait(monkeypatch):
    """A worker that dies once the router has read its EOF but before
    the router waits still wakes the wait, through its sentinel: the
    barrier recovers it at once instead of sleeping out ``op_timeout``."""
    cluster = ClusterService(n_workers=1, seed=0, start_method="fork",
                             op_timeout=30.0)
    cluster.register(TenantSpec(name="t"))
    wait = ClusterService._wait
    killed = []

    def kill_then_wait(self, deadline, watch, writer=None):
        if not killed:
            pid = self._workers[0].proc.pid
            os.kill(pid, signal.SIGKILL)
            while process_state(pid) != "Z":   # dead, not yet reaped
                time.sleep(0.001)
            self._pump()   # reads the EOF
            killed.append(pid)
        wait(self, deadline, watch, writer)

    with cluster:
        cluster.sync()
        monkeypatch.setattr(ClusterService, "_wait", kill_then_wait)
        # stopped, the worker cannot answer before the barrier waits
        os.kill(cluster._workers[0].proc.pid, signal.SIGSTOP)
        t0 = time.monotonic()
        cluster.sync()
        assert time.monotonic() - t0 < 5.0
        assert killed and len(cluster.recoveries) == 1


def test_failed_start_leaves_no_worker(monkeypatch):
    """A spawn failure on worker 1 terminates worker 0 before the error
    propagates, and a retried start() spawns each worker exactly once."""
    before = set(multiprocessing.active_children())
    spawn = ClusterService._spawn

    def spawn_failing_on_1(self, w):
        if w.worker_id == 1:
            raise OSError("spawn failed")
        spawn(self, w)

    cluster = ClusterService(n_workers=2, seed=0, start_method="fork")
    cluster.register(TenantSpec(name="t"))
    monkeypatch.setattr(ClusterService, "_spawn", spawn_failing_on_1)
    with pytest.raises(OSError, match="spawn failed"):
        cluster.start()
    assert set(multiprocessing.active_children()) == before
    assert all(w.proc is None and w.link is None for w in cluster._workers)
    monkeypatch.undo()
    with cluster:
        children = set(multiprocessing.active_children()) - before
        assert len(children) == cluster.n_workers
        cluster.sync()
    assert all(p.exitcode == 0 for p in children)


def pipe_inodes(pid: int) -> list[int]:
    """The pipe inode behind each of ``pid``'s open fds that is a pipe."""
    fd_dir = f"/proc/{pid}/fd"
    links = [os.readlink(os.path.join(fd_dir, fd)) for fd in os.listdir(fd_dir)]
    return [int(link[6:-1]) for link in links if link.startswith("pipe:[")]


def link_inodes(w) -> tuple[int, int]:
    return (os.fstat(w.link.cmd.fileno()).st_ino,
            os.fstat(w.link.resp.fileno()).st_ino)


@needs_proc
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_worker_holds_only_its_own_pipe_ends(start_method):
    """Each worker holds one end of each of its own link's two pipes
    and nothing of another worker's link -- also a worker respawned
    while its sibling's link is open, which holds nothing of the dead
    worker it replaces either."""
    cluster = ClusterService(n_workers=2, seed=0, start_method=start_method)
    cluster.register(TenantSpec(name="t"))

    def check() -> None:
        cluster.sync()   # every worker is past its start-up
        links = {w.worker_id: link_inodes(w) for w in cluster._workers}
        for w in cluster._workers:
            held = pipe_inodes(w.proc.pid)
            for ino in links[w.worker_id]:
                assert held.count(ino) == 1
            for other, inos in links.items():
                if other != w.worker_id:
                    assert not set(inos) & set(held)
            for sib in cluster._workers:
                if sib is not w:
                    assert os.fstat(sib.proc.sentinel).st_ino not in held

    with cluster:
        check()
        proc = cluster._workers[0].proc
        dead_sentinel = os.fstat(proc.sentinel).st_ino
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=10.0)
        assert not proc.is_alive()
        check()
        assert len(cluster.recoveries) == 1
        assert dead_sentinel not in pipe_inodes(cluster._workers[0].proc.pid)


ROUTER = """
import time
from repro.serve import ClusterService, TenantSpec
cluster = ClusterService(n_workers=2, seed=0, start_method="fork")
cluster.register(TenantSpec(name="t"))
cluster.start()
cluster.sync()
print(*(w.proc.pid for w in cluster._workers), flush=True)
time.sleep(60)
"""


def gone(pid: int) -> bool:
    """Exited (reaped, or a zombie nobody has reaped yet)."""
    try:
        return process_state(pid) == "Z"
    except FileNotFoundError:
        return True


@needs_proc
def test_workers_exit_when_the_router_is_killed():
    """SIGKILL the router: with no other holder of the router's pipe
    ends, each fork worker reads EOF and exits."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    router = subprocess.Popen([sys.executable, "-c", ROUTER], env=env,
                              stdout=subprocess.PIPE, text=True)
    pids: list[int] = []
    try:
        assert select.select([router.stdout], [], [], 60.0)[0]
        pids = [int(p) for p in router.stdout.readline().split()]
        assert len(pids) == 2
        router.kill()
        router.wait(timeout=10.0)
        deadline = time.monotonic() + 10.0
        while not all(gone(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert [p for p in pids if not gone(p)] == []
    finally:
        router.kill()
        router.wait(timeout=10.0)
        router.stdout.close()
        for pid in pids:
            if not gone(pid):
                os.kill(pid, signal.SIGKILL)
