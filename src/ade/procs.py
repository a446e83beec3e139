"""Every process a command forks, and the one way to start and end one.

`_fork_width` says how many processes a job may use: at most one per CPU
of the affinity mask (`_cpus`, which `rng` reads too), and one alone
where a fork is unsafe (no `os.fork`, or another thread running, whose
locks a child could inherit held) or inside the processes of a
`_fork_map`, which already fill the CPUs. Every child is a `_Child`, and
a fork that fails costs time, not the run: the caller does the child's
work. `_fork_map` runs the chain children of
`corruption.precompute_dataset`; `corruption._Partner` steps half of a
large lattice.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
import threading
from collections.abc import Callable
from pathlib import Path

# true while `_fork_map` runs jobs in more than one process
_mapping = False


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fork_width(parts: int) -> int:
    """How many processes a job of `parts` independent parts may fork
    into: one per CPU of the affinity mask at most, and 1 where forking is
    unsafe (not available, or another thread is running, whose locks a
    child could inherit held) or inside the processes of `_fork_map`."""
    if _mapping or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_cpus(), parts))


def _flush() -> None:
    # before a fork: what is buffered would be written by both processes
    for out in (sys.stdout, sys.stderr):
        if out is not None:
            out.flush()


def _die_with(parent: int) -> None:
    # run early in a forked child: it must not outlive a killed parent,
    # which can no longer reap it
    if sys.platform.startswith("linux"):
        import ctypes
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        PR_SET_PDEATHSIG = 1
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # the parent died before the prctl
        os._exit(1)


def _others() -> set[int]:
    # a child forked a moment ago may start on this process's CPU, and
    # where the cpuset turns load balancing off (cpuset.sched_load_balance
    # 0) nothing moves it from there, the two taking turns while another
    # CPU idles. So a placed child is moved to the other CPUs of the mask
    # before it runs, where Linux says which CPU this one is on (field 39
    # of /proc/self/stat). Read before the fork: after it, the child may
    # hold this CPU and the read wait for it
    with contextlib.suppress(AttributeError, OSError, ValueError,
                             IndexError):
        with open("/proc/self/stat") as f:
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])
        return os.sched_getaffinity(0) - {cpu}
    return set()


class _Child:
    """A forked process running `target(recv, send)`, for a `with` block.

    Entering flushes output, so nothing buffered is written twice, opens
    two pipes and forks. The child closes the parent's ends, dies with
    this process, runs `target` with the read end of the pipe from the
    parent and the write end of the pipe to it, and leaves through
    `os._exit` however `target` ends, never into the caller's frames. The
    parent moves a `placed` child to the other CPUs of its mask first,
    then keeps `send` and `recv`, the other two ends. Where no pipe or
    process is to be had, `pid` is None and no pipe is left open. Leaving
    closes the parent's ends, kills the child and reaps it, however the
    block is left.
    """

    # not for a chain child: pinned off this CPU, it cannot leave a CPU
    # that another process loads, and `ade chain` ran slower placed
    placed = False

    def __init__(self, target: Callable[[int, int], object]):
        self.target = target
        self.pid: int | None = None

    def __enter__(self) -> _Child:
        _flush()
        others = _others() if self.placed else set()
        parent = os.getpid()
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self.pid = os.fork()
        except OSError:  # nothing to spare: the caller works alone
            for fd in fds:
                os.close(fd)
            return self
        down, self.send, self.recv, up = fds
        if self.pid == 0:
            try:
                os.close(self.send)
                os.close(self.recv)
                _die_with(parent)
                self.target(down, up)
            finally:
                os._exit(0)
        if others:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(self.pid, others)
        os.close(down)
        os.close(up)
        return self

    def close(self) -> None:
        if self.pid is not None:
            os.close(self.send)
            os.close(self.recv)
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None

    def __exit__(self, *exc) -> None:
        self.close()


def _await(fd: int) -> bytes:
    """The next byte of the non-blocking pipe `fd`, or b"" once its writer
    is gone: polled, yielding the CPU between polls, never asleep, so no
    step waits for a sleeping CPU to wake."""
    while True:
        try:
            return os.read(fd, 1)
        except BlockingIOError:
            os.sched_yield()


def _claim_and_run(run: Callable, jobs: list, stage: Path,
                   done: dict) -> None:
    # job i is run by the process that creates stage/.claim-<i>: an
    # exclusive create is a claim no dying process can leave half made
    for i, job in enumerate(jobs):
        try:
            os.close(os.open(stage / f".claim-{i}",
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            continue
        done[i] = run(job)


def _fork_map(run: Callable, jobs: list, stage: Path):
    """map(run, jobs), run by this process and `_fork_width - 1` forked
    children, `stage` being an empty dir private to the call.

    Every process takes the next job nobody has taken, and a child reports
    the jobs it finished once none is left. The children are reaped before
    the first result is yielded, in job order; a job no child reported
    (its child raised, died or was never forked) is run here at its turn,
    so a failing job raises here, at its place.
    """
    global _mapping
    done: dict = {}

    def report(recv: int, send: int) -> None:
        try:
            _claim_and_run(run, jobs, stage, done)
        finally:
            with open(send, "wb") as f:
                f.write(pickle.dumps(done))

    width = _fork_width(len(jobs))
    _mapping = width > 1
    try:
        with contextlib.ExitStack() as stack:
            children = [child for child in (
                stack.enter_context(_Child(report)) for _ in range(width - 1))
                if child.pid is not None]
            if children:
                # a failed job is left unreported, to be run again below
                with contextlib.suppress(Exception):
                    _claim_and_run(run, jobs, stage, done)
            # read only now: a child blocked on a long report merely waits
            for child in children:
                with open(child.recv, "rb", closefd=False) as f, \
                        contextlib.suppress(EOFError, pickle.UnpicklingError):
                    done.update(pickle.loads(f.read()))
    finally:
        _mapping = False
    for i, job in enumerate(jobs):
        yield done[i] if i in done else run(job)
