"""`procs._Child`, the one way a command forks, and what a fork that
fails costs its callers: time, not the run."""

import errno
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from ade import io, procs
from ade.corruption import precompute_dataset
from ade.rng import CounterRng
from ade.schedule import DiffusionSchedule, sigma_to_fo

from conftest import SRC

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"),
    reason="forks; the checks read /proc")


def _fds():
    return sorted(os.listdir("/proc/self/fd"))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _python(script):
    # a piped stdout is block-buffered unless PYTHONUNBUFFERED is set
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="")
    return subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


@pytest.mark.parametrize("target", ["returns", "raises"])
def test_a_child_leaves_only_through_exit(target):
    # a child that returned or raised into this frame would run the
    # finally and flush the buffered line a second time
    script = (
        "import os\n"
        "from ade import procs\n"
        "def target(recv, send):\n"
        f"    if {target == 'raises'}:\n"
        "        raise OSError('the target failed')\n"
        "print('before the fork')\n"
        "try:\n"
        "    with procs._Child(target) as child:\n"
        "        assert child.pid\n"
        "        # until it has left, unreaped: a child that ran on here\n"
        "        # would print again first\n"
        "        os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)\n"
        "finally:\n"
        "    print('finally')\n")
    out, err = _python(script).communicate(timeout=60)
    assert (out, err) == ("before the fork\nfinally\n", "")


def _gone_or_zombie(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_a_child_dies_with_a_killed_parent():
    script = (
        "import time\n"
        "from ade import procs\n"
        "with procs._Child(lambda recv, send: time.sleep(60)) as child:\n"
        "    print(child.pid, flush=True)\n"
        "    time.sleep(60)\n")
    proc = _python(script)
    try:
        pid = int(proc.stdout.readline())
        assert not _gone_or_zombie(pid)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 2.0
        while not _gone_or_zombie(pid):
            assert time.monotonic() < deadline, "the child outlived it"
            time.sleep(0.01)
    finally:
        proc.kill()
        proc.communicate()


def test_a_raising_target_or_block_leaves_no_child_and_no_fd():
    def target(recv, send):
        raise OSError("the target failed")
    fds = _fds()
    with pytest.raises(ValueError, match="the block failed"):
        with procs._Child(target) as child:
            assert child.pid and _fds() != fds
            # the child's end of its pipe is closed as it leaves
            assert os.read(child.recv, 1) == b""
            raise ValueError("the block failed")
    assert child.pid is None
    _no_child_left()
    assert _fds() == fds


def _no_fork():
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


def test_a_failed_fork_leaves_no_pid_and_no_fd(monkeypatch):
    monkeypatch.setattr(os, "fork", _no_fork)
    fds = _fds()
    with procs._Child(lambda recv, send: None) as child:
        assert child.pid is None
        assert _fds() == fds
    _no_child_left()


def _image(shape, seed):
    return 0.25 + 0.5 * CounterRng(seed, 0).uniforms(
        int(np.prod(shape))).reshape(shape)


@pytest.mark.parametrize("images", [1, 3])
def test_a_failed_fork_costs_time_not_the_run(tmp_path, monkeypatch, cpus,
                                              images):
    # one 192^2 image forks a lattice partner, three 16^2 images chain
    # children: with no process to spare, both run here alone
    n = 192 if images == 1 else 16
    src = tmp_path / "in"
    src.mkdir()
    for i in range(images):
        io.write_image(src / f"{i}.pgm", _image((1, n, n), 20 + i),
                       maxval=255)
    (src / "bad.pgm").write_bytes(b"P5\n4 4\n255\nxx")
    sch = DiffusionSchedule.from_levels(
        [sigma_to_fo(s, n) for s in (0.5, 1.0)], float(n), peclet=0.1)
    cpus(1)
    alone = precompute_dataset(src, tmp_path / "alone", sch, seed=4)
    cpus(2)
    monkeypatch.setattr(os, "fork", _no_fork)
    fds = _fds()
    assert precompute_dataset(src, tmp_path / "out", sch, seed=4) == alone
    assert len(alone["written"]) == images and list(alone["errors"]) == [
        "bad.pgm"]
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == {
        p.name: p.read_bytes() for p in (tmp_path / "alone").iterdir()}
    _no_child_left()
    assert _fds() == fds


@pytest.mark.parametrize("placed", [True, False])
def test_a_placed_child_runs_off_this_cpu(placed):
    # under taskset -c 0,1 a placed child runs on the CPU this process was
    # not on, and an unplaced one (a chain child) may run on either
    mask = os.sched_getaffinity(0)
    if len(mask) < 2:
        pytest.skip("one CPU in the affinity mask: nowhere else to go")

    def target(recv, send):
        os.read(recv, 1)  # once the parent has placed it
        os.write(send, json.dumps(sorted(os.sched_getaffinity(0))).encode())
    child = procs._Child(target)
    child.placed = placed
    with child:
        os.write(child.send, b"\0")
        got = set(json.loads(os.read(child.recv, 4096)))
    if placed:
        assert got < mask and len(got) == len(mask) - 1
    else:
        assert got == mask
    _no_child_left()
