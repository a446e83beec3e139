"""The lattice partner: a forked process that steps half of a large
lattice's rows in `forward_chain`, with the same bits as one process."""

import math
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from ade import corruption, io, lattice, procs
from ade.corruption import forward_chain, precompute_dataset
from ade.errors import ValidationError
from ade.lattice import LatticeState
from ade.rng import CounterRng
from ade.schedule import DiffusionSchedule, sigma_to_fo
from ade.turbulence import TurbulenceGenerator

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"),
    reason="the partner is forked; its checks read /proc")


def _image(shape, seed=40):
    return 0.25 + 0.5 * CounterRng(seed, 0).uniforms(
        int(np.prod(shape))).reshape(shape)


def _ladder(n, peclet):
    # zero-step levels first and in the middle
    return DiffusionSchedule.from_levels(
        [0.0] + [sigma_to_fo(s, n) for s in (0.5, 1.0, 1.0, 1.5)],
        float(n), peclet=peclet)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fds():
    return sorted(os.listdir("/proc/self/fd"))


def _chain(u0, sch, dtype, sink=False):
    if not sink:
        return forward_chain(u0, sch, 7, dtype=dtype).snapshots.tobytes()
    rows = []
    forward_chain(u0, sch, 7, dtype=dtype,
                  sink=lambda snap: rows.append(snap.tobytes()))
    return b"".join(rows)


@pytest.mark.parametrize("shape, peclet, dtype", [
    (shape, peclet, dtype) for shape in ((1, 256, 256), (2, 200, 200))
    for peclet in (0.0, 0.1, 1.0) for dtype in (np.float32, np.float64)]
    + [((1, 256, 255), 0.0, np.float64)])  # a flow needs a square grid
def test_a_partner_changes_no_byte(cpus, shape, peclet, dtype):
    u0, sch = _image(shape), _ladder(shape[-1], peclet)
    cpus(1)
    alone = _chain(u0, sch, dtype)
    forks = cpus(2)
    assert _chain(u0, sch, dtype) == alone
    assert _chain(u0, sch, dtype, sink=True) == alone
    assert len(forks) == 2
    _no_child_left()


@pytest.mark.parametrize("when", ["at the fork", "at snapshot 3"])
def test_a_killed_partner_costs_time_not_bytes(monkeypatch, cpus, when):
    u0, sch = _image((1, 192, 192)), _ladder(192, 0.1)
    cpus(1)
    alone = _chain(u0, sch, np.float64)
    forks = cpus(2)
    if when == "at the fork":  # before it has set its rows
        real = os.fork

        def fork():
            pid = real()
            if pid:
                os.kill(pid, signal.SIGKILL)
            return pid
        monkeypatch.setattr(os, "fork", fork)
    rows = []

    def sink(snap):
        if len(rows) == 3 and when == "at snapshot 3":
            os.kill(forks[0], signal.SIGKILL)
        rows.append(snap.tobytes())
    forward_chain(u0, sch, 7, sink=sink)
    assert b"".join(rows) == alone
    _no_child_left()


def test_a_partner_that_costs_more_than_it_saves_is_let_go(monkeypatch,
                                                            cpus):
    u0 = _image((1, 192, 192))
    sch = DiffusionSchedule.from_levels(
        [sigma_to_fo(s, 192) for s in (0.5, 1.5, 3.0)], 192.0)
    assert sch.lattice_steps > 2 * corruption._PARTNER_TRIAL_STEPS
    cpus(1)
    alone = _chain(u0, sch, np.float64)
    forks = cpus(2)
    parent = os.getpid()
    real = lattice.collide

    def slow(*args):
        if os.getpid() != parent:  # the partner's steps
            time.sleep(0.005)
        real(*args)
    # `solver_step`'s collide, in both processes
    monkeypatch.setattr(lattice, "collide", slow)
    rows, let_go = [], []
    close = corruption._Partner.close

    def spy(self):
        if self.pid is not None:
            let_go.append(len(rows))
        close(self)
    monkeypatch.setattr(corruption._Partner, "close", spy)
    forward_chain(u0, sch, 7, sink=lambda snap: rows.append(snap.tobytes()))
    assert b"".join(rows) == alone
    assert len(forks) == 1 and let_go and let_go[0] < len(rows)
    _no_child_left()


@pytest.mark.parametrize("where", ["sink", "provider"])
def test_a_failed_chain_leaves_no_partner_and_no_pipe(monkeypatch, cpus,
                                                       where):
    u0, sch = _image((1, 192, 192)), _ladder(192, 0.1)
    forks = cpus(2)
    fds = _fds()
    calls = []

    def fail(*args):
        calls.append(args)
        if len(calls) == 3:
            raise OSError(f"the {where} failed")
        return real(*args) if where == "provider" else None
    if where == "provider":
        real = TurbulenceGenerator.generate
        monkeypatch.setattr(
            TurbulenceGenerator, "generate", lambda self, *a: fail(self, *a))
    with pytest.raises(OSError, match=f"the {where} failed"):
        forward_chain(u0, sch, 7, sink=fail if where == "sink" else None)
    assert len(forks) == 1
    _no_child_left()
    assert _fds() == fds


@pytest.mark.parametrize("count", [1, 2], ids=["one part", "partner"])
def test_no_field_is_made_for_after_the_last_step(monkeypatch, cpus, count):
    # the field fetched at a step is the next step's: the last has none
    u0, sch = _image((1, 192, 192)), _ladder(192, 0.1)
    forks = cpus(count)
    real, steps = TurbulenceGenerator.generate, []

    def generate(self, step, target_rms):
        steps.append(step)
        return real(self, step, target_rms)
    monkeypatch.setattr(TurbulenceGenerator, "generate", generate)
    forward_chain(u0, sch, 7, sink=lambda snap: None)
    assert steps == list(range(sch.lattice_steps - 1))
    assert len(forks) == count - 1
    _no_child_left()


def test_no_partner_on_one_cpu_or_beside_a_thread(cpus):
    u0, sch = _image((1, 192, 192)), _ladder(192, 0.0)
    forks = cpus(1)
    forward_chain(u0, sch, 7)
    assert forks == []
    cpus(2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        forward_chain(u0, sch, 7)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


def test_no_partner_below_the_gate(cpus):
    forks = cpus(2)
    side = math.isqrt(corruption._PARTNER_MIN_NODES - 1)  # side^2 < gate
    forward_chain(_image((1, side, side)), _ladder(side, 0.0), 7)
    assert forks == []
    forward_chain(_image((1, side + 1, side + 1)), _ladder(side + 1, 0.0), 7)
    assert len(forks) == 1


def test_the_affinity_mask_decides_unforced(cpus):
    # run on one CPU (taskset -c 0) this starts no partner, on two it does
    forks = cpus(None)
    forward_chain(_image((1, 192, 192)), _ladder(192, 0.0), 7)
    assert len(forks) == (procs._cpus() >= 2)
    _no_child_left()


def test_a_grid_splits_into_two_parts_of_two_rows_or_more():
    for ny, parts in ((3, 2), (8, 3), (8, 0)):
        with pytest.raises(ValidationError, match="cannot split"):
            LatticeState(8, ny, parts=parts)
    st = LatticeState(5, 4, parts=2)
    assert [p.rows for p in st.parts] == [slice(0, 2), slice(2, 4)]


def _partners(monkeypatch, tmp_path):
    """Mark every partner started, in any process, with a file in
    tmp_path/partners; return that directory."""
    marks = tmp_path / "partners"
    marks.mkdir()
    real = corruption._Partner.__enter__

    def enter(self):
        (marks / str(os.getpid())).touch()
        return real(self)
    monkeypatch.setattr(corruption._Partner, "__enter__", enter)
    return marks


@pytest.mark.parametrize("images", [1, 2, 3])
def test_only_a_lone_chain_worker_starts_a_partner(monkeypatch, cpus,
                                                   tmp_path, images):
    src = tmp_path / "in"
    src.mkdir()
    for i in range(images):
        io.write_image(src / f"{i}.pgm", _image((1, 256, 256), 50 + i),
                       maxval=255)
    forks = cpus(2)
    marks = _partners(monkeypatch, tmp_path)
    report = precompute_dataset(src, tmp_path / "out", _ladder(256, 0.0),
                                seed=3)
    assert len(report["written"]) == images
    # one image: no chain child, and the command's process forks its
    # partner; more: one chain child, and no partner anywhere
    assert len(forks) == 1
    assert len(list(marks.iterdir())) == (images == 1)
    _no_child_left()


def _rss_kb():
    fields = dict(line.split(":", 1) for line in
                  Path("/proc/self/status").read_text().splitlines())
    return {k: int(fields[k].split()[0]) for k in ("VmRSS", "RssShmem")}


def test_the_shared_buffers_are_freed_at_return(cpus):
    u0, sch = _image((1, 256, 256)), _ladder(256, 0.0)
    forks = cpus(2)
    forward_chain(u0, sch, 7, sink=lambda snap: None)
    before = _rss_kb()
    for _ in range(20):
        forward_chain(u0, sch, 7, sink=lambda snap: None)
        assert _rss_kb()["RssShmem"] == before["RssShmem"]
    # each call maps 10 MB of buffers; 20 kept would be 200 MB
    assert _rss_kb()["VmRSS"] - before["VmRSS"] < 2048
    assert len(forks) == 21
    _no_child_left()
