import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from ade import corruption, io, lattice
from ade.corruption import (NoiseParams, add_training_noise, forward_chain,
                            make_training_pair, precompute_dataset,
                            regression_loss)
from ade.errors import ShapeMismatchError, ValidationError
from ade.rng import CounterRng
from ade.schedule import DiffusionSchedule, sigma_to_fo

import chain_reference
from conftest import SRC


def _field(seed, n=16, lo=0.25, span=0.5):
    return lo + span * CounterRng(seed, 0).uniforms(n * n).reshape(n, n)


def _schedule(n=16, sigmas=(0.5, 1.0, 2.0), peclet=0.0):
    return DiffusionSchedule.from_levels(
        [sigma_to_fo(s, n) for s in sigmas], float(n), peclet=peclet)


def test_noise_params_defaults():
    p = NoiseParams()
    assert p.sigma_train == 0.01
    assert p.sigma_sample == 0.01 / 1.25
    q = NoiseParams(sigma_train=0.05, sigma_sample=0.002)
    assert q.sigma_sample == 0.002
    with pytest.raises(ValidationError):
        NoiseParams(sigma_train=-0.1)


def test_chain_rejects_an_unsupported_dtype():
    with pytest.raises(ValidationError, match="unsupported dtype"):
        forward_chain(_field(1), _schedule(), 0, dtype=np.float16)


def test_chain_shape_and_clean_snapshot():
    sch = _schedule()
    chain = forward_chain(_field(1), sch, seed=0)
    assert chain.snapshots.shape == (4, 1, 16, 16)
    assert chain.chain_length == 3
    assert np.array_equal(chain.clean, chain.snapshots[0])
    assert np.array_equal(chain.prior, chain.snapshots[-1])
    # snapshot 0 is the input bit for bit
    assert np.array_equal(chain.snapshots[0, 0], _field(1))


def test_chain_is_deterministic_in_seed():
    sch = _schedule(peclet=0.1)
    a = forward_chain(_field(2), sch, seed=7)
    b = forward_chain(_field(2), sch, seed=7)
    c = forward_chain(_field(2), sch, seed=8)
    assert np.array_equal(a.snapshots, b.snapshots)
    assert not np.array_equal(a.snapshots, c.snapshots)


def test_chain_snapshots_are_progressively_smoother():
    sch = _schedule(n=32, sigmas=(0.5, 1.0, 2.0, 4.0))
    chain = forward_chain(_field(3, 32), sch, seed=0)
    variances = [chain.snapshots[k, 0].var() for k in range(4 + 1)]
    assert all(b < a for a, b in zip(variances, variances[1:]))


def test_zero_length_schedule_copies_the_input():
    sch = DiffusionSchedule.from_levels([0.0, 0.0], 16.0)
    chain = forward_chain(_field(4), sch, seed=3)
    assert chain.snapshots.shape == (3, 1, 16, 16)
    for k in range(3):
        assert np.array_equal(chain.snapshots[k, 0], _field(4))


# sigma ladders (px) whose repeated levels take zero lattice steps: two at
# the start (sigma 0 is Fo 0), two in the middle, two at the end
_LADDERS = {
    "leading": (0.0, 0.0, 0.7, 1.5),
    "middle": (0.5, 1.0, 1.0, 1.0, 2.0),
    "trailing": (0.5, 1.5, 1.5, 1.5),
}


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("peclet", [0.0, 0.1])
@pytest.mark.parametrize("ladder", sorted(_LADDERS))
def test_level_walk_matches_the_reference_bitwise(ladder, peclet, dtype,
                                                   channels):
    sch = DiffusionSchedule.from_levels(
        [sigma_to_fo(s, 16) if s else 0.0 for s in _LADDERS[ladder]],
        16.0, peclet=peclet)
    _, _, boundaries = sch.per_step()
    assert np.any(np.diff(boundaries) == 0)  # the ladder repeats a level
    u0 = np.stack([_field(30 + c) for c in range(channels)])
    chain = forward_chain(u0, sch, seed=8, dtype=dtype).snapshots
    ref = chain_reference.forward_chain(u0, sch, seed=8, dtype=dtype)
    assert chain.dtype == ref.dtype == dtype
    assert chain.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("peclet", [0.0, 0.1])
def test_the_sink_sees_every_snapshot_of_the_chain(peclet, dtype):
    # two leading zero-step levels: the sink sees u0 three times
    sch = DiffusionSchedule.from_levels(
        [0.0, 0.0] + [sigma_to_fo(s, 16) for s in (0.7, 1.5, 1.5)], 16.0,
        peclet=peclet)
    u0 = np.stack([_field(40), _field(41)])
    seen = []
    assert forward_chain(u0, sch, 9, dtype=dtype,
                         sink=lambda snap: seen.append(snap.copy())) is None
    chain = forward_chain(u0, sch, 9, dtype=dtype).snapshots
    assert len(seen) == sch.chain_length + 1 == chain.shape[0]
    assert all(snap.dtype == dtype for snap in seen)
    assert np.stack(seen).tobytes() == chain.tobytes()


def test_a_streamed_still_chain_holds_no_table_and_no_chain():
    # 17 snapshots of 128x128 float64 are 2.2 MB, a 9x128x128 table 1.2 MB
    u0 = _field(42, n=128)
    sch = _schedule(n=128, sigmas=np.geomspace(0.5, 32.0, 16))
    payload = 17 * u0.nbytes
    populations = 2 * 9 * u0.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        forward_chain(u0, sch, 0, sink=lambda snap: None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < populations + payload / 4


def _count_factor_builds(monkeypatch):
    builds = []
    real = lattice.velocity_factor

    def counting(vx, vy, out=None):
        builds.append(1)
        return real(vx, vy, out)

    monkeypatch.setattr(lattice, "velocity_factor", counting)
    return builds


def test_a_still_chain_builds_no_velocity_factor(monkeypatch):
    builds = _count_factor_builds(monkeypatch)
    sch = _schedule(sigmas=(0.5, 1.0, 1.0, 1.0, 2.0))
    assert sch.lattice_steps == 13
    forward_chain(np.stack([_field(9), _field(10)]), sch, seed=0)
    assert builds == []


def test_a_moving_chain_builds_one_factor_per_fetched_field(monkeypatch):
    # step 0 collides with no flow and builds no factor; each of the other
    # steps collides with the field fetched the step before, a new object
    # every time
    builds = _count_factor_builds(monkeypatch)
    sch = _schedule(sigmas=(0.5, 1.0, 1.0, 1.0, 2.0), peclet=0.1)
    assert sch.lattice_steps == 14
    forward_chain(_field(9), sch, seed=0)
    assert len(builds) == 13


def _count_phases(monkeypatch):
    """Counters on the three lattice phases, installed at the module
    attributes the way an outside-in tracer installs its spans; each call
    records the nodes its state covers."""
    calls = {name: [] for name in ("stream", "collide", "apply_bounce_back")}
    for name, seen in calls.items():
        real = getattr(lattice, name)

        def counting(state, *args, _real=real, _seen=seen):
            _seen.append(state.f.size // 9)
            return _real(state, *args)

        monkeypatch.setattr(lattice, name, counting)
    return calls


@pytest.mark.parametrize("peclet", [0.0, 0.1])
def test_each_lattice_step_calls_each_phase_once(monkeypatch, peclet):
    calls = _count_phases(monkeypatch)
    state = lattice.init_from_image(np.stack([_field(11), _field(12)]))
    lattice.solver_step(state, lambda step: None, 0.8, 0)
    assert calls == {name: [2 * 16 * 16] for name in calls}

    for seen in calls.values():
        seen.clear()
    # a ladder with a zero-step level: one collide per lattice step
    sch = _schedule(sigmas=(0.5, 1.0, 1.0, 2.0), peclet=peclet)
    forward_chain(_field(9), sch, seed=0, sink=lambda snap: None)
    assert calls == {name: [16 * 16] * sch.lattice_steps for name in calls}


@pytest.mark.parametrize("peclet", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("parts", [1, 2], ids=["one part", "partner"])
def test_a_chain_is_linear_in_its_field(cpus, parts, peclet):
    # with the seed, the ladder and so the flow fixed, no step depends on u:
    # collide is linear in the populations, and walls and pulls are copies
    if parts == 2 and not hasattr(os, "fork"):
        pytest.skip("the partner is forked")
    n, cap = (32, 1e-3) if parts == 1 else (192, 5e-4)
    forks = cpus(parts)
    ladder = (sigma_to_fo(0.5, n), sigma_to_fo(2.0, n), 4, float(n))
    sch = DiffusionSchedule.build(*ladder, peclet=peclet, cap=cap)
    if peclet == 1.0:  # the Pe term, not the diffusion, sets the steps
        assert sch.lattice_steps > DiffusionSchedule.build(
            *ladder, cap=cap).lattice_steps
    x, y = _field(31, n, -1.0, 2.0), _field(32, n)
    mixed = 0.7 * x - 1.3 * y
    got = forward_chain(mixed, sch, 5).snapshots
    want = (0.7 * forward_chain(x, sch, 5).snapshots
            - 1.3 * forward_chain(y, sch, 5).snapshots)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(mixed).max()
    assert len(forks) == 3 * (parts - 1)


def test_channels_share_the_velocity_field():
    sch = _schedule(peclet=0.2)
    u0 = np.stack([_field(5), _field(5), _field(5)])
    chain = forward_chain(u0, sch, seed=1)
    assert chain.snapshots.shape == (4, 3, 16, 16)
    # identical channels stay identical only if they saw the same flow
    assert np.array_equal(chain.snapshots[-1, 0], chain.snapshots[-1, 1])
    assert np.array_equal(chain.snapshots[-1, 0], chain.snapshots[-1, 2])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_channels_step_like_separate_chains(dtype):
    # distinct channels: a roll or a reduction along the channel axis of
    # the one lattice state would mix them
    sch = _schedule(peclet=0.2)
    u0 = np.stack([_field(10), _field(11), _field(12)])
    together = forward_chain(u0, sch, seed=4, dtype=dtype).snapshots
    apart = np.concatenate(
        [forward_chain(u0[c:c + 1], sch, seed=4, dtype=dtype).snapshots
         for c in range(3)], axis=1)
    assert together.dtype == apart.dtype == dtype
    assert together.tobytes() == apart.tobytes()


def test_turbulent_chain_needs_a_square_grid():
    sch = DiffusionSchedule.from_levels([sigma_to_fo(1.0, 16.0)], 16.0,
                                        peclet=0.5)
    with pytest.raises(ValidationError):
        forward_chain(np.full((16, 12), 0.5), sch, seed=0)
    # pure diffusion has no such restriction
    calm = DiffusionSchedule.from_levels([sigma_to_fo(1.0, 16.0)], 16.0)
    chain = forward_chain(np.full((16, 12), 0.5), calm, seed=0)
    assert chain.snapshots.shape[-2:] == (16, 12)


def test_float32_chain_keeps_dtype():
    chain = forward_chain(_field(6), _schedule(), seed=0, dtype=np.float32)
    assert chain.snapshots.dtype == np.float32


def test_snapshot_0_is_the_input_cast_to_the_chain_dtype():
    u0 = _field(6)
    f64 = forward_chain(u0, _schedule(), seed=0).snapshots[0, 0]
    assert f64.tobytes() == u0.tobytes()
    f32 = forward_chain(u0, _schedule(), seed=0,
                        dtype=np.float32).snapshots[0, 0]
    assert f32.tobytes() == u0.astype(np.float32).tobytes()
    assert not np.array_equal(f32, u0)  # the cast is not a no-op


def test_mass_is_conserved_along_the_chain():
    sch = _schedule(n=24, sigmas=(0.5, 1.5, 3.0), peclet=0.1)
    chain = forward_chain(_field(7, 24), sch, seed=2)
    totals = chain.snapshots.sum(axis=(2, 3))[:, 0]
    assert np.max(np.abs(totals - totals[0]) / totals[0]) < 1e-12


def test_training_noise_is_reproducible_and_optional():
    u = _field(8)
    r1 = CounterRng(42, 0)
    r2 = CounterRng(42, 0)
    a = add_training_noise(u, 0.01, r1)
    b = add_training_noise(u, 0.01, r2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, u)
    # sigma 0 is the identity but still advances the stream
    r3 = CounterRng(42, 0)
    c = add_training_noise(u, 0.0, r3)
    assert np.array_equal(c, u)
    assert r3.position == r1.position
    with pytest.raises(ValidationError):
        add_training_noise(u, -0.01, CounterRng(0, 0))


def test_training_pair_telescopes_back():
    chain = forward_chain(_field(9), _schedule(), seed=0)
    for k in (1, 2, 3):
        u_hat, delta = make_training_pair(chain, k, NoiseParams(),
                                          CounterRng(5, 0))
        # fields live well inside [0.25, 0.75], so the correction is exact
        assert np.array_equal(u_hat + delta, chain.snapshots[k - 1])
    with pytest.raises(IndexError):
        make_training_pair(chain, 0, NoiseParams(), CounterRng(5, 0))
    with pytest.raises(IndexError):
        make_training_pair(chain, 4, NoiseParams(), CounterRng(5, 0))


def test_regression_loss_frozen_and_validated():
    pred = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert regression_loss(pred, np.zeros((2, 2))) == 30.0
    assert regression_loss(pred, pred) == 0.0
    with pytest.raises(ShapeMismatchError):
        regression_loss(pred, np.zeros(4))


def _write_pgm(path, seed, n=12):
    io.write_image(path, _field(seed, n)[None], maxval=255)


def test_precompute_dataset_writes_chains_and_manifest(tmp_path):
    src = tmp_path / "in"
    out = tmp_path / "out"
    src.mkdir()
    _write_pgm(src / "b.pgm", 11)
    _write_pgm(src / "a.pgm", 12)
    (src / "broken.pgm").write_bytes(b"P5\n4 4\n255\nxx")
    sch = _schedule(n=12, sigmas=(0.5, 1.0))
    result = precompute_dataset(src, out, sch, seed=3)
    assert sorted(p.name for p in out.glob("*_chain.adet")) == [
        "a_chain.adet", "b_chain.adet"]
    assert list(result["errors"]) == ["broken.pgm"]
    chain = io.read_tensor(out / "a_chain.adet")
    assert chain.shape == (3, 1, 12, 12)
    # the report carries what a manifest needs; writing one is the CLI's job
    assert result["written"] == {
        name: io.file_sha256(out / name)
        for name in ("a_chain.adet", "b_chain.adet")}
    assert not (out / "manifest.txt").exists()


def test_precompute_rejects_mismatched_shapes(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    _write_pgm(src / "a.pgm", 31, n=12)
    _write_pgm(src / "b.pgm", 32, n=10)
    sch = _schedule(n=12, sigmas=(0.5,))
    result = precompute_dataset(src, tmp_path / "out", sch, seed=0)
    assert list(result["written"]) == ["a_chain.adet"]
    assert "b.pgm" in result["errors"]


def test_precompute_lets_a_programming_error_escape(tmp_path, monkeypatch):
    src = tmp_path / "in"
    src.mkdir()
    _write_pgm(src / "a.pgm", 33)

    def broken(path):
        raise TypeError("not an image error")

    monkeypatch.setattr(io, "read_image", broken)
    with pytest.raises(TypeError, match="not an image error"):
        precompute_dataset(src, tmp_path / "out", _schedule(n=12), seed=0)


def test_a_chain_name_taken_by_an_earlier_image_is_an_error(tmp_path):
    src = tmp_path / "in"
    out = tmp_path / "out"
    src.mkdir()
    _write_pgm(src / "a.PGM", 41)
    _write_pgm(src / "a.pgm", 42)
    _write_pgm(src / "b.pgm", 43)
    result = precompute_dataset(src, out, _schedule(n=12), seed=0)
    assert list(result["written"]) == ["a_chain.adet", "b_chain.adet"]
    assert result["errors"] == {
        "a.pgm": "chain name a_chain.adet already taken by a.PGM"}
    chain = io.read_tensor(out / "a_chain.adet")
    assert np.array_equal(chain[0], io.read_image(src / "a.PGM")[0])
    assert sorted(p.name for p in out.iterdir()) == [
        "a_chain.adet", "b_chain.adet"]


def test_a_chain_name_freed_by_an_unreadable_image_is_written(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    (src / "a.PGM").write_bytes(b"not an image")
    _write_pgm(src / "a.pgm", 44)
    result = precompute_dataset(src, tmp_path / "out", _schedule(n=12),
                                seed=0)
    assert list(result["written"]) == ["a_chain.adet"]
    assert list(result["errors"]) == ["a.PGM"]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _wait_for(ready, seconds=60.0):
    deadline = time.monotonic() + seconds
    while not ready():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("peclet", [0.0, 0.1])
def test_the_worker_count_changes_no_byte_and_no_report(tmp_path, cpus,
                                                        peclet, dtype):
    src = tmp_path / "in"
    src.mkdir()
    for i, name in enumerate(("a.pgm", "c.pgm", "e.pgm")):
        _write_pgm(src / name, 50 + i)
    (src / "b.pgm").write_bytes(b"P5\n4 4\n255\nxx")
    _write_pgm(src / "d.pgm", 55, n=10)
    sch = _schedule(n=12, peclet=peclet)
    runs = {}
    for count in (1, 2, 3):
        forks = cpus(count)
        out = tmp_path / f"out{count}"
        report = precompute_dataset(src, out, sch, seed=9, dtype=dtype)
        assert len(forks) == count - 1  # this process runs images too
        _no_child_left()
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        runs[count] = (report, list(report["written"]),
                       list(report["errors"]), files)
    assert runs[1][1] == ["a_chain.adet", "c_chain.adet", "e_chain.adet"]
    assert runs[1][2] == ["b.pgm", "d.pgm"]
    assert sorted(runs[1][3]) == runs[1][1]
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]


def test_buffered_output_is_printed_once_across_the_fork(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    for i, name in enumerate(("a.pgm", "b.pgm", "c.pgm")):
        _write_pgm(src / name, 60 + i)
    script = (
        "import sys\n"
        "from ade import corruption, procs\n"
        "from ade.schedule import DiffusionSchedule, sigma_to_fo\n"
        "procs._cpus = lambda: 3\n"
        "print('before the pool')\n"
        "sch = DiffusionSchedule.from_levels([sigma_to_fo(0.5, 12)], 12.0)\n"
        "report = corruption.precompute_dataset(sys.argv[1], sys.argv[2],\n"
        "                                       sch, seed=0)\n"
        "print(len(report['written']))\n")
    # a piped stdout is block-buffered unless PYTHONUNBUFFERED is set
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="")
    proc = subprocess.run([sys.executable, "-c", script, str(src),
                           str(tmp_path / "out")], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "before the pool\n3\n"


def test_a_child_killed_mid_image_costs_time_not_bytes(tmp_path,
                                                       monkeypatch, cpus):
    src = tmp_path / "in"
    src.mkdir()
    for i, name in enumerate(("a.pgm", "b.pgm", "c.pgm")):
        _write_pgm(src / name, 70 + i)
    sch = _schedule(n=12, peclet=0.1)
    cpus(1)
    alone = precompute_dataset(src, tmp_path / "alone", sch, seed=0)
    parent = os.getpid()
    killed = tmp_path / "killed"
    real = io.TensorWriter.append

    def append(self, row):
        if os.getpid() != parent:  # the child dies at its first snapshot
            killed.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        _wait_for(killed.exists)
        real(self, row)
    monkeypatch.setattr(io.TensorWriter, "append", append)
    forks = cpus(2)
    out = tmp_path / "out"
    assert precompute_dataset(src, out, sch, seed=0) == alone
    assert len(forks) == 1 and killed.exists()
    _no_child_left()
    assert list(out.glob(".stage-*")) == []
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {
        p.name: p.read_bytes() for p in (tmp_path / "alone").iterdir()}


def test_a_job_that_fails_in_a_child_fails_the_run_at_its_image(
        tmp_path, monkeypatch, cpus):
    src = tmp_path / "in"
    src.mkdir()
    names = ["a.pgm", "b.pgm", "c.pgm", "d.pgm"]
    for i, name in enumerate(names):
        _write_pgm(src / name, 75 + i)
    parent = os.getpid()
    doomed = tmp_path / "doomed"
    doomed.mkdir()
    real = corruption._chain_image

    def chain_image(job, **kwargs):
        # the first image a child takes fails in every process
        if os.getpid() != parent and not any(doomed.iterdir()):
            (doomed / job[1]).touch()
        _wait_for(lambda: any(doomed.iterdir()))
        if (doomed / job[1]).exists():
            raise OSError(f"disk full at {job[1]}")
        return real(job, **kwargs)
    monkeypatch.setattr(corruption, "_chain_image", chain_image)
    forks = cpus(2)
    out = tmp_path / "out"
    with pytest.raises(OSError, match="disk full at"):
        precompute_dataset(src, out, _schedule(n=12), seed=0)
    assert len(forks) == 1
    _no_child_left()
    [failed] = [p.name for p in doomed.iterdir()]
    before = names[:names.index(failed)]
    assert sorted(p.name for p in out.iterdir()) == [
        n.replace(".pgm", "_chain.adet") for n in before]


def test_the_parent_runs_every_image_it_can_claim(tmp_path, monkeypatch,
                                                  cpus):
    src = tmp_path / "in"
    src.mkdir()
    for i in range(6):
        _write_pgm(src / f"{i}.pgm", 80 + i)
    parent = os.getpid()
    log = tmp_path / "log"
    slow = tmp_path / "slow"
    real = corruption._chain_image

    def chain_image(job, **kwargs):
        with open(log, "a") as f:
            f.write(f"{job[0]} {os.getpid()}\n")
        if os.getpid() != parent and not slow.exists():
            slow.touch()  # the child's first image takes a second
            time.sleep(1.0)
        _wait_for(slow.exists)
        return real(job, **kwargs)
    monkeypatch.setattr(corruption, "_chain_image", chain_image)
    cpus(2)
    report = precompute_dataset(src, tmp_path / "out", _schedule(n=12),
                                seed=0)
    assert len(report["written"]) == 6
    runs = [line.split() for line in log.read_text().splitlines()]
    assert sorted(int(i) for i, _ in runs) == list(range(6))  # each once
    assert len([pid for _, pid in runs if int(pid) != parent]) == 1
