import os
import sys
import threading
import time

import numpy as np
import pytest

from ade import io
from ade import rng as ade_rng
from ade.corruption import CorruptionChain, NoiseParams, forward_chain
from ade.errors import (PredictorTimeoutError, ShapeMismatchError,
                        ValidationError)
from ade.reverse import (ExternPredictor, OraclePredictor, ZeroPredictor,
                         interpolate_priors, interpolate_sample, sample, slerp)
from ade.rng import CounterRng
from ade.schedule import DiffusionSchedule, sigma_to_fo


def _chain(seed, n=16, peclet=0.1, chain_seed=0):
    u0 = 0.25 + 0.5 * CounterRng(seed, 0).uniforms(n * n).reshape(n, n)
    sch = DiffusionSchedule.from_levels(
        [sigma_to_fo(s, n) for s in (0.5, 1.0, 2.0)], float(n),
        peclet=peclet)
    return forward_chain(u0, sch, seed=chain_seed)


def test_oracle_walk_recovers_the_clean_field_exactly():
    chain = _chain(1)
    sigma = NoiseParams().sigma_sample
    out = sample(chain.prior, OraclePredictor(chain), chain.chain_length,
                 sigma, CounterRng(3, 0))
    assert np.array_equal(out, chain.clean)


def test_recorded_trajectory_brackets_the_walk():
    chain = _chain(2)
    states = []
    out = sample(chain.prior, OraclePredictor(chain), chain.chain_length,
                 0.008, CounterRng(4, 0), sink=states.append)
    traj = np.stack(states)
    assert traj.shape == (4,) + chain.prior.shape
    assert np.array_equal(traj[0], chain.prior)
    assert np.array_equal(traj[-1], out)


def _recorded_walk_reference(prior, predictor, steps, sigma, rng):
    """Reference walk: a copy of each state in a list, stacked at the end."""
    u = np.array(prior, dtype=np.float64, copy=True)
    rows = [u.copy()]
    for k in range(steps, 0, -1):
        u_hat = u + sigma * rng.normal_field(u.shape)
        u = u_hat + predictor.predict(u_hat, k)
        rows.append(u.copy())
    return u, np.stack(rows)


class _HalfOracle(OraclePredictor):
    """Half the exact correction, so the walk never lands on a snapshot."""

    def predict(self, u_hat, k):
        return 0.5 * super().predict(u_hat, k)


@pytest.mark.parametrize("sigma", [0.0, 0.008, 0.3])
def test_recorded_walk_matches_the_reference_bitwise(sigma):
    chain = _chain(6, peclet=0.2)
    for pred in (OraclePredictor(chain), _HalfOracle(chain)):
        states = []
        out = sample(chain.prior, pred, chain.chain_length, sigma,
                     CounterRng(9, 0), sink=states.append)
        ref_out, ref_traj = _recorded_walk_reference(
            chain.prior, pred, chain.chain_length, sigma, CounterRng(9, 0))
        assert out.tobytes() == ref_out.tobytes()
        assert np.stack(states).tobytes() == ref_traj.tobytes()
        plain = sample(chain.prior, pred, chain.chain_length, sigma,
                       CounterRng(9, 0))
        assert plain.tobytes() == ref_out.tobytes()


def test_zero_predictor_without_noise_returns_the_prior():
    chain = _chain(3)
    out = sample(chain.prior, ZeroPredictor(), chain.chain_length, 0.0,
                 CounterRng(5, 0))
    assert np.array_equal(out, chain.prior)


def test_sample_is_deterministic_in_the_rng():
    chain = _chain(4)
    a = sample(chain.prior, ZeroPredictor(), 3, 0.01, CounterRng(6, 0))
    b = sample(chain.prior, ZeroPredictor(), 3, 0.01, CounterRng(6, 0))
    c = sample(chain.prior, ZeroPredictor(), 3, 0.01, CounterRng(7, 0))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_validation():
    chain = _chain(5)
    with pytest.raises(ValidationError):
        sample(chain.prior, ZeroPredictor(), 0, 0.01, CounterRng(0, 0))
    with pytest.raises(ValidationError):
        sample(chain.prior, ZeroPredictor(), 2, -0.01, CounterRng(0, 0))

    class Wrong:
        def predict(self, u_hat, k):
            return np.zeros((2, 2))

    with pytest.raises(ShapeMismatchError):
        sample(chain.prior, Wrong(), 2, 0.0, CounterRng(0, 0))


def test_the_sink_sees_every_state_the_recorded_walk_keeps():
    chain = _chain(7)
    states, copies = [], []

    def keep(state):
        states.append(state)
        copies.append(state.copy())

    out = sample(chain.prior, _HalfOracle(chain), chain.chain_length, 0.01,
                 CounterRng(2, 0), sink=keep)
    # states are never written after they are handed on, so kept ones hold
    assert np.stack(states).tobytes() == np.stack(copies).tobytes()
    assert len(states) == chain.chain_length + 1
    assert states[-1] is out


def test_slerp_endpoints_are_exact():
    a = CounterRng(8, 0).normal_field((6, 6))
    b = CounterRng(8, 1).normal_field((6, 6))
    assert np.array_equal(slerp(a, b, 0.0), a)
    assert np.array_equal(slerp(a, b, 1.0), b)


def test_slerp_preserves_the_norm_of_unit_fields():
    a = CounterRng(9, 0).normal_field((8, 8))
    b = CounterRng(9, 1).normal_field((8, 8))
    a /= np.sqrt(np.sum(a * a))
    b /= np.sqrt(np.sum(b * b))
    for t in (0.25, 0.5, 0.75):
        out = slerp(a, b, t)
        assert np.sqrt(np.sum(out * out)) == pytest.approx(1.0, rel=1e-12)


def test_slerp_parallel_fallback_is_linear():
    a = CounterRng(10, 0).normal_field((5, 5))
    b = a * (1.0 + 1e-12)
    out = slerp(a, b, 0.3)
    assert np.array_equal(out, 0.7 * a + 0.3 * b)
    with pytest.raises(ValidationError):
        slerp(np.zeros((3, 3)), a[:3, :3], 0.5)


def test_prior_interpolation_is_linear_and_bounded():
    ca, cb = _chain(11, chain_seed=0), _chain(12, chain_seed=1)
    assert np.array_equal(interpolate_priors(ca, cb, 0.0), ca.prior)
    assert np.array_equal(interpolate_priors(ca, cb, 1.0), cb.prior)
    mid = interpolate_priors(ca, cb, 0.5)
    assert np.array_equal(mid, 0.5 * ca.prior + 0.5 * cb.prior)
    with pytest.raises(ValidationError):
        interpolate_priors(ca, cb, 1.5)


def test_interpolated_walk_matches_plain_walks_at_the_ends():
    ca, cb = _chain(13, chain_seed=0), _chain(14, chain_seed=1)
    sigma = 0.008
    grid = interpolate_sample(ca, cb, ZeroPredictor(), [0.0, 0.5, 1.0],
                              sigma, seed_a=21, seed_b=22)
    assert grid.shape == (3,) + ca.prior.shape
    plain_a = sample(ca.prior, ZeroPredictor(), ca.chain_length, sigma,
                     CounterRng(21, 0))
    plain_b = sample(cb.prior, ZeroPredictor(), cb.chain_length, sigma,
                     CounterRng(22, 0))
    assert np.array_equal(grid[0], plain_a)
    assert np.array_equal(grid[2], plain_b)
    assert not np.array_equal(grid[1], plain_a)


def test_interpolated_walk_needs_a_lambda():
    ca, cb = _chain(13, chain_seed=0), _chain(14, chain_seed=1)
    for lambdas in ([], (), iter([])):
        with pytest.raises(ValidationError, match="at least one lambda"):
            interpolate_sample(ca, cb, ZeroPredictor(), lambdas, 0.008,
                               seed_a=21, seed_b=22)


def _reference_interpolate_sample(chain_a, chain_b, predictor, lambdas,
                                  sigma_sample, seed_a, seed_b):
    """The interpolated walk as its own double loop over lambdas and k."""
    outputs = []
    for lam in lambdas:
        u = interpolate_priors(chain_a, chain_b, float(lam)).astype(
            np.float64)
        rng_a = CounterRng(seed_a, 0)
        rng_b = CounterRng(seed_b, 0)
        for k in range(chain_a.chain_length, 0, -1):
            z_a = rng_a.normal_field(u.shape)
            z_b = rng_b.normal_field(u.shape)
            u_hat = u + sigma_sample * slerp(z_a, z_b, float(lam))
            u = u_hat + np.asarray(predictor.predict(u_hat, k),
                                   dtype=np.float64)
        outputs.append(u)
    return np.stack(outputs)


@pytest.mark.parametrize("oracle", [False, True])
def test_interpolated_walk_matches_the_double_loop_bitwise(oracle):
    ca, cb = _chain(13, chain_seed=0), _chain(14, chain_seed=1)
    predictor = OraclePredictor(ca) if oracle else ZeroPredictor()
    lambdas = [0.3, 0.5, 0.7]
    grid = interpolate_sample(ca, cb, predictor, lambdas, 0.008,
                              seed_a=21, seed_b=22)
    ref = _reference_interpolate_sample(ca, cb, predictor, lambdas, 0.008,
                                        21, 22)
    assert grid.tobytes() == ref.tobytes()


def test_an_interpolated_walk_keeps_one_helper_per_seed(monkeypatch, cpus):
    # each seed's rng draws in its own `ahead` scope for the whole walk,
    # not in a scope per draw: 2 threads, not 2 per step
    cpus(2)
    ca, cb = (_odd_chain((3, 256, 256), steps=4, seed=s) for s in (41, 42))
    starts = []
    real = threading.Thread.start

    def start(thread):
        starts.append(thread)
        real(thread)
    monkeypatch.setattr(threading.Thread, "start", start)
    grid = interpolate_sample(ca, cb, OraclePredictor(ca), [0.4], 0.008,
                              seed_a=21, seed_b=22)
    assert 1 <= len(starts) <= 2
    assert not any(thread.is_alive() for thread in starts)
    ref = _reference_interpolate_sample(ca, cb, OraclePredictor(ca), [0.4],
                                        0.008, 21, 22)
    assert grid.tobytes() == ref.tobytes()


def _respond_like_oracle(directory, chain, steps, stop):
    """Play the external partner: answer each input with the oracle delta."""
    for k in range(steps, 0, -1):
        src = directory / f"step_{k}_input.adet"
        deadline = time.monotonic() + 20.0
        while not src.exists():
            if stop.is_set() or time.monotonic() > deadline:
                return
            time.sleep(0.002)
        u_hat = None
        while u_hat is None:
            try:
                u_hat = io.read_tensor(src)
            except Exception:
                time.sleep(0.002)
        io.write_tensor(directory / f"step_{k}_delta.adet",
                        chain.snapshots[k - 1] - u_hat)


def test_extern_predictor_round_trip(tmp_path):
    chain = _chain(15)
    steps = chain.chain_length
    stop = threading.Event()
    partner = threading.Thread(
        target=_respond_like_oracle, args=(tmp_path, chain, steps, stop))
    partner.start()
    try:
        out = sample(chain.prior, ExternPredictor(tmp_path, timeout=20.0),
                     steps, 0.008, CounterRng(30, 0))
    finally:
        stop.set()
        partner.join()
    reference = sample(chain.prior, OraclePredictor(chain), steps, 0.008,
                       CounterRng(30, 0))
    assert np.array_equal(out, reference)
    assert np.array_equal(out, chain.clean)
    # the handshake leaves both sides of the conversation on disk
    assert (tmp_path / "step_1_input.adet").exists()
    assert (tmp_path / "step_1_delta.adet").exists()


def test_extern_predictor_times_out_without_a_partner(tmp_path):
    pred = ExternPredictor(tmp_path, timeout=0.05, poll_interval=0.01)
    with pytest.raises(PredictorTimeoutError):
        pred.predict(np.zeros((4, 4)), 1)


def test_extern_predictor_ignores_a_stale_answer(tmp_path):
    # an answer left by an earlier run in the same directory
    io.write_tensor(tmp_path / "step_1_delta.adet", np.ones((4, 4)))
    pred = ExternPredictor(tmp_path, timeout=0.05, poll_interval=0.01)
    with pytest.raises(PredictorTimeoutError):
        pred.predict(np.zeros((4, 4)), 1)


def test_extern_predictor_lets_a_programming_error_escape(tmp_path,
                                                          monkeypatch):
    real_write = io.write_tensor

    def write_and_answer(path, array):
        real_write(path, array)  # the input, then the partner's answer
        real_write(tmp_path / "step_1_delta.adet", np.zeros((4, 4)))

    def broken_read(path):
        raise TypeError("not a half-written file")

    monkeypatch.setattr(io, "write_tensor", write_and_answer)
    monkeypatch.setattr(io, "read_tensor", broken_read)
    pred = ExternPredictor(tmp_path, timeout=5.0, poll_interval=0.01)
    start = time.monotonic()
    with pytest.raises(TypeError, match="not a half-written file"):
        pred.predict(np.zeros((4, 4)), 1)
    assert time.monotonic() - start < 2.0  # at once, not at the timeout


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("name", ["timeout", "poll_interval"])
def test_extern_predictor_needs_a_positive_wait(tmp_path, name, value):
    with pytest.raises(ValidationError, match=f"{name} must be > 0"):
        ExternPredictor(tmp_path / "ext", **{name: value})
    assert not (tmp_path / "ext").exists()


_REAL_TAKE = ade_rng._Ahead.take


def _split(monkeypatch, cpus, on, chunk=7):
    """Force the helper thread of each normal draw on (whatever the CPU
    count) or off, with draws cut in chunks of `chunk` pairs so that small
    fields have many; return the list of the pair counts of the draws
    shared with the helper."""
    monkeypatch.setattr(ade_rng, "_SPLIT_MIN_VALUES", 0 if on else 1 << 62)
    monkeypatch.setattr(ade_rng, "_CHUNK", chunk)
    if on:
        cpus(2)
    split = []

    def spy(ahead, start, m):
        split.append(m)
        return _REAL_TAKE(ahead, start, m)
    monkeypatch.setattr(ade_rng._Ahead, "take", spy)
    return split


def _odd_chain(shape, steps=5, seed=40):
    rows = CounterRng(seed, 0).uniforms((steps + 1) * int(np.prod(shape)))
    return CorruptionChain(rows.reshape((steps + 1,) + shape))


@pytest.mark.parametrize("shape", [(3, 7, 9), (1, 1, 1), (2, 5, 6),
                                   (1, 33, 31)])
@pytest.mark.parametrize("sigma", [0.0, 0.008])
@pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "zero"])
def test_the_helper_process_changes_no_byte(monkeypatch, cpus, shape, sigma,
                                            oracle):
    # the helper: the walk's thread that shares each draw's chunks and
    # computes the next draw ahead
    chain = _odd_chain(shape)
    pred = OraclePredictor(chain) if oracle else ZeroPredictor()
    m = (int(np.prod(shape)) + 1) // 2
    runs = []
    for on in (False, True):
        threads = threading.active_count()
        split = _split(monkeypatch, cpus, on)
        rng, states = CounterRng(12, 0, position=3), []
        out = sample(chain.prior, pred, chain.chain_length, sigma, rng,
                     sink=states.append)
        assert split == [m] * chain.chain_length * on
        runs.append((np.stack(states).tobytes(), out.tobytes(),
                     rng.position))
        assert threading.active_count() == threads  # the helper joined
    assert runs[1] == runs[0]


def test_a_failed_walk_leaves_no_helper(monkeypatch, cpus):
    chain = _odd_chain((2, 9, 9))
    threads = threading.active_count()
    split = _split(monkeypatch, cpus, True)

    class WrongAtStep3(OraclePredictor):
        def predict(self, u_hat, k):
            return np.zeros((2, 2)) if k == 3 else super().predict(u_hat, k)

    with pytest.raises(ShapeMismatchError):
        sample(chain.prior, WrongAtStep3(chain), 5, 0.008, CounterRng(1, 0))
    assert split == [81] * 3  # steps 5, 4 and 3 drew their noise
    assert threading.active_count() == threads


def test_an_error_in_the_second_half_reaches_the_caller(monkeypatch, cpus):
    # every chunk past the first fails, whichever thread computes it
    threads = threading.active_count()
    split = _split(monkeypatch, cpus, True)
    real = CounterRng._pairs

    def pairs(rng, start, m, lo, hi, out, scratch=None):
        if lo > 0:
            raise FloatingPointError("past the first chunk")
        real(rng, start, m, lo, hi, out, scratch)
    monkeypatch.setattr(CounterRng, "_pairs", pairs)
    rng = CounterRng(3, 0)
    with pytest.raises(FloatingPointError, match="past the first chunk"):
        rng.normals(1001)
    assert split == [501]
    assert rng.position == 0  # a failed draw consumes no word
    assert threading.active_count() == threads


def test_a_split_walk_forks_no_process(monkeypatch, cpus):
    chain = _odd_chain((3, 11, 13), steps=6)
    _split(monkeypatch, cpus, False)
    plain = sample(chain.prior, _HalfOracle(chain), 6, 0.008,
                   CounterRng(2, 0))
    split = _split(monkeypatch, cpus, True)

    def fork():
        raise AssertionError("the walk forked")
    monkeypatch.setattr(os, "fork", fork)
    rng = CounterRng(2, 0)
    out = sample(chain.prior, _HalfOracle(chain), 6, 0.008, rng)
    assert out.tobytes() == plain.tobytes()
    assert split == [215] * 6
    assert rng.position == 6 * 430  # six draws of 215 pairs


def test_no_helper_beside_another_thread_or_on_one_cpu(monkeypatch, cpus):
    # beside another thread, draws now split, with the same bytes; on one
    # CPU no thread starts
    chain = _odd_chain((1, 6, 6))
    _split(monkeypatch, cpus, False)
    plain = sample(chain.prior, ZeroPredictor(), 5, 0.008, CounterRng(1, 0))
    split = _split(monkeypatch, cpus, True)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30.0,))
    other.start()
    try:
        out = sample(chain.prior, ZeroPredictor(), 5, 0.008,
                     CounterRng(1, 0))
    finally:
        release.set()
        other.join(30.0)
    assert not other.is_alive()
    assert out.tobytes() == plain.tobytes()
    assert split == [18] * 5
    cpus(1)
    monkeypatch.setattr(threading, "Thread", None)  # starting one fails
    out = sample(chain.prior, ZeroPredictor(), 5, 0.008, CounterRng(1, 0))
    assert out.tobytes() == plain.tobytes()
    assert split == [18] * 5


def test_a_failed_walk_joins_its_helper_and_counts_only_the_draws_taken(
        monkeypatch, cpus):
    chain = _odd_chain((2, 9, 9))
    threads = threading.active_count()
    split = _split(monkeypatch, cpus, True)
    during = []

    def sink_failing_at_step_2(state):
        during.append(threading.active_count())
        if len(during) == 3:  # the prior, then steps 1 and 2
            raise OSError("disk full")

    rng = CounterRng(1, 0, position=5)
    with pytest.raises(OSError, match="disk full"):
        sample(chain.prior, OraclePredictor(chain), 5, 0.008, rng,
               sink=sink_failing_at_step_2)
    assert during[1:] == [threads + 1] * 2  # one helper for the walk
    assert split == [81] * 2
    assert rng.position == 5 + 2 * 162
    assert threading.active_count() == threads

    class WrongAtStep3(OraclePredictor):
        def predict(self, u_hat, k):
            return np.zeros((2, 2)) if k == 3 else super().predict(u_hat, k)

    rng = CounterRng(1, 0)
    with pytest.raises(ShapeMismatchError):
        sample(chain.prior, WrongAtStep3(chain), 5, 0.008, rng)
    assert rng.position == 3 * 162  # steps 5, 4 and 3 drew their noise
    assert threading.active_count() == threads


def test_the_helper_computes_no_draw_past_the_walk(monkeypatch, cpus):
    chain = _odd_chain((3, 11, 13), steps=6)
    split = _split(monkeypatch, cpus, True)
    real, starts = CounterRng._pairs, set()

    def pairs(rng, start, m, lo, hi, out, scratch=None):
        starts.add(start)
        real(rng, start, m, lo, hi, out, scratch)
    monkeypatch.setattr(CounterRng, "_pairs", pairs)
    rng = CounterRng(2, 0, position=11)
    sample(chain.prior, ZeroPredictor(), 6, 0.008, rng)
    assert split == [215] * 6
    assert rng.position == 11 + 6 * 430
    assert starts == {11 + 430 * i for i in range(6)}


class _RecordedRng(CounterRng):
    """A CounterRng that keeps a copy of each field it hands out."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fields = []

    def normal_field(self, shape):
        self.fields.append(super().normal_field(shape).copy())
        return self.fields[-1].copy()


def test_a_draw_at_a_moved_position_discards_the_one_computed_ahead(
        monkeypatch, cpus):
    chain = _odd_chain((1, 33, 31))
    split = _split(monkeypatch, cpus, True)
    rng = _RecordedRng(4, 1)

    class JumpAtStep3(ZeroPredictor):
        def predict(self, u_hat, k):
            if k == 3:  # after step 3's draw, before step 2's
                rng.position = 99_999
            return super().predict(u_hat, k)

    sample(chain.prior, JumpAtStep3(), 5, 0.008, rng)
    starts = [0, 1024, 2048, 99_999, 99_999 + 1024]
    assert split == [512] * 5
    for field, start in zip(rng.fields, starts, strict=True):
        fresh = CounterRng(4, 1, position=start).normal_field((1, 33, 31))
        assert field.tobytes() == fresh.tobytes(), start
    assert rng.position == 99_999 + 2 * 1024


def test_an_error_in_a_chunk_the_helper_computes_reaches_the_caller(
        monkeypatch, cpus):
    chain = _odd_chain((2, 9, 9))
    threads = threading.active_count()
    _split(monkeypatch, cpus, True)
    real, failed = CounterRng._pairs, threading.Event()

    def pairs(rng, start, m, lo, hi, out, scratch=None):
        if start > 0 and threading.current_thread() is not \
                threading.main_thread():
            failed.set()
            raise FloatingPointError("in the helper")
        real(rng, start, m, lo, hi, out, scratch)
    monkeypatch.setattr(CounterRng, "_pairs", pairs)

    class WaitForTheHelper(ZeroPredictor):
        def predict(self, u_hat, k):
            assert failed.wait(30.0)  # step 4's draw failed ahead
            return super().predict(u_hat, k)

    rng = CounterRng(3, 0)
    with pytest.raises(FloatingPointError, match="in the helper"):
        sample(chain.prior, WaitForTheHelper(), 5, 0.008, rng)
    assert rng.position == 162  # step 5's draw only
    assert threading.active_count() == threads


def test_walks_in_many_threads_keep_the_bits_of_one_thread(monkeypatch, cpus):
    # six walks at once, each with its own helper, on a short switch
    # interval: a chunk claimed twice or lost would change a byte
    chain = _odd_chain((2, 9, 9))
    _split(monkeypatch, cpus, False)
    expect = [sample(chain.prior, _HalfOracle(chain), 5, 0.3,
                     CounterRng(seed, 0)).tobytes() for seed in range(6)]
    _split(monkeypatch, cpus, True, chunk=3)
    got = [None] * len(expect)

    def walk(seed):
        got[seed] = sample(chain.prior, _HalfOracle(chain), 5, 0.3,
                           CounterRng(seed, 0)).tobytes()

    threads_before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=walk, args=(seed,))
                   for seed in range(len(expect))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expect
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_oracle_reuses_its_delta_buffer(tmp_path, dtype):
    chain = CorruptionChain(_chain(16).snapshots.astype(dtype))
    io.write_tensor(tmp_path / "chain.adet", chain.snapshots)
    u_hat = CounterRng(5, 0).normal_field(chain.prior.shape)
    with io.open_tensor(tmp_path / "chain.adet") as snaps:
        for source in (chain, CorruptionChain(snaps)):
            pred = OraclePredictor(source)
            first = pred.predict(u_hat, 3)
            assert first.tobytes() == (chain.snapshots[2] - u_hat).tobytes()
            again = pred.predict(u_hat, 1)
            assert again is first
            assert again.tobytes() == (chain.snapshots[0] - u_hat).tobytes()
