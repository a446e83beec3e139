import sys
import threading

import numpy as np
import pytest

from ade import rng as ade_rng
from ade.rng import CounterRng, derive_seed


def test_uniform_stream_is_frozen():
    # pinned outputs; any change to the mixing constants breaks replay
    r = CounterRng(0, 0)
    got = r.uniforms(3)
    assert got.tolist() == [0.6524484863740322, 0.7012121095215252,
                            0.3871241409757855]
    assert r.position == 3


def test_normals_are_frozen_and_consume_pairs():
    expect = [-0.7013069264063958, -0.46737460045109885,
              0.6018428174778429, -0.7010354453228734]
    r = CounterRng(0, 0)
    assert r.normals(4).tolist() == expect
    assert r.position == 4
    r = CounterRng(0, 0)
    # an odd request still burns the whole Box-Muller pair
    assert r.normals(3).tolist() == expect[:3]
    assert r.position == 4


def test_replay_from_saved_position():
    r = CounterRng(123, 7)
    first = r.uniforms(10)
    resumed = CounterRng(123, 7, position=4)
    assert resumed.uniforms(6).tolist() == first[4:].tolist()


def test_batch_size_does_not_change_the_stream():
    whole = CounterRng(9, 2).uniforms(32)
    r = CounterRng(9, 2)
    pieces = np.concatenate([r.uniforms(5), r.uniforms(1), r.uniforms(26)])
    assert pieces.tolist() == whole.tolist()


def test_streams_are_distinct():
    a = CounterRng(9, 0).uniforms(1000)
    b = CounterRng(9, 1).uniforms(1000)
    assert not np.any(a == b)


def test_uniforms_live_in_the_unit_interval():
    u = CounterRng(4, 2).uniforms(100000)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_normal_moments():
    z = CounterRng(5, 0).normals(200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert np.all(np.isfinite(z))


def test_normal_field_shape_and_determinism():
    a = CounterRng(6, 1).normal_field((3, 4, 5))
    b = CounterRng(6, 1).normal_field((3, 4, 5))
    assert a.shape == (3, 4, 5)
    assert a.tolist() == b.tolist()


def test_derive_seed_frozen_values():
    assert derive_seed(0) == 0
    assert derive_seed(7) == 7
    assert derive_seed(42, 3) == 6349198060258255764
    assert derive_seed(42, 3, 0) == 3676294358273406211
    assert derive_seed(42, 3) != derive_seed(42, 4)
    assert derive_seed(42, 3, 0) != derive_seed(42, 0, 3)


_U = np.uint64


def _formula_normals(seed, stream, position, n):
    """The Box-Muller draw as first written: m radius words, then m angle
    words, mixed by a functional splitmix64, cosines before sines."""
    base = _U(derive_seed(seed, stream))
    m = (n + 1) // 2

    def uniforms(first, offset):
        z = base + (np.arange(first, first + m, dtype=_U) + _U(1)) * _U(
            0x9E3779B97F4A7C15)
        z = (z ^ (z >> _U(30))) * _U(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U(27))) * _U(0x94D049BB133111EB)
        return ((z ^ (z >> _U(31))) >> _U(11)) + offset

    with np.errstate(over="ignore"):
        u1 = uniforms(position, 1) * 2.0**-53
        u2 = uniforms(position + m, 0) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]


_DRAW_SIZES = [0, 1, 2, 3, 4095, 4096, 196607, 196608]


@pytest.mark.parametrize("position", [0, 12345])
@pytest.mark.parametrize("n", _DRAW_SIZES)
def test_normals_keep_the_bits_of_the_formula(n, position):
    r = CounterRng(21, 3, position=position)
    got = r.normals(n)
    assert got.tobytes() == _formula_normals(21, 3, position, n).tobytes()
    assert r.position == position + 2 * ((n + 1) // 2)


def _cuts(m):
    if m <= 2048:
        return range(m + 1)
    return sorted({0, 1, 2, 7, 8, 9, 63, 64, 65, 1000, m // 2 - 1, m // 2,
                   m // 2 + 1, m - 8, m - 1, m})


@pytest.mark.parametrize("position", [0, 777])
@pytest.mark.parametrize("n", _DRAW_SIZES)
def test_every_cut_of_a_draw_has_the_bits_of_the_whole(n, position):
    m = (n + 1) // 2
    whole = _formula_normals(5, 1, position, n)
    r = CounterRng(5, 1)
    scratch = ade_rng._scratch(m + 3)  # reused, and longer than any range
    for lo in _cuts(m):
        out = np.full(2 * m, np.nan)
        r._pairs(position, m, lo, m, out, scratch)
        r._pairs(position, m, 0, lo, out)
        assert out[:n].tobytes() == whole.tobytes(), lo
    assert r.position == 0  # _pairs reads no position and moves none


def test_threads_drawing_from_their_own_rngs_get_the_bits_of_one_thread(
        monkeypatch, cpus):
    # every rng keeps its own scratch for its own thread and its helper;
    # 100-pair chunks give each larger draw several to share
    sizes = [1001, 2, 4096, 3, 777]
    expect = []
    for seed in range(6):
        r = CounterRng(seed, 0)
        expect.append([r.normals(n).tobytes() for n in sizes * 4])
    monkeypatch.setattr(ade_rng, "_SPLIT_MIN_VALUES", 0)
    monkeypatch.setattr(ade_rng, "_CHUNK", 100)
    cpus(2)
    got = [[] for _ in expect]

    def draw(seed):
        r = CounterRng(seed, 0)
        got[seed] = [r.normals(n).tobytes() for n in sizes * 4]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=draw, args=(seed,))
                   for seed in range(len(expect))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expect
