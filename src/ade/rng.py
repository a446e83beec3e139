"""Counter-based pseudo-random numbers.

Output i of a stream is a pure function of (seed, stream, i): the generator
mixes the counter through splitmix64, so any block of draws can be reproduced
from its position alone, independent of batch sizes used to consume earlier
draws. All integer arithmetic is uint64 with wraparound.

The same holds inside one normal draw: each Box-Muller pair is an
elementwise function of its two words, so any range of a draw's pairs can
be computed apart and its bits do not depend on where the range is cut.
`CounterRng.normals` uses that to compute half of each large draw in a
second thread, numpy releasing the GIL in its loops.
"""

from __future__ import annotations

import os
import threading

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64

# draw size from which `normals` computes half of the draw in a second
# thread: below it, starting the thread costs about what half a draw saves
_SPLIT_MIN_VALUES = 2**17


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _mix(z: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    # splitmix64 finalizer, in place, with t as its temporary; wraparound
    # is intended
    t = np.empty_like(z) if t is None else t
    with np.errstate(over="ignore"):
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, _U64(shift), out=t)
            z ^= t
            z *= mult
        np.right_shift(z, _U64(31), out=t)
        z ^= t
    return z


def _scratch(n: int) -> np.ndarray:
    """Buffers for `CounterRng._pairs` of up to n pairs: a row 0..n-1 of
    counter offsets, then three rows of words."""
    scratch = np.empty((4, n), dtype=np.uint64)
    scratch[0] = np.arange(n, dtype=np.uint64)
    return scratch


def derive_seed(seed: int, *indices: int) -> int:
    """Fold indices into a seed, splitmix-style. Stable across runs."""
    s = np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    with np.errstate(over="ignore"):
        for ix in indices:
            s += _U64((ix + 1) & 0xFFFFFFFFFFFFFFFF) * _GOLDEN
            _mix(s)
    return int(s[0])


class CounterRng:
    """Deterministic stream of uniforms/normals addressed by position.

    `seed` selects the family, `stream` an independent substream. The
    position advances by the number of raw 64-bit words consumed; it can be
    saved and restored to replay or skip.
    """

    def __init__(self, seed: int, stream: int = 0, position: int = 0):
        self._base = _U64(derive_seed(seed, stream))
        self.seed = seed
        self.stream = stream
        self.position = position
        # the buffers of the two threads of a split draw, made by the
        # calling thread and kept across draws: an array made or freed in
        # the second thread would stay in a malloc arena of its own, and
        # one made per draw costs page faults in both threads. They are
        # one block: as two blocks the size of a 3x256x256 field, they
        # left a walk's own field-sized arrays to be faulted in afresh
        # each step (13,700 against 1,550 minor faults per 32-step walk)
        self._scratch = np.stack([_scratch(0)] * 2)

    def _hash(self, z: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
        # counters i to words i, in place
        with np.errstate(over="ignore"):
            z += _U64(1)
            z *= _GOLDEN
            z += self._base
        return _mix(z, t)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1), 53-bit resolution."""
        first = self.position
        words = self._hash(np.arange(first, first + n, dtype=np.uint64))
        self.position += n
        return (words >> _U64(11)) * 2.0**-53

    def _pairs(self, start: int, m: int, lo: int, hi: int,
               out: np.ndarray, scratch: np.ndarray | None = None) -> None:
        """Box-Muller pairs lo..hi of the m-pair draw at word `start`.

        Pair j turns word start + j into a radius r (a uniform on (0, 1],
        safe as a log() argument) and word start + m + j into an angle
        theta, and writes r cos(theta) to out[j], r sin(theta) to
        out[m + j]. Every operation is elementwise, so a pair has the same
        bits whatever range it is computed in. The temporaries are the
        rows of `scratch` (see `_scratch`) where it is given: the call
        then allocates no array.
        """
        ramp, t, a, b = (_scratch(hi - lo) if scratch is None
                         else scratch[:, :hi - lo])
        np.add(ramp, _U64(start + lo), out=a)
        self._hash(a, t)
        a >>= _U64(11)
        a += _U64(1)
        # a 53-bit word converts exactly from int64 too, and faster; each
        # float goes to a row its word does not hold, as a cast in place
        # would copy
        r = t.view(np.float64)
        np.copyto(r, a.view(np.int64))
        r *= 2.0**-53
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        np.add(ramp, _U64(start + m + lo), out=b)
        self._hash(b, a)
        b >>= _U64(11)
        theta = a.view(np.float64)
        np.copyto(theta, b.view(np.int64))
        theta *= 2.0**-53
        theta *= 2.0 * np.pi
        for trig, part in ((np.cos, out[lo:hi]),
                           (np.sin, out[m + lo:m + hi])):
            trig(theta, out=part)
            part *= r

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller, in a fresh array.

        Consumes 2*ceil(n/2) words: the first half feed the radius, the
        second half the angle. Normal i < ceil(n/2) is the cosine of pair
        i, the rest are the sines. A draw of at least `_SPLIT_MIN_VALUES`
        values on two or more CPUs computes its pairs [m//2, m) in a
        thread of its own, joined before the call returns; the bits are
        the same either way.
        """
        m = (n + 1) // 2
        out = np.empty(2 * m)
        if n < _SPLIT_MIN_VALUES or _cpus() < 2:
            self._pairs(self.position, m, 0, m, out)
        else:
            self._split(self.position, m, out)
        self.position += 2 * m
        return out[:n]

    def _split(self, start: int, m: int, out: np.ndarray) -> None:
        """Pairs [0, m//2) of the m-pair draw at `start` here and pairs
        [m//2, m) in a second thread, both into `out`; the thread is
        joined, and what it raised raised here, before this returns."""
        h = m // 2
        if self._scratch.shape[2] < m - h:
            self._scratch = np.stack([_scratch(m - h)] * 2)
        (mine, theirs), failed = self._scratch, []

        def second_half():
            try:
                self._pairs(start, m, h, m, out, theirs)
            except BaseException as exc:  # re-raised by the caller
                failed.append(exc)

        thread = threading.Thread(target=second_half)
        thread.start()
        try:
            self._pairs(start, m, 0, h, out, mine)
        finally:
            thread.join()
        if failed:
            raise failed[0]

    def normal_field(self, shape: tuple[int, ...]) -> np.ndarray:
        n = int(np.prod(shape))
        return self.normals(n).reshape(shape)
