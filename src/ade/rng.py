"""Counter-based pseudo-random numbers.

Output i of a stream is a pure function of (seed, stream, i): the generator
mixes the counter through splitmix64, so any block of draws can be reproduced
from its position alone, independent of batch sizes used to consume earlier
draws. All integer arithmetic is uint64 with wraparound.

The same holds inside one normal draw: each Box-Muller pair is an
elementwise function of its two words, so any range of a draw's pairs can
be computed apart and its bits do not depend on where the range is cut.
`CounterRng.normals` computes a draw in chunks of `_CHUNK` pairs. A large
draw on two or more CPUs shares its chunks with a pool of one worker
thread, numpy releasing the GIL in its loops; inside
`CounterRng.ahead(draws)`, the scope a reverse walk enters, one pool serves
the whole walk. Each draw's chunks are submitted to it, with those of the
next draw of the same size at the next position behind them, and the
caller computes every chunk of its own draw that the worker has not
started, cancelling it in the pool, while the worker goes on to the next
draw. Small draws, and every draw on one CPU (counted by `procs._cpus`,
as for every process a command starts), are computed by the caller alone
and start no thread. The bits and `position` do not depend on any of it:
the position moves only when a caller takes a draw, and a draw computed
ahead for another position or size is cancelled and discarded.
"""

from __future__ import annotations

import contextlib

import numpy as np

from . import procs

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64

# draw size from which `normals` shares the draw with a worker thread:
# below it, starting the thread costs about what the worker saves
_SPLIT_MIN_VALUES = 2**17

# Box-Muller pairs per chunk of a draw: a chunk's scratch, four rows of
# words, is 512 KiB and stays in a 2 MiB L2
_CHUNK = 2**14


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


def _scratch(n: int, threads: int = 1) -> np.ndarray:
    """Buffers for `CounterRng._pairs` of up to n pairs, one set per
    thread, the first axis when `threads` > 1: a row 0..n-1 of counter
    offsets, then three rows of words."""
    scratch = np.empty((threads, 4, n), dtype=np.uint64)
    scratch[:, 0] = np.arange(n, dtype=np.uint64)
    return scratch[0] if threads == 1 else scratch


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
        # chunk scratch for the calling thread and the pool's worker, made
        # by the calling thread and kept across draws: an array made or
        # freed in the worker would stay in a malloc arena of its own, and
        # one made per draw costs page faults in both threads
        self._scratch = _scratch(0, threads=2)
        self._ahead: _Ahead | None = None

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
        i, the rest are the sines. The pairs are computed `_CHUNK` at a
        time. A draw of at least `_SPLIT_MIN_VALUES` values on two or more
        CPUs shares its chunks with a one-thread pool: the scope's pool
        inside `ahead`, else one started and joined for this draw alone.
        The bits are the same either way.
        """
        m = (n + 1) // 2
        if n < _SPLIT_MIN_VALUES or procs._cpus() < 2:
            out = np.empty(2 * m)
            scratch = self._scratch_for(m)[0]
            for lo in range(0, m, _CHUNK):
                self._pairs(self.position, m, lo, min(lo + _CHUNK, m), out,
                            scratch)
        elif self._ahead is None:
            with self.ahead(1):
                return self.normals(n)
        else:
            out = self._ahead.take(self.position, m)
        self.position += 2 * m
        return out[:n]

    def _scratch_for(self, m: int) -> np.ndarray:
        """Both threads' scratch, wide enough for the chunks of an m-pair
        draw; grown by the calling thread only."""
        if self._scratch.shape[2] < min(m, _CHUNK):
            self._scratch = _scratch(min(m, _CHUNK), threads=2)
        return self._scratch

    @contextlib.contextmanager
    def ahead(self, draws: int):
        """A scope for a run of `draws` normal draws, such as a reverse
        walk's: one pool of one thread, started at the first draw that
        shares its chunks, computes each next draw while the caller uses
        the one before, and never a draw past the `draws`-th. Its pending
        chunks are cancelled and its thread joined on leaving the scope,
        however it is left.
        Inside a scope already open, this adds nothing."""
        if self._ahead is not None:
            yield
            return
        self._ahead = _Ahead(self, draws)
        try:
            yield
        finally:
            self._ahead.close()
            self._ahead = None

    def normal_field(self, shape: tuple[int, ...]) -> np.ndarray:
        n = int(np.prod(shape))
        return self.normals(n).reshape(shape)


class _Ahead:
    """The draws of one `CounterRng.ahead` scope and the one-thread pool
    that computes their chunks.

    `next` is the draw submitted for the next position, as (start, m),
    its output and its chunk futures, or None.
    """

    def __init__(self, rng: CounterRng, draws: int):
        self.rng = rng
        self.left = draws
        self.pool = None
        self.next: tuple | None = None

    def _submit(self, start: int, m: int) -> tuple:
        # the pool's scratch row is taken now: the caller may grow the
        # scratch before a later draw while this one's chunks still run
        out, scratch = np.empty(2 * m), self.rng._scratch[1]
        return (start, m), out, [
            self.pool.submit(self.rng._pairs, start, m, lo,
                             min(lo + _CHUNK, m), out, scratch)
            for lo in range(0, m, _CHUNK)]

    def take(self, start: int, m: int) -> np.ndarray:
        """The m-pair draw at `start`, computed with the pool: the draw
        submitted ahead if it is that one, else a fresh one. This thread
        computes every chunk the pool has not started; what any chunk
        raised is raised here."""
        scratch = self.rng._scratch_for(m)[0]
        if self.pool is None:
            from concurrent.futures import ThreadPoolExecutor
            self.pool = ThreadPoolExecutor(1)
        draw = self.next
        if draw is not None and draw[0] != (start, m):
            for future in draw[2]:  # ahead for a draw not asked for
                future.cancel()
            draw = None
        draw = draw or self._submit(start, m)
        self.left -= 1
        self.next = self._submit(start + 2 * m, m) if self.left > 0 else None
        _, out, futures = draw
        for lo, future in zip(range(0, m, _CHUNK), futures):
            if future.cancel():
                self.rng._pairs(start, m, lo, min(lo + _CHUNK, m), out,
                                scratch)
        for future in futures:
            if not future.cancelled():
                future.result()
        return out

    def close(self) -> None:
        """Cancel the chunks not started and join the pool's thread."""
        if self.pool is not None:
            self.pool.shutdown(wait=True, cancel_futures=True)
