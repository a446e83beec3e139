"""Counter-based pseudo-random numbers.

Output i of a stream is a pure function of (seed, stream, i): the generator
mixes the counter through splitmix64, so any block of draws can be reproduced
from its position alone, independent of batch sizes used to consume earlier
draws. All integer arithmetic is uint64 with wraparound.

The same holds inside one normal draw: each Box-Muller pair is an
elementwise function of its two words, so any range of a draw's pairs can
be computed apart, in another process too, and its bits do not depend on
where the range is cut. `reverse.sample` uses that to compute half of each
draw of a large walk in a helper process.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64


def _mix(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer, in place; wraparound is intended
    t = np.empty_like(z)
    with np.errstate(over="ignore"):
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, _U64(shift), out=t)
            z ^= t
            z *= mult
        np.right_shift(z, _U64(31), out=t)
        z ^= t
    return z


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

    # while set, fills each normal draw in place of `_pairs`, computing
    # part of it elsewhere (`reverse.sample` sets it for a large walk)
    _split = None

    def _words(self, first: int, n: int) -> np.ndarray:
        z = np.arange(first, first + n, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z += _U64(1)
            z *= _GOLDEN
            z += self._base
        return _mix(z)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1), 53-bit resolution."""
        words = self._words(self.position, n)
        self.position += n
        return (words >> _U64(11)) * 2.0**-53

    def _pairs(self, start: int, m: int, lo: int, hi: int,
               out: np.ndarray) -> None:
        """Box-Muller pairs lo..hi of the m-pair draw at word `start`.

        Pair j turns word start + j into a radius r (a uniform on (0, 1],
        safe as a log() argument) and word start + m + j into an angle
        theta, and writes r cos(theta) to out[j], r sin(theta) to
        out[m + j]. Every operation is elementwise, so a pair has the same
        bits whatever range it is computed in.
        """
        # a 53-bit word converts exactly from int64 too, and faster
        words = self._words(start + lo, hi - lo)
        words >>= _U64(11)
        words += _U64(1)
        r = words.view(np.int64) * 2.0**-53
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        words = self._words(start + m + lo, hi - lo)
        words >>= _U64(11)
        theta = words.view(np.int64) * 2.0**-53
        theta *= 2.0 * np.pi
        for trig, part in ((np.cos, out[lo:hi]),
                           (np.sin, out[m + lo:m + hi])):
            trig(theta, out=part)
            part *= r

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller, in a fresh array.

        Consumes 2*ceil(n/2) words: the first half feed the radius, the
        second half the angle. Normal i < ceil(n/2) is the cosine of pair
        i, the rest are the sines.
        """
        m = (n + 1) // 2
        out = np.empty(2 * m)
        if self._split is None:
            self._pairs(self.position, m, 0, m, out)
        else:
            self._split(self.position, m, out)
        self.position += 2 * m
        return out[:n]

    def normal_field(self, shape: tuple[int, ...]) -> np.ndarray:
        n = int(np.prod(shape))
        return self.normals(n).reshape(shape)
