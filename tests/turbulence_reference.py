"""Reference spectral synthesis and velocity factor for bitwise checks.

A frozen copy of the straightforward versions: the full N x N mode table
with zero amplitude outside the band, a complex `exp` of every mode, one
`np.fft.ifft2` per component, and the velocity factor evaluated direction
by direction from c.v. It shares only the stencil constants and
`CounterRng` with `ade`, so a rewrite that matches it byte for byte keeps
every product, sum and transform in the same order.
"""

import numpy as np

from ade.lattice import CX, CY
from ade.rng import CounterRng


class RefGenerator:
    """Mode table of a `TurbulenceSpec` and seed, on the whole grid."""

    def __init__(self, spec, seed):
        n = spec.size
        k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
        kxx, kyy = np.meshgrid(k1, k1, indexing="ij")
        k = np.sqrt(kxx * kxx + kyy * kyy)
        amp = np.zeros_like(k)
        nonzero = k != 0.0
        amp[nonzero] = k[nonzero] ** spec.slope
        amp[(k < spec.kappa_min) | (k > spec.kappa_max)] = 0.0
        self.amplitude = amp
        self.omega = spec.dt_turb * k
        shape = (n, n)
        self.phase_u = 2.0 * np.pi * CounterRng(seed, 0).uniforms(n * n).reshape(shape)
        self.phase_v = 2.0 * np.pi * CounterRng(seed, 1).uniforms(n * n).reshape(shape)

    def synthesize(self, step):
        ang_u = self.phase_u + self.omega * float(step)
        ang_v = self.phase_v + self.omega * float(step)
        u = np.fft.ifft2(self.amplitude * np.exp(1j * ang_u)).real
        v = np.fft.ifft2(self.amplitude * np.exp(1j * ang_v)).real
        return u, v


def velocity_factor(vx, vy):
    vx = np.asarray(vx, dtype=np.float64)
    vy = np.asarray(vy, dtype=np.float64)
    vv = vx * vx + vy * vy
    out = np.empty((9,) + np.broadcast(vx, vy).shape, dtype=np.float64)
    for k in range(9):
        cv = CX[k] * vx + CY[k] * vy
        out[k] = 1.0 + 3.0 * cv + 4.5 * cv * cv - 1.5 * vv
    return out
