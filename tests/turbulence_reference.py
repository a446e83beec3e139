"""Reference spectral synthesis, velocity factor and limiter for bitwise
checks.

A frozen copy of the straightforward versions: the full N x N mode table
with zero amplitude outside the band, a complex `exp` of every mode, one
`np.fft.ifft2` per component, the velocity factor evaluated direction by
direction from c.v, and the speed limiter as a general [min, max] tanh
clamp. It shares only the stencil constants, `VelocityField`, the error
type and `CounterRng` with `ade`, so a rewrite that matches it byte for
byte keeps every product, sum and transform in the same order.
"""

import numpy as np

from ade.errors import ValidationError
from ade.lattice import CX, CY, VelocityField
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


def tanh_limiter(x, min_val, max_val, sharpness=1.0):
    """Smooth clamp of x into (min_val, max_val), identity-like near mid."""
    if not min_val < max_val:
        raise ValidationError(
            f"need min_val < max_val, got [{min_val}, {max_val}]")
    mid = (max_val + min_val) / 2.0
    half = (max_val - min_val) / 2.0
    return mid + half * np.tanh(sharpness * (np.asarray(x) - mid) / half)


def limit_velocity(vx, vy, min_val, max_val, sharpness=1.0):
    """Rescale (vx, vy) so the speed passes through tanh_limiter; nodes
    slower than 1e-9 are scaled by 1e-9."""
    mag = np.sqrt(vx * vx + vy * vy)
    limited = tanh_limiter(mag, min_val, max_val, sharpness)
    factor = np.full_like(mag, 1e-9)
    np.divide(limited, mag, out=factor, where=mag >= 1e-9)
    return VelocityField(vx * factor, vy * factor)
