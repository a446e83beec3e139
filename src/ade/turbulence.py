"""Spectral synthesis of time-coherent turbulent velocity fields.

A random Fourier mode table is built once per seed: each mode in the band
[kappa_min, kappa_max] gets amplitude ||kappa||^slope and an independent
uniform phase per component. Time evolution rotates each phase at rate
dt_turb * ||kappa||, so consecutive steps give smoothly drifting fields.
Fields are rescaled to a target RMS (population std), then each node's
speed is capped smoothly at cap * tanh(sharpness * speed / cap), keeping
its direction.

The phase tables are drawn for the whole N x N grid, so the random stream
is the same whatever the band, but only the modes with nonzero amplitude
are kept. Each step takes `exp` of those modes alone, transforms only the
rows of the table that hold one, for u and v together, then runs the
transform along the other axis; the field equals `np.fft.ifft2` of the
full table bit for bit. With the default band that is 796 of 4,096 modes
in 33 of 64 rows at 64^2, and 48 of 65,536 modes in 9 of 256 rows at 256^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lattice import VelocityField
from .rng import CounterRng

SMALL_MAGNITUDE = 1e-9
ZERO_RMS_GUARD = 1e-14


@dataclass(frozen=True)
class TurbulenceSpec:
    """Parameters of the spectral generator on an N x N grid.

    kappa_min/kappa_max default to 2*pi/N and min(1024 * 2*pi/N, pi*N);
    pi*N is the axis Nyquist limit, so small grids keep the whole spectrum.
    """

    size: int
    slope: float = -2.0
    kappa_min: float | None = None
    kappa_max: float | None = None
    dt_turb: float = 1e-4
    cap: float = 1e-3
    sharpness: float = 1.0

    def __post_init__(self):
        if self.size < 2:
            raise ValidationError(f"grid size must be >= 2, got {self.size}")
        if self.kappa_min is None:
            object.__setattr__(self, "kappa_min", 2.0 * np.pi / self.size)
        if self.kappa_max is None:
            object.__setattr__(
                self, "kappa_max",
                min(1024.0 * 2.0 * np.pi / self.size, np.pi * self.size))
        if not 0.0 < self.kappa_min < self.kappa_max:
            raise ValidationError(
                f"need 0 < kappa_min < kappa_max, got "
                f"[{self.kappa_min}, {self.kappa_max}]")
        if self.cap <= 0.0:
            raise ValidationError(f"cap must be positive, got {self.cap}")
        if self.dt_turb < 0.0:
            raise ValidationError(
                f"dt_turb must be >= 0, got {self.dt_turb}")
        if not self.sharpness > 0.0:
            raise ValidationError(
                f"sharpness must be positive, got {self.sharpness}")


def limit_velocity(vx: np.ndarray, vy: np.ndarray, cap: float,
                   sharpness: float = 1.0) -> VelocityField:
    """Rescale (vx, vy) so the speed becomes cap * tanh(sharpness * speed /
    cap), which stays below cap and is identity-like at low speed.

    Direction is preserved; nodes slower than 1e-9 are scaled by 1e-9
    instead, which keeps them effectively at rest.
    """
    if not cap > 0.0:
        raise ValidationError(f"cap must be positive, got {cap}")
    speed = np.sqrt(vx * vx + vy * vy)
    limited = cap * np.tanh(sharpness * speed / cap)
    factor = np.full_like(speed, SMALL_MAGNITUDE)
    np.divide(limited, speed, out=factor, where=speed >= SMALL_MAGNITUDE)
    return VelocityField(vx * factor, vy * factor)


class TurbulenceGenerator:
    """Stateful mode table; `generate(step, rms)` is pure in (seed, step).

    Phase tables come from two counter-based substreams of `seed` (stream 0
    for the x component, stream 1 for y), so the same seed always produces
    the same flow regardless of call order.
    """

    def __init__(self, spec: TurbulenceSpec, seed: int):
        self.spec = spec
        self.seed = seed
        n = spec.size
        k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
        kxx, kyy = np.meshgrid(k1, k1, indexing="ij")
        k = np.sqrt(kxx * kxx + kyy * kyy)
        amp = np.zeros_like(k)
        nonzero = k != 0.0
        amp[nonzero] = k[nonzero] ** spec.slope
        amp[(k < spec.kappa_min) | (k > spec.kappa_max)] = 0.0
        omega = spec.dt_turb * k
        shape = (n, n)
        phase_u = 2.0 * np.pi * CounterRng(seed, 0).uniforms(n * n).reshape(shape)
        phase_v = 2.0 * np.pi * CounterRng(seed, 1).uniforms(n * n).reshape(shape)
        # only the in-band modes move a bit of the field: keep those, the
        # rows of the table that hold any of them, and each mode's flat slot
        # in a (2, rows, n) buffer, u's modes first
        band = amp != 0.0
        self.rows = np.flatnonzero(band.any(axis=1))
        row, col = np.nonzero(band[self.rows])
        slot = row * n + col
        self.slots = np.concatenate([slot, slot + len(self.rows) * n])
        in_band = (self.rows[row], col)
        self.amplitude = amp[in_band]
        self.omega = omega[in_band]
        self.phase = np.stack([phase_u[in_band], phase_v[in_band]])
        # work buffers of `synthesize`; their zero slots are never written
        self.half = np.zeros((2, len(self.rows), n), dtype=np.complex128)
        self.full = np.zeros((2, n, n), dtype=np.complex128)

    def synthesize(self, step: int) -> tuple[np.ndarray, np.ndarray]:
        """Raw (unscaled, unlimited) field at integer time `step`.

        Equals `np.fft.ifft2(amplitude * exp(1j * (phase + omega * step)))
        .real` over the whole N x N table, bit for bit, but touches only
        the in-band modes: `exp` is taken of those, and the last-axis
        inverse transform runs, for u and v at once, only over the rows
        that hold one (`ifft2` transforms the last axis first, and a zero
        row stays zero); the axis-0 transform then finishes each component.
        Uses the generator's work buffers, so one generator serves one
        caller at a time; the returned fields are new arrays.
        """
        half, full = self.half, self.full
        ang = self.phase + self.omega * float(step)
        half.reshape(-1)[self.slots] = (
            self.amplitude * np.exp(1j * ang)).reshape(-1)
        full[:, self.rows] = np.fft.ifft(half, axis=-1)
        u, v = (np.fft.ifft(plane, axis=0).real for plane in full)
        return u, v

    def generate(self, step: int, target_rms: float) -> VelocityField:
        """Velocity field at `step`, rescaled to target_rms and capped.

        target_rms below 1e-14 short-circuits to the exact zero field.
        """
        if target_rms < 0.0:
            raise ValidationError(
                f"target_rms must be >= 0, got {target_rms}")
        n = self.spec.size
        if target_rms < ZERO_RMS_GUARD:
            zero = np.zeros((n, n))
            return VelocityField(zero, zero.copy())
        u, v = self.synthesize(step)
        su, sv = u.std(), v.std()  # population std, ddof=0
        if su == 0.0 or sv == 0.0:
            raise ValidationError("spectral band produced a constant field")
        u *= target_rms / su
        v *= target_rms / sv
        return limit_velocity(u, v, self.spec.cap, self.spec.sharpness)
