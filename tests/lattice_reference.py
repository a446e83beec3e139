"""Reference D2Q9 step for bitwise checks of the lattice kernels.

A frozen copy of the straightforward step: `np.roll` streaming, BGK
collision through the full nine-direction equilibrium rebuilt every step,
bounce-back on the outer ring, and the stream / collide / fetch / wall
order. It keeps its own buffers and shares only the stencil constants with
`ade.lattice`, so a kernel rewrite that matches it byte for byte keeps
every product and sum in the same order.
"""

import numpy as np

from ade.lattice import CX, CY, OPPOSITE, W


class RefState:
    """f and f_new of shape (9,) + u0.shape at rest equilibrium, plus the
    velocity for the next collision (zero at start)."""

    def __init__(self, u0, dtype=np.float64):
        u0 = np.asarray(u0)
        self.dtype = np.dtype(dtype)
        self.ny, self.nx = u0.shape[-2:]
        self.shape = (self.ny, self.nx)
        self.f = np.empty((9,) + u0.shape, dtype=self.dtype)
        self.f[:] = W.reshape((9,) + (1,) * u0.ndim) * u0.astype(self.dtype)
        self.f_new = self.f.copy()
        self.vx = np.zeros(self.shape)
        self.vy = np.zeros(self.shape)


def equilibrium(u, vx, vy):
    u = np.asarray(u, dtype=np.float64)
    vx = np.asarray(vx, dtype=np.float64)
    vy = np.asarray(vy, dtype=np.float64)
    vv = vx * vx + vy * vy
    out = np.empty((9,) + np.broadcast(u, vx, vy).shape, dtype=np.float64)
    for k in range(9):
        cv = CX[k] * vx + CY[k] * vy
        np.multiply(W[k], u, out=out[k])
        out[k] *= 1.0 + 3.0 * cv + 4.5 * cv * cv - 1.5 * vv
    return out


def stream(state):
    f, f_new = state.f, state.f_new
    for k in range(9):
        cx, cy = int(CX[k]), int(CY[k])
        if cx == 0 and cy == 0:
            f[k] = f_new[k]
        else:
            f[k] = np.roll(f_new[k], (cy, cx), axis=(-2, -1))


def collide(state, vx, vy, tau):
    omega = 1.0 / tau
    u = state.f.sum(axis=0)
    feq = equilibrium(u, vx, vy).astype(state.dtype, copy=False)
    feq *= omega
    np.multiply(state.f, 1.0 - omega, out=state.f_new)
    state.f_new += feq


def apply_bounce_back(state):
    ny, nx = state.ny, state.nx
    f, f_new = state.f, state.f_new
    ring = [
        (slice(0, 1), slice(None)),
        (slice(ny - 1, ny), slice(None)),
        (slice(1, ny - 1), slice(0, 1)),
        (slice(1, ny - 1), slice(nx - 1, nx)),
    ]
    for ys, xs in ring:
        f[..., ys, xs] = f[OPPOSITE, ..., ys, xs]
        f_new[..., ys, xs] = f[..., ys, xs]


def solver_step(state, vel_provider, tau, step_index):
    stream(state)
    collide(state, state.vx, state.vy, tau)
    vx, vy = vel_provider(step_index)
    state.vx = np.asarray(vx, dtype=np.float64)
    state.vy = np.asarray(vy, dtype=np.float64)
    apply_bounce_back(state)
