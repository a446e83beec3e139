"""D2Q9 lattice Boltzmann core for scalar advection-diffusion.

Populations are stored as f[k, ..., y, x] for the nine directions below,
with any leading channel axes in between: the channels of one image share
a velocity field, so one state steps them all at once. One step
is: pull-stream f_new into f, BGK-collide into f_new using the velocity field
fetched at the end of the previous step, fetch the velocity for the next
step, then apply full bounce-back on the outer ring of nodes. Streaming
wraps toroidally, so it permutes populations and conserves mass exactly;
the wall update rewrites the ring before the interior ever consumes a
wrapped value, so the interior sees a closed box, not a torus.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DegenerateDomainError,
    NonFiniteFieldError,
    ShapeMismatchError,
    StabilityError,
)

# direction k:  0     1     2     3      4     5      6      7      8
CX = np.array([0, 1, 0, -1, 0, 1, -1, -1, 1])
CY = np.array([0, 0, 1, 0, -1, 1, 1, -1, -1])
W = np.array([4 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 9,
              1 / 36, 1 / 36, 1 / 36, 1 / 36])
OPPOSITE = np.array([0, 3, 4, 1, 2, 7, 8, 5, 6])
CS2 = 1.0 / 3.0

# exact values for rational-arithmetic identity checks
W_EXACT = (Fraction(4, 9),) + (Fraction(1, 9),) * 4 + (Fraction(1, 36),) * 4
CS2_EXACT = Fraction(1, 3)


class VelocityField(NamedTuple):
    vx: np.ndarray
    vy: np.ndarray


VelocityProvider = Callable[[int], VelocityField]


def alpha_from_tau(tau: float) -> float:
    """Diffusivity alpha = (tau - 1/2)/3. Requires tau > 1/2."""
    if not tau > 0.5:
        raise StabilityError(f"tau must exceed 1/2, got {tau}")
    return (tau - 0.5) / 3.0


def tau_from_alpha(alpha: float) -> float:
    """Inverse of alpha_from_tau. Requires alpha > 0."""
    if not alpha > 0.0:
        raise StabilityError(f"alpha must be positive, got {alpha}")
    return 3.0 * alpha + 0.5


def equilibrium(u: np.ndarray, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """Second-order equilibrium populations, shape (9,) + u.shape.

    f_eq_k = w_k * u * (1 + 3 c.v + 4.5 (c.v)^2 - 1.5 v.v). Summing over k
    returns u exactly in real arithmetic; in floats it stays within a few
    ulps of u.
    """
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


class LatticeState:
    """Population buffers for scalar fields on an nx-by-ny grid.

    `f_new` is the live buffer between steps; `f` is the staging buffer the
    pull-stream writes into. `init_from_image` sets both to the rest
    equilibrium of its field, with the field's leading axes, so the first
    stream reads well-defined values. `vx`/`vy` hold the advection field
    to be used by the next collision (zero at init, matching the reference
    loop).
    """

    def __init__(self, nx: int, ny: int, dtype=np.float64):
        if nx < 3 or ny < 3:
            raise DegenerateDomainError(
                f"grid must be at least 3x3, got {nx}x{ny}")
        if np.dtype(dtype) not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"unsupported dtype {dtype}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.dtype = np.dtype(dtype)
        self.f = np.zeros((9, ny, nx), dtype=self.dtype)
        self.f_new = np.zeros((9, ny, nx), dtype=self.dtype)
        self.vx = np.zeros((ny, nx), dtype=np.float64)
        self.vy = np.zeros((ny, nx), dtype=np.float64)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)


def init_from_image(u0: np.ndarray, dtype=np.float64) -> LatticeState:
    """State whose macroscopic field equals u0 ([H, W] or [C, H, W]), at
    rest equilibrium; f and f_new are (9,) + u0.shape."""
    u0 = np.asarray(u0)
    if u0.ndim not in (2, 3):
        raise ShapeMismatchError(
            f"initial field must be [H, W] or [C, H, W], got {u0.shape}")
    if not np.all(np.isfinite(u0)):
        raise NonFiniteFieldError("initial field contains NaN or Inf")
    ny, nx = u0.shape[-2:]
    state = LatticeState(nx, ny, dtype=dtype)
    state.f = np.empty((9,) + u0.shape, dtype=state.dtype)
    state.f[:] = W.reshape((9,) + (1,) * u0.ndim) * u0.astype(state.dtype)
    state.f_new = state.f.copy()
    return state


def macro_update(state: LatticeState) -> np.ndarray:
    """Macroscopic field u = sum_k f_k at every node."""
    return state.f.sum(axis=0)


def stream(state: LatticeState) -> None:
    """Pull-stream: f[k, y, x] <- f_new[k, y - cy_k, x - cx_k], wrapping.

    The wrap makes streaming a permutation of all slots (mass moves, none
    is created or lost). Interior nodes only ever pull in-grid neighbors;
    the ring slots that pick up wrapped values are rewritten by the wall
    update before the interior consumes them.
    """
    f, f_new = state.f, state.f_new
    for k in range(9):
        cx, cy = int(CX[k]), int(CY[k])
        if cx == 0 and cy == 0:
            f[k] = f_new[k]
        else:
            f[k] = np.roll(f_new[k], (cy, cx), axis=(-2, -1))


def collide(state: LatticeState, vel: VelocityField, tau: float) -> None:
    """BGK relaxation toward equilibrium: f_new = (1 - 1/tau) f + (1/tau) f_eq.

    The macroscopic field is taken as sum_k f_k at each node; the velocity
    terms of f_eq broadcast over the channel axes. Per-node mass
    is preserved for any tau > 1/2; the update is a contraction toward
    equilibrium for tau >= 1.
    """
    if not tau > 0.5:
        raise StabilityError(f"tau must exceed 1/2, got {tau}")
    vx, vy = vel
    if vx.shape != state.shape or vy.shape != state.shape:
        raise ShapeMismatchError(
            f"velocity shape {vx.shape}/{vy.shape} != grid {state.shape}")
    omega = 1.0 / tau
    u = state.f.sum(axis=0)
    feq = equilibrium(u, vx, vy).astype(state.dtype, copy=False)
    feq *= omega  # in place: no population-sized temporaries, same bits
    np.multiply(state.f, 1.0 - omega, out=state.f_new)
    state.f_new += feq


def apply_bounce_back(state: LatticeState) -> None:
    """Full bounce-back on the outer ring, published into f_new.

    Opposite populations are swapped in f on the two boundary rows and the
    two boundary columns (corners once), then the ring of f is copied into
    f_new so the next stream pulls wall-reflected values.
    """
    ny, nx = state.ny, state.nx
    f, f_new = state.f, state.f_new
    ring = [
        (slice(0, 1), slice(None)),
        (slice(ny - 1, ny), slice(None)),
        (slice(1, ny - 1), slice(0, 1)),
        (slice(1, ny - 1), slice(nx - 1, nx)),
    ]
    for ys, xs in ring:
        f[..., ys, xs] = f[OPPOSITE, ..., ys, xs]  # the gather copies
        f_new[..., ys, xs] = f[..., ys, xs]


def solver_step(state: LatticeState, vel_provider: VelocityProvider,
                tau: float, step_index: int) -> None:
    """Advance one lattice step in the reference order.

    Stream, collide with the previously fetched velocity, fetch the field
    for the next step from `vel_provider(step_index)`, then apply the wall
    update. The very first step therefore collides with the zero field.
    """
    stream(state)
    collide(state, VelocityField(state.vx, state.vy), tau)
    vx, vy = vel_provider(step_index)
    vx = np.asarray(vx, dtype=np.float64)
    vy = np.asarray(vy, dtype=np.float64)
    if vx.shape != state.shape or vy.shape != state.shape:
        raise ShapeMismatchError(
            f"provider returned shape {vx.shape}/{vy.shape}, "
            f"grid is {state.shape}")
    state.vx, state.vy = vx, vy
    apply_bounce_back(state)
