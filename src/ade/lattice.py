"""D2Q9 lattice Boltzmann core for scalar advection-diffusion.

Populations are stored as f[k, ..., y, x] for the nine directions below,
with any leading channel axes in between: the channels of one image share
a velocity field, so one state steps them all at once. One step is one
pass over the populations: `stream` swaps the buffers `f` and `f_new`;
`collide` pulls each node's populations, f_k at x - c_k, from `f`, sums
them into the macroscopic field `u` and BGK-relaxes them into `f_new`,
using the velocity field fetched at the end of the previous step; then
`apply_bounce_back` writes full bounce-back on the outer ring of nodes,
and the ring's part of `u`, from the state's list of wall slices. The
pull wraps toroidally, so it permutes populations and conserves mass
exactly; only ring nodes pull across an edge, and the walls rewrite them,
so the interior sees a closed box, not a torus.

A flow is an argument: `collide` takes a `VelocityField`, or None for no
flow (Pe = 0, pure heat dissipation). A field has the velocity part of the
equilibrium, F_k = 1 + 3 c.v + 4.5 (c.v)^2 - 1.5 v.v, built at every
collide into a 9 x H x W table allocated with the first field, so a
provider may refill one field's arrays in place. With None, F_k = 1.0
exactly and x * 1.0 = x, so `collide` forms (w u) omega once per weight
class (rest, axes, diagonals), not once per direction: the loop's
roundings in its order, as IEEE addition commutes. A
field of +0 and -0 takes the loop, where F_k is 1.0 too; the bits agree.

A state keeps its rows as one part or as two halves, and a step is a step
of one part: the pull reads only `f` and each node of `f_new` and `u` is
written once, by its own part, so the two halves need no halo copy and
two processes can step them at once, over `f`, `f_new` and `u` in
shared memory (`corruption.forward_chain` does, on two CPUs). The walls
and sums of each part are those of the whole grid cut by row, with the
same bits.

Every buffer the step stores into is placed so that the first node it
stores starts a 64-byte cache line (see `LatticeState` for the rule and
its limit). Left to the allocator, a buffer's offset within its line
depends on what the process allocated and freed before, so whether vector
stores straddle two lines changes from one command to the next, and the
speed of the step on grids that fit in cache with it. Placement
changes no arithmetic and no order, so no bit of any output depends on it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DegenerateDomainError,
    NonFiniteFieldError,
    ShapeMismatchError,
    StabilityError,
    ValidationError,
)

# direction k:  0     1     2     3      4     5      6      7      8
CX = np.array([0, 1, 0, -1, 0, 1, -1, -1, 1])
CY = np.array([0, 0, 1, 0, -1, 1, 1, -1, -1])
W = np.array([4 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 9,
              1 / 36, 1 / 36, 1 / 36, 1 / 36])
OPPOSITE = np.array([0, 3, 4, 1, 2, 7, 8, 5, 6])
# directions sharing one weight, contiguous in k: rest, axes, diagonals
WEIGHT_CLASSES = (slice(0, 1), slice(1, 5), slice(5, 9))


class VelocityField(NamedTuple):
    vx: np.ndarray
    vy: np.ndarray


VelocityProvider = Callable[[int], VelocityField | None]


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


def velocity_factor(vx: np.ndarray, vy: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Velocity part of the equilibrium, F_k = 1 + 3 c.v + 4.5 (c.v)^2 -
    1.5 v.v, float64 of shape (9,) + v.shape, written into `out` if given.

    Equals the nine-direction formula ((1 + 3 cv) + (4.5 cv) cv) - 1.5 vv,
    bit for bit. Direction k and its opposite have c.v of opposite sign,
    so they share a = 3 cv and b = (4.5 cv) cv, and 1 + (-a) is exactly
    1 - a: each of the four pairs is built from one cv, and 1.5 vv once,
    in `out` and one scratch field.
    """
    vx = np.asarray(vx, dtype=np.float64)
    vy = np.asarray(vy, dtype=np.float64)
    shape = np.broadcast(vx, vy).shape
    if out is None:
        out = np.empty((9,) + shape, dtype=np.float64)
    vv15 = out[0]  # 1.5 v.v until every pair is built
    a = np.multiply(vy, vy, out=np.empty(shape))
    np.multiply(vx, vx, out=vv15)
    vv15 += a
    vv15 *= 1.5

    def pair(k, opp, cv):
        b = np.multiply(cv, 4.5, out=out[opp])
        b *= cv
        np.multiply(cv, 3.0, out=a)
        np.add(a, 1.0, out=out[k])
        out[k] += b
        out[k] -= vv15
        np.subtract(1.0, a, out=a)
        b += a
        b -= vv15

    pair(1, 3, vx)
    pair(2, 4, vy)
    pair(5, 7, np.add(vx, vy, out=a))
    pair(6, 8, np.subtract(vy, vx, out=a))
    np.subtract(1.0, vv15, out=vv15)
    return out


def _aligned(shape: tuple, dtype, first: int = 0,
             shared: bool = False) -> np.ndarray:
    """Zeroed C-order array of `shape` whose flat element `first` starts on
    a 64-byte line: a view into a byte buffer 64 bytes longer, which is
    anonymous memory shared with the processes forked after it when
    `shared`, and is unmapped when the last view is freed."""
    dtype = np.dtype(dtype)
    size = math.prod(shape) * dtype.itemsize
    if shared:  # imported here: most processes never share a buffer
        import mmap
        raw = np.frombuffer(mmap.mmap(-1, size + 64), dtype=np.uint8)
    else:
        raw = np.zeros(size + 64, dtype=np.uint8)
    skip = -(raw.ctypes.data + first * dtype.itemsize) % 64
    return raw[skip:skip + size].view(dtype).reshape(shape)


def _roll_slices(shift: int, n: int) -> list[tuple[slice, slice]]:
    """(destination, source) slice pairs that roll an axis of n by shift."""
    if shift == 0:
        return [(slice(None), slice(None))]
    s = shift % n
    return [(slice(s, None), slice(None, n - s)),
            (slice(None, s), slice(n - s, None))]


def _edges(shift: int, n: int, ends: tuple = (0, -1)) -> slice:
    """The indices (i + shift) mod n of the edges `ends` of an axis of n,
    one or both of i = 0 and i = n - 1 (-1) in that order, as one slice."""
    first, last = (ends[0] + shift) % n, (ends[-1] + shift) % n
    if first == last:
        return slice(first, first + 1)
    step = last - first
    stop = last + step
    return slice(first, stop if stop >= 0 else None, step)


class Part(NamedTuple):
    """Rows [a, b) of a state's grid, stepped apart from its other rows:
    `rows`, slice(a, b), whose velocity factor the part builds; `span`,
    the flat nodes `collide` covers, with the scratch `wu` and `rest` cut
    to it; and the `walls` and `rims` of the ring's nodes in those rows
    (see `LatticeState`)."""
    rows: slice
    span: slice
    walls: list
    rims: list
    wu: np.ndarray
    rest: np.ndarray


class LatticeState:
    """Population buffers and the macroscopic field on an nx-by-ny grid.

    `f` and `f_new` are (9,) + channels + (ny, nx), allocated once, and
    swap roles at every `stream`; `f_new` is the live buffer between
    steps. `u`, channels + (ny, nx), is sum_k f_k of the live buffer,
    written by the step that made it; a step writes `u` before it reads
    it, so a caller may overwrite it between steps, as `forward_chain`
    does with its first snapshot. `init_from_image` sets both buffers to
    the rest equilibrium of its field and `u` to their sum. `vel` holds
    the advection field to be used by the next collision (None, no flow,
    at init, matching the reference loop's zero field). `factor` holds the
    velocity factor of the last field collided; it is None until the first
    field, and is then allocated once and rebuilt in place.

    The rows are kept as `parts`: one, all rows, or two, rows [0, r) and
    [r, ny) with r = ny // 2, which two processes may step at once, so
    `f`, `f_new` and `u` are then shared memory (see `_aligned`). A step
    of a part reads only `f` and writes only its own rows of `f_new` and
    `u`, so the parts of one step may run in any order, or at once.

    Each buffer is placed by `_aligned` so that the first node it stores,
    the span start of the first part in the first channel (element 0 of
    the factor), starts a 64-byte line. Every later channel and direction
    plane starts one too when a plane, H W itemsize bytes, is a multiple
    of 64 (as at 64 x 64 and 256 x 256), and so does the second part's
    span when (r - 1) nx itemsize is; otherwise only the first does, as
    the layout is not padded. A part's `wu` and `rest` are whole planes
    cut to its span, so each channel's row sits on the lines of `f_new`'s.

    At flat node index i = y nx + x, direction k pulls from i - shifts[k].
    `collide` covers a part's `span`, its rows' nodes from the second of
    the first row that is not a boundary row to the second last of the
    last such row: every node pulls inside the grid, the interior and
    some ring nodes. `walls` holds the (destination, source) slices, at
    most three per direction, that write the part's ring nodes from `f`
    into `f_new`, and `rims` the sides of the ring in its rows, whose `u`
    the walls sum. Numpy sums a lone node's nine values pairwise, not in
    direction order, so a part's rims keep each side column at two rows
    or more, and a two-part grid needs ny >= 4.
    """

    def __init__(self, nx: int, ny: int, dtype=np.float64,
                 channels: tuple = (), parts: int = 1):
        if nx < 3 or ny < 3:
            raise DegenerateDomainError(
                f"grid must be at least 3x3, got {nx}x{ny}")
        if np.dtype(dtype) not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValidationError(f"unsupported dtype {dtype}, "
                                  "expected float32 or float64")
        if parts not in (1, 2) or parts == 2 and ny < 4:
            raise ValidationError(f"cannot split {ny} rows into {parts} "
                                  "parts")
        self.nx = int(nx)
        self.ny = int(ny)
        self.dtype = np.dtype(dtype)
        field = tuple(channels) + (self.ny, self.nx)
        first, shared = self.nx + 1, parts > 1  # the first span's start
        self.f = _aligned((9,) + field, self.dtype, first, shared)
        self.f_new = _aligned((9,) + field, self.dtype, first, shared)
        self.u = _aligned(field, self.dtype, first, shared)
        self.vel = None
        self.factor = None
        self.shifts = [int(CY[k]) * self.nx + int(CX[k]) for k in range(9)]
        cuts = (0, self.ny) if parts == 1 else (0, self.ny // 2, self.ny)
        self.parts = [self._part(a, b, math.prod(channels))
                      for a, b in zip(cuts, cuts[1:])]

    def _part(self, a: int, b: int, planes: int) -> Part:
        ny, nx = self.ny, self.nx
        span = slice(max(a, 1) * nx + 1, min(b, ny - 1) * nx - 1)
        # collide's work buffers over the span: w u in float64, and rest
        # in the state dtype, which shares the float64 one in a float64
        # state. A flow puts p_k (1 - omega) in rest once a weight class's
        # products have consumed w u; no flow puts (w u) omega there
        wu = _aligned((planes, nx * ny), np.float64, span.start)[:, span]
        rest = (wu if self.dtype == np.float64 else
                _aligned((planes, nx * ny), self.dtype, span.start)[:, span])
        ends = tuple(y for y in (0, -1) if a <= y % ny < b)
        sides = slice(a, b)
        # whole sides, corners in two: numpy sums a lone node's nine values
        # pairwise, not in direction order, and a strided pair of sides
        # through a scratch buffer
        rims = ([(slice(y % ny, y % ny + 1), slice(None)) for y in ends]
                + [(sides, slice(0, 1)), (sides, slice(nx - 1, nx))])
        ring_rows = _edges(0, ny, ends)
        inner = slice(max(a, 1), min(b, ny - 1))
        # ring node r, direction k: the opposite population at r + c_k,
        # which is what bounce-back turns around into direction k. The
        # part's boundary rows take their source rows through one slice,
        # as do both boundary columns
        walls = []
        for k in range(9):
            cx, cy, opp = int(CX[k]), int(CY[k]), int(OPPOSITE[k])
            walls += [((k, ..., ring_rows, xs),
                       (opp, ..., _edges(cy, ny, ends), xs_from))
                      for xs, xs_from in _roll_slices(-cx, nx) if ends]
            walls.append(((k, ..., inner, _edges(0, nx)),
                          (opp, ..., slice(inner.start + cy, inner.stop + cy),
                           _edges(cx, nx))))
        return Part(slice(a, b), span, walls, rims, wu, rest)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)


def init_from_image(u0: np.ndarray, dtype=np.float64, parts: int = 1,
                    fill: bool = True) -> LatticeState:
    """State whose macroscopic field equals u0 ([H, W] or [C, H, W]), at
    rest equilibrium, with its rows in `parts` parts; f and f_new are (9,)
    + u0.shape, and u their sum. With `fill` False, u0 is checked but the
    buffers are left zero, for `fill_rest` to set part by part, in the
    processes that step the parts."""
    u0 = np.asarray(u0)
    if u0.ndim not in (2, 3) or 0 in u0.shape[:-2]:
        raise ShapeMismatchError("initial field must be [H, W] or [C, H, W] "
                                 f"with C >= 1, got {u0.shape}")
    if not np.all(np.isfinite(u0)):
        raise NonFiniteFieldError("initial field contains NaN or Inf")
    ny, nx = u0.shape[-2:]
    state = LatticeState(nx, ny, dtype=dtype, channels=u0.shape[:-2],
                         parts=parts)
    if fill:
        for part in range(parts):
            fill_rest(state, u0, part)
        np.sum(state.f, axis=0, out=state.u)
    return state


def fill_rest(state: LatticeState, u0: np.ndarray, part: int = 0) -> None:
    """Set f and f_new in the rows of `state.parts[part]` to the rest
    equilibrium of u0, f_k = W_k u0 in the state dtype: elementwise, so a
    node has the same bits whatever rows are set with it."""
    rows = (..., state.parts[part].rows, slice(None))
    f = state.f[rows]
    np.multiply(W.reshape((9,) + (1,) * (f.ndim - 1)),
                np.asarray(u0)[rows].astype(state.dtype, copy=False), out=f)
    state.f_new[rows] = f


def stream(state: LatticeState) -> None:
    """Swap the population buffers, so the previous step's output is the
    `f` that `collide` (the span) and `apply_bounce_back` (the ring) pull
    from, with the permutation of `np.roll`."""
    state.f, state.f_new = state.f_new, state.f


def _checked(state: LatticeState,
             vel: VelocityField | None) -> VelocityField | None:
    """`vel`, once it is None or both of its components have the grid's
    shape."""
    if vel is not None:
        vx, vy = vel
        if np.shape(vx) != state.shape or np.shape(vy) != state.shape:
            raise ShapeMismatchError(f"velocity shape {np.shape(vx)}/"
                                     f"{np.shape(vy)} != grid {state.shape}")
    return vel


def collide(state: LatticeState, vel: VelocityField | None,
            tau: float, part: int = 0) -> None:
    """Pull and BGK-relax the span of `state.parts[part]`: with p_k = f_k
    at x - c_k, u = sum_k p_k and f_new = (1 - 1/tau) p + (1/tau) f_eq.

    Each direction is pulled through one contiguous view of its flattened
    plane, shifted by `state.shifts[k]`; the span's ring nodes get values
    pulled across a row end, which `apply_bounce_back` rewrites. `u` is
    summed in direction order, ((p_0 + p_1) + p_2) ... + p_8, the bits of
    `np.sum` over axis 0. The velocity factor of f_eq broadcasts over the
    channel axes. Per-node mass is preserved for any tau > 1/2; the
    update is a contraction toward equilibrium for tau >= 1. `vel` None
    means no flow, and no table is allocated or read; a `VelocityField`
    has its factor built into the part's rows of `state.factor` at every
    call, so its arrays may be refilled in place between calls; the build
    is elementwise, so a node's factor has the same bits in any part.
    Without a flow, w u is formed once per weight class, rounded to the
    state dtype, scaled by omega and added to each p_k (1 - omega) of the
    class: the loop's roundings in its order, so the bits agree.
    """
    if not tau > 0.5:
        raise StabilityError(f"tau must exceed 1/2, got {tau}")
    omega = 1.0 / tau
    nodes = state.nx * state.ny
    p = state.parts[part]
    lo, hi = p.span.start, p.span.stop
    f = state.f.reshape(9, -1, nodes)
    out = state.f_new.reshape(9, -1, nodes)[:, :, lo:hi]
    pulled = [f[k, :, lo - s:hi - s] for k, s in enumerate(state.shifts)]
    u = state.u.reshape(-1, nodes)[:, lo:hi]
    wu, rest = p.wu, p.rest
    np.add(pulled[0], pulled[1], out=u)
    for pk in pulled[2:]:
        u += pk
    if vel is None:
        for ks in WEIGHT_CLASSES:
            # w u in float64, rounded to the state dtype as in the loop below
            np.multiply(W[ks.start], u, out=rest, dtype=np.float64)
            rest *= omega
            for k in range(ks.start, ks.stop):
                np.multiply(pulled[k], 1.0 - omega, out=out[k])
                out[k] += rest
        return
    if state.factor is None:
        state.factor = _aligned((9,) + state.shape, np.float64)
    table = state.factor.reshape(9, nodes)
    own = slice(p.rows.start * state.nx, p.rows.stop * state.nx)
    velocity_factor(*(np.ravel(v)[own] for v in _checked(state, vel)),
                    out=table[:, own])
    factor = table[:, lo:hi]
    for ks in WEIGHT_CLASSES:
        # (w_k u) F_k in float64, rounded to the state dtype as a float64
        # equilibrium then astype would, with w_k u formed once per weight
        # class before rest takes its buffer; IEEE addition commutes, so
        # adding p_k (1 - omega) last rounds exactly like (1 - omega) p +
        # omega f_eq
        np.multiply(W[ks.start], u, out=wu, dtype=np.float64)
        for k in range(ks.start, ks.stop):
            np.multiply(wu, factor[k], out=out[k])
        for k in range(ks.start, ks.stop):
            out[k] *= omega
            np.multiply(pulled[k], 1.0 - omega, out=rest)
            out[k] += rest


def apply_bounce_back(state: LatticeState, part: int = 0) -> None:
    """Full bounce-back on the outer ring's nodes in the rows of
    `state.parts[part]`, written into f_new and u.

    Ring node r takes f_new_k = f_opp(k) at r + c_k, wrapping at the
    edges: the population it pulls in the opposite direction, turned
    around. The nodes never collide. `u` on the ring is then their sum in
    direction order, one `np.sum` per side of the ring in those rows.
    """
    f, f_new, u = state.f, state.f_new, state.u
    p = state.parts[part]
    for to, frm in p.walls:
        f_new[to] = f[frm]
    for ys, xs in p.rims:
        np.sum(f_new[..., ys, xs], axis=0, out=u[..., ys, xs])


def solver_step(state: LatticeState, vel_provider: VelocityProvider,
                tau: float, step_index: int, part: int = 0) -> None:
    """Advance the rows of `state.parts[part]` one lattice step in the
    reference order; a one-part state's part 0 is the whole grid.

    Stream, collide with the previously fetched velocity, fetch the field
    for the next step from `vel_provider(step_index)`, then apply the wall
    update; `f_new` and `u` then hold the step's populations and
    macroscopic field. The very first step therefore collides with no
    flow. The provider returns a `VelocityField`, a new one or the same
    one refilled in place, or None for no flow; a field is shape-checked
    here and has its factor built at the collide that uses it.
    """
    stream(state)
    collide(state, state.vel, tau, part)
    state.vel = _checked(state, vel_provider(step_index))
    apply_bounce_back(state, part)
