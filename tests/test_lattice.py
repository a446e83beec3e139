import math
import mmap
from fractions import Fraction

import numpy as np
import pytest

from ade import lattice
from ade.corruption import forward_chain
from ade.errors import (DegenerateDomainError, ShapeMismatchError,
                        StabilityError, ValidationError)
from ade.lattice import LatticeState, VelocityField
from ade.rng import CounterRng
from ade.schedule import DiffusionSchedule, sigma_to_fo
from ade.turbulence import TurbulenceGenerator, TurbulenceSpec

import lattice_exact
import lattice_reference


INNER = (..., slice(1, -1), slice(1, -1))


def _pulled(f):
    """The populations each node pulls, f_k at x - c_k wrapping at the
    edges, built with `np.roll`."""
    return np.stack([np.roll(f[k], (int(lattice.CY[k]), int(lattice.CX[k])),
                             axis=(-2, -1)) for k in range(9)])


def _ring(shape):
    ring = np.ones(shape, dtype=bool)
    ring[1:-1, 1:-1] = False
    return ring


def _zero_provider(shape):
    z = np.zeros(shape)
    return lambda step: VelocityField(z, z)


def test_stencil_constants():
    assert lattice.W.sum() == 1.0
    assert sum(lattice_exact.W_EXACT) == 1
    assert lattice_exact.CS2_EXACT == Fraction(1, 3)
    # opposite of opposite is the identity, and directions flip
    opp = lattice.OPPOSITE
    assert np.array_equal(opp[opp], np.arange(9))
    assert np.array_equal(lattice.CX[opp], -lattice.CX)
    assert np.array_equal(lattice.CY[opp], -lattice.CY)
    # isotropy: second moment of the weights equals the lattice sound speed
    second = sum(w * int(cx) * int(cx)
                 for w, cx in zip(lattice_exact.W_EXACT, lattice.CX))
    assert second == Fraction(1, 3)


def test_equilibrium_frozen_values():
    u = np.array([[1.0]])
    feq = lattice_exact.equilibrium(u, np.array([[0.1]]),
                                    np.array([[0.0]]))
    assert feq[0, 0, 0] == 0.43777777777777777
    assert feq[1, 0, 0] == 0.14777777777777779
    assert feq[3, 0, 0] == 0.0811111111111111
    assert feq.sum() == 1.0


def test_equilibrium_sums_back_to_u():
    r = CounterRng(11, 0)
    u = r.uniforms(500).reshape(20, 25)
    theta = 2.0 * np.pi * r.uniforms(500).reshape(20, 25)
    speed = 1e-2 * r.uniforms(500).reshape(20, 25)
    feq = lattice_exact.equilibrium(u, speed * np.cos(theta),
                                    speed * np.sin(theta))
    err_ulp = np.abs(feq.sum(axis=0) - u) / np.spacing(np.abs(u))
    assert err_ulp.max() <= 8.0


def test_alpha_tau_conversions():
    assert lattice.alpha_from_tau(0.65) == pytest.approx(0.05, rel=1e-15)
    assert lattice.tau_from_alpha(0.125) == 0.875
    assert lattice.tau_from_alpha(lattice.alpha_from_tau(0.875)) == 0.875
    with pytest.raises(StabilityError):
        lattice.alpha_from_tau(0.5)
    with pytest.raises(StabilityError):
        lattice.tau_from_alpha(0.0)
    with pytest.raises(StabilityError):
        lattice.tau_from_alpha(-0.1)


def test_init_fills_both_buffers_with_weighted_field():
    u0 = np.linspace(0.1, 0.9, 35).reshape(5, 7)
    st = lattice.init_from_image(u0)
    assert st.f.shape == (9, 5, 7)
    expect = lattice.W[:, None, None] * u0[None]
    assert np.array_equal(st.f, expect)
    assert np.array_equal(st.f_new, expect)
    assert np.max(np.abs(st.u - u0)) <= 4e-16


def test_init_rejects_degenerate_grids():
    with pytest.raises(DegenerateDomainError):
        lattice.init_from_image(np.zeros((2, 4)))
    with pytest.raises(DegenerateDomainError):
        LatticeState(8, 2)


def test_init_rejects_an_empty_channel_axis():
    with pytest.raises(ShapeMismatchError, match="C >= 1"):
        lattice.init_from_image(np.zeros((0, 8, 8)))
    sch = DiffusionSchedule.from_levels([sigma_to_fo(1.0, 8)], 8.0)
    with pytest.raises(ShapeMismatchError):
        forward_chain(np.zeros((0, 8, 8)), sch, seed=0)


def test_float32_state_keeps_requested_dtype():
    st = lattice.init_from_image(np.full((4, 4), 0.5), dtype=np.float32)
    assert st.f.dtype == np.float32
    lattice.collide(st, VelocityField(np.zeros((4, 4)), np.zeros((4, 4))),
                    0.8)
    assert st.f_new.dtype == np.float32


def test_stream_moves_a_pulse_and_wraps():
    st = LatticeState(5, 5)
    st.f_new[:] = 0.0
    st.f_new[1, 2, 2] = 1.0   # direction (+1, 0)
    st.f_new[2, 4, 1] = 2.0   # direction (0, +1), pulls off the top edge
    last = st.f_new
    lattice.stream(st)
    assert st.f is last  # the step pulls from the last step's output
    lattice.collide(st, None, 1.0)
    lattice.apply_bounce_back(st)
    assert st.u[2, 3] == 1.0  # pulled one node along +x
    assert st.f_new[1, 2, 3] == lattice.W[1]
    # pulled across the wrap onto the ring, then turned around by the wall
    assert st.u[0, 1] == 2.0
    assert st.f_new[4, 0, 1] == 2.0
    assert st.u.sum() == 3.0


def test_stream_is_a_permutation():
    st = LatticeState(9, 6)
    st.f_new[:] = CounterRng(3, 0).uniforms(9 * 6 * 9).reshape(9, 6, 9)
    last, other = st.f_new.copy(), st.f
    lattice.stream(st)
    # the buffers trade places, so no value is copied, made or lost
    assert st.f_new is other and np.array_equal(st.f, last)
    lattice.collide(st, None, 0.8)
    lattice.apply_bounce_back(st)
    # every value is pulled by exactly one node: the mass survives
    before = float(np.sum(last, dtype=np.float64))
    assert float(np.sum(st.u, dtype=np.float64)) == pytest.approx(before,
                                                                  abs=1e-13)
    assert np.array_equal(st.u[INNER], _pulled(last).sum(axis=0)[INNER])


def test_collide_frozen_single_node():
    st = LatticeState(3, 3)
    st.f[:] = 0.0
    st.f[0, 1, 1] = 1.0
    vel = VelocityField(np.zeros((3, 3)), np.zeros((3, 3)))
    lattice.collide(st, vel, 2.0)
    assert st.f_new[0, 1, 1] == 0.7222222222222222
    assert st.f_new[1, 1, 1] == 0.05555555555555555


def test_collide_at_tau_one_lands_on_equilibrium():
    st = LatticeState(4, 4)
    st.f[:] = CounterRng(8, 0).uniforms(9 * 16).reshape(9, 4, 4)
    vx = np.full((4, 4), 2e-3)
    vy = np.full((4, 4), -1e-3)
    lattice.collide(st, VelocityField(vx, vy), 1.0)
    feq = lattice_exact.equilibrium(_pulled(st.f).sum(axis=0), vx, vy)
    assert np.array_equal(st.f_new[INNER], feq[INNER])


def test_collide_preserves_node_mass():
    st = LatticeState(6, 6)
    st.f[:] = CounterRng(21, 0).uniforms(9 * 36).reshape(9, 6, 6)
    vx = 1e-3 * (CounterRng(21, 1).uniforms(36).reshape(6, 6) - 0.5)
    vy = 1e-3 * (CounterRng(21, 2).uniforms(36).reshape(6, 6) - 0.5)
    before = _pulled(st.f).sum(axis=0)
    lattice.collide(st, VelocityField(vx, vy), 0.8)
    assert np.max(np.abs(st.f_new.sum(axis=0) - before)[INNER]) < 1e-14


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_collide_matches_the_bgk_formula_bitwise(dtype):
    u0 = CounterRng(22, 0).uniforms(3 * 36).reshape(3, 6, 6)
    st = lattice.init_from_image(u0, dtype=dtype)
    st.f[:] = CounterRng(22, 1).uniforms(9 * 3 * 36).reshape(9, 3, 6, 6)
    vx = 1e-2 * (CounterRng(22, 2).uniforms(36).reshape(6, 6) - 0.5)
    vy = 1e-2 * (CounterRng(22, 3).uniforms(36).reshape(6, 6) - 0.5)
    tau = 0.8
    pulled = _pulled(st.f)
    u = pulled.sum(axis=0)
    feq = lattice_exact.equilibrium(u, vx, vy).astype(dtype)
    expect = (1.0 - 1.0 / tau) * pulled + (1.0 / tau) * feq
    lattice.collide(st, VelocityField(vx, vy), tau)
    assert st.f_new.dtype == expect.dtype == dtype
    assert st.f_new[INNER].tobytes() == expect[INNER].tobytes()
    assert st.u[INNER].tobytes() == u[INNER].tobytes()


def test_collide_validates_tau_and_shapes():
    st = LatticeState(4, 4)
    good = VelocityField(np.zeros((4, 4)), np.zeros((4, 4)))
    with pytest.raises(StabilityError):
        lattice.collide(st, good, 0.5)
    with pytest.raises(ShapeMismatchError):
        lattice.collide(st, VelocityField(np.zeros((3, 4)), np.zeros((4, 4))),
                        0.8)


def test_bounce_back_swaps_ring_pairs_and_publishes():
    st = LatticeState(5, 4)
    st.f[:] = CounterRng(14, 0).uniforms(9 * 4 * 5).reshape(9, 4, 5)
    st.f_new[:] = -1.0
    st.u[:] = -1.0
    before = st.f.copy()
    lattice.apply_bounce_back(st)
    pulled, ring = _pulled(before), _ring((4, 5))
    # every ring node (corners once) turns each pulled population around
    for a in range(9):
        assert np.array_equal(st.f_new[a][ring],
                              pulled[lattice.OPPOSITE[a]][ring]), a
    # f is only read, and the interior is left to collide
    assert np.array_equal(st.f, before)
    assert np.all(st.f_new[INNER] == -1.0)
    assert np.all(st.u[INNER] == -1.0)
    # the ring's macroscopic field sums what the ring now holds, in order
    assert np.array_equal(st.u[ring], st.f_new.sum(axis=0)[ring])


def test_first_step_collides_with_zero_velocity():
    """The velocity fetched at step n acts from step n+1 on."""
    u0 = CounterRng(17, 0).uniforms(64).reshape(8, 8)
    big = np.full((8, 8), 5e-2)
    zero = np.zeros((8, 8))

    st_a = lattice.init_from_image(u0)
    st_b = lattice.init_from_image(u0)
    lattice.solver_step(st_a, lambda s: VelocityField(big, zero), 0.8, 0)
    lattice.solver_step(st_b, lambda s: VelocityField(zero, zero), 0.8, 0)
    # the differing fetch is stored but has not influenced the physics yet
    assert np.array_equal(st_a.f_new, st_b.f_new)
    assert st_a.vel.vx[0, 0] == 5e-2 and st_b.vel.vx[0, 0] == 0.0

    lattice.solver_step(st_a, lambda s: VelocityField(big, zero), 0.8, 1)
    lattice.solver_step(st_b, lambda s: VelocityField(zero, zero), 0.8, 1)
    assert not np.array_equal(st_a.f_new, st_b.f_new)


def test_solver_step_rejects_bad_provider_shape():
    st = lattice.init_from_image(np.full((6, 6), 0.5))
    bad = lambda s: VelocityField(np.zeros((5, 6)), np.zeros((5, 6)))
    with pytest.raises(ShapeMismatchError):
        lattice.solver_step(st, bad, 0.8, 0)


def test_mass_is_conserved_over_many_steps():
    u0 = CounterRng(99, 1).uniforms(64).reshape(8, 8)
    st = lattice.init_from_image(u0)
    provider = _zero_provider((8, 8))
    ref = float(np.sum(u0, dtype=np.float64))
    for step in range(100):
        lattice.solver_step(st, provider, 0.8, step)
    total = float(np.sum(st.u, dtype=np.float64))
    assert abs(total - ref) / ref < 1e-12


def _still_provider(shape):
    zero = np.zeros(shape)
    still = VelocityField(zero, zero)
    return lambda step: still


def _turbulent_provider(size, seed=5):
    gen = TurbulenceGenerator(TurbulenceSpec(size=size, cap=3e-2), seed)
    return lambda step: gen.generate(step, 1e-2)


def _random_provider(shape, seed=6):
    """A new field with new values at every step."""
    def provider(step):
        r = CounterRng(seed, step)
        n = shape[0] * shape[1]
        return VelocityField(4e-2 * (r.uniforms(n).reshape(shape) - 0.5),
                             4e-2 * (r.uniforms(n).reshape(shape) - 0.5))
    return provider


def _switching_provider(size):
    """Still for steps 0-99, turbulent for 100-199, then a new field of
    signed zeros: the still flag has to flip both ways."""
    zero = np.zeros((size, size))
    still, turbulent = VelocityField(zero, zero), _turbulent_provider(size)
    minus = np.full((size, size), -0.0)
    signed = VelocityField(minus, minus.copy())

    def provider(step):
        if step < 100:
            return still
        return turbulent(step) if step < 200 else signed
    return provider


def _run_both(u0, make_provider, dtype, steps, each=None):
    """Step the kernels and the reference from u0 side by side, calling
    `each(step, st, ref)` after every step."""
    st = lattice.init_from_image(u0, dtype=dtype)
    ref = lattice_reference.RefState(u0, dtype=dtype)
    provider, ref_provider = make_provider(), make_provider()
    for step in range(steps):
        tau = 0.55 + 0.45 * ((7 * step) % 11) / 10.0
        lattice.solver_step(st, provider, tau, step)
        lattice_reference.solver_step(ref, ref_provider, tau, step)
        if each is not None:
            each(step, st, ref)
    return st, ref


_REFERENCE_CASES = {
    "still": ((3, 16, 16), lambda: _still_provider((16, 16))),
    "turbulent": ((3, 16, 16), lambda: _turbulent_provider(16)),
    "rgb_nonsquare_pe0": ((3, 12, 20), lambda: _still_provider((12, 20))),
    "switching": ((3, 16, 16), lambda: _switching_provider(16)),
    # the smallest grids, where the ring is most of the nodes: 3x3 has one
    # node that collides, 3x11 one row and 11x3 one column
    "grid_3x3": ((1, 3, 3), lambda: _random_provider((3, 3))),
    "grid_3x11": ((2, 3, 11), lambda: _random_provider((3, 11))),
    "grid_11x3": ((2, 11, 3), lambda: _random_provider((11, 3))),
    "gray_2d": ((16, 16), lambda: _switching_provider(16)),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_step_matches_the_reference_bitwise(case, dtype):
    shape, make_provider = _REFERENCE_CASES[case]
    u0 = CounterRng(23, 0).uniforms(int(np.prod(shape))).reshape(shape)

    def same(step, st, ref):
        assert st.f_new.tobytes() == ref.f_new.tobytes(), step
        assert st.u.tobytes() == ref.f.sum(axis=0).tobytes(), step

    st, ref = _run_both(u0, make_provider, dtype, 300, same)
    assert st.f_new.dtype == ref.f_new.dtype == dtype
    assert np.isfinite(st.f_new).all()


def test_a_new_field_every_step_is_honoured():
    u0 = CounterRng(24, 0).uniforms(2 * 10 * 10).reshape(2, 10, 10)
    st, ref = _run_both(u0, lambda: _random_provider((10, 10)),
                        np.float64, 40)
    assert st.f_new.tobytes() == ref.f_new.tobytes()
    # the fields differ from step to step, so a stale table would show
    still, _ = _run_both(u0, lambda: _still_provider((10, 10)),
                         np.float64, 40)
    assert still.f_new.tobytes() != st.f_new.tobytes()


def test_factor_is_built_at_every_collide_with_a_flow(monkeypatch):
    builds = []
    real = lattice.velocity_factor

    def counting(vx, vy, out=None):
        builds.append(1)
        return real(vx, vy, out)

    monkeypatch.setattr(lattice, "velocity_factor", counting)
    first, second = (VelocityField(np.full((8, 8), v), np.zeros((8, 8)))
                     for v in (1e-2, -1e-2))
    st = lattice.init_from_image(CounterRng(25, 0).uniforms(64).reshape(8, 8))
    assert st.vel is None  # the first step collides with no flow
    for step in range(20):
        lattice.solver_step(st, lambda s: first if s < 10 else second,
                            0.8, step)
    assert len(builds) == 19  # steps 1-19, one build each
    st = lattice.init_from_image(np.full((8, 8), 0.5))
    for step in range(20):
        lattice.solver_step(st, lambda s: None, 0.8, step)
    assert len(builds) == 19  # no flow needs no table


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_still_flow_does_not_read_the_factor_table(dtype):
    u0 = CounterRng(27, 0).uniforms(2 * 9 * 11).reshape(2, 9, 11)
    st = lattice.init_from_image(u0, dtype=dtype)
    ref = lattice_reference.RefState(u0, dtype=dtype)
    ref_provider = _still_provider((9, 11))
    assert st.factor is None  # a new state holds no table
    for step in range(22):
        lattice.solver_step(st, lambda s: None, 0.8, step)
        lattice_reference.solver_step(ref, ref_provider, 0.8, step)
    assert st.vel is None and st.factor is None
    assert st.f_new.tobytes() == ref.f_new.tobytes()

    moving = VelocityField(np.full((9, 11), 1e-2), np.zeros((9, 11)))
    lattice.collide(st, moving, 0.8)
    assert st.factor.shape == (9, 9, 11)
    assert np.isfinite(st.f_new).all()
    table = st.factor
    table[...] = np.nan
    lattice.collide(st, None, 0.8)
    assert np.isfinite(st.f_new).all()  # the table was not read
    lattice.collide(st, VelocityField(moving.vy, moving.vx), 0.8)
    assert st.factor is table  # rebuilt in place
    assert np.array_equal(table, lattice.velocity_factor(moving.vy,
                                                         moving.vx))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_field_refilled_in_place_equals_fresh_fields(dtype):
    u0 = CounterRng(28, 0).uniforms(3 * 16 * 16).reshape(3, 16, 16)
    fresh = _turbulent_provider(16)
    one = VelocityField(np.empty((16, 16)), np.empty((16, 16)))

    def refilled(step):
        vx, vy = fresh(step)
        one.vx[...] = vx
        one.vy[...] = vy
        return one

    st_fresh = lattice.init_from_image(u0, dtype=dtype)
    st_one = lattice.init_from_image(u0, dtype=dtype)
    for step in range(30):
        lattice.solver_step(st_fresh, fresh, 0.8, step)
        lattice.solver_step(st_one, refilled, 0.8, step)
    assert st_one.vel is one
    assert st_one.f_new.tobytes() == st_fresh.f_new.tobytes()


def test_unsupported_dtype_is_a_validation_error():
    with pytest.raises(ValidationError, match="unsupported dtype"):
        lattice.init_from_image(np.full((4, 4), 0.5), dtype=np.int32)
    with pytest.raises(ValueError):  # still a ValueError for old callers
        LatticeState(4, 4, dtype=np.float16)


def test_stream_equals_roll_in_every_direction():
    st = LatticeState(7, 5, channels=(3,))
    last = CounterRng(26, 0).uniforms(9 * 3 * 5 * 7).reshape(9, 3, 5, 7)
    st.f_new[:] = last
    lattice.stream(st)
    lattice.collide(st, None, 2.0)
    lattice.apply_bounce_back(st)
    # at tau = 2 each f_new_k keeps half of the p_k it pulled, so a wrong
    # shift in any one direction shows in that direction
    pulled, ring = _pulled(last), _ring((5, 7))
    u = pulled.sum(axis=0)
    for k in range(9):
        expect = pulled[k] * 0.5 + (lattice.W[k] * u) * 0.5
        assert np.array_equal(st.f_new[k][INNER], expect[INNER]), k
        back = pulled[lattice.OPPOSITE[k]]
        assert np.array_equal(st.f_new[k][:, ring], back[:, ring]), k


def _line_offsets(rows, first, plane):
    """Offsets mod 64 of element `first` of each row of `rows`, or of the
    first row only when a plane of `plane` elements is not a whole number
    of 64-byte lines."""
    n = rows.shape[0] if plane * rows.itemsize % 64 == 0 else 1
    return {(rows.ctypes.data + first * rows.itemsize
             + i * rows.strides[0]) % 64 for i in range(n)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 256, 256), (3, 64, 64), (2, 37, 53)])
def test_every_store_starts_on_a_cache_line(shape, dtype):
    _, h, w = shape
    plane = h * w
    u0 = CounterRng(27, 0).uniforms(math.prod(shape)).reshape(shape)
    for parts in (1, 2):
        st = lattice.init_from_image(u0, dtype=dtype, parts=parts)
        lo = st.parts[0].span.start
        # the second part's span starts a line when the rows between the
        # two starts fill whole lines
        second = [p.span.start for p in st.parts[1:]
                  if (p.span.start - lo) * st.f.itemsize % 64 == 0]
        assert len(second) == (parts == 2 and shape != (2, 37, 53))

        def starts():
            return set().union(*(
                _line_offsets(st.f.reshape(-1, plane), first, plane)
                | _line_offsets(st.f_new.reshape(-1, plane), first, plane)
                | _line_offsets(st.u.reshape(-1, plane), first, plane)
                for first in [lo] + second), *(
                _line_offsets(p.wu, 0, plane) | _line_offsets(p.rest, 0, plane)
                for p in st.parts))

        assert starts() == {0}
        for part in range(parts):
            lattice.solver_step(st, _random_provider((h, w)), 0.8, 0, part)
            lattice.solver_step(st, _random_provider((h, w)), 0.8, 1,
                                part)  # a flow
        assert starts() == {0}  # after an even number of `stream` swaps
        lattice.stream(st)
        assert starts() == {0}
        assert _line_offsets(st.factor.reshape(9, plane), 0, plane) == {0}


def _placed_at(offset):
    """`lattice._aligned`, but with flat element `first` at `offset` mod
    64 bytes."""
    def place(shape, dtype, first=0, shared=False):
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        raw = (np.frombuffer(mmap.mmap(-1, size + 64), dtype=np.uint8)
               if shared else np.zeros(size + 64, dtype=np.uint8))
        skip = (offset - raw.ctypes.data - first * dtype.itemsize) % 64
        return raw[skip:skip + size].view(dtype).reshape(shape)
    return place


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("peclet", [0.0, 0.1])
def test_alignment_changes_no_byte(monkeypatch, peclet, dtype):
    # a leading zero-step level, and odd planes, so that later channels
    # and directions sit at other offsets than the first
    sch = DiffusionSchedule.from_levels(
        [0.0] + [sigma_to_fo(s, 21) for s in (0.7, 1.5)], 21.0,
        peclet=peclet)
    u0 = CounterRng(28, 0).uniforms(3 * 21 * 21).reshape(3, 21, 21)
    chains = {}
    for offset in range(0, 64, 8):
        monkeypatch.setattr(lattice, "_aligned", _placed_at(offset))
        st = lattice.init_from_image(u0, dtype=dtype)
        assert st.f.ctypes.data % 64 == (offset - st.parts[0].span.start
                                         * st.f.itemsize) % 64
        chains[offset] = forward_chain(u0, sch, 5, dtype=dtype).snapshots
    assert len({c.tobytes() for c in chains.values()}) == 1
    assert not np.array_equal(chains[0][1], chains[0][-1])
