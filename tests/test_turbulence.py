import numpy as np
import pytest

from ade.errors import ValidationError
from ade.lattice import velocity_factor
from ade.turbulence import TurbulenceGenerator, TurbulenceSpec, limit_velocity

import turbulence_reference

STEPS = (0, 1, 17, 10**6)


def test_spec_defaults_fill_the_band():
    spec = TurbulenceSpec(64)
    assert spec.kappa_min == pytest.approx(2.0 * np.pi / 64)
    assert spec.kappa_max == pytest.approx(1024.0 * 2.0 * np.pi / 64)
    # on small grids the axis Nyquist is the tighter of the two limits
    small = TurbulenceSpec(32)
    assert small.kappa_max == pytest.approx(np.pi * 32)


def test_spec_validation():
    with pytest.raises(ValidationError):
        TurbulenceSpec(1)
    with pytest.raises(ValidationError):
        TurbulenceSpec(32, kappa_min=5.0, kappa_max=1.0)
    with pytest.raises(ValidationError):
        TurbulenceSpec(32, cap=0.0)
    with pytest.raises(ValidationError):
        TurbulenceSpec(32, dt_turb=-1e-6)
    for sharpness in (0.0, -1.0, float("nan")):
        with pytest.raises(ValidationError, match="sharpness"):
            TurbulenceSpec(32, sharpness=sharpness)


def _speed(vx, vy, cap, sharpness=1.0):
    v = limit_velocity(vx, vy, cap, sharpness)
    return np.hypot(v.vx, v.vy)


def test_limit_velocity_shape():
    # along an axis the limited speed is cap * tanh(sharpness * speed / cap)
    v = limit_velocity(np.float64(0.5), np.float64(0.0), 1.0)
    assert v.vx == 0.46211715726000974 and v.vy == 0.0
    assert limit_velocity(np.float64(0.0), np.float64(0.0), 1.0).vx == 0.0
    x = np.linspace(1e-5, 5e-3, 101)
    y = _speed(0.6 * x, 0.8 * x, 1e-3)
    assert np.all(y < 1e-3)
    assert np.all(np.diff(y) > 0.0)
    # higher sharpness saturates faster
    soft = _speed(np.float64(2e-3), np.float64(0.0), 1e-3, sharpness=1.0)
    hard = _speed(np.float64(2e-3), np.float64(0.0), 1e-3, sharpness=4.0)
    assert hard > soft
    for cap in (0.0, -1e-3, np.nan):
        with pytest.raises(ValidationError, match="cap must be positive"):
            limit_velocity(x, x, cap)


def test_limit_velocity_caps_speed_and_keeps_direction():
    v = limit_velocity(np.array([[3e-3]]), np.array([[4e-3]]), 1e-3)
    mag = float(np.hypot(v.vx, v.vy)[0, 0])
    assert mag == 0.0009999092042625951  # 1e-3 * tanh(5)
    assert float(v.vy[0, 0] / v.vx[0, 0]) == 1.3333333333333333


def test_limit_velocity_handles_rest_nodes():
    vx = np.array([[0.0, 1e-12], [2e-3, 0.0]])
    vy = np.array([[0.0, 0.0], [0.0, -3e-3]])
    out = limit_velocity(vx, vy, 1e-3)
    assert np.all(np.isfinite(out.vx)) and np.all(np.isfinite(out.vy))
    assert out.vx[0, 0] == 0.0 and out.vy[0, 0] == 0.0
    # sub-threshold speeds stay essentially at rest
    assert abs(out.vx[0, 1]) <= 1e-12
    assert np.hypot(out.vx, out.vy).max() < 1e-3


def test_generator_is_deterministic_in_seed_and_step():
    spec = TurbulenceSpec(32)
    a = TurbulenceGenerator(spec, 5).generate(3, 1e-4)
    b = TurbulenceGenerator(spec, 5).generate(3, 1e-4)
    assert np.array_equal(a.vx, b.vx) and np.array_equal(a.vy, b.vy)
    c = TurbulenceGenerator(spec, 6).generate(3, 1e-4)
    assert not np.array_equal(a.vx, c.vx)
    d = TurbulenceGenerator(spec, 5).generate(4, 1e-4)
    assert not np.array_equal(a.vx, d.vx)


def test_generated_field_hits_target_rms():
    gen = TurbulenceGenerator(TurbulenceSpec(64), seed=2)
    # far below the cap the limiter is essentially the identity
    v = gen.generate(0, 1e-6)
    assert v.vx.std() == pytest.approx(1e-6, rel=1e-5)
    assert v.vy.std() == pytest.approx(1e-6, rel=1e-5)
    # closer to the cap the tanh squashes the tails a little
    v = gen.generate(0, 1e-4)
    assert v.vx.std() == pytest.approx(1e-4, rel=2e-2)
    assert v.vy.std() == pytest.approx(1e-4, rel=2e-2)
    assert np.hypot(v.vx, v.vy).max() < 1e-3


def test_tiny_target_rms_gives_exact_zero_field():
    gen = TurbulenceGenerator(TurbulenceSpec(16), seed=1)
    v = gen.generate(0, 0.0)
    assert np.all(v.vx == 0.0) and np.all(v.vy == 0.0)
    v = gen.generate(5, 1e-15)
    assert np.all(v.vx == 0.0) and np.all(v.vy == 0.0)
    with pytest.raises(ValidationError):
        gen.generate(0, -1e-3)


def test_spectral_support_stays_in_band():
    # grid wavenumbers are 2*pi times an integer mode count, so a band
    # covering modes 3..8 is [6*pi, 16*pi]
    spec = TurbulenceSpec(64, kappa_min=6.0 * np.pi, kappa_max=16.0 * np.pi)
    gen = TurbulenceGenerator(spec, seed=9)
    u, _ = gen.synthesize(0)
    n = 64
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
    kxx, kyy = np.meshgrid(k1, k1, indexing="ij")
    kmag = np.hypot(kxx, kyy)
    spectrum = np.abs(np.fft.fft2(u))
    outside = (kmag < spec.kappa_min) | (kmag > spec.kappa_max)
    assert spectrum[outside].max() < 1e-12 * spectrum.max()


def test_phases_drift_linearly_with_step():
    gen = TurbulenceGenerator(TurbulenceSpec(16, dt_turb=1e-2), seed=4)
    u0, _ = gen.synthesize(0)
    u1, _ = gen.synthesize(1)
    assert not np.array_equal(u0, u1)
    # dt_turb = 0 freezes the flow
    frozen = TurbulenceGenerator(TurbulenceSpec(16, dt_turb=0.0), seed=4)
    f0, _ = frozen.synthesize(0)
    f9, _ = frozen.synthesize(9)
    assert np.array_equal(f0, f9)


@pytest.mark.parametrize("size, slope, band", [
    (16, -2.0, None),
    (64, -2.0, None),
    (65, -1.5, None),
    (128, -1.5, None),
    (256, -2.0, None),
    (64, -1.5, (6.0 * np.pi, 16.0 * np.pi)),
    (65, -2.0, (3.0, 40.0)),
    (64, -2.0, (6.05 * np.pi, 6.1 * np.pi)),  # no grid mode in the band
])
def test_synthesis_matches_the_reference_bitwise(size, slope, band):
    kappa_min, kappa_max = band or (None, None)
    spec = TurbulenceSpec(size, slope=slope, kappa_min=kappa_min,
                          kappa_max=kappa_max)
    gen = TurbulenceGenerator(spec, seed=5)
    ref = turbulence_reference.RefGenerator(spec, seed=5)
    for step in STEPS:
        for got, want in zip(gen.synthesize(step), ref.synthesize(step)):
            assert got.shape == want.shape == (size, size)
            assert got.tobytes() == want.tobytes()


def _hand_made_fields(cap=1e-3):
    values = np.array([0.0, -0.0, cap, -cap, np.nextafter(cap, 0.0),
                       -np.nextafter(cap, 0.0), 5e-324, -1e-300, 3.7e-4])
    vx, vy = np.meshgrid(values, values)
    yield vx, vy
    yield vy, -vx
    yield np.full((4, 5), -0.0), np.full((4, 5), 0.0)


@pytest.mark.parametrize("size", [16, 64, 65])
def test_velocity_factor_matches_the_reference_bitwise(size):
    gen = TurbulenceGenerator(TurbulenceSpec(size), seed=5)
    fields = [gen.generate(step, 4e-4) for step in STEPS]
    for vx, vy in fields + list(_hand_made_fields()):
        want = turbulence_reference.velocity_factor(vx, vy)
        assert velocity_factor(vx, vy).tobytes() == want.tobytes()
        out = np.full(want.shape, np.nan)  # every slot must be written
        assert velocity_factor(vx, vy, out=out) is out
        assert out.tobytes() == want.tobytes()


def _speed_grid():
    """Component pairs at speeds 1e-12..1e-2, at all four signs, plus
    ±0 and sub-1e-9 nodes."""
    speeds = np.concatenate([np.geomspace(1e-12, 1e-2, 61),
                             [0.0, 1e-10, 9.99e-10, 1e-9]])
    angles = np.linspace(0.0, 2.0 * np.pi, 13)
    s, a = np.meshgrid(speeds, angles)
    yield s * np.cos(a), s * np.sin(a)
    yield from _hand_made_fields()
    yield np.array([[-0.0, 0.0], [5e-10, -0.0]]), np.array([[0.0, -0.0],
                                                          [-0.0, -3e-10]])


def test_limit_velocity_matches_the_frozen_tanh_clamp_bitwise():
    for cap in (1e-3, 1e-2):
        for sharpness in (1.0, 4.0, 0.7):
            for vx, vy in _speed_grid():
                got = limit_velocity(vx, vy, cap, sharpness)
                want = turbulence_reference.limit_velocity(
                    vx, vy, -cap, cap, sharpness)
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes()
    for size in (64, 256):
        spec = TurbulenceSpec(size, sharpness=3.0)
        gen = TurbulenceGenerator(spec, seed=7)
        ref = turbulence_reference.RefGenerator(spec, seed=7)
        for step in (0, 1, 2, 17, 400):
            u, v = ref.synthesize(step)
            u *= 6e-4 / u.std()
            v *= 6e-4 / v.std()
            want = turbulence_reference.limit_velocity(
                u, v, -spec.cap, spec.cap, spec.sharpness)
            for g, w in zip(gen.generate(step, 6e-4), want):
                assert g.tobytes() == w.tobytes()


def test_an_empty_band_is_a_constant_field_error():
    # grid wavenumbers are 2*pi times an integer mode count, and no mode
    # has |kappa| in [6.05*pi, 6.1*pi]: the table keeps no row at all
    spec = TurbulenceSpec(64, kappa_min=6.05 * np.pi, kappa_max=6.1 * np.pi)
    gen = TurbulenceGenerator(spec, seed=3)
    with pytest.raises(ValidationError,
                       match="spectral band produced a constant field"):
        gen.generate(0, 1e-4)
