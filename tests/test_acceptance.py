"""Acceptance gate: one test per shipped guarantee.

Each test pins its tolerances and seeds explicitly and prints a one-line
measurement summary, so `pytest -v` doubles as the acceptance report.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from ade import io, lattice
from ade.analysis import (default_fit_band, fit_amplitude_slope,
                          radial_energy_spectrum)
from ade.corruption import NoiseParams, forward_chain
from ade.reverse import OraclePredictor, ZeroPredictor, sample
from ade.rng import CounterRng
from ade.schedule import (DiffusionSchedule, exp_schedule, fo_to_sigma,
                          plan_intervals, sigma_to_fo)
from ade.turbulence import TurbulenceGenerator, TurbulenceSpec

import lattice_exact
from heat_reference import heat_steps



def test_criterion_1_equilibrium_moments():
    start = time.perf_counter()
    # exact rational identities of the stencil
    w = lattice_exact.W_EXACT
    cx = [int(v) for v in lattice.CX]
    cy = [int(v) for v in lattice.CY]
    assert sum(w) == Fraction(1)
    assert sum(wk * cxk for wk, cxk in zip(w, cx)) == 0
    assert sum(wk * cyk for wk, cyk in zip(w, cy)) == 0
    assert sum(wk * cxk * cxk for wk, cxk in zip(w, cx)) == Fraction(1, 3)
    assert sum(wk * cyk * cyk for wk, cyk in zip(w, cy)) == Fraction(1, 3)
    assert sum(wk * cxk * cyk
               for wk, cxk, cyk in zip(w, cx, cy)) == 0

    # zeroth moment of the discrete equilibrium over random states
    n = 100000
    r = CounterRng(11, 0)
    u = r.uniforms(n)
    theta = 2.0 * np.pi * r.uniforms(n)
    speed = 1e-2 * r.uniforms(n)
    feq = lattice_exact.equilibrium(u, speed * np.cos(theta),
                                    speed * np.sin(theta))
    err_ulp = np.abs(feq.sum(axis=0) - u) / np.spacing(np.abs(u))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: max zeroth-moment error {err_ulp.max():.1f} ulp "
          f"(limit 8), {elapsed:.2f}s")
    assert err_ulp.max() <= 8.0
    assert elapsed < 1.0


def test_criterion_2_matches_independent_heat_solver():
    start = time.perf_counter()
    u0 = np.zeros((64, 64))
    u0[32, 32] = 1.0
    sch = DiffusionSchedule.from_levels([sigma_to_fo(4.0, 64.0)], 64.0)
    chain = forward_chain(u0, sch, seed=0)
    result = chain.snapshots[-1, 0]

    taus, _, _ = sch.per_step()
    reference = heat_steps(u0, (taus - 0.5) / 3.0)

    linf = float(np.abs(result - reference).max())
    rms = float(np.sqrt(np.mean((result - reference) ** 2)))

    # the blurred point source should have spread to sigma = 4 px
    y, x = np.mgrid[0:64, 0:64].astype(np.float64)
    mass = result.sum()
    cy, cx = (result * y).sum() / mass, (result * x).sum() / mass
    var = (result * ((y - cy) ** 2 + (x - cx) ** 2)).sum() / mass
    sigma_emp = float(np.sqrt(var / 2.0))

    elapsed = time.perf_counter() - start
    print(f"criterion 2: Linf {linf:.2e} (limit 1e-3), rms {rms:.2e} "
          f"(limit 1e-4), width {sigma_emp:.3f} px, {elapsed:.2f}s")
    assert linf <= 1e-3
    assert rms <= 1e-4
    assert sigma_emp == pytest.approx(4.0, rel=0.02)
    assert elapsed < 30.0


def _run_closed_box(dtype):
    u0 = CounterRng(99, 0).uniforms(4096).reshape(64, 64)
    gen = TurbulenceGenerator(TurbulenceSpec(64), seed=5)
    provider = lambda step: gen.generate(step, 2.2e-4)
    state = lattice.init_from_image(u0, dtype=dtype)
    ref = float(np.sum(u0, dtype=np.float64))
    for step in range(1000):
        lattice.solver_step(state, provider, 0.8, step)
    total = float(np.sum(state.u, dtype=np.float64))
    return abs(total - ref) / ref


def test_criterion_3_mass_conservation_in_a_closed_box():
    start = time.perf_counter()
    drift64 = _run_closed_box(np.float64)
    drift32 = _run_closed_box(np.float32)
    elapsed = time.perf_counter() - start
    print(f"criterion 3: drift f64 {drift64:.2e} (limit 1e-10), "
          f"f32 {drift32:.2e} (limit 1e-4), {elapsed:.2f}s")
    assert drift64 <= 1e-10
    assert drift32 <= 1e-4
    assert elapsed < 30.0


def test_criterion_4_turbulence_spectrum_slope_and_cap():
    start = time.perf_counter()
    spec = TurbulenceSpec(64)
    band = default_fit_band(64, spec.kappa_min, spec.kappa_max)
    assert band == (5, 12)
    slopes = []
    max_speed = 0.0
    for seed in range(10):
        v = TurbulenceGenerator(spec, seed).generate(0, 1e-3)
        prof = radial_energy_spectrum(v.vx)
        slopes.append(fit_amplitude_slope(prof, band).slope)
        max_speed = max(max_speed, float(np.hypot(v.vx, v.vy).max()))
    median = float(np.median(slopes))
    elapsed = time.perf_counter() - start
    print(f"criterion 4: median amplitude slope {median:.3f} "
          f"(window [-2.3, -1.7]), max speed {max_speed:.2e} "
          f"(cap 1e-3), {elapsed:.2f}s")
    assert -2.3 <= median <= -1.7
    assert max_speed <= 1e-3
    assert elapsed < 10.0


def test_criterion_5_oracle_reverse_walk_is_bitwise():
    start = time.perf_counter()
    levels = [sigma_to_fo(0.5, 28.0), sigma_to_fo(7.0, 28.0)]
    sigma_s = NoiseParams().sigma_sample
    exact = 0
    combos = 0
    for pe in (0.0, 0.06, 0.14):
        sch = DiffusionSchedule.build(levels[0], levels[1], 6, 28.0,
                                      peclet=pe)
        for trial in range(20):
            u0 = 0.25 + 0.5 * CounterRng(1000 + trial, 3).uniforms(
                784).reshape(28, 28)
            chain = forward_chain(u0, sch, seed=trial)
            for sigma in (0.0, sigma_s):
                out = sample(chain.prior, OraclePredictor(chain),
                             chain.chain_length, sigma,
                             CounterRng(50 + trial, 0))
                combos += 1
                exact += int(np.array_equal(out, chain.snapshots[0]))
            # an all-zero predictor without noise must be the identity
            idle = sample(chain.prior, ZeroPredictor(),
                          chain.chain_length, 0.0,
                          CounterRng(50 + trial, 0))
            assert np.array_equal(idle, chain.prior)
    elapsed = time.perf_counter() - start
    print(f"criterion 5: {exact}/{combos} reconstructions bitwise exact, "
          f"{elapsed:.2f}s")
    assert exact == combos == 120
    assert elapsed < 10.0


def test_criterion_6_schedule_exactness():
    start = time.perf_counter()
    fo = exp_schedule(1e-4, 0.03125, 9)
    end_err = max(abs(fo[0] - 1e-4) / 1e-4,
                  abs(fo[-1] - 0.03125) / 0.03125)
    assert end_err <= 1e-15

    budget_err = 0.0
    ivs = plan_intervals(np.concatenate([[0.0], fo]), 64.0, peclet=0.1)
    prev = 0.0
    for level, iv in zip(fo, ivs):
        budget = (level - prev) * 64.0 ** 2
        budget_err = max(budget_err,
                         abs(iv.n_steps * iv.alpha - budget) / budget)
        prev = level
    assert budget_err <= 1e-12

    trip_err = 0.0
    for length in (28.0, 64.0, 128.0):
        for sigma in (0.5, 1.0, 3.7, 16.0):
            back = fo_to_sigma(sigma_to_fo(sigma, length), length)
            trip_err = max(trip_err, abs(back - sigma) / sigma)
    assert trip_err <= 1e-14
    elapsed = time.perf_counter() - start
    print(f"criterion 6: endpoint err {end_err:.1e}, budget err "
          f"{budget_err:.1e}, round-trip err {trip_err:.1e}, {elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_7_chain_transfers_across_resolutions():
    start = time.perf_counter()
    y, x = np.mgrid[0:32, 0:32] / 32.0
    u32 = (0.5 + 0.25 * np.sin(2 * np.pi * 2 * x) * np.cos(2 * np.pi * 3 * y)
           + 0.15 * np.cos(2 * np.pi * (x + y))
           + 0.05 * CounterRng(7, 0).uniforms(1024).reshape(32, 32))
    u64 = np.repeat(np.repeat(u32, 2, axis=0), 2, axis=1)
    fo = exp_schedule(1e-4, 0.02, 5)
    c32 = forward_chain(u32, DiffusionSchedule.from_levels(fo, 32.0), seed=0)
    c64 = forward_chain(u64, DiffusionSchedule.from_levels(fo, 64.0), seed=0)
    worst = 0.0
    for k in range(c32.snapshots.shape[0]):
        down = c64.snapshots[k, 0].reshape(32, 2, 32, 2).mean(axis=(1, 3))
        # walls carry a resolution-dependent reflection layer; compare the
        # interior, where the two discretizations describe the same physics
        diff = np.abs(down[1:-1, 1:-1] - c32.snapshots[k, 0][1:-1, 1:-1])
        worst = max(worst, float(diff.max()))
    elapsed = time.perf_counter() - start
    print(f"criterion 7: worst interior Linf {worst:.2e} (limit 5e-2), "
          f"{elapsed:.2f}s")
    assert worst <= 5e-2
    assert elapsed < 30.0


def test_criterion_8_high_band_energy_decays_monotonically():
    start = time.perf_counter()
    schedules = [
        DiffusionSchedule.build(1e-4, 0.02, 6, 64.0),
        DiffusionSchedule.build(5e-4, 0.03125, 4, 64.0),
        DiffusionSchedule.build(1e-3, 0.01, 8, 64.0),
    ]
    min_margin = np.inf
    for sch in schedules:
        for seed in range(5):
            u0 = CounterRng(200 + seed, 1).uniforms(4096).reshape(64, 64)
            chain = forward_chain(u0, sch, seed=seed)
            series = []
            for k in range(chain.snapshots.shape[0]):
                inner = chain.snapshots[k, 0][1:-1, 1:-1]
                mtop = inner.shape[0] // 2
                series.append(radial_energy_spectrum(inner).band_energy(
                    int(np.ceil(0.75 * mtop)), mtop))
            series = np.array(series)
            assert np.all(np.diff(series) <= 0.0)
            min_margin = min(min_margin,
                             float((-np.diff(series) / series[:-1]).min()))
    elapsed = time.perf_counter() - start
    print(f"criterion 8: 15/15 chains non-increasing, smallest per-level "
          f"decay {100 * min_margin:.1f}%, {elapsed:.2f}s")
    assert elapsed < 20.0


def _cli(run_ade, args, cwd, env_extra=None):
    proc = run_ade(args, cwd, env_extra)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_9_manifest_replay_is_byte_identical(tmp_path, run_ade):
    start = time.perf_counter()
    field = 0.3 + 0.4 * CounterRng(77, 0).uniforms(256).reshape(16, 16)
    io.write_image(tmp_path / "input.pgm", field[None], maxval=255)
    _cli(run_ade, ["corrupt", "--in", "input.pgm", "--out", "run1",
                   "--steps", "3", "--sigma-max", "2", "--pe", "0.05",
                   "--seed", "11"], tmp_path)
    sha1 = io.file_sha256(tmp_path / "run1" / "chain.adet")

    _cli(run_ade, ["corrupt", "--config", "run1/manifest.txt",
                   "--out", "run2"], tmp_path)
    assert io.file_sha256(tmp_path / "run2" / "chain.adet") == sha1

    threads = {"OMP_NUM_THREADS": "4", "OPENBLAS_NUM_THREADS": "4",
               "MKL_NUM_THREADS": "4"}
    _cli(run_ade, ["corrupt", "--config", "run1/manifest.txt",
                   "--out", "run3"], tmp_path, env_extra=threads)
    assert io.file_sha256(tmp_path / "run3" / "chain.adet") == sha1

    _cli(run_ade, ["reverse", "--chain", "run1/chain.adet", "--out", "rev1",
                   "--seed", "5"], tmp_path)
    sha_rev = io.file_sha256(tmp_path / "rev1" / "recon.adet")
    _cli(run_ade, ["reverse", "--config", "rev1/manifest.txt",
                   "--out", "rev2"], tmp_path, env_extra=threads)
    assert io.file_sha256(tmp_path / "rev2" / "recon.adet") == sha_rev

    elapsed = time.perf_counter() - start
    print(f"criterion 9: corrupt and reverse replays byte-identical "
          f"across thread settings, {elapsed:.2f}s")
    assert elapsed < 20.0


def _advect_gaussian(v: float, size: int = 128, sigma0: float = 4.0):
    """Run a Gaussian through 16/v steps of a uniform flow (v, v/2) with
    alpha = sigma0^2 / (2 steps). Returns the Linf distance to the
    analytic Gaussian over its peak, and the measured and analytic
    per-axis centroid shift and variance."""
    steps = round(16.0 / v)
    alpha = sigma0 ** 2 / (2.0 * steps)
    flow = lattice.VelocityField(np.full((size, size), v),
                                 np.full((size, size), v / 2.0))
    y, x = np.mgrid[0:size, 0:size].astype(np.float64)
    x0, y0 = size / 2 - 8, size / 2 - 4
    state = lattice.init_from_image(
        np.exp(-((x - x0) ** 2 + (y - y0) ** 2) / (2.0 * sigma0 ** 2)))
    tau = lattice.tau_from_alpha(alpha)
    for g in range(steps):
        lattice.solver_step(state, lambda step: flow, tau, g)
    u = state.u
    mass = u.sum()
    # the first step collides with no flow: steps - 1 of them advect
    shift = np.array([v, v / 2.0]) * (steps - 1)
    variance = sigma0 ** 2 + 2.0 * alpha * steps
    xc, yc = x0 + shift[0], y0 + shift[1]
    peak = sigma0 ** 2 / variance  # the mass of the start, spread wider
    exact = peak * np.exp(-((x - xc) ** 2 + (y - yc) ** 2) / (2.0 * variance))
    cx, cy = (u * x).sum() / mass, (u * y).sum() / mass
    measured_shift = np.array([cx - x0, cy - y0])
    measured_var = np.array([(u * (x - cx) ** 2).sum() / mass,
                             (u * (y - cy) ** 2).sum() / mass])
    linf = float(np.abs(u - exact).max()) / peak
    return linf, measured_shift, shift, measured_var, variance


@pytest.mark.parametrize("v", [1e-2, 1e-3])
def test_criterion_11_uniform_flow_advects_and_diffuses_a_gaussian(v):
    start = time.perf_counter()
    linf, shift, want_shift, var, want_var = _advect_gaussian(v)
    shift_err = shift / want_shift - 1.0
    var_err = var / want_var - 1.0
    elapsed = time.perf_counter() - start
    print(f"criterion 11 (v={v:g}): centroid error "
          f"{100 * shift_err[0]:+.3f}%/{100 * shift_err[1]:+.3f}% "
          f"(limit 0.2%), variance error {100 * var_err[0]:+.2f}%/"
          f"{100 * var_err[1]:+.2f}% (limit 1%), Linf {100 * linf:.2f}% "
          f"of the peak (limit 2%), {elapsed:.2f}s")
    assert np.all(np.abs(shift_err) <= 2e-3)
    assert np.all(np.abs(var_err) <= 1e-2)
    assert linf <= 2e-2
    assert elapsed < 30.0
