import numpy as np
import pytest

from ade import schedule
from ade.errors import ScheduleError, StabilityError, ValidationError
from ade.schedule import DiffusionSchedule, Interval


def test_exp_schedule_power_of_two_ladder_is_exact():
    fo = schedule.exp_schedule(1.0 / 1024, 1.0 / 64, 5)
    assert fo.tolist() == [1.0 / 1024, 1.0 / 512, 1.0 / 256, 1.0 / 128,
                           1.0 / 64]


def test_exp_schedule_pins_endpoints_exactly():
    fo = schedule.exp_schedule(1e-4, 0.03125, 9)
    assert fo[0] == 1e-4
    assert fo[-1] == 0.03125
    assert np.all(np.diff(fo) > 0.0)
    # constant ratio in log space
    ratios = fo[1:] / fo[:-1]
    assert ratios.max() - ratios.min() < 1e-12


def test_exp_schedule_validation():
    for args in [(0.0, 1.0, 3), (1e-4, 1e-4, 3), (1e-3, 1e-4, 3),
                 (1e-4, 1e-2, 1)]:
        with pytest.raises(ValidationError):
            schedule.exp_schedule(*args)


def test_sigma_fo_conversions_frozen():
    assert schedule.sigma_to_fo(20.0, 128.0) == 0.01220703125
    assert schedule.fo_to_sigma(0.01220703125, 128.0) == 20.0
    assert schedule.sigma_to_fo(0.0, 64.0) == 0.0
    assert schedule.peclet_velocity(1.0, 0.05, 128.0) == 0.000390625


def test_sigma_fo_round_trip():
    for sigma in [0.5, 1.0, 3.7, 16.0]:
        fo = schedule.sigma_to_fo(sigma, 64.0)
        assert schedule.fo_to_sigma(fo, 64.0) == pytest.approx(sigma,
                                                               rel=1e-14)


def test_half_pixel_blur_is_one_step():
    fo = schedule.sigma_to_fo(0.5, 28.0)
    iv = schedule.plan_intervals([0.0, fo], 28.0)
    assert iv == (Interval(n_steps=1, tau=0.875, alpha=0.125,
                           target_rms=0.0),)


def test_four_pixel_blur_on_64_grid():
    fo = schedule.sigma_to_fo(4.0, 64.0)
    sch = DiffusionSchedule.from_levels([fo], 64.0)
    (iv,) = sch.intervals
    assert iv.n_steps == 48
    assert iv.tau == 1.0
    assert iv.n_steps * iv.alpha == pytest.approx(8.0, rel=1e-12)


def test_interval_budget_is_preserved():
    levels = schedule.exp_schedule(1e-4, 0.02, 7)
    ivs = schedule.plan_intervals(np.concatenate([[0.0], levels]), 64.0,
                                  peclet=0.1)
    fo_prev = 0.0
    for fo, iv in zip(levels, ivs):
        budget = (fo - fo_prev) * 64.0 ** 2
        assert iv.n_steps * iv.alpha == pytest.approx(budget, rel=1e-12)
        assert 0.5 < iv.tau <= 1.0
        fo_prev = fo


def test_peclet_subdivision_caps_the_velocity():
    calm = schedule.plan_intervals([0.0, 0.01], 64.0, peclet=0.0)
    windy = schedule.plan_intervals([0.0, 0.01], 64.0, peclet=5.0)
    assert windy[0].n_steps > calm[0].n_steps
    assert calm[0].target_rms == 0.0
    assert windy[0].target_rms <= 1e-3 * (1.0 + 1e-12)
    # the advective rms follows Pe * alpha / L
    iv = windy[0]
    assert iv.target_rms == pytest.approx(5.0 * iv.alpha / 64.0, rel=1e-12)


def test_flat_interval_is_a_no_op():
    ivs = schedule.plan_intervals([0.0, 0.1, 0.1], 16.0)
    assert ivs[1] == Interval(n_steps=0, tau=0.5, alpha=0.0, target_rms=0.0)


def test_descending_levels_are_rejected():
    with pytest.raises(ScheduleError):
        schedule.plan_intervals([0.0, 0.5, 0.2], 16.0)


def test_schedule_shape_and_boundaries():
    sch = DiffusionSchedule.build(1e-4, 0.03125, 9, 64.0, peclet=0.1)
    assert sch.chain_length == 9
    assert len(sch.intervals) == 9
    taus, rms, boundaries = sch.per_step()
    assert len(taus) == sch.lattice_steps
    assert len(rms) == sch.lattice_steps
    assert len(boundaries) == 10
    assert boundaries[0] == 0
    assert boundaries[-1] == sch.lattice_steps
    assert np.all(np.diff(boundaries) >= 0)
    # per-step arrays agree with the interval table
    start = 0
    for iv in sch.intervals:
        assert np.all(taus[start:start + iv.n_steps] == iv.tau)
        assert np.all(rms[start:start + iv.n_steps] == iv.target_rms)
        start += iv.n_steps


def test_sigma_levels_round_trip_through_fo():
    sch = DiffusionSchedule.from_levels(
        [schedule.sigma_to_fo(s, 32.0) for s in (0.5, 1.0, 2.0)], 32.0)
    assert sch.sigma_levels == pytest.approx((0.5, 1.0, 2.0), rel=1e-14)


def test_single_zero_level_schedule_is_identity():
    sch = DiffusionSchedule.from_levels([0.0], 16.0)
    assert sch.chain_length == 1
    assert sch.lattice_steps == 0
    assert sch.sigma_levels == (0.0,)
    taus, rms, boundaries = sch.per_step()
    assert taus.dtype == rms.dtype == np.float64
    assert taus.shape == rms.shape == (0,)
    assert boundaries.tolist() == [0, 0]


def test_tau_cap_is_respected():
    sch = DiffusionSchedule.from_levels([0.02], 64.0, tau_max=0.7)
    for iv in sch.intervals:
        assert iv.tau <= 0.7 + 1e-15
    for tau_max in (0.5, 0.4, np.nan):
        with pytest.raises(StabilityError, match="tau must exceed 1/2"):
            DiffusionSchedule.from_levels([0.02], 64.0, tau_max=tau_max)
