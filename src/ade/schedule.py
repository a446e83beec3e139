"""Dimensionless corruption schedules.

Corruption levels are Fourier numbers Fo = alpha * t / L^2; the equivalent
Gaussian blur scale is sigma = L * sqrt(2 Fo) pixels. A schedule of K levels
executes as K intervals (the first one starting from the clean state at
Fo = 0), each subdivided into lattice steps so that the per-step relaxation
stays within [tau_max] and the per-step advection RMS within the velocity
cap. The flow strength is set by the Peclet number: rms = Pe * alpha / L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScheduleError, ValidationError
from .lattice import alpha_from_tau, tau_from_alpha


def exp_schedule(fo_min: float, fo_max: float, steps: int) -> np.ndarray:
    """Geometric ladder of Fo levels from fo_min to fo_max inclusive.

    Endpoints are set exactly; interior points follow
    fo_min * (fo_max/fo_min)**(t/(steps-1)).
    """
    if steps < 2:
        raise ValidationError(f"need at least 2 levels, got {steps}")
    if not 0.0 < fo_min < fo_max:
        raise ValidationError(
            f"need 0 < fo_min < fo_max, got [{fo_min}, {fo_max}]")
    t = np.arange(steps, dtype=np.float64)
    fo = fo_min * (fo_max / fo_min) ** (t / (steps - 1))
    fo[0] = fo_min
    fo[-1] = fo_max
    return fo


def sigma_to_fo(sigma: float, length: float) -> float:
    """Fo = sigma^2 / (2 L^2) for a blur scale sigma in pixels."""
    if length <= 0.0:
        raise ValidationError(f"length must be positive, got {length}")
    if sigma < 0.0:
        raise ValidationError(f"sigma must be >= 0, got {sigma}")
    return sigma * sigma / (2.0 * length * length)


def fo_to_sigma(fo: float, length: float) -> float:
    """Inverse of sigma_to_fo: sigma = L * sqrt(2 Fo)."""
    if length <= 0.0:
        raise ValidationError(f"length must be positive, got {length}")
    if fo < 0.0:
        raise ValidationError(f"Fo must be >= 0, got {fo}")
    return length * math.sqrt(2.0 * fo)


def peclet_velocity(peclet: float, alpha: float, length: float) -> float:
    """Characteristic speed V = Pe * alpha / L in lattice units."""
    if peclet < 0.0:
        raise ValidationError(f"Pe must be >= 0, got {peclet}")
    if alpha <= 0.0 or length <= 0.0:
        raise ValidationError("alpha and length must be positive")
    return peclet * alpha / length


@dataclass(frozen=True)
class Interval:
    """One corruption interval, already subdivided into lattice steps.

    Zero-width intervals (equal consecutive levels) carry n_steps = 0 and a
    tau of exactly 1/2, which any solver call would reject.
    """

    n_steps: int
    tau: float
    alpha: float
    target_rms: float


def plan_intervals(fo_levels: np.ndarray, length: float,
                   tau_max: float = 1.0, peclet: float = 0.0,
                   cap: float = 1e-3) -> tuple[Interval, ...]:
    """Subdivide consecutive Fo gaps into executable intervals.

    Each gap dFo becomes n = max(ceil(dFo L^2 / alpha_max),
    ceil(Pe dFo L / cap), 1) steps at alpha = dFo L^2 / n, which meets the
    diffusion budget exactly: sum(alpha * n) / L^2 == dFo up to rounding.
    A strictly decreasing level raises; an exactly repeated level plans as
    a zero-step no-op.
    """
    if length <= 0.0:
        raise ValidationError(f"length must be positive, got {length}")
    alpha_max = alpha_from_tau(tau_max)
    if peclet < 0.0:
        raise ValidationError(f"Pe must be >= 0, got {peclet}")
    if cap <= 0.0:
        raise ValidationError(f"cap must be positive, got {cap}")
    fo = np.asarray(fo_levels, dtype=np.float64)
    if fo.ndim != 1 or fo.size < 2:
        raise ValidationError("need a 1D array of at least two Fo levels")
    if not np.all(np.isfinite(fo)) or fo[0] < 0.0:
        raise ValidationError("Fo levels must be finite and non-negative")
    out = []
    for lo, hi in zip(fo[:-1], fo[1:]):
        d_fo = hi - lo
        if d_fo < 0.0:
            raise ScheduleError(
                f"Fo levels must not decrease ({lo} -> {hi})")
        if d_fo == 0.0:
            out.append(Interval(0, 0.5, 0.0, 0.0))
            continue
        budget = d_fo * length * length
        n = max(math.ceil(budget / alpha_max), 1)
        if peclet > 0.0:
            n = max(n, math.ceil(peclet * d_fo * length / cap))
        alpha = float(budget / n)
        out.append(Interval(n, tau_from_alpha(alpha), alpha,
                            peclet_velocity(peclet, alpha, length)))
    return tuple(out)


@dataclass(frozen=True)
class DiffusionSchedule:
    """K corruption levels plus the executable plan reaching them.

    `intervals` has K entries; the first runs from the clean state (Fo = 0)
    to levels[0]. A chain built from this schedule stores K + 1 snapshots,
    the clean field first.
    """

    levels: tuple[float, ...]
    length: float
    peclet: float
    cap: float
    intervals: tuple[Interval, ...]

    @classmethod
    def from_levels(cls, fo_levels, length: float, peclet: float = 0.0,
                    tau_max: float = 1.0, cap: float = 1e-3) -> "DiffusionSchedule":
        levels = np.asarray(fo_levels, dtype=np.float64)
        if levels.ndim != 1 or levels.size < 1:
            raise ValidationError("need at least one Fo level")
        augmented = np.concatenate([[0.0], levels])
        intervals = plan_intervals(augmented, length, tau_max=tau_max,
                                   peclet=peclet, cap=cap)
        return cls(tuple(float(v) for v in levels), float(length),
                   float(peclet), float(cap), intervals)

    @classmethod
    def build(cls, fo_min: float, fo_max: float, steps: int, length: float,
              peclet: float = 0.0, tau_max: float = 1.0,
              cap: float = 1e-3) -> "DiffusionSchedule":
        return cls.from_levels(exp_schedule(fo_min, fo_max, steps), length,
                               peclet=peclet, tau_max=tau_max, cap=cap)

    @property
    def chain_length(self) -> int:
        """Number of corrupted snapshots K."""
        return len(self.levels)

    @property
    def lattice_steps(self) -> int:
        return sum(iv.n_steps for iv in self.intervals)

    @property
    def sigma_levels(self) -> tuple[float, ...]:
        return tuple(fo_to_sigma(fo, self.length) for fo in self.levels)

    def per_step(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tau, target_rms, boundaries) expanded to global lattice steps.

        tau and target_rms have one entry per lattice step; boundaries has
        K + 1 entries, boundaries[i] being the global step index at which
        snapshot i is taken (boundaries[0] == 0 is the clean state).
        """
        taus = [np.full(iv.n_steps, iv.tau) for iv in self.intervals]
        rms = [np.full(iv.n_steps, iv.target_rms) for iv in self.intervals]
        counts = [iv.n_steps for iv in self.intervals]
        boundaries = np.concatenate([[0], np.cumsum(counts)]).astype(int)
        return (np.concatenate(taus), np.concatenate(rms), boundaries)
