"""Spectral and conservation diagnostics.

The radial spectrum uses unit-width integer-radius shells over the signed
integer mode numbers, with the unnormalized FFT convention: summing all
shells (DC included) equals N_total * sum(field^2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FitError, NonFiniteFieldError, ShapeMismatchError


@dataclass(frozen=True)
class SpectrumProfile:
    """Radial shell sums of |FFT|^2.

    `k_index[m]` is the integer shell radius, `energy[m]` the sum of
    squared magnitudes over modes rounding to that radius and `counts[m]`
    how many modes fell in the shell. Shell 0 is the DC term alone.
    """

    k_index: np.ndarray
    energy: np.ndarray
    counts: np.ndarray

    @property
    def kappa(self) -> np.ndarray:
        """Shell center wavenumbers on the unit domain, 2*pi*m."""
        return 2.0 * np.pi * self.k_index

    @property
    def dc(self) -> float:
        return float(self.energy[0])

    @property
    def total(self) -> float:
        return float(self.energy.sum())

    def band_energy(self, m_lo: int, m_hi: int) -> float:
        """Sum of shell energies with m_lo <= m <= m_hi."""
        sel = (self.k_index >= m_lo) & (self.k_index <= m_hi)
        return float(self.energy[sel].sum())


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual_rms: float
    n_points: int


def radial_energy_spectrum(field: np.ndarray) -> SpectrumProfile:
    """Shell-summed power spectrum of a 2D field."""
    field = np.asarray(field)
    if field.ndim != 2 or 0 in field.shape:
        raise ShapeMismatchError(
            f"field must be 2D and nonempty, got {field.shape}")
    if not np.all(np.isfinite(field)):
        raise NonFiniteFieldError("field contains NaN or Inf")
    ny, nx = field.shape
    f = np.fft.fft2(field)
    power = f.real * f.real + f.imag * f.imag
    my = np.fft.fftfreq(ny) * ny
    mx = np.fft.fftfreq(nx) * nx
    gy, gx = np.meshgrid(my, mx, indexing="ij")
    radius = np.rint(np.sqrt(gy * gy + gx * gx)).astype(int)
    nbins = int(radius.max()) + 1
    energy = np.bincount(radius.ravel(), weights=power.ravel(),
                         minlength=nbins)
    counts = np.bincount(radius.ravel(), minlength=nbins)
    return SpectrumProfile(np.arange(nbins), energy, counts)


def _fit(log_k: np.ndarray, log_y: np.ndarray) -> FitResult:
    slope, intercept = np.polyfit(log_k, log_y, 1)
    resid = log_y - (slope * log_k + intercept)
    return FitResult(float(slope), float(intercept),
                     float(np.sqrt(np.mean(resid * resid))), log_k.size)


def _band_points(profile: SpectrumProfile, band: tuple[int, int],
                 values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m_lo, m_hi = band
    sel = ((profile.k_index >= max(m_lo, 1)) & (profile.k_index <= m_hi)
           & (profile.counts > 0))
    usable = sel & (values > 0.0)
    if np.any(sel & ~usable):
        warnings.warn("dropping shells with non-positive energy from fit",
                      RuntimeWarning, stacklevel=3)
    if np.count_nonzero(usable) < 3:
        raise FitError(
            f"need at least 3 usable shells in band {band}, "
            f"got {int(np.count_nonzero(usable))}")
    return (np.log(profile.kappa[usable]), np.log(values[usable]))


def fit_loglog_slope(profile: SpectrumProfile,
                     band: tuple[int, int]) -> FitResult:
    """OLS slope of log shell energy vs log wavenumber over integer band."""
    log_k, log_e = _band_points(profile, band, profile.energy)
    return _fit(log_k, log_e)


def fit_amplitude_slope(profile: SpectrumProfile,
                        band: tuple[int, int]) -> FitResult:
    """OLS slope of log per-mode RMS amplitude vs log wavenumber.

    The per-mode amplitude sqrt(energy / count) removes the shell
    population factor, so a generator prescribing |kappa|^s mode amplitudes
    fits back to s (the raw shell-energy slope would be about 2s + 1).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        amp2 = np.where(profile.counts > 0,
                        profile.energy / np.maximum(profile.counts, 1), 0.0)
    log_k, log_a2 = _band_points(profile, band, amp2)
    return _fit(log_k, 0.5 * log_a2)


def default_fit_band(size: int, kappa_min: float,
                     kappa_max: float) -> tuple[int, int]:
    """Central half of the generator band, in integer shell units."""
    m_min = max(1, int(np.ceil(kappa_min / (2.0 * np.pi))))
    m_max = min(size // 2, int(np.floor(kappa_max / (2.0 * np.pi))))
    span = m_max - m_min
    return (int(np.ceil(m_min + span / 4.0)),
            int(np.floor(m_max - span / 4.0)))


@dataclass(frozen=True)
class MassReport:
    """Per-snapshot totals and relative drift against snapshot 0.

    Drift is NaN wherever the reference total is zero; `max_drift` ignores
    those entries (and is NaN only if every entry is).
    """

    totals: np.ndarray
    drift: np.ndarray

    @property
    def max_drift(self) -> float:
        if np.all(np.isnan(self.drift)):
            return float("nan")
        return float(np.nanmax(self.drift))


def mass_audit(snapshots) -> MassReport:
    """Relative mass drift of a chain, summed in float64 in a fixed order.

    `snapshots` is an array or an `io.open_tensor` reader; either way one
    snapshot is converted and summed at a time.
    """
    shape = snapshots.shape
    if len(shape) not in (3, 4) or 0 in shape:
        raise ShapeMismatchError(f"expected a nonempty [K+1, C, H, W] or "
                                 f"[K+1, H, W], got {shape}")
    totals = np.empty((shape[0], math.prod(shape[1:-2])))
    for k in range(shape[0]):
        snap = np.asarray(snapshots[k], dtype=np.float64)
        totals[k] = snap.reshape((-1,) + shape[-2:]).sum(axis=(1, 2))
    ref = totals[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = np.abs(totals - ref) / np.abs(ref)
    drift[:, ref == 0.0] = np.nan
    return MassReport(totals, drift)
