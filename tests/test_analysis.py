import numpy as np
import pytest

from ade import analysis
from ade.errors import FitError, NonFiniteFieldError, ShapeMismatchError
from ade.analysis import SpectrumProfile


def _profile_from_power_law(exponent: float, m_max: int = 20):
    """Synthetic profile whose per-mode amplitude is exactly kappa^exponent."""
    m = np.arange(m_max + 1)
    counts = np.full(m_max + 1, 4.0)
    counts[0] = 1.0
    kappa = 2.0 * np.pi * np.maximum(m, 1)
    energy = counts * kappa ** (2.0 * exponent)
    energy[0] = 0.0
    return SpectrumProfile(m, energy, counts)


def test_pure_mode_lands_in_its_shell():
    n = 32
    x = np.arange(n) / n
    field = np.cos(2.0 * np.pi * 3.0 * x)[None, :] * np.ones((n, 1))
    prof = analysis.radial_energy_spectrum(field)
    assert prof.energy[3] > 0.999 * prof.total
    assert prof.dc == pytest.approx(0.0, abs=1e-18)


def test_parseval_and_counts():
    rngv = np.random.default_rng(0)
    field = rngv.normal(size=(24, 24))
    prof = analysis.radial_energy_spectrum(field)
    assert prof.counts.sum() == 24 * 24
    # unnormalized FFT convention: sum of shell energies = N^2 * sum field^2
    assert prof.total == pytest.approx(
        24 * 24 * np.sum(field * field), rel=1e-12)
    assert prof.kappa[5] == pytest.approx(2.0 * np.pi * 5)


def test_spectrum_input_validation():
    with pytest.raises(ShapeMismatchError):
        analysis.radial_energy_spectrum(np.zeros(16))
    bad = np.zeros((8, 8))
    bad[3, 3] = np.nan
    with pytest.raises(NonFiniteFieldError):
        analysis.radial_energy_spectrum(bad)


@pytest.mark.parametrize("shape", [(0, 5), (4, 0), (0, 0)])
def test_spectrum_of_an_empty_field_is_a_shape_mismatch(shape):
    with pytest.raises(ShapeMismatchError):
        analysis.radial_energy_spectrum(np.zeros(shape))


def test_band_energy_is_inclusive():
    prof = SpectrumProfile(np.arange(5), np.array([9.0, 1.0, 2.0, 4.0, 8.0]),
                           np.ones(5))
    assert prof.band_energy(1, 3) == 7.0
    assert prof.band_energy(0, 4) == 24.0
    assert prof.dc == 9.0
    assert prof.total == 24.0  # DC shell included


def test_amplitude_fit_recovers_exponent():
    prof = _profile_from_power_law(-2.0)
    fit = analysis.fit_amplitude_slope(prof, (2, 18))
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    assert fit.residual_rms < 1e-12
    assert fit.n_points == 17


def test_energy_fit_sees_the_shell_population_factor():
    prof = _profile_from_power_law(-2.0)
    fit = analysis.fit_loglog_slope(prof, (2, 18))
    # counts are constant here, so the energy slope is exactly 2s
    assert fit.slope == pytest.approx(-4.0, abs=1e-12)


def test_fit_needs_three_shells():
    prof = _profile_from_power_law(-1.0)
    with pytest.raises(FitError):
        analysis.fit_amplitude_slope(prof, (2, 3))


def test_fit_warns_and_drops_empty_shells():
    prof = _profile_from_power_law(-1.0)
    energy = prof.energy.copy()
    energy[5] = 0.0
    holed = SpectrumProfile(prof.k_index, energy, prof.counts)
    with pytest.warns(RuntimeWarning):
        fit = analysis.fit_amplitude_slope(holed, (2, 10))
    assert fit.n_points == 8


def test_default_fit_band_is_the_central_half():
    # 64 grid, generator default band covers modes 1..16
    band = analysis.default_fit_band(64, 2.0 * np.pi / 64,
                                     1024.0 * 2.0 * np.pi / 64)
    assert band == (5, 12)
    lo, hi = analysis.default_fit_band(128, 2.0 * np.pi / 128, np.pi * 128)
    assert 1 <= lo < hi <= 64


def test_mass_audit_reports_drift():
    snaps = np.full((3, 2, 4, 4), 0.5)
    snaps[1] *= 1.0 + 1e-6
    snaps[2, 1] *= 1.0 - 2e-6
    report = analysis.mass_audit(snaps)
    assert report.totals.shape == (3, 2)
    assert report.drift[0].tolist() == [0.0, 0.0]
    assert report.drift[1][0] == pytest.approx(1e-6, rel=1e-9)
    assert report.max_drift == pytest.approx(2e-6, rel=1e-9)


def test_mass_audit_accepts_plain_stacks_and_zero_reference():
    snaps = np.zeros((2, 4, 4))
    report = analysis.mass_audit(snaps)
    assert np.isnan(report.max_drift)
    snaps = np.stack([np.full((4, 4), 0.25), np.full((4, 4), 0.25)])
    assert analysis.mass_audit(snaps).max_drift == 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mass_audit_of_a_tensor_reader_equals_the_in_memory_audit(tmp_path,
                                                                   dtype):
    from ade import io
    from ade.rng import CounterRng
    snaps = (1e3 * CounterRng(7, 0).uniforms(6 * 3 * 48 * 40)).reshape(
        6, 3, 48, 40).astype(dtype)
    snaps[:, 1] = 0.0  # a zero reference: NaN drift in both
    io.write_tensor(tmp_path / "chain.adet", snaps)
    memory = analysis.mass_audit(snaps)
    with io.open_tensor(tmp_path / "chain.adet") as reader:
        streamed = analysis.mass_audit(reader)
    # the whole-chain float64 sum the audit used to make
    assert memory.totals.tobytes() == snaps.astype(np.float64).sum(
        axis=(2, 3)).tobytes()
    assert streamed.totals.tobytes() == memory.totals.tobytes()
    assert streamed.drift.tobytes() == memory.drift.tobytes()


@pytest.mark.parametrize("shape", [(0, 4, 4), (2, 0, 4, 4), (3, 4, 0)])
def test_mass_audit_rejects_a_chain_with_an_empty_axis(shape):
    with pytest.raises(ShapeMismatchError, match="nonempty"):
        analysis.mass_audit(np.zeros(shape))
