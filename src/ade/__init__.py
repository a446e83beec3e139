"""Lattice Boltzmann advection-diffusion corruption engine.

Forward chains corrupt an image by running a D2Q9 advection-diffusion
solver under a dimensionless Fo/Pe schedule with spectrally generated
turbulent flow; the reverse machinery walks back from the corrupted prior
with pluggable step predictors.
"""

from .analysis import (
    MassReport,
    SpectrumProfile,
    fit_amplitude_slope,
    fit_loglog_slope,
    mass_audit,
    radial_energy_spectrum,
)
from .corruption import (
    CorruptionChain,
    NoiseParams,
    add_training_noise,
    forward_chain,
    make_training_pair,
    precompute_dataset,
    regression_loss,
)
from .errors import EngineError
from .lattice import (
    LatticeState,
    VelocityField,
    alpha_from_tau,
    apply_bounce_back,
    collide,
    init_from_image,
    solver_step,
    stream,
    tau_from_alpha,
)
from .reverse import (
    ExternPredictor,
    OraclePredictor,
    ZeroPredictor,
    interpolate_priors,
    interpolate_sample,
    sample,
    slerp,
)
from .rng import CounterRng, derive_seed
from .schedule import (
    DiffusionSchedule,
    exp_schedule,
    fo_to_sigma,
    peclet_velocity,
    plan_intervals,
    sigma_to_fo,
)
from .turbulence import TurbulenceGenerator, TurbulenceSpec

__version__ = "0.1.0"
