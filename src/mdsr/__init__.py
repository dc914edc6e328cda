"""Multi-dark-state resonance spectroscopy of Rb-87 D1 Zeeman sublevels.

Forward simulation of probe-transmission spectra under a strong pi
coupling field, inversion of spectra for ground-state Zeeman
populations, and rate-equation design of polarized optical pumping.
"""

from .angular import wigner3j, wigner6j
from .bloch import (
    DecayModel,
    LaserField,
    build_hamiltonian,
    build_liouvillian,
    lambda_coherence_analytic,
    steady_state,
    weak_probe_coherences,
)
from .fitting import FitProblem, FitResult, fit_populations, profile_scan, residuals
from .levels import (
    LevelScheme,
    Manifold,
    Sublevel,
    build_level_scheme,
    relative_dipole,
    zeeman_shift,
)
from .pumping import (
    PopulationState,
    PumpConfig,
    PumpPlan,
    design_pump,
    evolve_populations,
    pump_rate_matrix,
    uniform_g1_state,
)
from .spectrum import (
    ExperimentModel,
    PopulationDistribution,
    Spectrum,
    add_noise,
    susceptibility_grid,
    synth_spectrum,
)

__version__ = "0.1.0"
