"""Probe susceptibility and transmission spectra.

The total susceptibility is the population-weighted sum of three
independent probe terms (one per F=1 ground sublevel), each the first-order
probe response that `bloch.probe_resolvents` reads off the Hamiltonian,
derived once per (scheme, coupling, probe, decay) and evaluated elementwise
over the detuning grid by `_terms`; a model that `dataclasses.replace` makes
at another density or path length, as the fit's residual model is, keeps
those coefficients.  `susceptibility_grid` and `optical_depth_basis` both
read those terms.  `bloch.weak_probe_coherences`, the full
Liouvillian's probe block, is the cross-validation oracle of this path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bloch import DecayModel, LaserField, probe_resolvents
from .levels import D1_WAVELENGTH_NM, LevelScheme, Manifold

HBAR_JS = 1.054571817e-34
EPSILON0_F_PER_M = 8.8541878128e-12
RAD_PER_S_PER_MHZ = 2.0 * math.pi * 1.0e6
# F=1 densities a run may set and a fit may return, cm^-3
N_F1_RANGE_CM3 = (1e9, 1e13)
UNIT_PROBE_RABI = 1.0  # MHz; a spectrum is first order in the probe, so its strength divides out


@dataclass(frozen=True)
class PopulationDistribution:
    """Populations of the F=1 ground sublevels a_-1, a_0, a_+1."""

    p_minus: float
    p_zero: float
    p_plus: float

    def __post_init__(self):
        for name, p in (("p_minus", self.p_minus), ("p_zero", self.p_zero), ("p_plus", self.p_plus)):
            if not -1e-12 <= p <= 1.0 + 1e-12:
                raise ValueError(f"{name}={p} outside [0, 1]")
        if abs(self.p_minus + self.p_zero + self.p_plus - 1.0) > 1e-9:
            raise ValueError("populations must sum to 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.p_minus, self.p_zero, self.p_plus])


@dataclass(frozen=True)
class ExperimentModel:
    """Complete forward-model parameter set for one probe-transmission scan."""

    scheme: LevelScheme
    coupling: LaserField   # pi, G2 -> E2
    probe: LaserField      # sigma-, G1 -> E2
    decay: DecayModel
    n_f1: float            # atoms/cm^3 in the F=1 ground manifold
    path_length_mm: float
    # (scheme, coupling, probe, decay) and the probe resolvents derived from them
    _derived: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.n_f1) and self.n_f1 >= 0):
            raise ValueError("n_f1 must be finite and >= 0")
        if not (math.isfinite(self.path_length_mm) and self.path_length_mm > 0):
            raise ValueError("path_length_mm must be finite and > 0")
        if self.probe.transition[0] is not Manifold.G1:
            raise ValueError("the probe must address the F=1 ground manifold")
        if self.coupling.transition[0] is Manifold.G1:
            raise ValueError("the coupling must not drive the probe's F=1 ground manifold")
        if self.probe.detuning != 0:
            # a spectrum's grid is the probe detuning, so a model holds none of its own
            raise ValueError("the probe detuning must be 0: the scan grid sets it")
        # the part of every spectrum that does not depend on the density or the
        # path length, derived once per (scheme, coupling, probe, decay): a model
        # `replace` makes with the same four objects keeps it
        inputs = (self.scheme, self.coupling, self.probe, self.decay)
        if self._derived is None or any(a is not b for a, b in zip(inputs, self._derived[0])):
            object.__setattr__(self, "_derived", (inputs, probe_resolvents(
                self.scheme, self.coupling, replace(self.probe, rabi_scale=UNIT_PROBE_RABI), self.decay)))


@dataclass(frozen=True)
class Spectrum:
    detunings: np.ndarray          # MHz, strictly increasing
    transmission: np.ndarray       # fractions in [0, 1]
    noise_sigma: float = 0.0

    def __post_init__(self):
        det = np.asarray(self.detunings, dtype=float)
        tr = np.asarray(self.transmission, dtype=float)
        object.__setattr__(self, "detunings", det)
        object.__setattr__(self, "transmission", tr)
        if det.shape != tr.shape or det.ndim != 1:
            raise ValueError("detunings and transmission must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(det)) and np.all(np.isfinite(tr))):
            raise ValueError("detunings and transmission must be finite")
        if det.size > 1 and not np.all(np.diff(det) > 0):
            raise ValueError("detunings must be strictly increasing")
        if tr.size and (tr.min() < -1e-12 or tr.max() > 1.0 + 1e-12):
            raise ValueError("transmission values must lie in [0, 1]")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError("noise_sigma must be finite and >= 0")

    def __len__(self) -> int:
        return self.detunings.size


def susceptibility_prefactor(n_f1_cm3: float, reduced_dipole_cm: float) -> float:
    """Dimensionless scale N |mu|^2 / (hbar eps0 Omega_rad) per MHz of Rabi.

    Owns the single MHz -> rad/s conversion of the susceptibility formula;
    all remaining frequency ratios stay in linear MHz.
    """
    n_m3 = n_f1_cm3 * 1.0e6
    return n_m3 * reduced_dipole_cm**2 / (HBAR_JS * EPSILON0_F_PER_M * RAD_PER_S_PER_MHZ)


def _terms(model: ExperimentModel, weights: np.ndarray, deltas) -> np.ndarray:
    """Susceptibility of each F=1 probe term (columns a_-1, a_0, a_+1) at each
    detuning (MHz, rows), term i weighted by population weights[i]: C times
    the weights times the model's `bloch.probe_resolvents` terms, C the
    susceptibility prefactor.  The factors that do not depend on the detuning
    come first, the weights among them: a sum of unit-weight terms scaled
    afterwards would round differently in the last bit."""
    half_d2, slope_c, u_c, slope_b, u_b, h2 = model._derived[1]
    pref = susceptibility_prefactor(model.n_f1, model.scheme.reduced_dipole)
    d = np.asarray(deltas, dtype=np.float64)[:, None]
    m_b = d * slope_b + u_b
    return pref * weights * half_d2 * m_b / ((d * slope_c + u_c) * m_b - h2)


def susceptibility_grid(model: ExperimentModel, pops: PopulationDistribution,
                        deltas: np.ndarray) -> np.ndarray:
    """Complex probe susceptibility at each detuning (MHz) in deltas: the sum
    of the three population-weighted probe terms."""
    return _terms(model, pops.as_array(), deltas).sum(axis=1)


def optical_depth(chi, model: ExperimentModel):
    """Beer-Lambert optical depth k L Im chi, k = 2 pi / wavelength of the D1 line."""
    im = np.imag(chi)
    if np.any(im < -1e-12):
        raise ValueError("Im chi must be non-negative (passive medium)")
    k_per_m = 2.0 * math.pi / (D1_WAVELENGTH_NM * 1e-9)
    length_m = model.path_length_mm * 1e-3
    return k_per_m * length_m * np.maximum(im, 0.0)


def optical_depth_basis(model: ExperimentModel, grid) -> np.ndarray:
    """Optical depth of each F=1 sublevel alone at the model's density, one
    column per sublevel (a_-1, a_0, a_+1) and one row per detuning.

    The susceptibility is linear in the populations, so populations P give
    the transmission exp(-basis @ P).
    """
    return optical_depth(_terms(model, np.ones(3), grid), model)


def synth_spectrum(model: ExperimentModel, pops: PopulationDistribution,
                   grid) -> Spectrum:
    """Clean transmission spectrum on a strictly increasing detuning grid."""
    grid = np.asarray(grid, dtype=float)
    return Spectrum(grid, np.exp(-optical_depth(susceptibility_grid(model, pops, grid), model)))


def add_noise(s: Spectrum, sigma: float, seed: int) -> Spectrum:
    """Gaussian transmission noise, clamped to [0, 1]; deterministic per seed."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError("sigma must be finite and >= 0")
    if sigma == 0:
        return s
    rng = np.random.default_rng(seed)
    noisy = np.clip(s.transmission + rng.normal(0.0, sigma, s.transmission.shape), 0.0, 1.0)
    return Spectrum(s.detunings.copy(), noisy, noise_sigma=sigma)
