"""Rate-equation model of polarized optical pumping on the 16-level system.

Pump beam drives G1 -> E1 with a chosen polarization; the pi coupling
beam recycles G2 -> E2.  Excitation rates use per-beam saturation
s = I/I_sat scaled by the squared relative dipole amplitude; spontaneous
decay branches by squared amplitudes.  Coherences are ignored: the two
beams act on disjoint transitions and only populations are needed.

Rates are in 1/ms.  The pump duration is an *effective* interaction
time: with a top-hat beam the stated experimental powers would all fully
polarize within the real pre-probe window, so absolute power-to-purity
curves are not reproduced, only orderings and dark-state limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import LaserField
from .levels import LevelScheme, Manifold, NATURAL_LINEWIDTH_MHZ, Sublevel

I_SAT_MW_PER_CM2 = 1.496  # D1 line saturation intensity
MHZ_TO_PER_MS = 1.0e3
DEFAULT_PUMP_DURATION_MS = 2.0e-4
MAX_POWER_MW = 20.0  # design_pump's power cap; s/(1+s) = 0.998 there for a 2 mm beam
GRID_POINTS = 33     # design_pump's uniform grid in f/f_max
GOLDEN_STEPS = 40    # golden-section steps, shrinking two grid cells by 0.618**40
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PumpConfig:
    polarization: int      # q in {-1, 0, +1}
    power_mw: float
    beam_diameter_mm: float = 2.0
    duration_ms: float = DEFAULT_PUMP_DURATION_MS

    def __post_init__(self):
        if self.polarization not in (-1, 0, 1):
            raise ValueError("polarization must be -1, 0 or +1")
        if self.power_mw < 0:
            raise ValueError("power must be >= 0")
        if self.beam_diameter_mm <= 0:
            raise ValueError("beam diameter must be > 0")
        if self.duration_ms <= 0:
            raise ValueError("duration must be > 0")

    @property
    def saturation(self) -> float:
        """s = I / I_sat for a uniform top-hat beam."""
        area_cm2 = math.pi * (self.beam_diameter_mm / 20.0) ** 2
        return self.power_mw / area_cm2 / I_SAT_MW_PER_CM2


@dataclass(frozen=True)
class PopulationState:
    """Population fraction per sublevel of a 16-level scheme."""

    scheme: LevelScheme
    pops: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pops, dtype=float)
        object.__setattr__(self, "pops", p)
        if p.shape != (self.scheme.dim,):
            raise ValueError("population vector does not match scheme dimension")
        if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("populations must be non-negative and sum to 1")

    def population(self, s: Sublevel) -> float:
        return float(self.pops[self.scheme.index(s)])

    def manifold_total(self, manifold: Manifold) -> float:
        return float(sum(self.pops[self.scheme.index(s)]
                         for s in self.scheme.manifold_levels(manifold)))

    def g1_distribution(self) -> np.ndarray:
        """Normalized distribution over a_-1, a_0, a_+1 (uniform if G1 is empty)."""
        g1 = np.array([self.population(Sublevel(Manifold.G1, m)) for m in (-1, 0, 1)])
        total = g1.sum()
        if total <= 0:
            return np.full(3, 1.0 / 3.0)
        return g1 / total


def uniform_g1_state(scheme: LevelScheme) -> PopulationState:
    p = np.zeros(scheme.dim)
    for m in (-1, 0, 1):
        p[scheme.index(Sublevel(Manifold.G1, m))] = 1.0 / 3.0
    return PopulationState(scheme, p)


@dataclass(frozen=True)
class PumpPlan:
    polarization: int
    power_mw: float
    predicted: np.ndarray   # G1 distribution (a_-1, a_0, a_+1)
    target_distance: float  # L1 distance to the target


def _coupling_saturation(rabi_scale: float) -> float:
    # two-level relation s = 2 Omega^2 / Gamma^2 on the reference transition
    return 2.0 * rabi_scale**2 / NATURAL_LINEWIDTH_MHZ**2


def pump_rate_matrix(scheme: LevelScheme, pump: PumpConfig,
                     coupling: LaserField) -> np.ndarray:
    """Rate matrix R (1/ms) with dp/dt = R p: saturated excitation by the
    pump (G1->E1) and coupling (G2->E2) beams plus spontaneous branching."""
    if not scheme.manifold_levels(Manifold.E1):
        raise ValueError("pumping requires a scheme including the F'=1 manifold")
    n = scheme.dim
    rate = np.zeros((n, n))
    gamma = NATURAL_LINEWIDTH_MHZ * MHZ_TO_PER_MS

    beams = [
        (Manifold.G1, Manifold.E1, pump.polarization, pump.saturation),
        (coupling.transition[0], coupling.transition[1], coupling.q,
         _coupling_saturation(coupling.rabi_scale)),
    ]
    for gman, eman, q, sat in beams:
        if sat <= 0:
            continue
        factor = 0.5 * gamma * sat / (1.0 + sat)
        for (lo, up, cq), amp in scheme.couplings.items():
            if cq == q and lo.manifold is gman and up.manifold is eman:
                i, j = scheme.index(lo), scheme.index(up)
                r = factor * amp * amp
                rate[j, i] += r
                rate[i, i] -= r

    for j, i, frac in scheme.decay_channels():
        rate[i, j] += gamma * frac
        rate[j, j] -= gamma * frac
    return rate


def evolve_populations(rates: np.ndarray, state0: PopulationState,
                       t_ms: float) -> PopulationState:
    """Propagate dp/dt = R p for t_ms by matrix exponential."""
    from scipy.linalg import expm  # deferred: synth and fit never need scipy

    if t_ms < 0:
        raise ValueError("time must be >= 0")
    if t_ms == 0:
        return state0
    p = expm(rates * t_ms) @ state0.pops
    p = np.maximum(p, 0.0)
    return PopulationState(state0.scheme, p / p.sum())


def design_pump(target: np.ndarray, scheme: LevelScheme, coupling: LaserField,
                duration_ms: float = DEFAULT_PUMP_DURATION_MS,
                beam_diameter_mm: float = 2.0) -> PumpPlan:
    """Pick the pump polarization and power whose predicted G1 distribution
    (from a uniform start, after duration_ms) is L1-closest to the target.

    The pump enters the rates only through f = s/(1+s), and the rate matrix
    is affine in f: R(f) = R0 + (f/f_max)(R_max - R0), with R0 at zero power
    and R_max at MAX_POWER_MW.  Each polarization therefore needs two rate
    matrices and one search over u = f/f_max in [0, 1]: a uniform grid, then
    golden-section refinement on the best grid point's neighbouring cells.
    The power reported for u is f/(1-f) per unit saturation, written without
    cancellation as MAX_POWER_MW * u / (1 + s_max (1 - u)), so u = 0 is 0 mW
    and u = 1 is exactly the cap."""
    target = np.asarray(target, dtype=float)
    if (target.shape != (3,) or not np.isfinite(target).all()
            or target.min() < -1e-12 or abs(target.sum() - 1.0) > 1e-6):
        raise ValueError("target must be a finite 3-vector on the simplex")
    state0 = uniform_g1_state(scheme)
    s_max = PumpConfig(-1, MAX_POWER_MW, beam_diameter_mm, duration_ms).saturation

    best = None
    for q in (-1, 0, 1):
        r0 = pump_rate_matrix(scheme, PumpConfig(q, 0.0, beam_diameter_mm, duration_ms),
                              coupling)
        r1 = pump_rate_matrix(scheme, PumpConfig(q, MAX_POWER_MW, beam_diameter_mm,
                                                 duration_ms), coupling) - r0

        def score(u):
            pred = evolve_populations(r0 + u * r1, state0, duration_ms).g1_distribution()
            return float(np.abs(pred - target).sum()), u, pred

        grid = [score(u) for u in np.linspace(0.0, 1.0, GRID_POINTS)]
        k = int(np.argmin([c[0] for c in grid]))
        lo, hi = grid[max(k - 1, 0)][1], grid[min(k + 1, GRID_POINTS - 1)][1]
        a, b = score(hi - GOLDEN * (hi - lo)), score(lo + GOLDEN * (hi - lo))
        for _ in range(GOLDEN_STEPS):
            if a[0] <= b[0]:
                hi, b = b[1], a
                a = score(hi - GOLDEN * (hi - lo))
            else:
                lo, a = a[1], b
                b = score(lo + GOLDEN * (hi - lo))
        dist, u, pred = min(grid[k], a, b, key=lambda c: c[0])
        if best is None or dist < best.target_distance:
            power = MAX_POWER_MW * u / (1.0 + s_max * (1.0 - u))
            best = PumpPlan(q, float(power), pred, dist)
    return best
