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
DEFAULT_BEAM_DIAMETER_MM = 2.0
MAX_POWER_MW = 20.0  # design_pump's power cap; s/(1+s) = 0.998 there for a 2 mm beam
GRID_POINTS = 33     # design_pump's uniform grid in f/f_max
GOLDEN_STEPS = 40    # golden-section steps, shrinking two grid cells by 0.618**40
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# degree-13 Pade coefficients b_0..b_13 and the 1-norm below which the
# approximant alone is accurate to double precision (Higham 2005)
PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
          33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
THETA13 = 5.371920351148152
# the approximant's four sums as rows of coefficients of (I, A^2, A^4, A^6):
# the odd part is U = A (A^6 X1 + X2), the even part V = A^6 Y1 + Y2
_PADE13_SUMS = np.array([(0.0, *PADE13[9::2]), (0.0, *PADE13[8::2]),    # X1, Y1
                         PADE13[1:9:2], PADE13[0:8:2]])                # X2, Y2


@dataclass(frozen=True)
class PumpConfig:
    polarization: int      # q in {-1, 0, +1}
    power_mw: float
    beam_diameter_mm: float = DEFAULT_BEAM_DIAMETER_MM
    duration_ms: float = DEFAULT_PUMP_DURATION_MS

    def __post_init__(self):
        if self.polarization not in (-1, 0, 1):
            raise ValueError("polarization must be -1, 0 or +1")
        if not (math.isfinite(self.power_mw) and self.power_mw >= 0):
            raise ValueError("power must be finite and >= 0")
        if not (math.isfinite(self.beam_diameter_mm) and self.beam_diameter_mm > 0):
            raise ValueError("beam diameter must be finite and > 0")
        if not (math.isfinite(self.duration_ms) and self.duration_ms > 0):
            raise ValueError("duration must be finite and > 0")

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
        if not np.isfinite(p).all() or p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("populations must be finite, non-negative and sum to 1")

    def manifold_total(self, manifold: Manifold) -> float:
        return float(sum(self.pops[self.scheme.index(s)]
                         for s in self.scheme.manifold_levels(manifold)))

    def g1_distribution(self) -> np.ndarray:
        """Normalized distribution over a_-1, a_0, a_+1 (uniform if G1 is empty)."""
        return _g1_shares(self.pops, _g1_index(self.scheme))


def _g1_index(scheme: LevelScheme) -> list:
    """Positions of a_-1, a_0, a_+1 in the scheme."""
    return [scheme.index(Sublevel(Manifold.G1, m)) for m in (-1, 0, 1)]


def _g1_shares(pops: np.ndarray, g1: list) -> np.ndarray:
    """G1 distribution of each population vector in a stack (..., n); a
    vector with no G1 population gives the uniform distribution."""
    shares = pops[..., g1]
    total = shares.sum(axis=-1, keepdims=True)
    return np.divide(shares, total, out=np.full_like(shares, 1.0 / 3.0), where=total > 0)


def uniform_g1_state(scheme: LevelScheme) -> PopulationState:
    p = np.zeros(scheme.dim)
    p[_g1_index(scheme)] = 1.0 / 3.0
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
        (pump.polarization, (Manifold.G1, Manifold.E1), pump.saturation),
        (coupling.q, coupling.transition, _coupling_saturation(coupling.rabi_scale)),
    ]
    for q, transition, sat in beams:
        if sat <= 0:
            continue
        factor = 0.5 * gamma * sat / (1.0 + sat)
        for i, j, amp in scheme.driven(q, transition):
            r = factor * amp * amp
            rate[j, i] += r
            rate[i, i] -= r

    for j, i, frac in scheme.decay_channels():
        rate[i, j] += gamma * frac
        rate[j, j] -= gamma * frac
    return rate


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix or a stack of them (..., n, n)
    by degree-13 Pade approximation with scaling and squaring (Higham, SIAM
    J. Matrix Anal. Appl. 26, 1179 (2005)).

    Each matrix is scaled by its own power of two, 2**-s with s >= 0 the
    least that brings its 1-norm below THETA13, and squared back s times.
    The stack is squared in lockstep, a matrix that needs no more squarings
    keeping its value, so a matrix gives the same bits alone as inside any
    stack."""
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    col_sums = np.abs(a).sum(axis=-2)
    top = float(col_sums.max(initial=0.0))
    if not math.isfinite(top):
        raise ValueError("expm needs a finite matrix")
    squarings = max(math.frexp(top / THETA13)[1], 0)
    if squarings:  # scaling by 2**0 changes no bit, so it is skipped when no matrix needs one
        s = np.maximum(np.frexp(col_sums.max(axis=-1) / THETA13)[1], 0)
        a = a * np.exp2(-s)[..., None, None]
    # I and the even powers in one buffer, so the four sums are one matmul
    powers = np.empty(a.shape[:-2] + (4, n, n))
    powers[..., 0, :, :] = np.eye(n)
    a2 = np.matmul(a, a, out=powers[..., 1, :, :])
    a4 = np.matmul(a2, a2, out=powers[..., 2, :, :])
    a6 = np.matmul(a4, a2, out=powers[..., 3, :, :])
    sums = (_PADE13_SUMS @ powers.reshape(a.shape[:-2] + (4, n * n))).reshape(powers.shape)
    # A^6 (X1, Y1) + (X2, Y2) in one matmul: (A^6 X1 + X2, V); the buffers
    # are dropped so that the solve's temporaries do not add to them
    odd_v = a6[..., None, :, :] @ sums[..., :2, :, :]
    odd_v += sums[..., 2:, :, :]
    del powers, sums, a2, a4, a6
    odd, v = np.moveaxis(odd_v, -3, 0)
    u = a @ odd
    r = np.linalg.solve(v - u, v + u)
    for k in range(squarings):
        r = np.where((s > k)[..., None, None], r @ r, r)
    return r


def _propagate(rates: np.ndarray, pops0: np.ndarray, t_ms: float) -> np.ndarray:
    """expm(R t) p0 for a rate matrix or a stack of them (..., n, n), clipped
    at 0 and renormalized: the one propagator of this module.  It runs on
    the numpy Pade-13 expm above, so pumping needs no scipy."""
    p = np.maximum(expm(rates * t_ms) @ pops0, 0.0)
    return p / p.sum(axis=-1, keepdims=True)


def evolve_populations(rates: np.ndarray, state0: PopulationState,
                       t_ms: float) -> PopulationState:
    """Propagate dp/dt = R p for t_ms by matrix exponential."""
    rates = np.asarray(rates, dtype=float)
    n = state0.scheme.dim
    if rates.shape != (n, n) or not np.isfinite(rates).all():
        raise ValueError(f"rates must be a finite {n}x{n} matrix for the state's scheme")
    if not (math.isfinite(t_ms) and t_ms >= 0):
        raise ValueError("time must be finite and >= 0")
    if t_ms == 0:
        return state0
    return PopulationState(state0.scheme, _propagate(rates, state0.pops, t_ms))


def design_pump(target: np.ndarray, scheme: LevelScheme, coupling: LaserField,
                duration_ms: float = DEFAULT_PUMP_DURATION_MS,
                beam_diameter_mm: float = DEFAULT_BEAM_DIAMETER_MM) -> PumpPlan:
    """Pick the pump polarization and power whose predicted G1 distribution
    (from a uniform start, after duration_ms) is L1-closest to the target.

    The pump enters the rates only through f = s/(1+s), and the rate matrix
    is affine in f: R(f) = R0 + (f/f_max)(R_max - R0), with R0 at zero power
    (the same for every polarization) and R_max at MAX_POWER_MW.  A plan
    therefore needs four rate matrices, and each polarization one search
    over u = f/f_max in [0, 1]: a uniform grid, then golden-section
    refinement on the best grid point's neighbouring cells.
    The three polarizations are one array axis of the search, so the grid is
    one batched matrix exponential and each golden-section step is another.
    The power reported for u is f/(1-f) per unit saturation, written without
    cancellation as MAX_POWER_MW * u / (1 + s_max (1 - u)), so u = 0 is 0 mW
    and u = 1 is exactly the cap.  The chosen plan's prediction is
    re-evaluated through evolve_populations."""
    target = np.asarray(target, dtype=float)
    if (target.shape != (3,) or not np.isfinite(target).all()
            or target.min() < -1e-12 or abs(target.sum() - 1.0) > 1e-6):
        raise ValueError("target must be a finite 3-vector on the simplex")
    s_max = PumpConfig(-1, MAX_POWER_MW, beam_diameter_mm, duration_ms).saturation
    state0 = uniform_g1_state(scheme)
    g1 = _g1_index(scheme)
    pols = (-1, 0, 1)
    r0 = pump_rate_matrix(scheme, PumpConfig(pols[0], 0.0, beam_diameter_mm, duration_ms),
                          coupling)
    r1 = np.array([pump_rate_matrix(scheme, PumpConfig(q, MAX_POWER_MW, beam_diameter_mm,
                                                       duration_ms), coupling)
                   for q in pols]) - r0

    def score(us):
        """L1 distance at us[i, j] on polarization pols[i], from one batched expm."""
        pred = _g1_shares(_propagate(r0 + us[..., None, None] * r1[:, None],
                                     state0.pops, duration_ms), g1)
        return np.abs(pred - target).sum(axis=-1)

    grid_u = np.linspace(0.0, 1.0, GRID_POINTS)
    grid = score(np.tile(grid_u, (len(pols), 1)))
    k = grid.argmin(axis=1)
    lo, hi = grid_u[np.maximum(k - 1, 0)], grid_u[np.minimum(k + 1, GRID_POINTS - 1)]
    step = GOLDEN * (hi - lo)
    ua, ub = hi - step, lo + step
    da, db = score(np.stack([ua, ub], axis=1)).T
    for _ in range(GOLDEN_STEPS):
        # left: keep [lo, ub], a becomes b and a new a is probed;
        # otherwise keep [ua, hi], b becomes a and a new b is probed
        left = da <= db
        hi, lo = np.where(left, ub, hi), np.where(left, lo, ua)
        step = GOLDEN * (hi - lo)
        new_u = np.where(left, hi - step, lo + step)
        new_d = score(new_u[:, None])[:, 0]
        ua, ub = np.where(left, new_u, ub), np.where(left, ua, new_u)
        da, db = np.where(left, new_d, db), np.where(left, da, new_d)

    # per polarization the better of the grid point and the refined pair;
    # argmin keeps the first of equal distances, here and across polarizations
    dists = np.stack([grid.min(axis=1), da, db], axis=1)
    us = np.stack([grid_u[k], ua, ub], axis=1)
    i = int(dists.min(axis=1).argmin())
    j = int(dists[i].argmin())
    dist, u = float(dists[i, j]), float(us[i, j])
    predicted = evolve_populations(r0 + u * r1[i], state0, duration_ms).g1_distribution()
    power = MAX_POWER_MW * u / (1.0 + s_max * (1.0 - u))
    return PumpPlan(pols[i], float(power), predicted, dist)
