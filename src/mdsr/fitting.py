"""Population / density inversion on the model's linear basis.

The susceptibility is linear in w = n_F1 * P, so T = exp(-B x), with
x = w / n >= 0 and B the per-sublevel optical depth at the model's density n
(`spectrum.optical_depth_basis`, built once per fit).  One solver serves every
fit and profile point: a damped Gauss-Newton with the analytic Jacobian
J = -T B on {x >= 0, lo <= sum(x) <= hi}, each step minimising the damped
linearised cost over that set exactly.  The full support is solved first,
as one k x k system with the sum clipped to [lo, hi]: a point whose every
weight exceeds INTERIOR_MARGIN times the sum meets the KKT conditions and is
the step.  Only nearer a face, where rounding could leave a weight a hair
above 0, are the proper faces (6 for 3 weights) solved in one stacked LAPACK
call beside it and the best sign-feasible support taken (the active-set
enumeration of Lawson & Hanson, ch. 23).  It starts from the same bounded
least squares on -ln T, so there is no start list or initial guess.
Fixed-density fits and density profiles pin sum(x); population profiles fit
two weights u through w = A u.  A fit reports why it stopped
(`FitResult.stop_reason`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from itertools import combinations

import numpy as np

from .spectrum import (
    N_F1_RANGE_CM3,
    ExperimentModel,
    PopulationDistribution,
    Spectrum,
    optical_depth_basis,
    synth_spectrum,
)

STEP_TOL = 1e-10
RESIDUAL_DECREASE_TOL = 1e-12
MIN_DAMPING = 1e-12
MAX_DAMPING_TRIES = 40
DIAG_FLOOR = 1e-12
# a full-support step whose every weight exceeds this share of their sum is
# the step; nearer a face, rounding can put a weight a hair above 0 where the
# support enumeration finds it exactly 0 at a lower cost
INTERIOR_MARGIN = 1e-6
# -ln T of a point below this transmission is dominated by noise
WARM_START_FLOOR = 0.05
# Reference-noise fits stop within 43 iterations.  A fit that reaches the cap
# has a misspecified model or heavy noise, and a higher cap only lets it
# crawl on to "decrease" at the same residual.
MAX_ITERATIONS = 200
# `_solve` stops on a step below STEP_TOL ("step"), a cost decrease below
# RESIDUAL_DECREASE_TOL ("decrease"), MAX_DAMPING_TRIES rejected steps in a
# row ("damping") or MAX_ITERATIONS steps ("iterations"); the first two converge
CONVERGED_STOPS = ("step", "decrease")


@dataclass(frozen=True)
class FitProblem:
    observed: Spectrum
    model_template: ExperimentModel   # non-fitted parameters fixed
    fit_density: bool = True          # else N_F1 stays at model_template.n_f1

    def __post_init__(self):
        free = 3 if self.fit_density else 2
        if len(self.observed) < free:
            raise ValueError(f"observed spectrum has {len(self.observed)} points; "
                             f"fitting {free} weights needs at least {free}")
        if not self.model_template.n_f1 > 0:
            raise ValueError("model_template.n_f1 must be > 0")


@dataclass(frozen=True)
class FitResult:
    pops: PopulationDistribution
    n_f1: float
    residual_rms: float
    iterations: int
    converged: bool
    jacobian_condition: float
    stop_reason: str                  # "step", "decrease", "damping" or "iterations"


def residuals(problem: FitProblem, pops: PopulationDistribution, n_f1: float) -> np.ndarray:
    """Model transmission minus observed transmission on the observed grid."""
    model = replace(problem.model_template, n_f1=n_f1)
    synth = synth_spectrum(model, pops, problem.observed.detunings)
    return synth.transmission - problem.observed.transmission


@cache
def _face_rows(k: int) -> np.ndarray:
    """Rows of [[G, 0], [0, I_{k-1}]] and of [[rhs, 1], [0, 0]] that stack each
    proper face S of range(k), in `combinations` order, as a (k-1) x (k-1)
    system: G restricted to S, then the identity, with sides (rhs_S, 1_S), then
    zeros, so LAPACK factors the block exactly as it would alone.  The same
    rows scatter S's weights back to their columns, the padding past column k.
    """
    rows = np.array([list(face) + list(range(k + size, 2 * k - 1))
                     for size in range(1, k) for face in combinations(range(k), size)])
    rows.flags.writeable = False   # shared by every call
    return rows


def _clip_sum(solved: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Minimisers from solved = G_S^-1 [rhs_S, 1_S] (..., k, 2), each moved
    along G_S^-1 1_S until its sum is clipped to [lo, hi]."""
    total, along_total = solved.sum(axis=-2).T
    excess = total - np.minimum(np.maximum(total, lo), hi)
    return solved[..., 0] - (excess / along_total)[..., None] * solved[..., 1]


def _bounded_lsq(gram: np.ndarray, rhs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """argmin y'Gy - 2 rhs'y over {y >= 0, lo <= sum(y) <= hi}, G positive definite.

    The minimiser with support S also minimises over {supp(y) = S,
    lo <= sum(y) <= hi} with no sign constraint, where the sum is that of the
    unconstrained minimiser clipped to [lo, hi].  The full support is solved
    first, alone.  If every component exceeds INTERIOR_MARGIN times the sum,
    the point is positive and the multiplier of a clipped sum has the sign
    its active bound needs, so it meets the KKT conditions and, G being
    positive definite, is the unique minimiser.  The margin sends a point
    within rounding of a face to the enumeration, which finds such a
    component exactly 0 at a lower cost; with it, every step is the one the
    enumeration alone would take, bit for bit.  Otherwise the best
    sign-feasible candidate over all supports is exact: one stacked solve of
    the proper faces (6 for 3 unknowns) gives their candidates, the full
    support's comes last, and a tie keeps the first in `combinations` order.
    """
    k = rhs.size
    rhs_ones = np.zeros((2 * k - 1, 2))
    rhs_ones[:k, 0] = rhs
    rhs_ones[:k, 1] = 1.0
    y = _clip_sum(np.linalg.solve(gram, rhs_ones[:k]), lo, hi)
    if y.min() > INTERIOR_MARGIN * y.sum():
        return y
    rows = _face_rows(k)
    padded = np.eye(2 * k - 1)
    padded[:k, :k] = gram
    solved = np.linalg.solve(padded[rows[:, :, None], rows[:, None, :]], rhs_ones[rows])
    ys = np.zeros((len(rows) + 1, 2 * k - 1))
    ys[np.arange(len(rows))[:, None], rows] = _clip_sum(solved, lo, hi)
    ys[-1, :k] = y
    twice_rhs = 2.0 * rhs
    best, best_value = (np.zeros(k), 0.0) if lo <= 0 else (None, np.inf)
    ys = ys[:, :k]
    for y in ys[ys.min(axis=1) >= 0]:
        value = y @ gram @ y - twice_rhs @ y
        if value < best_value:
            best, best_value = y, value
    return best


def _damped(jac: np.ndarray, target: np.ndarray, lam: float, center: np.ndarray):
    """Gram matrix and right-hand side of |J y - target|^2 + lam |D (y - center)|^2,
    D^2 the diagonal of J'J with a floor."""
    gram = jac.T @ jac
    d = lam * np.maximum(np.diag(gram), DIAG_FLOOR)
    return gram + np.diag(d), jac.T @ target + d * center


def _solve(basis: np.ndarray, observed: np.ndarray, lo: float, hi: float):
    """Fit exp(-basis @ x) to observed on {x >= 0, lo <= sum(x) <= hi}.

    Damped Gauss-Newton from the -ln T start; accepted steps never increase
    the residual norm.  Returns (x, exp(-basis @ x), iterations, stop_reason).
    """
    k = basis.shape[1]
    keep = observed > WARM_START_FLOOR
    if keep.any():
        weight = observed[keep]
        x = _bounded_lsq(*_damped(weight[:, None] * basis[keep], -weight * np.log(weight),
                                  MIN_DAMPING, np.zeros(k)), lo, hi)
    else:
        x = np.full(k, min(max(1.0, lo), hi) / k)
    t = np.exp(-basis @ x)
    r = t - observed
    cost = float(r @ r)
    lam = 1e-3
    for iteration in range(1, MAX_ITERATIONS + 1):
        jac = -t[:, None] * basis
        for _ in range(MAX_DAMPING_TRIES):
            y = _bounded_lsq(*_damped(jac, jac @ x - r, lam, x), lo, hi)
            if np.linalg.norm(y - x) < STEP_TOL:
                return x, t, iteration, "step"
            t_new = np.exp(-basis @ y)
            r_new = t_new - observed
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                break
            lam *= 10
        else:
            return x, t, iteration, "damping"
        decrease = cost - cost_new
        x, t, r, cost = y, t_new, r_new, cost_new
        lam = max(lam / 10, MIN_DAMPING)
        if decrease < RESIDUAL_DECREASE_TOL:
            return x, t, iteration, "decrease"
    return x, t, MAX_ITERATIONS, "iterations"


def _basis(problem: FitProblem) -> np.ndarray:
    return optical_depth_basis(problem.model_template, problem.observed.detunings)


def _sum_bounds(problem: FitProblem) -> tuple:
    if not problem.fit_density:
        return 1.0, 1.0
    lo, hi = N_F1_RANGE_CM3
    return lo / problem.model_template.n_f1, hi / problem.model_template.n_f1


def fit_populations(problem: FitProblem) -> FitResult:
    """Least-squares inversion of the observed spectrum for populations
    (and optionally density).  Deterministic: one start, computed from the data."""
    basis = _basis(problem)
    x, t, iterations, stop_reason = _solve(basis, problem.observed.transmission,
                                           *_sum_bounds(problem))
    pops = PopulationDistribution(*(x / x.sum()))
    n = problem.model_template.n_f1
    if problem.fit_density:
        n = float(np.clip(n * x.sum(), *N_F1_RANGE_CM3))
    r = residuals(problem, pops, n)
    jac = t[:, None] * basis
    return FitResult(
        pops=pops,
        n_f1=n,
        residual_rms=float(np.sqrt((r @ r) / r.size)),
        iterations=iterations,
        converged=stop_reason in CONVERGED_STOPS,
        jacobian_condition=float(np.linalg.cond(jac)),
        stop_reason=stop_reason,
    )


@dataclass(frozen=True)
class ProfilePoint:
    value: float
    residual_rms: float
    converged: bool


PROFILE_PARAMS = ("p_minus", "p_zero", "p_plus", "n_f1")


def _pinned_population_map(pos: int, value: float) -> np.ndarray:
    """3x2 map u -> w with P_pos = value and sum(w) = sum(u)."""
    a = np.zeros((3, 2))
    a[pos] = value
    a[[i for i in range(3) if i != pos], [0, 1]] = 1.0 - value
    return a


def profile_scan(problem: FitProblem, param: str, grid) -> list:
    """Residual profile over one parameter, refitting the others per point."""
    if param not in PROFILE_PARAMS:
        raise ValueError(f"unknown profile parameter {param!r}")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"profile grid must be one-dimensional, not of shape {grid.shape}")
    if grid.size == 0:
        raise ValueError("profile grid is empty")
    low, high = N_F1_RANGE_CM3 if param == "n_f1" else (0.0, 1.0)
    if not (np.all(grid >= low) and np.all(grid <= high)):
        raise ValueError(f"profile values for {param} outside [{low:g}, {high:g}]")
    basis = _basis(problem)
    lo, hi = _sum_bounds(problem)
    out = []
    for value in grid:
        if param == "n_f1":
            mapped, bounds = basis, (value / problem.model_template.n_f1,) * 2
        else:
            mapped = basis @ _pinned_population_map(PROFILE_PARAMS.index(param), value)
            bounds = lo, hi
        _x, t, _iters, stop_reason = _solve(mapped, problem.observed.transmission, *bounds)
        r = t - problem.observed.transmission
        out.append(ProfilePoint(float(value), float(np.sqrt((r @ r) / r.size)),
                                stop_reason in CONVERGED_STOPS))
    return out
