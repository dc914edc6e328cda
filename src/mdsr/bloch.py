"""Rotating-wave Hamiltonian, Lindblad generator and steady states for the sublevel system.

All frequencies are linear MHz; time is microseconds implicitly (1/MHz).
The decay model maps the two phenomenological coherence decays
(gamma_ab for ground-ground, gamma_ac for optical) onto an excited-state
population decay Gamma = 2(gamma_ac - gamma_ab) branched by squared
dipole amplitudes, plus pure dephasing gamma_ab added to ground-ground
and optical coherences.  With that split the weak-probe Lambda coherence
of `lambda_coherence_analytic` is reproduced exactly by the full model.
The sublevel pairs a field drives come from `LevelScheme.driven`, the one
selection rule.
That function is the package's one copy of the Lambda formula: the
production spectrum (`spectrum.susceptibility_grid`) evaluates it on whole
detuning grids, and the checks in `validate` compare it with this module's
Liouvillian.

`steady_state` needs a one-dimensional kernel: on a degenerate one (dark or
decoupled subspaces) it returns rho0 if rho0 is stationary and raises
`SteadyStateError` otherwise.

`weak_probe_coherences` solves the first-order probe response on one block
of Liouville space: the coherences with a row in the probe's ground
manifold and a column outside it.  The block is closed under the
probe-free generator L0 because no field other than the probe drives that
manifold (its rows of H are diagonal), and decay feeds only populations;
so L0 has no entry between the block and the rest.  The probe drive of the
frozen ground populations lies in the block and its conjugate transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .levels import LevelScheme, Manifold, Sublevel

# steady_state's kernel and residual bounds, relative to max(||L||_2, 1)
KERNEL_TOL = 1e-10
RESIDUAL_TOL = 1e-9
# validate_density_matrix's Hermiticity, trace and positivity bounds
HERM_TOL = 1e-10
TRACE_TOL = 1e-9
POS_TOL = 1e-9


@dataclass(frozen=True)
class LaserField:
    """One beam: polarization component q, Rabi scale on the unit-amplitude
    reference transition (MHz), detuning from the zero-field line center (MHz),
    and the (ground manifold, excited manifold) transition it addresses."""

    q: int
    rabi_scale: float
    detuning: float
    transition: tuple  # (Manifold ground, Manifold excited)

    def __post_init__(self):
        if self.q not in (-1, 0, 1):
            raise ValueError(f"q must be -1, 0 or +1, got {self.q}")
        if not (math.isfinite(self.rabi_scale) and self.rabi_scale >= 0):
            raise ValueError("rabi_scale must be finite and >= 0")
        if not math.isfinite(self.detuning):
            raise ValueError("detuning must be finite")
        g, e = self.transition
        if g.is_excited or not e.is_excited:
            raise ValueError("transition must be (ground manifold, excited manifold)")


@dataclass(frozen=True)
class DecayModel:
    gamma_ab: float  # ground-ground coherence decay, MHz
    gamma_ac: float  # optical coherence decay, MHz

    def __post_init__(self):
        if not (math.isfinite(self.gamma_ac) and self.gamma_ac > self.gamma_ab >= 0):
            raise ValueError("require finite gamma_ac > gamma_ab >= 0")

    @property
    def gamma_excited(self) -> float:
        """Excited-state population decay rate Gamma = 2(gamma_ac - gamma_ab)."""
        return 2.0 * (self.gamma_ac - self.gamma_ab)


class SteadyStateError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def validate_density_matrix(rho: np.ndarray):
    """Raise ValueError unless rho is Hermitian, unit-trace and positive."""
    if np.abs(rho - rho.conj().T).max() > HERM_TOL:
        raise ValueError("density matrix not Hermitian")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        raise ValueError("density matrix trace != 1")
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -POS_TOL:
        raise ValueError("density matrix not positive semidefinite")


def _frame_offsets(scheme: LevelScheme, fields) -> dict:
    """Rotating-frame energy offset per manifold, propagated across field links."""
    seen_pairs = set()
    for f in fields:
        if f.transition in seen_pairs:
            raise ValueError(f"two fields drive the same transition pair {f.transition}")
        seen_pairs.add(f.transition)

    manifolds = {s.manifold for s in scheme.sublevels}
    offsets = {}
    links = [(f.transition[0], f.transition[1], f.detuning) for f in fields]
    # anchor each connected component at its first-listed manifold
    for man in [Manifold.G1, Manifold.G2, Manifold.E1, Manifold.E2]:
        if man not in manifolds or man in offsets:
            continue
        offsets[man] = 0.0
        stack = [man]
        while stack:
            cur = stack.pop()
            for g, e, det in links:
                if g is cur and e not in offsets:
                    offsets[e] = offsets[g] - det
                    stack.append(e)
                elif e is cur and g not in offsets:
                    offsets[g] = offsets[e] + det
                    stack.append(g)
    return offsets


def build_hamiltonian(scheme: LevelScheme, fields) -> np.ndarray:
    """RWA Hamiltonian in MHz: diagonal = frame offset + Zeeman shift,
    off-diagonal = -Omega/2 per pair a field drives (`LevelScheme.driven`;
    Omega = rabi_scale * amplitude)."""
    offsets = _frame_offsets(scheme, fields)
    n = scheme.dim
    h = np.zeros((n, n), dtype=complex)
    for i, s in enumerate(scheme.sublevels):
        h[i, i] = offsets[s.manifold] + scheme.zeeman[s]
    for f in fields:
        for i, j, amp in scheme.driven(f.q, f.transition):
            h[i, j] += -0.5 * f.rabi_scale * amp
            h[j, i] += -0.5 * f.rabi_scale * amp
    return h


def build_liouvillian(h: np.ndarray, scheme: LevelScheme, decay: DecayModel) -> np.ndarray:
    """Generator for rho.reshape(-1) (row-major): coherent part
    -i(H x I - I x H^T), branched excited-state decay, and the
    phenomenological dephasing that pins coherence decays to gamma_ab/gamma_ac.

    A decay channel sqrt(Gamma f)|g><e| is one transfer entry
    L[(g,g),(e,e)] = Gamma f; the rest of the dissipator is diagonal:
    -(loss_i + loss_j)/2, with loss the total decay rate out of a sublevel,
    minus gamma_ab on every coherence that is not between two excited levels.
    """
    n = scheme.dim
    if h.shape != (n, n):
        raise ValueError("Hamiltonian dimension does not match scheme")
    gamma = decay.gamma_excited
    if gamma <= 0:
        raise ValueError("excited-state decay rate must be positive")

    idx = np.arange(n)
    lmat = np.zeros((n, n, n, n), dtype=complex)  # [i, j, k, l]: d rho_ij / d rho_kl
    lmat[:, idx, :, idx] = -1j * h
    lmat[idx, :, idx, :] += 1j * h.T
    loss = np.zeros(n)
    for e, g, frac in scheme.decay_channels():
        lmat[g, g, e, e] += gamma * frac
        loss[e] += gamma * frac
    # gamma_ab on ground-ground and ground-excited coherences, so optical
    # coherences decay at Gamma/2 + gamma_ab = gamma_ac in total
    excited = np.array([s.manifold.is_excited for s in scheme.sublevels])
    deph = np.where(np.logical_and.outer(excited, excited), 0.0, decay.gamma_ab)
    np.fill_diagonal(deph, 0.0)
    lmat[idx[:, None], idx, idx[:, None], idx] -= 0.5 * np.add.outer(loss, loss) + deph
    return lmat.reshape(n * n, n * n)


def steady_state(lmat: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    """Steady state of the generator: the unique trace-1 kernel element
    (independent of rho0) if the kernel is one-dimensional, else rho0 if it
    is stationary; SteadyStateError otherwise."""
    n = int(round(np.sqrt(lmat.shape[0])))
    _u, svals, vh = np.linalg.svd(lmat)
    scale = max(svals[0], 1.0)
    target = RESIDUAL_TOL * scale
    if np.sum(svals < KERNEL_TOL * scale) == 1:
        rho = vh[-1].conj().reshape(n, n)
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real
        res = np.linalg.norm(lmat @ rho.reshape(-1))
        if res > target:
            raise SteadyStateError("kernel element fails residual check", res)
        return rho

    rho = 0.5 * (rho0 + rho0.conj().T)
    res = np.linalg.norm(lmat @ rho.reshape(-1))
    if res < target:
        return rho
    raise SteadyStateError("no unique steady state and rho0 is not stationary", res)


def lambda_coherence_analytic(omega_p, omega_c, delta_p, delta_c, gamma_ac, gamma_ab):
    """First-order weak-probe coherence of a Lambda system (all MHz).

    rho_ac = (i omega_p / 2) / [(gamma_ac + i delta_p)
             + (omega_c^2/4) / (gamma_ab + i(delta_p - delta_c))]

    Elementwise, with numpy broadcasting over all arguments; scalar arguments
    give a Python complex.  Where omega_c = 0 there is no dressing term (the
    bare line), and where omega_c != 0 on an undamped two-photon resonance
    (gamma_ab + i(delta_p - delta_c) = 0) the coherence is 0 (perfect dark
    state).  Sign convention: Im(rho_ac) >= 0 means absorption.  Valid for
    omega_p well below saturation; not enforced.
    """
    omega_c = np.asarray(omega_c, dtype=float)
    raman = np.asarray(gamma_ab + 1j * np.subtract(delta_p, delta_c))
    resonant = raman == 0.0
    # a resonant entry divides by 1 instead: no dressing where omega_c = 0,
    # and the dark-state 0 is set below where omega_c != 0.  Both guards
    # write in place: a fresh array per guard costs more than the guard
    # itself on a 3201-point grid.
    np.copyto(raman, 1.0, where=resonant)
    rho = np.asarray((0.5j * omega_p) / (gamma_ac + 1j * delta_p + (omega_c * omega_c / 4.0) / raman))
    np.copyto(rho, 0.0, where=resonant & (omega_c != 0.0))
    return complex(rho) if rho.ndim == 0 else rho


def weak_probe_coherences(
    scheme: LevelScheme,
    coupling: LaserField,
    probe: LaserField,
    decay: DecayModel,
    ground_populations: dict,
    delta_p: float,
) -> np.ndarray:
    """First-order probe response of the full Liouvillian with frozen populations.

    Returns the first-order density-matrix correction: the generator is split
    into L0 (coupling + frames, probe drive removed) and the probe drive, and
    L0 rho1 = -(-i[H_drive, rho0]) is solved with rho0 = diag(ground_populations).
    This is the regime of the additive susceptibility decomposition, where
    ground populations enter as external parameters.

    Only the block of rho1 with a row in the probe's ground manifold and a
    column outside it is solved (3 x 10 unknowns on the 13-level scheme); the
    [e, g] half is its conjugate transpose and every other entry is zero.

    The result is returned in the sign convention of
    `lambda_coherence_analytic`: with the -Omega/2 Hamiltonian convention the
    raw first-order solution is the negative of the analytic coherence, so it
    is negated here.  Entry [g, e] then equals
    population(g) * lambda_coherence_analytic(amp_probe * omega_p, ...) with
    the signed probe amplitude of that transition.
    """
    gman = probe.transition[0]
    if coupling.transition[0] is gman:
        raise ValueError("the coupling drives the probe's ground manifold, "
                         "so the first-order probe block is not closed")
    probe_at = LaserField(probe.q, probe.rabi_scale, delta_p, probe.transition)
    h_full = build_hamiltonian(scheme, [coupling, probe_at])
    h0 = build_hamiltonian(scheme, [coupling, LaserField(probe.q, 0.0, delta_p, probe.transition)])
    hdrive = h_full - h0

    l0 = build_liouvillian(h0, scheme, decay)
    n = scheme.dim
    rho0 = np.zeros((n, n), dtype=complex)
    for s, p in ground_populations.items():
        rho0[scheme.index(s), scheme.index(s)] = p
    drive = -1j * (hdrive @ rho0 - rho0 @ hdrive)

    in_g = np.array([s.manifold is gman for s in scheme.sublevels])
    rows, cols = np.flatnonzero(in_g), np.flatnonzero(~in_g)
    block = (rows[:, None] * n + cols).reshape(-1)
    sol, *_ = np.linalg.lstsq(l0[np.ix_(block, block)],
                              -drive[np.ix_(rows, cols)].reshape(-1), rcond=None)
    rho1 = np.zeros((n, n), dtype=complex)
    rho1[np.ix_(rows, cols)] = sol.reshape(rows.size, cols.size)
    rho1[np.ix_(cols, rows)] = rho1[np.ix_(rows, cols)].conj().T
    return -rho1
