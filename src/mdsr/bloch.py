"""Rotating-wave Hamiltonian, Lindblad generator and steady states for the sublevel system.

All frequencies are linear MHz; time is microseconds implicitly (1/MHz).
The decay model maps the two phenomenological coherence decays
(gamma_ab for ground-ground, gamma_ac for optical) onto an excited-state
population decay Gamma = 2(gamma_ac - gamma_ab) branched by squared
dipole amplitudes, plus pure dephasing gamma_ab added to ground-ground
and optical coherences.  With that split the weak-probe Lambda coherence
of `lambda_coherence_analytic`, the closed form that the tests and the
checks in `validate` compare with, is reproduced exactly by the full model.
The sublevel pairs a field drives come from `LevelScheme.driven`, the one
selection rule.

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
The probe detuning moves only frame offsets, so a scan is one stacked solve
on L0(0) + delta * diag(slope).  Block entries that L0 couples to no other
(off-diagonal entries only) and the probe does not drive are exactly 0 and
left out: at gamma_ab = 0 their diagonal alone vanishes on two-photon resonance.
`probe_resolvents` reads the same block off H for the production spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .levels import LevelScheme, Manifold

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
    Gamma > 0 holds for every DecayModel.
    """
    n = scheme.dim
    if h.shape != (n, n):
        raise ValueError("Hamiltonian dimension does not match scheme")
    gamma = decay.gamma_excited

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
    delta_p,
) -> np.ndarray:
    """First-order probe response of the full Liouvillian with frozen populations,
    one (n, n) matrix per probe detuning in delta_p (MHz; a scalar or an array).

    L0 rho1 = -(-i[H_drive, rho0]) is solved, L0 the generator without the
    probe drive and rho0 = diag(ground_populations), populations of the
    probe's ground manifold: the regime of the additive susceptibility
    decomposition.  Only the [g, e] block is solved (module docstring), with
    right-hand side -i P_g H_drive[g, e]; the [e, g] half is its conjugate
    transpose and every other entry is zero.

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
    if not set(ground_populations) <= set(scheme.manifold_levels(gman)):
        raise ValueError("ground_populations must be sublevels of the probe's ground manifold")
    delta = np.asarray(delta_p, dtype=float)
    if not np.isfinite(delta).all():
        raise ValueError("delta_p must be finite")
    n = scheme.dim
    in_g = np.array([s.manifold is gman for s in scheme.sublevels])
    rows, cols = np.flatnonzero(in_g), np.flatnonzero(~in_g)
    block = (rows[:, None] * n + cols).reshape(-1)

    # only the probe drives the ground manifold: its [g, e] block is H_drive
    h = build_hamiltonian(scheme, [coupling, replace(probe, detuning=0.0)])
    pops = np.array([ground_populations.get(s, 0.0) for s in scheme.sublevels])
    rhs = (-1j * pops[rows, None] * h[rows[:, None], cols]).reshape(-1)
    h[rows[:, None], cols] = h[cols[:, None], rows] = 0.0
    l0 = build_liouvillian(h, scheme, decay)[block[:, None], block]
    frame = _frame_offsets(scheme, [replace(coupling, detuning=0.0), replace(probe, detuning=1.0)])
    shift = np.array([frame[s.manifold] for s in scheme.sublevels])  # d H_ii / d delta_p
    slope = (-1j * (shift[rows, None] - shift[cols])).reshape(-1)

    coupled = l0 - np.diag(np.diag(l0)) != 0
    keep = coupled.any(axis=0) | coupled.any(axis=1) | (rhs != 0)
    a0 = l0[keep][:, keep]
    rho1 = np.zeros(delta.shape + (n * n,), dtype=complex)
    rho1[..., block[keep]] = np.linalg.solve(
        a0 + (delta[..., None] * slope[keep])[..., None] * np.eye(len(a0)), rhs[keep])
    rho1 = rho1.reshape(delta.shape + (n, n))
    rho1[..., cols[:, None], rows] = np.swapaxes(rho1[..., rows[:, None], cols], -1, -2).conj()
    return -rho1


def probe_resolvents(scheme: LevelScheme, coupling: LaserField, probe: LaserField,
                     decay: DecayModel) -> tuple:
    """First-order probe response of each sublevel a of the probe's ground
    manifold, which only the probe may drive (as `ExperimentModel` checks),
    one column per sublevel in scheme order:
    chi_a(delta) = 1/2 d_a^T (delta + H_aa - H_eff)^-1 d_a, with H at zero
    probe detuning, d_a = -2 H[a, .] and H_eff the block of H outside that
    manifold plus i gamma_ac on excited and i gamma_ab on ground levels: the
    block `weak_probe_coherences` solves, read off H.  One coupling beam pairs
    a level with at most one other, so the probe drives a level c and at most
    one partner b, found from H's nonzero entries.  Cramer's rule gives
    chi_a = half_d2 m_b / (m_c m_b - h2), m_x = delta slope_x + u_x, an absent
    level a decoupled unit row; returns (half_d2, slope_c, u_c, slope_b, u_b, h2)."""
    gman = probe.transition[0]
    h = build_hamiltonian(scheme, [coupling, replace(probe, detuning=0.0)]).real
    in_g = np.array([s.manifold is gman for s in scheme.sublevels])
    level = np.diag(h)
    drive = h - np.diag(level)
    rows = np.flatnonzero(in_g)
    half_d2, slope_c, slope_b, h2 = np.zeros((4, len(rows)))
    u_c, u_b = np.ones((2, len(rows)), dtype=complex)
    # probe links a -> c (c excited), then the coupling partner b of c (b ground)
    k, c = np.nonzero(drive[rows])
    j, b = np.nonzero(drive[c] * ~in_g)
    half_d2[k] = 2.0 * drive[rows[k], c] ** 2
    slope_c[k] = 1.0
    u_c[k] = level[rows[k]] - level[c] - 1j * decay.gamma_ac
    slope_b[k[j]] = 1.0
    u_b[k[j]] = level[rows[k[j]]] - level[b] - 1j * decay.gamma_ab
    h2[k[j]] = drive[c[j], b] ** 2
    return half_d2, slope_c, u_c, slope_b, u_b, h2
