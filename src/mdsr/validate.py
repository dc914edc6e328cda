"""Cross-module invariant suite behind the `validate` CLI subcommand.

Each check is independent and returns (passed, detail).  The oracle
checks pit the full Liouvillian machinery against the closed-form
weak-probe coherence that the production spectrum path is built on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .angular import wigner3j
from .bloch import (
    build_hamiltonian,
    build_liouvillian,
    lambda_coherence_analytic,
    steady_state,
    validate_density_matrix,
    weak_probe_coherences,
)
from .config import RunConfig
from .levels import LevelScheme, Manifold, Sublevel, build_level_scheme, relative_dipole
from .pumping import PumpConfig, evolve_populations, pump_rate_matrix, uniform_g1_state
from .spectrum import (
    PopulationDistribution,
    susceptibility_grid,
    synth_spectrum,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def restrict_scheme(scheme: LevelScheme, keep) -> LevelScheme:
    """Sub-scheme over a subset of sublevels (couplings filtered accordingly)."""
    keep = tuple(keep)
    return LevelScheme(
        sublevels=keep,
        zeeman={s: scheme.zeeman[s] for s in keep},
        couplings={k: v for k, v in scheme.couplings.items()
                   if k[0] in keep and k[1] in keep},
    )


def check_wigner_orthogonality() -> CheckResult:
    worst = 0.0
    for tj1 in range(0, 7):
        for tj2 in range(0, 7):
            for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tm3 in range(-tj3, tj3 + 1, 2):
                    total = 0.0
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        tm2 = -tm1 - tm3
                        if abs(tm2) > tj2:
                            continue
                        w = wigner3j(tj1 / 2, tj2 / 2, tj3 / 2,
                                     tm1 / 2, tm2 / 2, tm3 / 2)
                        total += (tj3 + 1) * w * w
                    worst = max(worst, abs(total - 1.0))
    return CheckResult("wigner-3j-orthogonality", worst < 1e-12, f"max deviation {worst:.2e}")


def check_forbidden_zeros() -> CheckResult:
    scheme = build_level_scheme(0.0, include_e1=True)
    bad = []
    for lo in scheme.sublevels:
        if lo.manifold.is_excited:
            continue
        for up in scheme.sublevels:
            if not up.manifold.is_excited:
                continue
            for q in (-1, 0, 1):
                amp = relative_dipole(lo, up, q)
                if (up.m - lo.m != q or abs(up.manifold.f - lo.manifold.f) > 1) and amp != 0.0:
                    bad.append((lo, up, q))
    b0c0 = relative_dipole(Sublevel(Manifold.G2, 0), Sublevel(Manifold.E2, 0), 0)
    a0e0 = relative_dipole(Sublevel(Manifold.G1, 0), Sublevel(Manifold.E1, 0), 0)
    ok = not bad and b0c0 == 0.0 and a0e0 == 0.0
    return CheckResult("forbidden-transition-zeros", ok,
                       f"violations={len(bad)}, b0-c0={b0c0}, a0-e0={a0e0}")


def check_pi_ladder() -> CheckResult:
    amps = [relative_dipole(Sublevel(Manifold.G2, m), Sublevel(Manifold.E2, m), 0)
            for m in range(-2, 3)]
    expected = [1.0, 0.5, 0.0, 0.5, 1.0]
    worst = max(abs(abs(a) - e) for a, e in zip(amps, expected))
    return CheckResult("pi-coupling-ratios-2-1-0-1-2", worst < 1e-12, f"|amps|={[abs(a) for a in amps]}")


def check_dipole_sum_rule() -> CheckResult:
    scheme = build_level_scheme(0.0, include_e1=True)
    sums = {}
    for (lo, up, _q), amp in scheme.couplings.items():
        sums[up] = sums.get(up, 0.0) + amp * amp
    worst = 0.0
    for man in (Manifold.E1, Manifold.E2):
        vals = [sums[s] for s in scheme.manifold_levels(man)]
        ref = vals[0]
        worst = max(worst, max(abs(v - ref) / ref for v in vals))
    return CheckResult("dipole-sum-rule", worst < 1e-12, f"max relative spread {worst:.2e}")


def check_trace_preservation() -> CheckResult:
    model = RunConfig(b_field=0.15).experiment_model()
    h = build_hamiltonian(model.scheme, [model.coupling, model.probe])
    lmat = build_liouvillian(h, model.scheme, model.decay)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        x = rng.normal(size=(13, 13)) + 1j * rng.normal(size=(13, 13))
        x = x + x.conj().T
        worst = max(worst, abs(np.trace((lmat @ x.reshape(-1)).reshape(13, 13))))
    return CheckResult("liouvillian-trace-preservation", worst < 1e-10, f"max |tr L(X)| {worst:.2e}")


def check_b0_trap() -> CheckResult:
    model = RunConfig(b_field=0.15).experiment_model()
    h = build_hamiltonian(model.scheme, [model.coupling])
    lmat = build_liouvillian(h, model.scheme, model.decay)
    rho = np.zeros((13, 13), dtype=complex)
    i = model.scheme.index(Sublevel(Manifold.G2, 0))
    rho[i, i] = 1.0
    res = np.abs(lmat @ rho.reshape(-1)).max()
    return CheckResult("b0-trap-stationarity", res == 0.0, f"|L rho_b0| = {res:.2e}")


def oracle_linear_response_deviation() -> float:
    """Worst relative Im deviation of the 13-level frozen-population probe
    response from the analytic Lambda coherence, over -80..80 MHz at B = 0."""
    model = RunConfig(b_field=0.0).experiment_model()
    scheme = model.scheme
    a = Sublevel(Manifold.G1, -1)
    c = Sublevel(Manifold.E2, -2)
    b = Sublevel(Manifold.G2, -2)
    pops = {Sublevel(Manifold.G1, m): 1 / 3 for m in (-1, 0, 1)}
    rel_p = relative_dipole(a, c, -1)
    rel_c = relative_dipole(b, c, 0)
    worst = 0.0
    for dp in np.arange(-80.0, 80.5, 1.0):
        rho1 = weak_probe_coherences(scheme, model.coupling, model.probe,
                                     model.decay, pops, dp)
        num = rho1[scheme.index(a), scheme.index(c)]
        ana = (1 / 3) * lambda_coherence_analytic(
            rel_p * model.probe.rabi_scale, abs(rel_c) * model.coupling.rabi_scale,
            dp, 0.0, model.decay.gamma_ac, model.decay.gamma_ab)
        if abs(ana.imag) > 1e-6:
            worst = max(worst, abs(num.imag - ana.imag) / abs(ana.imag))
    return worst


def check_oracle_linear_response() -> CheckResult:
    """13-level frozen-population probe response vs the analytic Lambda coherence."""
    worst = oracle_linear_response_deviation()
    return CheckResult("oracle-13-level-linear-response", worst < 0.01,
                       f"max relative Im deviation {worst:.2e}")


def check_oracle_nonlinear_steady_state() -> CheckResult:
    """True Lindblad steady state of the closed Lambda subsystem vs the formula."""
    model = RunConfig(b_field=0.0).experiment_model()
    a, b, c = Sublevel(Manifold.G1, -1), Sublevel(Manifold.G2, -2), Sublevel(Manifold.E2, -2)
    sub = restrict_scheme(model.scheme, (a, b, c))
    coupling, decay = model.coupling, model.decay
    omega_p = 0.1  # below saturation so the first-order formula applies
    probe = replace(model.probe, rabi_scale=omega_p)
    rel_p = relative_dipole(a, c, -1)
    rel_c = relative_dipole(b, c, 0)
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    worst = 0.0
    for dp in np.arange(-80.0, 80.5, 1.0):
        probe_at = replace(probe, detuning=dp)
        h = build_hamiltonian(sub, [coupling, probe_at])
        lmat = build_liouvillian(h, sub, decay)
        rho = steady_state(lmat, rho0)
        validate_density_matrix(rho)
        num = -rho[sub.index(a), sub.index(c)]  # absorption sign convention
        ana = lambda_coherence_analytic(rel_p * omega_p, abs(rel_c) * coupling.rabi_scale,
                                        dp, 0.0, decay.gamma_ac, decay.gamma_ab)
        if abs(ana.imag) > 1e-6:
            worst = max(worst, abs(num.imag - ana.imag) / abs(ana.imag))
    return CheckResult("oracle-lambda-steady-state", worst < 0.01,
                       f"max relative Im deviation {worst:.2e}")


def check_im_chi_nonnegative() -> CheckResult:
    model = RunConfig(b_field=0.15).experiment_model()
    rng = np.random.default_rng(3)
    grid = np.linspace(-120, 120, 481)
    worst = 0.0
    for _ in range(8):
        p = rng.dirichlet([1.0, 1.0, 1.0])
        chi = susceptibility_grid(model, PopulationDistribution(*p), grid)
        worst = min(worst, chi.imag.min())
    return CheckResult("im-chi-nonnegative", worst >= -1e-15, f"min Im chi {worst:.2e}")


def check_chi_linearity() -> CheckResult:
    model = RunConfig(b_field=0.15).experiment_model()
    grid = np.linspace(-80, 80, 81)
    p1, p2 = PopulationDistribution(0.7, 0.2, 0.1), PopulationDistribution(0.1, 0.3, 0.6)
    alpha = 0.37
    mix = PopulationDistribution(*(alpha * p1.as_array() + (1 - alpha) * p2.as_array()))
    lhs = susceptibility_grid(model, mix, grid)
    rhs = alpha * susceptibility_grid(model, p1, grid) + (1 - alpha) * susceptibility_grid(model, p2, grid)
    worst = np.abs(lhs - rhs).max() / np.abs(lhs).max()
    return CheckResult("chi-linear-in-populations", worst < 1e-12, f"max relative deviation {worst:.2e}")


def check_sign_flip_invariance() -> CheckResult:
    model = RunConfig(b_field=0.15).experiment_model()
    flipped_scheme = replace(model.scheme,
                             couplings={k: -v for k, v in model.scheme.couplings.items()})
    flipped = replace(model, scheme=flipped_scheme)
    grid = np.linspace(-80, 80, 161)
    pops = PopulationDistribution(0.32, 0.36, 0.32)
    s1 = synth_spectrum(model, pops, grid)
    s2 = synth_spectrum(flipped, pops, grid)
    worst = np.abs(s1.transmission - s2.transmission).max()
    return CheckResult("coupling-sign-flip-invariance", worst == 0.0, f"max |dT| {worst:.2e}")


def check_window_width_ratio() -> CheckResult:
    """a_-1 subsystem transparency window twice the a_0 one (Omega_c2 = 2 Omega_c1)."""
    model = RunConfig(b_field=0.0).experiment_model()
    grid = np.arange(-60.0, 60.001, 0.05)

    def splitting(pops):
        chi = susceptibility_grid(model, PopulationDistribution(*pops), grid).imag
        idx = [i for i in range(1, len(grid) - 1)
               if chi[i] > chi[i - 1] and chi[i] >= chi[i + 1] and chi[i] > 0.25 * chi.max()]
        return grid[idx[-1]] - grid[idx[0]]

    ratio = splitting((1.0, 0.0, 0.0)) / splitting((0.0, 1.0, 0.0))
    return CheckResult("broad-vs-narrow-window-ratio", abs(ratio - 2.0) < 0.1, f"ratio {ratio:.4f}")


def check_rate_conservation() -> CheckResult:
    scheme = build_level_scheme(0.15, include_e1=True)
    coupling = RunConfig().coupling_field()
    state = uniform_g1_state(scheme)
    worst = 0.0
    for q in (-1, 0, 1):
        rates = pump_rate_matrix(scheme, PumpConfig(q, 3.0), coupling)
        for t in (0.001, 0.1, 1.0):
            evolved = evolve_populations(rates, state, t)
            worst = max(worst, abs(evolved.pops.sum() - 1.0))
    return CheckResult("rate-equation-conservation", worst < 1e-9, f"max |sum-1| {worst:.2e}")


def check_pump_dark_states() -> CheckResult:
    scheme = build_level_scheme(0.15, include_e1=True)
    coupling = RunConfig().coupling_field()
    state = uniform_g1_state(scheme)
    shares = []
    for q, idx in ((-1, 0), (0, 1), (1, 2)):
        rates = pump_rate_matrix(scheme, PumpConfig(q, 20.0, 2.0, 10.0), coupling)
        dist = evolve_populations(rates, state, 10.0).g1_distribution()
        shares.append(dist[idx])
    ok = all(s >= 1.0 - 1e-3 for s in shares)
    return CheckResult("pump-dark-state-limits", ok,
                       "G1 shares " + ", ".join(f"{s:.6f}" for s in shares))


ALL_CHECKS = [
    check_wigner_orthogonality,
    check_forbidden_zeros,
    check_pi_ladder,
    check_dipole_sum_rule,
    check_trace_preservation,
    check_b0_trap,
    check_oracle_linear_response,
    check_oracle_nonlinear_steady_state,
    check_im_chi_nonnegative,
    check_chi_linearity,
    check_sign_flip_invariance,
    check_window_width_ratio,
    check_rate_conservation,
    check_pump_dark_states,
]


def run_checks() -> list:
    return [fn() for fn in ALL_CHECKS]
