import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from mdsr.bloch import (
    DecayModel,
    _frame_offsets,
    LaserField,
    SteadyStateError,
    build_hamiltonian,
    build_liouvillian,
    lambda_coherence_analytic,
    steady_state,
    validate_density_matrix,
    weak_probe_coherences,
)
from mdsr.levels import Manifold, Sublevel, build_level_scheme, relative_dipole
from mdsr.validate import restrict_scheme

COUPLING = LaserField(0, 78.0, 0.0, (Manifold.G2, Manifold.E2))
PROBE = LaserField(-1, 1.0, 0.0, (Manifold.G1, Manifold.E2))
DECAY = DecayModel(2.0, 4.0)


def lindblad_kron(h, jumps):
    """Textbook vectorized Lindblad generator for rho.reshape(-1) (row-major):
    L = -i(H x I - I x H^T) + sum_k [A x conj(A) - (A^+A x I + I x (A^+A)^T)/2]."""
    n = h.shape[0]
    eye = np.eye(n)
    lmat = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for a in jumps:
        ada = a.conj().T @ a
        lmat += np.kron(a, a.conj())
        lmat -= 0.5 * (np.kron(ada, eye) + np.kron(eye, ada.T))
    return lmat


def kron_liouvillian(h, scheme, decay):
    """Reference for `build_liouvillian`: one jump operator per dipole-allowed
    decay channel, branched by squared amplitudes, plus gamma_ab dephasing on
    every coherence that is not between two excited sublevels."""
    n = scheme.dim
    strength = {}
    for (lo, up, _q), amp in scheme.couplings.items():
        strength.setdefault(up, []).append((lo, amp * amp))
    jumps = []
    for up, lst in strength.items():
        total = sum(w for _, w in lst)
        for lo, w in lst:
            a = np.zeros((n, n), dtype=complex)
            a[scheme.index(lo), scheme.index(up)] = np.sqrt(decay.gamma_excited * w / total)
            jumps.append(a)
    lmat = lindblad_kron(h, jumps)
    excited = [s.manifold.is_excited for s in scheme.sublevels]
    for i in range(n):
        for j in range(n):
            if i != j and not (excited[i] and excited[j]):
                lmat[i * n + j, i * n + j] -= decay.gamma_ab
    return lmat


def filter_hamiltonian(scheme, fields):
    """Reference for `build_hamiltonian`: each field's couplings picked by
    filtering `scheme.couplings` on polarization and manifold pair."""
    offsets = _frame_offsets(scheme, fields)
    n = scheme.dim
    h = np.zeros((n, n), dtype=complex)
    for i, s in enumerate(scheme.sublevels):
        h[i, i] = offsets[s.manifold] + scheme.zeeman[s]
    for f in fields:
        gman, eman = f.transition
        for (lo, up, q), amp in scheme.couplings.items():
            if q == f.q and lo.manifold is gman and up.manifold is eman:
                i, j = scheme.index(lo), scheme.index(up)
                h[i, j] += -0.5 * f.rabi_scale * amp
                h[j, i] += -0.5 * f.rabi_scale * amp
    return h


def two_level_liouvillian(omega, gamma, delta=0.0):
    # b_+2 <-> c_+2 has unit amplitude and decays only to b_+2, so this is
    # H = [[0, -omega/2], [-omega/2, -delta]] with one jump sqrt(gamma)|b><c|
    sub = restrict_scheme(build_level_scheme(0.0),
                          (Sublevel(Manifold.G2, 2), Sublevel(Manifold.E2, 2)))
    h = build_hamiltonian(sub, [LaserField(0, omega, delta, (Manifold.G2, Manifold.E2))])
    return build_liouvillian(h, sub, DecayModel(0.0, gamma / 2))


class TestLaserFieldAndDecay:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            LaserField(2, 1.0, 0.0, (Manifold.G1, Manifold.E2))
        with pytest.raises(ValueError):
            LaserField(0, -1.0, 0.0, (Manifold.G1, Manifold.E2))
        with pytest.raises(ValueError):
            LaserField(0, 1.0, 0.0, (Manifold.E2, Manifold.G1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["rabi_scale", "detuning"])
    def test_field_rejects_non_finite(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            replace(PROBE, **{field: bad})

    def test_decay_validation(self):
        with pytest.raises(ValueError):
            DecayModel(4.0, 4.0)  # would give Gamma = 0
        with pytest.raises(ValueError):
            DecayModel(-1.0, 4.0)
        with pytest.raises(ValueError, match="finite"):
            DecayModel(2.0, math.inf)

    def test_reference_decay_rates_give_gamma_4(self):
        assert DECAY.gamma_excited == pytest.approx(4.0)


class TestHamiltonian:
    def test_no_fields_zero_field_is_zero_matrix(self):
        scheme = build_level_scheme(0.0)
        h = build_hamiltonian(scheme, [])
        assert np.abs(h).max() == 0.0

    def test_two_level_pair_off_diagonal(self):
        scheme = build_level_scheme(0.0)
        # b_+2 <-> c_+2 has unit amplitude: Omega = 78 -> element -39
        sub = restrict_scheme(scheme, (Sublevel(Manifold.G2, 2), Sublevel(Manifold.E2, 2)))
        h = build_hamiltonian(sub, [COUPLING])
        assert h[0, 1] == pytest.approx(-39.0)
        assert h[0, 0] == h[1, 1] == 0.0

    def test_b0_c0_element_is_zero(self):
        scheme = build_level_scheme(0.0)
        h = build_hamiltonian(scheme, [COUPLING])
        i = scheme.index(Sublevel(Manifold.G2, 0))
        j = scheme.index(Sublevel(Manifold.E2, 0))
        assert h[i, j] == 0.0

    def test_rejects_duplicate_transition_fields(self):
        scheme = build_level_scheme(0.0)
        with pytest.raises(ValueError):
            build_hamiltonian(scheme, [COUPLING, replace(COUPLING, detuning=5.0)])

    def test_hermitian(self):
        scheme = build_level_scheme(0.3)
        h = build_hamiltonian(scheme, [COUPLING, PROBE])
        assert np.abs(h - h.conj().T).max() == 0.0

    @pytest.mark.parametrize("include_e1", [False, True])
    @pytest.mark.parametrize("b_field", [0.0, 0.15, 0.9])
    def test_bitwise_equal_to_filter_reference(self, include_e1, b_field):
        scheme = build_level_scheme(b_field, include_e1=include_e1)
        pairs = [(Manifold.G2, Manifold.E2, Manifold.G1, Manifold.E2)]
        if include_e1:
            pairs.append((Manifold.G2, Manifold.E1, Manifold.G1, Manifold.E1))
        for (cg, ce, pg, pe), qc, qp in itertools.product(pairs, (-1, 0, 1), (-1, 0, 1)):
            fields = [LaserField(qc, 78.0, 1.5, (cg, ce)), LaserField(qp, 1.3, -2.0, (pg, pe))]
            for subset in (fields[:1], fields[1:], fields):
                h = build_hamiltonian(scheme, subset)
                assert h.tobytes() == filter_hamiltonian(scheme, subset).tobytes()


class TestLiouvillian:
    def test_trace_preservation(self):
        scheme = build_level_scheme(0.15)
        h = build_hamiltonian(scheme, [COUPLING, PROBE])
        lmat = build_liouvillian(h, scheme, DECAY)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.normal(size=(13, 13)) + 1j * rng.normal(size=(13, 13))
            x = x + x.conj().T
            assert abs(np.trace((lmat @ x.reshape(-1)).reshape(13, 13))) < 1e-10

    def test_dimension_mismatch_rejected(self):
        scheme = build_level_scheme(0.0)
        with pytest.raises(ValueError):
            build_liouvillian(np.zeros((5, 5)), scheme, DECAY)

    def test_b0_population_is_stationary(self):
        scheme = build_level_scheme(0.15)
        h = build_hamiltonian(scheme, [COUPLING])
        lmat = build_liouvillian(h, scheme, DECAY)
        rho = np.zeros((13, 13), dtype=complex)
        i = scheme.index(Sublevel(Manifold.G2, 0))
        rho[i, i] = 1.0
        assert np.abs(lmat @ rho.reshape(-1)).max() == 0.0

    @pytest.mark.parametrize("b_field", [0.0, 0.15, 0.7])
    @pytest.mark.parametrize("levels", [3, 13, 16])
    def test_matches_kron_lindblad_form(self, levels, b_field):
        scheme = build_level_scheme(b_field, include_e1=levels == 16)
        if levels == 3:
            scheme = restrict_scheme(scheme, (Sublevel(Manifold.G1, -1), Sublevel(Manifold.G2, -2),
                                              Sublevel(Manifold.E2, -2)))
        assert scheme.dim == levels
        probe = replace(PROBE, detuning=-7.0)
        h = build_hamiltonian(scheme, [replace(COUPLING, detuning=3.0), probe])
        lmat = build_liouvillian(h, scheme, DECAY)
        assert np.abs(lmat - kron_liouvillian(h, scheme, DECAY)).max() <= 1e-14

    def test_two_level_generator_is_textbook_form(self):
        omega, gamma, delta = 3.0, 4.0, 1.5
        h = np.array([[0.0, -omega / 2], [-omega / 2, -delta]], dtype=complex)
        jump = np.zeros((2, 2), dtype=complex)
        jump[0, 1] = np.sqrt(gamma)
        expected = lindblad_kron(h, [jump])
        assert np.abs(two_level_liouvillian(omega, gamma, delta) - expected).max() <= 1e-14


class TestSteadyState:
    def test_two_level_saturation_formula(self):
        omega, gamma = 3.0, 4.0
        lmat = two_level_liouvillian(omega, gamma)
        rho = steady_state(lmat, np.diag([1.0, 0.0]).astype(complex))
        expected = (omega**2 / 4) / (gamma**2 / 4 + omega**2 / 2)
        assert rho[1, 1].real == pytest.approx(expected, rel=1e-9)

    def test_two_level_against_time_integration_oracle(self):
        omega, gamma = 5.0, 2.5
        lmat = two_level_liouvillian(omega, gamma, delta=1.0)
        rho0 = np.diag([1.0, 0.0]).astype(complex).reshape(-1)
        sol = solve_ivp(lambda _t, y: lmat @ y, (0.0, 200.0), rho0,
                        rtol=1e-10, atol=1e-12)
        rho_t = sol.y[:, -1].reshape(2, 2)
        rho_ss = steady_state(lmat, rho0.reshape(2, 2))
        assert np.abs(rho_ss - rho_t).max() < 1e-7

    def test_no_fields_ground_state_is_stationary(self):
        scheme = build_level_scheme(0.0)
        h = build_hamiltonian(scheme, [])
        lmat = build_liouvillian(h, scheme, DECAY)
        rho0 = np.zeros((13, 13), dtype=complex)
        rho0[1, 1] = 1.0  # a_0
        rho = steady_state(lmat, rho0)
        assert np.abs(rho - rho0).max() < 1e-12

    def test_oscillatory_generator_raises_diagnostic(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        lmat = lindblad_kron(h, [])  # pure rotation, degenerate kernel
        rho0 = np.full((2, 2), 0.5, dtype=complex)
        with pytest.raises(SteadyStateError) as err:
            steady_state(lmat, rho0)
        assert err.value.residual > 0

    def test_steady_state_satisfies_density_matrix_invariants(self):
        scheme = build_level_scheme(0.0)
        keep = (Sublevel(Manifold.G1, -1), Sublevel(Manifold.G2, -2), Sublevel(Manifold.E2, -2))
        sub = restrict_scheme(scheme, keep)
        rng = np.random.default_rng(5)
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        for _ in range(6):
            probe = LaserField(-1, rng.uniform(0.05, 2.0), rng.uniform(-50, 50),
                               (Manifold.G1, Manifold.E2))
            coupling = replace(COUPLING, rabi_scale=rng.uniform(10, 100))
            h = build_hamiltonian(sub, [coupling, probe])
            lmat = build_liouvillian(h, sub, DECAY)
            validate_density_matrix(steady_state(lmat, rho0))

    def test_validate_density_matrix_rejections(self):
        with pytest.raises(ValueError):
            validate_density_matrix(np.array([[0.5, 0.1j], [0.2j, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            validate_density_matrix(np.eye(2, dtype=complex))  # trace 2
        with pytest.raises(ValueError):
            validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))  # negative


class TestLambdaCoherence:
    def test_perfect_dark_state(self):
        assert lambda_coherence_analytic(1.0, 78.0, 5.0, 5.0, 4.0, 0.0) == 0.0

    def test_two_level_limit(self):
        val = lambda_coherence_analytic(1.0, 0.0, 0.0, 0.0, 4.0, 2.0)
        assert val == pytest.approx(1j / 8, abs=1e-15)

    def test_autler_townes_maxima_at_half_coupling(self):
        grid = np.arange(-60.0, 60.001, 0.05)
        im = np.array([lambda_coherence_analytic(1.0, 78.0, d, 0.0, 4.0, 2.0).imag
                       for d in grid])
        peaks = grid[[i for i in range(1, len(grid) - 1)
                      if im[i] > im[i - 1] and im[i] >= im[i + 1]]]
        assert len(peaks) == 2
        assert abs(peaks[0] + 39.0) < 1.0 and abs(peaks[1] - 39.0) < 1.0

    def test_absorption_positive_everywhere(self):
        for d in np.linspace(-100, 100, 201):
            assert lambda_coherence_analytic(1.0, 78.0, d, 0.0, 4.0, 2.0).imag >= 0

    def test_scalar_arguments_give_python_complex(self):
        assert type(lambda_coherence_analytic(1.0, 78.0, 3.0, 0.0, 4.0, 2.0)) is complex
        assert type(lambda_coherence_analytic(1.0, 78.0, 5.0, 5.0, 4.0, 0.0)) is complex

    def test_arrays_match_scalar_calls(self):
        # rows: probe detunings; columns: coupling Rabi, with bare lines (0)
        # and, at gamma_ab = 0 and delta_p = delta_c = 1.5, a dark state
        omega_p = np.array([1.0, 0.5, 2.0, 1.0])
        omega_c = np.array([0.0, 78.0, 20.0, 0.0])
        delta_p = np.array([-40.0, 0.0, 1.5, 7.25])[:, None]
        delta_c = np.array([0.0, 1.5, 1.5, 1.5])
        for gamma_ab in (0.0, 2.0):
            grid = lambda_coherence_analytic(omega_p, omega_c, delta_p, delta_c, 4.0, gamma_ab)
            assert grid.shape == (4, 4)
            for i, j in np.ndindex(grid.shape):
                assert grid[i, j] == lambda_coherence_analytic(
                    omega_p[j], omega_c[j], delta_p[i, 0], delta_c[j], 4.0, gamma_ab)
        grid = lambda_coherence_analytic(omega_p, omega_c, delta_p, delta_c, 4.0, 0.0)
        assert grid[2, 1] == 0.0 and grid[2, 2] == 0.0           # dark states
        assert grid[2, 3] == pytest.approx(0.5j / (4.0 + 1.5j))  # bare line, same resonance
        assert np.all(np.isfinite(grid))


class TestOracleEquivalence:
    def test_full_13_level_linear_response_matches_analytic(self):
        scheme = build_level_scheme(0.0)
        a, c, b = (Sublevel(Manifold.G1, -1), Sublevel(Manifold.E2, -2),
                   Sublevel(Manifold.G2, -2))
        pops = {Sublevel(Manifold.G1, m): 1 / 3 for m in (-1, 0, 1)}
        rel_p = relative_dipole(a, c, -1)
        rel_c = relative_dipole(b, c, 0)
        grid = np.array([-60.0, -39.0, -5.0, 0.0, 12.0, 39.0, 70.0])
        rho1 = weak_probe_coherences(scheme, COUPLING, PROBE, DECAY, pops, grid)
        ana = (1 / 3) * lambda_coherence_analytic(
            rel_p * PROBE.rabi_scale, abs(rel_c) * COUPLING.rabi_scale,
            grid, 0.0, DECAY.gamma_ac, DECAY.gamma_ab)
        assert rho1[:, scheme.index(a), scheme.index(c)] == pytest.approx(ana, rel=1e-8)

    def test_restricted_lambda_steady_state_matches_analytic(self):
        scheme = build_level_scheme(0.0)
        a, b, c = (Sublevel(Manifold.G1, -1), Sublevel(Manifold.G2, -2),
                   Sublevel(Manifold.E2, -2))
        sub = restrict_scheme(scheme, (a, b, c))
        omega_p = 0.1
        rel_p = relative_dipole(a, c, -1)
        rel_c = relative_dipole(b, c, 0)
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        for dp in (-39.0, -10.0, 0.0, 20.0, 39.0):
            probe = LaserField(-1, omega_p, dp, (Manifold.G1, Manifold.E2))
            h = build_hamiltonian(sub, [COUPLING, probe])
            lmat = build_liouvillian(h, sub, DECAY)
            rho = steady_state(lmat, rho0)
            num = -rho[sub.index(a), sub.index(c)]
            ana = lambda_coherence_analytic(rel_p * omega_p, abs(rel_c) * 78.0,
                                            dp, 0.0, DECAY.gamma_ac, DECAY.gamma_ab)
            if abs(ana.imag) > 1e-6:
                assert num.imag == pytest.approx(ana.imag, rel=0.01)

    def test_sign_flip_leaves_coherence_magnitudes(self):
        scheme = build_level_scheme(0.0)
        flipped = replace(scheme, couplings={k: -v for k, v in scheme.couplings.items()})
        pops = {Sublevel(Manifold.G1, m): 1 / 3 for m in (-1, 0, 1)}
        grid = np.array([-39.0, 0.0, 17.0])
        r1 = weak_probe_coherences(scheme, COUPLING, PROBE, DECAY, pops, grid)
        r2 = weak_probe_coherences(flipped, COUPLING, PROBE, DECAY, pops, grid)
        assert np.abs(np.abs(r1) - np.abs(r2)).max() < 1e-12

    def test_block_solve_matches_full_liouville_space_lstsq(self):
        scheme = build_level_scheme(0.15)
        coupling = replace(COUPLING, detuning=6.0)
        pops = {Sublevel(Manifold.G1, m): p for m, p in zip((-1, 0, 1), (0.55, 0.3, 0.15))}
        n = scheme.dim
        rho0 = np.zeros((n, n), dtype=complex)
        for s, p in pops.items():
            rho0[scheme.index(s), scheme.index(s)] = p
        eye = np.eye(n)
        grid = np.array([-45.0, -33.0, 0.0, 6.0, 27.5])
        scan = weak_probe_coherences(scheme, coupling, PROBE, DECAY, pops, grid)
        for dp, rho1 in zip(grid, scan):
            probe_at = replace(PROBE, detuning=dp)
            h0 = build_hamiltonian(scheme, [coupling, replace(probe_at, rabi_scale=0.0)])
            hdrive = build_hamiltonian(scheme, [coupling, probe_at]) - h0
            ldrive = -1j * (np.kron(hdrive, eye) - np.kron(eye, hdrive.T))
            rhs = -(ldrive @ rho0.reshape(-1))
            full, *_ = np.linalg.lstsq(kron_liouvillian(h0, scheme, DECAY), rhs, rcond=None)
            expected = -full.reshape(n, n)
            assert np.abs(rho1 - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_coupling_on_probe_ground_manifold_rejected(self):
        scheme = build_level_scheme(0.15, include_e1=True)
        coupling = LaserField(0, 78.0, 0.0, (Manifold.G1, Manifold.E1))
        pops = {Sublevel(Manifold.G1, m): 1 / 3 for m in (-1, 0, 1)}
        with pytest.raises(ValueError, match="not closed"):
            weak_probe_coherences(scheme, coupling, PROBE, DECAY, pops, 0.0)

    @pytest.mark.parametrize("bad", [Sublevel(Manifold.E2, -2), Sublevel(Manifold.G2, 0)])
    def test_populations_outside_probe_ground_manifold_rejected(self, bad):
        scheme = build_level_scheme(0.15)
        pops = {Sublevel(Manifold.G1, -1): 0.5, bad: 0.5}
        with pytest.raises(ValueError, match="ground manifold"):
            weak_probe_coherences(scheme, COUPLING, PROBE, DECAY, pops, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_detuning_rejected(self, bad):
        scheme = build_level_scheme(0.15)
        pops = {Sublevel(Manifold.G1, m): 1 / 3 for m in (-1, 0, 1)}
        with pytest.raises(ValueError, match="finite"):
            weak_probe_coherences(scheme, COUPLING, PROBE, DECAY, pops, np.array([0.0, bad]))


def per_detuning_coherences(scheme, coupling, probe, decay, ground_populations, delta_p):
    """Reference for `weak_probe_coherences` at one detuning: both
    Hamiltonians, the Liouvillian and the commutator drive of rho0 rebuilt,
    and the whole [g, e] block solved by least squares."""
    probe_at = LaserField(probe.q, probe.rabi_scale, delta_p, probe.transition)
    h_full = build_hamiltonian(scheme, [coupling, probe_at])
    h0 = build_hamiltonian(scheme, [coupling, replace(probe_at, rabi_scale=0.0)])
    hdrive = h_full - h0
    l0 = build_liouvillian(h0, scheme, decay)
    n = scheme.dim
    rho0 = np.zeros((n, n), dtype=complex)
    for s, p in ground_populations.items():
        rho0[scheme.index(s), scheme.index(s)] = p
    drive = -1j * (hdrive @ rho0 - rho0 @ hdrive)
    in_g = np.array([s.manifold is probe.transition[0] for s in scheme.sublevels])
    rows, cols = np.flatnonzero(in_g), np.flatnonzero(~in_g)
    block = (rows[:, None] * n + cols).reshape(-1)
    sol, *_ = np.linalg.lstsq(l0[np.ix_(block, block)],
                              -drive[np.ix_(rows, cols)].reshape(-1), rcond=None)
    rho1 = np.zeros((n, n), dtype=complex)
    rho1[np.ix_(rows, cols)] = sol.reshape(rows.size, cols.size)
    rho1[np.ix_(cols, rows)] = rho1[np.ix_(rows, cols)].conj().T
    return -rho1


class TestDetuningScan:
    GRID = np.arange(-80.0, 80.25, 0.5)
    POPS = {Sublevel(Manifold.G1, m): p for m, p in zip((-1, 0, 1), (0.5, 0.3, 0.2))}

    # the reference parameters at B = 0, 0.15 and 0.9 G, and gamma_ab = 0 and 2
    # with each coupling polarization at B = 0 and 0.15 G
    @pytest.mark.parametrize("b_field,q,gamma_ab", [
        (0.9, 0, 2.0), *itertools.product((0.0, 0.15), (-1, 0, 1), (0.0, 2.0)),
    ])
    def test_one_grid_call_matches_per_detuning_reference(self, b_field, q, gamma_ab):
        # at gamma_ab = 0, B = 0 the grid holds two-photon resonances where
        # undriven, uncoupled block entries have a zero diagonal
        scheme = build_level_scheme(b_field)
        coupling = replace(COUPLING, q=q)
        decay = DecayModel(gamma_ab, 4.0)
        scan = weak_probe_coherences(scheme, coupling, PROBE, decay, self.POPS, self.GRID)
        assert scan.shape == (self.GRID.size, scheme.dim, scheme.dim)
        for dp, rho1 in zip(self.GRID, scan):
            expected = per_detuning_coherences(scheme, coupling, PROBE, decay, self.POPS, dp)
            assert np.abs(rho1 - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_scalar_detuning_gives_one_matrix(self):
        scheme = build_level_scheme(0.15)
        rho1 = weak_probe_coherences(scheme, COUPLING, PROBE, DECAY, self.POPS, 3.0)
        assert rho1.shape == (scheme.dim, scheme.dim)
        grid = weak_probe_coherences(scheme, COUPLING, PROBE, DECAY, self.POPS, np.array([3.0]))
        assert np.array_equal(rho1, grid[0])
