import itertools
from dataclasses import replace

import numpy as np
import pytest

from mdsr import bloch, spectrum
from mdsr.bloch import LaserField, lambda_coherence_analytic, weak_probe_coherences
from mdsr.config import RunConfig
from mdsr.fitting import FitProblem, fit_populations
from mdsr.levels import Manifold, Sublevel, build_level_scheme
from mdsr.spectrum import (
    ExperimentModel,
    PopulationDistribution,
    Spectrum,
    add_noise,
    optical_depth,
    optical_depth_basis,
    susceptibility_grid,
    susceptibility_prefactor,
    synth_spectrum,
    transmission,
)

from conftest import REFERENCE_POPS, make_model


def find_peaks(grid, y, rel_threshold=0.1):
    ymax = y.max()
    return [grid[i] for i in range(1, len(grid) - 1)
            if y[i] > y[i - 1] and y[i] >= y[i + 1] and y[i] > rel_threshold * ymax]


class TestPopulationDistribution:
    def test_valid(self):
        p = PopulationDistribution(0.2, 0.3, 0.5)
        assert p.as_array().sum() == pytest.approx(1.0)

    def test_rejects_bad_sum_and_range(self):
        with pytest.raises(ValueError):
            PopulationDistribution(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            PopulationDistribution(-0.1, 0.6, 0.5)


class TestSpectrumContainer:
    def test_rejects_non_monotonic_grid(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([0.0, 1.0, 0.5]), np.array([1.0, 1.0, 1.0]))

    def test_rejects_out_of_range_transmission(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([0.0, 1.0]), np.array([0.5, 1.5]))

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="finite"):
            Spectrum([0.0, 1.0], [np.nan, 0.5])
        with pytest.raises(ValueError, match="finite"):
            Spectrum([0.0, np.inf], [0.5, 0.5])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([0.0, 1.0]), np.array([0.5]))

    @pytest.mark.parametrize("bad", [-0.01, np.nan, np.inf])
    def test_rejects_bad_noise_sigma(self, bad):
        with pytest.raises(ValueError, match="noise_sigma"):
            Spectrum([0.0, 1.0], [0.5, 0.5], noise_sigma=bad)


class TestExperimentModel:
    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            make_model(n_f1=-1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_density_and_path(self, reference_model, bad):
        with pytest.raises(ValueError, match="finite"):
            make_model(n_f1=bad)
        with pytest.raises(ValueError, match="finite"):
            replace(reference_model, path_length_mm=bad)

    def test_rejects_probe_off_the_f1_ground_manifold(self, reference_model):
        # the readout has one term per F=1 sublevel; a G2 probe used to build
        # and then fail inside numpy with a (3,) vs (5,) broadcast error
        probe = LaserField(-1, 1.0, 0.0, (Manifold.G2, Manifold.E2))
        with pytest.raises(ValueError, match="F=1 ground manifold"):
            replace(reference_model, probe=probe)

    @pytest.mark.parametrize("detuning", [25.0, -1e-9])
    def test_rejects_probe_detuning(self, reference_model, detuning):
        # the scan grid is the probe detuning: a model's own would be ignored,
        # giving the spectrum at detuning 0 bit for bit
        probe = replace(reference_model.probe, detuning=detuning)
        with pytest.raises(ValueError, match="probe detuning must be 0"):
            replace(reference_model, probe=probe)

    def test_rejects_coupling_on_the_probe_ground_manifold(self, reference_model):
        coupling = LaserField(0, 78.0, 0.0, (Manifold.G1, Manifold.E2))
        with pytest.raises(ValueError, match="coupling must not drive"):
            replace(reference_model, coupling=coupling)


def _count_calls(monkeypatch, module, name):
    """Wrap module.name so that each call appends to the returned list."""
    calls = []
    wrapped = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _same_spectra(model, fresh, grid):
    pops = PopulationDistribution(*REFERENCE_POPS[0])
    return (np.array_equal(susceptibility_grid(model, pops, grid),
                           susceptibility_grid(fresh, pops, grid))
            and np.array_equal(optical_depth_basis(model, grid), optical_depth_basis(fresh, grid)))


def _fresh(model):
    """A model built from the same field values with nothing carried over."""
    return ExperimentModel(model.scheme, model.coupling, model.probe, model.decay,
                           model.n_f1, model.path_length_mm)


class TestDerivedResolvents:
    """The probe resolvents depend on (scheme, coupling, probe, decay) alone, so
    a model `replace` makes keeps them unless one of those four changes."""

    @pytest.mark.parametrize("changes", [{"n_f1": 3e12}, {"path_length_mm": 7.5},
                                         {"n_f1": 5e10, "path_length_mm": 1.0}],
                             ids=["density", "path", "both"])
    def test_density_and_path_length_derive_nothing(self, reference_model, grid161,
                                                    monkeypatch, changes):
        calls = _count_calls(monkeypatch, spectrum, "probe_resolvents")
        model = replace(reference_model, **changes)
        assert calls == []
        fresh = _fresh(model)
        assert len(calls) == 1
        assert _same_spectra(model, fresh, grid161)

    @pytest.mark.parametrize("change", [
        lambda m: {"scheme": build_level_scheme(0.6)},
        lambda m: {"scheme": replace(m.scheme, couplings={
            key: -value for key, value in m.scheme.couplings.items()})},
        lambda m: {"coupling": replace(m.coupling, rabi_scale=40.0)},
        lambda m: {"decay": replace(m.decay, gamma_ab=0.5)},
        lambda m: {"probe": replace(m.probe, rabi_scale=0.1)},
    ], ids=["b-field", "flipped-couplings", "coupling", "decay", "probe"])
    def test_any_other_input_derives_afresh(self, reference_model, grid161, monkeypatch,
                                            change):
        changes = change(reference_model)
        calls = _count_calls(monkeypatch, spectrum, "probe_resolvents")
        model = replace(reference_model, **changes)
        assert len(calls) == 1
        assert _same_spectra(model, _fresh(model), grid161)

    def test_fit_builds_no_hamiltonian(self, grid161, monkeypatch):
        model = make_model()
        observed = add_noise(synth_spectrum(model, PopulationDistribution(*REFERENCE_POPS[1]),
                                            grid161), 0.01, seed=3)
        calls = _count_calls(monkeypatch, bloch, "build_hamiltonian")
        for fit_density in (True, False):
            fit_populations(FitProblem(observed, model, fit_density=fit_density))
        assert calls == []

    def test_repr_and_equality_ignore_the_derived_terms(self, reference_model):
        fresh = _fresh(reference_model)
        assert fresh._derived[1] is not reference_model._derived[1]
        assert fresh == reference_model
        assert "_derived" not in repr(reference_model)
        assert repr(fresh) == repr(reference_model)


class TestSusceptibility:
    def test_absorption_positive(self, reference_model, grid161):
        for pops in REFERENCE_POPS:
            chi = susceptibility_grid(reference_model, PopulationDistribution(*pops), grid161)
            assert chi.imag.min() >= 0.0

    def test_single_broad_doublet_for_p_minus_only(self, reference_model_b0):
        grid = np.arange(-60.0, 60.001, 0.05)
        chi = susceptibility_grid(reference_model_b0, PopulationDistribution(1.0, 0.0, 0.0), grid)
        peaks = find_peaks(grid, chi.imag)
        assert len(peaks) == 2
        # Autler-Townes splitting ~ Omega_c = 78 for the a_-1 subsystem
        assert peaks[1] - peaks[0] == pytest.approx(78.0, abs=0.5)

    def test_single_narrow_doublet_for_p_zero_only(self, reference_model_b0):
        grid = np.arange(-60.0, 60.001, 0.05)
        chi = susceptibility_grid(reference_model_b0, PopulationDistribution(0.0, 1.0, 0.0), grid)
        peaks = find_peaks(grid, chi.imag)
        assert len(peaks) == 2
        # half the a_-1 splitting: the a_0 partner coupling is Omega_c / 2
        assert peaks[1] - peaks[0] == pytest.approx(39.0, abs=0.5)

    def test_p_plus_single_line_at_zero(self, reference_model_b0):
        # a_+1 -> c_0 has no coupling partner (b_0 - c_0 forbidden): bare line
        grid = np.arange(-60.0, 60.001, 0.05)
        chi = susceptibility_grid(reference_model_b0, PopulationDistribution(0.0, 0.0, 1.0), grid)
        peaks = find_peaks(grid, chi.imag)
        assert len(peaks) == 1
        assert abs(peaks[0]) < 0.1

    def test_coupling_on_another_excited_manifold_leaves_bare_lines(self, grid161):
        # a coupling beam on F=2 -> F'=1 dresses no F' = 2 sublevel, so a
        # probe on F=1 -> F'=2 sees the same lines as with the coupling off
        scheme = build_level_scheme(0.15, include_e1=True)
        model = replace(make_model(), scheme=scheme,
                        coupling=LaserField(0, 78.0, 0.0, (Manifold.G2, Manifold.E1)))
        off = replace(model, coupling=replace(model.coupling, rabi_scale=0.0))
        pops = PopulationDistribution(0.32, 0.36, 0.32)
        assert np.array_equal(susceptibility_grid(model, pops, grid161),
                              susceptibility_grid(off, pops, grid161))

    def test_linearity_in_populations(self, reference_model, grid161):
        p1 = PopulationDistribution(0.7, 0.2, 0.1)
        p2 = PopulationDistribution(0.1, 0.3, 0.6)
        mix = PopulationDistribution(*(0.25 * p1.as_array() + 0.75 * p2.as_array()))
        lhs = susceptibility_grid(reference_model, mix, grid161)
        rhs = (0.25 * susceptibility_grid(reference_model, p1, grid161)
               + 0.75 * susceptibility_grid(reference_model, p2, grid161))
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()

    def test_scales_linearly_with_density(self, grid161):
        pops = PopulationDistribution(*REFERENCE_POPS[0])
        chi1 = susceptibility_grid(make_model(n_f1=1.2e11), pops, grid161)
        chi2 = susceptibility_grid(make_model(n_f1=2.4e11), pops, grid161)
        assert np.abs(chi2 - 2 * chi1).max() <= 1e-12 * np.abs(chi2).max()

    def test_independent_of_probe_rabi(self, reference_model, grid161):
        pops = PopulationDistribution(*REFERENCE_POPS[0])
        weak = replace(reference_model, probe=replace(reference_model.probe, rabi_scale=0.1))
        chi1 = susceptibility_grid(reference_model, pops, grid161)
        chi2 = susceptibility_grid(weak, pops, grid161)
        assert np.abs(chi1 - chi2).max() == 0.0

    def test_zeeman_shifts_narrow_resonance(self):
        # a_+1 two-level line sits at the c_0 - a_+1 Zeeman offset; at 3 G
        # that is 2 * 0.5 * 1.399624 * 3 / 6 ... probe shift = z(c_0) - z(a_+1)
        model = make_model(b_field=3.0)
        grid = np.arange(-10.0, 10.001, 0.002)
        chi = susceptibility_grid(model, PopulationDistribution(0.0, 0.0, 1.0), grid)
        peak = grid[np.argmax(chi.imag)]
        # z(c_0) = 0, z(a_+1) = -0.5 * 1.399624 * 3 -> peak at +2.0994 MHz
        assert peak == pytest.approx(0.5 * 1.399624 * 3.0, abs=0.01)

    def test_undamped_dark_states_are_exact_zeros(self):
        # gamma_ab = 0 at zero field: a_-1 and a_0 are dark at delta = 0
        model = RunConfig(gamma_ab=0.0, b_field=0.0).experiment_model()
        grid = np.linspace(-80.0, 80.0, 161)
        for pops in [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]:
            chi = susceptibility_grid(model, PopulationDistribution(*pops), grid)
            assert np.all(np.isfinite(chi))
            assert chi[80] == 0.0
            assert chi.imag.min() >= 0.0
        chi = susceptibility_grid(model, PopulationDistribution(0.0, 0.0, 1.0), grid)
        assert chi[80].imag == chi.imag.max()  # a_+1: bare line, no dark state

    def test_scalar_matches_grid(self, reference_model):
        pops = PopulationDistribution(*REFERENCE_POPS[0])
        grid = np.array([-12.5, 0.0, 33.0])
        chi = susceptibility_grid(reference_model, pops, grid)
        for d, c in zip(grid, chi):
            assert susceptibility_grid(reference_model, pops, [d])[0] == c

    @pytest.mark.parametrize("b_field, gamma_ab", itertools.product([0.0, 0.15, 3.0], [0.0, 2.0]))
    def test_matches_closed_form_lambda_terms(self, b_field, gamma_ab):
        """Each sublevel's term is the analytic Lambda (or bare-line) coherence,
        composed here from the amplitude table, the Zeeman shifts and the
        coupling detuning, with the same zeros."""
        grid = np.append(np.linspace(-300.0, 300.0, 601), 7.3)
        for omega_c, detuning in itertools.product([0.0, 2.0, 4.0, 78.0, 120.0, 500.0], [0.0, 7.3]):
            model = RunConfig(b_field=b_field, gamma_ab=gamma_ab, omega_c=omega_c,
                              coupling_detuning=detuning).experiment_model()
            scheme, z = model.scheme, model.scheme.zeeman
            pref = susceptibility_prefactor(model.n_f1, scheme.reduced_dipole)
            for k, m in enumerate((-1, 0, 1)):
                a, b, c = Sublevel(Manifold.G1, m), Sublevel(Manifold.G2, m - 1), Sublevel(Manifold.E2, m - 1)
                amp_p, amp_c = scheme.coupling(a, c, -1), scheme.coupling(b, c, 0)
                expected = pref * amp_p ** 2 * lambda_coherence_analytic(
                    1.0, abs(amp_c) * omega_c, grid - (z[c] - z[a]),
                    detuning - (z[c] - z[b]), model.decay.gamma_ac, gamma_ab)
                chi = susceptibility_grid(model, PopulationDistribution(*np.eye(3)[k]), grid)
                assert np.array_equal(chi == 0, expected == 0)
                seen = expected != 0
                assert np.max(np.abs(chi - expected)[seen] / np.abs(expected[seen])) <= 1e-12

    def test_zero_coupling_rabi_leaves_bare_lines_at_undamped_resonance(self):
        # with no coupling, no level is paired with c, so the point where an
        # undamped partner b would sit on two-photon resonance (delta = 0 at
        # B = 0) is an ordinary point of the bare line
        model = RunConfig(omega_c=0.0, gamma_ab=0.0, b_field=0.0).experiment_model()
        scheme, grid = model.scheme, np.linspace(-80.0, 80.0, 161)
        pref = susceptibility_prefactor(model.n_f1, scheme.reduced_dipole)
        for k, m in enumerate((-1, 0, 1)):
            d = scheme.coupling(Sublevel(Manifold.G1, m), Sublevel(Manifold.E2, m - 1), -1)
            bare = pref * (0.5 * d * d) / (grid - 1j * model.decay.gamma_ac)
            chi = susceptibility_grid(model, PopulationDistribution(*np.eye(3)[k]), grid)
            assert np.all(np.isfinite(chi))
            assert np.array_equal(chi, bare)


class TestLiouvillianOracle:
    @pytest.mark.parametrize("b_field", [0.0, 0.15, 0.7])
    def test_13_level_oracle_matches_susceptibility_grid(self, b_field):
        """The full 13-level first-order response, summed over the probe
        links a -> c as amp * rho1[a, c], is the production susceptibility."""
        model = make_model(b_field=b_field)
        scheme, q = model.scheme, model.probe.q
        gman, eman = model.probe.transition
        pops = (0.5, 0.3, 0.2)
        by_level = {Sublevel(gman, m): p for m, p in zip((-1, 0, 1), pops)}
        links = [(a, Sublevel(eman, a.m + q)) for a in by_level]
        scale = susceptibility_prefactor(model.n_f1, scheme.reduced_dipole) / model.probe.rabi_scale
        grid = np.linspace(-80.0, 80.0, 161)
        rho1 = weak_probe_coherences(scheme, model.coupling, model.probe, model.decay, by_level, grid)
        oracle = scale * sum(scheme.coupling(a, c, q) * rho1[:, scheme.index(a), scheme.index(c)]
                             for a, c in links)
        chi = susceptibility_grid(model, PopulationDistribution(*pops), grid)
        assert np.max(np.abs(oracle - chi) / np.abs(chi)) <= 1e-12


class TestTransmission:
    def test_zero_density_is_fully_transparent(self, grid161):
        s = synth_spectrum(make_model(n_f1=0.0), PopulationDistribution(*REFERENCE_POPS[0]), grid161)
        assert np.abs(s.transmission - 1.0).max() == 0.0

    def test_in_unit_interval_and_absorbing(self, reference_model, grid161):
        for pops in REFERENCE_POPS:
            s = synth_spectrum(reference_model, PopulationDistribution(*pops), grid161)
            assert s.transmission.min() > 0.0
            assert s.transmission.max() <= 1.0
            assert s.transmission.min() < 0.9  # visibly absorbing at the reference density

    def test_optical_depth_basis_reproduces_transmission(self, reference_model, grid161):
        basis = optical_depth_basis(reference_model, grid161)
        for pops in REFERENCE_POPS:
            s = synth_spectrum(reference_model, PopulationDistribution(*pops), grid161)
            assert np.abs(np.exp(-basis @ np.array(pops)) - s.transmission).max() < 1e-14

    def test_optical_depth_basis_columns_are_unit_populations(self, reference_model, grid161):
        basis = optical_depth_basis(reference_model, grid161)
        assert basis.shape == (161, 3)
        for k, unit in enumerate(np.eye(3)):
            chi = susceptibility_grid(reference_model, PopulationDistribution(*unit), grid161)
            assert np.array_equal(basis[:, k], optical_depth(chi, reference_model))

    def test_rejects_negative_im_chi(self, reference_model):
        with pytest.raises(ValueError):
            transmission(-1e-6j + 1.0, reference_model)

    def test_empty_grid_gives_empty_results(self, reference_model):
        assert optical_depth_basis(reference_model, []).shape == (0, 3)
        s = synth_spectrum(reference_model, PopulationDistribution(*REFERENCE_POPS[0]), [])
        assert len(s) == 0


class TestNoise:
    def test_deterministic_per_seed(self, reference_model, grid161):
        s = synth_spectrum(reference_model, PopulationDistribution(*REFERENCE_POPS[0]), grid161)
        n1 = add_noise(s, 0.01, 42)
        n2 = add_noise(s, 0.01, 42)
        n3 = add_noise(s, 0.01, 43)
        assert np.array_equal(n1.transmission, n2.transmission)
        assert not np.array_equal(n1.transmission, n3.transmission)

    def test_sigma_recovered(self):
        s = Spectrum(np.arange(1000.0), np.full(1000, 0.5))
        noisy = add_noise(s, 0.01, 7)
        resid = noisy.transmission - 0.5
        assert 0.008 < resid.std() < 0.012
        assert abs(resid.mean()) < 0.002

    def test_zero_sigma_is_identity(self, reference_model, grid161):
        s = synth_spectrum(reference_model, PopulationDistribution(*REFERENCE_POPS[0]), grid161)
        assert add_noise(s, 0.0, 0) is s

    def test_clipped_to_unit_interval(self):
        s = Spectrum(np.arange(500.0), np.full(500, 0.999))
        noisy = add_noise(s, 0.05, 3)
        assert noisy.transmission.max() <= 1.0
        assert noisy.transmission.min() >= 0.0

    def test_negative_sigma_rejected(self, reference_model, grid161):
        s = synth_spectrum(reference_model, PopulationDistribution(*REFERENCE_POPS[0]), grid161)
        with pytest.raises(ValueError):
            add_noise(s, -0.01, 0)

    @pytest.mark.parametrize("sigma", [float("inf"), float("nan")])
    def test_non_finite_sigma_rejected(self, reference_model, grid161, sigma):
        s = synth_spectrum(reference_model, PopulationDistribution(*REFERENCE_POPS[0]), grid161)
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            add_noise(s, sigma, 0)
