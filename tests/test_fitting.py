from itertools import combinations

import numpy as np
import pytest

from mdsr import fitting
from mdsr.fitting import FitProblem, fit_populations, profile_scan, residuals
from mdsr.spectrum import PopulationDistribution, Spectrum, add_noise, synth_spectrum

from conftest import REFERENCE_POPS, make_model


def observed_for(pops, grid, sigma=0.0, seed=0, **model_kwargs):
    model = make_model(**model_kwargs)
    s = synth_spectrum(model, PopulationDistribution(*pops), grid)
    if sigma:
        s = add_noise(s, sigma, seed)
    return s, model


class TestResiduals:
    def test_zero_at_truth(self, grid161):
        truth = PopulationDistribution(*REFERENCE_POPS[0])
        s, model = observed_for(REFERENCE_POPS[0], grid161)
        problem = FitProblem(observed=s, model_template=model)
        r = residuals(problem, truth, model.n_f1)
        assert np.abs(r).max() == 0.0

    def test_zero_density_residual_is_one_minus_observed(self, grid161):
        s, model = observed_for(REFERENCE_POPS[0], grid161)
        problem = FitProblem(observed=s, model_template=model)
        r = residuals(problem, PopulationDistribution(*REFERENCE_POPS[0]), 0.0)
        assert np.allclose(r, 1.0 - s.transmission)

    def test_sensitive_to_each_population(self, grid161):
        s, model = observed_for((0.3, 0.3, 0.4), grid161)
        problem = FitProblem(observed=s, model_template=model)
        base = 0.3, 0.3, 0.4
        for k in range(3):
            p = np.array(base)
            p[k] += 0.01
            p /= p.sum()
            r = residuals(problem, PopulationDistribution(*p), model.n_f1)
            assert np.abs(r).max() > 1e-5

    def test_empty_spectrum_rejected(self):
        model = make_model()
        with pytest.raises(ValueError):
            FitProblem(observed=Spectrum(np.array([]), np.array([])), model_template=model)

    def test_fewer_points_than_weights_rejected(self, grid161):
        s, model = observed_for(REFERENCE_POPS[0], grid161)
        two = Spectrum(s.detunings[:2], s.transmission[:2])
        with pytest.raises(ValueError, match="needs at least 3"):
            FitProblem(observed=two, model_template=model)
        with pytest.raises(ValueError, match="needs at least 2"):
            FitProblem(observed=Spectrum(s.detunings[:1], s.transmission[:1]),
                       model_template=model, fit_density=False)
        FitProblem(observed=two, model_template=model, fit_density=False)
        FitProblem(observed=Spectrum(s.detunings[:3], s.transmission[:3]), model_template=model)

    @pytest.mark.parametrize("n_f1", [0.0, -1.0])
    def test_non_positive_model_density_rejected(self, grid161, n_f1):
        s, _model = observed_for(REFERENCE_POPS[0], grid161)
        with pytest.raises(ValueError, match="n_f1"):
            FitProblem(observed=s, model_template=make_model(n_f1=n_f1))


# on a corner or edge of the simplex, where a fit must reach zero populations
BOUNDARY_POPS = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0)]


class TestNoiselessRoundTrip:
    @pytest.mark.parametrize("truth", REFERENCE_POPS + BOUNDARY_POPS)
    def test_recovers_populations_and_density(self, truth, grid161):
        s, model = observed_for(truth, grid161)
        result = fit_populations(FitProblem(observed=s, model_template=model))
        assert result.converged
        assert np.abs(result.pops.as_array() - np.array(truth)).max() < 5e-3
        assert abs(result.n_f1 - model.n_f1) / model.n_f1 < 0.01
        assert result.residual_rms < 1e-7

    def test_init_at_truth_converges_fast(self, grid161):
        truth = REFERENCE_POPS[1]
        s, model = observed_for(truth, grid161)
        result = fit_populations(FitProblem(
            observed=s, model_template=model, fit_density=False,
        ))
        assert result.converged
        assert result.iterations <= 2
        assert result.residual_rms < 1e-10

    def test_fixed_density_recovers_populations(self, grid161):
        truth = REFERENCE_POPS[2]
        s, model = observed_for(truth, grid161)
        result = fit_populations(FitProblem(observed=s, model_template=model,
                                            fit_density=False))
        assert result.converged
        assert np.abs(result.pops.as_array() - np.array(truth)).max() < 5e-3
        assert result.n_f1 == model.n_f1

    def test_asymmetric_truth_not_mirrored(self, grid161):
        # (96, 2, 2) and its reverse give different spectra; the fit must
        # resolve the orientation, not just the peak pattern
        truth = (0.96, 0.02, 0.02)
        s, model = observed_for(truth, grid161)
        result = fit_populations(FitProblem(observed=s, model_template=model))
        assert result.pops.p_minus > 0.9
        assert result.pops.p_plus < 0.1


class TestNoisyFit:
    def test_recovers_within_two_points(self, grid161):
        truth = REFERENCE_POPS[0]
        s, model = observed_for(truth, grid161, sigma=0.01, seed=11)
        result = fit_populations(FitProblem(observed=s, model_template=model))
        assert result.converged
        assert np.abs(result.pops.as_array() - np.array(truth)).max() < 0.02

    def test_fixed_density_converges(self, grid161):
        truth = REFERENCE_POPS[3]
        s, model = observed_for(truth, grid161, sigma=0.01, seed=3)
        result = fit_populations(FitProblem(observed=s, model_template=model,
                                            fit_density=False))
        assert result.converged
        assert result.n_f1 == model.n_f1
        assert np.abs(result.pops.as_array() - np.array(truth)).max() < 0.02

    def test_saturated_spectrum_gives_finite_simplex_result(self, grid161):
        # every point lies below the warm-start transmission floor
        s, model = observed_for(REFERENCE_POPS[0], grid161, n_f1=1e13)
        assert s.transmission.max() < fitting.WARM_START_FLOOR
        result = fit_populations(FitProblem(observed=s, model_template=model))
        p = result.pops.as_array()
        assert np.all(np.isfinite(p)) and np.isfinite(result.n_f1)
        assert p.min() >= 0.0 and abs(p.sum() - 1.0) < 1e-9

    def test_deterministic(self, grid161):
        s, model = observed_for(REFERENCE_POPS[3], grid161, sigma=0.01, seed=5)
        problem = FitProblem(observed=s, model_template=model)
        r1 = fit_populations(problem)
        r2 = fit_populations(problem)
        assert r1.pops == r2.pops
        assert r1.n_f1 == r2.n_f1
        assert r1.residual_rms == r2.residual_rms


class TestProfileScan:
    def test_minimum_at_truth(self, grid161):
        truth = (0.2, 0.5, 0.3)
        s, model = observed_for(truth, grid161)
        problem = FitProblem(observed=s, model_template=model, fit_density=False)
        grid = np.linspace(0.3, 0.7, 9)
        points = profile_scan(problem, "p_zero", grid)
        best = min(points, key=lambda pt: pt.residual_rms)
        assert best.value == pytest.approx(0.5)
        assert best.residual_rms < 1e-8

    def test_density_profile_minimum_at_truth(self, grid161):
        s, model = observed_for(REFERENCE_POPS[0], grid161)
        problem = FitProblem(observed=s, model_template=model)
        grid = np.array([0.3e11, 0.6e11, 1.2e11, 2.4e11, 4.8e11])
        points = profile_scan(problem, "n_f1", grid)
        best = min(points, key=lambda pt: pt.residual_rms)
        assert best.value == pytest.approx(1.2e11)

    def test_flat_profile_when_medium_is_transparent(self, grid161):
        # negligible densities: T ~ 1 regardless of populations, so the
        # residual profile over any population is flat at the data mismatch
        model = make_model(n_f1=1.0)
        s = synth_spectrum(model, PopulationDistribution(1 / 3, 1 / 3, 1 / 3), grid161)
        problem = FitProblem(observed=s, model_template=model, fit_density=False)
        points = profile_scan(problem, "p_minus", np.linspace(0.05, 0.95, 5))
        rms = [pt.residual_rms for pt in points]
        assert max(rms) - min(rms) < 1e-10

    def test_unknown_parameter_rejected(self, grid161):
        s, model = observed_for(REFERENCE_POPS[0], grid161)
        problem = FitProblem(observed=s, model_template=model)
        with pytest.raises(ValueError):
            profile_scan(problem, "gamma_ab", np.array([1.0]))
        with pytest.raises(ValueError):
            profile_scan(problem, "p_zero", np.array([]))

    @pytest.mark.parametrize("param, grid", [
        ("p_minus", [[0.2, 0.3], [0.4, 0.5]]),
        ("n_f1", [[0.6e11, 1.2e11]]),
        ("p_zero", 0.5),
    ], ids=["2d-population", "2d-density", "scalar"])
    def test_grid_not_one_dimensional_rejected_before_fitting(self, grid161, monkeypatch,
                                                              param, grid):
        s, model = observed_for(REFERENCE_POPS[0], grid161)
        problem = FitProblem(observed=s, model_template=model)
        monkeypatch.setattr(fitting, "_solve", lambda *args: pytest.fail("fitted"))
        with pytest.raises(ValueError, match="one-dimensional"):
            profile_scan(problem, param, np.array(grid))


class TestStopReason:
    def test_exact_data_stop_on_step(self, grid161):
        s, model = observed_for(REFERENCE_POPS[1], grid161)
        result = fit_populations(FitProblem(observed=s, model_template=model))
        assert (result.stop_reason, result.converged, result.iterations) == ("step", True, 1)

    def test_noisy_data_stop_on_decrease(self, grid161):
        s, model = observed_for(REFERENCE_POPS[0], grid161, sigma=0.01, seed=0)
        result = fit_populations(FitProblem(observed=s, model_template=model))
        assert (result.stop_reason, result.converged) == ("decrease", True)
        assert result.iterations > 1

    def test_iteration_cap(self, grid161, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
        s, model = observed_for(REFERENCE_POPS[0], grid161, sigma=0.01, seed=1)
        result = fit_populations(FitProblem(observed=s, model_template=model))
        assert (result.stop_reason, result.converged, result.iterations) == (
            "iterations", False, 1)

    def test_damping_exhausted(self, grid161, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_DAMPING_TRIES", 0)
        s, model = observed_for(REFERENCE_POPS[0], grid161, sigma=0.01, seed=1)
        result = fit_populations(FitProblem(observed=s, model_template=model))
        assert (result.stop_reason, result.converged, result.iterations) == (
            "damping", False, 1)


def per_support_bounded_lsq(gram, rhs, lo, hi):
    """The bounded least squares solved one support at a time: the reference
    for `fitting._bounded_lsq`, which stacks every support into one solve."""
    k = rhs.size
    best, best_value = (np.zeros(k), 0.0) if lo <= 0 else (None, np.inf)
    for size in range(1, k + 1):
        for support in combinations(range(k), size):
            s = list(support)
            free, along_sum = np.linalg.solve(
                gram[np.ix_(s, s)], np.column_stack([rhs[s], np.ones(size)])).T
            excess = free.sum() - min(max(free.sum(), lo), hi)
            ys = free - excess / along_sum.sum() * along_sum
            if ys.min() < 0:
                continue
            y = np.zeros(k)
            y[s] = ys
            value = y @ gram @ y - 2.0 * rhs @ y
            if value < best_value:
                best, best_value = y, value
    return best


def random_problem(rng, k, scale):
    a = rng.standard_normal((k, k))
    return scale * (a @ a.T + 0.1 * np.eye(k)), scale * rng.standard_normal(k)


SUM_BOUNDS = {"lo<=0": [(0.0, 2.0), (-1.0, 0.5)], "0<lo<hi": [(0.5, 2.0)],
              "lo==hi": [(1.0, 1.0), (0.3, 0.3)]}


def recording_solve(monkeypatch):
    """Record the arrays each `np.linalg.solve` call receives."""
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append((a, b)) or solve(a, b))
    return calls


class TestSupportTables:
    @pytest.mark.parametrize("k", [2, 3])
    def test_stacked_systems_hold_each_support_alone(self, k, monkeypatch):
        # the arrays handed to LAPACK, compared bit for bit: no BLAS result enters
        faces = [list(s) for size in range(1, k) for s in combinations(range(k), size)]
        calls = recording_solve(monkeypatch)
        rng = np.random.default_rng(k)
        for scale in (1e-6, 1.0, 1e6):
            gram, _rhs = random_problem(rng, k, scale)
            # the unconstrained minimiser has a negative weight: the enumeration runs
            rhs = gram @ np.array([1.0, -0.5, 2.0][:k])
            calls.clear()
            fitting._bounded_lsq(gram, rhs, 0.0, np.inf)
            # the full support once, alone, then every proper face in one stack
            assert len(calls) == 2
            [(full, full_side), (systems, sides)] = calls
            np.testing.assert_array_equal(full, gram)
            np.testing.assert_array_equal(full_side, np.column_stack([rhs, np.ones(k)]))
            assert systems.shape == (2**k - 2, k - 1, k - 1) and sides.shape == (2**k - 2, k - 1, 2)
            for s, system, side in zip(faces, systems, sides):
                n = len(s)
                np.testing.assert_array_equal(system[:n, :n], gram[np.ix_(s, s)])
                np.testing.assert_array_equal(system[n:, n:], np.eye(k - 1 - n))
                assert not system[:n, n:].any() and not system[n:, :n].any()
                np.testing.assert_array_equal(side[:n], np.column_stack([rhs[s], np.ones(n)]))
                assert not side[n:].any()

    @pytest.mark.parametrize("k", [2, 3])
    def test_interior_minimiser_takes_one_solve(self, k, monkeypatch):
        calls = recording_solve(monkeypatch)
        rng = np.random.default_rng(k)
        for scale in (1e-6, 1.0, 1e6):
            gram, _rhs = random_problem(rng, k, scale)
            want = np.array([1.0, 2.0, 3.0][:k])
            calls.clear()
            got = fitting._bounded_lsq(gram, gram @ want, 0.0, np.inf)
            [(system, side)] = calls
            assert system.shape == (k, k) and side.shape == (k, 2)
            np.testing.assert_allclose(got, want, rtol=1e-9)


class TestStackedBoundedLsq:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("bounds", sorted(SUM_BOUNDS))
    def test_matches_per_support_solve(self, k, bounds, monkeypatch):
        calls = recording_solve(monkeypatch)
        paths = set()
        rng = np.random.default_rng(1000 * k + len(bounds))
        for scale in 10.0 ** np.arange(-6, 7, 2):
            for lo, hi in SUM_BOUNDS[bounds]:
                for _ in range(20):
                    gram, rhs = random_problem(rng, k, scale)
                    calls.clear()
                    got = fitting._bounded_lsq(gram, rhs, lo, hi)
                    paths.add("enumeration" if len(calls) > 1 else "interior")
                    want = per_support_bounded_lsq(gram, rhs, lo, hi)
                    assert got.shape == (k,)
                    np.testing.assert_array_equal(got == 0, want == 0)
                    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
                    assert got.min() >= 0 and lo - 1e-12 <= got.sum() <= hi + 1e-12
        assert paths == {"interior", "enumeration"}

    def test_fits_match_per_support_reference(self, grid161, monkeypatch):
        # a face truth without noise leaves a weight within rounding of 0,
        # which the interior solve must hand to the enumeration
        inputs = [(truth, n_f1, 0.01, seed) for n_f1 in (1.2e11, 1e12, 3e12)
                  for truth in REFERENCE_POPS for seed in range(20)]
        inputs.append(((0.2, 0.0, 0.8), 3e12, 0.0, 0))
        # noisy face truths: most of their steps enumerate the faces
        inputs += [(truth, 1.2e11, 0.01, seed) for truth in
                   [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0)]
                   for seed in range(10)]
        problems = [FitProblem(observed=observed_for(truth, grid161, sigma, seed, n_f1=n_f1)[0],
                               model_template=make_model(n_f1=n_f1))
                    for truth, n_f1, sigma, seed in inputs]
        shipped = [fit_populations(p) for p in problems]
        monkeypatch.setattr(fitting, "_bounded_lsq", per_support_bounded_lsq)
        for problem, got in zip(problems, shipped):
            want = fit_populations(problem)
            assert (got.iterations, got.converged, got.stop_reason) == (
                want.iterations, want.converged, want.stop_reason)
            assert np.abs(got.pops.as_array() - want.pops.as_array()).max() <= 1e-12
            assert abs(got.n_f1 - want.n_f1) <= 1e-12 * want.n_f1
