import itertools
import math

import numpy as np
import pytest

from mdsr.bloch import LaserField
from mdsr.levels import Manifold, Sublevel, build_level_scheme
from mdsr.pumping import (
    DEFAULT_PUMP_DURATION_MS,
    MAX_POWER_MW,
    MHZ_TO_PER_MS,
    NATURAL_LINEWIDTH_MHZ,
    THETA13,
    PopulationState,
    PumpConfig,
    _coupling_saturation,
    design_pump,
    evolve_populations,
    expm,
    pump_rate_matrix,
    uniform_g1_state,
)

COUPLING = LaserField(0, 78.0, 0.0, (Manifold.G2, Manifold.E2))


@pytest.fixture(scope="module")
def scheme16():
    return build_level_scheme(0.15, include_e1=True)


def filter_rate_matrix(scheme, pump, coupling):
    """Reference for `pump_rate_matrix`: each beam's couplings picked by
    filtering `scheme.couplings` on polarization and manifold pair."""
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


class TestPumpConfig:
    def test_saturation_at_reference_power(self):
        # 13.6 mW over a 2 mm top-hat beam: I = 13.6 / (pi * 0.01) mW/cm^2
        cfg = PumpConfig(-1, 13.6, 2.0)
        intensity = 13.6 / (np.pi * 0.1**2)
        assert cfg.saturation == pytest.approx(intensity / 1.496, rel=1e-12)
        assert cfg.saturation == pytest.approx(289.4, abs=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            PumpConfig(2, 1.0)
        with pytest.raises(ValueError):
            PumpConfig(0, -1.0)
        with pytest.raises(ValueError):
            PumpConfig(0, 1.0, duration_ms=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["power_mw", "beam_diameter_mm", "duration_ms"])
    def test_rejects_non_finite(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            PumpConfig(0, **{"power_mw": 1.0, field: bad})


class TestPopulationState:
    def test_uniform_start(self, scheme16):
        state = uniform_g1_state(scheme16)
        assert state.manifold_total(Manifold.G1) == pytest.approx(1.0)
        assert np.allclose(state.g1_distribution(), 1 / 3)

    def test_rejects_bad_vector(self, scheme16):
        with pytest.raises(ValueError):
            PopulationState(scheme16, np.zeros(scheme16.dim))
        with pytest.raises(ValueError):
            PopulationState(scheme16, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_vector(self, scheme16, bad):
        p = uniform_g1_state(scheme16).pops.copy()
        p[0] = bad
        with pytest.raises(ValueError, match="finite"):
            PopulationState(scheme16, p)

    def test_empty_g1_distribution_is_uniform(self, scheme16):
        p = np.zeros(scheme16.dim)
        p[scheme16.index(Sublevel(Manifold.G2, 0))] = 1.0
        assert np.allclose(PopulationState(scheme16, p).g1_distribution(), 1 / 3)


class TestRateMatrix:
    def test_requires_16_level_scheme(self):
        with pytest.raises(ValueError):
            pump_rate_matrix(build_level_scheme(0.15), PumpConfig(-1, 1.0), COUPLING)

    @pytest.mark.parametrize("b_field", [0.0, 0.15, 0.9])
    def test_bitwise_equal_to_filter_reference(self, b_field):
        scheme = build_level_scheme(b_field, include_e1=True)
        for q, qc, power in itertools.product((-1, 0, 1), (-1, 0, 1), (0.0, 3.0, 20.0)):
            pump = PumpConfig(q, power)
            coupling = LaserField(qc, 78.0, 0.0, (Manifold.G2, Manifold.E2))
            rates = pump_rate_matrix(scheme, pump, coupling)
            assert rates.tobytes() == filter_rate_matrix(scheme, pump, coupling).tobytes()

    def test_columns_sum_to_zero(self, scheme16):
        for q in (-1, 0, 1):
            rates = pump_rate_matrix(scheme16, PumpConfig(q, 5.0), COUPLING)
            assert np.abs(rates.sum(axis=0)).max() < 1e-9

    def test_dark_sublevel_has_no_pump_loss(self, scheme16):
        # sigma- pump: a_-1 only couples up to e_-2, which does not exist,
        # so its only rate-matrix entries are incoming decay
        rates = pump_rate_matrix(scheme16, PumpConfig(-1, 5.0), COUPLING)
        i = scheme16.index(Sublevel(Manifold.G1, -1))
        assert rates[i, i] == 0.0

    @pytest.mark.parametrize("q", [-1, 0, 1])
    def test_affine_in_saturation_factor(self, scheme16, q):
        # R(f) = R0 + (f / f_max)(R_max - R0) with f = s / (1 + s): the
        # identity design_pump searches on
        def rates(power):
            return pump_rate_matrix(scheme16, PumpConfig(q, power), COUPLING)

        def f(power):
            s = PumpConfig(q, power).saturation
            return s / (1.0 + s)

        r0, r_max = rates(0.0), rates(MAX_POWER_MW)
        for power in (0.01, 0.3, 5.0):
            affine = r0 + f(power) / f(MAX_POWER_MW) * (r_max - r0)
            exact = rates(power)
            assert np.abs(affine - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_population_conserved_under_evolution(self, scheme16):
        state = uniform_g1_state(scheme16)
        rates = pump_rate_matrix(scheme16, PumpConfig(0, 3.0), COUPLING)
        for t in (1e-4, 1e-2, 1.0):
            evolved = evolve_populations(rates, state, t)
            assert evolved.pops.sum() == pytest.approx(1.0, abs=1e-12)
            assert evolved.pops.min() >= 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_evolution_rejects_non_finite_rates(self, scheme16, bad):
        rates = pump_rate_matrix(scheme16, PumpConfig(0, 3.0), COUPLING)
        rates[3, 5] = bad
        with pytest.raises(ValueError, match="rates"):
            evolve_populations(rates, uniform_g1_state(scheme16), 1e-3)

    @pytest.mark.parametrize("shape", [(15, 15), (16, 15), (2, 16, 16)])
    def test_evolution_rejects_rates_of_wrong_shape(self, scheme16, shape):
        with pytest.raises(ValueError, match="rates"):
            evolve_populations(np.zeros(shape), uniform_g1_state(scheme16), 1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3])
    def test_evolution_rejects_bad_time(self, scheme16, bad):
        rates = pump_rate_matrix(scheme16, PumpConfig(0, 3.0), COUPLING)
        with pytest.raises(ValueError, match="time"):
            evolve_populations(rates, uniform_g1_state(scheme16), bad)


class TestDarkStateLimits:
    @pytest.mark.parametrize("q,idx", [(-1, 0), (0, 1), (1, 2)])
    def test_long_strong_pump_fully_polarizes(self, scheme16, q, idx):
        rates = pump_rate_matrix(scheme16, PumpConfig(q, 20.0, 2.0, 10.0), COUPLING)
        final = evolve_populations(rates, uniform_g1_state(scheme16), 10.0)
        dist = final.g1_distribution()
        assert dist[idx] > 0.999
        # b_0 is dark to the pi coupling beam, so some population stays in
        # F=2; purity is defined within the F=1 manifold
        assert final.manifold_total(Manifold.G1) + final.manifold_total(Manifold.G2) \
            == pytest.approx(1.0, abs=1e-9)

    def test_purity_monotone_in_time(self, scheme16):
        rates = pump_rate_matrix(scheme16, PumpConfig(-1, 5.0), COUPLING)
        state0 = uniform_g1_state(scheme16)
        shares = [evolve_populations(rates, state0, t).g1_distribution()[0]
                  for t in (0.0, 1e-4, 1e-3, 1e-2, 1e-1)]
        assert all(b >= a - 1e-12 for a, b in zip(shares, shares[1:]))


class TestPowerDependence:
    def test_purity_ordering_with_power(self, scheme16):
        # fixed effective duration: more power pumps harder
        state0 = uniform_g1_state(scheme16)
        shares = []
        for power in (5.0, 1.0, 0.5, 0.05):
            rates = pump_rate_matrix(scheme16, PumpConfig(-1, power), COUPLING)
            final = evolve_populations(rates, state0, DEFAULT_PUMP_DURATION_MS)
            shares.append(final.g1_distribution()[0])
        assert all(a > b for a, b in zip(shares, shares[1:]))
        assert shares[0] > 1 / 3 + 0.02
        assert shares[-1] < 1 / 3 + 0.05  # lowest power barely pumps


class TestDesignPump:
    def test_sigma_minus_for_left_target(self, scheme16):
        plan = design_pump(np.array([1.0, 0.0, 0.0]), scheme16, COUPLING,
                           duration_ms=0.05)
        assert plan.polarization == -1
        assert plan.target_distance < 0.02
        assert plan.predicted[0] > 0.99

    def test_pi_for_center_target(self, scheme16):
        plan = design_pump(np.array([0.0, 1.0, 0.0]), scheme16, COUPLING,
                           duration_ms=0.05)
        assert plan.polarization == 0
        assert plan.target_distance < 0.02

    def test_uniform_target_prefers_no_power(self, scheme16):
        plan = design_pump(np.full(3, 1 / 3), scheme16, COUPLING, duration_ms=0.05)
        assert plan.target_distance < 1e-6
        assert plan.power_mw < 1e-3

    def test_rejects_off_simplex_target(self, scheme16):
        with pytest.raises(ValueError):
            design_pump(np.array([0.5, 0.5, 0.5]), scheme16, COUPLING)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_target(self, scheme16, bad):
        with pytest.raises(ValueError, match="finite"):
            design_pump(np.array([bad, 0.5, 0.5]), scheme16, COUPLING)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["duration_ms", "beam_diameter_mm"])
    def test_rejects_non_finite_setting(self, scheme16, field, bad):
        with pytest.raises(ValueError, match="finite"):
            design_pump(np.full(3, 1 / 3), scheme16, COUPLING, **{field: bad})

    @pytest.mark.parametrize("b_field", [0.0, 0.5])
    @pytest.mark.parametrize("q", [-1, 0, 1])
    @pytest.mark.parametrize("power", [0.01, 0.3, 5.0])
    def test_recovers_reachable_target(self, b_field, q, power):
        # the target is what (q, power) gives; the plan must reach it and
        # re-evaluate to its own prediction through the rate builder
        scheme = build_level_scheme(b_field, include_e1=True)
        state0 = uniform_g1_state(scheme)

        def predict(q, power):
            rates = pump_rate_matrix(scheme, PumpConfig(q, power), COUPLING)
            return evolve_populations(rates, state0, DEFAULT_PUMP_DURATION_MS).g1_distribution()

        target = predict(q, power)
        plan = design_pump(target, scheme, COUPLING)
        dist = float(np.abs(plan.predicted - target).sum())
        assert plan.target_distance == pytest.approx(dist, abs=1e-15)
        # perfbench's bound is 1e-3; the grid alone gets within 3.4e-4 here,
        # so the golden-section refinement is what brings it under 1e-8
        assert dist <= 1e-8
        assert 0.0 <= plan.power_mw <= MAX_POWER_MW
        again = predict(plan.polarization, plan.power_mw)
        assert np.abs(again - plan.predicted).max() <= 1e-12


def design_stack(scheme, duration_ms):
    """The 99 scaled rate matrices of design_pump's grid: 33 values of
    u = f/f_max on each polarization, times the duration."""
    r0 = pump_rate_matrix(scheme, PumpConfig(-1, 0.0), COUPLING)
    r1 = np.array([pump_rate_matrix(scheme, PumpConfig(q, MAX_POWER_MW), COUPLING)
                   for q in (-1, 0, 1)]) - r0
    us = np.linspace(0.0, 1.0, 33)
    return (r0 + us[None, :, None, None] * r1[:, None]).reshape(-1, *r0.shape) * duration_ms


DESIGN_DURATIONS_MS = (2e-4, 1e-3, 0.05, 1.0, 10.0)


class TestExpm:
    @pytest.mark.parametrize("duration", DESIGN_DURATIONS_MS)
    def test_matches_scipy_on_design_stacks(self, scheme16, duration):
        # bound fixed at 1e-11 before the propagator was tuned; the
        # largest difference seen is 2.6e-12, at 10 ms
        scipy_linalg = pytest.importorskip("scipy.linalg")
        stack = design_stack(scheme16, duration)
        p0 = uniform_g1_state(scheme16).pops
        ours, theirs = expm(stack) @ p0, scipy_linalg.expm(stack) @ p0
        assert np.abs(ours - theirs).max() <= 1e-11

    def test_mixed_scaling_stack_matches_single_matrices(self, scheme16):
        # one matrix per duration: 2**-s scalings s = 0, 2, 7, 12 and 15 in one
        # stack, so finished matrices sit out later squarings
        stack = np.array([design_stack(scheme16, t)[40] for t in DESIGN_DURATIONS_MS])
        scales = np.frexp(np.abs(stack).sum(axis=-2).max(axis=-1) / THETA13)[1]
        assert np.maximum(scales, 0).tolist() == [0, 2, 7, 12, 15]
        together = expm(stack)
        for matrix, alone in zip(stack, together):
            assert np.array_equal(expm(matrix), alone)

    def test_known_exponentials(self):
        assert np.allclose(expm(np.zeros((4, 4))), np.eye(4), rtol=0, atol=1e-15)
        assert expm(np.zeros((0, 4, 4))).shape == (0, 4, 4)
        # a nilpotent generator: exp(N) = I + N + N^2/2
        n = np.diag([2.0, 3.0], k=1)
        assert np.allclose(expm(n), np.eye(3) + n + n @ n / 2, rtol=0, atol=1e-14)
        # a two-state decay, large enough to be squared back 12 times
        k = 9e3
        exact = np.array([[math.exp(-k), 0.0], [1.0 - math.exp(-k), 1.0]])
        assert np.allclose(expm(np.array([[-k, 0.0], [k, 0.0]])), exact, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            expm(np.array([[0.0, bad], [0.0, 0.0]]))


def scalar_design(target, scheme, coupling, duration_ms):
    """The search one polarization at a time with one expm per point, as
    design_pump ran it before the polarizations were searched in lockstep:
    the reference the batched search must reproduce bit for bit.  It uses
    the package's expm, so both sides run the same arithmetic.  The grid
    size, step count and ratio are literals so that a change to
    GRID_POINTS, GOLDEN_STEPS or GOLDEN shows here too."""
    grid_points, golden_steps, golden = 33, 40, (math.sqrt(5.0) - 1.0) / 2.0
    p0 = uniform_g1_state(scheme).pops
    g1 = [scheme.index(Sublevel(Manifold.G1, m)) for m in (-1, 0, 1)]
    s_max = PumpConfig(-1, MAX_POWER_MW, 2.0, duration_ms).saturation

    best = None
    for q in (-1, 0, 1):
        r0 = pump_rate_matrix(scheme, PumpConfig(q, 0.0, 2.0, duration_ms), coupling)
        r1 = pump_rate_matrix(scheme, PumpConfig(q, MAX_POWER_MW, 2.0, duration_ms),
                              coupling) - r0

        def score(u):
            p = np.maximum(expm((r0 + u * r1) * duration_ms) @ p0, 0.0)
            p = p / p.sum()
            shares = np.array([p[i] for i in g1])
            pred = shares / shares.sum() if shares.sum() > 0 else np.full(3, 1.0 / 3.0)
            return float(np.abs(pred - target).sum()), u, pred

        grid = [score(u) for u in np.linspace(0.0, 1.0, grid_points)]
        k = int(np.argmin([c[0] for c in grid]))
        lo, hi = grid[max(k - 1, 0)][1], grid[min(k + 1, grid_points - 1)][1]
        a, b = score(hi - golden * (hi - lo)), score(lo + golden * (hi - lo))
        for _ in range(golden_steps):
            if a[0] <= b[0]:
                hi, b = b[1], a
                a = score(hi - golden * (hi - lo))
            else:
                lo, a = a[1], b
                b = score(lo + golden * (hi - lo))
        dist, u, pred = min(grid[k], a, b, key=lambda c: c[0])
        if best is None or dist < best[3]:
            best = (q, float(MAX_POWER_MW * u / (1.0 + s_max * (1.0 - u))), pred, dist)
    return best


class TestLockstepSearch:
    @pytest.mark.parametrize("b_field", [0.0, 0.15, 0.5, 0.9])
    def test_matches_scalar_search(self, b_field):
        scheme = build_level_scheme(b_field, include_e1=True)
        targets = [(1, 0, 0), (0, 1, 0), (1, 1, 1), (0.8, 0.1, 0.1), (0.2, 0.3, 0.5),
                   (0.5, 0.5, 0)]
        for target in targets:
            target = np.array(target, dtype=float) / sum(target)
            for duration in (2e-4, 1e-3, 0.05):
                plan = design_pump(target, scheme, COUPLING, duration_ms=duration)
                q, power, pred, dist = scalar_design(target, scheme, COUPLING, duration)
                assert plan.polarization == q
                assert plan.power_mw == power
                assert np.array_equal(plan.predicted, pred)
                assert plan.target_distance == dist
