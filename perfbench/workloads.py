"""The four closed-loop workloads, written against the public ``mdsr`` API.

Each workload has four parts:

* ``setup(seed, workdir)`` builds the model objects every request shares.
  It is the part of ``setup_s`` that follows ``import mdsr.cli``.
* ``make_input(ctx, rng)`` draws one request input.  Inputs are drawn before
  timing starts and are never re-drawn to improve a result.
* ``run(ctx, inp)`` is the timed request.  It looks every ``mdsr`` function up
  on its module at call time, so the traced run can rebind those names.
* ``check(ctx, inp, out)`` runs after the timer stops.  It returns
  ``(ok, within_tol, detail)``.  ``ok`` is false when a value is not finite or
  the workload's check fails; ``within_tol`` compares with the workload's
  fixed tolerance.

``STRESSES`` names the per-layer metrics that must be non-zero in a traced
run of the workload; a run where one is 0 lost the spans of a layer it uses.

Why each workload exists, and which layers it should and should not stress,
is recorded with its name in BENCHMARK.json.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace

import numpy as np

from mdsr import bloch, config, fitting, io, levels, pumping, spectrum, validate
from mdsr.levels import Manifold, Sublevel

# Seconds per request well below today's (about 35, 13, 33 and 90 ms), so a
# pool sized from them wraps only after a large speed-up; a wrapped pool
# repeats inputs, and each result records whether it wrapped.
_POOL_FLOOR_S = {"invert": 0.01, "survey": 0.002, "oracle": 0.005, "pump": 0.05}


def pool_size(workload: str, seconds: float) -> int:
    """Inputs drawn for a run of ``seconds``."""
    return max(8, math.ceil(seconds / _POOL_FLOOR_S[workload]))


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


def _on_simplex(p) -> bool:
    p = np.asarray(p, dtype=float)
    return bool(p.min() >= -1e-12 and p.max() <= 1 + 1e-12 and abs(p.sum() - 1) <= 1e-9)


class Invert:
    """One ``fit_populations`` per request, density free, default multistart.

    The truths follow the criterion-3 reference truths (``REFERENCE_POPS`` in
    ``tests/conftest.py``): one interior point and three near-pure corners,
    one (0.96, 0.02, 0.02) and two (0.98, 0.01, 0.01).  A request draws one
    of the four kinds with equal odds.  A corner gets a seeded dominant
    sublevel; the interior kind is a Dirichlet(2, 2, 2) draw, whose mean is
    the uniform point next to the reference (0.32, 0.36, 0.32).
    """

    NOISE_SIGMA = 0.01
    TOL_PP = 0.02            # acceptance criterion 3: population error <= 2 pp
    CORNERS = ((0.96, 0.02), (0.98, 0.01), (0.98, 0.01))   # (dominant, other two)
    STRESSES = ("fitting.fit_populations.ms", "fitting.forward_evals_per_fit",
                "spectrum.synth_spectrum.calls", "spectrum.susceptibility_grid.calls")

    def setup(self, seed, workdir):
        model = config.RunConfig().experiment_model()   # reference model, B = 0.15 G
        return {"model": model, "grid": np.linspace(-80.0, 80.0, 161)}

    def make_input(self, ctx, rng):
        kind = int(rng.integers(1 + len(self.CORNERS)))
        if kind == 0:
            truth = rng.dirichlet([2.0, 2.0, 2.0])
        else:
            dominant, other = self.CORNERS[kind - 1]
            truth = np.full(3, other)
            truth[rng.integers(3)] = dominant
        clean = spectrum.synth_spectrum(
            ctx["model"], spectrum.PopulationDistribution(*truth), ctx["grid"])
        observed = spectrum.add_noise(clean, self.NOISE_SIGMA, int(rng.integers(2**31)))
        return {"truth": truth, "problem": fitting.FitProblem(observed=observed,
                                                              model_template=ctx["model"])}

    def run(self, ctx, inp):
        return fitting.fit_populations(inp["problem"])

    def check(self, ctx, inp, out):
        pops = out.pops.as_array()
        if not _finite(pops, out.n_f1, out.residual_rms):
            return False, False, "non-finite fit result"
        if not out.converged:
            return False, False, f"not converged after {out.iterations} iterations"
        if not _on_simplex(pops):
            return False, False, f"populations off the simplex: {pops}"
        err = float(np.abs(pops - inp["truth"]).max())
        return True, err <= self.TOL_PP, f"population error {err:.3e}"


class Survey:
    """Fresh model, spectrum, noise and CSV round trip, as ``mdsr synth`` does."""

    NOISE_SIGMA = 0.01
    STRESSES = ("levels.build_level_scheme.calls", "angular.wigner3j.calls",
                "config.experiment_model.ms", "spectrum.synth_spectrum.calls",
                "io.write_spectrum.ms", "io.read_spectrum.ms", "io.bytes")

    def setup(self, seed, workdir):
        return {"path": os.path.join(workdir, "spectrum.csv")}

    def make_input(self, ctx, rng):
        points = int(rng.integers(161, 3202))
        return {
            "b_field": float(rng.uniform(0.0, 1.0)),
            "omega_c": float(rng.uniform(20.0, 120.0)),
            "scan_step": 160.0 / (points - 1),
            "points": points,
            "pops": rng.dirichlet([1.0, 1.0, 1.0]),
            "noise_seed": int(rng.integers(2**31)),
        }

    def run(self, ctx, inp):
        cfg = config.RunConfig(b_field=inp["b_field"], omega_c=inp["omega_c"],
                               scan_start=-80.0, scan_stop=80.0, scan_step=inp["scan_step"])
        model = cfg.experiment_model()
        clean = spectrum.synth_spectrum(model, spectrum.PopulationDistribution(*inp["pops"]),
                                        cfg.scan_grid())
        noisy = spectrum.add_noise(clean, self.NOISE_SIGMA, inp["noise_seed"])
        io.write_spectrum(noisy, ctx["path"])
        return clean, noisy, io.read_spectrum(ctx["path"])

    def check(self, ctx, inp, out):
        clean, noisy, back = out
        if abs(len(clean) - inp["points"]) > 1 or clean.detunings[-1] > 80.0 + 1e-9:
            return False, False, f"grid of {len(clean)} points ends at {clean.detunings[-1]}"
        if not _finite(clean.transmission, back.detunings, back.transmission):
            return False, False, "non-finite transmission"
        exact = (np.array_equal(back.detunings, noisy.detunings)
                 and np.array_equal(back.transmission, noisy.transmission))
        in_range = all(t.min() >= 0.0 and t.max() <= 1.0
                       for t in (clean.transmission, back.transmission))
        return True, bool(exact and in_range), f"round trip exact={exact}, in [0,1]={in_range}"


class Oracle:
    """One detuning of the 13-level oracle and of the Lambda steady state."""

    N_FIELDS = 8             # distinct B values whose models are built in setup
    LAMBDA_PROBE = 0.1       # MHz, below saturation as in `mdsr validate`
    TOL_REL = 0.01           # the relative bound `validate` uses
    STRESSES = ("bloch.weak_probe_coherences.ms", "bloch.build_hamiltonian.ms",
                "bloch.build_liouvillian.calls", "bloch.steady_state.ms",
                "spectrum.susceptibility_grid.calls")

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 7])
        models = []
        for b_field in rng.uniform(0.0, 1.0, self.N_FIELDS):
            model = config.RunConfig(b_field=float(b_field)).experiment_model()
            scheme, q = model.scheme, model.probe.q
            gman, eman = model.probe.transition
            # probe transitions a_m -> c_{m+q}, with the scheme's relative dipoles
            probe_links = []
            for m in range(-gman.f, gman.f + 1):
                if abs(m + q) <= eman.f:
                    a, c = Sublevel(gman, m), Sublevel(eman, m + q)
                    probe_links.append((scheme.index(a), scheme.index(c), scheme.coupling(a, c, q)))
            lambdas = []
            for m in (-1, 0):    # a_-1 and a_0 have a pi partner b_{m-1} on c_{m-1}
                a = Sublevel(Manifold.G1, m)
                c = Sublevel(Manifold.E2, m - 1)
                b = Sublevel(Manifold.G2, m - 1)
                sub = validate.restrict_scheme(scheme, (a, b, c))
                lambdas.append({
                    "scheme": sub,
                    "ac": (sub.index(a), sub.index(c)),
                    "rel_p": scheme.coupling(a, c, q),
                    "omega_c": abs(scheme.coupling(b, c, model.coupling.q)) * model.coupling.rabi_scale,
                    "dp_shift": scheme.zeeman[c] - scheme.zeeman[a],
                    "dc_shift": scheme.zeeman[c] - scheme.zeeman[b],
                    "rho0": np.diag([1.0, 0.0, 0.0]).astype(complex),
                })
            models.append({
                "model": model,
                "probe_links": probe_links,
                "prefactor": spectrum.susceptibility_prefactor(model.n_f1, scheme.reduced_dipole),
                "lambdas": lambdas,
            })
        return {"models": models, "g1": [Sublevel(Manifold.G1, m) for m in (-1, 0, 1)]}

    def make_input(self, ctx, rng):
        pops = rng.dirichlet([1.0, 1.0, 1.0])
        return {
            "model": int(rng.integers(self.N_FIELDS)),
            "delta_p": float(rng.uniform(-80.0, 80.0)),
            "pops": pops,
            "pops_by_level": {s: float(p) for s, p in zip(ctx["g1"], pops)},
            "lambda": int(rng.integers(2)),
        }

    def run(self, ctx, inp):
        entry = ctx["models"][inp["model"]]
        model, dp = entry["model"], inp["delta_p"]
        rho1 = bloch.weak_probe_coherences(model.scheme, model.coupling, model.probe,
                                           model.decay, inp["pops_by_level"], dp)
        chi_oracle = sum(amp * rho1[a, c] for a, c, amp in entry["probe_links"])
        chi_oracle *= entry["prefactor"] / model.probe.rabi_scale
        chi_additive = spectrum.susceptibility_grid(
            model, spectrum.PopulationDistribution(*inp["pops"]), np.array([dp]))[0]

        lam = entry["lambdas"][inp["lambda"]]
        probe = replace(model.probe, rabi_scale=self.LAMBDA_PROBE, detuning=dp)
        h = bloch.build_hamiltonian(lam["scheme"], [model.coupling, probe])
        rho = bloch.steady_state(bloch.build_liouvillian(h, lam["scheme"], model.decay), lam["rho0"])
        a, c = lam["ac"]
        analytic = bloch.lambda_coherence_analytic(
            lam["rel_p"] * self.LAMBDA_PROBE, lam["omega_c"], dp - lam["dp_shift"],
            model.coupling.detuning - lam["dc_shift"], model.decay.gamma_ac, model.decay.gamma_ab)
        return chi_oracle, chi_additive, -rho[a, c], analytic, rho

    def check(self, ctx, inp, out):
        chi_oracle, chi_additive, coherence, analytic, rho = out
        if not _finite(chi_oracle, chi_additive, coherence, analytic, rho):
            return False, False, "non-finite oracle value"
        try:
            bloch.validate_density_matrix(rho)
        except ValueError as exc:
            return False, False, f"Lambda steady state: {exc}"
        dev_chi = abs(chi_oracle - chi_additive) / abs(chi_additive)
        dev_lambda = abs(coherence - analytic) / abs(analytic)
        worst = max(dev_chi, dev_lambda)
        return True, worst <= self.TOL_REL, f"chi dev {dev_chi:.2e}, Lambda dev {dev_lambda:.2e}"


class Pump:
    """16-level scheme at a seeded B plus ``design_pump`` toward a reachable target."""

    TOL_L1 = 1e-3
    TOL_REPRODUCE = 1e-12
    STRESSES = ("levels.build_level_scheme.calls", "pumping.design_pump.ms",
                "pumping.pump_rate_matrix.calls", "pumping.evolve_populations.calls")

    def setup(self, seed, workdir):
        return {"coupling": config.RunConfig().experiment_model().coupling}

    def _predict(self, scheme, coupling, q, power):
        cfg = pumping.PumpConfig(q, power)
        rates = pumping.pump_rate_matrix(scheme, cfg, coupling)
        state0 = pumping.uniform_g1_state(scheme)
        return pumping.evolve_populations(rates, state0, cfg.duration_ms).g1_distribution()

    def make_input(self, ctx, rng):
        b_field = float(rng.uniform(0.0, 1.0))
        q = int(rng.integers(-1, 2))
        power = float(np.exp(rng.uniform(np.log(0.01), np.log(15.0))))
        scheme = levels.build_level_scheme(b_field, include_e1=True)
        return {"b_field": b_field, "q": q, "power": power,
                "target": self._predict(scheme, ctx["coupling"], q, power)}

    def run(self, ctx, inp):
        scheme = levels.build_level_scheme(inp["b_field"], include_e1=True)
        return scheme, pumping.design_pump(inp["target"], scheme, ctx["coupling"])

    def check(self, ctx, inp, out):
        scheme, plan = out
        if not _finite(plan.power_mw, plan.predicted, plan.target_distance):
            return False, False, "non-finite pump plan"
        if plan.polarization not in (-1, 0, 1) or not _on_simplex(plan.predicted):
            return False, False, f"invalid plan {plan}"
        again = (pumping.uniform_g1_state(scheme).g1_distribution() if plan.power_mw == 0.0
                 else self._predict(scheme, ctx["coupling"], plan.polarization, plan.power_mw))
        drift = float(np.abs(again - plan.predicted).max())
        dist = float(np.abs(plan.predicted - inp["target"]).sum())
        ok_tol = dist <= self.TOL_L1 and drift <= self.TOL_REPRODUCE
        return True, ok_tol, f"L1 to target {dist:.2e}, re-evaluation drift {drift:.2e}"


WORKLOADS = {"invert": Invert(), "survey": Survey(), "oracle": Oracle(), "pump": Pump()}

