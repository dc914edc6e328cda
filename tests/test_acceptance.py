"""End-to-end acceptance suite.

Each test prints one `ACCEPT pass|FAIL <name>` line so the whole gate can
be audited from the pytest -v output alone.
"""

import subprocess
import sys

import numpy as np
import pytest

from mdsr.fitting import FitProblem, fit_populations
from mdsr.levels import build_level_scheme
from mdsr.pumping import (
    DEFAULT_PUMP_DURATION_MS,
    PumpConfig,
    evolve_populations,
    pump_rate_matrix,
    uniform_g1_state,
)
from mdsr.spectrum import PopulationDistribution, add_noise, susceptibility_grid, synth_spectrum
from mdsr.validate import oracle_linear_response_deviation, run_checks

from conftest import REFERENCE_POPS, cli_env, make_model


def report(name, passed):
    print(f"\nACCEPT {'pass' if passed else 'FAIL'}  {name}")
    assert passed


def absorption_peaks(grid, im_chi, rel_threshold):
    ymax = im_chi.max()
    return [grid[i] for i in range(1, len(grid) - 1)
            if im_chi[i] > im_chi[i - 1] and im_chi[i] >= im_chi[i + 1]
            and im_chi[i] > rel_threshold * ymax]


def test_criterion_1_oracle_equivalence():
    """Full 13-level weak-probe coherence vs analytic Lambda formula, <= 1%."""
    worst = oracle_linear_response_deviation()
    report(f"oracle-equivalence (max rel dev {worst:.2e})", worst <= 0.01)


def test_criterion_2_five_feature_structure():
    """(32, 36, 32)% at B=0: central line plus dressed pairs near +-39, +-19.5."""
    model = make_model(b_field=0.0)
    grid = np.arange(-80.0, 80.001, 0.02)
    chi = susceptibility_grid(model, PopulationDistribution(0.32, 0.36, 0.32), grid)
    peaks = absorption_peaks(grid, chi.imag, rel_threshold=0.05)
    ok = len(peaks) == 5
    if ok:
        expected = [-39.0, -19.5, 0.0, 19.5, 39.0]
        tols = [2.0, 2.0, 1.0, 2.0, 2.0]
        ok = all(abs(p - e) <= t for p, e, t in zip(peaks, expected, tols))
    report(f"five-feature-structure (peaks {[round(p, 2) for p in peaks]})", ok)


def test_criterion_3_fit_round_trips():
    """Noiseless <= 0.5 pp & 1% density; sigma=0.01 <= 2 pp for >= 95/100 seeds."""
    model = make_model()
    grid = np.linspace(-80.0, 80.0, 161)
    ok = True
    details = []
    for truth in REFERENCE_POPS:
        clean = synth_spectrum(model, PopulationDistribution(*truth), grid)
        result = fit_populations(FitProblem(observed=clean, model_template=model))
        pop_err = np.abs(result.pops.as_array() - np.array(truth)).max()
        den_err = abs(result.n_f1 - model.n_f1) / model.n_f1
        ok &= result.converged and pop_err <= 0.005 and den_err <= 0.01
        good = 0
        for seed in range(100):
            noisy = add_noise(clean, 0.01, seed)
            r = fit_populations(FitProblem(observed=noisy, model_template=model))
            if np.abs(r.pops.as_array() - np.array(truth)).max() <= 0.02:
                good += 1
        ok &= good >= 95
        details.append(f"{truth}: {pop_err * 100:.3f}pp/{den_err * 100:.2f}%/{good}/100")
    report("fit-round-trips (" + "; ".join(details) + ")", ok)


def test_criterion_4_distribution_signatures():
    """Dominant-peak counts 2/1 and narrow-to-broad splitting ratio 0.5."""
    model = make_model(b_field=0.0)
    grid = np.arange(-80.0, 80.001, 0.02)

    def peaks_for(pops, threshold=0.2):
        chi = susceptibility_grid(model, PopulationDistribution(*pops), grid)
        return absorption_peaks(grid, chi.imag, threshold)

    broad = peaks_for((0.96, 0.02, 0.02))
    single = peaks_for((0.01, 0.01, 0.98))
    narrow = peaks_for((0.01, 0.98, 0.01))
    ok = len(broad) == 2 and len(single) == 1 and len(narrow) == 2
    ratio = float("nan")
    if ok:
        ratio = (narrow[1] - narrow[0]) / (broad[1] - broad[0])
        ok = abs(ratio - 0.5) <= 0.05
    report(f"distribution-signatures (counts {len(broad)}/{len(single)}/{len(narrow)}, "
           f"ratio {ratio:.3f})", ok)


def test_criterion_5_pump_dark_state_limits():
    """20 mW for 10 ms drives the matching F=1 sublevel share to >= 0.999."""
    scheme = build_level_scheme(0.15, include_e1=True)
    coupling = make_model().coupling
    state0 = uniform_g1_state(scheme)
    shares = []
    for q, idx in ((-1, 0), (0, 1), (1, 2)):
        rates = pump_rate_matrix(scheme, PumpConfig(q, 20.0, 2.0, 10.0), coupling)
        shares.append(evolve_populations(rates, state0, 10.0).g1_distribution()[idx])
    ok = all(s >= 0.999 for s in shares)
    report("pump-dark-state-limits (shares " + ", ".join(f"{s:.5f}" for s in shares) + ")", ok)


def test_criterion_6_pump_power_ordering():
    """5/1/0.5/0.05 mW: strictly decreasing purity; 0.05 mW within 5 pp of unpumped."""
    scheme = build_level_scheme(0.15, include_e1=True)
    coupling = make_model().coupling
    state0 = uniform_g1_state(scheme)
    shares = []
    for power in (5.0, 1.0, 0.5, 0.05):
        rates = pump_rate_matrix(scheme, PumpConfig(-1, power), coupling)
        final = evolve_populations(rates, state0, DEFAULT_PUMP_DURATION_MS)
        shares.append(final.g1_distribution())
    strictly_decreasing = all(a[0] > b[0] for a, b in zip(shares, shares[1:]))
    near_unpumped = np.abs(shares[-1] - 1 / 3).max() <= 0.05
    report("pump-power-ordering (p- " + ", ".join(f"{s[0]:.4f}" for s in shares) + ")",
           strictly_decreasing and near_unpumped)


def test_criterion_7_invariant_suite():
    """Every cross-module physical invariant check passes."""
    results = run_checks()
    failed = [r.name for r in results if not r.passed]
    report(f"invariant-suite ({len(results) - len(failed)}/{len(results)} checks)",
           not failed)


def test_criterion_8_determinism(tmp_path):
    """Repeated synth and fit CLI runs with a fixed seed are byte-identical."""
    env = cli_env()

    def run(args):
        proc = subprocess.run([sys.executable, "-m", "mdsr.cli", *args],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    digests = {"synth": [], "noisy": [], "fit": []}
    for tag in ("r1", "r2"):
        out = tmp_path / f"{tag}.csv"
        run(["synth", "--out", str(out), "--pops", "32,36,32",
             "--noise", "0.01", "--seed", "4"])
        digests["synth"].append(out.read_bytes())
        digests["noisy"].append((tmp_path / f"{tag}_noisy.csv").read_bytes())
        fit_out = tmp_path / f"{tag}_fit.txt"
        run(["fit", str(out), "--out", str(fit_out)])
        digests["fit"].append(fit_out.read_bytes())
    ok = all(v[0] == v[1] for v in digests.values())
    report("determinism (synth/noisy/fit byte-identical)", ok)
