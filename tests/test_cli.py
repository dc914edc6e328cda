import subprocess
import sys

import pytest

from mdsr.io import read_spectrum

from conftest import cli_env


def run_cli(args, cwd, env=None):
    if env is None:
        env = cli_env()
    return subprocess.run(
        [sys.executable, "-m", "mdsr.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def read_kv(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


@pytest.fixture()
def synth_csv(tmp_path):
    out = tmp_path / "spec.csv"
    proc = run_cli(["synth", "--out", str(out), "--pops", "0.32,0.36,0.32"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    return out


class TestSynth:
    def test_writes_readable_spectrum(self, synth_csv):
        s = read_spectrum(synth_csv)
        assert len(s) == 161
        assert s.detunings[0] == -80.0 and s.detunings[-1] == 80.0

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            proc = run_cli(["synth", "--out", str(out), "--pops", "1,1,98"], tmp_path)
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_noisy_copy_deterministic_per_seed(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            proc = run_cli(["synth", "--out", str(out), "--noise", "0.01",
                            "--seed", "9"], tmp_path)
            assert proc.returncode == 0, proc.stderr
            digests.append((tmp_path / f"{name}_noisy.csv").read_bytes())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("out", ["./spec", "a.d/spec"])
    def test_noisy_copy_beside_extensionless_out(self, tmp_path, out):
        # a dot in the directory part is not the start of an extension
        (tmp_path / "a.d").mkdir()
        proc = run_cli(["synth", "--out", out, "--noise", "0.01"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        noisy = tmp_path / (out + "_noisy.csv")
        assert len(read_spectrum(noisy)) == 161
        assert sorted(p.name for p in tmp_path.rglob("*_noisy.csv")) == ["spec_noisy.csv"]

    def test_undamped_dark_state_at_zero_field(self, tmp_path):
        # gamma_ab = 0, B = 0: the default grid hits the two-photon resonance
        cfg = tmp_path / "run.ini"
        cfg.write_text("[experiment]\ngamma_ab = 0\nb_field = 0\n")
        out = tmp_path / "s.csv"
        proc = run_cli(["synth", "--config", str(cfg), "--out", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        s = read_spectrum(out)
        assert len(s) == 161 and 0.0 < s.transmission.min() < 1.0

    def test_config_file_drives_scan(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[scan]\nstart = -10\nstop = 10\nstep = 2\n")
        out = tmp_path / "s.csv"
        proc = run_cli(["synth", "--config", str(cfg), "--out", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert len(read_spectrum(out)) == 11

    def test_bad_config_is_reported(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[scan]\nstep = -1\n")
        proc = run_cli(["synth", "--config", str(cfg)], tmp_path)
        assert proc.returncode != 0
        assert "scan.step" in proc.stderr

    def test_scan_with_too_many_points_is_rejected(self, tmp_path):
        # 1.6e14 points: refused by the config, not by a failed allocation
        cfg = tmp_path / "run.ini"
        cfg.write_text("[scan]\nstep = 1e-12\n")
        proc = run_cli(["synth", "--config", str(cfg), "--out", "s.csv"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == "error: scan.step out of range: 1e-12\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]

    def test_bad_pops_rejected(self, tmp_path):
        proc = run_cli(["synth", "--pops", "1,2"], tmp_path)
        assert proc.returncode != 0
        assert "--pops must be three non-negative numbers" in proc.stderr

    @pytest.mark.parametrize("pops", ["nan,1,1", "inf,1,1"])
    def test_non_finite_pops_rejected(self, tmp_path, pops):
        proc = run_cli(["synth", "--pops", pops], tmp_path)
        assert proc.returncode == 1
        assert "--pops must be three non-negative numbers" in proc.stderr
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--noise", "-0.01"), ("--noise", "nan"), ("--noise", "inf"), ("--seed", "-1"),
    ])
    def test_bad_noise_or_seed_rejected(self, tmp_path, flag, value):
        proc = run_cli(["synth", "--out", "s.csv", flag, value], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {flag} must be")
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []


class TestFit:
    def test_round_trip_recovers_populations(self, tmp_path, synth_csv):
        out = tmp_path / "fit.txt"
        proc = run_cli(["fit", str(synth_csv), "--out", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        result = read_kv(out)
        assert result["converged"] == "true"
        assert float(result["p_minus"]) == pytest.approx(0.32, abs=0.005)
        assert float(result["p_zero"]) == pytest.approx(0.36, abs=0.005)
        assert float(result["p_plus"]) == pytest.approx(0.32, abs=0.005)
        assert float(result["n_f1_cm3"]) == pytest.approx(1.2e11, rel=0.01)
        assert "  stop reason  = step" in proc.stdout.splitlines()
        assert "stop" not in out.read_text()

    def test_deterministic_result_file(self, tmp_path, synth_csv):
        # the second file is written over a longer stale one
        (tmp_path / "f2.txt").write_text("stale = 1\n" * 500)
        outs = []
        for name in ("f1.txt", "f2.txt"):
            out = tmp_path / name
            proc = run_cli(["fit", str(synth_csv), "--out", str(out)], tmp_path)
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_file_errors(self, tmp_path):
        proc = run_cli(["fit", "nope.csv"], tmp_path)
        assert proc.returncode != 0
        assert "not found" in proc.stderr

    @pytest.mark.parametrize("rows", [[], ["0,0.5"]], ids=["header_only", "one_point"])
    def test_too_few_points_reported(self, tmp_path, rows):
        # three weights (P-, P0, P+ times N_F1) need at least three points
        csv = tmp_path / "short.csv"
        csv.write_text("\n".join(["detuning_mhz,transmission", *rows]) + "\n")
        out = tmp_path / "fit.txt"
        proc = run_cli(["fit", str(csv), "--out", str(out)], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: observed spectrum has")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_not_converged_exit_code(self, tmp_path):
        # noiseless data converge in one iteration from the -ln T start; a
        # noisy copy does not
        out = tmp_path / "spec.csv"
        proc = run_cli(["synth", "--out", str(out), "--noise", "0.01"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        cfg = tmp_path / "run.ini"
        cfg.write_text("[fit]\nmax_iterations = 1\n")
        proc = run_cli(["fit", str(tmp_path / "spec_noisy.csv"), "--config", str(cfg)], tmp_path)
        assert proc.returncode == 2
        assert "  stop reason  = iterations" in proc.stdout.splitlines()


class TestPumpDesign:
    def test_polarized_target(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[pump]\nduration = 0.05\n")
        out = tmp_path / "plan.txt"
        out.write_text("stale = 1\n" * 500)
        proc = run_cli(["pump-design", "--target", "1,0,0", "--config", str(cfg),
                        "--out", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        plan = read_kv(out)
        assert list(plan) == ["polarization", "power_mw", "duration_ms", "predicted_p_minus",
                              "predicted_p_zero", "predicted_p_plus", "target_distance"]
        assert plan["polarization"] == "-1"
        assert float(plan["target_distance"]) < 0.02

    def test_unreachable_target_exit_code(self, tmp_path):
        out = tmp_path / "plan.txt"
        proc = run_cli(["pump-design", "--target", "1,0,0", "--out", str(out)], tmp_path)
        assert proc.returncode == 2
        assert "target not reachable" in proc.stderr
        assert float(read_kv(out)["target_distance"]) > 0.02

    @pytest.mark.parametrize("target", ["nan,1,1", "1,inf,0"])
    def test_non_finite_target_rejected(self, tmp_path, target):
        out = tmp_path / "plan.txt"
        proc = run_cli(["pump-design", "--target", target, "--out", str(out)], tmp_path)
        assert proc.returncode == 1
        assert "--target must be three non-negative numbers" in proc.stderr
        assert not out.exists()

    def test_builds_one_level_scheme(self, monkeypatch, capsys):
        # the plan needs the 16-level scheme and the coupling beam; the beam
        # comes from the config, not from a second (13-level) scheme
        import mdsr.cli
        import mdsr.config
        import mdsr.levels

        built = []
        real = mdsr.levels.build_level_scheme

        def counting(*args, **kwargs):
            built.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(mdsr.levels, "build_level_scheme", counting)
        monkeypatch.setattr(mdsr.config, "build_level_scheme", counting)
        monkeypatch.setattr(mdsr.cli, "build_level_scheme", counting)
        code = mdsr.cli.main(["pump-design", "--target", "0.2,0.3,0.5"])
        assert code in (0, 2)
        assert "pump design:" in capsys.readouterr().out
        assert built == [((0.15,), {"include_e1": True})]

    def test_target_required(self, tmp_path):
        proc = run_cli(["pump-design"], tmp_path)
        assert proc.returncode != 0
        assert "the following arguments are required: --target" in proc.stderr


class TestValidate:
    def test_all_checks_pass(self, tmp_path):
        proc = run_cli(["validate"], tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "FAIL" not in proc.stdout
        lines = [l for l in proc.stdout.splitlines() if l.startswith("PASS")]
        assert len(lines) >= 10

    @pytest.mark.parametrize("check", ["check_rate_conservation", "check_pump_dark_states"])
    def test_pump_checks_build_one_level_scheme(self, monkeypatch, check):
        # the checks need the 16-level scheme and the coupling beam; the beam
        # comes from the config, not from a second (13-level) scheme
        import mdsr.config
        import mdsr.levels
        import mdsr.validate

        built = []
        real = mdsr.levels.build_level_scheme

        def counting(*args, **kwargs):
            built.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(mdsr.levels, "build_level_scheme", counting)
        monkeypatch.setattr(mdsr.config, "build_level_scheme", counting)
        monkeypatch.setattr(mdsr.validate, "build_level_scheme", counting)
        assert getattr(mdsr.validate, check)().passed
        assert built == [((0.15,), {"include_e1": True})]


NO_SCIPY_SCRIPT = """
import sys
import numpy as np
from dataclasses import replace
import mdsr
from mdsr.bloch import build_hamiltonian, build_liouvillian, steady_state
from mdsr.config import RunConfig
from mdsr.fitting import FitProblem, fit_populations
from mdsr.levels import Manifold, Sublevel, build_level_scheme
from mdsr.pumping import (PumpConfig, design_pump, evolve_populations, pump_rate_matrix,
                          uniform_g1_state)
from mdsr.spectrum import PopulationDistribution, synth_spectrum
from mdsr.validate import restrict_scheme, run_checks

model = RunConfig().experiment_model()
spectrum = synth_spectrum(model, PopulationDistribution(0.5, 0.3, 0.2),
                          np.linspace(-80.0, 80.0, 161))
assert fit_populations(FitProblem(observed=spectrum, model_template=model)).converged
lam = restrict_scheme(model.scheme, (Sublevel(Manifold.G1, -1), Sublevel(Manifold.G2, -2),
                                     Sublevel(Manifold.E2, -2)))
h = build_hamiltonian(lam, [model.coupling, replace(model.probe, rabi_scale=0.1)])
steady_state(build_liouvillian(h, lam, model.decay), np.diag([1.0, 0.0, 0.0]).astype(complex))
scheme16 = build_level_scheme(0.15, include_e1=True)
rates = pump_rate_matrix(scheme16, PumpConfig(-1, 5.0), model.coupling)
evolve_populations(rates, uniform_g1_state(scheme16), 0.05)
design_pump(np.array([0.2, 0.3, 0.5]), scheme16, model.coupling)
assert all(check.passed for check in run_checks())
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_synth_fit_and_steady_state_load_no_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], cwd=tmp_path,
                          env=cli_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
