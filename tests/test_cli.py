import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from mdsr.io import read_spectrum, write_spectrum
from mdsr.spectrum import PopulationDistribution, synth_spectrum
from mdsr.validate import ALL_CHECKS, run_checks

from conftest import cli_env, make_model


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

    @pytest.mark.parametrize("pops", ["nan,1,1", "inf,1,1", "1e308,1e308,1e308"])
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

    def test_not_converged_exit_code(self, tmp_path, monkeypatch, capsys):
        # noiseless data converge in one iteration from the -ln T start; a
        # noisy copy does not
        import mdsr.cli
        import mdsr.fitting

        out = tmp_path / "spec.csv"
        assert mdsr.cli.main(["synth", "--out", str(out), "--noise", "0.01"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(mdsr.fitting, "MAX_ITERATIONS", 1)
        assert mdsr.cli.main(["fit", str(tmp_path / "spec_noisy.csv")]) == 2
        assert "  stop reason  = iterations" in capsys.readouterr().out.splitlines()


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

    @pytest.mark.parametrize("target", ["nan,1,1", "1,inf,0", "1e308,1e308,1e308"])
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
        names = [r.name for r in run_checks()]
        lines = proc.stdout.splitlines()
        for name in names:
            assert sum(line.startswith(f"PASS  {name}: ") for line in lines) == 1, name
        assert len(lines) == len(ALL_CHECKS) + 1
        assert lines[-1] == f"{len(ALL_CHECKS)}/{len(ALL_CHECKS)} checks passed"

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

    def test_results_are_bools_and_serialise(self):
        results = run_checks()
        assert all(type(r.passed) is bool for r in results), [r.name for r in results]
        json.dumps([dataclasses.asdict(r) for r in results])

    def test_rate_conservation_reads_the_propagator(self, monkeypatch):
        # evolve_populations renormalizes its output, so only the propagator
        # itself shows a matrix exponential that does not conserve probability
        import mdsr.pumping
        import mdsr.validate

        assert mdsr.validate.check_rate_conservation().passed
        monkeypatch.setattr(mdsr.validate, "expm", lambda a: mdsr.pumping.expm(a) * (1 + 1e-6))
        result = mdsr.validate.check_rate_conservation()
        assert not result.passed, result.detail

    def test_trace_preservation_reads_every_trace_row(self, monkeypatch):
        # the trace row of rho_33 off by 1e-6 in the column of X_05: tr L(X)
        # is then nonzero for every X with X_05 != 0
        import mdsr.bloch
        import mdsr.validate

        def perturbed(h, scheme, decay):
            lmat = mdsr.bloch.build_liouvillian(h, scheme, decay)
            lmat[3 * (scheme.dim + 1), 5] += 1e-6
            return lmat

        monkeypatch.setattr(mdsr.validate, "build_liouvillian", perturbed)
        result = mdsr.validate.check_trace_preservation()
        assert not result.passed
        assert result.detail == "max |tr L(X)| 1.00e-06"


def _write_config(tmp_path, data):
    (tmp_path / "run.ini").write_bytes(data)
    return ["--config", "run.ini"]


def _make_dir(tmp_path, name):
    (tmp_path / name).mkdir()
    return name


# each builds the input files in tmp_path and returns the arguments naming them
BAD_CONFIGS = {
    "percent_value": lambda tmp: _write_config(tmp, b"[experiment]\nomega_c = 60%\n"),
    "default_section": lambda tmp: _write_config(tmp, b"[DEFAULT]\nomega_c = 60\n"),
    "config_is_directory": lambda tmp: ["--config", _make_dir(tmp, "conf.d")],
    "config_not_utf8": lambda tmp: _write_config(tmp, b"[experiment]\nomega_c = 6\xff0\n"),
    # configparser's own messages: the first two span several lines
    "no_section_header": lambda tmp: _write_config(tmp, b"omega_c = 60\n"),
    "unparsable_line": lambda tmp: _write_config(tmp, b"[experiment]\ngarbage\n"),
    "duplicate_section": lambda tmp: _write_config(tmp, b"[scan]\nstep = 1\n[scan]\n"),
    "duplicate_key": lambda tmp: _write_config(tmp, b"[scan]\nstep = 1\nstep = 2\n"),
    # a beam area that underflows to 0; a duration past what expm conserves
    "pump_beam_too_small": lambda tmp: _write_config(tmp, b"[pump]\nbeam_diameter = 1e-200\n"),
    "pump_duration_too_long": lambda tmp: _write_config(tmp, b"[pump]\nduration = 1e16\n"),
}
BAD_OUTS = {
    "out_in_missing_directory": lambda tmp: ["--out", "missing/result.txt"],
    "out_is_directory": lambda tmp: ["--out", _make_dir(tmp, "out.d")],
}
COMMANDS = {
    "synth": ["synth"],
    "fit": ["fit", "spec.csv"],
    "pump-design": ["pump-design", "--target", "0.2,0.3,0.5"],
}
EDGE_CASES = [
    pytest.param(command, bad, id=f"{name}-{bad_name}")
    for name, command in COMMANDS.items()
    for bad_name, bad in {**BAD_CONFIGS, **BAD_OUTS}.items()
] + [pytest.param([], lambda tmp: ["fit", _make_dir(tmp, "spec.d")],
                  id="fit-spectrum_is_directory")]


@pytest.mark.parametrize("command,bad", EDGE_CASES)
def test_bad_path_or_config_is_one_error_line(tmp_path, command, bad):
    # unreadable, unwritable or invalid inputs end in one "error:" line and
    # exit 1, with no traceback and no file written
    write_spectrum(synth_spectrum(make_model(), PopulationDistribution(0.32, 0.36, 0.32),
                                  np.linspace(-80.0, 80.0, 161)), tmp_path / "spec.csv")
    args = command + bad(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    proc = run_cli(args, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("bad", ["no_section_header", "unparsable_line"])
def test_parse_error_names_the_config(tmp_path, monkeypatch, capsys, bad):
    # configparser's message names the file read, not its "<string>" placeholder
    import mdsr.cli

    monkeypatch.chdir(tmp_path)
    assert mdsr.cli.main(["synth"] + BAD_CONFIGS[bad](tmp_path)) == 1
    err = capsys.readouterr().err
    assert "run.ini" in err and "<string>" not in err, err


def _fit_inputs(tmp_path):
    write_spectrum(synth_spectrum(make_model(), PopulationDistribution(0.32, 0.36, 0.32),
                                  np.linspace(-80.0, 80.0, 161)), tmp_path / "spec.csv")
    (tmp_path / "run.ini").write_text("[experiment]\nomega_c = 78\n")


@pytest.mark.parametrize("bad", ["run.ini", "spec.csv"])
def test_undecodable_input_is_named(tmp_path, monkeypatch, capsys, bad):
    # of the config and the spectrum, the one error line names the file that is not UTF-8
    import mdsr.cli

    _fit_inputs(tmp_path)
    (tmp_path / bad).write_bytes(b"detuning_mhz,transmission\n0,0.\xff5\n")
    monkeypatch.chdir(tmp_path)
    assert mdsr.cli.main(["fit", "spec.csv", "--config", "run.ini"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: "), captured.err


@pytest.mark.parametrize("command", [["fit", "spec.csv"],
                                     ["pump-design", "--target", "0.5,0.3,0.2"]],
                         ids=["fit", "pump-design"])
def test_unwritable_out_prints_no_summary(tmp_path, monkeypatch, capsys, command):
    # the --out file is written before the summary, so a script that reads
    # stdout never sees a result that was not written
    import mdsr.cli

    _fit_inputs(tmp_path)
    (tmp_path / "out.d").mkdir()
    monkeypatch.chdir(tmp_path)
    assert mdsr.cli.main(command + ["--out", "out.d"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: "), captured.err


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
