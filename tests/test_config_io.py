import dataclasses
import os
import re

import numpy as np
import pytest

from mdsr.config import ConfigError, RunConfig, load_config, parse_config
from mdsr.levels import BOHR_MAGNETON_MHZ_PER_G, Manifold, Sublevel
from mdsr.io import (HEADER, SpectrumFormatError, format_float, read_spectrum,
                     write_spectrum, write_text)
from mdsr.spectrum import PopulationDistribution, Spectrum, synth_spectrum

from conftest import make_model


class TestParseConfig:
    def test_empty_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.omega_c == 78.0
        assert cfg.gamma_ab == 2.0
        assert cfg.gamma_ac == 4.0
        assert cfg.b_field == 0.15
        assert cfg.n_f1 == 1.2e11
        assert cfg.path_length == 2.0

    def test_overrides(self):
        cfg = parse_config(
            "[experiment]\nomega_c = 40\nb_field = 0\n"
            "[scan]\nstart = -50\nstop = 50\nstep = 0.5\n"
            "[fit]\ndensity = off\n"
            "[pump]\nduration = 0.05\n"
        )
        assert cfg.omega_c == 40.0
        assert cfg.b_field == 0.0
        assert cfg.scan_step == 0.5
        assert cfg.fit_density is False
        assert cfg.pump_duration == 0.05

    def test_unknown_field_named_in_error(self):
        with pytest.raises(ConfigError, match="experiment.bogus"):
            parse_config("[experiment]\nbogus = 1\n")
        # removed keys: the fit has a single start computed from the data
        with pytest.raises(ConfigError, match="unknown config field fit.init"):
            parse_config("[fit]\ninit = 0.2, 0.3, 0.5\n")
        with pytest.raises(ConfigError, match="unknown config field fit.multistart"):
            parse_config("[fit]\nmultistart = off\n")
        # removed key: the fit's density scale is experiment.n_f1
        with pytest.raises(ConfigError, match="unknown config field fit.init_density"):
            parse_config("[fit]\ninit_density = 1e11\n")
        # removed keys: pump-design chooses polarization and power itself
        with pytest.raises(ConfigError, match="unknown config field pump.polarization"):
            parse_config("[pump]\npolarization = 1\n")
        with pytest.raises(ConfigError, match="unknown config field pump.power"):
            parse_config("[pump]\npower = 13.6\n")
        # removed key: the model is of the D1 line, whose wavelength is fixed
        with pytest.raises(ConfigError, match="unknown config field experiment.wavelength"):
            parse_config("[experiment]\nwavelength = 780\n")
        # removed key: a spectrum is the first-order probe response, whatever the probe's strength
        with pytest.raises(ConfigError, match="unknown config field experiment.omega_p"):
            parse_config("[experiment]\nomega_p = 1\n")
        # removed key: the fit's iteration cap is fitting.MAX_ITERATIONS
        with pytest.raises(ConfigError, match="unknown config field fit.max_iterations"):
            parse_config("[fit]\nmax_iterations = 5\n")
        # removed key: synth writes to --out
        with pytest.raises(ConfigError, match="unknown config field output.path"):
            parse_config("[output]\npath = s.csv\n")

    def test_bad_value_named_in_error(self):
        with pytest.raises(ConfigError, match="scan.step"):
            parse_config("[scan]\nstep = fast\n")

    def test_out_of_range_named_in_error(self):
        with pytest.raises(ConfigError, match="scan.step"):
            parse_config("[scan]\nstep = -1\n")
        with pytest.raises(ConfigError, match="experiment.n_f1"):
            parse_config("[experiment]\nn_f1 = 1\n")

    @pytest.mark.parametrize("section,key", [
        ("pump", "duration"), ("pump", "beam_diameter"), ("experiment", "path_length"),
        ("experiment", "gamma_ac"), ("scan", "step"),
        ("scan", "stop"), ("experiment", "coupling_detuning"),
    ])
    @pytest.mark.parametrize("raw", ["inf", "nan"])
    def test_non_finite_named_in_error(self, section, key, raw):
        with pytest.raises(ConfigError, match=f"{section}.{key} out of range"):
            parse_config(f"[{section}]\n{key} = {raw}\n")

    def test_malformed_syntax(self):
        with pytest.raises(ConfigError):
            parse_config("not an ini file")

    @pytest.mark.parametrize("text,line", [
        ("omega_c = 60\n", 1),
        ("[experiment]\ngarbage\n", 2),
        ("[scan]\nstep = 1\n[scan]\n", 3),
        ("[scan]\nstep = 1\nstep = 2\n", 3),
    ])
    def test_parse_error_is_one_line_with_its_line_number(self, text, line):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        message = str(info.value)
        assert "\n" not in message and re.search(rf"\bline:? {line}\b", message), message

    def test_scan_grid_endpoints(self):
        grid = parse_config("[scan]\nstart = -80\nstop = 80\nstep = 1\n").scan_grid()
        assert grid[0] == -80.0
        assert grid[-1] == 80.0
        assert len(grid) == 161

    def test_scan_grid_never_passes_stop(self):
        grid = RunConfig(scan_start=0.0, scan_stop=1.0, scan_step=0.35).scan_grid()
        assert np.allclose(grid, [0.0, 0.35, 0.7])
        # a step of span / (n - 1) still gives n points ending at stop
        for n in (161, 162, 977, 3201):
            grid = RunConfig(scan_step=160.0 / (n - 1)).scan_grid()
            assert len(grid) == n
            assert grid[-1] == pytest.approx(80.0, abs=1e-9)

    def test_coupling_field_is_the_model_coupling(self):
        cfg = parse_config("[experiment]\nomega_c = 40\ncoupling_detuning = 3\n")
        assert cfg.coupling_field() == cfg.experiment_model().coupling

    def test_experiment_model_roundtrip(self):
        model = parse_config("").experiment_model()
        assert model.coupling.rabi_scale == 78.0
        # a_+1 has g_F = -1/2, so B = 0.15 G shifts it by -mu_B * 0.15 G / 2
        shift = model.scheme.zeeman[Sublevel(Manifold.G1, 1)]
        assert shift == pytest.approx(-0.5 * BOHR_MAGNETON_MHZ_PER_G * 0.15, rel=1e-12)
        assert model.decay.gamma_excited == pytest.approx(4.0)

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[experiment]\nomega_c = 60  # inline comment\n")
        assert load_config(path).omega_c == 60.0

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = b"[experiment]\nomega_c = 60\nb_field = 0\n[scan]\nstep = 0.25\n"
        plain, bom = tmp_path / "run.ini", tmp_path / "bom.ini"
        plain.write_bytes(text)
        bom.write_bytes(b"\xef\xbb\xbf" + text)
        assert load_config(bom) == load_config(plain) != RunConfig()

    def test_direct_construction_validates(self):
        with pytest.raises(ConfigError):
            RunConfig(gamma_ab=5.0, gamma_ac=4.0)

    def test_frozen(self):
        # a config that passed validate() cannot be changed after the check
        cfg = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.gamma_ab = 5.0
        assert cfg.gamma_ab == 2.0

    def test_every_key_sets_its_field(self):
        cfg = parse_config(
            "[experiment]\nomega_c = 70\ncoupling_detuning = 1\n"
            "gamma_ab = 1\ngamma_ac = 5\nb_field = 0.3\nn_f1 = 2e11\npath_length = 3\n"
            "[scan]\nstart = -40\nstop = 40\nstep = 0.5\n"
            "[fit]\ndensity = no\n"
            "[pump]\nbeam_diameter = 3\nduration = 0.01\n"
        )
        assert dataclasses.asdict(cfg) == dict(
            omega_c=70.0, coupling_detuning=1.0, gamma_ab=1.0, gamma_ac=5.0,
            b_field=0.3, n_f1=2e11, path_length=3.0, scan_start=-40.0, scan_stop=40.0,
            scan_step=0.5, fit_density=False,
            pump_beam_diameter=3.0, pump_duration=0.01,
        )
        assert type(cfg.fit_density) is bool and type(cfg.scan_step) is float

    @pytest.mark.parametrize("raw", ["60%", "60%%", "%(omega_p)s"])
    def test_values_are_literal(self, raw):
        # no % interpolation: the value is the text after "=", so these do not parse
        with pytest.raises(ConfigError, match=f"cannot parse value for experiment.omega_c: "):
            parse_config(f"[experiment]\nomega_c = {raw}\n")

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nomega_c = 60\n",
        "[DEFAULT]\nomega_c = 60\n[experiment]\nb_field = 0\n",
        "[experiment]\nb_field = 0\n[DEFAULT]\nomega_c = 60\n",
    ])
    def test_default_section_is_unknown(self, text):
        # not a section of defaults that is ignored or leaks into the others
        with pytest.raises(ConfigError, match=r"^unknown config field DEFAULT\.omega_c$"):
            parse_config(text)


class TestSpectrumIO:
    def test_round_trip_bit_exact(self, tmp_path, grid161):
        s = synth_spectrum(make_model(), PopulationDistribution(0.32, 0.36, 0.32), grid161)
        path = tmp_path / "s.csv"
        write_spectrum(s, path)
        back = read_spectrum(path)
        assert np.array_equal(back.detunings, s.detunings)
        assert np.array_equal(back.transmission, s.transmission)

    def test_write_is_deterministic(self, tmp_path, grid161):
        s = synth_spectrum(make_model(), PopulationDistribution(0.32, 0.36, 0.32), grid161)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_spectrum(s, p1)
        write_spectrum(s, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_only_file_is_empty_spectrum(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("detuning_mhz,transmission\n")
        assert len(read_spectrum(path)) == 0

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n")
        with pytest.raises(SpectrumFormatError, match="header"):
            read_spectrum(path)

    def test_row_number_in_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("detuning_mhz,transmission\n0,0.5\n1,oops\n")
        with pytest.raises(SpectrumFormatError, match="row 3"):
            read_spectrum(path)
        path.write_text("detuning_mhz,transmission\n0,0.5\n1,0.5,9\n")
        with pytest.raises(SpectrumFormatError, match="row 3"):
            read_spectrum(path)
        path.write_text("detuning_mhz,transmission\n0,1.5\n")
        with pytest.raises(SpectrumFormatError, match="row 2"):
            read_spectrum(path)
        # a NaN detuning is named as not finite, not as out of order
        path.write_text("detuning_mhz,transmission\n0,0.5\nnan,0.5\n2,0.5\n")
        with pytest.raises(SpectrumFormatError, match=r"^row 3: detuning nan is not finite$"):
            read_spectrum(path)
        # an out-of-order detuning is named by its row, blank lines counted
        path.write_text("detuning_mhz,transmission\n0,0.5\n1,0.5\n\n1,0.5\n")
        with pytest.raises(SpectrumFormatError, match=r"^row 5: "):
            read_spectrum(path)

    def test_non_monotonic_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("detuning_mhz,transmission\n1,0.5\n0,0.5\n")
        with pytest.raises(SpectrumFormatError, match="increasing"):
            read_spectrum(path)

    def test_non_finite_detuning_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("detuning_mhz,transmission\n0,0.5\ninf,0.5\n")
        with pytest.raises(ValueError, match="finite"):
            read_spectrum(path)

    def test_byte_order_mark_is_dropped(self, tmp_path, grid161):
        s = synth_spectrum(make_model(), PopulationDistribution(0.32, 0.36, 0.32), grid161)
        plain, bom = tmp_path / "s.csv", tmp_path / "bom.csv"
        write_spectrum(s, plain)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = read_spectrum(plain), read_spectrum(bom)
        assert np.array_equal(a.detunings, b.detunings)
        assert np.array_equal(a.transmission, b.transmission)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("detuning_mhz,transmission\n0,0.5\n\n1,0.6\n")
        assert len(read_spectrum(path)) == 2

    @pytest.mark.parametrize("points", [0, 3201])
    def test_bytes_match_format_float_rows(self, tmp_path, points):
        # the rows are formatted from .tolist() with FLOAT_FORMAT; the bytes
        # must be those of HEADER and format_float lines joined with "\n"
        rng = np.random.default_rng(7)
        det = np.sort(rng.uniform(-80.0, 80.0, points))
        tr = rng.uniform(0.0, 1.0, points)
        tr[:3] = [0.0, 1.0, 5e-324][:points]
        s = Spectrum(det, tr)
        path = tmp_path / "s.csv"
        write_spectrum(s, path)
        lines = [HEADER] + [f"{format_float(d)},{format_float(t)}" for d, t in zip(det, tr)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        back = read_spectrum(path)
        assert np.array_equal(back.transmission, tr)


class TestWriteText:
    def test_shorter_overwrite_leaves_no_stale_tail(self, tmp_path, grid161):
        model = make_model()
        pops = PopulationDistribution(0.32, 0.36, 0.32)
        long_spec = synth_spectrum(model, pops, np.linspace(-80.0, 80.0, 3000))
        short_spec = synth_spectrum(model, pops, grid161[:3])
        path, fresh = tmp_path / "s.csv", tmp_path / "fresh.csv"
        write_spectrum(long_spec, path)
        write_spectrum(short_spec, path)
        write_spectrum(short_spec, fresh)
        assert path.read_bytes() == fresh.read_bytes()
        assert len(read_spectrum(path)) == 3

    def test_creates_missing_file(self, tmp_path):
        path = tmp_path / "new.txt"
        write_text(path, "a = 1\n")
        assert path.read_bytes() == b"a = 1\n"

    @pytest.mark.skipif(os.name != "posix", reason="needs /dev/null, a character device")
    def test_device_is_written_not_truncated(self):
        write_text(os.devnull, "a = 1\n")

    def test_keeps_mode_and_inode(self, tmp_path):
        path = tmp_path / "private.txt"
        path.write_text("x" * 100)
        path.chmod(0o600)
        before = path.stat()
        write_text(path, "é\n")
        after = path.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert path.read_bytes() == "é\n".encode("utf-8")
