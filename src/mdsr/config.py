"""Run configuration: sectioned key = value text, validated, reference default values."""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

import numpy as np

from .bloch import DecayModel, LaserField
from .fitting import DEFAULT_MAX_ITERATIONS
from .levels import Manifold, build_level_scheme
from .pumping import DEFAULT_BEAM_DIAMETER_MM, DEFAULT_PUMP_DURATION_MS
from .spectrum import N_F1_RANGE_CM3, ExperimentModel


MAX_SCAN_POINTS = 1_000_000  # far above any real scan; the survey benchmark uses at most 3201


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    # experiment
    omega_c: float = 78.0        # coupling Rabi scale, MHz
    omega_p: float = 1.0         # probe Rabi scale, MHz
    coupling_detuning: float = 0.0
    gamma_ab: float = 2.0
    gamma_ac: float = 4.0
    b_field: float = 0.15        # G
    n_f1: float = 1.2e11         # cm^-3
    path_length: float = 2.0     # mm
    # scan
    scan_start: float = -80.0
    scan_stop: float = 80.0
    scan_step: float = 1.0
    # fit
    fit_density: bool = True
    fit_max_iterations: int = DEFAULT_MAX_ITERATIONS
    # pump
    pump_beam_diameter: float = DEFAULT_BEAM_DIAMETER_MM  # mm
    pump_duration: float = DEFAULT_PUMP_DURATION_MS  # ms

    def __post_init__(self):
        self.validate()

    def validate(self):
        def check(cond, name, value):
            if not cond:
                raise ConfigError(f"{name} out of range: {value!r}")

        for (section, key), (attr, kind) in _FIELD_MAP.items():
            if kind is float:
                value = getattr(self, attr)
                check(math.isfinite(value), f"{section}.{key}", value)
        check(0 <= self.omega_c <= 500, "experiment.omega_c", self.omega_c)
        check(0 <= self.omega_p <= 500, "experiment.omega_p", self.omega_p)
        lo, hi = N_F1_RANGE_CM3
        check(lo <= self.n_f1 <= hi, "experiment.n_f1", self.n_f1)
        check(0 <= self.b_field <= 10, "experiment.b_field", self.b_field)
        check(self.gamma_ab >= 0, "experiment.gamma_ab", self.gamma_ab)
        check(self.gamma_ac > self.gamma_ab, "experiment.gamma_ac", self.gamma_ac)
        check(self.path_length > 0, "experiment.path_length", self.path_length)
        check(self.scan_step > 0, "scan.step", self.scan_step)
        check(self.scan_start < self.scan_stop, "scan.start", self.scan_start)
        check(self._scan_points() <= MAX_SCAN_POINTS, "scan.step", self.scan_step)
        check(self.fit_max_iterations > 0, "fit.max_iterations", self.fit_max_iterations)
        check(self.pump_beam_diameter > 0, "pump.beam_diameter", self.pump_beam_diameter)
        check(self.pump_duration > 0, "pump.duration", self.pump_duration)

    # --- derived model objects -------------------------------------------

    def coupling_field(self) -> LaserField:
        """The pi coupling beam on F=2 -> F'=2; needs no level scheme."""
        return LaserField(0, self.omega_c, self.coupling_detuning, (Manifold.G2, Manifold.E2))

    def experiment_model(self) -> ExperimentModel:
        scheme = build_level_scheme(self.b_field)
        return ExperimentModel(
            scheme=scheme,
            coupling=self.coupling_field(),
            probe=LaserField(-1, self.omega_p, 0.0, (Manifold.G1, Manifold.E2)),
            decay=DecayModel(self.gamma_ab, self.gamma_ac),
            n_f1=self.n_f1,
            path_length_mm=self.path_length,
        )

    def _scan_points(self) -> float:
        # the last point never passes stop; the slack absorbs rounding in
        # a step that divides the span, such as 160 / (n - 1).  A float, so
        # that a step too small to count (inf points) compares, not raises.
        return np.floor((self.scan_stop - self.scan_start) / self.scan_step + 1e-9) + 1

    def scan_grid(self):
        return self.scan_start + self.scan_step * np.arange(int(self._scan_points()))


_FIELD_MAP = {
    ("experiment", "omega_c"): ("omega_c", float),
    ("experiment", "omega_p"): ("omega_p", float),
    ("experiment", "coupling_detuning"): ("coupling_detuning", float),
    ("experiment", "gamma_ab"): ("gamma_ab", float),
    ("experiment", "gamma_ac"): ("gamma_ac", float),
    ("experiment", "b_field"): ("b_field", float),
    ("experiment", "n_f1"): ("n_f1", float),
    ("experiment", "path_length"): ("path_length", float),
    ("scan", "start"): ("scan_start", float),
    ("scan", "stop"): ("scan_stop", float),
    ("scan", "step"): ("scan_step", float),
    ("fit", "density"): ("fit_density", "bool"),
    ("fit", "max_iterations"): ("fit_max_iterations", int),
    ("pump", "beam_diameter"): ("pump_beam_diameter", float),
    ("pump", "duration"): ("pump_duration", float),
}


def _convert(kind, raw, where):
    try:
        if kind is float:
            return float(raw)
        if kind is int:
            return int(raw)
        if kind == "bool":
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
    except ValueError:
        raise ConfigError(f"cannot parse value for {where}: {raw!r}") from None
    raise AssertionError(kind)


def parse_config(text: str) -> RunConfig:
    """Parse sectioned key = value config text; empty input gives the reference defaults."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None

    values = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            where = f"{section}.{key}"
            if (section, key) not in _FIELD_MAP:
                raise ConfigError(f"unknown config field {where}")
            attr, kind = _FIELD_MAP[(section, key)]
            values[attr] = _convert(kind, raw, where)
    try:
        return RunConfig(**values)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
