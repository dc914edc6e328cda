"""Run configuration: sectioned key = value text, validated, reference default values.

`RunConfig`'s fields are the settable keys: a field `scan_*`, `fit_*` or `pump_*`
is the rest of its name in that section (`scan_step` is `[scan] step`), any
other field an `[experiment]` key of its own name, typed as its default.
Values are literal (no `%` interpolation); there is no `[DEFAULT]` section.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields

import numpy as np

from .bloch import DecayModel, LaserField
from .io import read_text
from .levels import Manifold, build_level_scheme
from .pumping import (DEFAULT_BEAM_DIAMETER_MM, DEFAULT_PUMP_DURATION_MS, MAX_PUMP_DURATION_MS,
                      MIN_BEAM_DIAMETER_MM)
from .spectrum import N_F1_RANGE_CM3, UNIT_PROBE_RABI, ExperimentModel


MAX_SCAN_POINTS = 1_000_000  # far above any real scan; the survey benchmark uses at most 3201


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    # experiment
    omega_c: float = 78.0        # coupling Rabi scale, MHz
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
    # pump
    pump_beam_diameter: float = DEFAULT_BEAM_DIAMETER_MM  # mm
    pump_duration: float = DEFAULT_PUMP_DURATION_MS  # ms

    def __post_init__(self):
        """Reject a non-finite float, then a value out of range: `<key> out of range: <value>`."""
        def check(name, ok):
            if not ok:
                raise ConfigError(f"{_key(name)} out of range: {getattr(self, name)!r}")

        for name, kind in _KEYS.values():
            if kind is float:
                check(name, math.isfinite(getattr(self, name)))
        lo, hi = N_F1_RANGE_CM3
        check("omega_c", 0 <= self.omega_c <= 500)
        check("n_f1", lo <= self.n_f1 <= hi)
        check("b_field", 0 <= self.b_field <= 10)
        check("gamma_ab", self.gamma_ab >= 0)
        check("gamma_ac", self.gamma_ac > self.gamma_ab)
        check("path_length", self.path_length > 0)
        check("scan_step", self.scan_step > 0)
        check("scan_start", self.scan_start < self.scan_stop)
        check("scan_step", self._scan_points() <= MAX_SCAN_POINTS)
        check("pump_beam_diameter", self.pump_beam_diameter >= MIN_BEAM_DIAMETER_MM)
        check("pump_duration", 0 < self.pump_duration <= MAX_PUMP_DURATION_MS)

    # --- derived model objects -------------------------------------------

    def coupling_field(self) -> LaserField:
        """The pi coupling beam on F=2 -> F'=2; needs no level scheme."""
        return LaserField(0, self.omega_c, self.coupling_detuning, (Manifold.G2, Manifold.E2))

    def experiment_model(self) -> ExperimentModel:
        scheme = build_level_scheme(self.b_field)
        return ExperimentModel(
            scheme=scheme,
            coupling=self.coupling_field(),
            probe=LaserField(-1, UNIT_PROBE_RABI, 0.0, (Manifold.G1, Manifold.E2)),
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


def _key(name: str) -> str:
    section, _, key = name.partition("_")
    return f"{section}.{key}" if section in ("scan", "fit", "pump") else f"experiment.{name}"


# "section.key" -> (field name, type of its default)
_KEYS = {_key(f.name): (f.name, type(f.default)) for f in fields(RunConfig)}


def _convert(kind, raw, where):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"cannot parse value for {where}: {raw!r}") from None


def parse_config(text: str, source: str = "<string>") -> RunConfig:
    """Parse sectioned key = value config text; empty input gives the reference defaults.
    A parse error names `source`, as configparser's `read_string` does."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None, default_section="")
    try:
        parser.read_string(text, source)
    except configparser.Error as exc:  # configparser's message spans lines; keep one
        raise ConfigError(f"config parse error: {' '.join(str(exc).split())}") from None

    values = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            where = f"{section}.{key}"
            if where not in _KEYS:
                raise ConfigError(f"unknown config field {where}")
            attr, kind = _KEYS[where]
            values[attr] = _convert(kind, raw, where)
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    return parse_config(read_text(path, ConfigError), str(path))
