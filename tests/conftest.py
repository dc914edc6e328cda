import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mdsr
from mdsr.config import ConfigError, RunConfig

REFERENCE_POPS = [
    (0.32, 0.36, 0.32),
    (0.96, 0.02, 0.02),
    (0.01, 0.01, 0.98),
    (0.01, 0.98, 0.01),
]


def make_model(b_field=0.15, n_f1=1.2e11, omega_c=78.0):
    """The reference model of `RunConfig`, with the given overrides."""
    overrides = dict(b_field=b_field, omega_c=omega_c)
    try:
        return RunConfig(n_f1=n_f1, **overrides).experiment_model()
    except ConfigError:
        # densities the config rejects (0, 1 and -1 in these tests) are set
        # on the built model, which checks them itself
        return replace(RunConfig(**overrides).experiment_model(), n_f1=n_f1)


@pytest.fixture(scope="session")
def reference_model():
    return make_model()


@pytest.fixture(scope="session")
def reference_model_b0():
    return make_model(b_field=0.0)


@pytest.fixture(scope="session")
def grid161():
    return np.linspace(-80.0, 80.0, 161)


def cli_env():
    """Environment for a `python -m mdsr.cli` child process.

    The directory holding the `mdsr` package this process imported goes first
    on PYTHONPATH, as an absolute path, ahead of any existing entries. The
    child then runs the same copy of `mdsr` from any working directory,
    whether or not the package is installed.
    """
    env = dict(os.environ)
    package_root = str(Path(mdsr.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env
