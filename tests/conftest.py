import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from vslcontrol import ExponentialDiagram, FreeInletGain, Scenario, bump_profile
from vslcontrol import fixed_inlet

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_benchmark_module(name: str):
    """Import benchmarks/<name>.py, whose contracts some tests guard."""
    spec = importlib.util.spec_from_file_location(f"benchmarks_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def grid_extreme(fn, lo: float, hi: float, reduce, n: int = 2_000_001, near: float | None = None,
                 chunk: int = 250_001) -> float:
    """reduce (np.min or np.max) of fn over np.linspace(lo, hi, n), a chunk at a time.

    With near inside [lo, hi], 20,001 more points sample the grid step on
    either side of it: an interior extreme there then lies within rounding
    of a sample, where the plain grid can miss it by its step squared.
    """
    grid = np.linspace(lo, hi, n)
    if near is not None and lo < near < hi:
        step = (hi - lo) / (n - 1)
        grid = np.concatenate((grid, np.linspace(max(lo, near - step), min(hi, near + step),
                                                 20_001)))
    return float(reduce([reduce(fn(grid[s:s + chunk])) for s in range(0, grid.size, chunk)]))


@pytest.fixture(scope="session")
def diagram():
    """The reference diagram: f(rho) = rho * exp(-rho) on [0, 1.6]."""
    return ExponentialDiagram(rho_max=1.6)


@pytest.fixture(scope="session")
def bump400():
    return bump_profile(1.0, 400, 0.7)


@pytest.fixture(scope="session")
def free_gain():
    return FreeInletGain(0.3, 1.0, 0.7)


@pytest.fixture(scope="session")
def fixed_gains(diagram):
    return fixed_inlet.calibrate(diagram, 0.7, 1.0, 0.12, 0.1, mode="override")


@pytest.fixture(scope="session")
def free_scenario(diagram, bump400):
    return Scenario(diagram=diagram, length=1.0, rho_star=0.7, rho0=bump400,
                    horizon=30.0, output_interval=0.75)


@pytest.fixture(scope="session")
def fixed_scenario(diagram, bump400):
    return Scenario(diagram=diagram, length=1.0, rho_star=0.7, rho0=bump400,
                    horizon=60.0, output_interval=1.5)
