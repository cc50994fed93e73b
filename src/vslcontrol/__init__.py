"""Variable-speed-limit feedback control for the LWR traffic model.

Two explicit feedback laws drive a road's density profile to a uniform set
point by rescaling the fundamental diagram with speed limits: one shapes
the inlet flow freely, the other keeps the inlet unlimited and works
regionally on admissible profiles.  The package certifies the gain
conditions, simulates both closed loops semi-analytically, cross-checks
them against a direct PDE integration, and ships a CSV-emitting CLI.
"""

from .errors import (AssumptionError, CertificationError, ConfigError,
                     ConvergenceError, DomainError, SolverDivergenceError,
                     StateEscapeError, VslControlError)
from .fundamental_diagram import (AssumptionReport, CheckResult, ExponentialDiagram,
                                  speed_limits, validate_assumptions)
from .profile import (DensityProfile, Scenario, bump_profile, polynomial_profile,
                      sampled_profile, uniform_profile)
from .trace import SimulationTrace
from .picard import PicardSettings
from .free_inlet import FreeInletGain
from .fixed_inlet import AdmissibilityResult, ConditionResult, FixedInletGains
from .pde_oracle import OracleSettings, TraceComparison
from .config import RunConfig, load_config, parse_config, preset, serialize_config
from . import config, fixed_inlet, free_inlet, pde_oracle, picard, runner

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityResult", "AssumptionError", "AssumptionReport",
    "CertificationError", "CheckResult", "ConditionResult", "ConfigError",
    "ConvergenceError", "DensityProfile", "DomainError", "ExponentialDiagram",
    "FixedInletGains", "FreeInletGain", "OracleSettings", "PicardSettings",
    "RunConfig", "Scenario", "SimulationTrace", "SolverDivergenceError",
    "StateEscapeError", "TraceComparison", "VslControlError",
    "bump_profile", "config", "fixed_inlet", "free_inlet", "load_config",
    "parse_config", "pde_oracle", "picard", "polynomial_profile", "preset",
    "runner", "sampled_profile", "serialize_config", "speed_limits",
    "uniform_profile", "validate_assumptions",
]
