"""chartprop: evolution operators of driven 2- and 3-level systems.

Propagates chart coordinates (coupled complex Riccati equations plus
real phases) instead of the full matrix Schrodinger flow, rebuilds the
special-unitary evolution operator from them at any sample time, and
ships a direct matrix integrator as an independent cross-check.
"""

from . import three_level, two_level
from .drives import (ConfigError, ConstantDrive, CosineDrive, GaussianDrive,
                     Hamiltonian2, Hamiltonian3, HamiltonianSample3,
                     PiecewiseDrive, RunConfig, SumDrive, config_to_dict,
                     drive_from_spec, parse_config, serialize_config)
from .integrate import (ChartSingularityError, ConvergenceScenario,
                        IntegrationError, IntegrationStats, IntegratorSettings,
                        NonFiniteDerivativeError, StepLimitError, Trajectory,
                        convergence_probe, integrate)
from .matrices import (HermitianTraceless, MatrixInvariantError,
                       UnitaryMatrix, hermitian_expm)
from .reference import (ComparisonReport, OracleTrajectory, compare,
                        exact_constant_unitaries, integrate_schrodinger,
                        schrodinger_residuals, unitarity_errors)

__all__ = [
    "ChartSingularityError", "ComparisonReport", "ConfigError",
    "ConstantDrive", "ConvergenceScenario", "CosineDrive", "GaussianDrive",
    "Hamiltonian2", "Hamiltonian3", "HamiltonianSample3", "HermitianTraceless",
    "IntegrationError", "IntegrationStats", "IntegratorSettings",
    "MatrixInvariantError", "NonFiniteDerivativeError", "OracleTrajectory",
    "PiecewiseDrive", "RunConfig", "StepLimitError", "SumDrive", "Trajectory",
    "UnitaryMatrix", "compare", "config_to_dict", "convergence_probe",
    "drive_from_spec", "exact_constant_unitaries", "hermitian_expm",
    "integrate", "integrate_schrodinger", "parse_config",
    "schrodinger_residuals", "serialize_config", "three_level", "two_level",
    "unitarity_errors",
]
