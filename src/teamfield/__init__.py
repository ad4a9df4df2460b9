"""Finite-horizon equilibrium solver and simulator for games among teams
of exchangeable agents.

Agents inside a team are interchangeable, so team behavior is fully
described by state counts; the package solves the resulting stage games
over the joint count lattice by backward induction, solves the matching
infinite-population limit on simplex grids, quantifies how well the limit
policy performs at finite sizes, and validates everything against direct
per-agent simulation.
"""

from .errors import (CapacityError, EquilibriumNotFoundError,
                     NoPureEquilibriumError, SpecParseError,
                     SpecValidationError, TeamfieldError)
from .model import (GameSpec, TeamModel, load_spec, load_spec_file,
                    with_populations)
from .counts import MeanField, Prescription, enumerate_counts
from .stage_game import (KernelCache, PrescriptionSet, StageEquilibrium, StageGame,
                         br_iteration, build_prescription_set, mixed_nash_2team)
from .finite_mpe import (EquilibriumCertificate, JointLattice, PolicyTable,
                         ValueTable, best_response, evaluate_total_cost,
                         solve_mpe, verify_mpe)
from .limit import (SimplexGrid, default_grid, flow, project_policy_to_lattice,
                    rollout_inf, solve_mpe_inf)
from .metrics import (RateFit, estimate_lipschitz, fit_rate, kappa_envelope,
                      theorem4_bound, wasserstein)
from .simulate import (KernelCheckReport, LiftedPolicy, SimResult,
                       empirical_kernel_check, estimate_cost, lift_policy)
from .static_games import (StaticGame, load_static_game, pure_nash_static,
                           static_report, team_nash_static)

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "EquilibriumNotFoundError", "NoPureEquilibriumError",
    "SpecParseError", "SpecValidationError", "TeamfieldError",
    "GameSpec", "TeamModel", "load_spec", "load_spec_file", "with_populations",
    "MeanField", "Prescription", "enumerate_counts",
    "KernelCache", "PrescriptionSet", "StageEquilibrium", "StageGame", "br_iteration",
    "build_prescription_set", "mixed_nash_2team",
    "EquilibriumCertificate", "JointLattice", "PolicyTable", "ValueTable",
    "best_response", "evaluate_total_cost", "solve_mpe", "verify_mpe",
    "SimplexGrid", "default_grid", "flow", "project_policy_to_lattice",
    "rollout_inf", "solve_mpe_inf",
    "RateFit", "estimate_lipschitz", "fit_rate", "kappa_envelope", "theorem4_bound",
    "wasserstein",
    "KernelCheckReport", "LiftedPolicy", "SimResult",
    "empirical_kernel_check", "estimate_cost", "lift_policy",
    "StaticGame", "load_static_game", "pure_nash_static", "static_report",
    "team_nash_static",
    "__version__",
]
