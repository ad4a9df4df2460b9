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
from .model import (GameSpec, TeamModel, eval_cost, eval_transition,
                    load_spec, load_spec_file, with_populations)
from .counts import (CountDistribution, CountVector, JointCount, MeanField,
                     Prescription, action_count_dist, enumerate_counts,
                     joint_transition_kernel, marginalize_counts,
                     nextstate_count_dist, sample_next_counts, stage_cost,
                     team_transition_kernel)
from .stage_game import (KernelCache, PrescriptionSet, StageEquilibrium, StageGame,
                         br_iteration, build_prescription_set,
                         build_stage_game, mixed_nash_2team, pure_nash,
                         select_equilibrium)
from .finite_mpe import (EquilibriumCertificate, JointLattice, PolicyTable,
                         ValueTable, best_response, evaluate_total_cost,
                         solve_mpe, verify_mpe)
from .limit import (LimitPolicyTable, LimitValueTable, SimplexGrid,
                    default_grid, flow, project_policy_to_lattice,
                    project_to_grid, rollout_inf, solve_mpe_inf)
from .metrics import (Lemma1Report, RateFit, estimate_lipschitz,
                      expected_deviation, fit_rate, joint_distance,
                      kappa_envelope, lemma1_check, theorem4_bound,
                      wasserstein)
from .simulate import (KernelCheckReport, LiftedPolicy, SimResult,
                       empirical_kernel_check, estimate_cost, lift_policy,
                       simulate_episode)
from .static_games import (StaticGame, load_static_game, pure_nash_static,
                           static_report, team_nash_static)

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "EquilibriumNotFoundError", "NoPureEquilibriumError",
    "SpecParseError", "SpecValidationError", "TeamfieldError",
    "GameSpec", "TeamModel", "eval_cost", "eval_transition", "load_spec",
    "load_spec_file", "with_populations",
    "CountDistribution", "CountVector", "JointCount", "MeanField",
    "Prescription", "action_count_dist", "enumerate_counts",
    "joint_transition_kernel", "marginalize_counts", "nextstate_count_dist",
    "sample_next_counts", "stage_cost", "team_transition_kernel",
    "KernelCache", "PrescriptionSet", "StageEquilibrium", "StageGame", "br_iteration",
    "build_prescription_set", "build_stage_game", "mixed_nash_2team",
    "pure_nash", "select_equilibrium",
    "EquilibriumCertificate", "JointLattice", "PolicyTable", "ValueTable",
    "best_response", "evaluate_total_cost", "solve_mpe", "verify_mpe",
    "LimitPolicyTable", "LimitValueTable", "SimplexGrid", "default_grid",
    "flow", "project_policy_to_lattice", "project_to_grid", "rollout_inf",
    "solve_mpe_inf",
    "Lemma1Report", "RateFit", "estimate_lipschitz",
    "expected_deviation", "fit_rate", "joint_distance", "kappa_envelope",
    "lemma1_check", "theorem4_bound", "wasserstein",
    "KernelCheckReport", "LiftedPolicy", "SimResult",
    "empirical_kernel_check", "estimate_cost", "lift_policy",
    "simulate_episode",
    "StaticGame", "load_static_game", "pure_nash_static", "static_report",
    "team_nash_static",
    "__version__",
]
