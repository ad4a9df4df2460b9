"""Per-layer metrics of one traced pass, computed from its spans.

Every metric is reported on every workload; a layer a workload does not
reach reads 0. ``README.md`` maps each metric to the end-to-end metric it
should move and the workloads where it should and should not move.
"""

from __future__ import annotations

import numpy as np
from teamfield.stage_game import CERT_TOL

TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)


def tail(samples) -> tuple:
    """(median, tail value, tail percentile, sample count).

    The tail is the highest percentile of ``TAIL_LEVELS`` with at least ten
    samples beyond it; with fewer than twenty samples it is the median.
    """
    x = np.asarray(samples, dtype=float)
    n = len(x)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    level = next(p for p in TAIL_LEVELS if n * (1.0 - p / 100.0) >= 10 or p == 50.0)
    return float(np.median(x)), float(np.percentile(x, level)), level, n


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def _values(tab, name) -> np.ndarray:
    return tab.values[tab.ids(name)]


def _max(values) -> float:
    values = values[~np.isnan(values)]
    return float(values.max()) if len(values) else 0.0


def layer_metrics(tab, run_s: float) -> dict:
    """Metric name -> value for one traced pass of wall time ``run_s``."""
    m = {}
    t, c, self_t = tab.total, tab.count, tab.self_total

    m["model.load_s"] = t("model.load_spec_file")
    m["model.flatten_calls"] = c("model.flatten_mean_field")
    m["model.flatten_s"] = t("model.flatten_mean_field")

    kernel = "counts.team_transition_kernel"
    m["counts.kernel_calls"] = c(kernel)
    m["counts.kernel_s"] = t(kernel)
    m["counts.kernel_atoms"] = float(np.nansum(_values(tab, kernel)))
    m["counts.kernel_support_max"] = _max(_values(tab, kernel))
    m["counts.kernel_share"] = _ratio(m["counts.kernel_s"], run_s)

    lookups = c("stage_game.KernelCache.vector")
    builds = len(tab.with_parent(kernel, "stage_game.KernelCache.vector"))
    m["stage_game.kernel_cache_instances"] = c("stage_game.KernelCache.__init__")
    m["stage_game.kernel_cache_lookups"] = lookups
    m["stage_game.kernel_cache_hit_ratio"] = _ratio(lookups - builds, lookups)

    m["stage_game.build_calls"] = c("stage_game.build_stage_game")
    m["stage_game.build_self_s"] = self_t("stage_game.build_stage_game")
    m["stage_game.tensor_entries"] = float(np.nansum(_values(tab, "stage_game.build_stage_game")))

    solve_ids = tab.ids("stage_game.solve_stage")
    fallback = np.concatenate([tab.with_parent(n, "stage_game.solve_stage") for n in
                               ("stage_game.mixed_nash_2team", "stage_game.br_iteration")])
    support_found = _values(tab, "stage_game.mixed_nash_2team") == 1.0
    candidates = len(tab.with_parent("stage_game.certify_epsilon", "stage_game.mixed_nash_2team"))
    fp_eps = _values(tab, "stage_game.br_iteration")
    m["stage_game.pure_games"] = len(solve_ids) - len(np.unique(tab.parent[fallback]))
    m["stage_game.support_enum_games"] = int(support_found.sum())
    m["stage_game.support_enum_s"] = t("stage_game.mixed_nash_2team")
    m["stage_game.support_candidates"] = candidates
    m["stage_game.support_useful_ratio"] = _ratio(support_found.sum(), candidates)
    m["stage_game.fictitious_play_games"] = len(fp_eps)
    m["stage_game.fictitious_play_s"] = t("stage_game.br_iteration")
    m["stage_game.fictitious_play_above_tol"] = int(np.sum(fp_eps > CERT_TOL))
    m["stage_game.worst_epsilon"] = _max(tab.values[solve_ids])
    solve_mpe_s = t("finite_mpe.solve_mpe")
    m["stage_game.mixed_solver_share_of_solve"] = _ratio(
        m["stage_game.support_enum_s"] + m["stage_game.fictitious_play_s"], solve_mpe_s)
    p50, tl, level, n = tail(tab.duration[solve_ids] * 1e3)
    m["stage_game.solve_ms_p50"] = p50
    m["stage_game.solve_ms_tail"] = tl
    m["stage_game.solve_ms_tail_pct"] = level
    m["stage_game.solve_samples"] = n

    m["finite_mpe.solve_self_s"] = self_t("finite_mpe.solve_mpe")
    m["finite_mpe.stage_points"] = len(tab.with_parent("stage_game.solve_stage",
                                                       "finite_mpe.solve_mpe"))
    m["finite_mpe.policy_value_s"] = t("finite_mpe.policy_value")
    m["finite_mpe.best_response_s"] = t("finite_mpe.best_response")
    m["finite_mpe.evaluate_s"] = t("finite_mpe.evaluate_total_cost")
    m["finite_mpe.evaluate_self_s"] = self_t("finite_mpe.evaluate_total_cost")

    m["limit.solve_self_s"] = self_t("limit.solve_mpe_inf")
    m["limit.stage_cost_calls"] = c("limit.limit_stage_cost")
    m["limit.stage_cost_s"] = t("limit.limit_stage_cost")
    m["limit.grid_points"] = float(np.nansum(_values(tab, "limit.default_grid")))
    m["limit.rollout_s"] = t("limit.rollout_inf")
    m["limit.project_policy_s"] = t("limit.project_policy_to_lattice")
    m["limit.projection_max_error"] = _max(_values(tab, "limit.solve_mpe_inf"))

    m["metrics.deviation_calls"] = c("metrics.per_team_deviation")
    m["metrics.fit_rate_s"] = t("metrics.fit_rate")
    m["metrics.kappa_envelope_s"] = t("metrics.kappa_envelope")
    m["metrics.lipschitz_s"] = t("metrics.estimate_lipschitz")

    episodes = tab.ids("simulate.simulate_episode")
    p50, tl, level, n = tail(tab.duration[episodes] * 1e6)
    m["simulate.episodes_per_s"] = _ratio(n, t("simulate.estimate_cost"))
    m["simulate.episode_us_p50"] = p50
    m["simulate.episode_us_tail"] = tl
    m["simulate.episode_us_tail_pct"] = level
    m["simulate.episode_samples"] = n
    m["simulate.agent_steps_per_s"] = _ratio(np.nansum(tab.values[episodes]),
                                             tab.duration[episodes].sum())
    m["simulate.realize_s"] = t("simulate.LiftedPolicy.realize")
    m["simulate.kernel_check_s"] = t("simulate.empirical_kernel_check")
    m["simulate.kernel_check_samples_per_s"] = _ratio(
        np.nansum(_values(tab, "simulate.empirical_kernel_check")), m["simulate.kernel_check_s"])

    m["cli.records_s"] = (t("finite_mpe.policy_records") + t("limit.limit_policy_records")
                          + t("finite_mpe.EquilibriumCertificate.csv_rows"))
    m["cli.write_s"] = t("cli.write_json") + t("cli.write_csv")

    for layer in ("limit", "simulate"):
        names = [n for n in tab.names if n.startswith(layer + ".")]
        m[layer + ".share"] = _ratio(tab.duration[tab.outermost(names)].sum(), run_s)
    top = tab.parent < 0
    m["trace.coverage"] = _ratio(tab.duration[top].sum(), run_s)
    m["trace.spans"] = len(tab)
    return m
