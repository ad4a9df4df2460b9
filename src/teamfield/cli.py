"""Command line entry point.

Modes: validate, solve-finite, solve-infinite, simulate, compare, bound,
static-tne. Each mode writes its artifacts under <out>/<mode>/ next to
manifest.json (spec hash, result-determining config, seed, versions) and
timing.json. Wall-clock data lives only in timing.json so that reruns
with the same configuration produce byte-identical result files.

Exit codes: 0 on success, else the code that _EXIT_CODES gives the error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .counts import MeanField
from .errors import (CapacityError, NoPureEquilibriumError, SpecParseError,
                     SpecValidationError)
from .finite_mpe import (best_response, evaluate_total_cost,
                         initial_distribution, policy_records, policy_value,
                         solve_mpe, verify_mpe)
from .limit import (SimplexGrid, default_grid, limit_policy_records,
                    project_policy_to_lattice, rollout_inf, solve_mpe_inf)
from .metrics import (estimate_lipschitz, fit_rate, kappa_envelope,
                      theorem4_bound)
from .model import _count, load_spec_file, with_populations
from .simulate import estimate_cost, lift_policy
from .stage_game import CERT_TOL, build_prescription_set
from .static_games import load_static_game_file, static_report

DEFAULT_EPISODES = 10000
DEFAULT_N_SWEEP = (4, 8, 16)
PROBE_POPULATIONS = (2, 4, 8, 16, 32, 64)


def _versions():
    return {"python": "%d.%d.%d" % sys.version_info[:3],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "teamfield": __version__}


def _sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_policy(path: Path, records: str, spec_hash):
    """policy.json as ``_write_json`` would write it, from the encoded
    ``records`` array (``policy_records``, ``limit_policy_records``)."""
    path.write_text('{\n  "records": %s,\n  "spec_sha256": %s\n}\n'
                    % (records, json.dumps(spec_hash)))


def _write_csv(path: Path, header, rows, spec_hash):
    lines = ["# spec_sha256=%s" % spec_hash, ",".join(header)]
    lines.extend(",".join(str(x) for x in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _load_game(args):
    spec = load_spec_file(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=int(args.seed))
    return spec


def _build_sets(spec, args):
    return tuple(build_prescription_set(spec, k, g=args.grid_g)
                 for k in range(spec.n_teams))


def _stage_epsilons(policy) -> dict:
    """Worst certified stage-game epsilon of a solved policy and the number
    of stage solutions above CERT_TOL (fictitious play that stopped short)."""
    eps = np.concatenate([st.epsilon.ravel() for st in policy.stages])
    return {"worst_stage_epsilon": float(eps.max()),
            "stage_games_above_cert_tol": int(np.sum(eps > CERT_TOL))}


def _grid(spec, args):
    if args.simplex_n is not None:
        return SimplexGrid(spec, [args.simplex_n] * spec.n_teams)
    return default_grid(spec)


# ---------------------------------------------------------------------------
# mode runners

def _run_validate(args, out, h):
    spec = _load_game(args)
    report = {
        "spec_sha256": h,
        "ok": True,
        "teams": [{"states": list(tm.state_labels),
                   "actions": list(tm.action_labels),
                   "population": tm.population} for tm in spec.teams],
        "horizon": spec.horizon,
    }
    if out is not None:
        _write_json(out / "report.json", report)
    print("OK: %d team(s), horizon %d" % (spec.n_teams, spec.horizon))
    return spec


def _run_solve_finite(args, out, h):
    spec = _load_game(args)
    policy, values = solve_mpe(spec, _build_sets(spec, args), pure_only=args.pure_only)
    cert = verify_mpe(spec, policy)
    totals = evaluate_total_cost(spec, policy)
    _write_policy(out / "policy.json", policy_records(policy, values), h)
    _write_csv(out / "certificate.csv", ("stage", "z_id", "team", "gain"),
               cert.csv_rows(policy.lattice), h)
    _write_json(out / "summary.json", {
        "spec_sha256": h,
        "max_gain": cert.max_gain,
        "mean_gain": cert.mean_gain,
        "mixed_points": len(policy.mixed_points),
        "lattice_points": int(np.prod(policy.lattice.shape)),
        "expected_total_cost": [float(x) for x in totals],
        **_stage_epsilons(policy),
    })
    print("solved %d lattice points x %d stages; certified max gain %.3e"
          % (np.prod(policy.lattice.shape), spec.horizon, cert.max_gain))
    return spec


def _run_solve_infinite(args, out, h):
    spec = _load_game(args)
    sets = _build_sets(spec, args)
    policy, values, log = solve_mpe_inf(spec, sets, grid=_grid(spec, args),
                                        pure_only=args.pure_only)
    traj = rollout_inf(spec, policy)
    _write_policy(out / "policy.json", limit_policy_records(policy, values), h)
    _write_csv(out / "trajectory.csv",
               ("stage", "team", "state", "mass", "cost_so_far"),
               traj.csv_rows(), h)
    _write_json(out / "summary.json", {
        "spec_sha256": h,
        "grid_points": int(np.prod(policy.lattice.shape)),
        "mixed_points": len(policy.mixed_points),
        "totals": [float(x) for x in traj.totals],
        "projection": log.as_dict(),
        "trajectory_projection_errors": [float(e) for e in traj.projection_errors],
        **_stage_epsilons(policy),
    })
    print("solved %d grid points x %d stages; limit totals %s"
          % (np.prod(policy.lattice.shape), spec.horizon,
             [round(float(x), 6) for x in traj.totals]))
    return spec


def _run_simulate(args, out, h):
    spec = _load_game(args)
    policy, _ = solve_mpe(spec, _build_sets(spec, args), pure_only=args.pure_only)
    res = estimate_cost(spec, lift_policy(policy), episodes=args.episodes,
                        workers=args.workers, keep_episodes=args.keep_episodes)
    _write_json(out / "result.json", {"spec_sha256": h, **res.as_dict()})
    if args.keep_episodes:
        _write_csv(out / "episodes.csv", ("episode", "team", "cost"),
                   res.csv_rows(), h)
    print("simulated %d episodes; mean cost %s"
          % (res.episodes, [round(float(x), 6) for x in res.mean]))
    return spec


def _run_compare(args, out, h):
    spec = _load_game(args)
    policy, _ = solve_mpe(spec, _build_sets(spec, args), pure_only=args.pure_only)
    dp = evaluate_total_cost(spec, policy)
    res = estimate_cost(spec, lift_policy(policy), episodes=args.episodes, workers=args.workers)
    rows = []
    for k in range(spec.n_teams):
        diff = abs(float(dp[k]) - float(res.mean[k]))
        rows.append({
            "team": k,
            "dp_value": float(dp[k]),
            "sim_mean": float(res.mean[k]),
            "sim_stderr": float(res.stderr[k]),
            "abs_diff": diff,
            "within_3_stderr": bool(diff <= 3.0 * float(res.stderr[k]) + 1e-12),
        })
    _write_json(out / "compare.json", {
        "spec_sha256": h,
        "episodes": res.episodes,
        "randomized_policy": res.randomized_policy,
        "teams": rows,
        "all_within_3_stderr": all(r["within_3_stderr"] for r in rows),
    })
    for r in rows:
        print("team %d: dp %.6f  sim %.6f +/- %.6f  (%s)"
              % (r["team"], r["dp_value"], r["sim_mean"], r["sim_stderr"],
                 "ok" if r["within_3_stderr"] else "MISMATCH"))
    return spec


def _probe_mean_field(spec, n_values):
    """A point that lies on every probed count lattice: the uniform law
    when every probed population is divisible by the state count, else a
    point mass on the first state."""
    return MeanField(per_team=tuple(
        np.full(tm.n_states, 1.0 / tm.n_states) if all(n % tm.n_states == 0 for n in n_values)
        else np.eye(tm.n_states)[0] for tm in spec.teams))


def _run_bound(args, out, h):
    spec = _load_game(args)
    sweep = args.n_sweep or list(DEFAULT_N_SWEEP)
    probe_ns = list(PROBE_POPULATIONS)
    probe_z = _probe_mean_field(spec, probe_ns)
    # menus depend on the states and actions only, not on the populations
    sets = _build_sets(spec, args)
    rate = fit_rate(spec, probe_z, [ps.items[0] for ps in sets], probe_ns)
    kappa = np.maximum(rate.kappa_hat, kappa_envelope(
        spec, probe_z, [ps.items for ps in sets], [max(probe_ns)]))
    rows = []
    for n in sweep:
        spn = with_populations(spec, n)
        lpolicy, lvalues, _ = solve_mpe_inf(spn, sets, grid=_grid(spn, args),
                                            pure_only=args.pure_only)
        fpolicy = project_policy_to_lattice(spn, lpolicy)
        V = policy_value(spn, fpolicy)
        init = initial_distribution(spn, fpolicy.lattice)
        gains, sup_gains = [], []
        for k in range(spn.n_teams):
            _, U = best_response(spn, k, fpolicy)
            gains.append(float(np.sum(init * (V[0, k] - U[0]))))
            sup_gains.append(float((V[:, k] - U).max()))
        lips = estimate_lipschitz(lvalues, spn)
        eps = theorem4_bound(kappa, lips, [n] * spn.n_teams)
        rows.append({
            "N": int(n),
            "gain_per_team": gains,
            "max_gain": max(gains),
            "sup_gain_per_team": sup_gains,
            "epsilon_bound": eps,
            "lipschitz": [[float(x) for x in r] for r in lips],
            **_stage_epsilons(lpolicy),
        })
        print("N=%d: max deviation gain %.6e  vs bound %.6e"
              % (n, max(gains), eps))
    _write_json(out / "bound.json", {
        "spec_sha256": h,
        "kappa_hat": [float(x) for x in kappa],
        "kappa_kind": "empirical-envelope",
        "rate_fit": rate.as_dict(),
        "sweep": rows,
    })
    _write_csv(out / "rate.csv", ("N", "deviation", "stderr"),
               rate.csv_rows(), h)
    return spec


def _run_static(args, out, h):
    game = load_static_game_file(args.spec)
    report = static_report(game)
    if out is not None:
        _write_json(out / "report.json", {"spec_sha256": h, **report})
    print("pure Nash equilibria (%d):" % len(report["pure_nash"]))
    for p in report["pure_nash"]:
        print("  (%s)" % ", ".join(p))
    print("team-Nash equilibria (%d):" % len(report["team_nash"]))
    for p in report["team_nash"]:
        print("  (%s)" % ", ".join(p))
    for row in report["nash_excluded_by_team_deviation"]:
        print("  excluded (%s): team %d deviates to (%s), %g -> %g"
              % (", ".join(row["profile"]), row["team"],
                 ", ".join(row["deviation"]),
                 row["team_payoff_before"], row["team_payoff_after"]))
    return None


_RUNNERS = {
    "validate": _run_validate,
    "solve-finite": _run_solve_finite,
    "solve-infinite": _run_solve_infinite,
    "simulate": _run_simulate,
    "compare": _run_compare,
    "bound": _run_bound,
    "static-tne": _run_static,
}
_OUT_OPTIONAL = {"validate", "static-tne"}


def _parse_sweep(text):
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("sweep must be comma-separated integers")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("sweep populations must be >= 1")
    for i, v in enumerate(values):
        if v in values[:i]:
            raise argparse.ArgumentTypeError("sweep population %d is listed twice" % v)
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="teamfield",
        description="Solve, simulate and certify finite-horizon games "
                    "among teams of exchangeable agents.")
    p.add_argument("mode", choices=sorted(_RUNNERS))
    p.add_argument("--spec", required=True, help="game file (JSON)")
    p.add_argument("--out", default=None, help="output directory root")
    p.add_argument("--seed", type=int, default=None,
                   help="override the seed stored in the game file")
    p.add_argument("--episodes", type=int, default=DEFAULT_EPISODES)
    p.add_argument("--grid-g", type=int, default=None,
                   help="prescription grid resolution (default: deterministic "
                        "prescriptions only)")
    p.add_argument("--simplex-n", type=int, default=None,
                   help="mean-field grid resolution (default: 2x population)")
    p.add_argument("--n-sweep", type=_parse_sweep, default=None,
                   help="comma-separated populations for bound mode "
                        "(default 4,8,16)")
    p.add_argument("--pure-only", action="store_true",
                   help="fail (exit 4) instead of falling back to mixed "
                        "stage equilibria")
    p.add_argument("--workers", type=int, default=1,
                   help="process pool size for simulation episodes")
    p.add_argument("--keep-episodes", action="store_true",
                   help="also write per-episode costs as CSV")
    return p


# (exception types, exit code): the first match wins
_EXIT_CODES = (((SpecParseError, SpecValidationError, FileNotFoundError), 2),
               (CapacityError, 3), (NoPureEquilibriumError, 4), (Exception, 1))
# options that change no result file, left out of manifest.json's config; a
# new option that changes no result (a verbosity flag, say) must be added here
_NO_RESULT_OPTIONS = ("spec", "out", "workers")


def _error_record(out, mode, exc):
    record = {"mode": mode, "error": type(exc).__name__, "message": str(exc)}
    if out is not None:
        try:
            _write_json(out / "error.json", record)
        except OSError:
            pass
    print("error (%s): %s" % (type(exc).__name__, exc), file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.out is None and args.mode not in _OUT_OPTIONAL:
        parser.error("mode %s requires --out" % args.mode)
    out = None
    if args.out is not None:
        out = Path(args.out) / args.mode
        out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    t0 = time.monotonic()
    try:
        _count(args.episodes, "the number of episodes")
        _count(args.workers, "the number of workers")
        spec_hash = _sha256_file(args.spec)
        _RUNNERS[args.mode](args, out, spec_hash)
    except Exception as e:                      # noqa: BLE001 - CLI boundary
        _error_record(out, args.mode, e)
        return next(code for kinds, code in _EXIT_CODES if isinstance(e, kinds))
    if out is not None:
        config = {key: v for key, v in vars(args).items()
                  if key not in _NO_RESULT_OPTIONS} | {"spec_sha256": spec_hash}
        canon = json.dumps(config, sort_keys=True)
        _write_json(out / "manifest.json", {
            "config": config,
            "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
            "versions": _versions(),
        })
        _write_json(out / "timing.json", {
            "started_unix": started,
            "wall_seconds": time.monotonic() - t0,
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())
