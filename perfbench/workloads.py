"""The four benchmark workloads, run inside one child process each.

A workload is a fixed list of operations. Each one runs the path a user
takes: ``teamfield.cli.main`` with the argv a user would type (or, where no
CLI mode exists, one library call), then checks that call's outputs. A
pass runs every operation once; the child repeats passes and the parent
reports medians over them.

Timings of single layers come from spans (see ``spans.py``). Timed passes
wrap only the few top-level calls the end-to-end metrics need; traced
passes wrap every public function of every layer.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from pathlib import Path

import numpy as np

import speed
import teamfield
from teamfield import (cli, counts, finite_mpe, limit, metrics, model, simulate,
                       stage_game)
from teamfield.counts import MeanField
from teamfield.stage_game import CERT_TOL, build_prescription_set

GAIN_TOL = 1e-9          # certificate gate for exact (pure or support-enumerated) games
# compare's own flag tests 3 stderr, which a correct simulator misses on
# about 0.5% of seeds; over the many seeds a benchmark is run with that is a
# sure false alarm, so the gate is 4 stderr (about 1 seed in 8000). With
# 5000 episodes the largest bias that passes is 4/sqrt(5000) = 0.057 of the
# cost's standard deviation; report.py also counts 3-stderr misses across
# seeds, so a smaller systematic bias still shows there.
Z_GATE = 4.0
LAYERS = (model, counts, stage_game, finite_mpe, limit, metrics, simulate)
MODULES = (teamfield, cli) + LAYERS


# ---------------------------------------------------------------------------
# what gets wrapped

def _eps_sum(args, kwargs, result):
    """Sum over stages of the worst stage epsilon of a solved policy."""
    policy = result[0]
    return float(sum(max(eq.epsilon for eq in st.flat) for st in policy.stages))


NOTES = {
    "counts.team_transition_kernel": lambda a, k, r: float(len(r)),
    "stage_game.build_stage_game": lambda a, k, r: float(sum(t.size for t in r.tensors)),
    "stage_game.solve_stage": lambda a, k, r: float(r.epsilon),
    "stage_game.mixed_nash_2team": lambda a, k, r: 1.0,
    "stage_game.br_iteration": lambda a, k, r: float(r.epsilon),
    "finite_mpe.solve_mpe": _eps_sum,
    "limit.solve_mpe_inf": lambda a, k, r: float(max(r[2].max_error)),
    "limit.default_grid": lambda a, k, r: float(len(r)),
    "simulate.simulate_episode":
        lambda a, k, r: float(sum(tm.population for tm in a[0].teams) * a[0].horizon),
    "simulate.empirical_kernel_check": lambda a, k, r: float(r.samples),
}

# the certificate work of the bound mode, which it calls one after another
BOUND_CERTIFY = ("metrics.fit_rate", "metrics.kappa_envelope",
                 "limit.project_policy_to_lattice", "finite_mpe.policy_value",
                 "finite_mpe.best_response", "metrics.estimate_lipschitz")
# calls timed in every pass; their names match the traced ones
TIMED = ("finite_mpe.solve_mpe", "finite_mpe.verify_mpe",
         "finite_mpe.evaluate_total_cost", "limit.solve_mpe_inf",
         "simulate.estimate_cost", "simulate.empirical_kernel_check",
         "stage_game.mixed_nash_2team", "stage_game.br_iteration") + BOUND_CERTIFY

METHODS = ((stage_game.KernelCache, "__init__"), (stage_game.KernelCache, "vector"),
           (stage_game.KernelCache, "matrix"), (simulate.LiftedPolicy, "realize"),
           (finite_mpe.EquilibriumCertificate, "csv_rows"))


def _layer_functions():
    for mod in LAYERS:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, obj in sorted(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                yield mod, name, "%s.%s" % (layer, name)


def targets(traced: bool):
    """(owner, attribute, span name, note) for every wrapped callable."""
    out = []
    for mod, attr, name in _layer_functions():
        if traced or name in TIMED:
            out.append((mod, attr, name, NOTES.get(name)))
    if traced:
        for cls, attr in METHODS:
            layer = cls.__module__.rsplit(".", 1)[1]
            out.append((cls, attr, "%s.%s.%s" % (layer, cls.__name__, attr), None))
        out.append((cli, "_write_json", "cli.write_json", None))
        out.append((cli, "_write_csv", "cli.write_csv", None))
    return out


# ---------------------------------------------------------------------------
# operations

class OpResult:
    """Outcome of one operation in one pass: wall time, the spans recorded
    while it ran, failed checks, facts for the report and the digest of
    its deterministic outputs."""

    def __init__(self, name):
        self.name = name
        self.wall = 0.0          # raw seconds
        self.factor = 1.0        # reference seconds per raw second (speed.py)
        self.table = None
        self.errors = []
        self.info = {}
        self.digest = None

    def check(self, ok, message):
        if not ok:
            self.errors.append(message)


def _read_json(path):
    return json.loads(Path(path).read_text())


def digest_dir(path: Path) -> dict:
    """sha256 of every artifact except the wall-clock file."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(path).iterdir())
            if p.is_file() and p.name != "timing.json"}


class Workload:
    """Inputs, set-up and operations of one workload.

    ``operations`` lists ``(name, run, check)``: ``run(res)`` makes the
    call and returns its output directory (or, for a library call, its
    result), ``check(res, out)`` reads that and ``res.table``, the spans of
    the call.
    """

    name = ""
    games = ()            # input file stems, written by the parent

    def __init__(self, workdir: Path, seed: int):
        self.workdir = Path(workdir)
        self.seed = seed
        self.out = self.workdir / "out"

    def spec_path(self, game):
        return self.workdir / ("%s.json" % game)

    def setup(self):
        """Spec load, validation and menu building for every input game."""
        self.specs, self.sets = {}, {}
        for game in self.games:
            spec = model.load_spec_file(self.spec_path(game))
            self.specs[game] = spec
            self.sets[game] = tuple(build_prescription_set(spec, k)
                                    for k in range(spec.n_teams))

    def sizes(self) -> dict:
        out = {}
        for game, spec in self.specs.items():
            lattice = [counts.lattice_size(tm.population, tm.n_states) for tm in spec.teams]
            out[game] = {"teams": spec.n_teams, "horizon": spec.horizon,
                         "populations": [tm.population for tm in spec.teams],
                         "joint_points": math.prod(lattice),
                         "menus": [len(ps) for ps in self.sets[game]]}
        return out

    def run_cli(self, res, game, *argv):
        """Run one CLI mode on ``game``; return its output directory."""
        mode = argv[0]
        rc = cli.main([mode, "--spec", str(self.spec_path(game)),
                       "--out", str(self.out / game), "--workers", "1", *argv[1:]])
        res.check(rc == 0, "%s on %s exited with %d" % (mode, game, rc))
        return self.out / game / mode

    def phases(self, ops) -> dict:
        """solve_s and certify_s of one pass, in reference seconds."""
        return {"solve_s": _calibrated(ops, "finite_mpe.solve_mpe"),
                "certify_s": _calibrated(ops, "finite_mpe.verify_mpe")}


def _calibrated(ops, *names) -> float:
    """Time in the top-level calls ``names``, each rescaled by the
    calibration taken around it."""
    return sum(r.table.calibrated_total(name, speed.REFERENCE_S)
               for r in ops for name in names)


def _check_exact_gain(res, summary):
    res.check(summary["max_gain"] <= GAIN_TOL,
              "max_gain %.3e above %.0e" % (summary["max_gain"], GAIN_TOL))


class ExactPure(Workload):
    """solve-finite on a generated two-team game whose stage games are all
    pure: count-kernel construction dominates."""

    name = "exact-pure"
    games = ("pure",)

    def operations(self):
        def check(res, out):
            summary = _read_json(out / "summary.json")
            _check_exact_gain(res, summary)
            res.check(summary["mixed_points"] == 0,
                      "%d mixed points in a game built to be pure" % summary["mixed_points"])
            res.info = {"max_gain": summary["max_gain"],
                        "mixed_points": summary["mixed_points"]}
        return [("solve-finite:pure", lambda res: self.run_cli(res, "pure", "solve-finite"),
                 check)]


class ExactMixed(Workload):
    """solve-finite on two generated games without pure stage equilibria:
    stage-game solving dominates (support enumeration on the two-team
    game, fictitious play on the three-team game)."""

    name = "exact-mixed"
    games = ("pursuit", "cyclic")

    def operations(self):
        def check_pursuit(res, out):
            summary = _read_json(out / "summary.json")
            found = int(np.sum(res.table.values[res.table.ids("stage_game.mixed_nash_2team")]
                               == 1.0))
            _check_exact_gain(res, summary)
            res.check(found > 0, "no stage game was solved by support enumeration")
            res.info = {"max_gain": summary["max_gain"], "support_enum_games": found}

        def check_cyclic(res, out):
            summary = _read_json(out / "summary.json")
            tab = res.table
            fp_eps = tab.values[tab.ids("stage_game.br_iteration")]
            eps_sum = float(np.nansum(tab.values[tab.ids("finite_mpe.solve_mpe")]))
            res.check(len(fp_eps) > 0, "no stage game was solved by fictitious play")
            res.check(summary["max_gain"] <= eps_sum + GAIN_TOL,
                      "max_gain %.3e above the summed stage epsilons %.3e"
                      % (summary["max_gain"], eps_sum))
            res.info = {"max_gain": summary["max_gain"], "stage_eps_sum": eps_sum,
                        "fictitious_play_games": int(len(fp_eps)),
                        "fictitious_play_above_tol": int(np.sum(fp_eps > CERT_TOL)),
                        "worst_fictitious_play_eps": float(np.max(fp_eps, initial=0.0))}
        return [("solve-finite:pursuit",
                 lambda res: self.run_cli(res, "pursuit", "solve-finite"), check_pursuit),
                ("solve-finite:cyclic",
                 lambda res: self.run_cli(res, "cyclic", "solve-finite"), check_cyclic)]


class LimitBound(Workload):
    """solve-infinite on the reference game at a large population, then the
    bound sweep: the limit solve dominates, no exact lattice solve runs."""

    name = "limit-bound"
    games = ("reference",)
    sweep = "4,8"

    def operations(self):
        def check_solve(res, out):
            summary = _read_json(out / "summary.json")
            grid = math.prod(counts.lattice_size(2 * tm.population, tm.n_states)
                             for tm in self.specs["reference"].teams)
            res.check(summary["grid_points"] == grid,
                      "grid has %d points" % summary["grid_points"])
            res.info = {"grid_points": summary["grid_points"],
                        "projection_max_error": max(summary["projection"]["max_error"])}

        def check_bound(res, out):
            rows = _read_json(out / "bound.json")["sweep"]
            for row in rows:
                res.check(row["max_gain"] <= row["epsilon_bound"],
                          "N=%d: gain %.3e above bound %.3e"
                          % (row["N"], row["max_gain"], row["epsilon_bound"]))
            res.info = {"sweep": [[r["N"], r["max_gain"], r["epsilon_bound"]] for r in rows]}
        return [("solve-infinite:reference",
                 lambda res: self.run_cli(res, "reference", "solve-infinite"), check_solve),
                ("bound:reference",
                 lambda res: self.run_cli(res, "reference", "bound", "--n-sweep", self.sweep),
                 check_bound)]

    def phases(self, ops):
        return {"solve_s": _calibrated(ops, "limit.solve_mpe_inf"),
                "certify_s": _calibrated(ops, *BOUND_CERTIFY)}


class AgentSim(Workload):
    """compare (exact solve, then per-agent Monte Carlo) on the reference
    game, then one empirical kernel check: simulation dominates."""

    name = "agent-sim"
    games = ("reference",)
    episodes = 5000
    samples = 50000

    def operations(self):
        def check_compare(res, out):
            rep = _read_json(out / "compare.json")
            z = [t["abs_diff"] / t["sim_stderr"] for t in rep["teams"]]
            res.check(rep["episodes"] == self.episodes, "episode count differs")
            res.check(max(z) <= Z_GATE, "simulated means %s stderr from the DP values, "
                      "gate %g" % (["%.2f" % x for x in z], Z_GATE))
            res.info = {"abs_diff_over_stderr": z,
                        "all_within_3_stderr": rep["all_within_3_stderr"]}

        def kernel_check(res):
            spec, sets = self.specs["reference"], self.sets["reference"]
            z = MeanField(per_team=tuple(np.full(tm.n_states, 1.0 / tm.n_states)
                                         for tm in spec.teams))
            profile = [ps.items[min(k + 1, len(ps) - 1)] for k, ps in enumerate(sets)]
            return simulate.empirical_kernel_check(spec, z, profile, samples=self.samples,
                                                   master_seed=self.seed)

        def check_kernel(res, rep):
            tv_limit = 0.5 * math.sqrt(rep.support_size / rep.samples)
            res.check(rep.tv_distance <= tv_limit,
                      "kernel TV %.4f above %.4f" % (rep.tv_distance, tv_limit))
            res.info = {"tv_distance": float(rep.tv_distance), "tv_limit": tv_limit,
                        "support_size": rep.support_size}
            res.digest = {"tv_distance": repr(float(rep.tv_distance))}

        return [("compare:reference",
                 lambda res: self.run_cli(res, "reference", "compare", "--seed", str(self.seed),
                                      "--episodes", str(self.episodes)), check_compare),
                ("kernel-check:reference", kernel_check, check_kernel)]

    def sizes(self):
        out = super().sizes()
        out["reference"].update(episodes=self.episodes, kernel_check_samples=self.samples)
        return out

    def phases(self, ops):
        return {"solve_s": _calibrated(ops, "finite_mpe.solve_mpe"),
                "certify_s": _calibrated(ops, "simulate.estimate_cost",
                                         "simulate.empirical_kernel_check")}


WORKLOADS = {w.name: w for w in (ExactPure, ExactMixed, LimitBound, AgentSim)}


def _guarded(run, res):
    """Run one operation; a raised exception becomes a failed check."""
    try:
        return run(res)
    except Exception as exc:                  # noqa: BLE001 - counted as a failed operation
        res.errors.append("%s: %s" % (type(exc).__name__, exc))
        return False


def run_pass(workload, recorder):
    """Run every operation once; return [OpResult].

    An operation fails when its call raises or exits non-zero, or when a
    check on its outputs does not hold. Its wall time leaves out the
    recorder's calibrations."""
    results = []
    for name, run, check in workload.operations():
        res = OpResult(name)
        first, calibrating = len(recorder), recorder.calibration_s
        out, wall, res.factor = speed.measure(lambda: _guarded(run, res))
        res.wall = wall - (recorder.calibration_s - calibrating)
        res.table = recorder.table(first)
        if out is not False and not res.errors:
            try:
                check(res, out)
                if isinstance(out, Path):
                    res.digest = digest_dir(out)
            except Exception as exc:          # noqa: BLE001 - a missing output fails the check
                res.errors.append("check: %s: %s" % (type(exc).__name__, exc))
        results.append(res)
    return results
