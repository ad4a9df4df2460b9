import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import teamfield
from teamfield import cli
from teamfield.cli import main
from teamfield.errors import SpecValidationError
from teamfield.limit import project_indices

from conftest import (DATA, cyclic_pursuit_three_team, deterministic_two_team,
                      identity_dynamics_spec, minimal_team, one_state_two_team, perfbench_gen,
                      write_json)
from oracles import policy_json_oracle

REFERENCE = DATA / "two_team_reference.json"


def _read(path):
    return json.loads(path.read_text())


def test_validate_prints_summary(capsys):
    assert main(["validate", "--spec", str(REFERENCE)]) == 0
    assert "OK: 2 team(s), horizon 2" in capsys.readouterr().out


def test_validate_writes_report(tmp_path):
    assert main(["validate", "--spec", str(REFERENCE),
                 "--out", str(tmp_path)]) == 0
    rep = _read(tmp_path / "validate" / "report.json")
    assert rep["ok"] is True
    assert rep["horizon"] == 2
    assert (tmp_path / "validate" / "manifest.json").exists()
    assert (tmp_path / "validate" / "timing.json").exists()


def test_bad_row_sum_exits_2(tmp_path, capsys):
    doc = minimal_team()
    doc["teams"][0]["transition"]["base"][0][0] = [0.5, 0.4]
    spec = write_json(tmp_path / "bad.json", doc)
    code = main(["validate", "--spec", str(spec), "--out", str(tmp_path)])
    assert code == 2
    err = _read(tmp_path / "validate" / "error.json")
    assert err["error"] == "SpecValidationError"
    assert "transition_base row sum" in err["message"]
    assert "transition_base row sum" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["population", "horizon", "seed"])
@pytest.mark.parametrize("value", [2.5, 2.0, "3", True])
def test_non_integral_counts_exit_2(tmp_path, field, value):
    """A count that is not an integer is refused, not truncated; JSON true
    is not the count 1."""
    doc = minimal_team()
    if field == "population":
        doc["teams"][0]["population"] = value
    else:
        doc[field] = value
    spec = write_json(tmp_path / "bad.json", doc)
    assert main(["validate", "--spec", str(spec), "--out", str(tmp_path)]) == 2
    err = _read(tmp_path / "validate" / "error.json")
    assert err["error"] == "SpecValidationError"
    assert "must be an integer" in err["message"]


def _edit(name, path, value):
    """A data file's document with the entry at ``path`` set to ``value``."""
    doc = json.loads((DATA / name).read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


GAME, STATIC = "two_team_reference.json", "matrix_team_example.json"
MALFORMED = {     # mode, document, words the message names
    "team-not-object": ("validate", (GAME, ["teams", 0], 5), ("team 0", "object")),
    "states-5": ("validate", (GAME, ["teams", 1, "states"], 5), ("team 1", "'states'")),
    "transition-not-object": ("validate", (GAME, ["teams", 0, "transition"], [1, 2]),
                              ("team 0", "'transition'")),
    "cost-not-object": ("validate", (GAME, ["teams", 1, "cost"], "cheap"), ("team 1", "'cost'")),
    "coupling-5": ("validate", (GAME, ["teams", 0, "cost", "coupling"], 5),
                   ("team 0 cost coupling",)),
    "text-base": ("validate", (GAME, ["teams", 0, "transition", "base"], "x"),
                  ("team 0", "transition 'base'")),
    "text-metric": ("validate", (GAME, ["teams", 1, "metric"], [["x", 1], [1, 0]]),
                    ("team 1", "'metric'")),
    "text-initial-law": ("validate", (GAME, ["teams", 0, "initial_law"], ["a", "b"]),
                         ("team 0", "'initial_law'")),
    "player-not-object": ("static-tne", (STATIC, ["players", 1], "column"), ("player 1",)),
    "text-payoff": ("static-tne", (STATIC, ["payoffs", 2], "x"), ("player 2", "payoffs")),
    "ragged-payoff": ("static-tne", (STATIC, ["payoffs", 0], [[[1, 2], [3, 4]], [[5]]]),
                      ("player 0", "payoffs")),
    "team-index-x": ("static-tne", (STATIC, ["teams", 1], ["x"]),
                     ("team 1", "player indices")),
    "actions-text": ("validate", (GAME, ["teams", 0, "actions"], "ab"), ("team 0", "'actions'")),
    "team-index-half": ("static-tne", (STATIC, ["teams", 0], [0.5, 1]),
                        ("team 0", "player indices")),
    "team-index-1.7": ("static-tne", (STATIC, ["teams", 0], [0, 1.7]),
                       ("team 0", "player indices")),
    "team-index-true": ("static-tne", (STATIC, ["teams", 0], [0, True]),
                        ("team 0", "player indices")),
    "states-repeated": ("validate", (GAME, ["teams", 1, "states"], ["L0", "L0"]),
                        ("team 1", "'states'", "'L0'")),
    "actions-repeated": ("validate", (GAME, ["teams", 0, "actions"], ["stay", "stay"]),
                         ("team 0", "'actions'", "'stay'")),
    "actions-repeated-as-text": ("validate", (GAME, ["teams", 0, "actions"], [1, "1"]),
                                 ("team 0", "'actions'", "'1'")),
    "player-actions-repeated": ("static-tne", (STATIC, ["players", 0, "actions"], ["a", "a"]),
                                ("player 0", "'actions'", "'a'")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_documents_exit_2(tmp_path, case):
    """A document of the wrong structure is a parse error naming the team or
    player and the field, not a crash of the reader."""
    mode, (name, path, value), words = MALFORMED[case]
    spec = write_json(tmp_path / name, _edit(name, path, value))
    assert main([mode, "--spec", str(spec), "--out", str(tmp_path)]) == 2
    err = _read(tmp_path / mode / "error.json")
    assert err["error"] == "SpecParseError"
    for word in words:
        assert word in err["message"]


def test_missing_spec_exits_2(tmp_path):
    assert main(["validate", "--spec", str(tmp_path / "nope.json")]) == 2


def test_out_is_required_for_solve(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve-finite", "--spec", str(REFERENCE)])
    assert exc.value.code == 2


@pytest.mark.parametrize("sweep", ["4,4", "2,4,2"])
def test_repeated_sweep_population_exits_2(tmp_path, capsys, sweep):
    """A population listed twice would be solved twice and give two equal
    bound rows; it is refused before any work, naming the population."""
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--spec", str(REFERENCE), "--n-sweep", sweep, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "sweep population %s is listed twice" % sweep.split(",")[0] in capsys.readouterr().err
    assert not (tmp_path / "bound").exists()


def test_capacity_overflow_exits_3(tmp_path):
    doc = minimal_team(population=2 * 10 ** 7)
    spec = write_json(tmp_path / "huge.json", doc)
    code = main(["solve-finite", "--spec", str(spec), "--out", str(tmp_path)])
    assert code == 3
    err = _read(tmp_path / "solve-finite" / "error.json")
    assert err["error"] == "CapacityError"


def _uniform_two_team(states, actions, population, horizon=2):
    """Two teams moving uniformly at random at zero cost."""
    S, A = states, actions
    team = {"states": ["s%d" % i for i in range(S)],
            "actions": ["a%d" % i for i in range(A)],
            "population": population, "initial_law": [1.0 / S] * S,
            "transition": {"base": [[[1.0 / S] * S] * A] * S},
            "cost": {"base": [[[0.0] * A] * S] * horizon}}
    return {"horizon": horizon, "seed": 0, "teams": [team, dict(team)]}


def test_oversized_kernel_store_exits_3_before_solving(tmp_path):
    """S=3, A=3, N=20 passes every lattice cap, but its kernel store needs
    231^2 points x 2 teams x 27 prescriptions x 231 counts x 8 bytes."""
    spec = write_json(tmp_path / "big.json", _uniform_two_team(3, 3, 20))
    t0 = time.monotonic()
    code = main(["solve-finite", "--spec", str(spec), "--out", str(tmp_path)])
    elapsed = time.monotonic() - t0
    assert code == 3
    err = _read(tmp_path / "solve-finite" / "error.json")
    assert err["error"] == "CapacityError"
    assert "%d bytes" % (8 * 231 ** 2 * 2 * 27 * 231) in err["message"]
    assert elapsed < 1.0


@pytest.mark.parametrize("mode, horizon, points", [("solve-infinite", 2, 5 * 5),
                                                    ("solve-finite", 1, 3 * 3)])
def test_oversized_stage_games_exit_3_before_any_stage(tmp_path, monkeypatch, mode, horizon,
                                                       points):
    """One stage's tensors and continuation take 16 K P n_1 n_2 bytes: 4-item
    menus of K=2 teams (S=A=2, N=2) on the default 5 x 5 grid, or on the
    3 x 3 count lattice at horizon 1, which builds no kernel store. Above the
    cap the run exits 3 before it builds a stage tensor; at the cap it runs."""
    from teamfield import stage_game
    spec = write_json(tmp_path / "game.json", _uniform_two_team(2, 2, 2, horizon))
    size = 16 * 2 * points * 4 * 4
    built = []
    stage_tensors = stage_game._stage_tensors
    monkeypatch.setattr(stage_game, "_stage_tensors",
                        lambda *a: built.append(1) or stage_tensors(*a))
    monkeypatch.setattr(stage_game, "MAX_STORE_BYTES", size - 1)
    assert main([mode, "--spec", str(spec), "--out", str(tmp_path / "over")]) == 3
    err = _read(tmp_path / "over" / mode / "error.json")
    assert err["error"] == "CapacityError"
    assert "need %d bytes per stage, cap is %d" % (size, size - 1) in err["message"]
    assert built == []
    monkeypatch.setattr(stage_game, "MAX_STORE_BYTES", size)
    assert main([mode, "--spec", str(spec), "--out", str(tmp_path / "at")]) == 0
    assert len(built) == horizon


@pytest.mark.parametrize("argv", [["solve-finite"], ["compare", "--episodes", "30"]])
def test_exact_run_builds_each_kernel_once(tmp_path, monkeypatch, argv):
    """solve-finite (solve, verify, evaluate) and compare (solve, evaluate)
    share one kernel store: one kernel per joint point and menu item."""
    from teamfield import stage_game
    team, rows = [], {}
    real_mix, real_laws = stage_game._mixture_rows, stage_game._count_laws

    def mixture_rows(spec, k, zf, R):
        team.append(k)
        return real_mix(spec, k, zf, R)

    def count_laws(mix, counts):
        rows[team[-1]] = rows.get(team[-1], 0) + len(counts)
        return real_laws(mix, counts)

    monkeypatch.setattr(stage_game, "_mixture_rows", mixture_rows)
    monkeypatch.setattr(stage_game, "_count_laws", count_laws)
    spec = teamfield.load_spec_file(REFERENCE)
    sets = [teamfield.build_prescription_set(spec, k) for k in range(spec.n_teams)]
    assert main(argv[:1] + ["--spec", str(REFERENCE), "--out", str(tmp_path)] + argv[1:]) == 0
    points = len(teamfield.JointLattice(spec))
    assert [rows.get(k, 0) for k in range(spec.n_teams)] == [points * len(ps) for ps in sets]


def test_pure_only_exits_4(tmp_path):
    spec = write_json(tmp_path / "pennies.json", deterministic_two_team())
    code = main(["solve-finite", "--spec", str(spec), "--out",
                 str(tmp_path / "strict"), "--pure-only"])
    assert code == 4
    err = _read(tmp_path / "strict" / "solve-finite" / "error.json")
    assert "no pure equilibrium at stage 0" in err["message"]
    # the same instance solves once mixed profiles are allowed
    code = main(["solve-finite", "--spec", str(spec),
                 "--out", str(tmp_path / "mixed")])
    assert code == 0
    summary = _read(tmp_path / "mixed" / "solve-finite" / "summary.json")
    assert summary["mixed_points"] > 0
    assert summary["max_gain"] <= 1e-9


def test_unexpected_error_exits_1(tmp_path, monkeypatch, capsys):
    """Any exception outside the spec, capacity and pure-only errors exits 1
    with an error record and no manifest."""
    def boom(args, out, h):
        raise RuntimeError("solver exploded")
    monkeypatch.setitem(cli._RUNNERS, "solve-finite", boom)
    assert main(["solve-finite", "--spec", str(REFERENCE), "--out", str(tmp_path)]) == 1
    assert _read(tmp_path / "solve-finite" / "error.json") == {
        "mode": "solve-finite", "error": "RuntimeError", "message": "solver exploded"}
    assert not (tmp_path / "solve-finite" / "manifest.json").exists()
    assert "error (RuntimeError): solver exploded" in capsys.readouterr().err


def test_solve_finite_artifacts(tmp_path):
    assert main(["solve-finite", "--spec", str(REFERENCE),
                 "--out", str(tmp_path)]) == 0
    base = tmp_path / "solve-finite"
    summary = _read(base / "summary.json")
    assert summary["max_gain"] <= 1e-9
    assert summary["lattice_points"] == 9
    assert len(summary["expected_total_cost"]) == 2
    cert = (base / "certificate.csv").read_text().splitlines()
    assert cert[0].startswith("# spec_sha256=")
    assert cert[1] == "stage,z_id,team,gain"
    assert len(cert) == 2 + 2 * 9 * 2
    policy = _read(base / "policy.json")
    assert len(policy["records"]) == 2 * 9 * 2
    manifest = _read(base / "manifest.json")
    assert manifest["config"]["mode"] == "solve-finite"
    assert "out" not in manifest["config"]
    assert "workers" not in manifest["config"]


@pytest.mark.parametrize("mode, flag, value, message", [
    ("solve-finite", "--grid-g", "0", "grid resolution g >= 1"),
    ("simulate", "--workers", "-2", "the number of workers must be >= 1"),
    ("compare", "--workers", "0", "the number of workers must be >= 1"),
    ("solve-finite", "--episodes", "-5", "the number of episodes must be >= 1"),
    ("solve-finite", "--workers", "-2", "the number of workers must be >= 1"),
    ("bound", "--workers", "0", "the number of workers must be >= 1")],
    ids=["grid-g-0", "simulate-workers--2", "compare-workers-0", "solve-finite-episodes--5",
         "solve-finite-workers--2", "bound-workers-0"])
def test_out_of_range_counts_exit_2(tmp_path, mode, flag, value, message):
    """--grid-g 0 is the invalid grid that build_prescription_set refuses,
    not the pure menus that no flag builds; a worker or episode count
    below 1 is refused, not run serially or written to the manifest, also
    by the modes that run no simulation."""
    code = main([mode, "--spec", str(REFERENCE), "--episodes", "2", "--n-sweep", "2", flag, value,
                 "--out", str(tmp_path)])
    assert code == 2
    err = _read(tmp_path / mode / "error.json")
    assert err["error"] == "SpecValidationError" and message in err["message"]
    assert not (tmp_path / mode / "manifest.json").exists()


@pytest.mark.parametrize("mode", ["solve-infinite", "bound"])
def test_simplex_n_zero_exits_2(tmp_path, mode):
    """--simplex-n 0 is a grid resolution below 1, not the default grid."""
    code = main([mode, "--spec", str(REFERENCE), "--simplex-n", "0", "--n-sweep", "2",
                 "--out", str(tmp_path)])
    assert code == 2
    err = _read(tmp_path / mode / "error.json")
    assert err["error"] == "SpecValidationError"
    assert "grid resolution must be >= 1" in err["message"]
    assert not (tmp_path / mode / "manifest.json").exists()


def test_solve_infinite_artifacts(tmp_path):
    assert main(["solve-infinite", "--spec", str(REFERENCE),
                 "--out", str(tmp_path)]) == 0
    base = tmp_path / "solve-infinite"
    summary = _read(base / "summary.json")
    assert summary["grid_points"] == 25
    assert len(summary["totals"]) == 2
    assert summary["projection"]["max_error"][-1] == 0.0
    traj = (base / "trajectory.csv").read_text().splitlines()
    assert len(traj) == 2 + 3 * 2 * 2


def test_solve_infinite_writes_the_rollout_projection_errors(tmp_path):
    """summary.json holds, per stage, how far the rollout's mean field is
    from the grid point whose record it reads: stage 0 is the initial
    law's own projection error, which the flow-image errors of
    ``projection`` do not cover."""
    assert main(["solve-infinite", "--spec", str(REFERENCE), "--out", str(tmp_path)]) == 0
    summary = _read(tmp_path / "solve-infinite" / "summary.json")
    spec = teamfield.load_spec_file(REFERENCE)
    sets = tuple(teamfield.build_prescription_set(spec, k) for k in range(spec.n_teams))
    policy, _, _ = teamfield.solve_mpe_inf(spec, sets)
    errors = summary["trajectory_projection_errors"]
    assert errors == teamfield.rollout_inf(spec, policy).projection_errors
    assert len(errors) == spec.horizon
    initial = [tm.initial_law for tm in spec.teams]
    assert errors[0] == project_indices(initial, policy.lattice)[1] == pytest.approx(0.1)
    still = write_json(tmp_path / "still.json", identity_dynamics_spec())
    assert main(["solve-infinite", "--spec", str(still), "--out", str(tmp_path / "still")]) == 0
    summary = _read(tmp_path / "still" / "solve-infinite" / "summary.json")
    assert summary["trajectory_projection_errors"] == [0.0, 0.0]


def test_simulate_with_episode_log(tmp_path):
    spec = write_json(tmp_path / "pennies.json", deterministic_two_team())
    assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path),
                 "--episodes", "40", "--keep-episodes"]) == 0
    base = tmp_path / "simulate"
    res = _read(base / "result.json")
    assert res["episodes"] == 40
    assert res["randomized_policy"] is True
    rows = (base / "episodes.csv").read_text().splitlines()
    assert len(rows) == 2 + 40 * 2
    assert _read(base / "manifest.json")["versions"]["teamfield"] == teamfield.__version__


def test_episode_log_keeps_per_index_formatting(tmp_path):
    """episodes.csv holds repr(float(per_episode[e, k])) for every episode
    e and team k, in that order."""
    spec_path = write_json(tmp_path / "pennies.json", deterministic_two_team())
    assert main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path),
                 "--episodes", "40", "--keep-episodes"]) == 0
    spec = teamfield.load_spec_file(spec_path)
    sets = tuple(teamfield.build_prescription_set(spec, k) for k in range(spec.n_teams))
    res = teamfield.estimate_cost(spec, teamfield.lift_policy(teamfield.solve_mpe(spec, sets)[0]),
                                  40, keep_episodes=True)
    per = res.per_episode
    expect = ["%d,%d,%r" % (e, k, float(per[e, k]))
              for e in range(per.shape[0]) for k in range(per.shape[1])]
    assert (tmp_path / "simulate" / "episodes.csv").read_text().splitlines()[2:] == expect


def test_seed_override_changes_results(tmp_path):
    spec = write_json(tmp_path / "pennies.json", deterministic_two_team())
    outs = []
    for name, seed in (("a", "5"), ("b", "5"), ("c", "6")):
        assert main(["simulate", "--spec", str(spec),
                     "--out", str(tmp_path / name),
                     "--episodes", "20", "--seed", seed]) == 0
        outs.append((tmp_path / name / "simulate" / "result.json").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_compare_reruns_are_byte_identical(tmp_path):
    argv = ["compare", "--spec", str(REFERENCE), "--episodes", "30"]
    for name in ("one", "two"):
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
    a, b = tmp_path / "one" / "compare", tmp_path / "two" / "compare"
    names_a = sorted(p.name for p in a.iterdir())
    assert names_a == sorted(p.name for p in b.iterdir())
    for name in names_a:
        if name == "timing.json":
            continue
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    rep = _read(a / "compare.json")
    assert len(rep["teams"]) == 2
    assert {"dp_value", "sim_mean", "sim_stderr", "abs_diff",
            "within_3_stderr"} <= set(rep["teams"][0])


def test_worker_count_leaves_artifacts_unchanged(tmp_path):
    spec = write_json(tmp_path / "pennies.json", deterministic_two_team())
    blobs = []
    for name, workers in (("w1", "1"), ("w2", "2")):
        assert main(["simulate", "--spec", str(spec),
                     "--out", str(tmp_path / name), "--episodes", "16",
                     "--workers", workers]) == 0
        base = tmp_path / name / "simulate"
        blobs.append(((base / "result.json").read_bytes(),
                      (base / "manifest.json").read_bytes()))
    assert blobs[0] == blobs[1]


def test_bound_mode_reports_envelope(tmp_path):
    spec = write_json(tmp_path / "pennies.json", deterministic_two_team())
    assert main(["bound", "--spec", str(spec), "--out", str(tmp_path),
                 "--n-sweep", "2"]) == 0
    base = tmp_path / "bound"
    rep = _read(base / "bound.json")
    assert rep["kappa_kind"] == "empirical-envelope"
    assert rep["rate_fit"]["degenerate"] is True       # deterministic moves
    assert len(rep["sweep"]) == 1
    assert rep["sweep"][0]["N"] == 2
    rate = (base / "rate.csv").read_text().splitlines()
    assert rate[1] == "N,deviation,stderr"
    assert len(rate) == 2 + 6


@pytest.mark.parametrize("game, sweep", [("reference", "2,4"), ("cyclic", "1,2")])
def test_bound_rows_label_the_solver_error(tmp_path, game, sweep):
    """Each bound row carries the limit policy's worst stage epsilon and its
    number of stage games above CERT_TOL: 0 on the reference game, above 0
    where fictitious play stops short. Per team it carries the sup over
    stages and points of the deviation gain, the projected policy's
    certificate."""
    from teamfield.stage_game import CERT_TOL
    doc = json.loads(REFERENCE.read_text()) if game == "reference" else cyclic_pursuit_three_team()
    spec_path = write_json(tmp_path / "game.json", doc)
    assert main(["bound", "--spec", str(spec_path), "--out", str(tmp_path),
                 "--n-sweep", sweep]) == 0
    spec = teamfield.load_spec(doc)
    for row in _read(tmp_path / "bound" / "bound.json")["sweep"]:
        spn = teamfield.with_populations(spec, row["N"])
        sets = tuple(teamfield.build_prescription_set(spn, k) for k in range(spn.n_teams))
        lpolicy = teamfield.solve_mpe_inf(spn, sets)[0]
        fpolicy = teamfield.project_policy_to_lattice(spn, lpolicy)
        gains = teamfield.verify_mpe(spn, fpolicy).gains
        assert row["sup_gain_per_team"] == [gains[:, k].max() for k in range(spn.n_teams)]
        if game == "reference":
            assert row["worst_stage_epsilon"] == 0.0
            assert row["stage_games_above_cert_tol"] == 0
        else:
            assert row["worst_stage_epsilon"] > CERT_TOL
            assert row["stage_games_above_cert_tol"] > 0


def test_bound_on_one_state_teams_exits_0(tmp_path):
    """With one state per team every grid has one point: no pair to take a
    Lipschitz quotient over, so the estimates are 0, not a spec error."""
    spec = write_json(tmp_path / "one.json", one_state_two_team())
    assert main(["bound", "--spec", str(spec), "--out", str(tmp_path),
                 "--n-sweep", "2,4"]) == 0
    rep = _read(tmp_path / "bound" / "bound.json")
    assert [row["N"] for row in rep["sweep"]] == [2, 4]
    for row in rep["sweep"]:
        assert row["lipschitz"] == [[0.0, 0.0], [0.0, 0.0]]
        assert row["max_gain"] <= row["epsilon_bound"]


POLICY_GAMES = {
    "two_team_reference": lambda: json.loads(REFERENCE.read_text()),
    "single_team_small": lambda: json.loads((DATA / "single_team_small.json").read_text()),
    "iid_probe": lambda: json.loads((DATA / "iid_probe.json").read_text()),
    "exact_pure": lambda: perfbench_gen().exact_pure(1),
    "pursuit": lambda: perfbench_gen().pursuit_evasion(1),
    "cyclic": lambda: perfbench_gen().cyclic_pursuit(1),
    "reference_16": lambda: perfbench_gen().reference(1, 16),
    "one_state": one_state_two_team,
}


@pytest.mark.parametrize("game, g", [(game, None) for game in POLICY_GAMES]
                         + [("two_team_reference", 2)])
@pytest.mark.parametrize("mode", ["solve-finite", "solve-infinite"])
def test_policy_json_is_the_json_dumps_of_the_records(tmp_path, game, g, mode):
    """policy.json, written from the solved arrays, is byte for byte what
    json.dumps(sort_keys=True, indent=2) makes of the per-record dicts, on
    the bundled games, the benchmark's inputs (pursuit and cyclic with
    mixed records), gridded menus and one-state teams."""
    spec_path = write_json(tmp_path / "game.json", POLICY_GAMES[game]())
    assert main([mode, "--spec", str(spec_path), "--out", str(tmp_path)]
                + (["--grid-g", str(g)] if g else [])) == 0
    spec = teamfield.load_spec_file(spec_path)
    sets = tuple(teamfield.build_prescription_set(spec, k, g=g) for k in range(spec.n_teams))
    solve = teamfield.solve_mpe if mode == "solve-finite" else teamfield.solve_mpe_inf
    policy, values = solve(spec, sets)[:2]
    expect = policy_json_oracle(policy, values, hashlib.sha256(spec_path.read_bytes()).hexdigest())
    got = (tmp_path / mode / "policy.json").read_text()
    assert ('"weights"' in got) == bool(policy.mixed_points)
    assert got == expect


def test_static_mode_stdout(tmp_path, capsys):
    assert main(["static-tne", "--spec",
                 str(DATA / "matrix_team_example.json")]) == 0
    out = capsys.readouterr().out
    assert "pure Nash equilibria (4):" in out
    assert "team-Nash equilibria (2):" in out
    assert "excluded (B, R, I): team 0 deviates to (T, L, I), 2 -> 6" in out
    assert main(["static-tne", "--spec",
                 str(DATA / "matrix_team_example.json"),
                 "--out", str(tmp_path)]) == 0
    rep = _read(tmp_path / "static-tne" / "report.json")
    assert rep["team_nash"] == [["T", "L", "I"], ["B", "L", "II"]]


def test_module_entry_point_runs_without_runpy_warning():
    """``python -m teamfield.cli`` must not find the module already imported
    by the package, which runpy reports as a RuntimeWarning."""
    src = Path(teamfield.__file__).resolve().parents[1]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "teamfield.cli",
                           "validate", "--spec", str(REFERENCE)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("mode", ["solve-finite", "solve-infinite"])
def test_summary_surfaces_stage_fallbacks(tmp_path, mode):
    import teamfield as tf
    from teamfield.stage_game import CERT_TOL
    doc = cyclic_pursuit_three_team()
    spec_path = write_json(tmp_path / "cyclic.json", doc)
    assert main([mode, "--spec", str(spec_path), "--out", str(tmp_path)]) == 0
    summary = _read(tmp_path / mode / "summary.json")
    assert summary["stage_games_above_cert_tol"] > 0
    assert summary["worst_stage_epsilon"] > CERT_TOL
    if mode == "solve-finite":
        spec = tf.load_spec(doc)
        sets = tuple(tf.build_prescription_set(spec, k) for k in range(spec.n_teams))
        policy, _ = tf.solve_mpe(spec, sets)
        per_stage = [max(eq.epsilon for eq in st.flat) for st in policy.stages]
        assert summary["worst_stage_epsilon"] == max(per_stage)
        assert summary["stage_games_above_cert_tol"] == sum(
            eq.epsilon > CERT_TOL for st in policy.stages for eq in st.flat)
        assert summary["max_gain"] <= sum(per_stage) + 1e-9
    assert main([mode, "--spec", str(REFERENCE), "--out", str(tmp_path / "ref")]) == 0
    reference = _read(tmp_path / "ref" / mode / "summary.json")
    assert reference["stage_games_above_cert_tol"] == 0
    assert reference["worst_stage_epsilon"] <= CERT_TOL
