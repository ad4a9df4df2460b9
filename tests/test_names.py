"""Point names of the count lattice and of simplex grids: ``ids`` and
``record_z``, joined once from per-team parts, equal the per-point
formatting in ``tests/oracles.py``, and the artifacts that carry them
(policy.json, certificate.csv, the exit-4 error.json) keep their text."""

import hashlib
import json

import numpy as np
import pytest

import teamfield as tf
from teamfield.cli import main
from teamfield.counts import JointLattice, enumerate_counts
from teamfield.limit import SimplexGrid, default_grid

from conftest import (DATA, cyclic_pursuit_three_team, deterministic_two_team,
                      minimal_team, one_state_two_team, perfbench_gen, write_json)
from oracles import point_id_oracle, policy_json_oracle, record_z_oracle, z_id_oracle

REFERENCE = DATA / "two_team_reference.json"


GAMES = {
    "one_state": one_state_two_team,
    "one_action": lambda: minimal_team(population=3),
    "one_agent": deterministic_two_team,
    "cyclic": cyclic_pursuit_three_team,
    "reference": lambda: json.loads(REFERENCE.read_text()),
    "exact_pure": lambda: perfbench_gen().exact_pure(1),
}


def _lattices(spec):
    yield JointLattice(spec)
    yield default_grid(spec)
    for n in (1, 3):
        yield SimplexGrid(spec, [n] * spec.n_teams)


@pytest.mark.parametrize("game", GAMES)
def test_names_equal_the_per_point_formatting(game):
    spec = tf.load_spec(GAMES[game]())
    for lattice in _lattices(spec):
        idxs = list(np.ndindex(lattice.shape))
        grid = isinstance(lattice, SimplexGrid)
        expect = [(point_id_oracle if grid else z_id_oracle)(lattice, idx) for idx in idxs]
        assert len(expect) == len(lattice)
        assert lattice.ids == expect
        assert lattice.record_z == [
            json.dumps(record_z_oracle(lattice, idx), indent=2).replace("\n", "\n      ")
            for idx in idxs]


@pytest.mark.parametrize("game", GAMES)
def test_simplex_grid_is_the_count_lattice_in_ascending_order(game):
    """Each team's grid points are bitwise the sorted multiples of 1/n the
    grid was built from before it became a JointLattice."""
    spec = tf.load_spec(GAMES[game]())
    for n in (1, 3, 4):
        grid = SimplexGrid(spec, [n] * spec.n_teams)
        assert isinstance(grid, JointLattice)
        assert grid.resolutions == (n,) * spec.n_teams
        for k, tm in enumerate(spec.teams):
            old = np.array(sorted(enumerate_counts(n, tm.n_states)), dtype=float) / n
            assert grid.points[k].tobytes() == old.tobytes()
        assert [z.tobytes() for z in grid.z] == [
            np.stack([grid.points[k][idx[k]] for idx in np.ndindex(grid.shape)]).tobytes()
            for k in range(spec.n_teams)]


@pytest.mark.parametrize("game", ["reference", "cyclic"])
@pytest.mark.parametrize("n", [1, 3])
def test_simplex_n_policy_json_is_the_json_dumps_of_the_records(tmp_path, game, n):
    spec_path = write_json(tmp_path / "game.json", GAMES[game]())
    assert main(["solve-infinite", "--spec", str(spec_path), "--simplex-n", str(n),
                 "--out", str(tmp_path)]) == 0
    spec = tf.load_spec_file(spec_path)
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(spec.n_teams))
    grid = SimplexGrid(spec, [n] * spec.n_teams)
    policy, values, _ = tf.solve_mpe_inf(spec, sets, grid=grid)
    expect = policy_json_oracle(policy, values, hashlib.sha256(spec_path.read_bytes()).hexdigest())
    assert (tmp_path / "solve-infinite" / "policy.json").read_text() == expect
    assert json.loads((tmp_path / "solve-infinite" / "summary.json").read_text())[
        "grid_points"] == (n + 1) ** spec.n_teams


def test_grid_g_certificate_names_every_point(tmp_path):
    """--grid-g 2 changes the menus, not the points: certificate.csv lists
    every (stage, point, team) under the per-point name."""
    assert main(["solve-finite", "--spec", str(REFERENCE), "--grid-g", "2",
                 "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "solve-finite" / "certificate.csv").read_text().splitlines()[2:]
    lattice = JointLattice(tf.load_spec_file(REFERENCE))
    assert [tuple(r.split(",")[:3]) for r in rows] == [
        (str(t), z_id_oracle(lattice, idx), str(k))
        for t in range(2) for idx in np.ndindex(lattice.shape) for k in range(2)]


def test_certificate_csv_keeps_its_text(tmp_path):
    """certificate.csv of the one-agent game: the (stage, z_id, team)
    columns as the per-point writer made them, and each gain the repr of
    the certificate's gain."""
    spec_path = write_json(tmp_path / "pennies.json", deterministic_two_team())
    assert main(["solve-finite", "--spec", str(spec_path), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "solve-finite" / "certificate.csv").read_text().splitlines()
    assert lines[0] == "# spec_sha256=" + hashlib.sha256(spec_path.read_bytes()).hexdigest()
    assert lines[1] == "stage,z_id,team,gain"
    assert [line.rsplit(",", 1)[0] for line in lines[2:]] == [
        "%d,%s,%d" % (t, z, k) for t in (0, 1)
        for z in ("1-0/1-0", "1-0/0-1", "0-1/1-0", "0-1/0-1") for k in (0, 1)]
    spec = tf.load_spec_file(spec_path)
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(spec.n_teams))
    policy, _ = tf.solve_mpe(spec, sets)
    gains = tf.verify_mpe(spec, policy).gains
    assert [line.rsplit(",", 1)[1] for line in lines[2:]] == [
        repr(float(gains[(t, k) + idx])) for t in (0, 1)
        for idx in np.ndindex(policy.lattice.shape) for k in (0, 1)]


@pytest.mark.parametrize("mode, where", [
    ("solve-finite", "stage 0, z=1-0/1-0"),
    ("solve-infinite", "stage 0, z=0:2/2:2|0:2/2:2"),
])
def test_pure_only_error_names_the_point(tmp_path, mode, where):
    spec_path = write_json(tmp_path / "pennies.json", deterministic_two_team())
    assert main([mode, "--spec", str(spec_path), "--pure-only", "--out", str(tmp_path)]) == 4
    err = json.loads((tmp_path / mode / "error.json").read_text())
    assert err == {"error": "NoPureEquilibriumError", "mode": mode,
                   "message": "no pure equilibrium at " + where}
