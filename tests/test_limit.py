import itertools
import json

import numpy as np
import pytest

import teamfield as tf
from teamfield import limit, model, stage_game
from teamfield.counts import JointLattice, MeanField, Prescription, TeamLattice
from teamfield.errors import CapacityError, SpecValidationError
from teamfield.limit import (SimplexGrid, default_grid, project_indices, rollout_inf,
                             solve_mpe_inf)
from teamfield.stage_game import _cost_table

from conftest import deterministic_two_team, identity_dynamics_spec, kernel_row, minimal_team
from oracles import mean_field, nearest_min, stage_cost, transport_distance_sum


def test_flow_literal():
    spec = tf.load_spec(json.dumps(minimal_team(
        p_rows=((0.7, 0.3), (0.7, 0.3)))))
    gamma = Prescription(rows=np.array([[1.0], [1.0]]))
    z = MeanField(per_team=(np.array([0.5, 0.5]),))
    out = tf.flow(z, (gamma,), spec)
    assert np.allclose(out.per_team[0], [0.7, 0.3], atol=1e-15)


def test_flow_is_kernel_mean(reference_spec, reference_sets):
    z = MeanField(per_team=(np.array([0.5, 0.5]), np.array([1.0, 0.0])))
    gammas = (reference_sets[0].items[2], reference_sets[1].items[1])
    q = tf.flow(z, gammas, reference_spec)
    for k in range(2):
        m = np.rint(z.per_team[k] * 2).astype(int)
        row = kernel_row(reference_spec, k, m, z, gammas[k])
        mean = row @ TeamLattice(2, 2).counts
        assert np.allclose(mean / 2.0, q.per_team[k], atol=1e-12)


def test_mean_field_and_flatten_mean_field_share_the_simplex_tolerance():
    """Both accept and refuse the same vectors, so flow accepts its own
    output: under identity dynamics it returns z, here 5e-10 off the simplex."""
    spec = tf.load_spec(json.dumps(identity_dynamics_spec()))
    tol = model.SIMPLEX_TOL
    for v, ok in (([-5e-10, 1 + 5e-10], True), ([0.5, 0.5 + 0.5 * tol], True),
                  ([-2 * tol, 1 + 2 * tol], False), ([0.5, 0.5 + 2 * tol], False),
                  ([-0.5, 1.5], False)):
        for check in (lambda: MeanField(per_team=(np.array(v),)),
                      lambda: model.flatten_mean_field(spec, (np.array(v),))):
            if ok:
                check()
            else:
                with pytest.raises(SpecValidationError):
                    check()
    gamma = tf.build_prescription_set(spec, 0).items[0]
    z = (np.array([-5e-10, 1 + 5e-10]),)
    np.testing.assert_allclose(tf.flow(z, (gamma,), spec).per_team[0], z[0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("step", [
    lambda spec, z, profile: tf.flow(z, profile, spec),
    lambda spec, z, profile: tf.empirical_kernel_check(spec, z, profile, samples=10),
], ids=["flow", "kernel_check"])
def test_a_profile_is_one_prescription_of_its_team_shape_per_team(step, reference_spec,
                                                                   reference_sets):
    """Raw rows, too few or too many prescriptions and a wrong shape are
    refused, not normalized, dropped or left to numpy."""
    z = MeanField(per_team=(np.array([0.5, 0.5]), np.array([1.0, 0.0])))
    g0, g1 = reference_sets[0].items[0], reference_sets[1].items[1]
    step(reference_spec, z, (g0, g1))
    for profile, message in (
            ((g0,), "profile has 1 prescriptions, spec has 2 teams"),
            ((g0, g1, g1), "profile has 3 prescriptions, spec has 2 teams"),
            ((g0, np.array([[3.0, 0.0], [0.0, -1.0]])), "holds a ndarray, not a Prescription"),
            ((g0.rows, g1), "holds a ndarray, not a Prescription"),
            ((g0, Prescription(rows=np.full((2, 3), 1 / 3))),
             r"prescription shape \(2, 3\) does not match team 1")):
        with pytest.raises(SpecValidationError, match=message):
            step(reference_spec, z, profile)


def test_limit_stage_cost_identity(reference_spec, reference_sets):
    """The limit's cost path (the cost table ``rollout_inf`` pays from)
    equals the one-point stage cost summed from ``oracles.eval_cost``."""
    spec = reference_spec
    worst = 0.0
    for za in [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)]:
        for zb in [(1.0, 0.0), (0.5, 0.5)]:
            z = MeanField(per_team=(np.array(za), np.array(zb)))
            Z = [v[None] for v in z.per_team]
            for k in range(2):
                for t in range(2):
                    limit = _cost_table(spec, k, reference_sets[k], Z, t)[0]
                    for g, b in zip(reference_sets[k].items, limit):
                        a = stage_cost(z, g, spec, k, t)
                        worst = max(worst, abs(a - b))
    assert worst <= 1e-12


def test_simplex_grid_layout(reference_spec):
    grid = SimplexGrid(reference_spec, [2, 4])
    assert grid.shape == (3, 5)
    # ascending lexicographic points
    assert np.array_equal(grid.points[0],
                          np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]))
    for pts in grid.points:
        assert np.allclose(pts.sum(axis=1), 1.0)
    with pytest.raises(SpecValidationError):
        SimplexGrid(reference_spec, [2])
    with pytest.raises(CapacityError):
        SimplexGrid(reference_spec, [10 ** 8, 2])


def test_projection_literals(reference_spec):
    grid = SimplexGrid(reference_spec, [2, 2])
    z = MeanField(per_team=(np.array([0.6, 0.4]), np.array([1.0, 0.0])))
    idx, err = project_indices(z, grid)
    snapped = mean_field(grid, idx)
    assert np.allclose(snapped.per_team[0], [0.5, 0.5])
    assert np.allclose(snapped.per_team[1], [1.0, 0.0])
    assert err == pytest.approx(0.1, abs=1e-12)
    assert np.allclose(grid.points[0][idx[0]], [0.5, 0.5])


def test_projection_tie_breaks_to_first(reference_spec):
    grid = SimplexGrid(reference_spec, [2, 2])
    z = MeanField(per_team=(np.array([0.25, 0.75]), np.array([1.0, 0.0])))
    snapped = mean_field(grid, project_indices(z, grid)[0])
    # equidistant between (0,1) and (.5,.5): ascending-lex first wins
    assert np.allclose(snapped.per_team[0], [0.0, 1.0])


def test_default_grid_embeds_counts(reference_spec, reference_sets):
    grid = default_grid(reference_spec)
    from teamfield.finite_mpe import JointLattice
    lattice = JointLattice(reference_spec)
    for idx in np.ndindex(lattice.shape):
        z = mean_field(lattice, idx)
        _, err = project_indices(z, grid)
        assert err == 0.0


def test_solve_mpe_inf_certifies_stagewise(reference_spec, reference_sets):
    policy, values, log = solve_mpe_inf(reference_spec, reference_sets)
    assert values.values.shape[:2] == (2, 2)
    assert not policy.mixed_points
    # every stored stage equilibrium carries a certified epsilon
    for t in range(policy.horizon):
        for idx in np.ndindex(policy.lattice.shape):
            assert policy.stages[t][idx].epsilon <= 1e-9
    assert log.max_error[-1] == 0.0       # terminal stage projects nothing


def test_mixed_points_list_the_mixed_stage_equilibria():
    """mixed_points of the finite, the limit and the projected policy name
    exactly the (stage, point) pairs whose equilibrium is mixed, in order."""
    spec = tf.load_spec(json.dumps(deterministic_two_team()))
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(2))
    finite, _ = tf.solve_mpe(spec, sets)
    limit_policy, _, _ = solve_mpe_inf(spec, sets)
    projected = tf.project_policy_to_lattice(spec, limit_policy)
    for policy in (finite, limit_policy, projected):
        mixed = {(t, idx) for t, st in enumerate(policy.stages)
                 for idx in np.ndindex(st.shape) if policy.stages[t][idx].mixed}
        assert mixed
        assert policy.mixed_points == sorted(mixed)
    assert tf.lift_policy(projected).randomized


@pytest.mark.parametrize("grid_of", [
    lambda spec: SimplexGrid(spec, [tm.population for tm in spec.teams]), default_grid],
    ids=["resolution_N", "resolution_2N"])
def test_grid_tables_are_refused_where_the_count_lattice_is_read(reference_spec,
                                                                 reference_sets, grid_of):
    """A limit table lists its points in the grid's (ascending) order. The
    readers of count-lattice kernels, laws and ranks refuse it, also on
    the grid at resolution N, whose shape and populations equal the count
    lattice's, instead of reading the mirrored points' records; the
    table projected to the lattice is read."""
    spec, sets = reference_spec, reference_sets
    policy, _, _ = solve_mpe_inf(spec, sets, grid=grid_of(spec))
    for call in (lambda: tf.verify_mpe(spec, policy),
                 lambda: tf.finite_mpe.policy_value(spec, policy),
                 lambda: tf.best_response(spec, 0, policy),
                 lambda: tf.evaluate_total_cost(spec, policy),
                 lambda: tf.lift_policy(policy),
                 lambda: tf.estimate_cost(spec, tf.LiftedPolicy(table=policy), episodes=10)):
        with pytest.raises(SpecValidationError, match="project_policy_to_lattice"):
            call()
    projected = tf.project_policy_to_lattice(spec, policy)
    cert = tf.verify_mpe(spec, projected)
    assert cert.gains.shape[2:] == tf.JointLattice(spec).shape and cert.max_gain >= 0
    tf.estimate_cost(spec, tf.lift_policy(projected), episodes=10)


def test_pure_limit_solve_builds_no_stage_equilibrium(reference_spec, reference_sets,
                                                     monkeypatch):
    """Every stage game of the reference game has a pure equilibrium, and
    the batched pure pass writes those straight into the stage records:
    the limit solve calls no solve_stage, which alone builds a
    StageEquilibrium at a point of a stage."""
    calls = []
    monkeypatch.setattr(stage_game, "solve_stage", lambda game: calls.append(game))
    policy, _, _ = solve_mpe_inf(reference_spec, reference_sets)
    assert policy.mixed_points == [] and calls == []
    assert all(((w == 1.0).sum(axis=1) == 1).all() for w in policy.mixtures(0))


def test_rollout_accumulates(reference_spec, reference_sets):
    policy, _, _ = solve_mpe_inf(reference_spec, reference_sets)
    traj = rollout_inf(reference_spec, policy)
    assert len(traj.mean_fields) == 3
    assert np.allclose(traj.cumulative[-1], traj.totals)
    assert np.allclose(traj.stage_costs.cumsum(axis=0), traj.cumulative)
    for z in traj.mean_fields:
        for v in z.per_team:
            assert abs(v.sum() - 1.0) < 1e-9
    rows = traj.csv_rows()
    assert len(rows) == 3 * 2 * 2          # (T+1) stages x teams x states


def test_identity_dynamics_limit_is_exact():
    spec = tf.load_spec(json.dumps(identity_dynamics_spec(population=4,
                                                          horizon=3,
                                                          cost=0.25)))
    sets = (tf.build_prescription_set(spec, 0),)
    policy, values, _ = solve_mpe_inf(spec, sets)
    traj = rollout_inf(spec, policy)
    assert traj.totals[0] == pytest.approx(0.75, abs=1e-12)
    for z in traj.mean_fields:
        assert np.allclose(z.per_team[0], [0.5, 0.5])
    assert all(e == 0.0 for e in traj.projection_errors)


@pytest.mark.parametrize("doc", [identity_dynamics_spec(), deterministic_two_team()],
                         ids=["identity", "mixed-two-team"])
def test_rollout_totals_equal_the_limit_values(doc):
    """Where the rollout never leaves the grid, its totals are the limit
    values at the initial grid point: the rollout pays the solver's own
    cost table and steps with its flow, also through a mixed stage."""
    spec = tf.load_spec(json.dumps(doc))
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(spec.n_teams))
    policy, values, _ = solve_mpe_inf(spec, sets)
    traj = rollout_inf(spec, policy)
    assert max(traj.projection_errors) <= 1e-15
    idx, _ = project_indices(traj.mean_fields[0], policy.lattice)
    assert np.abs(traj.totals - values.values[(0, slice(None)) + idx]).max() <= 1e-12
    assert policy.mixed_points or spec.n_teams == 1


def test_projected_policy_plays_in_finite_game(reference_spec,
                                               reference_sets):
    policy, _, _ = solve_mpe_inf(reference_spec, reference_sets)
    fpolicy = tf.project_policy_to_lattice(reference_spec, policy)
    totals = tf.evaluate_total_cost(reference_spec, fpolicy)
    assert np.all(np.isfinite(totals))
    cert = tf.verify_mpe(reference_spec, fpolicy)
    # the projected limit policy is near-optimal but not exactly optimal
    # at N=2; its certified gain must at least be a finite nonnegative gap
    assert cert.max_gain >= -1e-12
    assert cert.max_gain < 0.5


def test_limit_values_approach_finite_values(reference_spec, reference_sets,
                                             reference_solution):
    """At matching lattice/grid points the limit DP approximates the
    finite DP, improving with population (coarse sanity, not a theorem)."""
    from teamfield.model import with_populations
    _, values2 = reference_solution
    gaps = []
    for n in (2, 8):
        spn = with_populations(reference_spec, n)
        sets = tuple(tf.build_prescription_set(spn, k) for k in range(2))
        policy, values = tf.solve_mpe(spn, sets)
        lpolicy, lvalues, _ = solve_mpe_inf(spn, sets)
        lattice = policy.lattice
        worst = 0.0
        for idx in np.ndindex(lattice.shape):
            z = mean_field(lattice, idx)
            gidx, err = project_indices(z, lpolicy.lattice)
            assert err == 0.0
            for k in range(2):
                a = values.values[(0, k) + idx]
                b = lvalues.values[(0, k) + gidx]
                worst = max(worst, abs(a - b))
        gaps.append(worst)
    assert gaps[1] <= gaps[0] + 0.05


def test_limit_solver_handles_one_state_team():
    """A team with a single state has a one-point simplex: its projections
    and transport distances are zero, its value is its cheapest action."""
    doc = {"horizon": 2, "teams": [
        {"states": ["only"], "actions": ["a0", "a1"], "population": 2,
         "initial_law": [1.0], "transition": {"base": [[[1.0], [1.0]]]},
         "cost": {"base": [[0.25, 0.5]]}},
        identity_dynamics_spec(population=2)["teams"][0]]}
    spec = tf.load_spec(doc)
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(2))
    policy, values, log = solve_mpe_inf(spec, sets)
    assert max(log.max_error) == 0.0
    assert np.allclose(values.values[:, 0, 0, :], [[0.5], [0.25]])
    assert np.allclose(values.values[:, 1, 0, :], [[2.0], [1.0]])
    assert np.all(tf.estimate_lipschitz(values, spec)[0] == 0.0)


def _one_team(S, scale, row=None):
    """One team of S states under the metric scale * (1 - identity) whose
    one action moves every agent by the law ``row`` (uniform if None)."""
    row = list(np.full(S, 1.0 / S) if row is None else row)
    return tf.load_spec({"horizon": 2, "teams": [{
        "states": ["s%d" % s for s in range(S)], "actions": ["a0"], "population": 1,
        "initial_law": [1.0] + [0.0] * (S - 1),
        "metric": (scale * (np.ones((S, S)) - np.eye(S))).tolist(),
        "transition": {"base": [[row]] * S}, "cost": {"base": [[0.0]] * S}}]})


@pytest.mark.parametrize("S, n, scale", [(1, 3, 1.0), (2, 6, 0.7), (3, 4, 1.0), (5, 3, 2.5),
                                         (7, 2, 0.3), (8, 2, 1.3)])
def test_projection_reads_the_summed_table_at_its_argmin(S, n, scale, monkeypatch):
    """The one-table distance and the distance read at the argmin equal, bitwise,
    the old (rows, grid points, states) table summed on its last axis and
    reduced by argmin and min, below 8 states (from 8 on numpy's axis sum
    is pairwise, so the distances agree within 1e-12 and the index is a
    nearest point within 1e-12); blocks of a few rows change nothing."""
    rng = np.random.default_rng(S)
    grid = SimplexGrid(_one_team(S, scale), [n])
    pts = grid.points[0]
    x = np.concatenate([rng.dirichlet(np.ones(S), size=300), pts,
                        (pts[:-1] + pts[1:]) / 2])       # exact points and midpoints
    idx, dist = limit._nearest(x, 0, grid)
    ref_idx, ref_dist = nearest_min(x, 0, grid)
    if S < 8:
        assert np.array_equal(idx, ref_idx) and dist.tobytes() == ref_dist.tobytes()
    else:
        np.testing.assert_allclose(dist, ref_dist, rtol=0, atol=1e-12)
        table = transport_distance_sum(x[:, None], pts[None], grid.spec.teams[0].state_metric)
        np.testing.assert_allclose(table[np.arange(len(x)), idx], ref_dist, rtol=0, atol=1e-12)
    monkeypatch.setattr(limit, "STORE_BLOCK_ENTRIES", 3 * len(pts) + 1)
    blocked = limit._nearest(x, 0, grid)
    assert np.array_equal(blocked[0], idx) and blocked[1].tobytes() == dist.tobytes()


@pytest.mark.parametrize("row, first", [([0.25, 0.75], [0.0, 1.0]),
                                        ([0.25, 0.25, 0.5], [0.0, 0.5, 0.5])])
def test_a_flow_image_at_a_midpoint_goes_to_the_first_grid_point(row, first):
    """A flow image exactly halfway between grid points (two states) or
    equidistant from two of them (three states) projects to the
    ascending-lex first one, in the solver's projection too."""
    spec = _one_team(len(row), 1.0, row)
    grid = SimplexGrid(spec, [2])
    image = tf.flow(MeanField(per_team=(spec.teams[0].initial_law,)),
                    (Prescription(rows=np.ones((len(row), 1))),), spec)
    assert image.per_team[0].tolist() == row
    idx, err = project_indices(image, grid)
    assert grid.points[0][idx[0]].tolist() == first and err == 0.25
    assert limit._nearest(image.per_team[0][None], 0, grid)[0].tolist() == [idx[0]]


def test_a_solve_reads_point_names_only_to_report_a_missing_pure_equilibrium(
        monkeypatch, reference_spec, reference_sets):
    """Limit and finite solves succeed on lattices whose ``ids`` raise; under
    pure_only the error still names the stage and the point id, the first
    point in C order of the last stage with a mixed equilibrium."""
    spec = tf.load_spec(json.dumps(deterministic_two_team()))
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(2))
    mixed = solve_mpe_inf(spec, sets)[0].mixed_points
    t = max(s for s, _ in mixed)
    grid = default_grid(spec)
    expect = grid.ids[np.ravel_multi_index(min(i for s, i in mixed if s == t), grid.shape)]
    with pytest.raises(tf.NoPureEquilibriumError) as err:
        solve_mpe_inf(spec, sets, grid=default_grid(spec), pure_only=True)
    assert (err.value.stage, err.value.z) == (t, expect)

    def unnamed(self):
        raise AssertionError("a point name was read")

    monkeypatch.setattr(JointLattice, "ids", property(unnamed))
    solve_mpe_inf(reference_spec, reference_sets)
    tf.solve_mpe(reference_spec, reference_sets)
    solve_mpe_inf(spec, sets)
