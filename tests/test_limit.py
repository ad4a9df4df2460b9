import itertools
import json

import numpy as np
import pytest

import teamfield as tf
from teamfield.counts import MeanField, Prescription, stage_cost
from teamfield.errors import CapacityError, SpecValidationError
from teamfield.limit import (SimplexGrid, default_grid, limit_stage_cost,
                             project_indices, project_to_grid,
                             rollout_inf, solve_mpe_inf)

from conftest import deterministic_two_team, identity_dynamics_spec, minimal_team


def test_flow_literal():
    spec = tf.load_spec(json.dumps(minimal_team(
        p_rows=((0.7, 0.3), (0.7, 0.3)))))
    gamma = Prescription(team_id=0, rows=np.array([[1.0], [1.0]]))
    z = MeanField(per_team=(np.array([0.5, 0.5]),))
    out = tf.flow(z, (gamma,), spec)
    assert np.allclose(out.per_team[0], [0.7, 0.3], atol=1e-15)


def test_flow_is_kernel_mean(reference_spec, reference_sets):
    from teamfield.counts import team_transition_kernel
    z = MeanField(per_team=(np.array([0.5, 0.5]), np.array([1.0, 0.0])))
    gammas = (reference_sets[0].items[2], reference_sets[1].items[1])
    q = tf.flow(z, gammas, reference_spec)
    for k in range(2):
        m = np.rint(z.per_team[k] * 2).astype(int)
        dist = team_transition_kernel(m, z, gammas[k], reference_spec, k)
        mean = sum(p * cv.as_array() for cv, p in zip(dist.support,
                                                      dist.probs))
        assert np.allclose(mean / 2.0, q.per_team[k], atol=1e-12)


def test_limit_stage_cost_identity(reference_spec, reference_sets):
    """Finite count stage cost and limit stage cost are one formula."""
    spec = reference_spec
    worst = 0.0
    for za in [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)]:
        for zb in [(1.0, 0.0), (0.5, 0.5)]:
            z = MeanField(per_team=(np.array(za), np.array(zb)))
            for k in range(2):
                for g in reference_sets[k].items:
                    for t in range(2):
                        a = stage_cost(z, g, spec, k, t)
                        b = limit_stage_cost(z, g, spec, k, t)
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
    snapped, err = project_to_grid(z, grid)
    assert np.allclose(snapped.per_team[0], [0.5, 0.5])
    assert np.allclose(snapped.per_team[1], [1.0, 0.0])
    assert err == pytest.approx(0.1, abs=1e-12)
    idx, err2 = project_indices(z, grid)
    assert err2 == pytest.approx(err)
    assert np.allclose(grid.points[0][idx[0]], [0.5, 0.5])


def test_projection_tie_breaks_to_first(reference_spec):
    grid = SimplexGrid(reference_spec, [2, 2])
    z = MeanField(per_team=(np.array([0.25, 0.75]), np.array([1.0, 0.0])))
    snapped, _ = project_to_grid(z, grid)
    # equidistant between (0,1) and (.5,.5): ascending-lex first wins
    assert np.allclose(snapped.per_team[0], [0.0, 1.0])


def test_default_grid_embeds_counts(reference_spec, reference_sets):
    grid = default_grid(reference_spec)
    from teamfield.finite_mpe import JointLattice
    lattice = JointLattice(reference_spec)
    for idx in lattice.indices():
        z = lattice.mean_field(idx)
        _, err = project_indices(z, grid)
        assert err == 0.0


def test_solve_mpe_inf_certifies_stagewise(reference_spec, reference_sets):
    policy, values, log = solve_mpe_inf(reference_spec, reference_sets)
    assert values.values.shape[:2] == (2, 2)
    assert not policy.mixed_points
    # every stored stage equilibrium carries a certified epsilon
    for t in range(policy.horizon):
        for idx in policy.grid.indices():
            assert policy.equilibrium(t, idx).epsilon <= 1e-9
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
                 for idx in np.ndindex(st.shape) if st[idx].kind == "mixed"}
        assert mixed
        assert policy.mixed_points == sorted(mixed)
    assert tf.lift_policy(projected).randomized


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


def test_projected_policy_plays_in_finite_game(reference_spec,
                                               reference_sets):
    policy, _, _ = solve_mpe_inf(reference_spec, reference_sets)
    fpolicy = tf.project_policy_to_lattice(reference_spec, policy)
    totals = tf.evaluate_total_cost(reference_spec, fpolicy)
    assert np.all(np.isfinite(totals))
    cert = tf.verify_mpe(reference_spec, fpolicy, reference_sets)
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
        for idx in lattice.indices():
            z = lattice.mean_field(idx)
            gidx, err = project_indices(z, lpolicy.grid)
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
