import json

import numpy as np
import pytest

import teamfield as tf
from teamfield.counts import MeanField
from teamfield.errors import SpecValidationError
from teamfield.rng import substream
from teamfield.finite_mpe import PolicyTable
from teamfield.simulate import (empirical_kernel_check, estimate_cost, lift_policy,
                                simulate_episode)
from teamfield.stage_game import PrescriptionSet

from conftest import deterministic_two_team, identity_dynamics_spec
from oracles import FunctionPolicy, counts_at


FIXED_ROWS = [np.array([[0.7, 0.3], [0.4, 0.6]]),
              np.array([[0.9, 0.1], [0.2, 0.8]])]


def _fixed_rows(t, M, rng):
    return FIXED_ROWS


def _fixed_policy():
    return FunctionPolicy(fn=_fixed_rows)


def _constant_table_policy(spec, rows=FIXED_ROWS):
    """Lifted table policy playing the fixed per-team ``rows`` at every
    (stage, lattice point): a one-item menu per team, pure index 0."""
    sets = tuple(PrescriptionSet(team_id=k, items=(tf.Prescription(team_id=k, rows=r),))
                 for k, r in enumerate(rows))
    lattice = tf.JointLattice(spec)
    st = np.ones(lattice.shape, dtype=[("mixed", bool), ("epsilon", float)]
                 + [("w%d" % k, float, (1,)) for k in range(spec.n_teams)]).view(np.recarray)
    st.mixed, st.epsilon = False, 0.0
    policy = PolicyTable(stages=[st] * spec.horizon, sets=sets, lattice=lattice)
    assert policy.mixed_points == []
    assert all(np.array_equal(w, np.ones((len(lattice), 1)))
               for t in range(spec.horizon) for w in policy.mixtures(t))
    return lift_policy(policy)


def test_estimate_cost_reproducible(reference_spec):
    pol = _constant_table_policy(reference_spec)
    a = estimate_cost(reference_spec, pol, episodes=20, master_seed=42,
                      keep_episodes=True)
    b = estimate_cost(reference_spec, pol, episodes=20, master_seed=42,
                      keep_episodes=True)
    assert np.array_equal(a.per_episode, b.per_episode)
    assert np.array_equal(a.mean, b.mean)
    c = estimate_cost(reference_spec, pol, episodes=20, master_seed=43)
    assert not np.array_equal(a.mean, c.mean)
    # omitting the seed falls back to the document seed
    d = estimate_cost(reference_spec, pol, episodes=5)
    e = estimate_cost(reference_spec, pol, episodes=5,
                      master_seed=reference_spec.seed)
    assert np.array_equal(d.mean, e.mean)


def test_worker_count_does_not_change_results(reference_spec):
    pol = _constant_table_policy(reference_spec)
    serial = estimate_cost(reference_spec, pol, episodes=12, master_seed=7,
                           keep_episodes=True)
    parallel = estimate_cost(reference_spec, pol, episodes=12, master_seed=7,
                             workers=3, keep_episodes=True)
    assert np.array_equal(serial.per_episode, parallel.per_episode)
    assert np.array_equal(serial.stderr, parallel.stderr)


def test_constant_cost_instance_is_exact():
    spec = tf.load_spec(json.dumps(identity_dynamics_spec(population=3,
                                                          horizon=2,
                                                          cost=1.0)))
    pol = _constant_table_policy(spec, [np.ones((2, 1))])
    res = estimate_cost(spec, pol, episodes=40, master_seed=1,
                        keep_episodes=True)
    assert np.all(res.per_episode == 2.0)
    assert res.mean[0] == 2.0
    assert res.stderr[0] == 0.0
    assert res.as_dict()["episodes"] == 40


def test_episode_trajectory_shape(reference_spec, reference_solution):
    policy, _ = reference_solution
    lifted = lift_policy(policy)
    assert not lifted.randomized
    traj, costs = simulate_episode(reference_spec, lifted,
                                   substream(0, "episode", 0))
    assert len(traj) == reference_spec.horizon + 1
    for M in traj:
        assert len(M) == 2
        for m, tm in zip(M, reference_spec.teams):
            assert m.shape == (tm.n_states,) and m.dtype.kind == "i"
            assert m.sum() == tm.population
    assert costs.shape == (2,)
    assert np.all(np.isfinite(costs))


def test_lifted_policy_reads_correct_lattice_cell(reference_spec,
                                                  reference_solution):
    policy, _ = reference_solution
    lifted = lift_policy(policy)
    lattice = policy.lattice
    for idx in lattice.indices():
        M = tuple(np.array(c) for c in counts_at(lattice, idx))
        rows = lifted.realize(0, M, substream(0))
        rec = policy.stages[0][idx]
        for k in range(2):
            expect = policy.sets[k].items[rec["w%d" % k].argmax()].rows
            assert np.array_equal(rows[k], expect)


class _PermutingRng:
    """Relabels the two agents of every team in every vector draw."""

    def __init__(self, inner):
        self.inner = inner

    def random(self, size=None):
        u = self.inner.random(size)
        if size is None:
            return u
        assert size == 2
        return u[::-1].copy()


def test_agents_are_exchangeable(reference_spec):
    """Swapping agent identities permutes the uniforms but cannot change
    the count trajectory."""
    pol = _fixed_policy()
    plain, costs_a = simulate_episode(reference_spec, pol,
                                      substream(9, "episode", 0))
    swapped, costs_b = simulate_episode(reference_spec, pol,
                                        _PermutingRng(substream(9, "episode", 0)))
    for Ma, Mb in zip(plain, swapped):
        for ma, mb in zip(Ma, Mb):
            assert np.array_equal(ma, mb)
    assert np.allclose(costs_a, costs_b, atol=1e-12)


def test_policy_row_shape_is_validated(reference_spec):
    bad = FunctionPolicy(fn=lambda t, M, rng: [np.ones((2, 2)) / 2,
                                               np.ones((3, 2)) / 2])
    with pytest.raises(SpecValidationError):
        simulate_episode(reference_spec, bad, substream(0, "episode", 0))


def test_stderr_shrinks_like_sqrt_episodes(reference_spec, reference_solution):
    policy, _ = reference_solution
    lifted = lift_policy(policy)
    small = estimate_cost(reference_spec, lifted, episodes=400, master_seed=2)
    large = estimate_cost(reference_spec, lifted, episodes=1600, master_seed=2)
    for k in range(2):
        ratio = large.stderr[k] / small.stderr[k]
        assert 0.4 <= ratio <= 0.6


def test_mixed_policy_randomizes():
    spec = tf.load_spec(json.dumps(deterministic_two_team()))
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(2))
    policy, _ = tf.solve_mpe(spec, sets)
    assert policy.mixed_points
    lifted = lift_policy(policy)
    assert lifted.randomized
    res = estimate_cost(spec, lifted, episodes=600, master_seed=12)
    assert res.randomized_policy
    for k in range(2):
        assert abs(res.mean[k] - 0.5) <= 4 * res.stderr[k] + 1e-9


def test_per_episode_rows(reference_spec):
    pol = _constant_table_policy(reference_spec)
    res = estimate_cost(reference_spec, pol, episodes=3, master_seed=0,
                        keep_episodes=True)
    rows = res.csv_rows()
    assert len(rows) == 6
    assert rows[0][0] == 0 and rows[1][1] == 1
    assert rows[2] == (1, 0, repr(float(res.per_episode[1, 0])))
    bare = estimate_cost(reference_spec, pol, episodes=3, master_seed=0)
    with pytest.raises(SpecValidationError):
        bare.csv_rows()
    with pytest.raises(SpecValidationError):
        estimate_cost(reference_spec, pol, episodes=0)


def test_estimate_cost_runs_only_lifted_policies(reference_spec):
    with pytest.raises(SpecValidationError, match="LiftedPolicy"):
        estimate_cost(reference_spec, _fixed_policy(), episodes=3)


def test_kernel_check_deterministic_dynamics():
    spec = tf.load_spec(json.dumps(identity_dynamics_spec(population=3)))
    gammas = (tf.build_prescription_set(spec, 0).items[0],)
    z = MeanField(per_team=(np.array([1.0, 2.0]) / 3,))
    rep = empirical_kernel_check(spec, z, gammas, samples=200, master_seed=0)
    assert rep.tv_distance == 0.0
    assert rep.confidence_radius == 0.0
    assert rep.support_size == 1
    assert rep.as_dict()["samples"] == 200


@pytest.mark.parametrize("samples", [0, -5])
def test_kernel_check_needs_a_sample(samples):
    spec = tf.load_spec(json.dumps(identity_dynamics_spec(population=3)))
    gammas = (tf.build_prescription_set(spec, 0).items[0],)
    z = MeanField(per_team=(np.array([1.0, 2.0]) / 3,))
    with pytest.raises(SpecValidationError, match="at least one sample"):
        empirical_kernel_check(spec, z, gammas, samples=samples, master_seed=0)


@pytest.mark.parametrize("count", [2.5, 3.0, "3", None])
def test_counts_must_be_integers(count, reference_spec, reference_sets):
    """A float or str count is refused up front, before it reaches a
    stream label or ``PCG64.advance``."""
    z = MeanField(per_team=(np.array([0.5, 0.5]), np.array([0.5, 0.5])))
    gammas = (reference_sets[0].items[0], reference_sets[1].items[0])
    with pytest.raises(SpecValidationError, match="must be an integer"):
        empirical_kernel_check(reference_spec, z, gammas, samples=count, master_seed=0)
    with pytest.raises(SpecValidationError, match="must be an integer"):
        estimate_cost(reference_spec, _constant_table_policy(reference_spec), episodes=count)


def test_integer_types_are_counts(reference_spec, reference_sets):
    z = MeanField(per_team=(np.array([0.5, 0.5]), np.array([0.5, 0.5])))
    gammas = (reference_sets[0].items[0], reference_sets[1].items[0])
    rep = empirical_kernel_check(reference_spec, z, gammas, samples=np.int64(30), master_seed=0)
    assert rep == empirical_kernel_check(reference_spec, z, gammas, samples=30, master_seed=0)
    assert type(rep.samples) is int
    res = estimate_cost(reference_spec, _constant_table_policy(reference_spec),
                        episodes=np.uint8(3), master_seed=0, keep_episodes=True)
    assert res.episodes == 3 and res.per_episode.shape == (3, 2)
    with pytest.raises(SpecValidationError, match="at least one episode"):
        estimate_cost(reference_spec, _constant_table_policy(reference_spec),
                      episodes=np.int64(0))


def test_kernel_check_reference(reference_spec, reference_sets):
    z = MeanField(per_team=(np.array([0.5, 0.5]), np.array([0.5, 0.5])))
    gammas = (reference_sets[0].items[2], reference_sets[1].items[1])
    rep = empirical_kernel_check(reference_spec, z, gammas, samples=20000,
                                 master_seed=3)
    assert rep.tv_distance < 0.02
    assert rep.support_size >= 9
    rep2 = empirical_kernel_check(reference_spec, z, gammas, samples=20000,
                                  master_seed=3)
    assert rep2.tv_distance == rep.tv_distance


def test_kernel_check_rejects_off_lattice(reference_spec, reference_sets):
    z = MeanField(per_team=(np.array([0.3, 0.7]), np.array([0.5, 0.5])))
    gammas = (reference_sets[0].items[0], reference_sets[1].items[0])
    with pytest.raises(SpecValidationError):
        empirical_kernel_check(reference_spec, z, gammas, samples=10)


@pytest.mark.parametrize("teams", [1, 3])
def test_kernel_check_refuses_a_wrong_team_count(teams, reference_spec, reference_sets):
    """One team's z on a two-team game raised IndexError; a third team's
    occupancy was silently dropped."""
    z = [np.array([0.5, 0.5])] * teams
    gammas = (reference_sets[0].items[0], reference_sets[1].items[0])
    with pytest.raises(SpecValidationError, match="mean field has %d teams, spec has 2" % teams):
        empirical_kernel_check(reference_spec, z, gammas, samples=10)


@pytest.mark.parametrize("n", [1, 3])
def test_kernel_check_refuses_a_profile_of_the_wrong_length(n, reference_spec, reference_sets):
    z = [np.array([0.5, 0.5])] * 2
    gammas = (reference_sets[0].items[0],) * n
    with pytest.raises(SpecValidationError, match="profile has %d prescriptions" % n):
        empirical_kernel_check(reference_spec, z, gammas, samples=10)


def test_realize_refuses_counts_off_the_lattice(reference_spec, reference_solution):
    lifted = lift_policy(reference_solution[0])
    with pytest.raises(SpecValidationError, match="not a point of the count lattice"):
        lifted.realize(0, (np.array([2, 1]), np.array([1, 1])), substream(0))
