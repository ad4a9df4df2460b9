"""The batched count-law builder against the dict convolution it replaced.

``counts._count_laws`` adds one agent at a time on the count lattice; the
whole kernel store, the initial count law and the solver run on it.
``oracles.team_kernel_convolution`` convolves per-state
multinomials in log space and prunes as it goes. Both must agree to
1e-13 on every atom, and the solver must find the same equilibria on
either store.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import teamfield as tf
from teamfield import finite_mpe, stage_game
from teamfield.counts import MeanField, Prescription, TeamLattice
from teamfield.errors import SpecValidationError
from teamfield.finite_mpe import initial_distribution
from teamfield.simulate import empirical_kernel_check
from teamfield.stage_game import KernelCache

from conftest import DATA, cyclic_pursuit_three_team, deterministic_two_team, kernel_row
from oracles import _multinomial_pmf, kernel_store_loop, team_kernel_convolution

TOL = 1e-13


def _ring_game(sizes, rng, deterministic=False, horizon=2):
    """Teams of (S, A, N) with random (or 0/1) transition rows, coupled so
    crowding moves up to half the mass staying in s on to s + 1, and
    random coupled costs."""
    K = len(sizes)
    teams = []
    for S, A, N in sizes:
        if deterministic:
            base = np.zeros((S, A, S))
            base[np.arange(S)[:, None], np.arange(A)[None], rng.integers(S, size=(S, A))] = 1.0
        else:
            base = rng.random((S, A, S)) + 0.05
            base /= base.sum(axis=-1, keepdims=True)
        trans = []
        for s in range(S):
            for a in range(A):
                kp = int(rng.integers(K))
                v = float(0.5 * rng.random() * base[s, a, s])
                if S == 1 or v == 0.0:
                    continue
                sig = int(rng.integers(sizes[kp][0]))
                trans += [{"s": s, "a": a, "s'": s, "team": kp, "sigma": sig, "value": -v},
                          {"s": s, "a": a, "s'": (s + 1) % S, "team": kp, "sigma": sig,
                           "value": v}]
        cost = [{"t": t, "s": s, "a": a, "team": kp, "sigma": 0,
                 "value": float(rng.uniform(-1.0, 1.0))}
                for t in range(horizon) for s in range(S) for a in range(A) for kp in range(K)]
        teams.append({
            "states": ["s%d" % s for s in range(S)],
            "actions": ["a%d" % a for a in range(A)],
            "population": N,
            "initial_law": list(rng.dirichlet(np.ones(S))),
            "transition": {"base": base.tolist(), "coupling": trans},
            "cost": {"base": rng.random((horizon, S, A)).tolist(), "coupling": cost},
        })
    return tf.load_spec({"horizon": horizon, "seed": 0, "teams": teams})


def _rows(rng, S, A, pure):
    if pure:
        rows = np.zeros((S, A))
        rows[np.arange(S), rng.integers(A, size=S)] = 1.0
        return rows
    return rng.dirichlet(np.ones(A), size=S)


def check_kernel(spec, k, m, z, gamma):
    tm = spec.teams[k]
    tl = TeamLattice(tm.population, tm.n_states)
    fast = kernel_row(spec, k, m, z, gamma)
    slow = team_kernel_convolution(m, z, gamma, spec, k)
    points = list(map(tuple, tl.counts.tolist()))
    assert len(fast) == len(tl) and points == sorted(points, reverse=True)
    a = dict(zip(points, fast))
    b = dict(zip(slow.support, slow.probs))
    for key in set(a) | set(b):
        assert abs(a.get(key, 0.0) - b.get(key, 0.0)) <= TOL, key


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 8), st.integers(1, 3),
       st.integers(1, 3), st.booleans(), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_team_kernel_matches_the_convolution(S, A, N, S2, N2, deterministic, pure, seed):
    rng = np.random.default_rng(seed)
    spec = _ring_game([(S, A, N), (S2, 1, N2)], rng, deterministic)
    lattices = [TeamLattice(tm.population, tm.n_states) for tm in spec.teams]
    idx = [int(rng.integers(len(tl))) for tl in lattices]
    z = MeanField(per_team=tuple(tl.z[i] for tl, i in zip(lattices, idx)))
    gamma = Prescription(rows=_rows(rng, S, A, pure))
    check_kernel(spec, 0, lattices[0].counts[idx[0]], z, gamma)


@pytest.mark.parametrize("deterministic", [False, True])
def test_team_kernel_edge_sizes(deterministic):
    rng = np.random.default_rng(5)
    for S, A, N in [(1, 1, 1), (1, 3, 4), (2, 1, 1), (4, 3, 8)]:
        spec = _ring_game([(S, A, N)], rng, deterministic)
        tl = TeamLattice(N, S)
        for i in range(len(tl)):
            for pure in (True, False):
                gamma = Prescription(rows=_rows(rng, S, A, pure))
                check_kernel(spec, 0, tl.counts[i], MeanField(per_team=(tl.z[i],)), gamma)
    row = kernel_row(_ring_game([(1, 1, 1)], rng), 0, np.array([1]),
                     MeanField(per_team=(np.array([1.0]),)), Prescription(np.ones((1, 1))))
    assert TeamLattice(1, 1).counts.tolist() == [[1]] and list(row) == [1.0]


@pytest.mark.parametrize("N", [1, 2, 7, 16, 33, 64])
def test_initial_distribution_matches_the_multinomial(N):
    spec = tf.with_populations(_ring_game([(3, 2, 1), (2, 1, 1)], np.random.default_rng(N)), N)
    lattice = tf.JointLattice(spec)
    expect = np.ones(())
    for tm, tl in zip(spec.teams, lattice.teams):
        expect = np.multiply.outer(expect, _multinomial_pmf(N, tm.initial_law, tl.counts))
    np.testing.assert_allclose(initial_distribution(spec, lattice), expect, rtol=0, atol=TOL)


STORE_GAMES = {
    "reference-8": lambda: tf.with_populations(
        tf.load_spec_file(DATA / "two_team_reference.json"), 8),
    "deterministic": lambda: tf.load_spec(deterministic_two_team()),
    "cyclic": lambda: tf.load_spec(cyclic_pursuit_three_team()),
    "three-states": lambda: _ring_game([(3, 2, 3), (3, 2, 2)], np.random.default_rng(7)),
}


@pytest.mark.parametrize("name", sorted(STORE_GAMES))
def test_store_and_equilibria_match_the_convolution(name, monkeypatch):
    spec = STORE_GAMES[name]()
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(spec.n_teams))
    policy, values = tf.solve_mpe(spec, sets)
    slow = kernel_store_loop(policy.lattice, sets, spec)
    for a, b in zip(policy._kernels.stacks(), slow):
        np.testing.assert_allclose(a, b, rtol=0, atol=TOL)

    class LoopStore(KernelCache):
        def stacks(self):
            return slow

    monkeypatch.setattr(finite_mpe, "KernelCache", LoopStore)
    ref_policy, ref_values = tf.solve_mpe(spec, sets)
    assert isinstance(ref_policy._kernels, LoopStore)
    for t in range(spec.horizon):
        for idx in np.ndindex(policy.lattice.shape):
            a, b = policy.stages[t][idx], ref_policy.stages[t][idx]
            assert a.mixed == b.mixed
            for w in a.dtype.names[2:]:
                np.testing.assert_allclose(a[w], b[w], rtol=0, atol=1e-12)
    np.testing.assert_allclose(values.values, ref_values.values, rtol=0, atol=1e-12)


def test_kernel_check_rejects_a_wrong_shape_prescription(reference_spec, reference_sets):
    z = MeanField(per_team=(np.array([0.5, 0.5]), np.array([0.5, 0.5])))
    wrong = Prescription(rows=np.ones((3, 1)))
    with pytest.raises(SpecValidationError, match="prescription shape"):
        empirical_kernel_check(reference_spec, z, (reference_sets[0].items[0], wrong),
                               samples=10)


def test_store_blocks_do_not_change_the_store(monkeypatch):
    """Blocks of a few points give the store of one block."""
    spec = STORE_GAMES["three-states"]()
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(spec.n_teams))
    whole = KernelCache(spec, sets).stacks()
    monkeypatch.setattr(stage_game, "STORE_BLOCK_ENTRIES", 100)
    for a, b in zip(KernelCache(spec, sets).stacks(), whole):
        assert np.array_equal(a, b)
