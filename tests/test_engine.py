"""The batched backward-induction engine against the per-point oracle.

``oracles.build_stage_game`` with a callable continuation sums exactly
over the materialized joint next-count support of one point, one profile
at a time, with own costs summed from ``oracles.eval_cost``; the solvers contract
kernel stacks for all points at once. Both
must give the same stage games, equilibria and values, for any number of
teams with their own state, action and population sizes. Away from an
equilibrium (random mixtures at every point), a per-point Bellman
recursion on the oracle's stage games gives the policy's values and every
team's best reply, and the separate stage loops the shared pass replaced
(``oracles.policy_value_loop``, ``oracles.best_response_loop``) give the
same arrays bit for bit.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import teamfield as tf
from teamfield.counts import lattice_size
from teamfield.finite_mpe import best_response, initial_distribution, policy_value
from teamfield.stage_game import solve_stage

from conftest import cyclic_pursuit_three_team
from oracles import best_response_loop, build_stage_game, mean_field, policy_value_loop

# (states, actions, population) per team; the oracle's work at one point
# grows with lattice size squared times menu size, so draws are budgeted
TEAM_SIZES = [(S, A, N) for S in (1, 2, 3) for A in (1, 2) for N in (1, 2)]
ORACLE_BUDGET = 1500


def _oracle_work(S, A, N):
    return lattice_size(N, S) ** 2 * A ** S


def check_engine_against_oracle(spec):
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(spec.n_teams))
    policy, values = tf.solve_mpe(spec, sets)
    lattice = policy.lattice
    assert lattice is policy._kernels.lattice
    V = values.values
    T, K = spec.horizon, spec.n_teams
    for t in range(T):
        def continuation(jc, t=t):
            return V[(t + 1, slice(None)) + tuple(tl.rank(c) for tl, c in zip(lattice.teams, jc))]

        for idx in np.ndindex(lattice.shape):
            game = build_stage_game(mean_field(lattice, idx), t,
                                    None if t == T - 1 else continuation, sets, spec)
            eq = solve_stage(game)
            solved = policy.stages[t][idx]
            assert eq.mixed == solved.mixed
            for k, mine in enumerate(eq.weights):
                np.testing.assert_allclose(mine, solved["w%d" % k], rtol=0, atol=1e-9)
            np.testing.assert_allclose(eq.values, V[(t, slice(None)) + idx], rtol=0, atol=1e-12)
    np.testing.assert_allclose(policy_value(spec, policy), V, rtol=0, atol=1e-12)
    init = initial_distribution(spec, lattice)
    np.testing.assert_allclose(tf.evaluate_total_cost(spec, policy),
                               [np.sum(init * V[0, k]) for k in range(K)],
                               rtol=0, atol=1e-12)
    check_shared_store(spec, policy)
    check_against_loops(spec, policy)
    return policy


def check_shared_store(spec, policy):
    """The store the policy keeps from the solver, read by the certificate
    and the cost evaluation, gives exactly the results of a fresh store (a
    copy of the table built by hand), and its stacks are read-only."""
    store = policy._kernels
    fresh = tf.PolicyTable(stages=policy.stages, sets=policy.sets, lattice=policy.lattice)
    assert np.array_equal(tf.verify_mpe(spec, policy).gains, tf.verify_mpe(spec, fresh).gains)
    assert np.array_equal(tf.evaluate_total_cost(spec, policy),
                          tf.evaluate_total_cost(spec, fresh))
    assert np.array_equal(policy_value(spec, policy), policy_value(spec, fresh))
    for k in range(spec.n_teams):
        picks, U = best_response(spec, k, policy)
        fresh_picks, fresh_U = best_response(spec, k, fresh)
        assert np.array_equal(U, fresh_U)
        assert all(np.array_equal(a, b) for a, b in zip(picks, fresh_picks))
    assert policy._kernels is store and fresh._kernels not in (None, store)
    W = store.stacks()[0]
    with pytest.raises(ValueError):
        W[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        store.matrix(0, mean_field(store.lattice, (0,) * spec.n_teams))[0, 0] = 1.0


def random_mixtures(policy, seed):
    """``policy`` with every stage's records replaced by random mixtures:
    ``mixed`` True and Dirichlet weights at every point."""
    rng = np.random.default_rng(seed)
    stages = []
    for st in policy.stages:
        st = st.copy()
        st.mixed = True
        for w in st.dtype.names[2:]:
            st[w] = rng.dirichlet(np.ones(st[w].shape[-1]), size=st.shape)
        stages.append(st)
    return dataclasses.replace(policy, stages=stages)


def _expect(tensor, ws, keep=None):
    """``tensor`` averaged under ``ws`` along every team's axis but ``keep``."""
    for j in range(tensor.ndim - 1, -1, -1):
        if j != keep:
            tensor = np.tensordot(tensor, ws[j], axes=([j], [0]))
    return tensor


def check_fixed_policy_against_oracle(spec, policy):
    """Per-point Bellman recursions on ``oracles.build_stage_game`` tensors,
    continued by the oracle's own next values: the policy's values average
    each team's tensor under every mixture, team k's best reply averages it
    under the others' and takes the smallest minimizing index."""
    sets, lattice = policy.sets, policy.lattice
    T, K = spec.horizon, spec.n_teams
    V = np.zeros((T + 1, K) + lattice.shape)     # the policy's values
    U = np.zeros((T + 1, K) + lattice.shape)     # U[:, k]: team k's best-reply values
    picks = np.zeros((T, K) + lattice.shape, dtype=int)

    def continuation(X):
        return lambda jc: X[(slice(None),) + tuple(
            tl.rank(c) for tl, c in zip(lattice.teams, jc))]

    for t in range(T - 1, -1, -1):
        for idx in np.ndindex(lattice.shape):
            ws = [policy.stages[t][idx]["w%d" % k] for k in range(K)]
            played, replied = (build_stage_game(mean_field(lattice, idx), t,
                                                None if t == T - 1 else continuation(X[t + 1]),
                                                sets, spec) for X in (V, U))
            for k in range(K):
                V[(t, k) + idx] = _expect(played.tensors[k], ws)
                r = _expect(replied.tensors[k], ws, keep=k)
                U[(t, k) + idx] = r.min()
                picks[(t, k) + idx] = np.flatnonzero(r <= r.min() + 1e-12)[0]
    np.testing.assert_allclose(policy_value(spec, policy), V[:T], rtol=0, atol=1e-12)
    for k in range(K):
        got_picks, got_U = best_response(spec, k, policy)
        np.testing.assert_allclose(got_U, U[:T, k], rtol=0, atol=1e-12)
        assert np.array_equal(np.stack(got_picks), picks[:, k])


def check_against_loops(spec, policy):
    """Values, picks and certificate gains equal those of the separate
    stage loops bit for bit."""
    V = policy_value_loop(spec, policy)
    assert np.array_equal(policy_value(spec, policy), V)
    gains = np.empty_like(V)
    for k in range(spec.n_teams):
        picks, U = best_response_loop(spec, k, policy)
        got_picks, got_U = best_response(spec, k, policy)
        assert np.array_equal(got_U, U)
        assert len(got_picks) == len(picks)
        assert all(np.array_equal(a, b) for a, b in zip(got_picks, picks))
        gains[:, k] = V[:, k] - U
    assert np.array_equal(tf.verify_mpe(spec, policy).gains, gains)


def test_engine_matches_oracle_on_three_team_cyclic_pursuit():
    spec = tf.load_spec(cyclic_pursuit_three_team())
    policy = check_engine_against_oracle(spec)
    assert policy.mixed_points
    off = random_mixtures(policy, 0)
    check_fixed_policy_against_oracle(spec, off)
    check_against_loops(spec, off)


@st.composite
def small_games(draw):
    """Random games with K <= 3 teams of S <= 3 states, A <= 2 actions and
    N <= 2 agents each, horizon <= 3, within the oracle's budget."""
    K = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 3))
    sizes, work = [], 1
    for _ in range(K):
        fits = [s for s in TEAM_SIZES if work * _oracle_work(*s) <= ORACLE_BUDGET]
        sizes.append(draw(st.sampled_from(fits)))
        work *= _oracle_work(*sizes[-1])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_states = [S for S, _, _ in sizes]
    teams = []
    for k, (S, A, N) in enumerate(sizes):
        base = rng.random((S, A, S)) + 0.05
        base /= base.sum(axis=-1, keepdims=True)
        trans = []
        if S > 1:
            for s in range(S):
                for a in range(A):
                    # crowding in s pushes mass on to s+1; keeps P >= 0
                    kp = int(rng.integers(K))
                    sig = int(rng.integers(n_states[kp]))
                    v = float(0.5 * rng.random() * base[s, a, s])
                    trans += [{"s": s, "a": a, "s'": s, "team": kp, "sigma": sig, "value": -v},
                              {"s": s, "a": a, "s'": (s + 1) % S, "team": kp, "sigma": sig,
                               "value": v}]
        cost = [{"t": t, "s": s, "a": a, "team": kp, "sigma": sig,
                 "value": float(rng.uniform(-1.0, 1.0))}
                for t in range(horizon) for s in range(S) for a in range(A)
                for kp in range(K) for sig in range(n_states[kp])]
        teams.append({
            "states": ["s%d" % s for s in range(S)],
            "actions": ["a%d" % a for a in range(A)],
            "population": N,
            "initial_law": list(rng.dirichlet(np.ones(S))),
            "transition": {"base": base.tolist(), "coupling": trans},
            "cost": {"base": rng.random((horizon, S, A)).tolist(), "coupling": cost},
        })
    return {"horizon": horizon, "seed": 0, "teams": teams}


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_games())
def test_engine_matches_oracle_on_random_games(doc):
    check_engine_against_oracle(tf.load_spec(doc))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_games(), st.integers(0, 2 ** 32 - 1))
def test_fixed_policy_matches_oracle_off_equilibrium(doc, seed):
    """Random mixtures everywhere: the policy's values and every team's
    best reply (values and picks, ties included) against the oracle's
    Bellman recursion, and bit for bit against the separate loops."""
    spec = tf.load_spec(doc)
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(spec.n_teams))
    policy = random_mixtures(tf.solve_mpe(spec, sets)[0], seed)
    check_fixed_policy_against_oracle(spec, policy)
    check_against_loops(spec, policy)
