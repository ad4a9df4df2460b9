"""The batched simulator against the per-episode process.

``estimate_cost`` runs a lifted table policy in blocks of episodes sized
by a byte budget; each episode must draw the same uniforms and pay the
same costs as the reference ``oracles.simulate_episode`` on its substream,
bit for bit, for any
block size and worker count. The empirical kernel check ranks next counts
on the joint lattice and counts them with ``np.bincount``; its report
must equal the sample-by-sample loop against the dict-keyed joint kernel,
and, bitwise, the whole-array check for any chunking of its samples. Both
simulators hold their uniforms within a byte budget for any run length.
The model's evaluators give a point bitwise the same rows alone or inside
a batch, so the episode tables built over all points are bitwise the
per-point values the per-episode process computes.
"""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import teamfield as tf
from teamfield import simulate
from teamfield.counts import (MeanField, TeamLattice, _lattice_rank, _rank_terms,
                              lattice_size)
from teamfield.model import cost_matrix, flatten_mean_field, transition_matrix
from teamfield.rng import substream
from teamfield.simulate import empirical_kernel_check, estimate_cost, lift_policy

from conftest import (cyclic_pursuit_three_team, deterministic_two_team,
                      identity_dynamics_spec)
from oracles import _pick, kernel_check_loop, kernel_check_whole, mean_field, simulate_episode

SEED = 11
JOINT_POINTS_BUDGET = 100      # joint lattice points a drawn game may have
MENU_BUDGET = 64               # product of the teams' pure menu sizes


def _solved_lift(spec):
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(spec.n_teams))
    policy, _ = tf.solve_mpe(spec, sets)
    return lift_policy(policy)


def _per_episode(spec, policy, episodes, seed=SEED):
    return np.array([simulate_episode(spec, policy, substream(seed, "episode", e))[1]
                     for e in range(episodes)])


def check_batched(spec, episodes, workers=(1, 2)):
    lifted = _solved_lift(spec)
    expect = _per_episode(spec, lifted, episodes)
    for w in workers:
        res = estimate_cost(replace(spec, seed=SEED), lifted, episodes, workers=w,
                            keep_episodes=True)
        assert np.array_equal(res.per_episode, expect), "workers=%d" % w
    return lifted


@st.composite
def small_games(draw):
    """Random games with K <= 3 teams of S <= 3 states, A <= 2 actions and
    N <= 3 agents each, horizon <= 3, population-coupled transitions and
    costs, within a solving budget."""
    K = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 3))
    sizes, points, menus = [], 1, 1
    for _ in range(K):
        fits = [(S, A, N) for S in (1, 2, 3) for A in (1, 2) for N in (1, 2, 3)
                if points * lattice_size(N, S) <= JOINT_POINTS_BUDGET
                and menus * A ** S <= MENU_BUDGET]
        S, A, N = draw(st.sampled_from(fits))
        sizes.append((S, A, N))
        points *= lattice_size(N, S)
        menus *= A ** S
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_states = [S for S, _, _ in sizes]
    teams = []
    for S, A, N in sizes:
        base = rng.random((S, A, S)) + 0.05
        base /= base.sum(axis=-1, keepdims=True)
        trans = []
        if S > 1:
            for s in range(S):
                for a in range(A):
                    # crowding moves up to half the mass staying in s on to s+1
                    kp = int(rng.integers(K))
                    v = float(0.5 * rng.random() * base[s, a, s])
                    sig = int(rng.integers(n_states[kp]))
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


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_games(), st.integers(1, 40))
def test_batched_costs_equal_per_episode_process_on_random_games(doc, episodes):
    check_batched(tf.load_spec(doc), episodes)


def test_batched_costs_on_mixed_two_team_game():
    lifted = check_batched(tf.load_spec(json.dumps(deterministic_two_team())), 60)
    assert lifted.randomized


def test_batched_costs_on_three_team_cyclic_pursuit():
    lifted = check_batched(tf.load_spec(cyclic_pursuit_three_team()), 60)
    assert lifted.randomized


def _one_state_one_action_one_agent():
    return tf.load_spec({
        "horizon": 2,
        "teams": [{"states": ["s0"], "actions": ["a0"], "population": 1,
                   "initial_law": [1.0], "transition": {"base": [[[1.0]]]},
                   "cost": {"base": [[0.25]]}}],
    })


def test_batched_costs_with_one_state_one_action_one_agent():
    spec = _one_state_one_action_one_agent()
    check_batched(spec, 5)
    res = estimate_cost(replace(spec, seed=SEED), _solved_lift(spec), 5, keep_episodes=True)
    assert np.all(res.per_episode == 0.5)


def _bits(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + repr(a.shape).encode() + a.tobytes()


def check_evaluators(spec, zf):
    """``transition_matrix`` / ``cost_matrix`` over the points zf (..., D)
    are bitwise the calls at each point alone."""
    for k in range(spec.n_teams):
        P = transition_matrix(spec, k, zf)
        C = [cost_matrix(spec, k, t, zf) for t in range(spec.horizon)]
        for i in np.ndindex(zf.shape[:-1]):
            assert _bits(P[i]) == _bits(transition_matrix(spec, k, zf[i])), (k, i)
            for t in range(spec.horizon):
                assert _bits(C[t][i]) == _bits(cost_matrix(spec, k, t, zf[i])), (k, t, i)


def check_episode_tables(spec):
    """Every entry of the batched episode tables is bitwise the per-point
    value at the mean field the per-episode process flattens."""
    lifted = _solved_lift(spec)
    tab = simulate._episode_tables(spec, lifted)
    lattice = lifted.table.lattice
    for p, idx in enumerate(np.ndindex(lattice.shape)):
        zf = flatten_mean_field(spec, mean_field(lattice, idx))
        for k in range(spec.n_teams):
            assert (_bits(tab.transition_cdf[k][p])
                    == _bits(simulate._cdf(transition_matrix(spec, k, zf)))), (k, p)
            for t in range(spec.horizon):
                assert _bits(tab.cost[k][t, p]) == _bits(cost_matrix(spec, k, t, zf)), (k, t, p)


def _batch_points(spec, rng, n):
    """n random points of the product of simplices, flat, shape (n, D)."""
    return np.concatenate([rng.dirichlet(np.ones(tm.n_states), size=n) for tm in spec.teams],
                          axis=1)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_games(), st.integers(0, 2 ** 32 - 1))
def test_batched_evaluators_equal_one_point_calls(doc, seed):
    """Random games of K 1-3, S 1-3, A 1-2: random points and the joint
    lattice, as one batch and as a (2, 3) grid of points; and the episode
    tables against the per-point calls."""
    spec = tf.load_spec(doc)
    rng = np.random.default_rng(seed)
    lattice = tf.JointLattice(spec)
    check_evaluators(spec, np.concatenate(lattice.z, axis=1))
    zf = _batch_points(spec, rng, 6)
    check_evaluators(spec, zf)
    check_evaluators(spec, zf.reshape(2, 3, -1))
    check_episode_tables(spec)


@pytest.mark.parametrize("game", ["one-state-one-action", "one-action-walker", "cyclic"])
def test_batched_evaluators_on_fixed_games(game):
    spec = {"one-state-one-action": _one_state_one_action_one_agent,
            "one-action-walker": lambda: tf.load_spec(_walker_beside_chooser(3, 2)),
            "cyclic": lambda: tf.load_spec(cyclic_pursuit_three_team())}[game]()
    check_evaluators(spec, _batch_points(spec, np.random.default_rng(5), 7))
    check_episode_tables(spec)


def test_single_episode(reference_spec):
    check_batched(reference_spec, 1)


def _record_blocks(monkeypatch) -> list:
    """Episodes of every block ``_run_block`` runs in this process, in order."""
    run_block, sizes = simulate._run_block, []

    def recorded(tab, seed, episode_ids):
        sizes.append(len(episode_ids))
        return run_block(tab, seed, episode_ids)
    monkeypatch.setattr(simulate, "_run_block", recorded)
    return sizes


def test_episodes_across_block_boundaries(monkeypatch):
    """A byte budget set to fit 1, 3 or all 23 episodes' uniforms cuts the
    run into such blocks; costs stay those of the per-episode process."""
    spec = tf.with_populations(tf.load_spec(cyclic_pursuit_three_team()), 2)
    lifted = _solved_lift(spec)
    expect = _per_episode(spec, lifted, 23)
    draws = simulate._episode_tables(spec, lifted).draws
    sizes = _record_blocks(monkeypatch)
    for per_block, blocks in ((1, [1] * 23), (3, [3] * 7 + [2]), (23, [23])):
        monkeypatch.setattr(simulate, "BLOCK_BYTES", 8 * draws * per_block)
        for w in (1, 2):
            sizes.clear()
            res = estimate_cost(replace(spec, seed=SEED), lifted, 23, workers=w,
                                keep_episodes=True)
            assert np.array_equal(res.per_episode, expect), (per_block, w)
            if w == 1:
                assert sizes == blocks


def test_block_uniforms_stay_within_the_byte_budget(monkeypatch):
    """2,000 agents over 20 stages draw 82,020 uniforms an episode: a block
    holds as many episodes as fit in ``BLOCK_BYTES``, or one where none
    fits, never a fixed count regardless of the game."""
    spec = tf.load_spec({
        "horizon": 20,
        "teams": [{"states": ["s0"], "actions": ["a0"], "population": 2000,
                   "initial_law": [1.0], "transition": {"base": [[[1.0]]]},
                   "cost": {"base": [[0.25]]}}],
    })
    lifted = _solved_lift(spec)
    draws = simulate._episode_tables(spec, lifted).draws
    assert draws == 2000 + 20 * (1 + 2 * 2000)
    sizes = _record_blocks(monkeypatch)
    for budget in (simulate.BLOCK_BYTES, 8 * draws - 1):
        monkeypatch.setattr(simulate, "BLOCK_BYTES", budget)
        sizes.clear()
        res = estimate_cost(replace(spec, seed=SEED), lifted, 13, keep_episodes=True)
        assert np.all(res.per_episode == 5.0)
        assert sum(sizes) == 13
        assert all(8 * draws * b <= budget or b == 1 for b in sizes), (budget, sizes)
    assert sizes == [1] * 13


def check_kernel_check(spec, z, gammas, samples, seed):
    fast = empirical_kernel_check(spec, z, gammas, samples=samples, master_seed=seed)
    slow = kernel_check_loop(spec, z, gammas, samples, master_seed=seed)
    assert fast.support_size == slow.support_size
    assert fast.samples == slow.samples
    assert fast.confidence_radius == slow.confidence_radius
    assert fast.tv_distance == pytest.approx(slow.tv_distance, abs=1e-12)


def _draw_point(spec, data):
    """A lattice mean field and one menu item per team, drawn."""
    z = MeanField(per_team=tuple(
        data.draw(st.sampled_from(TeamLattice(tm.population, tm.n_states).z.tolist()))
        for tm in spec.teams))
    gammas = tuple(data.draw(st.sampled_from(tf.build_prescription_set(spec, k).items))
                   for k in range(spec.n_teams))
    return z, gammas


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_games(), st.data())
def test_frequencies_equal_the_counting_loop(doc, data):
    spec = tf.load_spec(doc)
    z, gammas = _draw_point(spec, data)
    check_kernel_check(spec, z, gammas, data.draw(st.integers(1, 400)),
                       data.draw(st.integers(0, 100)))


def check_kernel_chunks(spec, z, gammas, samples, seed):
    """The chunked check equals the whole-array one (``==`` on the
    report) at the default budget and at budgets that cut the samples into
    chunks of 1, 2 and 3, sized by the largest team: each chunk ranks the
    next counts of every team once."""
    whole = kernel_check_whole(spec, z, gammas, samples, master_seed=seed)
    assert empirical_kernel_check(spec, z, gammas, samples=samples, master_seed=seed) == whole
    widest = max(tm.population for tm in spec.teams)
    team_index, ranked = simulate._team_index, []

    def recorded(terms, states):
        ranked.append(len(states))
        return team_index(terms, states)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_team_index", recorded)
        for per_chunk, spare in ((1, 0), (2, 8 * widest - 1), (3, 5)):
            mp.setattr(simulate, "BLOCK_BYTES", 8 * widest * per_chunk + spare)
            ranked.clear()
            got = empirical_kernel_check(spec, z, gammas, samples=samples, master_seed=seed)
            assert got == whole, per_chunk
            chunks = [per_chunk] * (samples // per_chunk) + [samples % per_chunk] * (
                samples % per_chunk > 0)
            assert ranked == [n for n in chunks for _ in spec.teams], per_chunk


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_games(), st.data())
def test_chunked_kernel_check_equals_the_whole_arrays(doc, data):
    spec = tf.load_spec(doc)
    z, gammas = _draw_point(spec, data)
    check_kernel_chunks(spec, z, gammas, data.draw(st.integers(1, 40)),
                        data.draw(st.integers(0, 100)))


@pytest.mark.parametrize("game", ["cyclic", "one_agent", "unequal", "reference"])
def test_chunked_kernel_check_on_fixed_games(game, reference_spec):
    """Three one-agent teams (K=3), one team of one state, action and
    agent, populations 2 and 3 (one team of one action and seven states),
    and the reference game at N=4, at the first and last lattice points
    with the first and last menu items."""
    spec = {"cyclic": lambda: tf.load_spec(cyclic_pursuit_three_team()),
            "one_agent": _one_state_one_action_one_agent,
            "unequal": lambda: tf.load_spec(_walker_beside_chooser(7, 3)),
            "reference": lambda: tf.with_populations(reference_spec, 4)}[game]()
    lattices = [TeamLattice(tm.population, tm.n_states) for tm in spec.teams]
    menus = [tf.build_prescription_set(spec, k).items for k in range(spec.n_teams)]
    for end in (0, -1):
        z = MeanField(per_team=tuple(tl.z[end] for tl in lattices))
        check_kernel_chunks(spec, z, tuple(items[end] for items in menus), 23, SEED)


def test_kernel_check_tv_is_unchanged_by_the_counting(reference_spec, reference_sets):
    z = MeanField(per_team=(np.array([0.5, 0.5]), np.array([0.25, 0.75])))
    gammas = (reference_sets[0].items[2], reference_sets[1].items[1])
    for N in (4, 8):
        check_kernel_check(tf.with_populations(reference_spec, N), z, gammas, 5000, 2)


def _traced_peak(run) -> int:
    """Peak bytes ``tracemalloc`` sees (numpy buffers included) while
    ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_check_memory_does_not_grow_with_samples(reference_spec, reference_sets):
    """At N=8 a whole-array check held about 280 MB at a million samples;
    the chunked one stays within 8 budgets, and its peak at a million
    samples is within 10% of its peak at 200,000."""
    spec = tf.with_populations(reference_spec, 8)
    z = MeanField(per_team=(np.array([0.5, 0.5]), np.array([0.5, 0.5])))
    gammas = (reference_sets[0].items[1], reference_sets[1].items[1])
    peak = {n: _traced_peak(lambda: empirical_kernel_check(spec, z, gammas, samples=n,
                                                           master_seed=1))
            for n in (2 * 10 ** 5, 10 ** 6)}
    assert peak[10 ** 6] <= 8 * simulate.BLOCK_BYTES, peak
    assert abs(peak[10 ** 6] - peak[2 * 10 ** 5]) <= 0.1 * peak[2 * 10 ** 5], peak


def test_estimate_cost_memory_is_its_output_and_one_block(reference_spec):
    """Beyond the (episodes, K) cost array, 20,000 episodes of the
    reference game at N=8 hold at most 8 budgets."""
    spec = replace(tf.with_populations(reference_spec, 8), seed=SEED)
    lifted = _solved_lift(spec)
    episodes = 20000
    peak = _traced_peak(lambda: estimate_cost(spec, lifted, episodes))
    assert peak - 8 * episodes * spec.n_teams <= 8 * simulate.BLOCK_BYTES, peak


def test_policy_rows_of_the_wrong_shape_are_rejected():
    lifted = _solved_lift(tf.load_spec(json.dumps(deterministic_two_team())))
    doc = identity_dynamics_spec(population=1)
    doc["teams"] *= 2
    one_action = tf.load_spec(doc)
    with pytest.raises(tf.SpecValidationError):
        simulate_episode(one_action, lifted, substream(0, "episode", 0))
    with pytest.raises(tf.SpecValidationError):
        estimate_cost(one_action, lifted, 3)


def _walker_beside_chooser(walker_states, walker_population):
    """A two-state, two-action team beside a one-action team that walks a
    ring of ``walker_states`` states, stepping faster where the first team
    crowds state 0; each team's cost depends on the other's mean field."""
    S = walker_states
    walk = [[[0.6 if s2 == s else 0.4 if s2 == (s + 1) % S else 0.0 for s2 in range(S)]]
            for s in range(S)]
    return {
        "horizon": 2, "seed": 0,
        "teams": [
            {"states": ["x0", "x1"], "actions": ["stay", "move"], "population": 2,
             "initial_law": [0.7, 0.3],
             "transition": {"base": [[[0.9, 0.1], [0.2, 0.8]], [[0.1, 0.9], [0.8, 0.2]]]},
             "cost": {"base": [[[0.0, 0.3], [0.5, 0.2]]] * 2,
                      "coupling": [{"t": t, "s": 0, "a": a, "team": 1, "sigma": 0,
                                    "value": 1.0 + a} for t in range(2) for a in range(2)]}},
            {"states": ["w%d" % s for s in range(S)], "actions": ["walk"],
             "population": walker_population,
             "initial_law": list(np.linspace(1.0, 2.0, S) / np.linspace(1.0, 2.0, S).sum()),
             "transition": {"base": walk,
                            "coupling": [c for s in range(S) for c in (
                                {"s": s, "a": 0, "s'": s, "team": 0, "sigma": 0,
                                 "value": -0.3},
                                {"s": s, "a": 0, "s'": (s + 1) % S, "team": 0, "sigma": 0,
                                 "value": 0.3})]},
             "cost": {"base": [[[0.1 * s] for s in range(S)]] * 2,
                      "coupling": [{"t": t, "s": s, "a": 0, "team": 0, "sigma": 1,
                                    "value": 0.5 * s} for t in range(2) for s in range(S)]}},
        ],
    }


def test_batched_costs_with_a_one_action_team_of_many_states():
    spec = tf.load_spec(_walker_beside_chooser(walker_states=7, walker_population=3))
    check_batched(spec, 40)


@pytest.mark.parametrize("N, S", [(1, 1), (3, 1), (4, 2), (5, 3), (4, 12), (1, 64), (7, 4)])
def test_team_index_follows_the_lattice_order(N, S):
    """The index is ranked from counts in O(S x N) memory, also where a
    mixed-radix code over the counts would need 2**63 entries (N=1, S=64)."""
    tl = TeamLattice(N, S)
    states = np.array([np.repeat(np.arange(S), c) for c in tl.counts])
    shuffled = np.random.default_rng(0).permuted(states, axis=1)
    terms = _rank_terms(N, S)
    assert terms.size == (S - 1) * (N + 1)
    assert np.array_equal(_lattice_rank(terms, tl.counts), np.arange(len(tl)))
    assert np.array_equal(simulate._team_index(terms, shuffled), np.arange(len(tl)))


def test_policy_solved_at_other_populations_is_rejected():
    spec = tf.load_spec(json.dumps(deterministic_two_team()))
    lifted = _solved_lift(tf.with_populations(spec, 2))
    assert spec.teams[0].population != 2
    with pytest.raises(tf.SpecValidationError, match="population"):
        estimate_cost(spec, lifted, 3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pick_rows_equals_pick_on_gathered_rows(data):
    """``_pick_rows(cdf, g, u)`` against ``_pick(cdf.reshape(-1, S)[g], u)``
    on tables with tied boundaries (zero weights), S = 1, S around the
    uint8 limit, and u at 0.0, exactly on a boundary or just below 1; g
    broadcasts against u as in the kernel check. The picks come back as
    intp whatever dtype counted them."""
    S = data.draw(st.one_of(st.integers(1, 5), st.sampled_from([255, 256, 257])))
    lead = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    values = [0.0, 0.0, 0.1, 0.25, 1.0, 3.0]
    if S <= 5:      # small tables stay hypothesis-drawn, so their ties shrink
        weights = np.array(data.draw(st.lists(st.sampled_from(values),
                                              min_size=math.prod(lead) * S,
                                              max_size=math.prod(lead) * S))).reshape(-1, S)
    else:           # lists of up to 27 x 257 weights are too large to draw
        weights = rng.choice(values, size=(math.prod(lead), S))
    weights[weights.sum(axis=1) == 0, -1] = 1.0
    cdf = simulate._cdf(weights).reshape(lead + (S,))
    flat = cdf.reshape(-1, S)
    B, N = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    g = np.array(data.draw(st.lists(st.integers(0, len(flat) - 1), min_size=B * N,
                                    max_size=B * N))).reshape(B, N)
    kind = data.draw(st.lists(st.integers(0, 3), min_size=B * N, max_size=B * N))
    fresh = rng.random(B * N)
    u = np.array([fresh[i] if c == 0 else 0.0 if c == 1 else 1.0 if c == 3
                  else flat[g.flat[i], data.draw(st.integers(0, S - 1))]
                  for i, c in enumerate(kind)]).reshape(B, N)
    u = np.minimum(u, np.nextafter(1.0, 0.0))     # uniforms lie in [0, 1)
    for rows in (g, g[:1]):
        got = simulate._pick_rows(cdf, rows, u)
        assert got.dtype == np.intp
        assert np.array_equal(got, _pick(flat[rows], u))
    top = simulate._pick_rows(simulate._cdf(np.ones(S)), 0, np.array([np.nextafter(1.0, 0.0)]))
    assert top.dtype == np.intp and top.tolist() == [S - 1]
