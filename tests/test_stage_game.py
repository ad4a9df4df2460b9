import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from teamfield import stage_game
from teamfield.errors import CapacityError, NoPureEquilibriumError, SpecValidationError
from teamfield.stage_game import (CERT_TOL, StageGame, _one_hot, _pure_mask, br_iteration,
                                  build_prescription_set, certify_epsilon, mixed_nash_2team,
                                  solve_stage)

from oracles import (DEFAULT_SUPPORT_BOUND, _support_pairs, build_stage_game, mean_field,
                     mixed_nash_2team_scan, stage_cost)


def game2(A, B):
    return StageGame(tensors=(np.asarray(A, dtype=float),
                              np.asarray(B, dtype=float)))


def pure_profile(eq):
    """The menu indices of a pure solution, whose weights must be one-hot."""
    assert not eq.mixed and all(w.min() >= 0.0 and w.max() == 1.0 == w.sum()
                                for w in eq.weights)
    return tuple(int(w.argmax()) for w in eq.weights)


def pure_profiles(g):
    """The joint indices that the solvers' pure mask accepts, in
    lexicographic order."""
    mask = _pure_mask([T[None] for T in g.tensors])[0]
    return [tuple(int(i) for i in idx) for idx in np.argwhere(mask)]


def test_prescription_sets_pure(reference_spec):
    ps = build_prescription_set(reference_spec, 0)
    assert len(ps.items) == 4          # |A|^|S| = 2^2
    assert all(np.all(g.rows.max(axis=1) == 1.0) for g in ps.items)
    # itertools.product order over per-state action picks
    expected = [((1, 0), (1, 0)), ((1, 0), (0, 1)),
                ((0, 1), (1, 0)), ((0, 1), (0, 1))]
    got = [tuple(tuple(int(x) for x in r) for r in g.rows) for g in ps.items]
    assert got == expected


def test_prescription_sets_gridded(reference_spec):
    ps = build_prescription_set(reference_spec, 0, g=2)
    assert len(ps.items) == 9          # 3 rows per state, 2 states
    for g in ps.items:
        assert np.allclose(g.rows.sum(axis=1), 1.0)
        assert np.all(g.rows * 2 == np.rint(g.rows * 2))


def test_prescription_cap(reference_spec, monkeypatch):
    monkeypatch.setattr(stage_game, "DEFAULT_PRESCRIPTION_CAP", 3)
    with pytest.raises(CapacityError, match="has 4 items, cap 3"):
        build_prescription_set(reference_spec, 0)
    monkeypatch.setattr(stage_game, "DEFAULT_PRESCRIPTION_CAP", 8)
    assert len(build_prescription_set(reference_spec, 0)) == 4
    with pytest.raises(CapacityError, match="has 9 items, cap 8"):
        build_prescription_set(reference_spec, 0, g=2)


def test_pure_nash_simple_games():
    # dominant-strategy game: both prefer index 0
    g = game2([[0.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]])
    assert pure_profiles(g) == [(0, 0)]
    # coordination game has two pure equilibria, lexicographic order
    g = game2([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]])
    assert pure_profiles(g) == [(0, 0), (1, 1)]
    # matching pennies has none
    g = game2([[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    assert pure_profiles(g) == []


def test_pure_nash_three_teams():
    sh = (2, 2, 2)
    base = np.ones(sh)
    base[1, 1, 1] = 0.0
    g = StageGame(tensors=(base, base.copy(), base.copy()))
    assert (1, 1, 1) in pure_profiles(g)


def test_certify_epsilon_exact():
    g = game2([[0.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]])
    eps, values = certify_epsilon(g, _one_hot(g.shape, (0, 0)))
    assert eps == 0.0 and values.tolist() == [0.0, 0.0]
    eps, values = certify_epsilon(g, _one_hot(g.shape, (1, 1)))
    assert eps == pytest.approx(1.0) and values.tolist() == [1.0, 1.0]
    eps, values = certify_epsilon(g, (np.array([0.5, 0.5]), np.array([0.25, 0.75])))
    assert eps == 0.75 and values.tolist() == [0.5, 0.75]


PENNIES = ([[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("weights", [
    ([2.0, 0.0], [1.0, 0.0]),
    ([1.5, -0.5], [0.5, 0.5]),
    ([np.nan, 1.0], [0.5, 0.5]),
    ([1.0, 0.0, 0.0], [0.5, 0.5]),
    ([0.5, 0.5],),
    ([0.5, 0.5], [0.5, 0.5], [1.0]),
    [0.5, 0.5],
], ids=["sum-2", "negative", "nan", "long", "one-team", "three-teams", "one-vector"])
def test_certify_epsilon_refuses_weights_that_are_not_mixtures(weights):
    """Weights that sum to 2, leave the simplex, hold NaN, have the wrong
    length or come as one vector or one per team too few or too many are
    refused, where they used to return an epsilon or raise numpy's
    errors."""
    g = game2(*PENNIES)
    with pytest.raises(SpecValidationError):
        certify_epsilon(g, weights if isinstance(weights[0], float)
                        else tuple(np.array(w) for w in weights))


def test_certify_epsilon_accepts_mixtures_within_the_simplex_tolerance():
    g = game2(*PENNIES)
    eps, values = certify_epsilon(g, (np.array([1.0 + 5e-10, -5e-10]),
                                      np.array([0.5, 0.5 + 5e-10])))
    assert eps == pytest.approx(0.5) and values == pytest.approx([0.5, 0.5])


def test_mixed_nash_matching_pennies():
    g = game2(*PENNIES)
    eq = mixed_nash_2team(g)
    assert eq.mixed
    for v in eq.weights:
        assert np.allclose(v, [0.5, 0.5], atol=1e-9)
    assert eq.epsilon <= 1e-9
    np.testing.assert_allclose(eq.values, [0.5, 0.5], rtol=0, atol=1e-12)


def test_mixed_nash_asymmetric_pennies():
    # scaled pennies: row mixes 0.5/0.5, column compensates scale
    A = np.array([[0.0, 2.0], [2.0, 0.0]])
    B = np.array([[1.0, 0.0], [0.0, 3.0]])
    g = game2(A, B)
    eq = mixed_nash_2team(g)
    assert eq.epsilon <= 1e-9
    # indifference for the row team: B-column player mixes (y, 1-y) s.t.
    # row costs equal: 2(1-y) = 2y -> y = 0.5; for the column team:
    # x*1 = (1-x)*3 -> x = 0.75
    assert np.allclose(eq.weights[0], [0.75, 0.25], atol=1e-8)
    assert np.allclose(eq.weights[1], [0.5, 0.5], atol=1e-8)


def test_mixed_nash_returns_pure_when_it_exists():
    g = game2([[0.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]])
    eq = mixed_nash_2team(g)
    assert pure_profile(eq) == (0, 0)
    assert eq.values.tolist() == [0.0, 0.0]


def test_support_pairs_follow_the_sorted_order():
    """The lazy generator gives exactly the order of the sorted list of
    (total size, row size, column size, R, C) it replaced."""
    for n1 in range(1, 10):
        for n2 in range(1, 10):
            b1, b2 = min(n1, DEFAULT_SUPPORT_BOUND), min(n2, DEFAULT_SUPPORT_BOUND)
            combos = sorted((r + c, r, c, R, C)
                            for r in range(1, b1 + 1) for c in range(1, b2 + 1)
                            for R in itertools.combinations(range(n1), r)
                            for C in itertools.combinations(range(n2), c))
            assert list(_support_pairs(n1, n2, lambda R: range(n2))) == [
                combo[1:] for combo in combos]


def test_mixed_nash_lists_no_candidates_up_front():
    _finds_pennies_among_dominated_items(mixed_nash_2team)


def test_support_scan_lists_no_candidates_up_front():
    _finds_pennies_among_dominated_items(mixed_nash_2team_scan)


def _finds_pennies_among_dominated_items(solver):
    """n x n games (n = 12, 40, 64, 150) whose only equilibrium is
    matching pennies on items 0-1, every other item strictly dominated:
    each is found without a list of all support pairs or of their
    dominance masks. With shift 0 every dominated item is a copy of item
    2, so the solvers run over 3 x 3 first items; with shift 1e-3 item i
    of each team costs 1e-3 i more, so every item is distinct, the scan
    walks every row support of size 1 and 2 before the level of the
    equilibrium, and Lemke–Howson's two tableaux hold n x 2n entries.
    At n = 150 a pairwise table over all columns at every row (n^3
    booleans) alone would take 3.2 MiB per team."""
    for shift, n in itertools.product((0.0, 1e-3), (12, 40, 64, 150)):
        A = np.full((n, n), 2.0)
        A[:, :2] = 3.0
        A[:2, :] = 0.5
        A[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
        A[2:] += shift * np.arange(2, n)[:, None]
        B = np.full((n, n), 2.0)
        B[:2, :] = 3.0
        B[:, :2] = 0.5
        B[:2, :2] = [[1.0, 0.0], [0.0, 1.0]]
        B[:, 2:] += shift * np.arange(2, n)
        g = game2(A, B)
        tracemalloc.start()
        try:
            eq = solver(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eq.mixed and eq.epsilon <= 1e-9
        for v in eq.weights:
            np.testing.assert_allclose(v, [0.5, 0.5] + [0.0] * (n - 2), atol=1e-9)
        assert peak < 5 * 2 ** 20, (shift, n, peak)


def test_br_iteration_common_interest():
    sh = (3, 3, 3)
    base = np.ones(sh)
    base[2, 0, 1] = -1.0
    g = StageGame(tensors=(base, base.copy(), base.copy()))
    eq = br_iteration(g)
    assert eq.epsilon <= 1e-9
    assert pure_profile(eq) == (2, 0, 1)
    assert eq.values.tolist() == [-1.0, -1.0, -1.0]


def test_br_iteration_reports_best_visited():
    # pennies for 2 teams through the generic path: no convergence to 0,
    # but epsilon of the returned profile must be the certified minimum
    g = game2([[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    eq = br_iteration(g, max_iters=400)
    eps, values = certify_epsilon(g, eq.weights)
    assert eq.epsilon == pytest.approx(eps, abs=1e-15)
    assert np.array_equal(eq.values, values)
    assert eq.epsilon < 0.51


@pytest.mark.parametrize("rounds", [0, -1, 2.5, True])
def test_br_iteration_needs_a_round(rounds):
    """max_iters is an integer of at least 1; a float or a bool is refused
    as the spec loaders refuse them, not with a raw TypeError."""
    g = game2([[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SpecValidationError, match="max_iters must be"):
        br_iteration(g, max_iters=rounds)


def test_br_iteration_refuses_histories_above_the_store_cap(monkeypatch):
    """The weight and own-cost histories are checked against
    MAX_STORE_BYTES before they are allocated, with the table of pure
    epsilons: 200 rounds of a 2 x 2 game take 8 (201 * 4 + 200 * 2 * 2 +
    4) = 12,864 bytes."""
    g = game2([[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    monkeypatch.setattr(stage_game, "MAX_STORE_BYTES", 12863)
    with pytest.raises(CapacityError, match="fictitious play histories need 12864 bytes"):
        br_iteration(g)
    monkeypatch.setattr(stage_game, "MAX_STORE_BYTES", 12864)
    assert br_iteration(g).epsilon == 0.0


def test_select_equilibrium_prefers_pure_then_lex():
    # two pure equilibria, the first one only within PURE_TOL: solve_stage
    # returns the lexicographically first with its certified epsilon
    g = game2([[5e-13, 1.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]])
    assert pure_profiles(g) == [(0, 0), (1, 1)]
    eq = solve_stage(g)
    assert pure_profile(eq) == (0, 0)
    eps, values = certify_epsilon(g, eq.weights)
    assert eq.epsilon == eps > 0.0
    assert np.array_equal(eq.values, values)


def test_solve_stage_pure_only_raises():
    """Under pure_only the stage driver raises, naming the stage and the
    point, where solve_stage falls back to a mixed profile."""
    g = game2([[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NoPureEquilibriumError, match="no pure equilibrium at stage 3, z=z"):
        stage_game._solve_points([X[None] for X in g.tensors], 3,
                                  SimpleNamespace(shape=(1,), ids=["z"]), True)
    eq = solve_stage(g)
    assert eq.mixed and eq.epsilon <= 1e-9


def _edge_games():
    """1 x n, n x 1 and all-equal two-team games, and three-team games with
    a one-item team: common interest (every team pays the same tensor),
    all-equal, and a dominance-solvable one."""
    rng = np.random.default_rng(11)
    games = []
    for n in (1, 2, 5):
        games += [[rng.normal(size=(1, n)) for _ in range(2)],
                  [rng.normal(size=(n, 1)) for _ in range(2)],
                  [np.full((n, 3), 1.5)] * 2]
    for shape in ((1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 1, 4)):
        dominant = [np.add.outer(np.zeros(shape[:k]), np.add.outer(
            rng.normal(size=shape[k]), rng.normal(size=shape[k + 1:]))) for k in range(3)]
        games += [[rng.normal(size=shape)] * 3, [np.full(shape, -0.5)] * 3, dominant]
    return [StageGame(tensors=tuple(g)) for g in games]


@pytest.mark.parametrize("g", _edge_games(), ids=lambda g: "x".join(map(str, g.shape)))
def test_stage_solvers_on_degenerate_shapes(g):
    """Each solver's result is certified, with the epsilon and values
    that certify_epsilon gives its weights, and pure (the first pure
    profile, for solve_stage) because each of these games has one."""
    pure = pure_profiles(g)
    assert pure
    solvers = [solve_stage] + ([mixed_nash_2team] if g.n_teams == 2 else [])
    for solver in solvers:
        eq = solver(g)
        eps, values = certify_epsilon(g, eq.weights)
        assert eq.epsilon == eps <= CERT_TOL and np.array_equal(eq.values, values)
        assert pure_profile(eq) in pure
    assert pure_profile(solve_stage(g)) == pure[0]


def test_build_stage_game_terminal_matches_stage_costs(reference_spec,
                                                       reference_sets):
    from teamfield.counts import MeanField
    spec = reference_spec
    z = MeanField(per_team=(np.array([0.5, 0.5]), np.array([1.0, 0.0])))
    game = build_stage_game(z, spec.horizon - 1, None, reference_sets, spec)
    for (i, j) in itertools.product(range(4), range(4)):
        assert game.tensors[0][i, j] == pytest.approx(
            stage_cost(z, reference_sets[0].items[i], spec, 0, 1), abs=1e-12)
        assert game.tensors[1][i, j] == pytest.approx(
            stage_cost(z, reference_sets[1].items[j], spec, 1, 1), abs=1e-12)


def test_build_stage_game_callable_matches_table(reference_spec,
                                                 reference_sets):
    """The exact-summation oracle with a callable continuation must equal
    the engine's batched stage tensors at one point: own cost tables plus
    the contraction of the kernel stacks with a tabulated continuation."""
    from teamfield.finite_mpe import JointLattice
    from teamfield.stage_game import KernelCache, _contract, _cost_table, _stage_tensors
    spec = reference_spec
    lattice = JointLattice(spec)
    rng = np.random.default_rng(3)
    values = rng.normal(size=(2,) + lattice.shape)
    cache = KernelCache(spec, reference_sets)

    def lookup(jc):
        return values[(slice(None),) + tuple(tl.rank(c) for tl, c in zip(lattice.teams, jc))]

    idx = (1, 1)
    p = int(np.ravel_multi_index(idx, lattice.shape))
    Z = [zk[p:p + 1] for zk in lattice.z]
    own = [_cost_table(spec, k, reference_sets[k], Z, 0) for k in range(2)]
    cont = _contract([W[p:p + 1] for W in cache.stacks()], values)
    fast = _stage_tensors(own, cont, tuple(len(ps) for ps in reference_sets))
    slow = build_stage_game(mean_field(lattice, idx), 0, lookup, reference_sets, spec)
    for k in range(2):
        assert np.allclose(fast[k][0], slow.tensors[k], atol=1e-10)
