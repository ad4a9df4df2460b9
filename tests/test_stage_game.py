import itertools

import numpy as np
import pytest

import teamfield as tf
from teamfield.errors import CapacityError, NoPureEquilibriumError
from teamfield.stage_game import (StageEquilibrium, StageGame, br_iteration,
                                  build_prescription_set, certify_epsilon,
                                  mixed_nash_2team, pure_nash,
                                  select_equilibrium, solve_stage)


def game2(A, B):
    return StageGame(tensors=(np.asarray(A, dtype=float),
                              np.asarray(B, dtype=float)),
                     sets=(None, None))


def test_prescription_sets_pure(reference_spec):
    ps = build_prescription_set(reference_spec, 0)
    assert len(ps.items) == 4          # |A|^|S| = 2^2
    assert all(g.is_deterministic() for g in ps.items)
    # itertools.product order over per-state action picks
    expected = [((1, 0), (1, 0)), ((1, 0), (0, 1)),
                ((0, 1), (1, 0)), ((0, 1), (0, 1))]
    got = [tuple(tuple(int(x) for x in r) for r in g.rows) for g in ps.items]
    assert got == expected


def test_prescription_sets_gridded(reference_spec):
    ps = build_prescription_set(reference_spec, 0, mode="gridded", g=2)
    assert len(ps.items) == 9          # 3 rows per state, 2 states
    for g in ps.items:
        assert np.allclose(g.rows.sum(axis=1), 1.0)
        assert np.all(g.rows * 2 == np.rint(g.rows * 2))


def test_prescription_cap(reference_spec):
    with pytest.raises(CapacityError):
        build_prescription_set(reference_spec, 0, cap=3)
    with pytest.raises(CapacityError):
        build_prescription_set(reference_spec, 0, mode="gridded", g=2, cap=8)


def test_pure_nash_simple_games():
    # dominant-strategy game: both prefer index 0
    g = game2([[0.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]])
    assert pure_nash(g) == [(0, 0)]
    # coordination game has two pure equilibria, lexicographic order
    g = game2([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]])
    assert pure_nash(g) == [(0, 0), (1, 1)]
    # matching pennies has none
    g = game2([[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    assert pure_nash(g) == []


def test_pure_nash_three_teams():
    sh = (2, 2, 2)
    base = np.ones(sh)
    base[1, 1, 1] = 0.0
    g = StageGame(tensors=(base, base.copy(), base.copy()),
                  sets=(None, None, None))
    assert (1, 1, 1) in pure_nash(g)


def test_certify_epsilon_exact():
    g = game2([[0.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]])
    eq = StageEquilibrium(kind="pure", per_team=(0, 0), epsilon=0.0)
    assert certify_epsilon(g, eq) == 0.0
    bad = StageEquilibrium(kind="pure", per_team=(1, 1), epsilon=0.0)
    assert certify_epsilon(g, bad) == pytest.approx(1.0)


def test_mixed_nash_matching_pennies():
    g = game2([[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    eq = mixed_nash_2team(g)
    assert eq.kind == "mixed"
    for v in eq.per_team:
        assert np.allclose(v, [0.5, 0.5], atol=1e-9)
    assert eq.epsilon <= 1e-9


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
    assert np.allclose(eq.per_team[0], [0.75, 0.25], atol=1e-8)
    assert np.allclose(eq.per_team[1], [0.5, 0.5], atol=1e-8)


def test_mixed_nash_returns_pure_when_it_exists():
    g = game2([[0.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]])
    eq = mixed_nash_2team(g)
    assert eq.kind == "pure"
    assert eq.per_team == (0, 0)


def test_br_iteration_common_interest():
    sh = (3, 3, 3)
    base = np.ones(sh)
    base[2, 0, 1] = -1.0
    g = StageGame(tensors=(base, base.copy(), base.copy()),
                  sets=(None, None, None))
    eq = br_iteration(g)
    assert eq.epsilon <= 1e-9
    assert eq.kind == "pure"
    assert eq.per_team == (2, 0, 1)


def test_br_iteration_reports_best_visited():
    # pennies for 2 teams through the generic path: no convergence to 0,
    # but epsilon of the returned profile must be the certified minimum
    g = game2([[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    eq = br_iteration(g, max_iters=400)
    assert eq.epsilon == pytest.approx(certify_epsilon(g, eq), abs=1e-15)
    assert eq.epsilon < 0.51


def test_select_equilibrium_prefers_pure_then_lex():
    pure_a = StageEquilibrium(kind="pure", per_team=(1, 0), epsilon=0.0)
    pure_b = StageEquilibrium(kind="pure", per_team=(0, 1), epsilon=0.0)
    mixed = StageEquilibrium(kind="mixed",
                             per_team=(np.array([0.5, 0.5]),
                                       np.array([0.5, 0.5])),
                             epsilon=0.0)
    got = select_equilibrium([mixed, pure_a, pure_b])
    assert got.kind == "pure" and got.per_team == (0, 1)
    with pytest.raises(ValueError):
        select_equilibrium([])
    # two pure equilibria, the first one only within PURE_TOL: solve_stage
    # returns select_equilibrium's choice among them with its epsilon
    g = game2([[5e-13, 1.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]])
    assert pure_nash(g) == [(0, 0), (1, 1)]
    chosen = select_equilibrium([StageEquilibrium(kind="pure", per_team=p, epsilon=0.0)
                                 for p in pure_nash(g)])
    eq = solve_stage(g, 0, "z")
    assert eq.kind == "pure" and eq.per_team == chosen.per_team
    assert eq.epsilon == certify_epsilon(g, chosen) > 0.0


def test_solve_stage_pure_only_raises():
    g = game2([[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NoPureEquilibriumError):
        solve_stage(g, 0, "z", pure_only=True)
    eq = solve_stage(g, 0, "z")
    assert eq.kind == "mixed" and eq.epsilon <= 1e-9


def test_build_stage_game_terminal_matches_stage_costs(reference_spec,
                                                       reference_sets):
    from teamfield.counts import MeanField, stage_cost
    spec = reference_spec
    z = MeanField(per_team=(np.array([0.5, 0.5]), np.array([1.0, 0.0])))
    game = tf.build_stage_game(z, spec.horizon - 1, None, reference_sets, spec)
    for (i, j) in itertools.product(range(4), range(4)):
        assert game.tensors[0][i, j] == pytest.approx(
            stage_cost(z, reference_sets[0].items[i], spec, 0, 1), abs=1e-12)
        assert game.tensors[1][i, j] == pytest.approx(
            stage_cost(z, reference_sets[1].items[j], spec, 1, 1), abs=1e-12)


def test_build_stage_game_callable_matches_table(reference_spec,
                                                 reference_sets):
    """Continuation passed as an exact-summation callable must equal the
    einsum fast path over a tabulated continuation."""
    from teamfield.counts import MeanField
    from teamfield.finite_mpe import JointLattice
    from teamfield.stage_game import ContinuationTable, KernelCache
    spec = reference_spec
    lattice = JointLattice(spec)
    rng = np.random.default_rng(3)
    values = rng.normal(size=(2,) + lattice.shape)
    table = ContinuationTable(lattices=lattice.teams, values=values)
    cache = KernelCache(spec, reference_sets)

    def lookup(jc):
        idx = tuple(lattice.teams[i].index[jc.per_team[i].counts]
                    for i in range(2))
        return values[(slice(None),) + idx]

    z = lattice.mean_field((1, 1))
    fast = tf.build_stage_game(z, 0, table, reference_sets, spec,
                               kernel_cache=cache)
    slow = tf.build_stage_game(z, 0, lookup, reference_sets, spec)
    for k in range(2):
        assert np.allclose(fast.tensors[k], slow.tensors[k], atol=1e-10)
