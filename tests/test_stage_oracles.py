"""The stage-game solvers against their slow exact forms.

Support enumeration skips conditionally dominated support pairs and the
x solves of row supports beaten against their y; it must return what the
unpruned scan returns. Own-cost vectors are contracted without
``np.tensordot``; they must be what its chain gives, and the certificate
read at their argmins what it gives at their minima. The continuation
contraction reuses one einsum path per operand shapes; it must be what
``np.einsum(..., optimize=True)`` gives. Fictitious
play certifies its mixtures from its own-cost history and its pure
profiles by indexing, once per block of rounds; it must return what
re-certifying every profile round by round returns. The backward driver solves the pure
stage games of a stage in one pass; it must return what ``solve_stage``
returns point by point, and its pure mask what the profile-by-profile
check lists. All are compared bitwise.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import teamfield as tf
from teamfield import stage_game
from teamfield.errors import (EquilibriumNotFoundError, NoPureEquilibriumError,
                              SpecValidationError)
from teamfield.stage_game import (CERT_TOL, PURE_TOL, StageEquilibrium, StageGame, _contract,
                                  _contract_operands, _contraction_plan, _one_hot,
                                  _pure_mask, _run_plan, _solve_points, br_iteration,
                                  certify_epsilon, mixed_nash_2team, solve_stage)

import oracles
from conftest import cyclic_pursuit_three_team, perfbench_gen
from oracles import (br_iteration_recertified, certify_epsilon_tensordot,
                     mixed_nash_2team_unpruned, own_cost_vector_tensordot, stage_pure_nash_loop)

PAYOFFS = ("normal", "integer", "duplicated", "constant")


def _payoffs(rng, kind, shape):
    """One cost tensor: continuous, small integers (exact ties), rows and
    columns repeated from a few originals, or constant."""
    if kind == "normal":
        return rng.normal(size=shape)
    if kind == "integer":
        return rng.integers(-2, 3, size=shape).astype(float)
    if kind == "constant":
        return np.full(shape, float(rng.integers(-3, 4)))
    X = rng.integers(-3, 4, size=tuple(min(n, 3) for n in shape)).astype(float)
    for axis, n in enumerate(shape):
        X = np.take(X, rng.integers(0, X.shape[axis], size=n), axis=axis)
    return X


def _game(tensors):
    return StageGame(tensors=tuple(tensors))


def _same(eq, ref):
    """Bitwise equal solutions; == alone would let -0.0 pass for 0.0."""
    assert eq.mixed == ref.mixed
    assert eq.epsilon == ref.epsilon and np.signbit(eq.epsilon) == np.signbit(ref.epsilon)
    assert len(eq.weights) == len(ref.weights)
    for mine, theirs in zip(eq.weights, ref.weights):
        assert np.array_equal(mine, theirs)
    assert np.array_equal(eq.values, ref.values)
    assert np.array_equal(np.signbit(eq.values), np.signbit(ref.values))


def _at(stage, values, idx):
    """The solution that a stage record array of _solve_points and its
    values hold at idx."""
    rec = stage[idx]
    return StageEquilibrium(bool(rec.mixed), float(rec.epsilon),
                            tuple(rec[w] for w in rec.dtype.names[2:]),
                            values[(slice(None),) + tuple(idx)])


def _solve_or_error(solver, game):
    try:
        return solver(game)
    except EquilibriumNotFoundError:
        return None


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 9), st.integers(1, 9), st.sampled_from(PAYOFFS),
       st.integers(0, 2 ** 32 - 1))
def test_pruned_support_enumeration_matches_the_full_scan(n1, n2, kind, seed):
    rng = np.random.default_rng(seed)
    game = _game([_payoffs(rng, kind, (n1, n2)) for _ in range(2)])
    eq = _solve_or_error(mixed_nash_2team, game)
    ref = _solve_or_error(mixed_nash_2team_unpruned, game)
    assert (eq is None) == (ref is None)
    if ref is not None:
        _same(eq, ref)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 9), st.integers(1, 9), st.sampled_from(PAYOFFS),
       st.sampled_from([1, 7, 40, 300]), st.integers(0, 2 ** 32 - 1))
def test_support_enumeration_in_small_blocks_matches_the_full_scan(n1, n2, kind, budget, seed):
    """With a block budget of a few entries every level splits into many
    blocks of supports and pairs (a budget of 1 leaves one support per
    block, larger ones also cut a level's pair table into blocks of row
    supports); the kept pairs must still be visited in the full scan's
    order, so the result is bitwise the unpruned scan's."""
    rng = np.random.default_rng(seed)
    game = _game([_payoffs(rng, kind, (n1, n2)) for _ in range(2)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stage_game, "STORE_BLOCK_ENTRIES", budget)
        eq = _solve_or_error(mixed_nash_2team, game)
    ref = _solve_or_error(mixed_nash_2team_unpruned, game)
    assert (eq is None) == (ref is None)
    if ref is not None:
        _same(eq, ref)


def test_support_enumeration_skips_the_x_solve_of_a_beaten_row_support(monkeypatch):
    """No pure equilibrium. The pair ({0, 1}, {0, 1}) survives dominance
    pruning, and its y = (1/3, 2/3) makes rows 0 and 1 cost 4/3 each while
    row 2 costs 1: no mixture on {0, 1} is a best reply, so its x solve is
    skipped. The next pair ({0, 2}, {0, 1}) is certified. The unpruned
    scan solves every pair up to it and returns the same equilibrium."""
    A = np.array([[0.0, 2.0], [2.0, 1.0], [1.0, 1.0]])
    B = np.array([[2.0, 1.0], [1.0, 2.0], [1.0, 2.0]])
    game = _game([A, B])
    solves = []

    def counted(M, size):
        solves.append(M.tolist())
        return solve(M, size)

    solve = stage_game._indifference_solve
    monkeypatch.setattr(stage_game, "_indifference_solve", counted)
    eq = mixed_nash_2team(game)
    assert solves == [A[:2].tolist(), A[[0, 2]].tolist(), B[[0, 2]].T.tolist()]
    mine = len(solves)
    monkeypatch.setattr(oracles, "_indifference_solve", counted)
    ref = mixed_nash_2team_unpruned(game)
    assert mine < len(solves) - mine
    _same(eq, ref)
    assert eq.mixed and eq.epsilon <= 1e-15
    assert np.allclose(eq.weights[0], [0.5, 0.0, 0.5]) and np.allclose(eq.weights[1], 0.5)


def _full_support_game():
    """Zero-sum 5 x 5 rock-paper-scissors extension whose only equilibrium
    has full support 5 > DEFAULT_SUPPORT_BOUND."""
    n = 5
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i + 1) % n], A[i, (i + 2) % n] = 1.0, -1.0
        A[i, (i + 3) % n], A[i, (i + 4) % n] = 1.0, -1.0
    return _game([A, -A])


def test_pruned_support_enumeration_reports_the_same_failure():
    """Both scans exhaust on a game whose only equilibrium needs support 5."""
    game = _full_support_game()
    for solver in (mixed_nash_2team, mixed_nash_2team_unpruned):
        with pytest.raises(EquilibriumNotFoundError):
            solver(game)


def test_two_team_stage_falls_back_to_fictitious_play(monkeypatch):
    """When support enumeration exhausts, solve_stage and the backward
    driver's point solve return fictitious play's profile; under pure_only
    the driver raises before any fallback runs."""
    game = _full_support_game()
    ref = br_iteration(game)
    calls = []
    monkeypatch.setattr(stage_game, "br_iteration", lambda g: calls.append(g) or br_iteration(g))
    _same(solve_stage(game), ref)
    tensors = [X[None] for X in game.tensors]
    eqs, values = _solve_points(tensors, 0, (1,), ["z"], False)
    _same(_at(eqs, values, (0,)), ref)
    assert len(calls) == 2

    def fallback(game):
        raise AssertionError("a fallback ran under pure_only")

    monkeypatch.setattr(stage_game, "mixed_nash_2team", fallback)
    monkeypatch.setattr(stage_game, "br_iteration", fallback)
    with pytest.raises(NoPureEquilibriumError):
        _solve_points(tensors, 0, (1,), ["z"], True)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(3, 4), st.sampled_from(PAYOFFS), st.integers(0, 2 ** 32 - 1))
def test_fictitious_play_matches_the_recertifying_loop(K, kind, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(1, 5, size=K))
    game = _game([_payoffs(rng, kind, shape) for _ in range(K)])
    _same(br_iteration(game), br_iteration_recertified(game))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.sampled_from(PAYOFFS),
       st.integers(0, 2 ** 32 - 1))
@example([3, 1, 4], "normal", 0)
def test_own_cost_vector_matches_the_tensordot_chain(shape, kind, seed):
    rng = np.random.default_rng(seed)
    tensor = _payoffs(rng, kind, tuple(shape))
    weights = [rng.dirichlet(np.ones(n)) for n in shape]
    for k in range(len(shape)):
        mine = _run_plan(_contraction_plan(tensor, k), weights)
        ref = own_cost_vector_tensordot(tensor, weights, k)
        assert mine.shape == ref.shape == (shape[k],)
        assert np.array_equal(mine, ref)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.sampled_from(PAYOFFS),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_certify_epsilon_at_the_argmins_matches_the_minima(shape, kind, pure, seed):
    """Pure and mixed profiles, with ties and constant tensors, where the
    argmin entry and the minimum may differ in the sign of zero."""
    rng = np.random.default_rng(seed)
    game = _game([_payoffs(rng, kind, tuple(shape)) for _ in shape])
    if pure:
        weights = _one_hot(shape, [rng.integers(n) for n in shape])
    else:
        weights = tuple(rng.dirichlet(np.ones(n)) for n in shape)
    eps, values = certify_epsilon(game, weights)
    ref, ref_values = certify_epsilon_tensordot(game, weights)
    assert eps == ref and np.signbit(eps) == np.signbit(ref)
    assert np.array_equal(values, ref_values)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
def test_contract_with_the_cached_path_matches_the_searched_one(K, P, lead, seed):
    """Kernel stacks over menus of 1 to 4 items (1: a policy's averaged
    kernels) against values with no leading axis, a per-team one as the
    backward driver passes, or two. Called twice, so the second call reads
    the cached path."""
    rng = np.random.default_rng(seed)
    menus, lattice = rng.integers(1, 5, size=K), rng.integers(1, 5, size=K)
    Ws = [rng.dirichlet(np.ones(L), size=(P, m)) for m, L in zip(menus, lattice)]
    V = rng.normal(size=(K,) * lead + tuple(lattice))
    ref = np.einsum(*_contract_operands(Ws, V), optimize=True)
    for _ in range(2):
        out = _contract(Ws, V)
        assert out.shape == V.shape[:lead] + (P,) + tuple(menus)
        assert np.array_equal(out, ref)


# first and last rounds of the doubling certification blocks 1, 2-3, 4-7, ...
BLOCK_EDGES = [2 ** b + d for b in range(1, 9) for d in (-1, 0)]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 4), st.one_of(st.sampled_from(BLOCK_EDGES), st.integers(1, 300)),
       st.sampled_from(PAYOFFS + ("common",)), st.integers(0, 2 ** 32 - 1))
def test_fictitious_play_matches_the_recertifying_loop_at_every_length(K, rounds, kind, seed):
    """Any round budget, certifying early or not: "common" games give
    every team the same cost tensor, where play reaches a pure
    equilibrium after a few rounds."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(1, 6, size=K))
    if kind == "common":
        tensors = [_payoffs(rng, "normal", shape)] * K
    else:
        tensors = [_payoffs(rng, kind, shape) for _ in range(K)]
    game = _game(tensors)
    _same(br_iteration(game, max_iters=rounds),
          br_iteration_recertified(game, max_iters=rounds))


@pytest.mark.parametrize("doc", [lambda: perfbench_gen().cyclic_pursuit(1),
                                 cyclic_pursuit_three_team], ids=["benchmark", "conftest"])
def test_fictitious_play_on_the_cyclic_pursuit_games_matches_the_recertifying_loop(monkeypatch,
                                                                                   doc):
    """Every fictitious-play game that solve_mpe meets on the three-team
    cyclic pursuit games, the benchmark's and the test suite's, is solved
    bitwise as the round-by-round loop solves it. Some of them never
    certify, so they play all 200 rounds and the last block of rounds
    (127-199) runs cut at the round budget."""
    games = []
    monkeypatch.setattr(stage_game, "br_iteration", lambda g: games.append(g) or br_iteration(g))
    spec = tf.load_spec(doc())
    tf.solve_mpe(spec, tuple(tf.build_prescription_set(spec, k) for k in range(3)))
    eqs = [br_iteration(g) for g in games]
    assert any(eq.epsilon > CERT_TOL for eq in eqs)
    for game, eq in zip(games, eqs):
        _same(eq, br_iteration_recertified(game))


def test_fictitious_play_stops_at_the_certifying_round_inside_a_block():
    """Round 2 certifies a pure profile at epsilon 2**-31 and round 3, in
    the same block of rounds, would offer one at epsilon 0: play stops at
    round 2, as the round-by-round rule does."""
    whole = [[[[1, 0], [1, 0]], [[0, 1], [1, 0]]],
             [[[2, 2], [1, 1]], [[0, 2], [1, 2]]],
             [[[0, 1], [2, 1]], [[2, 2], [2, 2]]]]
    tiny = [[[[1, 0], [0, 1]], [[1, 1], [0, 1]]],
            [[[0, 0], [0, 0]], [[1, 0], [0, 1]]],
            [[[0, 1], [1, 1]], [[0, 0], [0, 1]]]]
    game = _game([np.add(W, 2.0 ** -31 * np.array(D)) for W, D in zip(whole, tiny)])
    eq = br_iteration(game)
    assert not eq.mixed and eq.epsilon == 2.0 ** -31
    assert [w.tolist() for w in eq.weights] == [[0.0, 1.0]] * 3
    _same(eq, br_iteration_recertified(game))


TIE_GAMES = [
    # round 2's running mixtures tie round 1's uniform ones at epsilon 4/9
    (2, [[[2, 0, 0], [-1, 0, 1], [-1, 0, 2]], [[-1, -2, 0], [-1, 1, -2], [2, -1, -1]]]),
    # a later pure best-reply profile ties the first one at epsilon 1
    (4, [[[[-1, 2, 1], [-2, -1, 0]], [[0, -2, -1], [2, 1, 2]]],
         [[[0, 2, 1], [0, 2, -2]], [[-2, -2, -2], [1, 0, -2]]],
         [[[-1, -2, 2], [-1, -2, 2]], [[0, 1, 2], [-1, -2, -1]]]]),
]


@pytest.mark.parametrize("rounds, tensors", TIE_GAMES)
def test_fictitious_play_keeps_the_first_of_equal_profiles(rounds, tensors):
    """Among visited profiles with the same epsilon and kind, the earliest
    is returned, as the recertifying loop's (epsilon, pure first, order)
    rank does."""
    game = _game([np.array(T, dtype=float) for T in tensors])
    _same(br_iteration(game, max_iters=rounds),
          br_iteration_recertified(game, max_iters=rounds))


def _stage_tensors(rng, K, P):
    """(P, *menu shape) tensors over menus of 1 to 3 items, on a coarse
    integer grid shifted by less than PURE_TOL, so pure checks meet ties
    inside the tolerance. At about 40% of the points a parity cycle
    replaces them: team k pays 1 unless it matches team k+1's parity, the
    last team unless it differs from team 0's, so no pure equilibrium
    exists there unless a one-item menu breaks the cycle."""
    shape = tuple(int(n) for n in rng.integers(1, 4, size=K))
    tensors = [rng.integers(0, 3, size=(P,) + shape) + rng.uniform(0, PURE_TOL, (P,) + shape)
               for _ in range(K)]
    parity = np.indices(shape) % 2
    for p in np.flatnonzero(rng.random(P) < 0.4):
        for k, X in enumerate(tensors):
            X[p] = (parity[k] != parity[(k + 1) % K]) ^ (k == K - 1)
    return tensors


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(2, 3), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_pure_pass_matches_solve_stage_point_by_point(K, P, seed):
    rng = np.random.default_rng(seed)
    tensors = _stage_tensors(rng, K, P)
    points_shape = (P,) if P % 2 else (2, P // 2)
    label = lambda idx: "z%s" % (idx,)
    ids = [label(idx) for idx in np.ndindex(points_shape)]
    eqs, values = _solve_points(tensors, 1, points_shape, ids, False)
    assert eqs.shape == points_shape and values.shape == (K,) + points_shape
    for p, idx in enumerate(np.ndindex(points_shape)):
        game = _game([X[p] for X in tensors])
        pure = stage_pure_nash_loop(game)
        if pure:
            weights = _one_hot(game.shape, pure[0])
            eps, vals = certify_epsilon(game, weights)
            ref = StageEquilibrium(False, eps, weights, vals)
        else:
            ref = solve_stage(game)
        _same(_at(eqs, values, idx), ref)
        _same(solve_stage(game), ref)

    mask = _pure_mask(tensors)
    assert all([tuple(int(i) for i in idx) for idx in np.argwhere(mask[p])]
               == stage_pure_nash_loop(_game([X[p] for X in tensors])) for p in range(P))
    first = next((idx for p, idx in enumerate(np.ndindex(points_shape))
                  if not stage_pure_nash_loop(_game([X[p] for X in tensors]))), None)
    if first is None:
        _solve_points(tensors, 1, points_shape, ids, True)
        return
    with pytest.raises(NoPureEquilibriumError) as err:
        _solve_points(tensors, 1, points_shape, ids, True)
    assert (err.value.stage, err.value.z) == (1, label(first))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_pure_pass_rejects_non_finite_tensors(bad):
    rng = np.random.default_rng(0)
    tensors = _stage_tensors(rng, 2, 4)
    tensors[1][3, 0, 1] = bad
    with pytest.raises(SpecValidationError):
        _solve_points(tensors, 0, (4,), list("abcd"), False)


def test_pure_pass_values_keep_the_sign_of_zero_of_the_contraction():
    """A pure profile whose costs are -0.0 gets the +0.0 values that the
    one-hot contraction of certify_epsilon gives, in the backward driver's
    pure pass and in solve_stage."""
    A = np.array([[-0.0, 1.0], [2.0, 3.0]])
    B = np.array([[-0.0, -0.0], [1.0, 1.0]])
    eqs, values = _solve_points([A[None], B[None]], 0, (1,), ["z"], False)
    game = _game([A, B])
    eq = _at(eqs, values, (0,))
    _, ref = certify_epsilon(game, eq.weights)
    assert not eq.mixed and [w.tolist() for w in eq.weights] == [[1.0, 0.0]] * 2
    assert np.array_equal(values[:, 0], ref)
    _same(solve_stage(game), eq)
    assert not np.signbit(ref).any() and not np.signbit(values).any()
