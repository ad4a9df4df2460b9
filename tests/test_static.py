import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamfield.errors import SpecParseError, SpecValidationError
from teamfield.static_games import (PAYOFF_TOL, StaticGame, load_static_game,
                                    load_static_game_file, pure_nash_static,
                                    static_report, team_deviation_witness,
                                    team_nash_static)

from conftest import DATA
from oracles import pure_nash_static_loop


@pytest.fixture(scope="module")
def matrix_game():
    return load_static_game_file(DATA / "matrix_team_example.json")


def test_matrix_example_pure_nash(matrix_game):
    assert pure_nash_static(matrix_game) == [
        (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_matrix_example_team_nash(matrix_game):
    assert team_nash_static(matrix_game) == [(0, 0, 0), (1, 0, 1)]


def test_matrix_example_report(matrix_game):
    rep = static_report(matrix_game)
    assert rep["name"] == "two-versus-one matrix example"
    assert rep["players"] == ["row", "column", "matrix"]
    assert rep["teams"] == [[0, 1], [2]]
    assert rep["pure_nash"] == [["T", "L", "I"], ["T", "R", "II"],
                                ["B", "L", "II"], ["B", "R", "I"]]
    assert rep["team_nash"] == [["T", "L", "I"], ["B", "L", "II"]]
    excluded = rep["nash_excluded_by_team_deviation"]
    assert len(excluded) == 2
    w = {tuple(e["profile"]): e for e in excluded}[("B", "R", "I")]
    assert w["team"] == 0
    assert w["deviation"] == ["T", "L", "I"]
    assert w["team_payoff_before"] == 2.0
    assert w["team_payoff_after"] == 6.0


def test_witness_on_stable_profile_is_none(matrix_game):
    assert team_deviation_witness(matrix_game, (0, 0, 0)) is None
    w = team_deviation_witness(matrix_game, (1, 1, 0))
    assert w["team"] == 0 and w["deviation"] == (0, 0, 0)


def _with_teams(game: StaticGame, teams):
    return StaticGame(payoffs=game.payoffs, team_partition=teams,
                      action_labels=game.action_labels,
                      player_names=game.player_names, name=game.name)


def test_singleton_teams_reduce_to_nash(matrix_game):
    solo = _with_teams(matrix_game, ((0,), (1,), (2,)))
    assert team_nash_static(solo) == pure_nash_static(solo)


@st.composite
def static_games(draw):
    """1-4 players with 1-3 actions each, payoffs in {0, 1, 2} * scale (the
    smaller scales put gaps at and below PAYOFF_TOL), random teams."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    n, size = len(shape), math.prod(shape)
    scale = draw(st.sampled_from([1.0, PAYOFF_TOL, 0.4 * PAYOFF_TOL]))
    payoffs = tuple(scale * np.array(draw(st.lists(st.integers(0, 2), min_size=size,
                                                    max_size=size)), dtype=float).reshape(shape)
                    for _ in range(n))
    team_of = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    teams = tuple(tuple(i for i in range(n) if team_of[i] == j) for j in sorted(set(team_of)))
    return StaticGame(payoffs=payoffs, team_partition=teams,
                      action_labels=tuple(tuple("a%d" % a for a in range(m)) for m in shape),
                      player_names=tuple("p%d" % i for i in range(n)))


@settings(max_examples=200, deadline=None)
@given(static_games())
def test_pure_nash_matches_the_unilateral_loop(game):
    assert pure_nash_static(game) == pure_nash_static_loop(game, PAYOFF_TOL)


def test_grand_team_maximizes_welfare(matrix_game):
    grand = _with_teams(matrix_game, ((0, 1, 2),))
    tne = team_nash_static(grand)
    welfare = sum(matrix_game.payoffs)
    best = np.max(welfare)
    assert tne
    for p in tne:
        assert welfare[p] == best


def test_all_zero_payoffs_keep_everything():
    zeros = tuple(np.zeros((2, 2)) for _ in range(2))
    game = StaticGame(payoffs=zeros, team_partition=((0,), (1,)),
                      action_labels=(("a", "b"), ("c", "d")),
                      player_names=("p0", "p1"))
    assert len(pure_nash_static(game)) == 4
    assert len(team_nash_static(game)) == 4


def test_positive_affine_invariance(matrix_game):
    scaled = StaticGame(
        payoffs=tuple(2.0 * t + 7.0 for t in matrix_game.payoffs),
        team_partition=matrix_game.team_partition,
        action_labels=matrix_game.action_labels,
        player_names=matrix_game.player_names)
    assert pure_nash_static(scaled) == pure_nash_static(matrix_game)
    assert team_nash_static(scaled) == team_nash_static(matrix_game)


def test_shared_payoff_teams_nest_in_nash():
    """When teammates carry identical tensors a unilateral improvement is
    also a team improvement, so team stability implies Nash stability."""
    rng = np.random.default_rng(21)
    for _ in range(30):
        common = rng.integers(0, 10, size=(2, 2, 2)).astype(float)
        solo = rng.integers(0, 10, size=(2, 2, 2)).astype(float)
        game = StaticGame(payoffs=(common, common, solo),
                          team_partition=((0, 1), (2,)),
                          action_labels=(("0", "1"),) * 3,
                          player_names=("a", "b", "c"))
        assert set(team_nash_static(game)) <= set(pure_nash_static(game))


def test_ties_are_not_deviations():
    flat = tuple(np.full((2, 2), 5.0) for _ in range(2))
    game = StaticGame(payoffs=flat, team_partition=((0, 1),),
                      action_labels=(("x", "y"), ("x", "y")),
                      player_names=("p0", "p1"))
    assert len(team_nash_static(game)) == 4


def test_static_game_validation(matrix_game):
    with pytest.raises(SpecValidationError):
        StaticGame(payoffs=(np.zeros((2, 3)), np.zeros((2, 2))),
                   team_partition=((0,), (1,)),
                   action_labels=(("a", "b"), ("c", "d")),
                   player_names=("p0", "p1"))
    with pytest.raises(SpecValidationError):
        _with_teams(matrix_game, ((0, 1), (1, 2)))
    with pytest.raises(SpecValidationError):
        StaticGame(payoffs=(np.array([[np.inf, 0.0], [0.0, 0.0]]),
                            np.zeros((2, 2))),
                   team_partition=((0,), (1,)),
                   action_labels=(("a", "b"), ("c", "d")),
                   player_names=("p0", "p1"))


def test_load_static_game_errors():
    with pytest.raises(SpecParseError):
        load_static_game("{not json")
    with pytest.raises(SpecParseError):
        load_static_game("[1, 2]")
    with pytest.raises(SpecParseError):
        load_static_game({"players": [], "payoffs": []})


def test_load_static_game_defaults():
    game = load_static_game({
        "players": [{"actions": ["l", "r"]}, {"actions": ["l", "r"]}],
        "payoffs": [[[1, 0], [0, 0]], [[1, 0], [0, 0]]],
        "teams": [[0], [1]],
    })
    assert game.player_names == ("player 0", "player 1")
    assert game.name == ""
    assert pure_nash_static(game) == [(0, 0), (1, 1)]
