"""Exhaustive equilibrium enumeration for static games among teams.

Players are partitioned into teams; a profile survives the team check
when no team can strictly raise its summed payoff by jointly reassigning
all of its members' actions. With singleton teams this degenerates to
ordinary pure Nash. Payoffs are maximized here (unlike the dynamic
modules, which minimize costs).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import SpecParseError, SpecValidationError
from .model import _count, _floats, _labels

PAYOFF_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class StaticGame:
    payoffs: tuple              # per player, tensor over joint actions
    team_partition: tuple       # tuple of tuples of player indices
    action_labels: tuple        # per player, tuple of labels
    player_names: tuple
    name: str = ""

    def __post_init__(self):
        shape = tuple(len(a) for a in self.action_labels)
        if len(self.payoffs) != len(shape):
            raise SpecValidationError("need one payoff tensor per player")
        for i, t in enumerate(self.payoffs):
            if t.shape != shape:
                raise SpecValidationError("payoff tensor of player %d has shape "
                                          "%s, expected %s" % (i, t.shape, shape))
            if not np.all(np.isfinite(t)):
                raise SpecValidationError("payoff tensor of player %d is not finite" % i)
        seen = sorted(i for team in self.team_partition for i in team)
        if seen != list(range(len(shape))):
            raise SpecValidationError("team partition must cover every player "
                                      "exactly once")

    @property
    def n_players(self):
        return len(self.payoffs)

    @property
    def shape(self):
        return tuple(len(a) for a in self.action_labels)

    def label(self, profile) -> tuple:
        return tuple(self.action_labels[i][a] for i, a in enumerate(profile))


def pure_nash_static(game: StaticGame) -> list:
    """Profiles where no single player gains strictly by a unilateral
    switch: the team check with every player a team of one. Returned in
    lexicographic profile order."""
    singletons = tuple((i,) for i in range(game.n_players))
    return team_nash_static(replace(game, team_partition=singletons))


def _team_sum(game: StaticGame, team, profile) -> float:
    return float(sum(game.payoffs[i][tuple(profile)] for i in team))


def team_deviation_witness(game: StaticGame, profile):
    """First team (and its joint reassignment) that strictly improves its
    summed payoff at ``profile``, or None when the profile is team-stable."""
    for ti, team in enumerate(game.team_partition):
        base = _team_sum(game, team, profile)
        for dev in itertools.product(*(range(game.shape[i]) for i in team)):
            cand = list(profile)
            for i, ai in zip(team, dev):
                cand[i] = ai
            cand = tuple(cand)
            if cand == tuple(profile):
                continue
            val = _team_sum(game, team, cand)
            if val > base + PAYOFF_TOL:
                return {"team": ti, "deviation": cand,
                        "payoff_before": base, "payoff_after": val}
    return None


def team_nash_static(game: StaticGame) -> list:
    """Profiles with no profitable joint team reassignment (summed-payoff
    criterion, exhaustive over every team and every reassignment)."""
    return [profile for profile in np.ndindex(game.shape)
            if team_deviation_witness(game, profile) is None]


def static_report(game: StaticGame) -> dict:
    """Both equilibrium sets with labels, plus a witnessing team deviation
    for every profile that is pure-Nash but not team-stable."""
    ne = pure_nash_static(game)
    tne = team_nash_static(game)
    excluded = []
    for profile in ne:
        if profile in tne:
            continue
        w = team_deviation_witness(game, profile)
        excluded.append({
            "profile": list(game.label(profile)),
            "team": w["team"],
            "deviation": list(game.label(w["deviation"])),
            "team_payoff_before": w["payoff_before"],
            "team_payoff_after": w["payoff_after"],
        })
    return {
        "name": game.name,
        "players": list(game.player_names),
        "teams": [list(team) for team in game.team_partition],
        "pure_nash": [list(game.label(p)) for p in ne],
        "team_nash": [list(game.label(p)) for p in tne],
        "nash_excluded_by_team_deviation": excluded,
    }


def load_static_game(document) -> StaticGame:
    """Read a static game from JSON: ``players`` (each with ``actions``
    and optional ``name``), ``payoffs`` (one nested list per player),
    ``teams`` (lists of 0-based player indices), optional ``name``."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as e:
            raise SpecParseError("not valid JSON: %s" % e) from None
    if not isinstance(document, dict):
        raise SpecParseError("top level must be an object")
    try:
        players = document["players"]
        payoffs = document["payoffs"]
        teams = document["teams"]
    except KeyError as e:
        raise SpecParseError("missing required key %s" % e) from None
    if not all(isinstance(x, list) for x in (players, payoffs, teams)):
        raise SpecParseError("'players', 'payoffs' and 'teams' must be lists")
    for i, p in enumerate(players):
        if not isinstance(p, dict) or not isinstance(p.get("actions"), list):
            raise SpecParseError("player %d must be an object with an 'actions' list" % i)
    labels = tuple(_labels(p["actions"], "player %d: 'actions'" % i)
                   for i, p in enumerate(players))
    names = tuple(str(p.get("name", "player %d" % i))
                  for i, p in enumerate(players))
    tensors = tuple(_floats(t, "player %d: payoffs" % i) for i, t in enumerate(payoffs))
    partition = []
    for i, team in enumerate(teams):
        try:
            partition.append(tuple(_count(p, "a player index", least=0) for p in team))
        except (TypeError, SpecValidationError):
            raise SpecParseError("team %d: player indices %r are not nonnegative integers"
                                 % (i, team)) from None
    return StaticGame(payoffs=tensors, team_partition=tuple(partition),
                      action_labels=labels, player_names=names,
                      name=str(document.get("name", "")))


def load_static_game_file(path) -> StaticGame:
    with open(path, "rb") as f:
        return load_static_game(f.read())
