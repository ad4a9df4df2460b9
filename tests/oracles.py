"""Slow reference implementations that fast paths in ``src/`` are tested
against."""

import numpy as np


def frequencies_loop(keys_per_team) -> dict:
    """{per-team count tuples: number of samples}, one sample at a time,
    keyed in order of first occurrence: the counting loop that
    ``simulate._frequencies`` replaces."""
    samples = len(keys_per_team[0])
    freq = {}
    for i in range(samples):
        key = tuple(tuple(int(x) for x in keys[i]) for keys in keys_per_team)
        freq[key] = freq.get(key, 0) + 1
    return freq


def pure_nash_static_loop(game, tol) -> list:
    """Profiles where no single player gains more than ``tol`` by a
    unilateral switch, lexicographic order: the loop that
    ``static_games.pure_nash_static`` replaced by the team check on
    singleton teams."""
    out = []
    for profile in np.ndindex(game.shape):
        stable = True
        for i in range(game.n_players):
            line = game.payoffs[i][profile[:i] + (slice(None),) + profile[i + 1:]]
            if np.max(line) > game.payoffs[i][profile] + tol:
                stable = False
                break
        if stable:
            out.append(profile)
    return out
