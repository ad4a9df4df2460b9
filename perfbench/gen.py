"""Seeded game generators for the benchmark workloads.

Each generator returns a game document (the JSON schema that
``teamfield.model.load_spec`` reads). The same seed always gives the same
document, and ``dump`` serializes it byte-identically, so the program only
ever sees inputs that the seed fixes.

The seed fills in the numbers of a fixed structure: the structure decides
which layer a workload stresses and how much work it does, the seed only
perturbs probabilities and costs inside ranges that keep that property.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCE_GAME = (Path(__file__).resolve().parents[1] / "src" / "teamfield" / "data"
                  / "two_team_reference.json")


def _rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), *label.encode("utf-8")])


def dump(doc) -> str:
    """Canonical JSON text of a game document."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _rows(w: np.ndarray) -> list:
    """Normalize the last axis to probabilities and convert to lists."""
    return (w / w.sum(axis=-1, keepdims=True)).tolist()


def _jitter(rng, size=None) -> np.ndarray:
    """Seeded factors in [1, 1.01): small enough that the seed changes the
    numbers of a game but not which stage games lack a pure equilibrium."""
    return 1.0 + 0.01 * rng.random(size)


def _ring_moves(rng, S: int, A: int, slip: float) -> np.ndarray:
    """(S, A, S) kernel on a ring: action a moves a steps clockwise with
    probability 1 - slip; the slip mass spreads over the other states with
    seeded weights, so every entry is positive."""
    w = np.empty((S, A, S))
    for s in range(S):
        for a in range(A):
            noise = _jitter(rng, S)
            noise[(s + a) % S] = 0.0
            w[s, a] = slip * noise / noise.sum()
            w[s, a, (s + a) % S] = 1.0 - slip
    return w


def exact_pure(seed: int) -> dict:
    """Two teams, S=3 states, A=2 actions, horizon 2, N=3 agents per team,
    whose stage games all have a pure equilibrium.

    Transitions couple only to the team's own occupancy, and the cost
    coupling to the other team does not depend on the agent's own state
    or action. Each team's value then splits into a part driven by its own
    counts and a part driven by the other team's counts, so every stage
    game is ``own(i_k) + other(i_j)`` for each team k and the profile of
    per-team minimizers is always a pure equilibrium. Every transition
    probability is at least 0.05, so count-kernel supports are full and
    kernel work does not depend on the seed.
    """
    rng = _rng(seed, "exact-pure")
    S, A, T, N = 3, 2, 2, 3
    teams = []
    for k in range(2):
        base = 0.1 + rng.random((S, A, S))
        for s in range(S):
            for a in range(A):
                base[s, a, (s + a) % S] += 1.5       # actions steer on a ring
        base /= base.sum(axis=-1, keepdims=True)
        trans_coup = []
        for s in range(S):
            for a in range(A):
                v = float(0.05 * rng.random() * base[s, a, s])
                # crowding at s pushes agents one step on
                trans_coup.append({"s": s, "a": a, "s'": s, "team": k,
                                   "sigma": s, "value": -v})
                trans_coup.append({"s": s, "a": a, "s'": (s + 1) % S,
                                   "team": k, "sigma": s, "value": v})
        cost_coup = []
        for t in range(T):
            cross = rng.uniform(-0.5, 0.5, S)
            for s in range(S):
                for a in range(A):
                    cost_coup.append({"t": t, "s": s, "a": a, "team": k,
                                      "sigma": s, "value": float(0.5 * rng.random())})
                    for sig in range(S):
                        cost_coup.append({"t": t, "s": s, "a": a, "team": 1 - k,
                                          "sigma": sig, "value": float(cross[sig])})
        teams.append({
            "states": ["s%d" % s for s in range(S)],
            "actions": ["a%d" % a for a in range(A)],
            "population": N,
            "initial_law": _rows(0.5 + rng.random(S)),
            "transition": {"base": base.tolist(), "coupling": trans_coup},
            "cost": {"base": rng.random((T, S, A)).tolist(), "coupling": cost_coup},
        })
    return {"horizon": T, "seed": int(seed), "teams": teams}


def pursuit_evasion(seed: int) -> dict:
    """Team 0 pursues team 1 on a ring of S=3 positions, with A=2 actions,
    horizon 3 and N=1 agent per team.

    Actions move 0..A-1 steps clockwise with a seeded slip. At every stage
    a pursuer agent pays minus the evader mass at its position and an
    evader agent pays the pursuer mass at its position, plus a small move
    cost, so most stage-0 games are matching-pennies-like and have no pure
    equilibrium. The seed perturbs slips, move costs and initial laws.
    """
    rng = _rng(seed, "pursuit-evasion")
    S, A, T, N = 3, 2, 3, 1
    teams = []
    for k in range(2):
        slip = 0.15 * _jitter(rng)
        move_cost = 0.05 * _jitter(rng, A)
        move_cost[0] = 0.0
        cbase = np.broadcast_to(move_cost, (T, S, A)).copy()
        sign = -1.0 if k == 0 else 1.0
        scale = _jitter(rng, T)
        coup = [{"t": t, "s": s, "a": a, "team": 1 - k, "sigma": s,
                 "value": float(sign * scale[t])}
                for t in range(T) for s in range(S) for a in range(A)]
        teams.append({
            "states": ["p%d" % s for s in range(S)],
            "actions": ["step%d" % a for a in range(A)],
            "population": N,
            "initial_law": _rows(_jitter(rng, S)),
            "transition": {"base": _ring_moves(rng, S, A, slip).tolist()},
            "cost": {"base": cbase.tolist(), "coupling": coup},
        })
    return {"horizon": T, "seed": int(seed), "teams": teams}


def cyclic_pursuit(seed: int) -> dict:
    """Three teams on a ring of S=2 positions, with A=2 actions, horizon 2
    and N=1 agent per team; team k chases team k+1 and flees team k-1
    (indices mod 3).

    The cyclic preferences leave most stage-0 games without a pure
    equilibrium, and with three teams support enumeration does not apply,
    so the solver falls back to fictitious play. The seed perturbs slips,
    move costs and initial laws.
    """
    rng = _rng(seed, "cyclic-pursuit")
    K, S, A, T, N = 3, 2, 2, 2, 1
    out = []
    for k in range(K):
        slip = 0.1 * _jitter(rng)
        move_cost = 0.02 * _jitter(rng, A)
        move_cost[0] = 0.0
        cbase = np.broadcast_to(move_cost, (T, S, A)).copy()
        sign = 1.0 if k == K - 1 else -1.0
        scale = _jitter(rng, T)
        coup = []
        for t in range(T):
            for s in range(S):
                for a in range(A):
                    coup.append({"t": t, "s": s, "a": a, "team": (k + 1) % K,
                                 "sigma": s, "value": float(sign * scale[t])})
        out.append({
            "states": ["c%d" % s for s in range(S)],
            "actions": ["step%d" % a for a in range(A)],
            "population": N,
            "initial_law": _rows(_jitter(rng, S)),
            "transition": {"base": _ring_moves(rng, S, A, slip).tolist()},
            "cost": {"base": cbase.tolist(), "coupling": coup},
        })
    return {"horizon": T, "seed": int(seed), "teams": out}


def reference(seed: int, population: int) -> dict:
    """The shipped two-team reference game with every team population set
    to ``population`` and the game seed set to ``seed``."""
    doc = json.loads(REFERENCE_GAME.read_text())
    for team in doc["teams"]:
        team["population"] = int(population)
    doc["seed"] = int(seed)
    return doc


# workload -> input file stem -> generator of its document
INPUTS = {
    "exact-pure": {"pure": exact_pure},
    "exact-mixed": {"pursuit": pursuit_evasion, "cyclic": cyclic_pursuit},
    "limit-bound": {"reference": lambda seed: reference(seed, 16)},
    "agent-sim": {"reference": lambda seed: reference(seed, 8)},
}


def write_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's game files; return {stem: sha256 of the file}."""
    out = {}
    for stem, make in INPUTS[workload].items():
        text = dump(make(seed))
        (Path(workdir) / ("%s.json" % stem)).write_text(text)
        out[stem] = hashlib.sha256(text.encode()).hexdigest()
    return out
