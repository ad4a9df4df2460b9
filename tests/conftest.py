import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import teamfield as tf
from teamfield.counts import _count_laws, _mixture_rows
from teamfield.model import flatten_mean_field

DATA = Path(tf.__file__).parent / "data"


@pytest.fixture(scope="session")
def reference_spec():
    return tf.load_spec_file(DATA / "two_team_reference.json")


@pytest.fixture(scope="session")
def single_team_spec():
    return tf.load_spec_file(DATA / "single_team_small.json")


@pytest.fixture(scope="session")
def iid_probe_spec():
    return tf.load_spec_file(DATA / "iid_probe.json")


@pytest.fixture(scope="session")
def reference_sets(reference_spec):
    return tuple(tf.build_prescription_set(reference_spec, k)
                 for k in range(reference_spec.n_teams))


@pytest.fixture(scope="session")
def reference_solution(reference_spec, reference_sets):
    return tf.solve_mpe(reference_spec, reference_sets)


def minimal_team(population=1, horizon=1, p_rows=((0.5, 0.5), (0.5, 0.5)),
                 cost=0.0, initial=(1.0, 0.0)):
    """Single-team two-state one-action document for targeted edits."""
    return {
        "horizon": horizon,
        "teams": [{
            "states": ["s0", "s1"],
            "actions": ["a0"],
            "population": population,
            "initial_law": list(initial),
            "transition": {"base": [[list(p_rows[0])], [list(p_rows[1])]]},
            "cost": {"base": [[cost], [cost]]},
        }],
    }


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


def deterministic_two_team(horizon=2):
    """Two one-agent teams with action-deterministic moves; team 0 wants
    to co-locate with team 1 at the last stage, team 1 wants the
    opposite. No pure stage equilibrium at the first stage."""
    def team(initial, base, coupling):
        return {
            "states": ["s0", "s1"], "actions": ["go0", "go1"],
            "population": 1, "initial_law": initial,
            "transition": {"base": [[[1.0, 0.0], [0.0, 1.0]],
                                     [[1.0, 0.0], [0.0, 1.0]]]},
            "cost": {"base": base, "coupling": coupling},
        }
    zero = [[0.0, 0.0], [0.0, 0.0]]
    one = [[1.0, 1.0], [1.0, 1.0]]
    t_last = horizon - 1
    c0 = [{"t": t_last, "s": s, "a": a, "team": 1, "sigma": s, "value": -1.0}
          for s in (0, 1) for a in (0, 1)]
    c1 = [{"t": t_last, "s": s, "a": a, "team": 0, "sigma": s, "value": 1.0}
          for s in (0, 1) for a in (0, 1)]
    base0 = [zero] * (horizon - 1) + [one]
    return {"horizon": horizon, "seed": 3,
            "teams": [team([1.0, 0.0], base0, c0),
                      team([0.0, 1.0], [zero] * horizon, c1)]}


def identity_dynamics_spec(population=3, horizon=2, cost=1.0):
    """Agents never move and pay a constant cost; closed-form everything."""
    return {
        "horizon": horizon,
        "teams": [{
            "states": ["s0", "s1"], "actions": ["a0"],
            "population": population,
            "initial_law": [0.5, 0.5],
            "transition": {"base": [[[1.0, 0.0]], [[0.0, 1.0]]]},
            "cost": {"base": [[cost], [cost]]},
        }],
    }


def one_state_two_team():
    """Two teams of two agents with one state and two actions each."""
    def team(k):
        return {"states": ["only"], "actions": ["a0", "a1"], "population": 2,
                "initial_law": [1.0], "transition": {"base": [[[1.0], [1.0]]]},
                "cost": {"base": [[[0.2 + k, 0.5]], [[0.7, 0.1 * k]]]}}
    return {"horizon": 2, "seed": 0, "teams": [team(0), team(1)]}


def assert_simplex(v, tol=1e-9):
    v = np.asarray(v, dtype=float)
    assert np.all(v >= -tol)
    assert abs(v.sum() - 1.0) <= tol


def kernel_row(spec, k, m, z, gamma) -> np.ndarray:
    """Team k's next-count law at counts m and mean field z under gamma: one
    row of ``counts._count_laws`` built as ``KernelCache.stacks`` builds its
    rows, indexed like ``TeamLattice(N, S).counts``."""
    zf = flatten_mean_field(spec, z)
    mix = _mixture_rows(spec, k, zf[None], gamma.rows[None])
    return _count_laws(mix.reshape((-1,) + mix.shape[2:]), np.asarray(m, dtype=int)[None])[0]


def cyclic_pursuit_three_team():
    """Three one-agent teams on a ring of two positions, horizon 2: team k
    chases team k+1 and flees team k-1. Most stage-0 games have no pure
    equilibrium, and fictitious play stops above CERT_TOL on several of
    them."""
    def ring(slip):
        return [[[1.0 - slip if s2 == (s + a) % 2 else slip for s2 in range(2)]
                 for a in range(2)] for s in range(2)]

    slips = (0.10, 0.11, 0.09)
    moves = (0.02, 0.025, 0.015)
    scales = ((1.0, 1.005), (1.003, 1.008), (1.006, 1.001))
    inits = ((0.5, 0.5), (0.49, 0.51), (0.51, 0.49))
    teams = []
    for k in range(3):
        sign = 1.0 if k == 2 else -1.0
        coupling = [{"t": t, "s": s, "a": a, "team": (k + 1) % 3, "sigma": s,
                     "value": sign * scales[k][t]}
                    for t in range(2) for s in range(2) for a in range(2)]
        teams.append({
            "states": ["c0", "c1"], "actions": ["step0", "step1"],
            "population": 1, "initial_law": list(inits[k]),
            "transition": {"base": ring(slips[k])},
            "cost": {"base": [[[0.0, moves[k]]] * 2] * 2, "coupling": coupling},
        })
    return {"horizon": 2, "seed": 1, "teams": teams}


def perfbench_gen():
    """The benchmark's input generator ``perfbench/gen.py``, loaded from
    its file; tests only read the games it builds."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen
