"""The concentration envelope against the per-profile kernel path.

``metrics._deviations`` reads each team's next-count laws as rows of
``counts._count_laws`` on the team lattice, once per menu item.
``oracles.deviation_by_kernel`` goes through one ``team_kernel_convolution``
distribution and one ``flow`` image per profile. Both must agree to 1e-12,
and ``kappa_envelope`` must cover every item of every team's menu.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import teamfield as tf
from teamfield.cli import PROBE_POPULATIONS, _probe_mean_field, main
from teamfield.counts import MeanField, Prescription, TeamLattice
from teamfield.errors import CapacityError, SpecValidationError
from teamfield.metrics import kappa_envelope, per_team_deviation
from teamfield.model import GameSpec, with_populations

from conftest import cyclic_pursuit_three_team, write_json
from oracles import deviation_by_kernel
from test_count_laws import _ring_game, _rows

TOL = 1e-12


def slip_game(population=2, horizon=2):
    """Two teams on a ring of S=3 states with A=3 actions: action a moves a
    steps clockwise with probability 1 - slip[a] and slips evenly to the
    other states, action 2 the noisiest. Costs couple only to the team's
    own occupancy, so every stage game is pure. Each pure menu has 27
    items, so the teams have 729 profiles."""
    slips = (0.05, 0.2, 0.45)
    base = [[[1.0 - slips[a] if s2 == (s + a) % 3 else slips[a] / 2 for s2 in range(3)]
             for a in range(3)] for s in range(3)]
    teams = []
    for k in range(2):
        cost = [[[0.1 * a + 0.2 * s + 0.05 * k for a in range(3)] for s in range(3)]
                for _ in range(horizon)]
        coupling = [{"t": t, "s": s, "a": 0, "team": k, "sigma": s, "value": 0.5}
                    for t in range(horizon) for s in range(3)]
        teams.append({
            "states": ["c0", "c1", "c2"], "actions": ["stay", "step", "leap"],
            "population": population, "initial_law": [0.5, 0.3, 0.2],
            "transition": {"base": base},
            "cost": {"base": cost, "coupling": coupling},
        })
    return {"horizon": horizon, "seed": 3, "teams": teams}


def _random_point(spec, rng):
    lattices = [TeamLattice(tm.population, tm.n_states) for tm in spec.teams]
    return MeanField(per_team=tuple(tl.z[int(rng.integers(len(tl)))] for tl in lattices))


def _check(spec, z, gammas):
    fast = per_team_deviation(z, gammas, spec)
    slow = deviation_by_kernel(z, gammas, spec)
    assert fast.shape == (spec.n_teams,)
    np.testing.assert_allclose(fast, slow, rtol=0, atol=TOL)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 16), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 16), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_deviation_matches_the_kernel_path(S, A, N, S2, A2, N2, deterministic, pure, seed):
    rng = np.random.default_rng(seed)
    spec = _ring_game([(S, A, N), (S2, A2, N2)], rng, deterministic)
    gammas = [Prescription(team_id=k, rows=_rows(rng, tm.n_states, tm.n_actions, pure))
              for k, tm in enumerate(spec.teams)]
    _check(spec, _random_point(spec, rng), gammas)


@pytest.mark.parametrize("deterministic", [False, True])
def test_deviation_edge_sizes(deterministic):
    """S=1 (no deviation at all), N=1, A=1, and a line metric on three
    states, which goes through the exact transport LP."""
    rng = np.random.default_rng(11)
    for sizes in [[(1, 1, 1)], [(1, 3, 5), (2, 2, 1)], [(2, 1, 1), (4, 3, 1)],
                  [(3, 2, 4), (1, 1, 3)]]:
        spec = _ring_game(sizes, rng, deterministic)
        line = np.abs(np.subtract.outer(np.arange(3), np.arange(3))).astype(float)
        lined = GameSpec(teams=tuple(replace(tm, state_metric=line) if tm.n_states == 3
                                     else tm for tm in spec.teams),
                         horizon=spec.horizon, seed=spec.seed)
        for sp in (spec, lined):
            for pure in (True, False):
                gammas = [Prescription(team_id=k, rows=_rows(rng, tm.n_states,
                                                             tm.n_actions, pure))
                          for k, tm in enumerate(sp.teams)]
                _check(sp, _random_point(sp, rng), gammas)
    one = _ring_game([(1, 2, 3), (1, 1, 1)], rng, deterministic)
    z = MeanField(per_team=(np.ones(1), np.ones(1)))
    assert np.array_equal(per_team_deviation(z, [tf.build_prescription_set(one, k).items[0]
                                                 for k in range(2)], one), np.zeros(2))


def _envelope_oracle(spec, z, menus, ns):
    """max over n and over every item i of sqrt(n) * oracle deviation,
    pairing item i of each team (teams are independent given z)."""
    kappa = np.zeros(spec.n_teams)
    for n in ns:
        sp = with_populations(spec, n)
        for k, menu in enumerate(menus):
            for g in menu:
                gammas = [g if j == k else m[0] for j, m in enumerate(menus)]
                kappa[k] = max(kappa[k], np.sqrt(n) * deviation_by_kernel(z, gammas, sp)[k])
    return kappa


@pytest.mark.parametrize("name", ["reference", "cyclic", "slip"])
def test_kappa_envelope_covers_every_item(name, reference_spec):
    if name == "reference":
        spec, ns, z = reference_spec, [2, 4, 8], (np.full(2, 0.5),) * 2
    elif name == "cyclic":
        spec, ns, z = tf.load_spec(cyclic_pursuit_three_team()), [2, 4], (np.full(2, 0.5),) * 3
    else:
        spec, ns, z = tf.load_spec(slip_game()), [3, 6], (np.full(3, 1 / 3),) * 2
    z = MeanField(per_team=z)
    menus = [tf.build_prescription_set(spec, k).items for k in range(spec.n_teams)]
    got = kappa_envelope(spec, z, menus, ns)
    np.testing.assert_allclose(got, _envelope_oracle(spec, z, menus, ns), rtol=TOL, atol=0)
    assert np.all(got > 0)


def test_deviation_input_checks(reference_spec):
    spec = with_populations(reference_spec, 4)
    z = MeanField(per_team=(np.full(2, 0.5), np.full(2, 0.5)))
    menus = [tf.build_prescription_set(spec, k).items for k in range(2)]
    profiles = [(a, b) for a in menus[0] for b in menus[1]]
    with pytest.raises(SpecValidationError, match="one menu per team"):
        kappa_envelope(spec, z, profiles, [4])
    with pytest.raises(SpecValidationError, match="one menu per team"):
        per_team_deviation(z, menus[0][:1], spec)
    wide = Prescription(team_id=1, rows=np.full((2, 3), 1 / 3))
    with pytest.raises(SpecValidationError, match="prescription shape"):
        per_team_deviation(z, [menus[0][0], wide], spec)
    with pytest.raises(SpecValidationError, match="prescription shape"):
        kappa_envelope(spec, z, [menus[0], (wide,) * 2], [4])
    with pytest.raises(SpecValidationError, match="prescription shapes differ"):
        kappa_envelope(spec, z, [menus[0], menus[1] + (wide,)], [4])
    with pytest.raises(CapacityError, match="count lattice exceeds cap"):
        per_team_deviation(z, [m[0] for m in menus], with_populations(spec, 2 * 10 ** 7))


def test_bound_envelope_dominates_every_menu_item(tmp_path):
    """729 profiles: the envelope must still probe all 27 items of each
    team, including team 0's noisiest ones at the end of its menu."""
    doc = slip_game()
    path = write_json(tmp_path / "slip.json", doc)
    assert main(["bound", "--spec", str(path), "--out", str(tmp_path),
                 "--n-sweep", "2"]) == 0
    kappa = json.loads((tmp_path / "bound" / "bound.json").read_text())["kappa_hat"]
    spec = tf.load_spec(doc)
    n = max(PROBE_POPULATIONS)
    z = _probe_mean_field(spec, PROBE_POPULATIONS)
    sets = [tf.build_prescription_set(spec, k).items for k in range(2)]
    for gammas in zip(*sets):
        dev = deviation_by_kernel(z, gammas, with_populations(spec, n))
        assert np.all(np.asarray(kappa) >= np.sqrt(n) * dev - TOL), (kappa, dev)
