import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamfield.errors import SpecParseError, SpecValidationError
from teamfield.limit import SimplexGrid
from teamfield.model import flatten_mean_field, load_spec, with_populations

from conftest import minimal_team
from oracles import cost_lipschitz, eval_cost, eval_transition, transition_lipschitz


def test_minimal_spec_loads():
    spec = load_spec(json.dumps(minimal_team()))
    assert spec.n_teams == 1
    assert spec.horizon == 1
    assert spec.teams[0].n_states == 2
    assert spec.teams[0].n_actions == 1
    # default metric is discrete
    assert np.array_equal(spec.teams[0].state_metric,
                          np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_row_sum_violation_names_location():
    doc = minimal_team(p_rows=((0.5, 0.4), (0.5, 0.5)))
    with pytest.raises(SpecValidationError, match="transition_base row sum"):
        load_spec(json.dumps(doc))
    with pytest.raises(SpecValidationError, match=r"\(s=0, a=0\)"):
        load_spec(json.dumps(doc))


def test_malformed_json_is_parse_error():
    with pytest.raises(SpecParseError):
        load_spec("{not json")
    with pytest.raises(SpecParseError):
        load_spec(json.dumps({"horizon": 2}))


def test_initial_law_checked():
    doc = minimal_team(initial=(0.7, 0.7))
    with pytest.raises(SpecValidationError):
        load_spec(json.dumps(doc))


def test_metric_axioms_checked():
    doc = minimal_team()
    doc["teams"][0]["metric"] = [[0.0, 1.0], [2.0, 0.0]]   # asymmetric
    with pytest.raises(SpecValidationError):
        load_spec(json.dumps(doc))
    doc["teams"][0]["metric"] = [[0.5, 1.0], [1.0, 0.0]]   # nonzero diagonal
    with pytest.raises(SpecValidationError):
        load_spec(json.dumps(doc))


def test_vertex_nonnegativity_message():
    doc = minimal_team(p_rows=((0.1, 0.9), (0.5, 0.5)))
    doc["teams"][0]["transition"]["coupling"] = [
        {"s": 0, "a": 0, "s'": 0, "team": 0, "sigma": 1, "value": -0.2},
        {"s": 0, "a": 0, "s'": 1, "team": 0, "sigma": 1, "value": 0.2},
    ]
    with pytest.raises(SpecValidationError, match="nonnegativity at vertex"):
        load_spec(json.dumps(doc))


def test_coupling_rows_must_sum_to_zero():
    doc = minimal_team()
    doc["teams"][0]["transition"]["coupling"] = [
        {"s": 0, "a": 0, "s'": 0, "team": 0, "sigma": 0, "value": 0.1},
    ]
    with pytest.raises(SpecValidationError):
        load_spec(json.dumps(doc))


def test_coupling_record_indices_validated():
    doc = minimal_team()
    doc["teams"][0]["cost"]["coupling"] = [
        {"t": 0, "s": 0, "a": 0, "team": 5, "sigma": 0, "value": 1.0},
    ]
    with pytest.raises(SpecValidationError, match="team 5 out of range"):
        load_spec(json.dumps(doc))


def test_eval_transition_affine_in_z(reference_spec):
    spec = reference_spec
    z0 = (np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    z1 = (np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    mid = (np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    for k in range(2):
        for s in range(2):
            for a in range(2):
                pa = eval_transition(spec, k, s, a, z0)
                pb = eval_transition(spec, k, s, a, z1)
                pm = eval_transition(spec, k, s, a, mid)
                assert np.allclose(0.5 * (pa + pb), pm, atol=1e-12)
                assert abs(pa.sum() - 1.0) < 1e-12
                assert np.all(pa >= 0)


def test_eval_cost_matches_hand_expansion(reference_spec):
    spec = reference_spec
    z = (np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    # team 0 congestion weight 0.5 on both teams' occupancy of the current
    # state, switch fee 0.25
    got = eval_cost(spec, 0, 0, 0, 1, z)
    assert got == pytest.approx(0.25 + 0.5 * (0.5 + 1.0), abs=1e-12)
    got = eval_cost(spec, 1, 1, 1, 0, z)
    assert got == pytest.approx(0.4 * (0.5 + 0.0), abs=1e-12)


def test_flatten_mean_field_concatenates(reference_spec):
    z = (np.array([0.25, 0.75]), np.array([1.0, 0.0]))
    flat = flatten_mean_field(reference_spec, z)
    assert np.array_equal(flat, np.array([0.25, 0.75, 1.0, 0.0]))
    with pytest.raises(SpecValidationError):
        flatten_mean_field(reference_spec, (np.array([0.6, 0.6]),
                                            np.array([1.0, 0.0])))


def test_transition_lipschitz_zero_without_coupling(single_team_spec):
    assert transition_lipschitz(single_team_spec, 0) == 0.0


def test_cost_lipschitz_closed_form(single_team_spec):
    # cost coupling is 1.0 on own occupancy of the current state; the
    # dual-norm max over (s, a) of that row is 1 under the discrete metric
    assert cost_lipschitz(single_team_spec, 0, 0) == pytest.approx(1.0)


def test_transition_lipschitz_dominates_sampled_quotients(reference_spec):
    spec = reference_spec
    rng = np.random.default_rng(1)
    L = transition_lipschitz(spec, 0)
    for _ in range(100):
        za = tuple(rng.dirichlet(np.ones(2)) for _ in range(2))
        zb = tuple(rng.dirichlet(np.ones(2)) for _ in range(2))
        dist = sum(0.5 * np.abs(za[k] - zb[k]).sum() for k in range(2))
        if dist < 1e-12:
            continue
        for s in range(2):
            for a in range(2):
                pa = eval_transition(spec, 0, s, a, za)
                pb = eval_transition(spec, 0, s, a, zb)
                w1 = 0.5 * np.abs(pa - pb).sum()
                assert w1 <= L * dist + 1e-12


def test_with_populations_scales_and_revalidates(reference_spec):
    spec = with_populations(reference_spec, 8)
    assert [tm.population for tm in spec.teams] == [8, 8]
    spec = with_populations(reference_spec, [4, 6])
    assert [tm.population for tm in spec.teams] == [4, 6]
    with pytest.raises(SpecValidationError):
        with_populations(reference_spec, [4])


@pytest.mark.parametrize("value", [2.5, 2.0, "3"])
def test_non_integral_counts_are_refused(value, reference_spec):
    """Populations, horizons, seeds and grid resolutions that are not
    integers raise instead of being truncated to another game."""
    doc = minimal_team()
    doc["teams"][0]["population"] = value
    for bad in (doc, dict(minimal_team(), horizon=value), dict(minimal_team(), seed=value)):
        with pytest.raises(SpecValidationError, match="must be an integer"):
            load_spec(bad)
        with pytest.raises(SpecValidationError, match="must be an integer"):
            load_spec(json.dumps(bad))
    with pytest.raises(SpecValidationError, match="must be an integer"):
        with_populations(reference_spec, [value, 3])
    with pytest.raises(SpecValidationError, match="must be an integer"):
        with_populations(reference_spec, value)
    with pytest.raises(SpecValidationError, match="must be an integer"):
        SimplexGrid(reference_spec, [value, 3])


def test_integer_types_are_counts(reference_spec):
    doc = minimal_team()
    doc["teams"][0]["population"] = np.int64(3)
    doc["horizon"], doc["seed"] = np.uint8(2), np.int32(-4)
    spec = load_spec(doc)
    assert (spec.teams[0].population, spec.horizon, spec.seed) == (3, 2, -4)
    assert type(spec.teams[0].population) is int and type(spec.horizon) is int
    spec = with_populations(reference_spec, [np.int64(4), np.uint8(6)])
    assert [tm.population for tm in spec.teams] == [4, 6]
    assert SimplexGrid(reference_spec, [np.int64(2), np.uint8(3)]).resolutions == (2, 3)
    with pytest.raises(SpecValidationError, match="population must be >= 1"):
        with_populations(reference_spec, [0, 3])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=2))
def test_random_rows_load_after_normalization(weights):
    row = np.asarray(weights) / np.sum(weights)
    doc = minimal_team(p_rows=(tuple(row), tuple(row[::-1])))
    spec = load_spec(json.dumps(doc))
    assert np.allclose(spec.teams[0].transition_base[0, 0], row)


def test_arrays_are_frozen(reference_spec):
    with pytest.raises(ValueError):
        reference_spec.teams[0].transition_base[0, 0, 0] = 0.5
