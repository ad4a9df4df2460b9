import collections
import dataclasses
import itertools
import json
import re

import numpy as np
import pytest

import teamfield as tf
from teamfield import finite_mpe, stage_game
from teamfield.cli import _write_policy
from teamfield.finite_mpe import (JointLattice, initial_distribution,
                                  policy_records, policy_value)
from teamfield.stage_game import KernelCache

from conftest import (DATA, cyclic_pursuit_three_team, deterministic_two_team,
                      identity_dynamics_spec, perfbench_gen)
from oracles import mean_field, policy_json_oracle, stage_cost, total_cost_forward

def _exact_pure_game(seed):
    """The benchmark's generated two-team game whose stage games are all pure."""
    return perfbench_gen().exact_pure(seed)


def test_solve_and_verify_reference(reference_spec, reference_sets,
                                    reference_solution):
    policy, values = reference_solution
    cert = tf.verify_mpe(reference_spec, policy)
    assert cert.max_gain <= 1e-9
    assert cert.gains.shape == (2, 2) + policy.lattice.shape
    assert np.all(cert.gains >= -1e-12)


def test_values_match_policy_value(reference_spec, reference_sets,
                                   reference_solution):
    """The values produced during backward induction must equal an
    independent forward evaluation of the same policy."""
    policy, values = reference_solution
    V = policy_value(reference_spec, policy)
    assert np.allclose(V, values.values, atol=1e-10)


def test_total_cost_folds_initial_distribution(reference_spec,
                                               reference_solution):
    policy, values = reference_solution
    totals = tf.evaluate_total_cost(reference_spec, policy)
    init = initial_distribution(reference_spec, policy.lattice)
    for k in range(2):
        fold = float(np.sum(init * values.values[0, k]))
        assert totals[k] == pytest.approx(fold, abs=1e-10)


def test_initial_distribution_literal(reference_spec):
    lattice = JointLattice(reference_spec)
    init = initial_distribution(reference_spec, lattice)
    assert init.sum() == pytest.approx(1.0, abs=1e-12)
    # team 0 initial law (0.8, 0.2) at N=2: P(2,0)=0.64, P(1,1)=0.32,
    # P(0,2)=0.04; team 1 law (0.3, 0.7): P(2,0)=0.09, P(1,1)=0.42, P(0,2)=0.49
    i20 = lattice.teams[0].rank((2, 0))
    j02 = lattice.teams[1].rank((0, 2))
    assert init[i20, j02] == pytest.approx(0.64 * 0.49, abs=1e-12)


def test_best_response_never_beats_equilibrium(reference_spec, reference_sets,
                                               reference_solution):
    policy, values = reference_solution
    for k in range(2):
        _, U = tf.best_response(reference_spec, k, policy)
        # equilibrium value of team k is exactly its best-response value
        assert np.allclose(U, values.values[:, k], atol=1e-9)


@pytest.mark.parametrize("k", [2, -1, 1.0, True, "0", None])
def test_best_response_refuses_a_bad_team_index(monkeypatch, k, reference_spec,
                                                reference_solution):
    """Before any work: at k=2 the loop raised IndexError, at k=-1 a
    reshape ValueError and at k=1.0 a TypeError; a negative index into
    operands shared by several players could read another team's slot."""
    policy, _ = reference_solution
    monkeypatch.setattr(finite_mpe, "_evaluate", lambda *args: pytest.fail("evaluated"))
    message = ("team index %d is not in range(2)" % k if type(k) is int
               else "team index must be an integer, got %r" % (k,))
    with pytest.raises(tf.SpecValidationError, match=re.escape(message)):
        tf.best_response(reference_spec, k, policy)


def test_best_response_takes_a_numpy_team_index(reference_spec, reference_solution):
    policy, _ = reference_solution
    picks, U = tf.best_response(reference_spec, np.int64(1), policy)
    ref_picks, ref_U = tf.best_response(reference_spec, 1, policy)
    assert np.array_equal(U, ref_U)
    assert all(np.array_equal(a, b) for a, b in zip(picks, ref_picks))


@pytest.mark.parametrize("game", ["two_team_reference", "cyclic", "deterministic"])
def test_one_pass_forms_each_stage_operand_once(monkeypatch, game):
    """Calls of the cost tables, the averaged kernel stacks and the mixture
    reads. The cost tables are the kernel store's: no reader of a solved
    policy forms one, and the first reader of a table built by hand forms
    K, one per team covering every stage, which the next reader shares
    (per-reader tables made K T per certificate and 2 K T per bound
    population). The certificate averages each team's stack once per stage
    and reads each stage's mixtures once (the separate loops made
    K^2 (T-1) stacks and (K+1)T-K reads); one team's best reply and the
    policy's values alone do the work those loops did."""
    if game == "cyclic":
        spec = tf.load_spec(cyclic_pursuit_three_team())
    elif game == "deterministic":
        spec = tf.load_spec(deterministic_two_team(horizon=3))
    else:
        spec = tf.load_spec_file(DATA / ("%s.json" % game))
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(spec.n_teams))
    policy, _ = tf.solve_mpe(spec, sets)
    T, K = spec.horizon, spec.n_teams
    calls, tables = collections.Counter(), []

    def counted(name, f):
        def call(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return call

    def cost_tables(spec, k, ps, Z, stages, real=stage_game._cost_tables):
        tables.append((k, tuple(stages)))
        return real(spec, k, ps, Z, stages)

    monkeypatch.setattr(stage_game, "_cost_tables", cost_tables)
    monkeypatch.setattr(finite_mpe, "_average", counted("average", finite_mpe._average))
    monkeypatch.setattr(tf.PolicyTable, "mixtures", counted("mixtures", tf.PolicyTable.mixtures))
    tf.verify_mpe(spec, policy)
    assert calls == {"average": K * (T - 1), "mixtures": T} and tables == []
    for k in range(K):
        calls.clear()
        tf.best_response(spec, k, policy)
        assert calls == {"average": (K - 1) * (T - 1), "mixtures": T - 1} and tables == []
    calls.clear()
    policy_value(spec, policy)
    assert calls == {"average": K * (T - 1), "mixtures": T} and tables == []
    every_team = [(k, tuple(range(T))) for k in range(K)]
    for first, then in [(tf.verify_mpe, policy_value),
                        (lambda spec, p: tf.best_response(spec, K - 1, p), tf.verify_mpe)]:
        hand = _by_hand(policy)
        first(spec, hand)
        assert tables == every_team
        tables.clear()
        then(spec, hand)
        assert tables == []


def _reversed(sets):
    return tuple(tf.PrescriptionSet(items=ps.items[::-1]) for ps in sets)


def _by_hand(policy):
    """A copy of ``policy``'s table built by hand, which keeps no store."""
    return tf.PolicyTable(stages=policy.stages, sets=policy.sets, lattice=policy.lattice)


STORE_READERS = {
    "policy_value": policy_value,
    "best_response": lambda spec, policy: tf.best_response(spec, 1, policy)[1],
    "verify_mpe": lambda spec, policy: tf.verify_mpe(spec, policy).gains,
    "evaluate_total_cost": tf.evaluate_total_cost,
}


@pytest.mark.parametrize("reader", sorted(STORE_READERS))
def test_a_store_of_other_menus_is_refused(reader, reference_spec, reference_sets):
    """A solved policy given other menus (each reversed: the same items in
    another order) leaves the store it was solved with and reads a new one
    of its menus, as a table built by hand does. Read from the solver's
    store, the total cost would be [1.6893, 1.5317] instead of [1.7127,
    1.5547] and the largest gain 0.613 instead of 0.639."""
    policy, _ = tf.solve_mpe(reference_spec, reference_sets)
    solved = policy._kernels
    policy.sets = _reversed(reference_sets)
    got = STORE_READERS[reader](reference_spec, policy)
    assert policy._kernels is not solved and policy._kernels.sets is policy.sets
    assert np.array_equal(got, STORE_READERS[reader](reference_spec, _by_hand(policy)))


@pytest.mark.parametrize("reader", sorted(STORE_READERS))
def test_a_store_of_another_spec_is_refused(reader, reference_spec, reference_sets):
    """A solved policy read under another spec object, here one whose team-0
    dynamics differ, reads a new store of that spec, kept on the policy."""
    policy, _ = tf.solve_mpe(reference_spec, reference_sets)
    solved = policy._kernels
    doc = json.loads((DATA / "two_team_reference.json").read_text())
    doc["teams"][0]["transition"]["base"] = [[[0.6, 0.4], [0.3, 0.7]], [[0.3, 0.7], [0.6, 0.4]]]
    twin = tf.load_spec(doc)
    got = STORE_READERS[reader](twin, policy)
    assert policy._kernels is not solved and policy._kernels.spec is twin
    assert np.array_equal(got, STORE_READERS[reader](twin, _by_hand(policy)))
    assert not np.array_equal(got, STORE_READERS[reader](reference_spec, _by_hand(policy)))


@pytest.mark.parametrize("reader", ["policy_value", "best_response"])
def test_a_store_of_a_spec_with_other_costs_is_refused(reader, reference_spec, reference_sets):
    """The cost tables are keyed like the kernels: a solved policy read
    under another spec object of the same lattice shape and dynamics, whose
    costs are all tripled, gets the tables of that spec, bitwise what a
    table built by hand gets under it, never the solver's."""
    policy, _ = tf.solve_mpe(reference_spec, reference_sets)
    doc = json.loads((DATA / "two_team_reference.json").read_text())
    for team in doc["teams"]:
        team["cost"]["base"] = (3.0 * np.array(team["cost"]["base"])).tolist()
        for term in team["cost"]["coupling"]:
            term["value"] *= 3.0
    tripled = tf.load_spec(doc)
    got = STORE_READERS[reader](tripled, policy)
    hand = STORE_READERS[reader](tripled, _by_hand(policy))
    assert policy._kernels.spec is tripled
    assert got.shape == hand.shape and got.tobytes() == hand.tobytes()
    assert not np.array_equal(got, STORE_READERS[reader](reference_spec, _by_hand(policy)))
    if reader == "best_response":
        picks = tf.best_response(tripled, 1, policy)[0]
        assert all(np.array_equal(a, b) for a, b in
                   zip(picks, tf.best_response(tripled, 1, _by_hand(policy))[0]))


@pytest.mark.parametrize("reader", sorted(STORE_READERS))
def test_a_store_on_a_lattice_of_another_shape_is_refused(reader, reference_spec,
                                                          reference_sets):
    """A policy solved at N=3 read under the N=2 spec of the same game."""
    policy, _ = tf.solve_mpe(tf.with_populations(reference_spec, 3), reference_sets)
    with pytest.raises(tf.SpecValidationError, match=r"shape \(3, 3\), the policy's has \(4, 4\)"):
        STORE_READERS[reader](reference_spec, policy)


def test_a_store_of_the_same_items_is_shared(reference_spec, reference_sets,
                                             reference_solution):
    """Every reader of a solved policy reads the store it was solved with,
    and gets exactly what a table built by hand, on a store of new sets of
    the same items, gets."""
    policy, _ = reference_solution
    solved = policy._kernels
    same = tf.PolicyTable(stages=policy.stages, lattice=policy.lattice, sets=tuple(
        tf.PrescriptionSet(items=ps.items) for ps in reference_sets))
    for reader in STORE_READERS.values():
        assert np.array_equal(reader(reference_spec, policy), reader(reference_spec, same))
        assert policy._kernels is solved
    assert same._kernels not in (None, solved)


@pytest.mark.parametrize("horizon", [1, 2])
@pytest.mark.parametrize("solve", [tf.solve_mpe, tf.solve_mpe_inf])
def test_a_menu_of_another_shape_is_refused(solve, horizon):
    """A menu's rows are checked against the team's shape where the cost
    table, the kernel store and the flow read them, so neither solver
    leaves a wrong shape to numpy at any horizon."""
    spec = tf.load_spec(json.dumps(identity_dynamics_spec(horizon=horizon)))
    menu = tf.PrescriptionSet(items=(tf.Prescription(rows=np.full((2, 2), 0.5)),))
    with pytest.raises(tf.SpecValidationError,
                       match=r"prescription shape \(2, 2\) does not match team 0"):
        solve(spec, (menu,))


def test_single_team_dp_matches_brute_force(single_team_spec):
    """Exhaustive enumeration of every count-feedback plan, evaluated by
    exact forward propagation, as an independent optimality oracle."""
    spec = single_team_spec
    sets = (tf.build_prescription_set(spec, 0),)
    policy, values = tf.solve_mpe(spec, sets)
    init = initial_distribution(spec, policy.lattice)
    dp_val = float(np.sum(init * values.values[0, 0]))

    lattice = policy.lattice
    cache = KernelCache(spec, sets)
    npts = lattice.shape[0]
    pts = [mean_field(lattice, (i,)) for i in range(npts)]
    kmat = [cache.matrix(0, z) for z in pts]
    sc = np.array([[[stage_cost(z, g, spec, 0, t) for g in sets[0].items]
                    for z in pts] for t in range(2)])
    best = np.inf
    for assign in itertools.product(range(len(sets[0].items)),
                                    repeat=2 * npts):
        a0, a1 = assign[:npts], assign[npts:]
        total = sum(init[i] * sc[0, i, a0[i]] for i in range(npts))
        nxt = sum(init[i] * kmat[i][a0[i]] for i in range(npts))
        total += sum(nxt[i] * sc[1, i, a1[i]] for i in range(npts))
        best = min(best, float(total))
    assert abs(best - dp_val) <= 1e-10
    # the optimum must also be what the solved policy actually achieves
    assert tf.evaluate_total_cost(spec, policy)[0] == pytest.approx(best,
                                                                    abs=1e-10)


def test_single_team_policy_decongests(single_team_spec):
    # with everyone on one site it pays to move at the first stage and
    # never at the last
    sets = (tf.build_prescription_set(single_team_spec, 0),)
    policy, _ = tf.solve_mpe(single_team_spec, sets)
    lattice = policy.lattice
    i20 = lattice.teams[0].rank((2, 0))
    i11 = lattice.teams[0].rank((1, 1))
    items = policy.sets[0].items
    picks = [policy.mixtures(t)[0].argmax(axis=1) for t in range(2)]
    assert not any(st.mixed.any() for st in policy.stages)
    assert items[picks[0][i20]].rows[0, 1] == 1.0       # crowded state moves
    assert picks[0][i11] == 0
    for i in range(lattice.shape[0]):
        assert items[picks[1][i]].rows[:, 1].max() == 0.0


@pytest.mark.parametrize("game, K, plans", [
    (lambda: perfbench_gen().pursuit_evasion(1), 2, 24),
    (cyclic_pursuit_three_team, 3, 24)], ids=["pursuit", "cyclic"])
def test_stage_solutions_build_one_own_cost_plan_per_team(monkeypatch, game, K, plans):
    """Each support-enumeration candidate certified builds one own-cost
    contraction plan per team, and so does each fictitious-play game,
    whose plans also give the values of the profile it keeps: no solution
    runs a second own-cost pass for its values. Pursuit's 12 support
    enumerations certify 12 candidates; the cyclic game has 8
    fictitious-play games."""
    calls = collections.Counter()
    for name in ("_contraction_plan", "certify_epsilon", "br_iteration"):
        def counted(*args, _f=getattr(stage_game, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(stage_game, name, counted)
    spec = tf.load_spec(game())
    assert spec.n_teams == K
    tf.solve_mpe(spec, tuple(tf.build_prescription_set(spec, k) for k in range(K)))
    assert calls["_contraction_plan"] == K * (calls["certify_epsilon"] + calls["br_iteration"])
    assert calls["_contraction_plan"] == plans


def test_mixed_equilibrium_policy_certifies(tmp_path):
    doc = deterministic_two_team()
    spec = tf.load_spec(json.dumps(doc))
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(2))
    policy, values = tf.solve_mpe(spec, sets)
    assert policy.mixed_points
    cert = tf.verify_mpe(spec, policy)
    assert cert.max_gain <= 1e-9
    # the matching-pennies continuation pins the initial values at 0.5
    init = initial_distribution(spec, policy.lattice)
    for k in range(2):
        v = float(np.sum(init * values.values[0, k]))
        assert v == pytest.approx(0.5, abs=1e-9)


def test_identity_dynamics_costs_add_up():
    spec = tf.load_spec(json.dumps(identity_dynamics_spec(population=3,
                                                          horizon=4,
                                                          cost=1.0)))
    sets = (tf.build_prescription_set(spec, 0),)
    policy, _ = tf.solve_mpe(spec, sets)
    totals = tf.evaluate_total_cost(spec, policy)
    assert totals[0] == pytest.approx(4.0, abs=1e-12)


def test_policy_records_roundtrip(reference_spec, reference_solution):
    policy, values = reference_solution
    records = json.loads(policy_records(policy, values))
    assert len(records) == 2 * 9 * 2      # stages x lattice points x teams
    sample = records[0]
    assert set(sample) >= {"stage", "z", "team", "kind", "prescription",
                           "value"}
    json.dumps(records)                   # must be serializable as-is


def test_policy_without_stages_writes_an_empty_record_list(tmp_path, reference_solution):
    policy, values = reference_solution
    empty = dataclasses.replace(policy, stages=[])
    none = dataclasses.replace(values, values=values.values[:0])
    assert policy_records(empty, none) == "[]"
    _write_policy(tmp_path / "policy.json", policy_records(empty, none), "h")
    assert (tmp_path / "policy.json").read_text() == policy_json_oracle(empty, none, "h")


def test_pure_only_raises_where_no_pure_exists():
    doc = deterministic_two_team()
    spec = tf.load_spec(json.dumps(doc))
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(2))
    with pytest.raises(tf.NoPureEquilibriumError) as exc:
        tf.solve_mpe(spec, sets, pure_only=True)
    assert exc.value.stage == 0


@pytest.mark.parametrize("game", ["two_team_reference", "single_team_small", "iid_probe",
                                  "exact_pure", "cyclic", "deterministic"])
def test_total_cost_matches_forward_propagation(game):
    """evaluate_total_cost (stage-0 policy values averaged under the initial
    count law) against the forward propagation of the count law, on the
    bundled games, a generated all-pure game and two games with mixed
    stage equilibria (fictitious play on the three-team one)."""
    if game == "exact_pure":
        spec = tf.load_spec(_exact_pure_game(1))
    elif game == "cyclic":
        spec = tf.load_spec(cyclic_pursuit_three_team())
    elif game == "deterministic":
        spec = tf.load_spec(deterministic_two_team())
    else:
        spec = tf.load_spec_file(DATA / ("%s.json" % game))
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(spec.n_teams))
    policy, _ = tf.solve_mpe(spec, sets)
    np.testing.assert_allclose(tf.evaluate_total_cost(spec, policy),
                               total_cost_forward(spec, policy), rtol=0, atol=1e-12)
