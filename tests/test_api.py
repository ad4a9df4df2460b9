"""The public surface of ``teamfield``: every exported name resolves, none
twice, the test oracles in ``tests/oracles.py`` are not part of it, every
hook the benchmark wraps by name still exists, and importing the package
loads neither the LP solver nor the process pool."""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import teamfield as tf
from teamfield import stage_game

from conftest import cyclic_pursuit_three_team, perfbench_gen

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# names that left src/ for tests/oracles.py or were deleted, by the module
# that defined them
NOT_IN_SRC = {
    "counts": ("action_count_dist", "nextstate_count_dist", "marginalize_counts",
               "sample_next_counts", "_multinomial_pmf", "mixture_rows", "format_counts",
               "CountDistribution", "team_transition_kernel", "joint_transition_kernel",
               "stage_cost", "_finalize", "_support_key", "PROB_TOL", "CountVector",
               "JointCount"),
    "model": ("eval_transition", "eval_cost", "_kr_norm", "transition_lipschitz",
              "cost_lipschitz", "_transitions"),
    "stage_game": ("build_stage_game", "ContinuationTable", "stage_pure_nash_loop",
                   "mixed_nash_2team_unpruned", "br_iteration_recertified", "pure_nash",
                   "select_equilibrium", "own_cost_vector_tensordot", "_undominated",
                   "_support_pairs", "equilibrium_values", "_own_cost_vector"),
    "simulate": ("FunctionPolicy", "_frequencies", "kernel_check_whole"),
    "metrics": ("wasserstein_fast", "DEFAULT_DEVIATION_CAP", "DEFAULT_PAIR_CAP",
                "joint_distance", "lemma1_check", "Lemma1Report"),
    "cli": ("PROBE_PROFILE_CAP",),
    "limit": ("project_to_grid", "limit_stage_cost", "LimitPolicyTable", "LimitValueTable"),
    "finite_mpe": ("total_cost_forward", "_records"),
}


def test_every_exported_name_resolves_once():
    assert len(set(tf.__all__)) == len(tf.__all__)
    missing = [name for name in tf.__all__ if not hasattr(tf, name)]
    assert missing == []


def test_test_oracles_are_not_exported():
    for module, names in NOT_IN_SRC.items():
        mod = importlib.import_module("teamfield." + module)
        for name in names:
            assert name not in tf.__all__
            assert not hasattr(tf, name), name
            assert not hasattr(mod, name), "%s.%s" % (module, name)


def test_a_stage_solution_has_one_format():
    """The solvers return the fields of a stage record with the values;
    no second format or converter between the two is kept."""
    assert tf.StageEquilibrium._fields == ("mixed", "epsilon", "weights", "values")
    assert not hasattr(tf.PolicyTable, "equilibrium")
    assert not hasattr(tf.JointLattice, "mean_field")


def test_only_the_model_reads_the_affine_coefficients():
    """Transitions and costs are evaluated by ``model.transition_matrix``
    and ``model.cost_matrix`` alone: no other module of the package names
    the coefficient arrays, and no second closed form is kept."""
    coefficients = re.compile(r"\b(transition_base|transition_coupling|cost_base|cost_coupling)\b")
    src = Path(tf.__file__).resolve().parent
    readers = sorted(p.name for p in src.glob("*.py") if coefficients.search(p.read_text()))
    assert readers == ["model.py"]
    assert not hasattr(tf.StageEquilibrium, "mean_rows")


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_hooks_resolve(monkeypatch):
    """perfbench/workloads.py wraps these callables by name; a removed or
    renamed one must fail here, not only in the benchmark's smoke runs."""
    workloads = _workloads(monkeypatch)
    for name in workloads.TIMED:
        layer, attr = name.split(".")
        assert callable(getattr(importlib.import_module("teamfield." + layer), attr)), name
    for cls, attr in workloads.METHODS:
        assert callable(getattr(cls, attr)), "%s.%s" % (cls.__name__, attr)
    for owner, attr, name, _ in workloads.targets(traced=True):
        assert callable(getattr(owner, attr)), name


def test_import_loads_no_lp_solver_or_process_pool():
    """``scipy.optimize`` is imported by ``metrics.wasserstein`` on first
    use and the process pool by ``simulate.estimate_cost`` when it runs
    more than one worker, so a run that needs neither does not pay for
    them."""
    src = Path(tf.__file__).resolve().parents[1]
    code = ("import teamfield, teamfield.cli, sys; "
            "print([m for m in ('scipy.optimize', 'concurrent.futures.process') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_benchmark_policy_reader_sums_the_stage_epsilons(monkeypatch):
    """The benchmark's note on solve_mpe reads .epsilon from every record
    of a solved policy's stages; on the cyclic three-team game (mixed and
    above-tolerance stage games) it is the sum over stages of the worst
    stage epsilon."""
    note = _workloads(monkeypatch).NOTES["finite_mpe.solve_mpe"]
    spec = tf.load_spec(cyclic_pursuit_three_team())
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(spec.n_teams))
    result = tf.solve_mpe(spec, sets)
    total = sum(st.epsilon.max() for st in result[0].stages)
    assert total > 1e-9 and note((spec, sets), {}, result) == total


def test_benchmark_solver_notes_read_the_solver_results(monkeypatch):
    """The benchmark's notes on solve_stage, mixed_nash_2team and
    br_iteration, applied as its traced passes apply them to every result
    of the solves of pursuit (support enumeration) and the cyclic
    three-team game (fictitious play): the epsilon notes read .epsilon."""
    notes = _workloads(monkeypatch).NOTES
    seen = []
    for name in ("solve_stage", "mixed_nash_2team", "br_iteration"):
        def noted(*args, _solve=getattr(stage_game, name), _name="stage_game." + name):
            result = _solve(*args)
            seen.append((_name, notes[_name](args, {}, result), result.epsilon))
            return result
        monkeypatch.setattr(stage_game, name, noted)
    for doc in (perfbench_gen().pursuit_evasion(1), cyclic_pursuit_three_team()):
        spec = tf.load_spec(doc)
        tf.solve_mpe(spec, tuple(tf.build_prescription_set(spec, k) for k in range(spec.n_teams)))
    assert {name for name, _, _ in seen} == {"stage_game.solve_stage",
                                             "stage_game.mixed_nash_2team",
                                             "stage_game.br_iteration"}
    for name, note, eps in seen:
        assert note == (1.0 if name == "stage_game.mixed_nash_2team" else eps)


def _prescription():
    return tf.Prescription(team_id=0, rows=np.array([[0.5, 0.5]]))


VALUE_TYPES = {
    "Prescription": _prescription,
    "MeanField": lambda: tf.MeanField(per_team=(np.array([0.5, 0.5]),)),
    "PrescriptionSet": lambda: tf.PrescriptionSet(team_id=0, items=(_prescription(),)),
    "StageGame": lambda: tf.StageGame(tensors=(np.zeros((2, 2)), np.ones((2, 2)))),
    "StaticGame": lambda: tf.StaticGame(
        payoffs=(np.zeros((2,)),), team_partition=((0,),), action_labels=(("a", "b"),),
        player_names=("p",)),
    "PolicyTable": lambda: tf.PolicyTable(stages=[np.zeros(1)], sets=(), lattice=None),
    "ValueTable": lambda: tf.ValueTable(values=np.zeros((1, 1, 2))),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_holding_arrays_compare_by_identity(name):
    """== and hash never reach an array's ambiguous truth value."""
    a, b = VALUE_TYPES[name](), VALUE_TYPES[name]()
    assert a == a and not a == b and a != b
    assert isinstance(hash(a), int) and hash(a) != hash(b)
