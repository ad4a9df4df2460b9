"""Each count lattice of a run gets one kernel store: the solved or
projected policy keeps it, and every reader of that policy takes its
kernels from there. The bound mode's results do not depend on which
lattice object a projected policy is replayed on."""

import pytest

import teamfield as tf
from teamfield import cli, limit
from teamfield.cli import main
from teamfield.stage_game import KernelCache

from conftest import DATA

REFERENCE = str(DATA / "two_team_reference.json")
ARGV = ["bound", "--spec", REFERENCE, "--n-sweep", "2,4"]


@pytest.mark.parametrize("argv, populations", [
    (["solve-finite"], [2]),
    (["compare", "--episodes", "30"], [2]),
    (["bound", "--n-sweep", "2,4"], [2, 4]),
], ids=["solve-finite", "compare", "bound"])
def test_each_lattice_gets_one_kernel_store(tmp_path, monkeypatch, argv, populations):
    """solve-finite (solve, verify, evaluate) and compare (solve, evaluate)
    build one store; bound builds one per swept N, for its projected policy."""
    built = []
    init = KernelCache.__init__

    def counted(self, spec, sets):
        built.append(spec.teams[0].population)
        init(self, spec, sets)

    monkeypatch.setattr(KernelCache, "__init__", counted)
    assert main(argv[:1] + ["--spec", REFERENCE, "--out", str(tmp_path)] + argv[1:]) == 0
    assert built == populations


def test_bound_results_match_a_separate_lattice(tmp_path, monkeypatch):
    assert main(ARGV + ["--out", str(tmp_path / "shared")]) == 0

    def own_lattice(spec, policy):
        fpolicy = limit.project_policy_to_lattice(spec, policy)
        return tf.PolicyTable(stages=fpolicy.stages, sets=fpolicy.sets,
                              lattice=tf.JointLattice(spec))

    monkeypatch.setattr(cli, "project_policy_to_lattice", own_lattice)
    assert main(ARGV + ["--out", str(tmp_path / "own")]) == 0
    for name in ("bound.json", "rate.csv"):
        assert ((tmp_path / "shared" / "bound" / name).read_bytes()
                == (tmp_path / "own" / "bound" / name).read_bytes()), name
