"""The bound mode replays each projected limit policy on the lattice of
the run's kernel store instead of building a second lattice of the same
spec; its results do not change."""

from teamfield import cli, limit
from teamfield.cli import main

from conftest import DATA

ARGV = ["bound", "--spec", str(DATA / "two_team_reference.json"), "--n-sweep", "2,4"]


def test_projected_policy_shares_the_store_lattice(tmp_path, monkeypatch):
    seen = []

    def policy_value(spec, policy, kernel_cache=None):
        seen.append(policy.lattice is kernel_cache.lattice)
        return cli_policy_value(spec, policy, kernel_cache=kernel_cache)

    cli_policy_value = cli.policy_value
    monkeypatch.setattr(cli, "policy_value", policy_value)
    assert main(ARGV + ["--out", str(tmp_path)]) == 0
    assert seen == [True, True]


def test_bound_results_match_a_separate_lattice(tmp_path, monkeypatch):
    assert main(ARGV + ["--out", str(tmp_path / "shared")]) == 0

    def own_lattice(spec, policy, cap=None, lattice=None):
        return limit.project_policy_to_lattice(spec, policy)

    monkeypatch.setattr(cli, "project_policy_to_lattice", own_lattice)
    assert main(ARGV + ["--out", str(tmp_path / "own")]) == 0
    for name in ("bound.json", "rate.csv"):
        assert ((tmp_path / "shared" / "bound" / name).read_bytes()
                == (tmp_path / "own" / "bound" / name).read_bytes()), name
