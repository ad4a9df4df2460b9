"""Seeded simulator and bound results, pinned in ``tests/data/reference_results.json``.

- ``compare``: ``teamfield compare --seed 1 --episodes 2000 --workers 1``
  on the shipped reference game; per team ``sim_mean`` and ``sim_stderr``.
- ``kernel_check``: ``empirical_kernel_check`` at the point of the
  benchmark's agent-sim workload (the reference game at population 8 and
  seed 1, the uniform mean field, team k playing item k + 1 of its menu)
  with 10,000 samples; its ``tv_distance``.
- ``bound``: ``teamfield bound --workers 1`` on the reference game
  (``--n-sweep 4,8``) and on the benchmark's pursuit and cyclic games
  (``perfbench/gen.py`` seed 1, ``--n-sweep 4``); ``kappa_hat`` and per
  row ``lipschitz``, ``epsilon_bound``, ``max_gain``,
  ``sup_gain_per_team`` and ``stage_games_above_cert_tol``.

The simulator's floats are kept as ``repr`` strings and compared exactly.
The bound's floats are JSON numbers, compared within ``BOUND_RTOL`` times
the larger of 1 and the field's largest magnitude; its integers exactly.
A change that moves any of them must say why. Rewrite the file with
``PYTHONPATH=src python tests/reference_results.py``.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

import teamfield as tf
from teamfield import cli
from conftest import perfbench_gen

REFERENCE = Path(tf.__file__).parent / "data" / "two_team_reference.json"
PATH = Path(__file__).parent / "data" / "reference_results.json"
SEED = 1
BOUND_RUNS = (("reference", "4,8"), ("pursuit", "4"), ("cyclic", "4"))
BOUND_ROW_FIELDS = ("lipschitz", "epsilon_bound", "max_gain", "sup_gain_per_team",
                    "stage_games_above_cert_tol")
BOUND_RTOL = 1e-12


def compare_entry() -> dict:
    with tempfile.TemporaryDirectory() as out:
        rc = cli.main(["compare", "--spec", str(REFERENCE), "--out", out, "--seed", str(SEED),
                       "--episodes", "2000", "--workers", "1"])
        assert rc == 0, rc
        rep = json.loads((Path(out) / "compare" / "compare.json").read_text())
    return {"args": "compare --seed %d --episodes 2000" % SEED,
            "teams": [{"sim_mean": repr(t["sim_mean"]), "sim_stderr": repr(t["sim_stderr"])}
                      for t in rep["teams"]]}


def kernel_check_entry() -> dict:
    spec = tf.with_populations(tf.load_spec_file(REFERENCE), 8)
    sets = [tf.build_prescription_set(spec, k) for k in range(spec.n_teams)]
    z = tf.MeanField(per_team=tuple(np.full(tm.n_states, 1.0 / tm.n_states) for tm in spec.teams))
    profile = [ps.items[min(k + 1, len(ps) - 1)] for k, ps in enumerate(sets)]
    rep = tf.empirical_kernel_check(spec, z, profile, samples=10000, master_seed=SEED)
    return {"population": 8, "samples": 10000, "master_seed": SEED,
            "tv_distance": repr(float(rep.tv_distance))}


def simulator_results() -> dict:
    return {"compare": compare_entry(), "kernel_check": kernel_check_entry()}


def bound_results() -> list:
    with tempfile.TemporaryDirectory() as work:
        perfbench_gen().write_inputs("exact-mixed", SEED, Path(work))
        entries = []
        for game, sweep in BOUND_RUNS:
            spec = REFERENCE if game == "reference" else Path(work) / ("%s.json" % game)
            rc = cli.main(["bound", "--spec", str(spec), "--out", work, "--n-sweep", sweep,
                           "--workers", "1"])
            assert rc == 0, rc
            rep = json.loads((Path(work) / "bound" / "bound.json").read_text())
            entries.append({"game": game, "args": "bound --n-sweep %s" % sweep,
                            "kappa_hat": rep["kappa_hat"],
                            "sweep": [{"N": r["N"], **{f: r[f] for f in BOUND_ROW_FIELDS}}
                                      for r in rep["sweep"]]})
    return entries


def reference_results() -> dict:
    return {**simulator_results(), "bound": bound_results()}


if __name__ == "__main__":
    PATH.write_text(json.dumps(reference_results(), indent=1) + "\n")
