"""The public surface of ``teamfield``: every exported name resolves, none
twice, and the test oracles in ``tests/oracles.py`` are not part of it."""

import importlib

import teamfield as tf

# names that left src/ for tests/oracles.py or were deleted, by the module
# that defined them
NOT_IN_SRC = {
    "counts": ("action_count_dist", "nextstate_count_dist", "marginalize_counts",
               "sample_next_counts"),
    "model": ("eval_transition", "eval_cost", "_kr_norm", "transition_lipschitz",
              "cost_lipschitz"),
    "stage_game": ("build_stage_game", "ContinuationTable"),
    "simulate": ("FunctionPolicy",),
    "metrics": ("wasserstein_fast", "DEFAULT_DEVIATION_CAP", "DEFAULT_PAIR_CAP"),
    "limit": ("project_to_grid",),
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
