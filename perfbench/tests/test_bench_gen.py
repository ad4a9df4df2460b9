"""Game generators of the benchmark: determinism, validity, built-in properties."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

GENERATORS = {
    "exact_pure": gen.exact_pure,
    "pursuit_evasion": gen.pursuit_evasion,
    "cyclic_pursuit": gen.cyclic_pursuit,
    "reference": lambda seed: gen.reference(seed, 3),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_gives_byte_identical_json(name):
    make = GENERATORS[name]
    assert gen.dump(make(11)) == gen.dump(make(11))
    assert gen.dump(make(11)) != gen.dump(make(12))


def test_write_inputs_is_deterministic(tmp_path):
    for workload in gen.INPUTS:
        one, two = tmp_path / (workload + "-1"), tmp_path / (workload + "-2")
        one.mkdir()
        two.mkdir()
        h1 = gen.write_inputs(workload, 5, one)
        h2 = gen.write_inputs(workload, 5, two)
        assert h1 == h2 and set(h1) == set(gen.INPUTS[workload])
        for stem in h1:
            name = "%s.json" % stem
            assert (one / name).read_bytes() == (two / name).read_bytes()


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generated_games_validate(name):
    tf = pytest.importorskip("teamfield")
    spec = tf.load_spec(gen.dump(GENERATORS[name](3)))
    assert spec.seed == 3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_pure_game_has_only_pure_stage_games(seed):
    tf = pytest.importorskip("teamfield")
    spec = tf.load_spec(gen.dump(gen.exact_pure(seed)))
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(spec.n_teams))
    policy, _ = tf.solve_mpe(spec, sets)
    assert policy.mixed_points == []
