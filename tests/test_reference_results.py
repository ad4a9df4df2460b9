"""The simulator's seeded outputs stay where ``tests/reference_results.py``
pinned them: a change of the stream seeding, the episode engine or the
kernel check's sampling that moves any draw shows here, bit for bit."""

import json

from reference_results import PATH, reference_results


def test_seeded_simulator_outputs_match_the_pinned_file():
    assert reference_results() == json.loads(PATH.read_text())
