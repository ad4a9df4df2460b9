"""The seeded simulator and bound outputs stay where ``tests/reference_results.py``
pinned them: a change of the stream seeding, the episode engine or the
kernel check's sampling that moves any draw shows here, bit for bit; a
change of the limit solve, the certificate, the probes or the Lipschitz
estimate that moves a bound row shows beyond BOUND_RTOL of its scale."""

import json

import numpy as np

from reference_results import (BOUND_RTOL, BOUND_ROW_FIELDS, PATH, bound_results,
                               simulator_results)


def _assert_field_close(got, want, where):
    """Integers exactly; floats (scalars or nested lists) within BOUND_RTOL
    times the larger of 1 and the pinned field's largest magnitude."""
    if isinstance(want, int):
        assert type(got) is int and got == want, where
        return
    g, w = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert g.shape == w.shape, where
    tol = BOUND_RTOL * max(1.0, float(np.abs(w).max()))
    assert np.all(np.abs(g - w) <= tol), (where, got, want)


def test_seeded_simulator_outputs_match_the_pinned_file():
    pinned = json.loads(PATH.read_text())
    assert simulator_results() == {k: pinned[k] for k in ("compare", "kernel_check")}


def test_bound_results_match_the_pinned_file():
    pinned = json.loads(PATH.read_text())["bound"]
    got = bound_results()
    assert [(e["game"], e["args"], [r["N"] for r in e["sweep"]]) for e in got] == \
        [(e["game"], e["args"], [r["N"] for r in e["sweep"]]) for e in pinned]
    for g, w in zip(got, pinned):
        _assert_field_close(g["kappa_hat"], w["kappa_hat"], (w["game"], "kappa_hat"))
        for rg, rw in zip(g["sweep"], w["sweep"]):
            for f in BOUND_ROW_FIELDS:
                _assert_field_close(rg[f], rw[f], (w["game"], rw["N"], f))
