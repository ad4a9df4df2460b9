"""The flow, mixture-row and cost-table kernels against their einsum forms.

``model._flow``, ``counts._mixture_rows`` and ``stage_game._cost_tables``
sum their terms by elementwise ufuncs in a fixed order, with the points
and menu items (and the cost tables' stages) on broadcast axes. On random
specs (up to three teams, S and A in 1-4, horizons 1-3, random, gridded
and 0/1 menus) they must agree with the einsums of ``tests/oracles.py``
within 1e-12, give one point, one menu item or one stage alone the bits
of its slice of the whole batch, and allocate no temporary larger than
their result.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from teamfield.counts import Prescription, _mixture_rows
from teamfield.model import _flow, cost_matrix, transition_matrix
from teamfield.stage_game import PrescriptionSet, _cost_tables

from oracles import cost_table_einsum, flow_einsum, mixture_rows_einsum
from test_count_laws import _ring_game

TOL = 1e-12


def _menu(rng, S, A, items, kind):
    """(items, S, A) prescription rows: Dirichlet rows, rows on a 1/g grid
    or 0/1 rows."""
    if kind == "random":
        return rng.dirichlet(np.ones(A), size=(items, S))
    if kind == "gridded":
        g = int(rng.integers(1, 5))
        return rng.multinomial(g, np.ones(A) / A, size=(items, S)) / g
    rows = np.zeros((items, S, A))
    rows[np.arange(items)[:, None], np.arange(S), rng.integers(A, size=(items, S))] = 1.0
    return rows


def _same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _kernels(spec, Z, R):
    """Every kernel's output on points Z and menus R: the flow images, and
    per team the mixture rows and the (T, P, n) cost tables of all stages."""
    zf = np.concatenate(Z, axis=1)
    sets = [PrescriptionSet(tuple(Prescription(rows=r) for r in rows)) for rows in R]
    return (_flow(spec, Z, R),
            [_mixture_rows(spec, k, zf, R[k]) for k in range(spec.n_teams)],
            [_cost_tables(spec, k, ps, Z, range(spec.horizon)) for k, ps in enumerate(sets)])


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=3),
       st.integers(1, 5), st.integers(1, 4), st.sampled_from(["random", "gridded", "pure"]),
       st.booleans(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@example(teams=[(1, 1)], P=1, items=1, kind="pure", deterministic=False, horizon=1, seed=0)
@example(teams=[(1, 1), (3, 2)], P=1, items=3, kind="random", deterministic=False, horizon=2,
         seed=1)
@example(teams=[(4, 4), (1, 1), (2, 3)], P=5, items=4, kind="gridded", deterministic=True,
         horizon=3, seed=2)
def test_kernels_match_the_einsums_and_are_batch_invariant(teams, P, items, kind,
                                                           deterministic, horizon, seed):
    rng = np.random.default_rng(seed)
    spec = _ring_game([(S, A, 1) for S, A in teams], rng, deterministic, horizon)
    Z = [rng.dirichlet(np.ones(S), size=P) for S, _ in teams]
    R = [_menu(rng, S, A, items, kind) for S, A in teams]
    flows, mixes, costs = _kernels(spec, Z, R)
    zf = np.concatenate(Z, axis=1)
    sets = [PrescriptionSet(tuple(Prescription(rows=r) for r in rows)) for rows in R]
    for k in range(len(teams)):
        np.testing.assert_allclose(flows[k], flow_einsum(spec, Z, R)[k], rtol=0, atol=TOL)
        np.testing.assert_allclose(mixes[k], mixture_rows_einsum(spec, k, zf, R[k]),
                                   rtol=0, atol=TOL)
        assert costs[k].shape == (horizon, P, items)
        for t in range(horizon):
            np.testing.assert_allclose(costs[k][t], cost_table_einsum(spec, k, sets[k], Z, t),
                                       rtol=0, atol=TOL)
            _same_bits(_cost_tables(spec, k, sets[k], Z, [t])[0], costs[k][t])
        _same_bits(_cost_tables(spec, k, sets[k], Z, range(horizon - 1, -1, -1))[::-1],
                   costs[k])
    for p in range(P):
        one = _kernels(spec, [z[p:p + 1] for z in Z], R)
        for k in range(len(teams)):
            _same_bits(one[0][k], flows[k][p:p + 1])
            _same_bits(one[1][k], mixes[k][p:p + 1])
            _same_bits(one[2][k], costs[k][:, p:p + 1])
    for i in range(items):
        one = _kernels(spec, Z, [r[i:i + 1] for r in R])
        for k in range(len(teams)):
            _same_bits(one[0][k], flows[k][:, i:i + 1])
            _same_bits(one[1][k], mixes[k][:, i:i + 1])
            _same_bits(one[2][k], costs[k][:, :, i:i + 1])


@pytest.mark.parametrize("kernel", ["flow", "mixture_rows", "cost_table"])
def test_kernel_temporaries_stay_within_the_result(kernel):
    """Above what ``transition_matrix`` or ``cost_matrix`` allocates for the
    batch (the cost tables' model is one ``cost_matrix`` call per stage,
    all of them held), a kernel holds its result and one scratch array of
    the same size (plus arrays of one entry per point and item): the
    (P, m, S, S') product table of the flow is never formed."""
    rng = np.random.default_rng(0)
    spec = _ring_game([(3, 3, 1)], rng, horizon=3)
    P, m = 2000, 8
    Z = [rng.dirichlet(np.ones(3), size=P)]
    R = _menu(rng, 3, 3, m, "pure")
    ps = PrescriptionSet(tuple(Prescription(rows=r) for r in R))
    run, model = {
        "flow": (lambda: _flow(spec, Z, [R])[0], lambda: transition_matrix(spec, 0, Z[0])),
        "mixture_rows": (lambda: _mixture_rows(spec, 0, Z[0], R),
                         lambda: transition_matrix(spec, 0, Z[0])),
        "cost_table": (lambda: _cost_tables(spec, 0, ps, Z, range(3)),
                       lambda: [cost_matrix(spec, 0, t, Z[0]) for t in range(3)]),
    }[kernel]
    peaks = []
    for call in (model, run):
        tracemalloc.start()
        out = call()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    per_item = 8 * P * m * 2
    assert peaks[1] <= peaks[0] + 2 * out.nbytes + per_item + (1 << 16)
