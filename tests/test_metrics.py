import json
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import teamfield as tf
from teamfield.counts import MeanField, TeamLattice
from teamfield.errors import CapacityError, SpecValidationError
from teamfield.limit import SimplexGrid
from teamfield.metrics import (estimate_lipschitz, fit_rate, kappa_envelope, theorem4_bound,
                               transport_distance, wasserstein)

from conftest import minimal_team, perfbench_gen
from oracles import expected_deviation, lipschitz_all_pairs, per_team_deviation

LINE3 = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
DISCRETE3 = np.ones((3, 3)) - np.eye(3)


def _rand_dist(rng, n):
    v = rng.random(n) + 1e-3
    return v / v.sum()


def test_wasserstein_two_state_closed_form():
    d = np.array([[0.0, 3.0], [3.0, 0.0]])
    assert wasserstein([0.2, 0.8], [0.7, 0.3], d) == pytest.approx(1.5, abs=1e-12)
    assert float(transport_distance([0.2, 0.8], [0.7, 0.3], d)) == pytest.approx(1.5)


def test_wasserstein_line_metric_equals_cdf_formula():
    """On a path graph W1 is the L1 distance between the CDFs."""
    rng = np.random.default_rng(4)
    for _ in range(50):
        p, q = _rand_dist(rng, 3), _rand_dist(rng, 3)
        oracle = abs(p[0] - q[0]) + abs(p[0] + p[1] - q[0] - q[1])
        assert wasserstein(p, q, LINE3) == pytest.approx(oracle, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
       st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3))
def test_discrete_metric_is_half_l1(pw, qw):
    p = np.array(pw) / sum(pw)
    q = np.array(qw) / sum(qw)
    lp = wasserstein(p, q, DISCRETE3)
    assert lp == pytest.approx(0.5 * np.abs(p - q).sum(), abs=1e-9)
    assert float(transport_distance(p, q, DISCRETE3)) == pytest.approx(lp, abs=1e-9)


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("S", [1, 2, 3, 4])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_transport_distance_batched_matches_lp(S, uniform, seed):
    """One broadcast call equals the transportation LP pair by pair, on the
    discrete metric scaled and on points of a line (no closed form)."""
    rng = np.random.default_rng(seed)
    if uniform:
        metric = 0.7 * (np.ones((S, S)) - np.eye(S))
    else:
        x = np.cumsum(rng.random(S) + 0.1)
        metric = np.abs(x[:, None] - x[None, :])
    p = rng.dirichlet(np.ones(S), size=(3, 1))
    q = rng.dirichlet(np.ones(S), size=(1, 4))
    d = transport_distance(p, q, metric)
    assert d.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            assert d[i, j] == pytest.approx(wasserstein(p[i, 0], q[0, j], metric), abs=1e-9)


def test_wasserstein_axioms():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p, q, r = (_rand_dist(rng, 3) for _ in range(3))
        wpq = wasserstein(p, q, LINE3)
        assert wpq >= -1e-12
        assert wasserstein(p, p, LINE3) == pytest.approx(0.0, abs=1e-9)
        assert wasserstein(q, p, LINE3) == pytest.approx(wpq, abs=1e-9)
        assert wpq <= wasserstein(p, r, LINE3) + wasserstein(r, q, LINE3) + 1e-9


def test_wasserstein_rejects_bad_input():
    with pytest.raises(SpecValidationError):
        wasserstein([0.5, 0.6], [0.5, 0.5], DISCRETE3[:2, :2])
    with pytest.raises(SpecValidationError):
        wasserstein([0.5, 0.5], [1.0, 0.0], LINE3)


@pytest.mark.parametrize("side", [0, 1])
def test_wasserstein_rejects_a_nan_distribution(side):
    """A NaN sums to NaN, which no tolerance comparison accepts: the check
    raises SpecValidationError before the LP sees the vector."""
    pq = [[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]]
    pq[side] = [np.nan, 0.5, 0.5]
    with pytest.raises(SpecValidationError, match="%s is not a probability vector" % "pq"[side]):
        wasserstein(*pq, LINE3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transport_distance_refuses_disagreeing_state_counts(n):
    """Every branch (closed form for n = 1, 2 and the equal off-diagonal
    metric, the LP for the line metric) checks that p, q and the metric
    agree on the state count, as wasserstein does."""
    p = np.full(n, 1.0 / n)
    longer = np.full(n + 1, 1.0 / (n + 1))
    metrics_n = [np.ones((n, n)) - np.eye(n)] + ([LINE3] if n == 3 else [])
    for d in metrics_n:
        assert transport_distance(p, p, d) == 0.0
        for bad in ((p, longer, d), (longer, p, d), (p[None], longer[None, None], d),
                    (p, p, np.ones((n + 1, n + 1)) - np.eye(n + 1)), (p, p, np.zeros((n, n + 1)))):
            with pytest.raises(SpecValidationError, match="dimensions disagree"):
                transport_distance(*bad)


def test_transport_distance_above_the_exact_state_cap_is_a_capacity_error():
    """A 33-state metric without a closed form needs the LP, which is
    limited to MAX_EXACT_STATES = 32 states: the spec is valid, so the
    refusal is CapacityError (exit 3), not SpecValidationError."""
    n = 33
    d = np.ones((n, n)) - np.eye(n)
    d[0, 1] = d[1, 0] = 1.5
    p = np.full(n, 1.0 / n)
    with pytest.raises(CapacityError, match="limited to 32 states, got 33"):
        transport_distance(p, p, d)


def _iid_probe_inputs(spec):
    gammas = (tf.build_prescription_set(spec, 0).items[0],)
    z = MeanField(per_team=(np.array([0.5, 0.5]),))
    return z, gammas


def test_deviation_matches_binomial_mad(iid_probe_spec):
    """Coin-flip dynamics: next counts are Binomial(N, 1/2), so the
    deviation is the mean absolute distance of X/N from 1/2."""
    from teamfield.model import with_populations
    z, gammas = _iid_probe_inputs(iid_probe_spec)
    for n in (2, 4, 8, 16):
        sp = with_populations(iid_probe_spec, n)
        x = np.arange(n + 1)
        oracle = float(np.sum(binom.pmf(x, n, 0.5) * np.abs(x / n - 0.5)))
        got = per_team_deviation(z, gammas, sp)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(oracle, abs=1e-12)


def test_deviation_requires_count_point(iid_probe_spec):
    gammas = (tf.build_prescription_set(iid_probe_spec, 0).items[0],)
    z = MeanField(per_team=(np.array([0.3, 0.7]),))
    with pytest.raises(SpecValidationError):
        per_team_deviation(z, gammas, iid_probe_spec)


def test_expected_deviation_single_agent():
    spec = tf.load_spec(json.dumps(minimal_team(population=1)))
    gammas = (tf.build_prescription_set(spec, 0).items[0],)
    z = MeanField(per_team=(np.array([1.0, 0.0]),))
    # one agent lands in one of two states; either is at distance 1/2
    assert expected_deviation(z, gammas, spec) == pytest.approx(0.5, abs=1e-15)


def test_expected_deviation_monte_carlo_agrees():
    spec = tf.load_spec(json.dumps(minimal_team(population=4)))
    gammas = (tf.build_prescription_set(spec, 0).items[0],)
    z = MeanField(per_team=(np.array([0.5, 0.5]),))
    exact = expected_deviation(z, gammas, spec)
    assert exact == pytest.approx(0.1875, abs=1e-15)


def test_expected_deviation_rejects_off_lattice_point_in_both_branches(reference_spec,
                                                                     reference_sets):
    """0.3 is no count point at N=4: the deviation must refuse it, not
    round it onto the lattice."""
    from teamfield.model import with_populations
    spec = with_populations(reference_spec, 4)
    gammas = [ps.items[0] for ps in reference_sets]
    z = MeanField(per_team=(np.array([0.3, 0.7]), np.array([0.5, 0.5])))
    with pytest.raises(SpecValidationError, match="not a count point"):
        expected_deviation(z, gammas, spec)


def test_fit_rate_on_coin_flips(iid_probe_spec):
    z, gammas = _iid_probe_inputs(iid_probe_spec)
    fit = fit_rate(iid_probe_spec, z, gammas, [2, 4, 8, 16, 32, 64])
    assert not fit.degenerate
    assert -0.65 <= fit.slope <= -0.35
    assert fit.r_squared > 0.99
    # envelope dominates every probed deviation
    for n, d in zip(fit.n_values, fit.deviations):
        assert fit.kappa_hat[0] >= np.sqrt(n) * d - 1e-15
    rows = fit.csv_rows()
    assert rows[0] == (2, repr(fit.deviations[0]), repr(0.0))
    d = fit.as_dict()
    assert d["kappa_kind"] == "empirical-envelope"
    assert d["degenerate"] is False


def test_fit_rate_degenerate_on_deterministic_dynamics():
    from conftest import identity_dynamics_spec
    spec = tf.load_spec(json.dumps(identity_dynamics_spec()))
    gammas = (tf.build_prescription_set(spec, 0).items[0],)
    z = MeanField(per_team=(np.array([0.5, 0.5]),))
    fit = fit_rate(spec, z, gammas, [2, 4, 6, 8])
    assert fit.degenerate
    assert np.all(fit.kappa_hat == 0.0)
    assert fit.as_dict()["slope"] is None


def test_fit_rate_needs_four_populations(iid_probe_spec):
    z, gammas = _iid_probe_inputs(iid_probe_spec)
    with pytest.raises(SpecValidationError):
        fit_rate(iid_probe_spec, z, gammas, [2, 4, 4, 8])


@pytest.mark.parametrize("bad", [4.5, 4.0, "4", 0])
def test_fit_rate_refuses_a_population_that_is_not_a_count(iid_probe_spec, bad):
    """N = 4.5 used to be fitted as N = 4; every population input is an
    integer of at least 1, as ``kappa_envelope`` and the spec require."""
    z, gammas = _iid_probe_inputs(iid_probe_spec)
    with pytest.raises(SpecValidationError, match="rate-fit population"):
        fit_rate(iid_probe_spec, z, gammas, [2, bad, 8, 16])
    with pytest.raises(SpecValidationError):
        kappa_envelope(iid_probe_spec, z, [gammas], [bad])


def test_kappa_scales_with_metric():
    """Doubling the state metric doubles every transport distance and so
    doubles the fitted envelope."""
    doc = minimal_team(population=2)
    doc2 = json.loads(json.dumps(doc))
    doc2["teams"][0]["metric"] = [[0.0, 2.0], [2.0, 0.0]]
    spec1 = tf.load_spec(json.dumps(doc))
    spec2 = tf.load_spec(json.dumps(doc2))
    z = MeanField(per_team=(np.array([0.5, 0.5]),))
    ns = [2, 4, 8, 16]
    g1 = (tf.build_prescription_set(spec1, 0).items[0],)
    g2 = (tf.build_prescription_set(spec2, 0).items[0],)
    k1 = kappa_envelope(spec1, z, [g1], ns)
    k2 = kappa_envelope(spec2, z, [g2], ns)
    assert np.allclose(k2, 2.0 * k1)
    assert k1[0] > 0


def test_lipschitz_constant_table(reference_spec):
    grid = SimplexGrid(reference_spec, [2, 2])
    table = tf.ValueTable(values=np.full((2, 2) + grid.shape, 3.5), lattice=grid)
    out = estimate_lipschitz(table, reference_spec)
    assert out.shape == (2, 2)
    assert np.all(out == 0.0)


def test_lipschitz_recovers_unit_slope(reference_spec):
    grid = SimplexGrid(reference_spec, [2, 2])
    vals = np.zeros((2, 2) + grid.shape)
    p0 = grid.points[0][:, 0]
    vals[:, :, :, :] = p0[None, None, :, None]
    table = tf.ValueTable(values=vals, lattice=grid)
    out = estimate_lipschitz(table, reference_spec)
    assert np.allclose(out, 1.0, atol=1e-12)
    # shifting a value table never changes its difference quotients
    shifted = tf.ValueTable(values=vals + 17.0, lattice=grid)
    assert np.allclose(estimate_lipschitz(shifted, reference_spec), out)


def test_lipschitz_is_the_max_over_all_pairs(reference_spec):
    """The estimate equals the all-pairs loop on a random two-team table of
    25 points, and it reaches every pair of one team's 25 vertices at unit
    distance (``TeamLattice(1, 25)``, descending, so its ranks are not
    flipped), where every pair is a one-unit move: stage t raises one pair
    (a, b) to +1 and -1, so its estimate is 2 only if (a, b) is compared."""
    grid = SimplexGrid(reference_spec, [4, 4])
    vals = np.random.default_rng(0).random((2, 2) + grid.shape)
    got = estimate_lipschitz(tf.ValueTable(values=vals, lattice=grid), reference_spec)
    pts = list(np.ndindex(grid.shape))
    expect = np.zeros((2, 2))
    for a, ia in enumerate(pts):
        for ib in pts[a + 1:]:
            d = sum(wasserstein(grid.points[k][ia[k]], grid.points[k][ib[k]],
                                reference_spec.teams[k].state_metric) for k in range(2))
            for k in range(2):
                for t in range(2):
                    q = abs(vals[(t, k) + ia] - vals[(t, k) + ib]) / d
                    expect[k, t] = max(expect[k, t], q)
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0)

    n = 25
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    spikes = np.zeros((len(pairs), 1, n))
    for t, (a, b) in enumerate(pairs):
        spikes[t, 0, a], spikes[t, 0, b] = 1.0, -1.0
    vertices = types.SimpleNamespace(values=spikes,
                                     lattice=types.SimpleNamespace(teams=[TeamLattice(1, n)]))
    unit = types.SimpleNamespace(teams=[types.SimpleNamespace(state_metric=1.0 - np.eye(n))])
    assert np.array_equal(estimate_lipschitz(vertices, unit), np.full((1, len(pairs)), 2.0))


@pytest.mark.parametrize("n", [4, 8, 16])
def test_lipschitz_matches_the_all_pairs_scan_on_the_reference_grid(reference_spec, n):
    """On the limit value tables of the reference game at the bound sweep's
    populations, the max over one-team moves is bitwise the all-pairs max."""
    spec = tf.with_populations(reference_spec, n)
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(spec.n_teams))
    _, values, _ = tf.solve_mpe_inf(spec, sets)
    got = estimate_lipschitz(values, spec)
    assert np.any(got > 0)
    assert np.array_equal(got, lipschitz_all_pairs(values, spec))


def test_lipschitz_matches_the_all_pairs_scan_on_the_exact_pure_game():
    """The benchmark's generated two-team three-state game at N=4 (45 x 45
    grid points), as ``bound --n-sweep 4`` solves it."""
    spec = tf.with_populations(tf.load_spec(perfbench_gen().exact_pure(1)), 4)
    sets = tuple(tf.build_prescription_set(spec, k) for k in range(spec.n_teams))
    _, values, _ = tf.solve_mpe_inf(spec, sets)
    assert values.values.shape[2:] == (45, 45)
    assert np.array_equal(estimate_lipschitz(values, spec), lipschitz_all_pairs(values, spec))


# A multi-team pair's quotient rounds in the difference, the summed distance
# and the division, against one rounding of each one-unit move's quotient,
# so with K <= 3 teams it can exceed the move max by at most about 3 eps
# relative; tables whose values are a common multiple of the summed distance
# to a point tie every quotient and reach one ulp.
LIPSCHITZ_RTOL = 4 * np.finfo(float).eps


def _grid_table(values, lattices):
    return types.SimpleNamespace(values=values, lattice=types.SimpleNamespace(teams=lattices))


@settings(max_examples=60, deadline=None)
@given(grids=st.lists(st.tuples(st.integers(2, 3), st.integers(1, 3),
                                 st.floats(0.1, 3.0)), min_size=2, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.integers(-6, 6), tied=st.booleans())
def test_lipschitz_one_team_moves_reach_the_all_pairs_max(grids, seed, scale, tied):
    """Random value tables on two- and three-team product grids (S in
    {2, 3}, resolution 1-3, equal off-diagonal metrics): the one-unit move
    max is never above the all-pairs max and at most LIPSCHITZ_RTOL below it."""
    rng = np.random.default_rng(seed)
    lattices = [TeamLattice(r, S, ascending=True) for S, r, _ in grids]
    pts = [tl.z for tl in lattices]
    teams = [types.SimpleNamespace(state_metric=d * (1.0 - np.eye(S))) for S, _, d in grids]
    shape = tuple(len(p) for p in pts)
    K = len(shape)
    if tied:
        base = [rng.integers(len(p)) for p in pts]
        V = sum((d * 0.5 * np.abs(p - p[b]).sum(axis=1)).reshape(
                    [-1 if j == k else 1 for j in range(K)])
                for k, (p, b, (_, _, d)) in enumerate(zip(pts, base, grids)))
        V = np.broadcast_to(V * 10.0 ** scale, (2, K) + shape)
    else:
        V = rng.standard_normal((2, K) + shape) * 10.0 ** scale
    table = _grid_table(V, lattices)
    spec = types.SimpleNamespace(teams=teams)
    got = estimate_lipschitz(table, spec)
    full = lipschitz_all_pairs(table, spec)
    assert np.all(got <= full)
    assert np.all(full <= got * (1.0 + LIPSCHITZ_RTOL))


@settings(max_examples=30, deadline=None)
@given(resolutions=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       seed=st.integers(0, 2 ** 32 - 1))
@example(resolutions=[3, 3], seed=1)
def test_lipschitz_moves_reach_the_all_pairs_max_under_a_general_metric(resolutions, seed):
    """Three states with unequal off-diagonal distances in [1, 2], so every
    triangle inequality holds and ``transport_distance`` solves the LP: on
    random value tables the move max is never above the all-pairs max and at
    most LIPSCHITZ_RTOL below it. The LP is not bitwise symmetric, so the
    first bound holds only if each move's distance is taken in the pair
    scan's order (the pinned example fails otherwise)."""
    rng = np.random.default_rng(seed)
    d = np.zeros((3, 3))
    d[0, 1], d[0, 2], d[1, 2] = rng.uniform(1.0, 2.0, 3)
    d += d.T
    lattices = [TeamLattice(r, 3, ascending=True) for r in resolutions]
    table = _grid_table(rng.standard_normal((2, len(lattices)) + tuple(map(len, lattices))),
                        lattices)
    spec = types.SimpleNamespace(teams=[types.SimpleNamespace(state_metric=d)] * len(lattices))
    got = estimate_lipschitz(table, spec)
    full = lipschitz_all_pairs(table, spec)
    assert np.all(got <= full)
    assert np.all(full <= got * (1.0 + LIPSCHITZ_RTOL))


def test_lipschitz_of_a_one_point_table_is_zero(reference_spec):
    """One point makes no move, so the largest difference quotient is 0."""
    table = _grid_table(np.full((3, 2, 1, 1), 7.0), [TeamLattice(1, 1, ascending=True)] * 2)
    out = estimate_lipschitz(table, reference_spec)
    assert out.shape == (2, 3)
    assert np.all(out == 0.0)


def test_theorem4_bound_literals():
    assert theorem4_bound([1.0], [[1.0]], [4]) == pytest.approx(1.0, abs=1e-15)
    # additive over stages and teams
    assert theorem4_bound([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [4, 4]) \
        == pytest.approx(4.0)
    base = theorem4_bound([0.3], [[0.7, 0.2]], [9])
    assert theorem4_bound([0.6], [[0.7, 0.2]], [9]) == pytest.approx(2 * base)
    assert theorem4_bound([0.3], [[1.4, 0.4]], [9]) == pytest.approx(2 * base)
    assert theorem4_bound([0.3], [[0.7, 0.2]], [36]) == pytest.approx(base / 2)
    with pytest.raises(SpecValidationError):
        theorem4_bound([-1.0], [[1.0]], [4])
