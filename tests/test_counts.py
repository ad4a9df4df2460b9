import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teamfield as tf
from teamfield import counts, simulate
from teamfield.counts import (PRUNE_TOL, MeanField, Prescription, TeamLattice, count_point,
                              enumerate_counts, lattice_size)
from teamfield.errors import CapacityError, SpecValidationError
from teamfield.model import flatten_mean_field
from teamfield.rng import substream
from teamfield.stage_game import PrescriptionSet, _cost_tables

from conftest import kernel_row
from oracles import (CountDistribution, action_count_dist, marginalize_counts,
                     nextstate_count_dist, sample_next_counts)


def test_enumerate_counts_order_and_size():
    assert enumerate_counts(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert enumerate_counts(1, 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for n, d in [(0, 2), (3, 2), (4, 3), (5, 4)]:
        pts = enumerate_counts(n, d)
        assert len(pts) == lattice_size(n, d) == math.comb(n + d - 1, d - 1)
        assert all(sum(p) == n for p in pts)
        assert pts == sorted(pts, reverse=True)
        assert len(set(pts)) == len(pts)


def test_enumerate_counts_capacity(monkeypatch):
    with pytest.raises(CapacityError):
        enumerate_counts(10 ** 6, 5)
    monkeypatch.setattr(counts, "DEFAULT_SUPPORT_CAP", 5)
    assert len(enumerate_counts(4, 2)) == 5
    with pytest.raises(CapacityError, match="has 6 points, cap is 5"):
        enumerate_counts(5, 2)


def test_mean_field_validates_simplex():
    MeanField(per_team=(np.array([0.5, 0.5]),))
    with pytest.raises(SpecValidationError):
        MeanField(per_team=(np.array([0.6, 0.6]),))


@pytest.mark.parametrize("v", [[np.nan, 1.0], [[0.5, 0.5]]], ids=["nan", "matrix"])
def test_mean_field_refuses_nan_and_non_vectors(v, reference_spec):
    """A NaN passed both simplex bounds (every comparison with it is
    false), and a matrix passed as one team's vector; the mean field and
    the flattened form now share one check."""
    with pytest.raises(SpecValidationError):
        MeanField(per_team=(np.array(v),))
    with pytest.raises(SpecValidationError):
        flatten_mean_field(reference_spec, [np.array(v), np.array([1.0, 0.0])])


def test_count_distribution_rejects_bad_inputs():
    cv = (1, 0)
    with pytest.raises(SpecValidationError):
        CountDistribution(support=(cv,), probs=np.array([0.5]))
    with pytest.raises(SpecValidationError):
        CountDistribution(support=(cv, cv), probs=np.array([0.5, 0.5]))


def test_action_count_dist_hand_literal():
    gamma = Prescription(rows=np.array([[0.5, 0.5], [1.0, 0.0]]))
    dist = action_count_dist(np.array([2, 0]), gamma)
    got = {tuple(map(tuple, mb)): p for mb, p in zip(dist.support, dist.probs)}
    assert got[((2, 0), (0, 0))] == pytest.approx(0.25)
    assert got[((1, 1), (0, 0))] == pytest.approx(0.5)
    assert got[((0, 2), (0, 0))] == pytest.approx(0.25)
    assert len(got) == 3


def test_next_state_composition_matches_direct_kernel(reference_spec,
                                                      reference_sets):
    """Dual route: split over actions, split each cell over next states,
    marginalize -- this composition must equal the one-shot kernel."""
    spec = reference_spec
    m = np.array([1, 1])
    z = MeanField(per_team=(np.array([0.5, 0.5]), np.array([0.5, 0.5])))
    points = enumerate_counts(2, 2)
    for gamma in reference_sets[0].items:
        direct = kernel_row(spec, 0, m, z, gamma)
        composed = {}
        act = action_count_dist(m, gamma)
        for mbar, p in zip(act.support, act.probs):
            nxt = nextstate_count_dist(mbar, z, spec, 0)
            for mhat, q in zip(nxt.support, nxt.probs):
                key = tuple(int(x) for x in marginalize_counts(mhat))
                composed[key] = composed.get(key, 0.0) + p * q
        direct_map = {pt: p for pt, p in zip(points, direct) if p >= PRUNE_TOL}
        assert set(direct_map) == set(composed)
        for key in composed:
            assert direct_map[key] == pytest.approx(composed[key], abs=1e-12)


def test_team_kernel_probabilities(reference_spec, reference_sets):
    z = MeanField(per_team=(np.array([1.0, 0.0]), np.array([0.5, 0.5])))
    row = kernel_row(reference_spec, 0, np.array([2, 0]), z, reference_sets[0].items[3])
    assert abs(sum(row) - 1.0) < 1e-12
    assert (TeamLattice(2, 2).counts.sum(axis=1) == 2).all()


def test_joint_kernel_capacity_error(monkeypatch, reference_spec, reference_sets):
    """The kernel check builds the exact law on the joint lattice (3 x 3
    points here) and refuses a lattice above the support cap."""
    z = MeanField(per_team=(np.array([1.0, 0.0]), np.array([0.5, 0.5])))
    gammas = (reference_sets[0].items[1], reference_sets[1].items[2])
    monkeypatch.setattr(simulate, "DEFAULT_SUPPORT_CAP", 8)
    with pytest.raises(CapacityError, match="9 points, cap is 8"):
        tf.empirical_kernel_check(reference_spec, z, gammas, samples=10)
    monkeypatch.setattr(simulate, "DEFAULT_SUPPORT_CAP", 9)
    assert tf.empirical_kernel_check(reference_spec, z, gammas, samples=10).samples == 10


def test_sample_next_counts_reproducible(reference_spec, reference_sets):
    M = (np.array([1, 1]), np.array([2, 0]))
    gammas = (reference_sets[0].items[0], reference_sets[1].items[3])
    a = sample_next_counts(M, gammas, reference_spec, substream(9, "x"))
    b = sample_next_counts(M, gammas, reference_spec, substream(9, "x"))
    assert a == b
    assert [sum(c) for c in a] == [2, 2]


def test_sample_next_counts_frequencies(reference_spec, reference_sets):
    spec = reference_spec
    M = (np.array([1, 1]), np.array([1, 1]))
    gammas = (reference_sets[0].items[0], reference_sets[1].items[0])
    z = MeanField(per_team=tuple(m / 2.0 for m in M))
    exact = np.multiply.outer(*(kernel_row(spec, k, M[k], z, gammas[k]) for k in range(2)))
    rng = substream(17, "freq")
    n = 20000
    freq = {}
    for _ in range(n):
        key = sample_next_counts(M, gammas, spec, rng)
        freq[key] = freq.get(key, 0) + 1
    points = enumerate_counts(2, 2)
    emap = {(points[i], points[j]): p for (i, j), p in np.ndenumerate(exact)}
    tv = 0.5 * sum(abs(freq.get(k, 0) / n - emap.get(k, 0.0))
                   for k in set(freq) | set(emap))
    assert tv < 0.02


def test_stage_cost_literal(single_team_spec):
    # congestion weight 1 on own occupancy of the current state, move fee
    # 0.05: at z=(0.5,0.5) with everyone staying the cost is sum_s z(s)^2
    gamma = Prescription(rows=np.array([[1.0, 0.0], [1.0, 0.0]]))
    mover = Prescription(rows=np.array([[0.0, 1.0], [0.0, 1.0]]))
    stay, move = _cost_tables(single_team_spec, 0, PrescriptionSet((gamma, mover)),
                              [np.array([[0.5, 0.5]])], [0])[0, 0]
    assert stay == pytest.approx(0.5)
    assert move == pytest.approx(0.5 + 0.05)


def test_count_point_rounds_lattice_points_and_rejects_the_rest():
    assert count_point([0.25, 0.75], 4, 0).tolist() == [1, 3]
    assert count_point([1.0 / 3, 2.0 / 3], 3, 0).tolist() == [1, 2]
    with pytest.raises(SpecValidationError, match="team 1 is not a count point"):
        count_point([0.3, 0.7], 4, 1)


def test_team_lattice_lookup():
    tl = TeamLattice(3, 2)
    assert len(tl) == 4
    assert tl.counts.tolist() == [[3, 0], [2, 1], [1, 2], [0, 3]]
    assert tl.rank((2, 1)) == 1 and tl.rank(np.array([0, 3])) == 3
    assert TeamLattice(3, 2, ascending=True).rank((2, 1)) == 2
    assert np.allclose(tl.z.sum(axis=1), 1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 4), st.booleans(), st.data())
def test_team_lattice_rank_is_the_position_and_refuses_off_lattice_counts(N, S, ascending,
                                                                          data):
    """rank(counts[i]) == i on both orders; a vector of the wrong length, with
    a negative entry, of another total or of floats is not a lattice point."""
    tl = TeamLattice(N, S, ascending=ascending)
    assert [tl.rank(c) for c in tl.counts] == list(range(len(tl)))
    assert [tl.rank(tuple(c)) for c in tl.counts.tolist()] == list(range(len(tl)))
    c = tl.counts[data.draw(st.integers(0, len(tl) - 1))]
    off = [np.append(c, 0), c[:-1], c + np.eye(S, dtype=int)[0], c.astype(float)]
    if S > 1:     # the right total with a negative entry
        off.append(np.r_[N + 1, np.zeros(S - 2, dtype=int), -1])
    for bad in off:
        with pytest.raises(SpecValidationError, match="not a point of the count lattice"):
            tl.rank(bad)


from conftest import DATA

REFERENCE = tf.load_spec_file(DATA / "two_team_reference.json")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 4), st.lists(st.floats(0.05, 1.0), min_size=4,
                                   max_size=4))
def test_kernel_mass_and_mean_property(n0, w):
    rows = np.asarray(w).reshape(2, 2)
    rows = rows / rows.sum(axis=1, keepdims=True)
    gamma = Prescription(rows=rows)
    m = np.array([n0, 4 - n0])
    z = MeanField(per_team=(m / 4.0, np.array([0.5, 0.5])))
    row = kernel_row(REFERENCE, 0, m, z, gamma)
    tl = TeamLattice(4, 2)
    assert abs(sum(row) - 1.0) < 1e-12
    assert (tl.counts.sum(axis=1) == 4).all()
    mean = row @ tl.counts
    flow = tf.flow(z, (gamma, gamma), REFERENCE).per_team[0]
    assert np.allclose(mean / 4.0, flow, atol=1e-12)
