"""Exact population-count representation of one game stage.

With N exchangeable agents per team, the per-team state occupancy counts
form a lattice of size C(N+S-1, S-1). Conditional on the current counts
and a prescription (a state-to-action-distribution map applied by every
agent of the team), one stage factors into three elementary random maps:

  1. each state's occupants split across actions (one multinomial per state),
  2. each (state, action) cell splits across next states (one multinomial
     per cell, rows from the mean-field-coupled kernel),
  3. the triple counts marginalize to next-state counts.

``action_count_dist`` / ``nextstate_count_dist`` / ``marginalize_counts``
expose the three maps; ``team_transition_kernel`` composes them exactly.
The composition is computed by convolving per-state multinomials over the
mixture row sum_a gamma(a|s) P(.|s,a,z) (agents leaving a state are iid
across both splits, so their arrival counts are multinomial on the mixture)
which is the same distribution with a far smaller intermediate support.

Counts are exact integers; multinomial weights accumulate in log space, so
populations are not limited by factorial overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import CapacityError, SpecValidationError
from .model import GameSpec, cost_matrix, flatten_mean_field, transition_matrix

DEFAULT_SUPPORT_CAP = 10 ** 7
PRUNE_TOL = 1e-15     # support atoms below this are dropped, mass renormalized
PROB_TOL = 1e-10


@dataclass(frozen=True)
class CountVector:
    """Integer state occupancy of one team."""
    team_id: int
    counts: tuple

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if any(c < 0 for c in self.counts):
            raise SpecValidationError("negative count in %s" % (self.counts,))

    @property
    def total(self):
        return sum(self.counts)

    def as_array(self):
        return np.array(self.counts, dtype=int)


@dataclass(frozen=True)
class JointCount:
    """One CountVector per team."""
    per_team: tuple

    def __post_init__(self):
        object.__setattr__(self, "per_team", tuple(self.per_team))

    def validate(self, spec: GameSpec):
        if len(self.per_team) != spec.n_teams:
            raise SpecValidationError("joint count has %d teams, spec has %d"
                                      % (len(self.per_team), spec.n_teams))
        for k, cv in enumerate(self.per_team):
            tm = spec.teams[k]
            if len(cv.counts) != tm.n_states:
                raise SpecValidationError("team %d count vector has %d states, expected %d"
                                          % (k, len(cv.counts), tm.n_states))
            if cv.total != tm.population:
                raise SpecValidationError("team %d counts sum to %d, population is %d"
                                          % (k, cv.total, tm.population))
        return self

    def mean_field(self):
        return MeanField(per_team=tuple(cv.as_array() / cv.total for cv in self.per_team))


@dataclass(frozen=True)
class MeanField:
    """Per-team occupancy distributions (the joint mean field)."""
    per_team: tuple

    def __post_init__(self):
        vecs = tuple(np.asarray(v, dtype=float) for v in self.per_team)
        for v in vecs:
            if np.any(v < -1e-12) or abs(v.sum() - 1.0) > 1e-9:
                raise SpecValidationError("mean field entry off the simplex: %s" % (v,))
        object.__setattr__(self, "per_team", vecs)

    def flat(self):
        return np.concatenate(self.per_team)


@dataclass(frozen=True)
class Prescription:
    """Map from a team's local state to an action distribution; the
    decision variable of the team's virtual coordinator."""
    team_id: int
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise SpecValidationError("prescription rows must be 2-d, got shape %s"
                                      % (rows.shape,))
        if np.any(rows < 0) or np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-12):
            raise SpecValidationError("prescription rows must each be a distribution")
        rows = np.ascontiguousarray(rows)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def is_deterministic(self):
        return bool(np.all(np.max(self.rows, axis=1) == 1.0))


@dataclass(frozen=True)
class CountDistribution:
    """Finite distribution over count objects (vectors or count tensors)."""
    support: tuple
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        probs = np.asarray(self.probs, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if len(self.support) != len(probs):
            raise SpecValidationError("support/probs length mismatch")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > PROB_TOL:
            raise SpecValidationError("count distribution probabilities sum to %.17g"
                                      % probs.sum())
        keys = set(_support_key(x) for x in self.support)
        if len(keys) != len(self.support):
            raise SpecValidationError("count distribution support has duplicates")

    def __len__(self):
        return len(self.support)


def _support_key(x):
    if isinstance(x, CountVector):
        return x.counts
    if isinstance(x, JointCount):
        return tuple(cv.counts for cv in x.per_team)
    if isinstance(x, np.ndarray):
        return (x.shape, x.tobytes())
    return x


def _finalize(atoms: dict, wrap=None) -> CountDistribution:
    """Prune tiny atoms, renormalize, order descending-lexicographically."""
    items = [(key, p) for key, p in atoms.items() if p >= PRUNE_TOL]
    if not items:   # pathological; keep the largest atom
        key = max(atoms, key=atoms.get)
        items = [(key, atoms[key])]
    items.sort(key=lambda kv: kv[0], reverse=True)
    total = math.fsum(p for _, p in items)
    support = [wrap(key) if wrap else key for key, _ in items]
    probs = np.array([p / total for _, p in items])
    return CountDistribution(support=tuple(support), probs=probs)


def lattice_size(N: int, d: int) -> int:
    return math.comb(N + d - 1, d - 1)


def enumerate_counts(N: int, d: int, cap: int = DEFAULT_SUPPORT_CAP):
    """All length-d nonnegative integer vectors summing to N, ordered with
    the leading coordinates largest first; size C(N+d-1, d-1)."""
    if N < 0 or d < 1:
        raise ValueError("need N >= 0 and d >= 1, got N=%d, d=%d" % (N, d))
    size = lattice_size(N, d)
    if size > cap:
        raise CapacityError("count lattice for (N=%d, d=%d) has %d points, cap is %d"
                            % (N, d, size, cap))
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining, -1, -1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), N, d)
    return out


class TeamLattice:
    """Count lattice of one team plus index lookups, shared by the solvers."""

    def __init__(self, population: int, n_states: int):
        self.population = population
        self.n_states = n_states
        self.points = enumerate_counts(population, n_states)
        self.index = {pt: i for i, pt in enumerate(self.points)}
        self.counts = np.array(self.points, dtype=int)
        self.z = self.counts / float(population)

    def __len__(self):
        return len(self.points)


def _joint_points(per_team_points) -> list:
    """Per-team occupancy at every point of the joint product in C order
    (the order of np.ndindex): one (P, S_k) array per team."""
    shape = tuple(len(x) for x in per_team_points)
    idx = np.indices(shape).reshape(len(shape), -1)
    return [x[i] for x, i in zip(per_team_points, idx)]


class JointLattice:
    """Cartesian product of the per-team count lattices; ``z`` holds the
    occupancies of every joint point in C order, (P, S_k) per team."""

    def __init__(self, spec: GameSpec):
        self.spec = spec
        self.teams = [TeamLattice(tm.population, tm.n_states) for tm in spec.teams]
        self.shape = tuple(len(t) for t in self.teams)
        if math.prod(self.shape) > DEFAULT_SUPPORT_CAP:
            raise CapacityError("joint count lattice has %d points, cap is %d"
                                % (math.prod(self.shape), DEFAULT_SUPPORT_CAP))
        self.z = _joint_points([tl.z for tl in self.teams])

    def __len__(self):
        return math.prod(self.shape)

    def indices(self):
        return np.ndindex(self.shape)

    def mean_field(self, idx) -> MeanField:
        return MeanField(per_team=tuple(self.teams[k].z[idx[k]]
                                        for k in range(len(self.teams))))

    def counts_at(self, idx):
        return tuple(self.teams[k].points[idx[k]] for k in range(len(self.teams)))

    def z_id(self, idx) -> str:
        return "/".join(format_counts(c) for c in self.counts_at(idx))


def count_point(z_k, population: int, k: int) -> np.ndarray:
    """Counts N * z_k of team k's occupancy z_k; raises SpecValidationError
    when z_k is not a point of the count lattice of population N."""
    z_k = np.asarray(z_k, dtype=float)
    m = np.rint(z_k * population).astype(int)
    if np.any(np.abs(z_k * population - m) > 1e-9):
        raise SpecValidationError("mean field %s of team %d is not a count point "
                                  "for population %d" % (z_k, k, population))
    return m


def _multinomial_pmf(n: int, probs: np.ndarray, comps: np.ndarray) -> np.ndarray:
    """Exact-in-structure multinomial pmf over given compositions of n."""
    logp = gammaln(n + 1) - gammaln(comps + 1.0).sum(axis=1) \
        + xlogy(comps, probs[None, :]).sum(axis=1)
    return np.exp(logp)


def action_count_dist(m, gamma: Prescription) -> CountDistribution:
    """Law of the state-action counts: each state's occupants split across
    actions independently with the prescription row as weights."""
    mv = m.as_array() if isinstance(m, CountVector) else np.asarray(m, dtype=int)
    rows = gamma.rows
    S, A = rows.shape
    if mv.shape != (S,):
        raise SpecValidationError("counts have shape %s, prescription has %d states"
                                  % (mv.shape, S))
    per_state = []
    for s in range(S):
        comps = np.array(enumerate_counts(int(mv[s]), A), dtype=int)
        per_state.append((comps, _multinomial_pmf(int(mv[s]), rows[s], comps)))
    atoms = {}

    def rec(s, acc_rows, acc_p):
        if s == S:
            key = tuple(acc_rows)
            atoms[key] = atoms.get(key, 0.0) + acc_p
            return
        comps, pmf = per_state[s]
        for i in range(len(comps)):
            if pmf[i] < PRUNE_TOL:
                continue
            rec(s + 1, acc_rows + [tuple(int(x) for x in comps[i])], acc_p * pmf[i])

    rec(0, [], 1.0)
    return _finalize(atoms, wrap=lambda key: np.array(key, dtype=int))


def nextstate_count_dist(mbar, z, spec: GameSpec, k: int) -> CountDistribution:
    """Law of the (state, action, next state) counts: each occupied
    (s, a) cell splits across next states with the kernel row at z."""
    mb = np.asarray(mbar, dtype=int)
    tm = spec.teams[k]
    S, A = tm.n_states, tm.n_actions
    if mb.shape != (S, A):
        raise SpecValidationError("state-action counts have shape %s, expected %s"
                                  % (mb.shape, (S, A)))
    zf = flatten_mean_field(spec, z)
    P = transition_matrix(spec, k, zf)
    cells = [(s, a) for s in range(S) for a in range(A) if mb[s, a] > 0]
    per_cell = []
    for (s, a) in cells:
        comps = np.array(enumerate_counts(int(mb[s, a]), S), dtype=int)
        per_cell.append((comps, _multinomial_pmf(int(mb[s, a]), P[s, a], comps)))
    atoms = {}

    def rec(i, acc, acc_p):
        if i == len(cells):
            atoms[acc] = atoms.get(acc, 0.0) + acc_p
            return
        comps, pmf = per_cell[i]
        for j in range(len(comps)):
            if pmf[j] < PRUNE_TOL:
                continue
            rec(i + 1, acc + (tuple(int(x) for x in comps[j]),), acc_p * pmf[j])

    rec(0, (), 1.0)

    def wrap(key):
        mhat = np.zeros((S, A, S), dtype=int)
        for (s, a), comp in zip(cells, key):
            mhat[s, a, :] = comp
        return mhat

    return _finalize(atoms, wrap=wrap)


def marginalize_counts(mhat) -> np.ndarray:
    """Next-state counts from the triple counts: m'(s') = sum_{s,a} mhat."""
    mh = np.asarray(mhat, dtype=int)
    if mh.ndim != 3:
        raise SpecValidationError("triple counts must be 3-d, got shape %s" % (mh.shape,))
    return mh.sum(axis=(0, 1))


def mixture_rows(spec: GameSpec, k: int, zf: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per-state next-state law of one agent: sum_a gamma(a|s) P(.|s,a,z)."""
    P = transition_matrix(spec, k, zf)                     # (S, A, S')
    return np.einsum("sa,sat->st", rows, P)


def team_transition_kernel(m, z, gamma: Prescription, spec: GameSpec, k: int,
                           cap: int = DEFAULT_SUPPORT_CAP) -> CountDistribution:
    """Exact one-stage law of team k's next counts given counts m, joint
    mean field z and prescription gamma.

    Equal to pushing action_count_dist through nextstate_count_dist and
    marginalizing; computed by convolving, state by state, the multinomial
    arrival counts on the per-state mixture row.
    """
    mv = m.as_array() if isinstance(m, CountVector) else np.asarray(m, dtype=int)
    tm = spec.teams[k]
    S = tm.n_states
    zf = flatten_mean_field(spec, z)
    rows = gamma.rows
    if rows.shape != (S, tm.n_actions):
        raise SpecValidationError("prescription shape %s does not match team %d"
                                  % (rows.shape, k))
    mix = mixture_rows(spec, k, zf, rows)
    dist = {(0,) * S: 1.0}
    for s in range(S):
        n_s = int(mv[s])
        if n_s == 0:
            continue
        comps = np.array(enumerate_counts(n_s, S), dtype=int)
        pmf = _multinomial_pmf(n_s, mix[s], comps)
        new = {}
        for part, p in dist.items():
            for j in range(len(comps)):
                q = pmf[j]
                if q < PRUNE_TOL:
                    continue
                key = tuple(int(a + b) for a, b in zip(part, comps[j]))
                new[key] = new.get(key, 0.0) + p * q
        if len(new) > cap:
            raise CapacityError("team kernel support exceeded cap %d" % cap)
        dist = new
    return _finalize(dist, wrap=lambda key: CountVector(team_id=k, counts=key))


def joint_transition_kernel(M: JointCount, prescriptions, spec: GameSpec,
                            cap: int = DEFAULT_SUPPORT_CAP) -> CountDistribution:
    """Product measure across teams of the per-team kernels (teams move
    independently given the current mean field and prescriptions)."""
    M.validate(spec)
    z = M.mean_field()
    per_team = [team_transition_kernel(M.per_team[k], z, prescriptions[k], spec, k, cap=cap)
                for k in range(spec.n_teams)]
    size = 1
    for d in per_team:
        size *= len(d)
    if size > cap:
        raise CapacityError("joint kernel support %d exceeds cap %d" % (size, cap))
    atoms = {}

    def rec(k, acc, acc_p):
        if k == spec.n_teams:
            atoms[acc] = acc_p
            return
        d = per_team[k]
        for cv, p in zip(d.support, d.probs):
            rec(k + 1, acc + (cv.counts,), acc_p * p)

    rec(0, (), 1.0)
    return _finalize(atoms, wrap=lambda key: JointCount(
        per_team=tuple(CountVector(team_id=i, counts=c) for i, c in enumerate(key))))


def sample_next_counts(M: JointCount, prescriptions, spec: GameSpec,
                       rng: np.random.Generator) -> JointCount:
    """One draw of the next joint counts via sequential multinomial
    sampling (split over actions, then over next states, then marginalize).
    Identical generator state yields identical draws."""
    M.validate(spec)
    zf = M.mean_field().flat()
    out = []
    for k in range(spec.n_teams):
        tm = spec.teams[k]
        S, A = tm.n_states, tm.n_actions
        P = transition_matrix(spec, k, zf)
        rows = prescriptions[k].rows
        nxt = np.zeros(S, dtype=int)
        mv = M.per_team[k].counts
        for s in range(S):
            if mv[s] == 0:
                continue
            p_act = rows[s] / rows[s].sum()
            mbar_s = rng.multinomial(mv[s], p_act)
            for a in range(A):
                if mbar_s[a] == 0:
                    continue
                row = P[s, a] / P[s, a].sum()
                nxt += rng.multinomial(mbar_s[a], row)
        out.append(CountVector(team_id=k, counts=tuple(int(x) for x in nxt)))
    return JointCount(per_team=tuple(out))


def stage_cost(z, gamma: Prescription, spec: GameSpec, k: int, t: int) -> float:
    """Expected per-agent stage cost of team k under (z, gamma):
    sum_s z(s) sum_a gamma(a|s) c_t(s, a, z). This closed form equals the
    conditional expectation of the team's average agent cost because that
    average is linear in the state-action counts."""
    per_team = getattr(z, "per_team", z)
    zf = flatten_mean_field(spec, z)
    C = cost_matrix(spec, k, t, zf)
    zk = np.asarray(per_team[k], dtype=float)
    return float(zk @ (gamma.rows * C).sum(axis=1))


def format_counts(counts) -> str:
    vals = counts.counts if isinstance(counts, CountVector) else counts
    return "-".join(str(int(c)) for c in vals)

