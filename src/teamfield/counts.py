"""Exact population-count representation of one game stage.

With N exchangeable agents per team, the per-team state occupancy counts
form a lattice of size C(N+S-1, S-1). Conditional on the current counts
and a prescription (a state-to-action-distribution map applied by every
agent of the team), one stage factors into three elementary random maps:

  1. each state's occupants split across actions (one multinomial per state),
  2. each (state, action) cell splits across next states (one multinomial
     per cell, rows from the mean-field-coupled kernel),
  3. the triple counts marginalize to next-state counts.

So the next counts are a sum of N independent one-agent draws, an agent
in state s landing in s' with the mixture row sum_a gamma(a|s) P(s'|s,a,z).
``_count_laws`` builds their law batched over many rows, adding one agent
at a time on the lattice of the agents seen so far: arrays stay lattice-sized
and every term is a nonnegative product (no log space, no pruning). The kernel
store, the initial count law, the kernel check and the bound's deviations (one
call per population for all teams with the same (N, S)) read its rows. The
three maps and the convolution it replaced are the oracles in ``tests/oracles.py``.

A team's count point is an integer array of length S, a joint point a tuple
of them. ``TeamLattice.rank`` is the one lookup of a point's lattice index
(``TeamLattice._ranks`` of a batch): ``_lattice_rank`` over ``_rank_terms``,
which batched paths apply to arrays.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, SpecValidationError
from .model import GameSpec, _per_team_simplex, _team_rows, transition_matrix

DEFAULT_SUPPORT_CAP = 10 ** 7
PRUNE_TOL = 1e-15     # exact atoms below this count as off the kernel check's support


@dataclass(frozen=True, eq=False)
class MeanField:
    """Per-team occupancy distributions (the joint mean field)."""
    per_team: tuple

    def __post_init__(self):
        sizes = [np.size(v) for v in self.per_team]
        object.__setattr__(self, "per_team", _per_team_simplex(self.per_team, sizes, "mean field"))


@dataclass(frozen=True, eq=False)
class Prescription:
    """Map from a team's local state to an action distribution; the
    decision variable of the team's virtual coordinator."""
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


def _profile_rows(spec: GameSpec, prescriptions) -> list:
    """Per-team (1, S_k, A_k) rows of a profile of one Prescription per team."""
    if len(prescriptions) != spec.n_teams:
        raise SpecValidationError("profile has %d prescriptions, spec has %d teams"
                                  % (len(prescriptions), spec.n_teams))
    bad = [type(p).__name__ for p in prescriptions if not isinstance(p, Prescription)]
    if bad:
        raise SpecValidationError("profile holds a %s, not a Prescription" % bad[0])
    return [p.rows[None] for p in prescriptions]


def lattice_size(N: int, d: int) -> int:
    return math.comb(N + d - 1, d - 1)


def enumerate_counts(N: int, d: int):
    """All length-d nonnegative integer vectors summing to N, ordered with
    the leading coordinates largest first; size C(N+d-1, d-1)."""
    if N < 0 or d < 1:
        raise ValueError("need N >= 0 and d >= 1, got N=%d, d=%d" % (N, d))
    size = lattice_size(N, d)
    if size > DEFAULT_SUPPORT_CAP:
        raise CapacityError("count lattice for (N=%d, d=%d) has %d points, cap is %d"
                            % (N, d, size, DEFAULT_SUPPORT_CAP))
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining, -1, -1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), N, d)
    return out


def _rank_terms(N: int, S: int) -> np.ndarray:
    """terms[i, j] = lattice_size(j - 1, S - i) (0 at j = 0), for i < S - 1.
    ``enumerate_counts`` lists a larger coordinate i first, so of the points
    sharing a point's first i coordinates, lattice_size(n - c_0 - ... - c_i
    - 1, S - i) come before it (n the total). The index is the sum of these
    terms over i < S - 1; the table serves every total n <= N."""
    terms = np.zeros((S - 1, N + 1), dtype=np.intp)
    for i in range(S - 1):
        terms[i, 1:] = [lattice_size(n, S - i) for n in range(N)]
    return terms


def _lattice_rank(terms: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Index in ``enumerate_counts`` order of each row of counts (B, S),
    each on the lattice of its own total."""
    S = terms.shape[0] + 1
    left = np.cumsum(counts[:, :0:-1], axis=1)[:, ::-1]    # c_{i+1} + ... + c_{S-1}
    return terms[np.arange(S - 1), left].sum(axis=1)


@functools.lru_cache(maxsize=32)
def _arrivals(N: int, S: int) -> tuple:
    """(maps, points): per level j < N, maps[j][s] holds for each point of
    the level-(j + 1) lattice (counts of j + 1 agents) the level-j index of
    that point less one agent in state s, or L_j where s is empty; points
    is the level-N lattice (L_N, S) in ``enumerate_counts`` order."""
    terms = _rank_terms(N, S)
    pts, maps = np.zeros((1, S), dtype=np.intp), []
    for j in range(N):
        nxt = pts[None] + np.eye(S, dtype=np.intp)[:, None]      # (S, L_j, S)
        idx = _lattice_rank(terms, nxt.reshape(-1, S)).reshape(S, -1)
        pred = np.full((S, lattice_size(j + 1, S)), len(pts), dtype=np.intp)
        pred[np.arange(S)[:, None], idx] = np.arange(len(pts))
        pts = np.empty((pred.shape[1], S), dtype=np.intp)
        pts[idx] = nxt
        pred.setflags(write=False)
        maps.append(pred)
    pts.setflags(write=False)
    return tuple(maps), pts


def _count_laws(mix: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(B, L) law, in ``enumerate_counts`` order, of the next counts of N
    independent agents: row b has counts[b, s] agents in state s, each
    landing in s' with probability mix[b, s, s']; all rows total N. Agents
    join one at a time in state order, so after j of them the law lives on
    the level-j lattice, plus the zero column ``_arrivals`` points to. Agent
    j's rows (B, S) are gathered again only if j starts some row's state."""
    B, S = counts.shape
    bounds = np.cumsum(counts, axis=1)
    enters = np.bincount((bounds - counts).ravel(), minlength=bounds[0, -1] + 1) > 0
    law = np.repeat([[1.0, 0.0]], B, axis=0)
    for j, pred in enumerate(_arrivals(int(bounds[0, -1]), S)[0]):
        if enters[j]:
            w = mix[np.arange(B), (bounds <= j).sum(axis=1)]     # agent j's row, (B, S)
        acc = law[:, pred[0]] * w[:, 0, None]     # contiguous; adding into the padded view is slower
        for s in range(1, S):
            acc += law[:, pred[s]] * w[:, s, None]
        law = np.zeros((B, acc.shape[1] + 1))
        law[:, :-1] = acc
    return law[:, :-1]


class TeamLattice:
    """Count lattice of one team, descending (or ``ascending``): ``counts``
    (L, S) and the occupancies ``z`` = counts / population."""

    def __init__(self, population: int, n_states: int, ascending: bool = False):
        self.population = population
        self.n_states = n_states
        self.ascending = ascending
        self.counts = np.array(enumerate_counts(population, n_states)[::-1 if ascending else 1])
        self.z = self.counts / float(population)
        self._terms = _rank_terms(population, n_states)

    def __len__(self):
        return len(self.counts)

    def rank(self, counts) -> int:
        """Index of ``counts`` in this lattice; SpecValidationError off the lattice."""
        c = np.asarray(counts)
        if (c.shape != (self.n_states,) or not np.issubdtype(c.dtype, np.integer)
                or np.any(c < 0) or c.sum() != self.population):
            raise SpecValidationError("counts %s are not a point of the count lattice of %d "
                                      "agents" % (c.tolist(), self.population))
        return int(self._ranks(c[None])[0])

    def _ranks(self, counts: np.ndarray) -> np.ndarray:
        """Indices in this lattice of the rows of counts (B, S), all on it."""
        i = _lattice_rank(self._terms, counts)
        return len(self) - 1 - i if self.ascending else i


def _joint_points(per_team_points) -> list:
    """Per-team occupancy at every point of the joint product in C order
    (the order of np.ndindex): one (P, S_k) array per team."""
    shape = tuple(len(x) for x in per_team_points)
    idx = np.indices(shape).reshape(len(shape), -1)
    return [x[i] for x, i in zip(per_team_points, idx)]


class JointLattice:
    """Product of per-team count lattices (by default each team's
    population lattice): ``points[k]`` holds team k's occupancies and
    ``z`` those of every joint point in C order, (P, S_k) per team. Point
    names are joined once from per-team parts: ``ids`` (``2-1/0-3``) and
    ``record_z``, the ``z`` text of policy.json records."""

    kind = "count lattice"
    _sep = "/"

    def __init__(self, spec: GameSpec):
        self.spec = spec
        self.teams = self._team_lattices(spec)
        self.points = [tl.z for tl in self.teams]
        self.shape = tuple(len(t) for t in self.teams)
        if math.prod(self.shape) > DEFAULT_SUPPORT_CAP:
            raise CapacityError("joint %s has %d points, cap is %d"
                                % (self.kind, math.prod(self.shape), DEFAULT_SUPPORT_CAP))
        self.z = _joint_points(self.points)

    def _team_lattices(self, spec: GameSpec) -> list:
        return [TeamLattice(tm.population, tm.n_states) for tm in spec.teams]

    def __len__(self):
        return math.prod(self.shape)

    def _team_ids(self, tl: TeamLattice) -> list:
        return ["-".join(map(str, c)) for c in tl.counts.tolist()]

    @functools.cached_property
    def ids(self) -> list:
        return [self._sep.join(p) for p in itertools.product(*map(self._team_ids, self.teams))]

    @functools.cached_property
    def record_z(self) -> list:
        """Per-team count lists as ``_indented`` writes them in a record: each
        team's list written alone is ``[`` + part + close; a point's joins the parts."""
        alone = [[_indented([c]) for c in tl.counts.tolist()] for tl in self.teams]
        close = alone[0][0][alone[0][0].rindex("\n"):]
        parts = [[s[1:-len(close)] for s in team] for team in alone]
        return ["[%s%s" % (",".join(p), close) for p in itertools.product(*parts)]


def _indented(obj) -> str:
    """``obj`` as ``json.dumps(indent=2)`` writes it as a policy.json record's value."""
    return json.dumps(obj, indent=2).replace("\n", "\n      ")


def _count_lattice(policy) -> JointLattice:
    """The count lattice ``policy`` is tabulated on; a grid's points are in another order,
    so a reader of count-lattice kernels, laws or ranks would mix up their records."""
    lattice = policy.lattice
    if lattice.kind != JointLattice.kind:
        raise SpecValidationError("policy is tabulated on a %s, not on the joint count "
                                  "lattice; replay it with limit.project_policy_to_lattice"
                                  % lattice.kind)
    return lattice


def count_point(z_k, population: int, k: int) -> np.ndarray:
    """Counts N * z_k of team k's occupancy z_k; raises SpecValidationError
    when z_k is not a point of the count lattice of population N."""
    z_k = np.asarray(z_k, dtype=float)
    m = np.rint(z_k * population).astype(int)
    if np.any(np.abs(z_k * population - m) > 1e-9):
        raise SpecValidationError("mean field %s of team %d is not a count point "
                                  "for population %d" % (z_k, k, population))
    return m


def _mixture_rows(spec: GameSpec, k: int, zf: np.ndarray, R: np.ndarray) -> np.ndarray:
    """(P, m, S, S) next-state law of one team-k agent in each state,
    sum_a gamma(a|s) P(.|s,a,z), at the flat joint points zf (P, D) under
    each prescription of R (m, S, A). The actions are summed in order by
    elementwise ufuncs, the points and items on broadcast axes, so a point
    or item has the same bits alone or inside any batch; no temporary is
    larger than the result, which agrees with the einsum form
    (``tests/oracles.py``) within 1e-12."""
    R, P = _team_rows(spec, k, R), transition_matrix(spec, k, zf)
    out = np.zeros((len(P), len(R)) + P.shape[1:2] + P.shape[3:])
    term = np.empty_like(out)
    for a in range(R.shape[2]):
        out += np.multiply(R[None, :, :, a, None], P[:, None, :, a], out=term)
    return out
