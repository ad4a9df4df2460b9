"""Infinite-population limit: deterministic flow and grid dynamic program.

As populations grow, the random next mean field concentrates on its
expectation, so the coordinator game collapses to a deterministic one:
the mean field advances by the push-forward ``flow`` and stage costs are
the same closed forms evaluated on it. The backward induction then runs
on a uniform 1/n discretization of each team's simplex, projecting every
flow image to its nearest grid point (projection errors are logged, they
are the honest discretization cost of the scheme).

This is the finite solver's recursion with a Dirac mass for the count
kernel, run by the same backward driver (``stage_game._backward``): the
flow image of every (grid point, team, menu item) is projected once, and
the continuation gathers the next values there (``solve_mpe``'s
contracts them with the count kernels instead, ``_contract``).

With resolution n = 2N per team, every count mean field of a population-N
instance lies exactly on the grid, which is what ``project_policy_to_lattice``
exploits when replaying a limit policy inside the finite game.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, SpecValidationError
from .counts import (DEFAULT_SUPPORT_CAP, JointLattice, MeanField, _joint_points,
                     enumerate_counts, lattice_size)
from .finite_mpe import PolicyTable, _records
from .metrics import transport_distance
from .model import GameSpec, cost_matrix, flatten_mean_field
from .stage_game import EquilibriumTable, _backward, _on_axis


class SimplexGrid:
    """Per-team uniform grids over the probability simplex.

    Team k's points are all vectors with entries that are multiples of
    1/n_k, deduplicated and sorted ascending-lexicographically; the joint
    grid is their Cartesian product.
    """

    def __init__(self, spec: GameSpec, resolutions):
        if len(resolutions) != spec.n_teams:
            raise SpecValidationError("need one grid resolution per team")
        self.spec = spec
        self.resolutions = tuple(int(n) for n in resolutions)
        self.points = []
        for k, n in enumerate(self.resolutions):
            if n < 1:
                raise SpecValidationError("grid resolution must be >= 1, team %d got %d"
                                          % (k, n))
            S = spec.teams[k].n_states
            if lattice_size(n, S) > DEFAULT_SUPPORT_CAP:
                raise CapacityError("simplex grid for team %d has %d points, cap %d"
                                    % (k, lattice_size(n, S), DEFAULT_SUPPORT_CAP))
            self.points.append(np.array(sorted(enumerate_counts(n, S)), dtype=float) / n)
        self.shape = tuple(len(p) for p in self.points)
        if math.prod(self.shape) > DEFAULT_SUPPORT_CAP:
            raise CapacityError("joint simplex grid has %d points, cap %d"
                                % (math.prod(self.shape), DEFAULT_SUPPORT_CAP))

    def __len__(self):
        return math.prod(self.shape)

    def indices(self):
        return np.ndindex(self.shape)

    def mean_field(self, idx) -> MeanField:
        return MeanField(per_team=tuple(self.points[k][idx[k]]
                                        for k in range(len(self.points))))

    def point_id(self, idx) -> str:
        parts = []
        for k, n in enumerate(self.resolutions):
            v = np.rint(self.points[k][idx[k]] * n).astype(int)
            parts.append("/".join("%d:%d" % (x, n) for x in v))
        return "|".join(parts)


def default_grid(spec: GameSpec) -> SimplexGrid:
    """Resolution 2N per team, so count mean fields embed exactly."""
    return SimplexGrid(spec, [2 * tm.population for tm in spec.teams])


def flow(z, prescriptions, spec: GameSpec) -> MeanField:
    """Deterministic mean-field update: team k's next occupancy is
    z'(s') = sum_s z(s) sum_a gamma(a|s) P(s'|s,a,z). Equals the exact
    mean of the finite-population count kernel."""
    flatten_mean_field(spec, z)
    Z = [np.asarray(v, dtype=float)[None] for v in getattr(z, "per_team", z)]
    nxt = _flow(spec, Z, [np.asarray(getattr(p, "rows", p), dtype=float)[None]
                          for p in prescriptions])
    return MeanField(per_team=tuple(x[0, 0] for x in nxt))


def _flow(spec: GameSpec, Z, R) -> list:
    """``flow`` batched over P joint points and every prescription of each
    team: (P, m_k, S_k) images from occupancies Z[k] (P, S_k) and
    prescription rows R[k] (m_k, S_k, A_k)."""
    zf = np.concatenate(Z, axis=1)
    out = []
    for k, tm in enumerate(spec.teams):
        P = np.maximum(tm.transition_base
                       + np.einsum("satd,pd->psat", tm.transition_coupling, zf), 0.0)
        nxt = np.einsum("ps,isa,psat->pit", Z[k], R[k], P)
        out.append(nxt / nxt.sum(axis=2, keepdims=True))
    return out


def limit_stage_cost(z, gamma, spec: GameSpec, k: int, t: int) -> float:
    """Per-agent stage cost along the deterministic flow; written out
    independently of counts.stage_cost so the two can be cross-checked."""
    per_team = getattr(z, "per_team", z)
    zf = flatten_mean_field(spec, z)
    rows = gamma.rows if hasattr(gamma, "rows") else np.asarray(gamma, dtype=float)
    zk = np.asarray(per_team[k], dtype=float)
    total = 0.0
    C = cost_matrix(spec, k, t, zf)
    for s in range(spec.teams[k].n_states):
        total += zk[s] * float(rows[s] @ C[s])
    return total


def _nearest(x, k, grid: SimplexGrid):
    """Nearest grid point of team k to every row of ``x`` and its distance;
    ties go to the ascending-lex first point. Rows go in blocks that keep
    the (rows, grid points, states) difference table near 2^20 entries."""
    pts = grid.points[k]
    step = max(1, (1 << 20) // pts.size)
    idx, dist = [], []
    for lo in range(0, len(x), step):
        d = transport_distance(x[lo:lo + step, None], pts[None], grid.spec.teams[k].state_metric)
        idx.append(d.argmin(axis=1))
        dist.append(d.min(axis=1))
    return np.concatenate(idx), np.concatenate(dist)


def project_to_grid(z, grid: SimplexGrid):
    """Nearest joint grid point under the summed per-team transport
    metric (the per-team problems separate); returns (point, error)."""
    idx, err = project_indices(z, grid)
    return grid.mean_field(idx), err


def project_indices(z, grid: SimplexGrid):
    per_team = getattr(z, "per_team", z)
    idx, err = [], 0.0
    for k in range(len(grid.points)):
        i, d = _nearest(np.asarray(per_team[k], dtype=float)[None], k, grid)
        idx.append(int(i[0]))
        err += float(d[0])
    return tuple(idx), err


@dataclass
class LimitPolicyTable(EquilibriumTable):
    """Equilibrium prescriptions at every (stage, joint grid point)."""
    grid: SimplexGrid


@dataclass
class LimitValueTable:
    values: np.ndarray = field(repr=False)    # (T, K, *grid shape)
    grid: SimplexGrid = None

    def per_team_points(self):
        return list(self.grid.points)


@dataclass
class ProjectionLog:
    """Per-stage accounting of flow-image projection errors."""
    evaluations: list
    max_error: list
    mean_error: list

    def as_dict(self):
        return {"evaluations": self.evaluations,
                "max_error": self.max_error,
                "mean_error": self.mean_error}


def solve_mpe_inf(spec: GameSpec, sets, grid: SimplexGrid = None,
                  pure_only: bool = False):
    """Backward induction on the joint simplex grid.

    The one-step kernel is the Dirac mass at the flow image, so each
    stage-game tensor entry is the own stage cost plus the next value at
    the projected flow image. Each team's flow component depends only on
    its own prescription and not on the stage, so projections are computed
    once per (grid point, team, menu item) and gathered at every stage.

    Returns (LimitPolicyTable, LimitValueTable, ProjectionLog).
    """
    if grid is None:
        grid = default_grid(spec)
    T, K = spec.horizon, spec.n_teams
    Z = _joint_points(grid.points)
    log = ProjectionLog(evaluations=[0] * T, max_error=[0.0] * T, mean_error=[0.0] * T)
    if T > 1:
        gather, errors = [], []
        for k, nxt in enumerate(_flow(spec, Z, [ps.rows_stack() for ps in sets])):
            idx, err = _nearest(nxt.reshape(-1, nxt.shape[-1]), k, grid)
            gather.append(_on_axis(idx.reshape(nxt.shape[:2]), k, K))
            errors.append(err)
        gather, errors = tuple(gather), np.concatenate(errors)
        log.evaluations[:T - 1] = [int(errors.size)] * (T - 1)
        log.max_error[:T - 1] = [float(errors.max())] * (T - 1)
        log.mean_error[:T - 1] = [float(errors.sum()) / errors.size] * (T - 1)
    stages, values = _backward(spec, sets, Z, grid.shape, grid.point_id,
                               lambda V: V[(slice(None),) + gather], pure_only)
    return (LimitPolicyTable(stages=stages, sets=tuple(sets), grid=grid),
            LimitValueTable(values=values, grid=grid), log)


@dataclass
class LimitTrajectory:
    mean_fields: list            # length T+1
    prescription_rows: list      # per stage: per team averaged rows
    stage_costs: np.ndarray      # (T, K)
    cumulative: np.ndarray       # (T, K) running totals
    totals: np.ndarray           # (K,)
    projection_errors: list      # per stage

    def csv_rows(self):
        """(stage, team, state, mass, cost_so_far) along the flow."""
        rows = []
        K = self.totals.shape[0]
        for t, z in enumerate(self.mean_fields):
            for k in range(K):
                sofar = 0.0 if t == 0 else float(self.cumulative[t - 1, k])
                for s, mass in enumerate(z.per_team[k]):
                    rows.append((t, k, s, repr(float(mass)), repr(sofar)))
        return rows


def rollout_inf(spec: GameSpec, policy: LimitPolicyTable) -> LimitTrajectory:
    """Deterministic trajectory from the initial laws: at each stage look
    up the equilibrium at the projected current point, pay the limit stage
    cost, advance by the flow. Mixed profiles enter through their
    mixture-averaged rows (flow and cost are affine in each team's rows,
    so this is the exact one-step expectation)."""
    grid = policy.grid
    K, T = spec.n_teams, policy.horizon
    z = MeanField(per_team=tuple(tm.initial_law.copy() for tm in spec.teams))
    mean_fields = [z]
    rows_log, errors = [], []
    stage_costs = np.zeros((T, K))
    for t in range(T):
        idx, err = project_indices(z, grid)
        errors.append(err)
        eq = policy.equilibrium(t, idx)
        rows = eq.mean_rows(policy.sets)
        rows_log.append(rows)
        for k in range(K):
            stage_costs[t, k] = limit_stage_cost(z, rows[k], spec, k, t)
        z = flow(z, rows, spec)
        mean_fields.append(z)
    cumulative = np.cumsum(stage_costs, axis=0)
    return LimitTrajectory(mean_fields=mean_fields, prescription_rows=rows_log,
                           stage_costs=stage_costs, cumulative=cumulative,
                           totals=cumulative[-1].copy(), projection_errors=errors)


def project_policy_to_lattice(spec: GameSpec, policy: LimitPolicyTable,
                              lattice: JointLattice = None):
    """Replay a limit policy inside the finite game: for every joint count
    lattice point take the limit equilibrium at the nearest grid point.
    With the default 2N grid every count point embeds exactly (zero
    projection error). ``lattice`` is the joint count lattice of ``spec``
    to replay on, such as a run's ``KernelCache.lattice``; by default a
    new one is built."""
    if lattice is None:
        lattice = JointLattice(spec)
    nearest = np.ix_(*(_nearest(tl.z, k, policy.grid)[0]
                       for k, tl in enumerate(lattice.teams)))
    return PolicyTable(stages=[st[nearest] for st in policy.stages], sets=policy.sets,
                       lattice=lattice)


def limit_policy_records(policy: LimitPolicyTable, values: LimitValueTable):
    """JSON-ready records {stage, z, team, kind, prescription, value}."""
    return _records(policy, values.values, policy.grid.point_id)
