"""Infinite-population limit: deterministic flow and grid dynamic program.

As populations grow, the random next mean field concentrates on its
expectation, so the coordinator game collapses to a deterministic one:
the mean field advances by the push-forward ``flow`` and stage costs are
the finite solver's cost table on it. The solve and ``rollout_inf`` both
step with ``model._flow`` and pay ``stage_game._cost_table``, each
batched over points and menu items. The backward induction then runs
on a uniform 1/n discretization of each team's simplex, projecting every
flow image to its nearest grid point (projection errors are logged, they
are the honest discretization cost of the scheme).

This is the finite solver's recursion with a Dirac mass for the count
kernel, run by the same backward driver (``stage_game._backward``): the
flow image of every (grid point, team, menu item) is projected once, and
the continuation gathers the next values there (``solve_mpe``'s
contracts them with the count kernels instead, ``_contract``).

The grid is a ``counts.JointLattice`` with the finite solver's tables. At
resolution n = 2N per team every count mean field of a population-N
instance lies exactly on the grid, which ``project_policy_to_lattice``
exploits when replaying a limit policy inside the finite game.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import SpecValidationError
from .counts import JointLattice, MeanField, TeamLattice
from .finite_mpe import PolicyTable, ValueTable, _encode_records
from .metrics import transport_distance
from .model import GameSpec, _count, _flow, flatten_mean_field
from .stage_game import STORE_BLOCK_ENTRIES, KernelCache, _backward, _cost_table, _on_axis


class SimplexGrid(JointLattice):
    """Per-team uniform grids over the probability simplex: team k's points are the
    multiples of 1/n_k, its count lattice at resolution n_k in ascending lexicographic
    order; the joint grid is their product. A point's id joins per-team parts
    ``c:n/...`` with ``|``; its record ``z`` is the quoted id."""

    kind = "simplex grid"
    _sep = "|"

    def __init__(self, spec: GameSpec, resolutions):
        if len(resolutions) != spec.n_teams:
            raise SpecValidationError("need one grid resolution per team")
        self.resolutions = tuple(_count(n, "team %d: grid resolution" % k)
                                 for k, n in enumerate(resolutions))
        super().__init__(spec)

    def _team_lattices(self, spec: GameSpec) -> list:
        return [TeamLattice(n, tm.n_states, ascending=True)
                for n, tm in zip(self.resolutions, spec.teams)]

    def _team_ids(self, tl: TeamLattice) -> list:
        return ["/".join("%d:%d" % (x, tl.population) for x in c) for c in tl.counts.tolist()]

    @functools.cached_property
    def record_z(self) -> list:
        return ['"%s"' % i for i in self.ids]     # digits and separators need no escapes


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


def _nearest(x, k, grid: SimplexGrid):
    """Nearest grid point of team k to every row of ``x`` and its distance;
    ties go to the ascending-lex first point. Rows go in blocks that keep
    the (rows, grid points, states) difference table near
    STORE_BLOCK_ENTRIES entries."""
    pts = grid.points[k]
    step = max(1, STORE_BLOCK_ENTRIES // pts.size)
    idx, dist = [], []
    for lo in range(0, len(x), step):
        d = transport_distance(x[lo:lo + step, None], pts[None], grid.spec.teams[k].state_metric)
        idx.append(d.argmin(axis=1))
        dist.append(d.min(axis=1))
    return np.concatenate(idx), np.concatenate(dist)


def project_indices(z, grid: SimplexGrid):
    """Per-team indices of the nearest joint grid point under the summed
    per-team transport metric (the per-team problems separate), and the
    projection error."""
    per_team = getattr(z, "per_team", z)
    idx, err = [], 0.0
    for k in range(len(grid.points)):
        i, d = _nearest(np.asarray(per_team[k], dtype=float)[None], k, grid)
        idx.append(int(i[0]))
        err += float(d[0])
    return tuple(idx), err


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

    Returns (PolicyTable, ValueTable, ProjectionLog), both over ``grid``.
    """
    if grid is None:
        grid = default_grid(spec)
    T, K = spec.horizon, spec.n_teams
    log = ProjectionLog(evaluations=[0] * T, max_error=[0.0] * T, mean_error=[0.0] * T)
    if T > 1:
        gather, errors = [], []
        for k, nxt in enumerate(_flow(spec, grid.z, [ps.rows_stack() for ps in sets])):
            idx, err = _nearest(nxt.reshape(-1, nxt.shape[-1]), k, grid)
            gather.append(_on_axis(idx.reshape(nxt.shape[:2]), k, K))
            errors.append(err)
        gather, errors = tuple(gather), np.concatenate(errors)
        log.evaluations[:T - 1] = [int(errors.size)] * (T - 1)
        log.max_error[:T - 1] = [float(errors.max())] * (T - 1)
        log.mean_error[:T - 1] = [float(errors.sum()) / errors.size] * (T - 1)
    stages, values = _backward(spec, sets, grid, lambda V: V[(slice(None),) + gather],
                               pure_only)
    return (PolicyTable(stages=stages, sets=tuple(sets), lattice=grid),
            ValueTable(values=values, lattice=grid), log)


@dataclass
class LimitTrajectory:
    mean_fields: list            # length T+1
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


def rollout_inf(spec: GameSpec, policy: PolicyTable) -> LimitTrajectory:
    """Deterministic trajectory from the initial laws: at each stage read
    the stage record at the projected current point, pay each team's menu
    costs (the solver's own ``_cost_table``) averaged under its weights,
    and advance by the flow (``_flow``) under the weight-averaged rows.
    Flow and cost are affine in each team's rows, so a mixed profile
    enters exactly as its one-step expectation; a pure one reads its item."""
    grid = policy.lattice
    K, T = spec.n_teams, policy.horizon
    z = MeanField(per_team=tuple(tm.initial_law.copy() for tm in spec.teams))
    mean_fields = [z]
    errors = []
    stage_costs = np.zeros((T, K))
    for t in range(T):
        idx, err = project_indices(z, grid)
        errors.append(err)
        rec = policy.stages[t][idx]
        Z = [v[None] for v in z.per_team]
        rows = []
        for k, ps in enumerate(policy.sets):
            w = rec["w%d" % k]
            stage_costs[t, k] = w @ _cost_table(spec, k, ps, Z, t)[0]
            rows.append(np.tensordot(w, ps.rows_stack(), axes=(0, 0))[None])
        z = MeanField(per_team=tuple(x[0, 0] for x in _flow(spec, Z, rows)))
        mean_fields.append(z)
    cumulative = np.cumsum(stage_costs, axis=0)
    return LimitTrajectory(mean_fields=mean_fields, stage_costs=stage_costs,
                           cumulative=cumulative, totals=cumulative[-1].copy(),
                           projection_errors=errors)


def project_policy_to_lattice(spec: GameSpec, policy: PolicyTable):
    """Replay a limit policy inside the finite game: for every joint count
    lattice point take the limit stage records of the nearest grid point.
    With the default 2N grid every count point embeds exactly (zero
    projection error). The replay runs on the lattice of a new kernel
    store of ``spec``, which the returned table keeps."""
    cache = KernelCache(spec, policy.sets)
    nearest = np.ix_(*(_nearest(x, k, policy.lattice)[0]
                       for k, x in enumerate(cache.lattice.points)))
    out = PolicyTable(stages=[st[nearest] for st in policy.stages], sets=policy.sets,
                      lattice=cache.lattice)
    out._kernels = cache
    return out


def limit_policy_records(policy: PolicyTable, values: ValueTable) -> str:
    """The ``records`` array of ``policy.json`` as text (see
    ``finite_mpe._encode_records``); a point's ``z`` is its grid's
    ``record_z``, the quoted ``z_id``."""
    return _encode_records(policy, values.values, policy.lattice.record_z)
