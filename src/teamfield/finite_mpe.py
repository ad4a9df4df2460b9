"""Backward induction on the exact joint count lattice.

The joint counts (one occupancy vector per team) are a sufficient state
for the team coordinators: conditional on them, stage costs are exact
closed forms and the next counts follow the product of per-team
multinomial-composition kernels. ``solve_mpe`` therefore runs classic
backward induction, solving one finite stage game per (stage, lattice
point) and recording equilibrium prescriptions and per-team values at
every point, reachable or not (subgame perfection is a statement about
all of them).

``best_response`` solves the single-team decision problem against a
frozen policy, which makes ``verify_mpe`` a certificate independent of
stage-game solving: deviation gain = value under the policy minus the
best-response value, pointwise over (stage, lattice point, team), both
recomputed from prescriptions, stage costs and kernels alone.

All recursions run on the engine in ``stage_game``, batched over the
lattice: per-team kernel stacks are contracted against the next values,
raw for the stage games, averaged under the policy's mixtures for
``policy_value`` (all teams), ``best_response`` (all but one) and the
forward pass of ``evaluate_total_cost``. ``solve_mpe`` runs the backward
driver ``stage_game._backward`` that ``limit.solve_mpe_inf`` also runs;
its continuation contracts the store's kernel stacks against the next
values (``_contract``), the limit's gathers them at projected flow
images. Only stage games are solved
point by point. One ``KernelCache`` (``kernel_cache``) can hold the
kernels of a run for the solver, the certificate and the forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .counts import JointLattice, _multinomial_pmf
from .model import GameSpec
from .stage_game import EquilibriumTable, KernelCache, _backward, _contract, _cost_table


@dataclass
class PolicyTable(EquilibriumTable):
    """Equilibrium prescriptions at every (stage, lattice point)."""
    lattice: JointLattice


@dataclass
class ValueTable:
    """values[t, k, i_1, ..., i_K] over the joint lattice."""
    values: np.ndarray = field(repr=False)
    lattice: JointLattice = None

    def per_team_points(self):
        return [tl.z for tl in self.lattice.teams]


@dataclass
class EquilibriumCertificate:
    """Pointwise unilateral deviation gains and their summary."""
    gains: np.ndarray = field(repr=False)    # (T, K, *lattice shape)
    max_gain: float = 0.0
    mean_gain: float = 0.0

    def csv_rows(self, lattice: JointLattice):
        rows = []
        T, K = self.gains.shape[0], self.gains.shape[1]
        for t in range(T):
            for idx in lattice.indices():
                zid = lattice.z_id(idx)
                for k in range(K):
                    rows.append((t, zid, k, repr(float(self.gains[(t, k) + idx]))))
        return rows


def solve_mpe(spec: GameSpec, sets, pure_only: bool = False,
              kernel_cache: KernelCache = None):
    """Backward induction over stages T-1 .. 0 and the full joint lattice.

    Returns (PolicyTable, ValueTable). Raises NoPureEquilibriumError in
    pure_only mode at the first (stage, point) whose game has no pure
    equilibrium.
    """
    cache = kernel_cache or KernelCache(spec, sets)
    lattice = cache.lattice
    Ws = cache.stacks() if spec.horizon > 1 else None    # checks the store size first
    stages, values = _backward(spec, sets, lattice.z, lattice.shape, lattice.z_id,
                               lambda V: _contract(Ws, V), pure_only)
    return (PolicyTable(stages=stages, sets=tuple(sets), lattice=lattice),
            ValueTable(values=values, lattice=lattice))


def _average(w, W) -> np.ndarray:
    """Kernel stack W (P, n, L) averaged under per-point mixtures w (P, n)."""
    return np.einsum("pi,pil->pl", w, W)


def _mixtures(eqs, shape) -> list:
    """Per-team (P, n_k) mixtures over menu indices of a flat sequence of
    equilibria (one-hot rows for pure ones)."""
    ws = [eq.weights(shape) for eq in eqs]
    return [np.array([w[k] for w in ws]) for k in range(len(shape))]


def best_response(spec: GameSpec, k: int, others: PolicyTable, sets,
                  kernel_cache: KernelCache = None):
    """Optimal reply of team k when teams j != k play ``others``.

    A plain finite-horizon dynamic program (no game solving): at every
    (stage, lattice point) team k picks the menu item minimizing its own
    stage cost plus expected continuation, the other teams' kernels being
    averaged under their (possibly mixed) equilibrium profiles.

    Returns (per-stage arrays of chosen own indices, value array U of
    shape (T, *lattice shape)); ties resolve to the smallest index.
    """
    lattice = others.lattice
    cache = kernel_cache or KernelCache(spec, sets)
    T = spec.horizon
    shape = lattice.shape
    game_shape = tuple(len(ps) for ps in sets)
    Ws = cache.stacks() if T > 1 else None
    U = np.zeros((T + 1,) + shape)
    picks = [None] * T
    for t in range(T - 1, -1, -1):
        e = _cost_table(spec, k, sets[k], lattice.z, t)
        if t < T - 1:
            w = _mixtures(others.stages[t].flat, game_shape)
            Wk = [W if j == k else _average(w[j], W)[:, None] for j, W in enumerate(Ws)]
            e = e + _contract(Wk, U[t + 1]).reshape(e.shape)
        picks[t] = e.argmin(axis=1).reshape(shape)
        U[t] = e.min(axis=1).reshape(shape)
    return picks, U[:T]


def policy_value(spec: GameSpec, policy: PolicyTable,
                 kernel_cache: KernelCache = None) -> np.ndarray:
    """Per-team values of playing ``policy`` everywhere: (T, K, *shape)."""
    lattice = policy.lattice
    cache = kernel_cache or KernelCache(spec, policy.sets)
    T, K = spec.horizon, spec.n_teams
    game_shape = tuple(len(ps) for ps in policy.sets)
    Ws = cache.stacks() if T > 1 else None
    V = np.zeros((T + 1, K) + lattice.shape)
    for t in range(T - 1, -1, -1):
        w = _mixtures(policy.stages[t].flat, game_shape)
        v = np.stack([np.einsum("pi,pi->p", w[k], _cost_table(spec, k, ps, lattice.z, t))
                      for k, ps in enumerate(policy.sets)])
        if t < T - 1:
            avg = [_average(w[j], W)[:, None] for j, W in enumerate(Ws)]
            v = v + _contract(avg, V[t + 1]).reshape(v.shape)
        V[t] = v.reshape(V[t].shape)
    return V[:T]


def verify_mpe(spec: GameSpec, policy: PolicyTable, sets,
               kernel_cache: KernelCache = None) -> EquilibriumCertificate:
    """Equilibrium certificate, independent of stage-game solving.

    gains[t, k, z] = (value of playing the policy) - (best-response value),
    both recomputed by dynamic programming from the policy's prescriptions,
    the stage costs and the count kernels; no stage game is solved. The
    kernels may be the solver's (``kernel_cache``); acceptance criterion 2
    and the engine oracle check them. Gains are nonnegative up to a -1e-9
    numerical floor; for an exact equilibrium the max is ~0.
    """
    cache = kernel_cache or KernelCache(spec, sets)
    V = policy_value(spec, policy, kernel_cache=cache)
    T, K = spec.horizon, spec.n_teams
    gains = np.empty_like(V)
    for k in range(K):
        _, U = best_response(spec, k, policy, sets, kernel_cache=cache)
        gains[:, k] = V[:, k] - U
    return EquilibriumCertificate(
        gains=gains, max_gain=float(gains.max()), mean_gain=float(gains.mean()))


def initial_distribution(spec: GameSpec, lattice: JointLattice) -> np.ndarray:
    """Law of the stage-0 joint counts: independent multinomials from each
    team's initial law, as an array over the joint lattice."""
    dist = np.ones(())
    for k, tl in enumerate(lattice.teams):
        pmf = _multinomial_pmf(tl.population, spec.teams[k].initial_law, tl.counts)
        dist = np.multiply.outer(dist, pmf)
    return dist


def evaluate_total_cost(spec: GameSpec, policy: PolicyTable,
                        kernel_cache: KernelCache = None) -> np.ndarray:
    """Exact expected cumulative cost per team under ``policy`` from the
    initial count law, by forward propagation of the full distribution
    over the lattice (never sampled). A fresh store builds kernels only
    at points the distribution reaches."""
    lattice = policy.lattice
    cache = kernel_cache or KernelCache(spec, policy.sets)
    T, K = spec.horizon, spec.n_teams
    game_shape = tuple(len(ps) for ps in policy.sets)
    dist = initial_distribution(spec, lattice).reshape(-1)
    totals = np.zeros(K)
    for t in range(T):
        live = np.flatnonzero(dist > 0.0)
        Zl = [z[live] for z in lattice.z]
        w = _mixtures(policy.stages[t].reshape(-1)[live], game_shape)
        totals += [dist[live] @ np.einsum("pi,pi->p", w[k], _cost_table(spec, k, ps, Zl, t))
                   for k, ps in enumerate(policy.sets)]
        if t < T - 1:
            operands = [dist[live], [K]]
            for k, W in enumerate(cache.stacks(live)):
                operands += [_average(w[k], W[live]), [K, k]]
            new = np.einsum(*operands, list(range(K)), optimize=True)
            if abs(new.sum() - 1.0) > 1e-10:
                raise AssertionError("forward propagation lost mass: %.17g" % new.sum())
            dist = new.reshape(-1)
    return totals


# ---------------------------------------------------------------------------
# serialization

def policy_records(policy: PolicyTable, values: ValueTable):
    """JSON-ready records {stage, z, team, kind, prescription, value}."""
    lattice = policy.lattice
    return _records(policy, values.values, lambda idx: [list(c) for c in lattice.counts_at(idx)])


def _records(policy, values, z_of):
    """Records of ``policy`` and its values (T, K, *points) at every stage,
    point (C order) and team; ``z_of(idx)`` gives a point's ``z`` entry."""
    records = []
    for t, st in enumerate(policy.stages):
        for idx in np.ndindex(st.shape):
            eq = st[idx]
            rows = eq.mean_rows(policy.sets)
            for k in range(len(policy.sets)):
                rec = {
                    "stage": t,
                    "z": z_of(idx),
                    "team": k,
                    "kind": eq.kind,
                    "prescription": [[float(x) for x in r] for r in rows[k]],
                    "value": float(values[(t, k) + idx]),
                }
                if eq.kind == "mixed":
                    rec["weights"] = [float(x) for x in eq.per_team[k]]
                records.append(rec)
    return records
