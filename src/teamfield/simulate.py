"""Agent-level Monte Carlo simulation of the team game.

The solvers work on count lattices; this module closes the loop by
running the original per-agent process (every agent draws its own action
and transition independently) under a policy lifted from a solved count
table. Agreement between simulated average costs and the dynamic-program
values, and between empirical next-count frequencies and the exact count
kernel, is what certifies the count reformulation end to end.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .counts import CountVector, JointCount, count_point, joint_transition_kernel
from .errors import SpecValidationError
from .model import GameSpec, cost_matrix, flatten_mean_field, transition_matrix
from .rng import substream


def _draw_categorical(cdf_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """index i with cdf[i-1] < u <= cdf[i], vectorized over leading axes.
    cdf_rows is normalized by its last column to absorb rounding."""
    cdf = cdf_rows / cdf_rows[..., -1:]
    idx = (u[..., None] > cdf).sum(axis=-1)
    return np.minimum(idx, cdf.shape[-1] - 1)


@dataclass
class LiftedPolicy:
    """Agent policy induced by a solved count-table policy: at stage t
    with joint counts M, every team-k agent in state s draws its action
    from the equilibrium prescription row at M.

    Mixed stage profiles are realized by team-public randomization: one
    prescription per (episode, stage, team) is sampled from the mixed
    weights, then agents randomize independently inside it. Outputs note
    this via ``randomized``."""
    table: object                 # PolicyTable over the full joint lattice
    randomized: bool = False

    def realize(self, t: int, M: JointCount, rng) -> list:
        lattice = self.table.lattice
        idx = tuple(lattice.teams[k].index[M.per_team[k].counts]
                    for k in range(len(lattice.teams)))
        eq = self.table.equilibrium(t, idx)
        rows = []
        for k, ps in enumerate(self.table.sets):
            if eq.kind == "pure":
                choice = eq.per_team[k]
            else:
                w = np.asarray(eq.per_team[k], dtype=float)
                choice = int(_draw_categorical(np.cumsum(w), np.asarray(rng.random())))
            rows.append(ps.items[choice].rows)
        return rows


@dataclass
class FunctionPolicy:
    """Adapter for hand-written policies in tests: fn(t, M, rng) must
    return per-team (S, A) action rows."""
    fn: object
    randomized: bool = False

    def realize(self, t, M, rng):
        return self.fn(t, M, rng)


def lift_policy(table) -> LiftedPolicy:
    """Wrap a count-table policy as an agent policy (see LiftedPolicy)."""
    return LiftedPolicy(table=table, randomized=bool(table.mixed_points))


def _counts_of(spec: GameSpec, states: list) -> JointCount:
    return JointCount(per_team=tuple(
        CountVector(team_id=k,
                    counts=tuple(int(x) for x in
                                 np.bincount(states[k],
                                             minlength=spec.teams[k].n_states)))
        for k in range(spec.n_teams)))


def simulate_episode(spec: GameSpec, policy, rng):
    """One episode of the per-agent process.

    Draw order is fixed: initial states team by team; then per stage the
    realized prescriptions (team order, draws only at mixed points), and
    per team one uniform vector for actions followed by one for
    transitions. Returns (joint-count trajectory of length T+1, per-team
    cumulative average cost).
    """
    K = spec.n_teams
    states = []
    for k in range(K):
        tm = spec.teams[k]
        cdf = np.cumsum(tm.initial_law)
        states.append(_draw_categorical(cdf, rng.random(tm.population)))
    traj = [_counts_of(spec, states)]
    costs = np.zeros(K)
    for t in range(spec.horizon):
        M = traj[-1]
        zf = flatten_mean_field(spec, M.mean_field())
        rows_all = policy.realize(t, M, rng)
        nxt = []
        for k in range(K):
            tm = spec.teams[k]
            rows = np.asarray(rows_all[k], dtype=float)
            if rows.shape != (tm.n_states, tm.n_actions):
                raise SpecValidationError("policy rows for team %d have shape %s"
                                          % (k, rows.shape))
            acdf = np.cumsum(rows, axis=1)
            a = _draw_categorical(acdf[states[k]], rng.random(tm.population))
            C = cost_matrix(spec, k, t, zf)
            costs[k] += C[states[k], a].sum() / tm.population
            P = np.maximum(transition_matrix(spec, k, zf), 0.0)
            pcdf = np.cumsum(P, axis=2)[states[k], a]
            nxt.append(_draw_categorical(pcdf, rng.random(tm.population)))
        states = nxt
        traj.append(_counts_of(spec, states))
    return traj, costs


@dataclass
class SimResult:
    """Per-team mean cumulative cost with its standard error."""
    mean: np.ndarray
    stderr: np.ndarray             # sample stddev / sqrt(episodes)
    episodes: int
    randomized_policy: bool = False
    per_episode: np.ndarray = field(default=None, repr=False)

    def as_dict(self):
        return {
            "mean": [float(x) for x in self.mean],
            "stderr": [float(x) for x in self.stderr],
            "episodes": int(self.episodes),
            "randomized_policy": bool(self.randomized_policy),
        }

    def csv_rows(self):
        if self.per_episode is None:
            raise SpecValidationError("per-episode costs were not kept")
        return [(e, k, repr(float(self.per_episode[e, k])))
                for e in range(self.episodes)
                for k in range(self.per_episode.shape[1])]


def _run_chunk(args):
    spec, policy, seed, episode_ids = args
    out = np.empty((len(episode_ids), spec.n_teams))
    for i, e in enumerate(episode_ids):
        rng = substream(seed, "episode", e)
        _, costs = simulate_episode(spec, policy, rng)
        out[i] = costs
    return out


def estimate_cost(spec: GameSpec, policy, episodes: int, master_seed=None,
                  workers: int = 1, keep_episodes: bool = False) -> SimResult:
    """Mean and standard error of the per-team cumulative cost over
    independent episodes. Episode e always runs on the substream
    (seed, "episode", e), so the result is identical for any worker
    count; parallel chunks are reduced in episode order."""
    if episodes < 1:
        raise SpecValidationError("need at least one episode")
    seed = spec.seed if master_seed is None else master_seed
    ids = list(range(episodes))
    if workers > 1 and episodes > 1:
        chunks = [c.tolist() for c in np.array_split(ids, min(workers * 4, episodes))
                  if len(c)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk,
                                  [(spec, policy, seed, c) for c in chunks]))
        per = np.concatenate(parts, axis=0)
    else:
        per = _run_chunk((spec, policy, seed, ids))
    mean = per.mean(axis=0)
    if episodes > 1:
        stderr = per.std(axis=0, ddof=1) / math.sqrt(episodes)
    else:
        stderr = np.zeros_like(mean)
    return SimResult(mean=mean, stderr=stderr, episodes=episodes,
                     randomized_policy=bool(getattr(policy, "randomized", False)),
                     per_episode=per if keep_episodes else None)


@dataclass
class KernelCheckReport:
    tv_distance: float
    confidence_radius: float       # 1.96 * max_j sqrt(phat_j(1-phat_j)/n)
    samples: int
    support_size: int

    def as_dict(self):
        return {
            "tv_distance": float(self.tv_distance),
            "confidence_radius": float(self.confidence_radius),
            "samples": int(self.samples),
            "support_size": int(self.support_size),
        }


def empirical_kernel_check(spec: GameSpec, z, prescriptions,
                           samples: int = 10 ** 5,
                           master_seed=None) -> KernelCheckReport:
    """Total variation between the empirical next-count frequency from
    per-agent simulation and the exact count kernel at (z, prescriptions).

    All samples run vectorized on one substream; per team the draws are
    a (samples, N_k) uniform block for actions then one for transitions.
    """
    per_team = getattr(z, "per_team", z)
    counts_in = [count_point(per_team[k], tm.population, k)
                 for k, tm in enumerate(spec.teams)]
    M = JointCount(per_team=tuple(CountVector(team_id=k, counts=m)
                                  for k, m in enumerate(counts_in)))
    exact = joint_transition_kernel(M, prescriptions, spec)
    exact_map = {tuple(cv.counts for cv in jc.per_team): p
                 for jc, p in zip(exact.support, exact.probs)}

    rng = substream(spec.seed if master_seed is None else master_seed,
                    "kernel-check")
    zf = M.mean_field().flat()
    keys_per_team = []
    for k in range(spec.n_teams):
        tm = spec.teams[k]
        agent_states = np.repeat(np.arange(tm.n_states), counts_in[k])
        acdf = np.cumsum(prescriptions[k].rows, axis=1)
        a = _draw_categorical(acdf[agent_states][None, :, :],
                              rng.random((samples, tm.population)))
        P = np.maximum(transition_matrix(spec, k, zf), 0.0)
        pcdf = np.cumsum(P, axis=2)[agent_states[None, :], a]
        sp = _draw_categorical(pcdf, rng.random((samples, tm.population)))
        onehot = sp[:, :, None] == np.arange(tm.n_states)[None, None, :]
        keys_per_team.append(onehot.sum(axis=1))         # (samples, S_k)
    freq = {}
    for i in range(samples):
        key = tuple(tuple(int(x) for x in keys_per_team[k][i])
                    for k in range(spec.n_teams))
        freq[key] = freq.get(key, 0) + 1

    support = set(exact_map) | set(freq)
    tv, radius = 0.0, 0.0
    for key in support:
        phat = freq.get(key, 0) / samples
        tv += abs(phat - exact_map.get(key, 0.0))
        radius = max(radius, math.sqrt(phat * (1.0 - phat) / samples))
    return KernelCheckReport(tv_distance=0.5 * tv,
                             confidence_radius=1.96 * radius,
                             samples=samples, support_size=len(support))
