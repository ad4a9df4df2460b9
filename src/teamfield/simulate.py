"""Agent-level Monte Carlo simulation of the team game.

The solvers work on count lattices; this module closes the loop by
running the original per-agent process (every agent draws its own action
and transition independently) under a policy lifted from a solved count
table. Agreement between simulated average costs and the dynamic-program
values, and between empirical next-count frequencies and the exact count
kernel, is what certifies the count reformulation end to end.

``simulate_episode`` defines the per-agent process and its draw order.
A joint count is a tuple of per-team integer count arrays (an
``np.bincount`` of the agents' states), which ``LiftedPolicy.realize``
looks up with ``TeamLattice.rank``.
``estimate_cost`` runs a lifted table policy in blocks of episodes with
numpy, as many per block as fit their uniforms in ``BLOCK_BYTES`` (at
least one): every episode draws the same uniforms in the same order from
its own substream, and its cost and transition tables come from one
``cost_matrix`` / ``transition_matrix`` call per team (and stage) over
all lattice points, bitwise the one-point values the per-episode process
computes, so the per-episode costs are bitwise those of
``simulate_episode``, for any block boundaries and any worker count. A
block seeds its episodes' substreams in bulk (``rng.stream_uniforms``)
and picks initial states, prescriptions, actions and next states by
comparing uniforms with one CDF column at a time (``_pick_rows``), never
gathering whole CDF rows per agent; ``_pick`` stays the per-episode
definition. Hand-written policies run one episode at a time through
``simulate_episode``.

``empirical_kernel_check`` draws in the same order from its one stream,
but reads it in chunks of samples by jump-ahead (``PCG64.advance``), so
its memory, like a block's, is O(``BLOCK_BYTES``) for any sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .counts import (DEFAULT_SUPPORT_CAP, PRUNE_TOL, _count_lattice, _count_laws, _lattice_rank,
                     _mixture_rows, _rank_terms, count_point, lattice_size)
from .errors import CapacityError, SpecValidationError
from .model import GameSpec, _count, cost_matrix, flatten_mean_field, transition_matrix
from .rng import stream_uniforms, substream

BLOCK_BYTES = 1 << 20     # bytes of the uniforms of an episode block or a kernel-check chunk


def _cdf(weights: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, divided by their last entry to
    absorb rounding."""
    c = np.cumsum(weights, axis=-1)
    return c / c[..., -1:]


def _pick(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """index i with cdf[i-1] < u <= cdf[i], vectorized over leading axes."""
    idx = (u[..., None] > cdf).sum(axis=-1)
    return np.minimum(idx, cdf.shape[-1] - 1)


def _pick_rows(cdf: np.ndarray, g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``_pick(cdf.reshape(-1, S)[g], u)`` without gathering the rows: the
    count of inner boundaries i < S - 1 with u > cdf[g, i]. A ``_cdf`` row
    ends at exactly 1.0 and a uniform is below 1, so the last boundary
    never counts and no clamp is needed. ``g`` broadcasts against ``u``.
    Counts add up in the smallest unsigned dtype that holds S - 1 (adding
    a bool array into an intp one is several times slower) and are
    returned as intp, so callers' index arithmetic cannot overflow."""
    flat = cdf.reshape(-1, cdf.shape[-1])
    idx = np.zeros(np.broadcast_shapes(np.shape(g), np.shape(u)),
                   dtype=np.min_scalar_type(flat.shape[1] - 1))
    for i in range(flat.shape[1] - 1):
        idx += u > flat[:, i][g]
    return idx.astype(np.intp)


@dataclass
class LiftedPolicy:
    """Agent policy induced by a solved count-table policy: at stage t
    with joint counts M (a count array per team), every team-k agent in
    state s draws its action from the equilibrium prescription row at M.

    Mixed stage profiles are realized by team-public randomization: one
    prescription per (episode, stage, team) is sampled from the mixed
    weights, then agents randomize independently inside it. Outputs note
    this via ``randomized``."""
    table: object                 # PolicyTable over the full joint lattice
    randomized: bool = False

    def realize(self, t: int, M: tuple, rng) -> list:
        rec = self.table.stages[t][tuple(tl.rank(m) for tl, m in zip(self.table.lattice.teams, M))]
        rows = []
        for k, ps in enumerate(self.table.sets):
            w = rec["w%d" % k]
            choice = int(_pick(_cdf(w), np.asarray(rng.random())) if rec.mixed else w.argmax())
            rows.append(ps.items[choice].rows)
        return rows


def lift_policy(table) -> LiftedPolicy:
    """Wrap a count-table policy as an agent policy (see LiftedPolicy)."""
    _count_lattice(table)
    return LiftedPolicy(table=table, randomized=bool(table.mixed_points))


def _counts_of(spec: GameSpec, states: list) -> tuple:
    return tuple(np.bincount(x, minlength=tm.n_states) for x, tm in zip(states, spec.teams))


def simulate_episode(spec: GameSpec, policy, rng):
    """One episode of the per-agent process.

    Draw order is fixed: initial states team by team; then per stage the
    realized prescriptions (team order, draws only at mixed points), and
    per team one uniform vector for actions followed by one for
    transitions. Returns (trajectory of T+1 joint counts, per-team
    cumulative average cost).
    """
    K = spec.n_teams
    states = []
    for k in range(K):
        tm = spec.teams[k]
        states.append(_pick(_cdf(tm.initial_law), rng.random(tm.population)))
    traj = [_counts_of(spec, states)]
    costs = np.zeros(K)
    for t in range(spec.horizon):
        M = traj[-1]
        zf = flatten_mean_field(spec, [m / tm.population for m, tm in zip(M, spec.teams)])
        rows_all = policy.realize(t, M, rng)
        nxt = []
        for k in range(K):
            tm = spec.teams[k]
            rows = np.asarray(rows_all[k], dtype=float)
            if rows.shape != (tm.n_states, tm.n_actions):
                raise SpecValidationError("policy rows for team %d have shape %s"
                                          % (k, rows.shape))
            a = _pick(_cdf(rows)[states[k]], rng.random(tm.population))
            C = cost_matrix(spec, k, t, zf)
            costs[k] += C[states[k], a].sum() / tm.population
            pcdf = _cdf(transition_matrix(spec, k, zf))[states[k], a]
            nxt.append(_pick(pcdf, rng.random(tm.population)))
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
        return [(e, k, repr(x)) for e, row in enumerate(self.per_episode.tolist())
                for k, x in enumerate(row)]


@dataclass
class _EpisodeTables:
    """What an episode of a lifted table policy looks up, built once per
    run at every joint lattice point p (C order of the policy's lattice).
    Cumulative rows come from ``_cdf``; per team k:

      initial_cdf (S_k,), rank_terms (see ``counts._rank_terms``),
      action_cdf (items, S_k, A_k),
      cost (T, P, S_k, A_k), transition_cdf (P, S_k, A_k, S_k),
      pure_item (T, P) and mixture_cdf (T, P, items)."""
    populations: tuple
    horizon: int
    lattice_shape: tuple
    initial_cdf: list
    rank_terms: list
    action_cdf: list
    cost: list
    transition_cdf: list
    mixed: np.ndarray             # (T, P): the stage profile at p is mixed
    pure_item: list
    mixture_cdf: list

    @property
    def draws(self) -> int:
        """Uniforms an episode consumes at most, in the order of
        ``simulate_episode``."""
        n = sum(self.populations)
        return n + self.horizon * (len(self.populations) + 2 * n)


def _team_index(terms: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Lattice index of each row of agent states (B, N) of one team."""
    B, S = states.shape[0], terms.shape[0] + 1
    counts = np.bincount((states + S * np.arange(B)[:, None]).ravel(),
                         minlength=B * S).reshape(B, S)
    return _lattice_rank(terms, counts)


def _episode_tables(spec: GameSpec, policy: LiftedPolicy) -> _EpisodeTables:
    table = policy.table
    lattice = _count_lattice(table)
    K, T = spec.n_teams, spec.horizon
    for k, ps in enumerate(table.sets):
        tm = spec.teams[k]
        if lattice.teams[k].population != tm.population:
            raise SpecValidationError("policy for team %d was solved at population %d, "
                                      "the game has %d" % (k, lattice.teams[k].population,
                                                           tm.population))
        for item in ps.items:
            if item.rows.shape != (tm.n_states, tm.n_actions):
                raise SpecValidationError("policy rows for team %d have shape %s"
                                          % (k, item.rows.shape))
    zf = np.concatenate(lattice.z, axis=1)
    cost = [np.stack([cost_matrix(spec, k, t, zf) for t in range(T)]) for k in range(K)]
    ws = [table.mixtures(t) for t in range(T)]
    mixed = np.stack([st.mixed.reshape(-1) for st in table.stages])
    pure_item = [np.stack([w[k].argmax(axis=1) for w in ws]) for k in range(K)]
    mixture_cdf = [_cdf(np.stack([w[k] for w in ws])) for k in range(K)]
    return _EpisodeTables(
        populations=tuple(tm.population for tm in spec.teams), horizon=T,
        lattice_shape=lattice.shape,
        initial_cdf=[_cdf(tm.initial_law) for tm in spec.teams],
        rank_terms=[_rank_terms(tm.population, tm.n_states) for tm in spec.teams],
        action_cdf=[_cdf(ps.rows_stack()) for ps in table.sets],
        cost=cost, transition_cdf=[_cdf(transition_matrix(spec, k, zf)) for k in range(K)],
        mixed=mixed, pure_item=pure_item, mixture_cdf=mixture_cdf)


def _run_block(tab: _EpisodeTables, seed, episode_ids) -> np.ndarray:
    """Per-team cumulative costs of the episodes ``episode_ids`` under a
    lifted table policy: the per-agent process of ``simulate_episode``,
    one row per episode. Episode e reads its uniforms in sequence from
    row e of ``stream_uniforms``, i.e. one ``random(draws)`` call on its
    substream, which begins with exactly the values the per-episode
    process draws one call at a time; ``off`` is each episode's read
    position, since only mixed points consume prescription draws."""
    B, K = len(episode_ids), len(tab.populations)
    U = stream_uniforms(seed, "episode", episode_ids, np.empty((B, tab.draws)))
    ep = np.arange(B)[:, None]
    states, pos = [], 0
    for k, N in enumerate(tab.populations):
        states.append(_pick_rows(tab.initial_cdf[k], 0, U[:, pos:pos + N]))
        pos += N
    off = np.full(B, pos)
    costs = np.zeros((B, K))
    for t in range(tab.horizon):
        p = np.ravel_multi_index(
            [_team_index(tab.rank_terms[k], x) for k, x in enumerate(states)],
            tab.lattice_shape)
        choice = [tab.pure_item[k][t, p] for k in range(K)]
        m = np.flatnonzero(tab.mixed[t, p])
        for k in range(K):
            choice[k][m] = _pick_rows(tab.mixture_cdf[k][t], p[m], U[m, off[m] + k])
        off[m] += K
        for k, N in enumerate(tab.populations):
            s, cols = states[k], off[:, None] + np.arange(N)
            S, A = tab.action_cdf[k].shape[1:]
            a = _pick_rows(tab.action_cdf[k], choice[k][:, None] * S + s, U[ep, cols])
            costs[:, k] += tab.cost[k][t, p[:, None], s, a].sum(axis=1) / N
            states[k] = _pick_rows(tab.transition_cdf[k], (p[:, None] * S + s) * A + a,
                                   U[ep, cols + N])
            off += 2 * N
    return costs


def _run_chunk(args):
    """Run ``episode_ids`` in blocks whose uniform array fits in
    ``BLOCK_BYTES``, or of one episode where one does not fit."""
    tab, seed, episode_ids = args
    size = max(1, BLOCK_BYTES // (8 * tab.draws))
    return np.concatenate([_run_block(tab, seed, episode_ids[i:i + size])
                           for i in range(0, len(episode_ids), size)], axis=0)


def estimate_cost(spec: GameSpec, policy: LiftedPolicy, episodes: int, master_seed=None,
                  workers: int = 1, keep_episodes: bool = False) -> SimResult:
    """Mean and standard error of the per-team cumulative cost over
    independent episodes of a lifted table policy, run in batched blocks
    (see ``_run_block``). Episode e always runs on the substream
    (seed, "episode", e), so the result is identical for any worker
    count; parallel chunks are reduced in episode order."""
    if not isinstance(policy, LiftedPolicy):
        raise SpecValidationError("estimate_cost runs a LiftedPolicy, got %s"
                                  % type(policy).__name__)
    episodes = _count(episodes, "the number of episodes", least=None)
    if episodes < 1:
        raise SpecValidationError("need at least one episode")
    workers = _count(workers, "the number of workers")
    seed = spec.seed if master_seed is None else master_seed
    tab = _episode_tables(spec, policy)
    ids = np.arange(episodes)
    if workers > 1 and episodes > 1:
        from concurrent.futures import ProcessPoolExecutor   # loads multiprocessing
        chunks = np.array_split(ids, min(workers * 4, episodes))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk,
                                  [(tab, seed, c) for c in chunks]))
        per = np.concatenate(parts, axis=0)
    else:
        per = _run_chunk((tab, seed, ids))
    mean = per.mean(axis=0)
    if episodes > 1:
        stderr = per.std(axis=0, ddof=1) / math.sqrt(episodes)
    else:
        stderr = np.zeros_like(mean)
    return SimResult(mean=mean, stderr=stderr, episodes=episodes,
                     randomized_policy=policy.randomized,
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


def _jumped(bitgen, n: int) -> np.random.Generator:
    """A Generator on a copy of ``bitgen`` moved past its next n draws."""
    copy = np.random.PCG64(0)
    copy.state = bitgen.state
    return np.random.Generator(copy.advance(n))


def empirical_kernel_check(spec: GameSpec, z, prescriptions,
                           samples: int = 10 ** 5,
                           master_seed=None) -> KernelCheckReport:
    """Total variation between the empirical next-count frequency from
    per-agent simulation and the exact count kernel at (z, prescriptions),
    over the joint lattice points whose exact probability is at least
    PRUNE_TOL or that a sample hit.

    All samples draw from one substream, per team a (samples, N_k)
    uniform block for actions then one for transitions. Each block is
    read in chunks of samples by a copy of the stream moved to its start
    (``PCG64.advance``), picked with ``_pick_rows`` and counted into one
    hit array, so the draws are those of the whole blocks and memory is
    O(``BLOCK_BYTES``) for any sample count.
    """
    samples = _count(samples, "the number of samples", least=None)
    if samples < 1:
        raise SpecValidationError("need at least one sample")
    flatten_mean_field(spec, z)
    if len(prescriptions) != spec.n_teams:
        raise SpecValidationError("profile has %d prescriptions, spec has %d teams"
                                  % (len(prescriptions), spec.n_teams))
    per_team = getattr(z, "per_team", z)
    counts_in = [count_point(per_team[k], tm.population, k)
                 for k, tm in enumerate(spec.teams)]
    shape = tuple(lattice_size(tm.population, tm.n_states) for tm in spec.teams)
    if math.prod(shape) > DEFAULT_SUPPORT_CAP:
        raise CapacityError("joint count lattice has %d points, cap is %d"
                            % (math.prod(shape), DEFAULT_SUPPORT_CAP))
    zf = np.concatenate([m / tm.population for m, tm in zip(counts_in, spec.teams)])
    exact = np.ones(())
    for k, m in enumerate(counts_in):
        mix = _mixture_rows(spec, k, zf[None], prescriptions[k].rows[None])
        exact = np.multiply.outer(exact, _count_laws(mix[0], m[None])[0])

    bitgen = substream(spec.seed if master_seed is None else master_seed,
                       "kernel-check").bit_generator
    teams, at = [], 0
    for k, tm in enumerate(spec.teams):
        agent_states = np.repeat(np.arange(tm.n_states), counts_in[k])
        teams.append((agent_states, _cdf(prescriptions[k].rows),
                      _cdf(transition_matrix(spec, k, zf)),
                      _rank_terms(tm.population, tm.n_states),
                      _jumped(bitgen, at), _jumped(bitgen, at + samples * tm.population)))
        at += 2 * samples * tm.population
    chunk = max(1, BLOCK_BYTES // (8 * max(tm.population for tm in spec.teams)))
    hits = np.zeros(exact.size, dtype=np.intp)
    for lo in range(0, samples, chunk):
        n, index = min(chunk, samples - lo), []
        for (agent_states, action_cdf, transition_cdf, terms, actions,
             moves), tm in zip(teams, spec.teams):
            row = _pick_rows(action_cdf, agent_states[None, :],
                             actions.random((n, tm.population)))
            row += agent_states * tm.n_actions        # (state, action) row, in place
            sp = _pick_rows(transition_cdf, row, moves.random((n, tm.population)))
            index.append(_team_index(terms, sp))
        hits += np.bincount(np.ravel_multi_index(index, shape), minlength=exact.size)
    phat = hits / samples
    keep = (exact.ravel() >= PRUNE_TOL) | (phat > 0)
    phat = phat[keep]
    return KernelCheckReport(
        tv_distance=0.5 * float(np.abs(phat - exact.ravel()[keep]).sum()),
        confidence_radius=1.96 * math.sqrt(float((phat * (1.0 - phat)).max()) / samples),
        samples=samples, support_size=int(keep.sum()))
