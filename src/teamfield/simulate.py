"""Agent-level Monte Carlo simulation of the team game.

The solvers work on count lattices; this module closes the loop by
running the original per-agent process (every agent draws its own action
and transition independently) under a policy lifted from a solved count
table. Agreement between simulated average costs and the dynamic-program
values, and between empirical next-count frequencies and the exact count
kernel, is what certifies the count reformulation end to end.

``estimate_cost`` runs a lifted table policy in blocks of episodes with
numpy, as many per block as fit their uniforms in ``BLOCK_BYTES`` (at
least one). Every episode draws the same uniforms in the same order from
its own substream (see ``_run_block``), and its cost and transition
tables come from one ``cost_matrix`` / ``transition_matrix`` call per
team (and stage) over all lattice points, so its costs do not depend on
the block boundaries or the worker count. A block seeds its episodes'
substreams in bulk (``rng.stream_uniforms``) and picks initial states,
prescriptions, actions and next states by comparing uniforms with one
CDF column at a time (``_pick_rows``), never gathering whole CDF rows
per agent.

``empirical_kernel_check`` draws in the same order from its one stream,
but reads it in chunks of samples by jump-ahead (``PCG64.advance``), so
its memory, like a block's, is O(``BLOCK_BYTES``) for any sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .counts import (DEFAULT_SUPPORT_CAP, PRUNE_TOL, _count_lattice, _count_laws, _lattice_rank,
                     _mixture_rows, _profile_rows, _rank_terms, count_point, lattice_size)
from .errors import CapacityError, SpecValidationError
from .model import GameSpec, _count, cost_matrix, flatten_mean_field, transition_matrix
from .rng import stream_uniforms, substream

BLOCK_BYTES = 1 << 20     # bytes of the uniforms of an episode block or a kernel-check chunk


def _cdf(weights: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, divided by their last entry to
    absorb rounding."""
    c = np.cumsum(weights, axis=-1)
    return c / c[..., -1:]


def _pick_rows(cdf: np.ndarray, g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index i with cdf[g, i-1] < u <= cdf[g, i] (rows of
    ``cdf.reshape(-1, S)``), without gathering the rows: the count of
    inner boundaries i < S - 1 with u > cdf[g, i]. A ``_cdf`` row
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
    this via ``randomized``, which holds when the table has a mixed point."""
    table: object                 # PolicyTable over the full joint lattice

    @property
    def randomized(self) -> bool:
        return bool(self.table.mixed_points)

    def realize(self, t: int, M: tuple, rng) -> list:
        """Per-team action rows at stage t and joint counts M, drawing one
        uniform from ``rng`` per team at a mixed point."""
        rec = self.table.stages[t][tuple(tl.rank(m) for tl, m in zip(self.table.lattice.teams, M))]
        rows = []
        for k, ps in enumerate(self.table.sets):
            w = rec["w%d" % k]
            choice = int(_pick_rows(_cdf(w), 0, np.asarray(rng.random())) if rec.mixed
                         else w.argmax())
            rows.append(ps.items[choice].rows)
        return rows


def lift_policy(table) -> LiftedPolicy:
    """Wrap a count-table policy as an agent policy (see LiftedPolicy)."""
    _count_lattice(table)
    return LiftedPolicy(table=table)


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
        ``_run_block``."""
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
    lifted table policy, one row per episode. Episode e reads its uniforms
    in sequence from row e of ``stream_uniforms``, i.e. one
    ``random(draws)`` call on its substream, in a fixed order: one per
    agent for the initial states, team by team; then per stage one per
    team for the prescription, at mixed points only, and per team one per
    agent for actions followed by one per agent for transitions. ``off``
    is each episode's read position, since only mixed points consume
    prescription draws."""
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


def estimate_cost(spec: GameSpec, policy: LiftedPolicy, episodes: int, workers: int = 1,
                  keep_episodes: bool = False) -> SimResult:
    """Mean and standard error of the per-team cumulative cost over
    independent episodes of a lifted table policy, run in batched blocks
    (see ``_run_block``). Episode e always runs on the substream
    (spec.seed, "episode", e), so the result is identical for any worker
    count; parallel chunks are reduced in episode order."""
    if not isinstance(policy, LiftedPolicy):
        raise SpecValidationError("estimate_cost runs a LiftedPolicy, got %s"
                                  % type(policy).__name__)
    episodes = _count(episodes, "the number of episodes", least=None)
    if episodes < 1:
        raise SpecValidationError("need at least one episode")
    workers = _count(workers, "the number of workers")
    tab = _episode_tables(spec, policy)
    ids = np.arange(episodes)
    if workers > 1 and episodes > 1:
        from concurrent.futures import ProcessPoolExecutor   # loads multiprocessing
        chunks = np.array_split(ids, min(workers * 4, episodes))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk, [(tab, spec.seed, c) for c in chunks]))
        per = np.concatenate(parts, axis=0)
    else:
        per = _run_chunk((tab, spec.seed, ids))
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
    rows = _profile_rows(spec, prescriptions)
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
        mix = _mixture_rows(spec, k, zf[None], rows[k])
        exact = np.multiply.outer(exact, _count_laws(mix[0], m[None])[0])

    bitgen = substream(spec.seed if master_seed is None else master_seed,
                       "kernel-check").bit_generator
    teams, at = [], 0
    for k, tm in enumerate(spec.teams):
        agent_states = np.repeat(np.arange(tm.n_states), counts_in[k])
        teams.append((agent_states, _cdf(rows[k][0]),
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
