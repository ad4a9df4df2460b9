"""Slow reference implementations that fast paths in ``src/`` are tested
against: the dict-of-atoms count law (``CountDistribution``) that the
per-agent composition of one stage and the per-state multinomial
convolution return (checked against rows of the count kernels), the
per-profile deviation through the one-point convolution, the counting loop
of the kernel check and its whole-array form (checked against the
chunked one), the per-point stage game (checked against the
batched engine), the profile-by-profile pure check, the unpruned support
enumeration and the re-certifying fictitious play (checked against the
stage solvers), the forward propagation of the count law (checked
against ``evaluate_total_cost``), the separate stage loops of the
policy's values and of one team's best reply (checked bitwise against
the shared backward pass of ``finite_mpe``), hand-written agent policies for
``simulate.simulate_episode``, and pointwise model evaluation (with the
one-point stage cost summed from it) and its closed-form Lipschitz
bounds."""

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, xlogy

from teamfield.counts import (DEFAULT_SUPPORT_CAP, PRUNE_TOL, MeanField, Prescription,
                              _count_lattice, _count_laws, _mixture_rows, _rank_terms,
                              count_point, enumerate_counts, lattice_size)
from teamfield.errors import CapacityError, EquilibriumNotFoundError, SpecValidationError
from teamfield.finite_mpe import PolicyTable, _average, _store, initial_distribution
from teamfield.limit import SimplexGrid, flow
from teamfield.metrics import LIPSCHITZ_BLOCK_PAIRS, transport_distance
from teamfield.model import GameSpec, flatten_mean_field, transition_matrix
from teamfield.rng import substream
from teamfield.simulate import KernelCheckReport, _cdf, _pick, _pick_rows, _team_index
from teamfield.stage_game import (CERT_TOL, DEFAULT_SUPPORT_BOUND, PURE_TOL, KernelCache,
                                  StageEquilibrium, StageGame, _contract, _cost_table,
                                  _indifference_solve, certify_epsilon)


PROB_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CountDistribution:
    """Finite distribution over count atoms: count tuples, nested tuples of
    count tensors, or tuples of per-team count tuples."""
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
        if len(set(self.support)) != len(self.support):
            raise SpecValidationError("count distribution support has duplicates")

    def __len__(self):
        return len(self.support)


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


def _multinomial_pmf(n: int, probs: np.ndarray, comps: np.ndarray) -> np.ndarray:
    """Exact-in-structure multinomial pmf over given compositions of n."""
    logp = gammaln(n + 1) - gammaln(comps + 1.0).sum(axis=1) \
        + xlogy(comps, probs[None, :]).sum(axis=1)
    return np.exp(logp)


def team_kernel_convolution(m, z, gamma: Prescription, spec: GameSpec, k: int,
                            cap: int = DEFAULT_SUPPORT_CAP) -> CountDistribution:
    """Team k's next-count law at counts m by convolving, state by state,
    the multinomial arrival counts on the per-state mixture row
    sum_a gamma(a|s) P(.|s,a,z), in log space, pruning atoms below
    PRUNE_TOL as they arise: the dict path ``counts._count_laws`` replaced,
    and the one-point reference for its rows."""
    mv = np.asarray(m, dtype=int)
    tm = spec.teams[k]
    S = tm.n_states
    zf = flatten_mean_field(spec, z)
    rows = gamma.rows
    if rows.shape != (S, tm.n_actions):
        raise SpecValidationError("prescription shape %s does not match team %d"
                                  % (rows.shape, k))
    mix = np.einsum("sa,sat->st", rows, transition_matrix(spec, k, zf))
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
    return _finalize(dist)


def mean_field(lattice, idx) -> MeanField:
    """The mean field at the point idx of a count lattice or simplex grid."""
    return MeanField(per_team=tuple(x[i] for x, i in zip(lattice.points, idx)))


def kernel_store_loop(lattice, sets, spec: GameSpec) -> list:
    """Per-team stacks W_k[point, menu item, L_k] of ``KernelCache``, one
    ``team_kernel_convolution`` per (point, team, menu item)."""
    out = []
    for k, (ps, tl) in enumerate(zip(sets, lattice.teams)):
        where = {c: i for i, c in enumerate(map(tuple, tl.counts.tolist()))}
        W = np.zeros((len(lattice), len(ps), len(tl)))
        for p, idx in enumerate(lattice.indices()):
            z = mean_field(lattice, idx)
            for i, gamma in enumerate(ps.items):
                dist = team_kernel_convolution(tl.counts[idx[k]], z, gamma, spec, k)
                W[p, i, [where[c] for c in dist.support]] = dist.probs
        out.append(W)
    return out


def deviation_by_kernel(z, prescriptions, spec: GameSpec) -> np.ndarray:
    """``metrics.per_team_deviation`` through one ``team_kernel_convolution``
    distribution of count atoms per team and the ``flow`` image:
    the per-profile path ``metrics._deviations`` replaced."""
    per_team = getattr(z, "per_team", z)
    q = flow(z, prescriptions, spec)
    out = np.zeros(spec.n_teams)
    for k in range(spec.n_teams):
        tm = spec.teams[k]
        m = count_point(per_team[k], tm.population, k)
        dist = team_kernel_convolution(m, z, prescriptions[k], spec, k)
        support = np.array(dist.support) / tm.population
        out[k] = dist.probs @ transport_distance(support, q.per_team[k], tm.state_metric)
    return out


def kernel_check_loop(spec: GameSpec, z, prescriptions, samples: int,
                      master_seed=None) -> KernelCheckReport:
    """``simulate.empirical_kernel_check`` from the same substream draws,
    counted one sample at a time by ``frequencies_loop`` and compared, over
    the union of both supports, with the product of the teams'
    ``team_kernel_convolution`` laws (product atoms below PRUNE_TOL
    dropped)."""
    per_team = getattr(z, "per_team", z)
    counts_in = [count_point(per_team[k], tm.population, k)
                 for k, tm in enumerate(spec.teams)]
    z_in = [m / tm.population for m, tm in zip(counts_in, spec.teams)]
    laws = [team_kernel_convolution(m, z_in, prescriptions[k], spec, k)
            for k, m in enumerate(counts_in)]
    exact = _finalize({tuple(c for c, _ in combo): math.prod(p for _, p in combo)
                       for combo in itertools.product(*(zip(d.support, d.probs)
                                                        for d in laws))})
    exact_map = dict(zip(exact.support, exact.probs))
    rng = substream(spec.seed if master_seed is None else master_seed, "kernel-check")
    zf = np.concatenate(z_in)
    keys_per_team = []
    for k in range(spec.n_teams):
        tm = spec.teams[k]
        agent_states = np.repeat(np.arange(tm.n_states), counts_in[k])
        a = _pick(_cdf(prescriptions[k].rows)[agent_states][None, :, :],
                  rng.random((samples, tm.population)))
        pcdf = _cdf(transition_matrix(spec, k, zf))[agent_states[None, :], a]
        sp = _pick(pcdf, rng.random((samples, tm.population)))
        keys_per_team.append(np.stack([(sp == s).sum(axis=1)
                                       for s in range(tm.n_states)], axis=1))
    freq = frequencies_loop(keys_per_team)
    support = set(exact_map) | set(freq)
    tv, radius = 0.0, 0.0
    for key in support:
        phat = freq.get(key, 0) / samples
        tv += abs(phat - exact_map.get(key, 0.0))
        radius = max(radius, math.sqrt(phat * (1.0 - phat) / samples))
    return KernelCheckReport(tv_distance=0.5 * tv, confidence_radius=1.96 * radius,
                             samples=samples, support_size=len(support))


def kernel_check_whole(spec: GameSpec, z, prescriptions, samples: int,
                       master_seed=None) -> KernelCheckReport:
    """``simulate.empirical_kernel_check`` on whole (samples, N_k) arrays:
    per team one ``random`` call for all action uniforms, then one for all
    transition uniforms, on the one substream, and one ``np.bincount`` of
    all samples' joint lattice indices."""
    per_team = getattr(z, "per_team", z)
    counts_in = [count_point(per_team[k], tm.population, k)
                 for k, tm in enumerate(spec.teams)]
    shape = tuple(lattice_size(tm.population, tm.n_states) for tm in spec.teams)
    if math.prod(shape) > DEFAULT_SUPPORT_CAP:
        raise CapacityError("joint count lattice has %d points, cap is %d"
                            % (math.prod(shape), DEFAULT_SUPPORT_CAP))
    zf = flatten_mean_field(spec, [m / tm.population for m, tm in zip(counts_in, spec.teams)])
    exact = np.ones(())
    for k, m in enumerate(counts_in):
        mix = _mixture_rows(spec, k, zf[None], prescriptions[k].rows[None])
        exact = np.multiply.outer(exact, _count_laws(mix[0], m[None])[0])
    rng = substream(spec.seed if master_seed is None else master_seed, "kernel-check")
    index = []
    for k in range(spec.n_teams):
        tm = spec.teams[k]
        agent_states = np.repeat(np.arange(tm.n_states), counts_in[k])
        row = _pick_rows(_cdf(prescriptions[k].rows), agent_states[None, :],
                         rng.random((samples, tm.population)))
        row += agent_states * tm.n_actions
        sp = _pick_rows(_cdf(transition_matrix(spec, k, zf)), row,
                        rng.random((samples, tm.population)))
        index.append(_team_index(_rank_terms(tm.population, tm.n_states), sp))
    phat = np.bincount(np.ravel_multi_index(index, shape), minlength=exact.size) / samples
    keep = (exact.ravel() >= PRUNE_TOL) | (phat > 0)
    phat = phat[keep]
    return KernelCheckReport(
        tv_distance=0.5 * float(np.abs(phat - exact.ravel()[keep]).sum()),
        confidence_radius=1.96 * math.sqrt(float((phat * (1.0 - phat)).max()) / samples),
        samples=samples, support_size=int(keep.sum()))


def frequencies_loop(keys_per_team) -> dict:
    """{per-team count tuples: number of samples}, one sample at a time,
    keyed in order of first occurrence."""
    samples = len(keys_per_team[0])
    freq = {}
    for i in range(samples):
        key = tuple(tuple(int(x) for x in keys[i]) for keys in keys_per_team)
        freq[key] = freq.get(key, 0) + 1
    return freq


def pure_nash_static_loop(game, tol) -> list:
    """Profiles where no single player gains more than ``tol`` by a
    unilateral switch, lexicographic order: the loop that
    ``static_games.pure_nash_static`` replaced by the team check on
    singleton teams."""
    out = []
    for profile in np.ndindex(game.shape):
        stable = True
        for i in range(game.n_players):
            line = game.payoffs[i][profile[:i] + (slice(None),) + profile[i + 1:]]
            if np.max(line) > game.payoffs[i][profile] + tol:
                stable = False
                break
        if stable:
            out.append(profile)
    return out


def action_count_dist(m, gamma: Prescription) -> CountDistribution:
    """Law of the state-action counts: each state's occupants split across
    actions independently with the prescription row as weights. Atoms are
    (S, A) nested tuples."""
    mv = np.asarray(m, dtype=int)
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
    return _finalize(atoms)


def nextstate_count_dist(mbar, z, spec: GameSpec, k: int) -> CountDistribution:
    """Law of the (state, action, next state) counts: each occupied
    (s, a) cell splits across next states with the kernel row at z. Atoms
    are (S, A, S) nested tuples."""
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
        mhat = [[[0] * S for _ in range(A)] for _ in range(S)]
        for (s, a), comp in zip(cells, key):
            mhat[s][a] = list(comp)
        return tuple(tuple(map(tuple, cell)) for cell in mhat)

    return _finalize(atoms, wrap=wrap)


def marginalize_counts(mhat) -> np.ndarray:
    """Next-state counts from the triple counts: m'(s') = sum_{s,a} mhat."""
    mh = np.asarray(mhat, dtype=int)
    if mh.ndim != 3:
        raise SpecValidationError("triple counts must be 3-d, got shape %s" % (mh.shape,))
    return mh.sum(axis=(0, 1))


def sample_next_counts(M, prescriptions, spec: GameSpec, rng: np.random.Generator) -> tuple:
    """One draw of the next joint counts M (per-team count vectors) via
    sequential multinomial sampling (split over actions, then over next
    states, then marginalize), as a tuple of per-team count tuples.
    Identical generator state yields identical draws."""
    zf = flatten_mean_field(spec, [np.asarray(m) / tm.population for m, tm in zip(M, spec.teams)])
    out = []
    for k in range(spec.n_teams):
        tm = spec.teams[k]
        S, A = tm.n_states, tm.n_actions
        P = transition_matrix(spec, k, zf)
        rows = prescriptions[k].rows
        nxt = np.zeros(S, dtype=int)
        mv = M[k]
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
        out.append(tuple(int(x) for x in nxt))
    return tuple(out)


def build_stage_game(z, t: int, continuation, sets, spec: GameSpec) -> StageGame:
    """Cost tensors at mean-field point z and stage t.

    tensor_k[joint index] = stage_cost(z, menu_k[i_k], k, t)
                            + E[continuation_k(next counts)],
    the expectation summed exactly over the materialized joint support of
    the per-team ``team_kernel_convolution`` laws, one profile at a time;
    ``continuation`` maps a joint count (a tuple of per-team count tuples)
    to a length-K value sequence, or is
    None at the terminal stage. Own costs come from ``stage_cost`` at
    every stage, so no step shares code with the engine's cost tables or
    contraction. Small instances only."""
    K = spec.n_teams
    flatten_mean_field(spec, z)
    shape = tuple(len(ps) for ps in sets)
    own_cost = [np.array([stage_cost(z, p, spec, k, t) for p in sets[k].items])
                for k in range(K)]
    dists = {}
    for k in range(K):
        m = np.rint(z.per_team[k] * spec.teams[k].population).astype(int)
        for i, p in enumerate(sets[k].items):
            dists[(k, i)] = team_kernel_convolution(m, z, p, spec, k)
    tensors = [np.zeros(shape) for _ in range(K)]
    for profile in np.ndindex(shape):
        per = [dists[(k, profile[k])] for k in range(K)]
        acc = np.zeros(K)
        if continuation is not None:
            for combo in itertools.product(*(range(len(d)) for d in per)):
                pr = 1.0
                for k in range(K):
                    pr *= per[k].probs[combo[k]]
                jc = tuple(per[k].support[combo[k]] for k in range(K))
                acc += pr * np.asarray(continuation(jc), dtype=float)
        for k in range(K):
            tensors[k][profile] = own_cost[k][profile[k]] + acc[k]
    return StageGame(tensors=tuple(tensors))


def stage_pure_nash_loop(game: StageGame) -> list:
    """``stage_game._pure_mask`` profile by profile: every joint index, in
    lexicographic order, from which no team's unilateral deviation costs
    more than PURE_TOL less."""
    out = []
    for prof in np.ndindex(game.shape):
        stable = True
        for k, T in enumerate(game.tensors):
            dev = T[prof[:k] + (slice(None),) + prof[k + 1:]]
            stable = stable and T[prof] <= dev.min() + PURE_TOL
        if stable:
            out.append(prof)
    return out


def _support_pairs(n1: int, n2: int, columns):
    """(r, c, R, C) for supports of at most DEFAULT_SUPPORT_BOUND indices,
    generated lazily in ``stage_game.mixed_nash_2team``'s scan order;
    ``columns(R)`` lists in increasing order the column indices that may
    enter C alongside R."""
    b1, b2 = min(n1, DEFAULT_SUPPORT_BOUND), min(n2, DEFAULT_SUPPORT_BOUND)
    for total in range(2, b1 + b2 + 1):
        for r in range(max(1, total - b2), min(b1, total - 1) + 1):
            for R in itertools.combinations(range(n1), r):
                for C in itertools.combinations(columns(R), total - r):
                    yield r, total - r, R, C


def mixed_nash_2team_unpruned(game: StageGame) -> StageEquilibrium:
    """``stage_game.mixed_nash_2team`` without dominance pruning: every
    support pair in scan order is solved and certified."""
    A, B = game.tensors
    n1, n2 = game.shape
    for r, c, R, C in _support_pairs(n1, n2, lambda R: range(n2)):
        if r == 1 and c == 1:
            x = np.zeros(n1); x[R[0]] = 1.0
            y = np.zeros(n2); y[C[0]] = 1.0
        else:
            y = _indifference_solve(A[np.ix_(R, C)], c)
            x = _indifference_solve(B[np.ix_(R, C)].T, r)
            if x is None or y is None:
                continue
            xf = np.zeros(n1); xf[list(R)] = x
            yf = np.zeros(n2); yf[list(C)] = y
            x, y = xf, yf
        eps, values = certify_epsilon(game, (x, y))
        if eps <= CERT_TOL:
            return StageEquilibrium(r + c > 2, eps, (x, y), values)
    raise EquilibriumNotFoundError(
        "no equilibrium with supports of size <= %d certified" % DEFAULT_SUPPORT_BOUND)


def own_cost_vector_tensordot(tensor: np.ndarray, weights, k: int) -> np.ndarray:
    """Team k's own-cost vector (``stage_game._run_plan`` of its
    ``_contraction_plan``) as a chain of ``np.tensordot`` calls, highest
    axis first."""
    X = tensor
    for j in range(len(weights) - 1, -1, -1):
        if j != k:
            X = np.tensordot(X, weights[j], axes=(j, 0))
    return X


def certify_epsilon_tensordot(game: StageGame, weights):
    """``stage_game.certify_epsilon`` from ``own_cost_vector_tensordot``
    vectors, each gain taken against the vector's minimum."""
    eps, values = 0.0, []
    for k, T in enumerate(game.tensors):
        e = own_cost_vector_tensordot(T, weights, k)
        values.append(weights[k] @ e)
        eps = max(eps, float(values[k] - e.min()))
    return max(eps, 0.0), np.array(values)


def br_iteration_recertified(game: StageGame, max_iters: int = 200,
                             tol: float = CERT_TOL) -> StageEquilibrium:
    """``stage_game.br_iteration`` certifying every visited profile with
    ``certify_epsilon`` from scratch."""
    K = game.n_teams
    weights = [np.full(n, 1.0 / n) for n in game.shape]
    best = None     # (epsilon, preference, order, equilibrium)
    order = 0

    def consider(mixed, weights):
        nonlocal best, order
        eps, values = certify_epsilon(game, weights)
        rank = (eps, int(mixed), order)
        order += 1
        if best is None or rank < best[0:3]:
            best = rank + (StageEquilibrium(mixed, eps, weights, values),)

    for it in range(1, max_iters + 1):
        brs = [int(np.argmin(own_cost_vector_tensordot(game.tensors[k], weights, k)))
               for k in range(K)]
        consider(False, tuple(np.eye(n)[i] for n, i in zip(game.shape, brs)))
        consider(True, tuple(w.copy() for w in weights))
        if best[0] <= tol:
            break
        alpha = 1.0 / (it + 1.0)
        for k in range(K):
            weights[k] *= (1.0 - alpha)
            weights[k][brs[k]] += alpha
    return best[3]


def total_cost_forward(spec: GameSpec, policy: PolicyTable) -> np.ndarray:
    """``finite_mpe.evaluate_total_cost`` by forward propagation of the
    full count law over the lattice: each stage adds the expected stage
    cost under the current law, then moves the law through the kernels
    averaged under the policy's mixtures."""
    lattice = policy.lattice
    cache = KernelCache(spec, policy.sets)
    T, K = spec.horizon, spec.n_teams
    dist = initial_distribution(spec, lattice).reshape(-1)
    totals = np.zeros(K)
    for t in range(T):
        live = np.flatnonzero(dist > 0.0)
        Zl = [z[live] for z in lattice.z]
        recs = [policy.stages[t][np.unravel_index(p, lattice.shape)] for p in live]
        w = [np.array([rec["w%d" % k] for rec in recs]) for k in range(K)]
        totals += [dist[live] @ np.einsum("pi,pi->p", w[k], _cost_table(spec, k, ps, Zl, t))
                   for k, ps in enumerate(policy.sets)]
        if t < T - 1:
            operands = [dist[live], [K]]
            for k, W in enumerate(cache.stacks()):
                operands += [_average(w[k], W[live]), [K, k]]
            new = np.einsum(*operands, list(range(K)), optimize=True)
            if abs(new.sum() - 1.0) > 1e-10:
                raise AssertionError("forward propagation lost mass: %.17g" % new.sum())
            dist = new.reshape(-1)
    return totals


def best_response_loop(spec: GameSpec, k: int, others: PolicyTable):
    """Optimal reply of team k (menu ``others.sets[k]``) when teams j != k play ``others``.

    A plain finite-horizon dynamic program (no game solving): at every
    (stage, lattice point) team k picks the menu item minimizing its own
    stage cost plus expected continuation, the other teams' kernels being
    averaged under their (possibly mixed) equilibrium profiles.

    Returns (per-stage arrays of chosen own indices, value array U of
    shape (T, *lattice shape)); ties resolve to the smallest index.
    """
    lattice = _count_lattice(others)
    cache = _store(spec, others)
    T = spec.horizon
    shape = lattice.shape
    Ws = cache.stacks() if T > 1 else None
    U = np.zeros((T + 1,) + shape)
    picks = [None] * T
    for t in range(T - 1, -1, -1):
        e = _cost_table(spec, k, others.sets[k], lattice.z, t)
        if t < T - 1:
            w = others.mixtures(t)
            Wk = [W if j == k else _average(w[j], W)[:, None] for j, W in enumerate(Ws)]
            e = e + _contract(Wk, U[t + 1]).reshape(e.shape)
        picks[t] = e.argmin(axis=1).reshape(shape)
        U[t] = e.min(axis=1).reshape(shape)
    return picks, U[:T]


def policy_value_loop(spec: GameSpec, policy: PolicyTable) -> np.ndarray:
    """Per-team values of playing ``policy`` everywhere: (T, K, *shape)."""
    lattice = _count_lattice(policy)
    cache = _store(spec, policy)
    T, K = spec.horizon, spec.n_teams
    Ws = cache.stacks() if T > 1 else None
    V = np.zeros((T + 1, K) + lattice.shape)
    for t in range(T - 1, -1, -1):
        w = policy.mixtures(t)
        v = np.stack([np.einsum("pi,pi->p", w[k], _cost_table(spec, k, ps, lattice.z, t))
                      for k, ps in enumerate(policy.sets)])
        if t < T - 1:
            avg = [_average(w[j], W)[:, None] for j, W in enumerate(Ws)]
            v = v + _contract(avg, V[t + 1]).reshape(v.shape)
        V[t] = v.reshape(V[t].shape)
    return V[:T]


def lipschitz_all_pairs(table, spec: GameSpec) -> np.ndarray:
    """``metrics.estimate_lipschitz`` as the max difference quotient over
    all L(L-1)/2 point pairs, not only one-team moves, taken in row blocks
    of about LIPSCHITZ_BLOCK_PAIRS pairs. Shape (K, T)."""
    V = table.values                      # (T, K, *shape)
    T, K = V.shape[0], V.shape[1]
    L = int(np.prod(V.shape[2:]))
    flatV = V.reshape(T * K, L)
    # joint point p has per-team grid indices idx[:, p]; the joint distance
    # sums per-team tables, each computed once per unordered pair
    idx = np.indices(V.shape[2:]).reshape(K, L)
    tables = []
    for x, tm in zip(table.per_team_points(), spec.teams):
        a, b = np.triu_indices(len(x), k=1)
        D = np.zeros((len(x), len(x)))
        D[a, b] = D[b, a] = transport_distance(x[a], x[b], tm.state_metric)
        tables.append(D)
    best = np.zeros(T * K)
    rows = max(1, LIPSCHITZ_BLOCK_PAIRS // L)
    for lo in range(0, L - 1, rows):
        r, c = np.nonzero(np.arange(lo + 1, L) > np.arange(lo, min(lo + rows, L - 1))[:, None])
        iu, ju = lo + r, lo + 1 + c
        dist = 0.0
        for D, ik in zip(tables, idx):
            dist = dist + D[ik[iu], ik[ju]]
        ok = dist > 1e-15
        if np.any(ok):
            q = np.abs(flatV[:, iu[ok]] - flatV[:, ju[ok]]) / dist[ok]
            best = np.maximum(best, q.max(axis=1))
    return best.reshape(T, K).T


def _records(policy, values, z_of):
    """Records of ``policy`` and its values (T, K, *points) at every stage,
    point (C order) and team; ``z_of(idx)`` gives a point's ``z`` entry:
    the dicts ``json.dumps`` encoded into ``policy.json`` before the
    writers produced its text directly."""
    K = len(policy.sets)
    items = [[p.rows.tolist() for p in ps.items] for ps in policy.sets]
    stacks = [ps.rows_stack() for ps in policy.sets]
    records = []
    for t, st in enumerate(policy.stages):
        ws = policy.mixtures(t)
        picks = [w.argmax(axis=1).tolist() for w in ws]
        vals = values[t].reshape(K, -1).tolist()
        for p, (idx, mixed) in enumerate(zip(np.ndindex(st.shape), st.mixed.flat)):
            for k in range(K):
                rec = {"stage": t, "z": z_of(idx), "team": k, "value": vals[k][p],
                       "kind": "mixed" if mixed else "pure",
                       "prescription": items[k][picks[k][p]]}
                if mixed:
                    rec["prescription"] = np.tensordot(ws[k][p], stacks[k], axes=(0, 0)).tolist()
                    rec["weights"] = ws[k][p].tolist()
                records.append(rec)
    return records


def format_counts(counts) -> str:
    return "-".join(str(int(c)) for c in counts)


def counts_at(lattice, idx) -> tuple:
    """Per-team count tuples of the count-lattice point idx."""
    return tuple(tuple(tl.counts[i].tolist()) for tl, i in zip(lattice.teams, idx))


def z_id_oracle(lattice, idx) -> str:
    """Name of one count-lattice point: its per-team counts through
    ``format_counts``, joined by ``/``."""
    return "/".join(format_counts(c) for c in counts_at(lattice, idx))


def point_id_oracle(grid, idx) -> str:
    """Name of one simplex-grid point: per team, its occupancy times the
    resolution n rounded to counts c, each written ``c:n`` and joined by
    ``/``; the teams joined by ``|``."""
    parts = []
    for k, n in enumerate(grid.resolutions):
        v = np.rint(grid.points[k][idx[k]] * n).astype(int)
        parts.append("/".join("%d:%d" % (x, n) for x in v))
    return "|".join(parts)


def record_z_oracle(lattice, idx):
    """The ``z`` value of one point's policy.json records: the point id
    on a simplex grid, the per-team count lists on the count lattice."""
    if isinstance(lattice, SimplexGrid):
        return point_id_oracle(lattice, idx)
    return [list(c) for c in counts_at(lattice, idx)]


def policy_json_oracle(policy, values, spec_hash: str) -> str:
    """The bytes of ``policy.json`` for a solved policy on the count
    lattice or a simplex grid and its value table, from ``_records``
    through ``json.dumps``."""
    records = _records(policy, values.values, lambda idx: record_z_oracle(policy.lattice, idx))
    return json.dumps({"records": records, "spec_sha256": spec_hash},
                      sort_keys=True, indent=2) + "\n"


@dataclass
class FunctionPolicy:
    """Adapter for hand-written policies: fn(t, M, rng) must return
    per-team (S, A) action rows."""
    fn: object
    randomized: bool = False

    def realize(self, t, M, rng):
        return self.fn(t, M, rng)


def eval_transition(spec: GameSpec, k: int, s: int, a: int, z) -> np.ndarray:
    """Next-state probability row P(.|s, a, z) for an agent of team k."""
    tm = spec.teams[k]
    if not (0 <= s < tm.n_states and 0 <= a < tm.n_actions):
        raise IndexError("state/action out of range for team %d: (s=%d, a=%d)" % (k, s, a))
    zf = flatten_mean_field(spec, z)
    row = tm.transition_base[s, a] + tm.transition_coupling[s, a] @ zf
    return np.maximum(row, 0.0)


def eval_cost(spec: GameSpec, k: int, t: int, s: int, a: int, z) -> float:
    """Per-agent stage cost c_t(s, a, z) for team k at stage t (0-based)."""
    tm = spec.teams[k]
    if not 0 <= t < spec.horizon:
        raise IndexError("stage %d out of range for horizon %d" % (t, spec.horizon))
    if not (0 <= s < tm.n_states and 0 <= a < tm.n_actions):
        raise IndexError("state/action out of range for team %d: (s=%d, a=%d)" % (k, s, a))
    zf = flatten_mean_field(spec, z)
    return float(tm.cost_base[t, s, a] + tm.cost_coupling[t, s, a] @ zf)


def stage_cost(z, gamma: Prescription, spec: GameSpec, k: int, t: int) -> float:
    """Expected per-agent stage cost of team k at z under gamma, summed
    cell by cell from ``eval_cost``: sum_s z_k(s) sum_a gamma(a|s) c_t(s, a, z)."""
    zk = getattr(z, "per_team", z)[k]
    tm = spec.teams[k]
    return sum(zk[s] * gamma.rows[s, a] * eval_cost(spec, k, t, s, a, z)
               for s in range(tm.n_states) for a in range(tm.n_actions))


def _kr_norm(w: np.ndarray, metric: np.ndarray) -> float:
    """Smallest L with |w . (p - q)| <= L * W_metric(p, q) for p, q on the
    simplex: the Lipschitz constant of the coefficient vector w on the
    metric state space (Kantorovich duality makes this tight)."""
    S = len(w)
    if S == 1:
        return 0.0
    diff = np.abs(w[:, None] - w[None, :])
    off = ~np.eye(S, dtype=bool)
    return float(np.max(diff[off] / metric[off]))


def transition_lipschitz(spec: GameSpec, k: int) -> float:
    """Closed-form bound: W(P(.|s,a,z), P(.|s,a,z')) <= L * d(z, z') for
    every (s, a), where W uses team k's state metric and d(z, z') is the
    summed per-team transport distance."""
    tm = spec.teams[k]
    S = tm.n_states
    if S == 1:
        return 0.0
    diam = float(tm.state_metric.max())
    best = 0.0
    for s in range(S):
        for a in range(tm.n_actions):
            per_team = []
            for kp in range(spec.n_teams):
                blk = tm.transition_coupling[s, a, :, spec.block(kp)]   # (S', |S_kp|)
                mkp = spec.teams[kp].state_metric
                per_team.append(sum(_kr_norm(blk[sp], mkp) for sp in range(S)))
            best = max(best, max(per_team) if per_team else 0.0)
    return 0.5 * diam * best


def cost_lipschitz(spec: GameSpec, k: int, t: int) -> float:
    """Closed-form bound: |c_t(s,a,z) - c_t(s,a,z')| <= L * d(z, z') for
    every (s, a), d(z, z') the summed per-team transport distance."""
    tm = spec.teams[k]
    best = 0.0
    for s in range(tm.n_states):
        for a in range(tm.n_actions):
            for kp in range(spec.n_teams):
                w = tm.cost_coupling[t, s, a, spec.block(kp)]
                best = max(best, _kr_norm(w, spec.teams[kp].state_metric))
    return best
