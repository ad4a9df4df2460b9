"""Approximation metrics: transport distances, concentration envelopes,
value-table Lipschitz estimates and the resulting equilibrium-gap bound.

The quality of the infinite-population approximation is governed by (a)
how far the random next mean field strays from its deterministic flow
image (a constant-over-sqrt(N) envelope, estimated empirically here) and
(b) how steep the equilibrium value functions are in the mean field
(estimated from the computed tables). ``theorem4_bound`` combines the two
into the certified gap 2 * sum_t sum_k kappa_k * L_{k,t} / sqrt(N_k).
Every kappa produced here is an empirical envelope over the probed
populations and is labeled as such in reports; no constants are invented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import SpecValidationError
from .counts import count_point, team_transition_kernel
from .model import GameSpec, with_populations
from .rng import substream

MAX_EXACT_STATES = 32
DEFAULT_DEVIATION_CAP = 10 ** 5
DEFAULT_PAIR_CAP = 10 ** 6


def _check_dist(p, name):
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise SpecValidationError("%s is not a probability vector (sum %.17g)"
                                  % (name, p.sum()))
    return np.maximum(p, 0.0)


def wasserstein(p, q, metric) -> float:
    """Exact optimal transport cost between p and q on a finite metric
    space, solved as the transportation linear program."""
    p = _check_dist(p, "p")
    q = _check_dist(q, "q")
    d = np.asarray(metric, dtype=float)
    n = len(p)
    if d.shape != (n, n) or len(q) != n:
        raise SpecValidationError("metric/distribution dimensions disagree")
    if n > MAX_EXACT_STATES:
        raise SpecValidationError("exact transport is limited to %d states, got %d"
                                  % (MAX_EXACT_STATES, n))
    if n == 1:
        return 0.0
    # marginal constraints; the last one is redundant and dropped
    A = np.zeros((2 * n - 1, n * n))
    b = np.zeros(2 * n - 1)
    for i in range(n):
        A[i, i * n:(i + 1) * n] = 1.0
        b[i] = p[i]
    for j in range(n - 1):
        A[n + j, j::n] = 1.0
        b[n + j] = q[j]
    res = linprog(d.reshape(-1), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError("transport LP failed: %s" % res.message)
    return float(res.fun)


def transport_distance(p, q, metric) -> np.ndarray:
    """Optimal transport cost between the distributions on the last axis of
    ``p`` and ``q``, broadcast against each other; one value per pair.

    Closed forms where they exist (one state: 0; two states: d01*|p0-q0|;
    equal off-diagonal metric: half the L1 distance times that value);
    any other metric falls back to the exact LP ``wasserstein`` pair by
    pair. The identity with the LP is property-tested."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = np.asarray(metric, dtype=float)
    n = p.shape[-1]
    if n == 1:
        return np.zeros(np.broadcast_shapes(p.shape, q.shape)[:-1])
    if n == 2:
        return d[0, 1] * np.abs(p[..., 0] - q[..., 0])
    off = d[~np.eye(n, dtype=bool)]
    if np.all(off == off[0]):
        return off[0] * 0.5 * np.abs(p - q).sum(axis=-1)
    p, q = np.broadcast_arrays(p, q)
    out = np.empty(p.shape[:-1])
    for i in np.ndindex(out.shape):
        out[i] = wasserstein(p[i], q[i], d)
    return out


def wasserstein_fast(p, q, metric) -> float:
    """``wasserstein`` of one pair through ``transport_distance``."""
    return float(transport_distance(p, q, metric))


def joint_distance(z, zhat, spec: GameSpec) -> float:
    """Sum over teams of the per-team transport distances."""
    a = getattr(z, "per_team", z)
    b = getattr(zhat, "per_team", zhat)
    if len(a) != len(b) or len(a) != spec.n_teams:
        raise SpecValidationError("mean fields disagree on team count")
    total = 0.0
    for k in range(spec.n_teams):
        total += wasserstein(a[k], b[k], spec.teams[k].state_metric)
    return total


def per_team_deviation(z, prescriptions, spec: GameSpec, cap=None) -> np.ndarray:
    """Exact per-team E[W(next counts / N, flow image)] under the count
    kernel. The joint expectation of the summed metric separates across
    teams because teams transition independently."""
    from .limit import flow
    per_team = getattr(z, "per_team", z)
    q = flow(z, prescriptions, spec)
    out = np.zeros(spec.n_teams)
    for k in range(spec.n_teams):
        tm = spec.teams[k]
        m = count_point(per_team[k], tm.population, k)
        dist = team_transition_kernel(m, z, prescriptions[k], spec, k)
        support = np.array([cv.counts for cv in dist.support]) / tm.population
        out[k] = dist.probs @ transport_distance(support, q.per_team[k], tm.state_metric)
    return out


def expected_deviation(z, prescriptions, spec: GameSpec,
                       support_cap: int = DEFAULT_DEVIATION_CAP,
                       samples: int = 20000, master_seed=None,
                       with_stderr: bool = False):
    """E over the joint count kernel of the summed transport distance to
    the deterministic flow image.

    Exact when the joint support fits under ``support_cap``; otherwise a
    Monte Carlo estimate (``samples`` draws) whose standard error is
    available via with_stderr=True (exact mode reports stderr 0)."""
    from .counts import CountVector, JointCount, sample_next_counts
    from .limit import flow
    per_team = getattr(z, "per_team", z)
    ms = [count_point(per_team[k], tm.population, k) for k, tm in enumerate(spec.teams)]
    sizes = [len(team_transition_kernel(m, z, prescriptions[k], spec, k))
             for k, m in enumerate(ms)]
    if math.prod(sizes) <= support_cap:
        val = float(per_team_deviation(z, prescriptions, spec).sum())
        return (val, 0.0) if with_stderr else val
    # Monte Carlo fallback for large supports
    q = flow(z, prescriptions, spec)
    M = JointCount(per_team=tuple(CountVector(team_id=k, counts=m) for k, m in enumerate(ms)))
    rng = substream(spec.seed if master_seed is None else master_seed,
                    "expected-deviation")
    nxt = [sample_next_counts(M, prescriptions, spec, rng) for _ in range(samples)]
    draws = sum(transport_distance(np.array([jc.per_team[k].counts for jc in nxt]) / tm.population,
                                   q.per_team[k], tm.state_metric)
                for k, tm in enumerate(spec.teams))
    mean = float(draws.mean())
    stderr = float(draws.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return (mean, stderr) if with_stderr else mean


@dataclass
class RateFit:
    """Log-log fit of deviation against population."""
    n_values: list
    deviations: list
    per_team_deviations: list      # per N: (K,) array
    slope: float
    intercept: float
    r_squared: float
    kappa_hat: np.ndarray          # per team, sqrt(N)-scaled envelope
    degenerate: bool = False

    def csv_rows(self):
        return [(n, repr(float(d)), repr(0.0))
                for n, d in zip(self.n_values, self.deviations)]

    def as_dict(self):
        return {
            "n_values": [int(n) for n in self.n_values],
            "deviations": [float(d) for d in self.deviations],
            "slope": None if self.degenerate else float(self.slope),
            "intercept": None if self.degenerate else float(self.intercept),
            "r_squared": None if self.degenerate else float(self.r_squared),
            "kappa_hat": [float(x) for x in self.kappa_hat],
            "kappa_kind": "empirical-envelope",
            "degenerate": bool(self.degenerate),
        }


def fit_rate(spec: GameSpec, z, prescriptions, n_values) -> RateFit:
    """Scale every team's population through ``n_values``, measure the
    exact expected deviation at each size, fit log-deviation against
    log-N, and record per-team kappa_hat = max_N sqrt(N) * deviation_k(N).

    z must sit on the count lattice of every probed population. All-zero
    deviations (deterministic dynamics) come back flagged degenerate."""
    ns = sorted(set(int(n) for n in n_values))
    if len(ns) < 4:
        raise SpecValidationError("rate fit needs at least 4 distinct populations")
    devs, per_team = [], []
    for n in ns:
        sp = with_populations(spec, n)
        d = per_team_deviation(z, prescriptions, sp)
        per_team.append(d)
        devs.append(float(d.sum()))
    kappa = np.zeros(spec.n_teams)
    for d, n in zip(per_team, ns):
        kappa = np.maximum(kappa, math.sqrt(n) * d)
    if max(devs) < 1e-15:
        return RateFit(n_values=ns, deviations=devs, per_team_deviations=per_team,
                       slope=float("nan"), intercept=float("nan"),
                       r_squared=float("nan"), kappa_hat=kappa, degenerate=True)
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(devs))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return RateFit(n_values=ns, deviations=devs, per_team_deviations=per_team,
                   slope=float(slope), intercept=float(intercept), r_squared=r2,
                   kappa_hat=kappa)


def kappa_envelope(spec: GameSpec, z, profiles, n_values) -> np.ndarray:
    """Elementwise-max sqrt(N)-scaled deviation over prescription profiles
    and populations; z must sit on every probed count lattice."""
    kappa = np.zeros(spec.n_teams)
    for n in n_values:
        sp = with_populations(spec, n)
        for gammas in profiles:
            d = per_team_deviation(z, gammas, sp)
            kappa = np.maximum(kappa, math.sqrt(n) * d)
    return kappa


def estimate_lipschitz(table, spec: GameSpec,
                       pair_cap: int = DEFAULT_PAIR_CAP,
                       master_seed: int = 0) -> np.ndarray:
    """Per-(team, stage) Lipschitz estimate of a value table w.r.t. the
    summed transport metric: the max difference quotient over point pairs
    (a deterministic subsample above ``pair_cap`` pairs). Shape (K, T)."""
    V = table.values                      # (T, K, *shape)
    pts = table.per_team_points()
    T, K = V.shape[0], V.shape[1]
    L = int(np.prod(V.shape[2:]))
    if L < 2:
        raise SpecValidationError("lipschitz estimation needs at least 2 points")
    flatV = V.reshape(T, K, L)
    out = np.zeros((K, T))
    iu, ju = np.triu_indices(L, k=1)
    if iu.size > pair_cap:
        rng = substream(master_seed, "lipschitz-pairs")
        sel = rng.choice(iu.size, size=pair_cap, replace=False)
        iu, ju = iu[sel], ju[sel]
    # joint point p has per-team grid indices idx[:, p]; the joint distance
    # sums per-team tables, each computed once per unordered pair
    idx = np.indices(V.shape[2:]).reshape(K, L)
    dist = 0.0
    for x, i, tm in zip(pts, idx, spec.teams):
        a, b = np.triu_indices(len(x), k=1)
        D = np.zeros((len(x), len(x)))
        D[a, b] = D[b, a] = transport_distance(x[a], x[b], tm.state_metric)
        dist = dist + D[i[iu], i[ju]]
    ok = dist > 1e-15
    for k in range(K):
        for t in range(T):
            dv = np.abs(flatV[t, k, iu] - flatV[t, k, ju])
            out[k, t] = float(np.max(dv[ok] / dist[ok])) if np.any(ok) else 0.0
    return out


def theorem4_bound(kappa_hat, lipschitz, populations) -> float:
    """Certified equilibrium gap 2 * sum_t sum_k kappa_k * L_{k,t} / sqrt(N_k).

    ``lipschitz`` has shape (K, T); kappa_hat and populations length K."""
    kap = np.asarray(kappa_hat, dtype=float)
    L = np.asarray(lipschitz, dtype=float)
    N = np.asarray(populations, dtype=float)
    if np.any(kap < 0) or np.any(L < 0):
        raise SpecValidationError("kappa and Lipschitz inputs must be nonnegative")
    return float(2.0 * np.sum(L * (kap / np.sqrt(N))[:, None]))


@dataclass
class Lemma1Report:
    """Dual-route consistency of the limit approximation on a test set:
    the finite and limit stage-cost closed forms must coincide, and the
    fitted kappa envelope must dominate every probed deviation."""
    rows: list                       # (cost_gap, deviation, margin) per pair
    max_cost_gap: float
    max_margin: float
    kappa_hat: np.ndarray

    def as_dict(self):
        return {
            "max_cost_gap": float(self.max_cost_gap),
            "max_margin": float(self.max_margin),
            "kappa_hat": [float(x) for x in self.kappa_hat],
            "rows": [{"cost_gap": float(a), "deviation": float(b), "margin": float(c)}
                     for a, b, c in self.rows],
        }


def lemma1_check(spec: GameSpec, pairs) -> Lemma1Report:
    """``pairs`` is a list of (count mean field, prescription profile).

    cost_gap: max over teams of |finite stage cost - limit stage cost|
    (identical closed forms, so ~0 up to rounding). margin: deviation
    minus sum_k kappa_k / sqrt(N_k) with kappa the envelope fitted on the
    same set (nonpositive by construction)."""
    from .counts import stage_cost
    from .limit import limit_stage_cost
    K = spec.n_teams
    sqrtN = np.sqrt([tm.population for tm in spec.teams])
    devs, gaps = [], []
    kappa = np.zeros(K)
    for z, gammas in pairs:
        gap = 0.0
        for k in range(K):
            for t in range(spec.horizon):
                a = stage_cost(z, gammas[k], spec, k, t)
                b = limit_stage_cost(z, gammas[k], spec, k, t)
                gap = max(gap, abs(a - b))
        gaps.append(gap)
        d = per_team_deviation(z, gammas, spec)
        devs.append(d)
        kappa = np.maximum(kappa, sqrtN * d)
    rows = []
    env = float(np.sum(kappa / sqrtN))
    for gap, d in zip(gaps, devs):
        dev = float(d.sum())
        rows.append((gap, dev, dev - env))
    max_margin = max((r[2] for r in rows), default=0.0)
    return Lemma1Report(rows=rows, max_cost_gap=max(gaps, default=0.0),
                        max_margin=max_margin, kappa_hat=kappa)
