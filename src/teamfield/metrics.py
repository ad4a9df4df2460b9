"""Approximation metrics: transport distances, concentration envelopes,
value-table Lipschitz estimates and the resulting equilibrium-gap bound.

The quality of the infinite-population approximation is governed by (a)
how far the random next mean field strays from its deterministic flow
image (a constant-over-sqrt(N) envelope, estimated empirically here from
deviations that are exact expectations under the count kernel) and (b)
how steep the equilibrium value functions are in the mean field (the
largest difference quotient over all point pairs of the computed tables).
Each team's envelope covers its whole menu, every item once. A probe
call builds the mixture rows and flow images once and, per population,
the ``counts._count_laws`` rows of all teams with the same (N, S) at once.
``theorem4_bound`` combines the two into an estimated gap, not a
certificate, 2 * sum_t sum_k kappa_k * L_{k,t} / sqrt(N_k): each kappa is
an empirical envelope over the probed populations and each L a grid
difference quotient, both labeled as such. Nothing here samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, SpecValidationError
from .counts import (DEFAULT_SUPPORT_CAP, _arrivals, _count_laws, _mixture_rows,
                     count_point, lattice_size)
from .model import GameSpec, _count, _flow, flatten_mean_field
from .stage_game import STORE_BLOCK_ENTRIES

MAX_EXACT_STATES = 32
MAX_LIPSCHITZ_PAIRS = 10 ** 9     # most point pairs estimate_lipschitz compares
LIPSCHITZ_BLOCK_PAIRS = 1 << 14   # pairs per block; bounds the transient arrays


def _check_dist(p, name):
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-12) or not abs(p.sum() - 1.0) <= 1e-9:
        raise SpecValidationError("%s is not a probability vector (sum %.17g)"
                                  % (name, p.sum()))
    return np.maximum(p, 0.0)


def wasserstein(p, q, metric) -> float:
    """Exact optimal transport cost between p and q on a finite metric
    space, solved as the transportation linear program. ``scipy.optimize``
    is imported on first use: only metrics without a closed form reach
    this LP, and the import costs more than most runs."""
    from scipy.optimize import linprog
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
    ``p``, ``q`` and the (n, n) ``metric`` must agree on the state count n.

    Closed forms where they exist (one state: 0; two states: d01*|p0-q0|;
    equal off-diagonal metric: half the L1 distance times that value),
    each built as one array of the result's shape: the state-0 difference
    made absolute in place, the other states' absolute differences added
    one state at a time, in order, through one scratch array of that
    shape, then scaled in place (bitwise the old axis sum below 8 states,
    within 1e-12 of it above). Any other metric falls back to the exact
    LP ``wasserstein`` pair by pair. The identity with the LP is
    property-tested."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = np.asarray(metric, dtype=float)
    n = p.shape[-1]
    if q.shape[-1] != n or d.shape != (n, n):
        raise SpecValidationError("metric/distribution dimensions disagree: %s, %s and metric %s"
                                  % (p.shape, q.shape, d.shape))
    if n == 1:
        return np.zeros(np.broadcast_shapes(p.shape, q.shape)[:-1])
    if n > 2:
        off = d[~np.eye(n, dtype=bool)]
        if np.any(off != off[0]):
            p, q = np.broadcast_arrays(p, q)
            out = np.empty(p.shape[:-1])
            for i in np.ndindex(out.shape):
                out[i] = wasserstein(p[i], q[i], d)
            return out
    out = np.asarray(p[..., 0] - q[..., 0])
    np.abs(out, out=out)
    if n == 2:
        out *= d[0, 1]
        return out
    term = np.empty_like(out)
    for s in range(1, n):
        out += np.abs(np.subtract(p[..., s], q[..., s], out=term), out=term)
    out *= off[0] * 0.5
    return out


def _deviations(spec: GameSpec, z, menus, populations) -> list:
    """Per entry of ``populations`` (one count per team, all checked before
    any law), per team k the exact E W(next counts / N_k, flow image) under
    each item of menus[k]: one ``_count_laws`` call per entry and (N, S),
    in blocks of about STORE_BLOCK_ENTRIES entries."""
    if len(menus) != spec.n_teams:
        raise SpecValidationError("need one menu per team, got %d for %d teams"
                                  % (len(menus), spec.n_teams))
    zf = flatten_mean_field(spec, z)
    Z = [np.asarray(v, dtype=float)[None] for v in getattr(z, "per_team", z)]
    counts = [[count_point(Z[k][0], n, k) for k, n in enumerate(ns)] for ns in populations]
    big = [k for ns in populations for k, (tm, n) in enumerate(zip(spec.teams, ns))
           if lattice_size(n, tm.n_states) > DEFAULT_SUPPORT_CAP]
    if big:
        raise CapacityError("team %d count lattice exceeds cap %d" % (big[0], DEFAULT_SUPPORT_CAP))
    for k, menu in enumerate(menus):
        if len({p.rows.shape for p in menu}) > 1:
            raise SpecValidationError("prescription shapes differ within team %d's menu" % k)
    R = [np.stack([p.rows for p in menu]) for menu in menus]
    mix = [_mixture_rows(spec, k, zf[None], r)[0] for k, r in enumerate(R)]
    q = [f[0] for f in _flow(spec, Z, R)]
    out = []
    for ns, m in zip(populations, counts):
        devs = {}
        for N, S in {(n, tm.n_states) for n, tm in zip(ns, spec.teams)}:
            ks = [k for k, tm in enumerate(spec.teams) if (ns[k], tm.n_states) == (N, S)]
            team = np.repeat(ks, [len(mix[k]) for k in ks])
            rows, q_rows = np.concatenate([mix[k] for k in ks]), np.concatenate([q[k] for k in ks])
            points = _arrivals(N, S)[1] / N
            step = max(1, STORE_BLOCK_ENTRIES // len(points))
            dev = np.empty(len(rows))
            for lo in range(0, len(rows), step):
                b = slice(lo, lo + step)
                law = _count_laws(rows[b], np.stack([m[k] for k in team[b]]))
                for k in ks:
                    at = team[b] == k
                    dist = transport_distance(points, q_rows[b][at, None], spec.teams[k].state_metric)
                    dev[b][at] = (law[at] * dist).sum(axis=1)
            devs.update({k: dev[team == k] for k in ks})
        out.append([devs[k] for k in range(spec.n_teams)])
    return out


@dataclass
class RateFit:
    """Log-log fit of deviation against population."""
    n_values: list
    deviations: list
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
    ns = sorted(set(_count(n, "rate-fit population") for n in n_values))
    if len(ns) < 4:
        raise SpecValidationError("rate fit needs at least 4 distinct populations")
    devs, kappa = [], np.zeros(spec.n_teams)
    probes = _deviations(spec, z, [[p] for p in prescriptions], [[n] * spec.n_teams for n in ns])
    for n, per_team in zip(ns, probes):
        d = np.array([x[0] for x in per_team])
        devs.append(float(d.sum()))
        kappa = np.maximum(kappa, math.sqrt(n) * d)
    if max(devs) < 1e-15:
        return RateFit(n_values=ns, deviations=devs, slope=float("nan"),
                       intercept=float("nan"), r_squared=float("nan"), kappa_hat=kappa,
                       degenerate=True)
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(devs))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return RateFit(n_values=ns, deviations=devs, slope=float(slope),
                   intercept=float(intercept), r_squared=r2, kappa_hat=kappa)


def kappa_envelope(spec: GameSpec, z, menus, n_values) -> np.ndarray:
    """Per team k, the max sqrt(N)-scaled deviation over every item of
    menus[k] and every N of a nonempty n_values; z on every probed lattice."""
    ns = [_count(n, "probe population") for n in n_values]
    if not ns:
        raise SpecValidationError("kappa envelope needs at least one population")
    kappa = np.zeros(spec.n_teams)
    for n, devs in zip(ns, _deviations(spec, z, menus, [[n] * spec.n_teams for n in ns])):
        kappa = np.maximum(kappa, [math.sqrt(n) * d.max() for d in devs])
    return kappa


def estimate_lipschitz(table, spec: GameSpec) -> np.ndarray:
    """Per-(team, stage) Lipschitz estimate of a value table w.r.t. the
    summed transport metric: the max difference quotient over all point
    pairs. The joint distance sums per-team distances on a product grid,
    so a path from x to y that moves one team at a time stays on the grid,
    and by the triangle inequality no pair's quotient exceeds the largest
    quotient of a pair that differs in one team only; the max is taken
    over those (a multi-team quotient can round a few ulps above it), in
    blocks of about LIPSCHITZ_BLOCK_PAIRS pairs. Shape (K, T); all zeros
    on a one-point table, which has no pairs; raises CapacityError above
    MAX_LIPSCHITZ_PAIRS one-team pairs."""
    V = table.values                      # (T, K, *shape)
    T, K, shape = V.shape[0], V.shape[1], V.shape[2:]
    L = math.prod(shape)
    pairs = sum(L * (n - 1) // 2 for n in shape)
    if pairs > MAX_LIPSCHITZ_PAIRS:
        raise CapacityError("lipschitz estimation over %d point pairs, cap is %d"
                            % (pairs, MAX_LIPSCHITZ_PAIRS))
    best = np.zeros(T * K)
    for k, (x, tm) in enumerate(zip(table.lattice.points, spec.teams)):
        n = len(x)
        if n < 2:      # one point makes no pair
            continue
        # team k's grid index first, every other team's index flattened
        Vk = np.moveaxis(V.reshape((T * K,) + shape), k + 1, 1).reshape(T * K, n, L // n)
        a, b = np.triu_indices(n, k=1)
        dist = transport_distance(x[a], x[b], tm.state_metric)
        ok = dist > 1e-15
        a, b, dist = a[ok], b[ok], dist[ok, None]
        step = max(1, LIPSCHITZ_BLOCK_PAIRS // (L // n))
        for lo in range(0, len(a), step):
            s = slice(lo, lo + step)
            q = np.abs(Vk[:, a[s]] - Vk[:, b[s]]) / dist[s]
            best = np.maximum(best, q.max(axis=(1, 2)))
    return best.reshape(T, K).T


def theorem4_bound(kappa_hat, lipschitz, populations) -> float:
    """Equilibrium gap estimate 2 * sum_t sum_k kappa_k * L_{k,t} / sqrt(N_k),
    not a certificate: kappa_hat (length K, like populations) is an empirical
    envelope and ``lipschitz`` (K, T) holds grid difference quotients."""
    kap = np.asarray(kappa_hat, dtype=float)
    L = np.asarray(lipschitz, dtype=float)
    N = np.asarray(populations, dtype=float)
    if np.any(kap < 0) or np.any(L < 0):
        raise SpecValidationError("kappa and Lipschitz inputs must be nonnegative")
    return float(2.0 * np.sum(L * (kap / np.sqrt(N))[:, None]))
