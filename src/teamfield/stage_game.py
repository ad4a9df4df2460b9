"""One-shot games over prescriptions.

At every mean-field point of the backward induction the K team
coordinators face a finite simultaneous-move game: each picks a
prescription from a finite menu, pays its own stage cost plus the
expected continuation value under the induced joint count kernel. This
module builds those menus and cost tensors and solves the game (pure
enumeration, support enumeration for two teams, damped fictitious play
as the always-terminating fallback).

The prescription simplex is continuous in principle; menus here are
either all deterministic state-to-action maps ("pure") or all maps with
rows on a 1/g grid ("gridded"). Refining g trades computation for
fidelity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, EquilibriumNotFoundError, SpecValidationError
from .counts import (JointLattice, MeanField, Prescription, count_point,
                     enumerate_counts, stage_cost, team_transition_kernel)
from .model import GameSpec, flatten_mean_field

PURE_TOL = 1e-12      # strict-improvement tolerance for pure deviations
CERT_TOL = 1e-9       # certified-equilibrium acceptance threshold
DEFAULT_PRESCRIPTION_CAP = 10 ** 5
DEFAULT_SUPPORT_BOUND = 4
MAX_STORE_BYTES = 1 << 30     # largest kernel store a run may allocate


@dataclass(frozen=True)
class PrescriptionSet:
    """Ordered finite menu of prescriptions for one team."""
    team_id: int
    mode: str
    grid_resolution: int
    items: tuple

    def __len__(self):
        return len(self.items)

    def rows_stack(self):
        return np.stack([p.rows for p in self.items])


def build_prescription_set(spec: GameSpec, k: int, mode: str = "pure",
                           g: int = None,
                           cap: int = DEFAULT_PRESCRIPTION_CAP) -> PrescriptionSet:
    """Menu for team k.

    pure: all deterministic maps, ordered lexicographically by the tuple
    of chosen action indices (|A|^|S| items). gridded: every map whose
    rows have entries that are multiples of 1/g (C(g+|A|-1, |A|-1)^|S|
    items, rows cycling fastest in the last state).
    """
    tm = spec.teams[k]
    S, A = tm.n_states, tm.n_actions
    if mode == "pure":
        size = A ** S
        if size > cap:
            raise CapacityError("pure prescription set for team %d has %d items, cap %d"
                                % (k, size, cap))
        items = []
        for choice in itertools.product(range(A), repeat=S):
            rows = np.zeros((S, A))
            rows[np.arange(S), list(choice)] = 1.0
            items.append(Prescription(team_id=k, rows=rows))
    elif mode == "gridded":
        if g is None or g < 1:
            raise SpecValidationError("gridded mode needs a grid resolution g >= 1")
        row_menu = [np.array(v, dtype=float) / g for v in enumerate_counts(g, A)]
        size = len(row_menu) ** S
        if size > cap:
            raise CapacityError("gridded prescription set for team %d has %d items, cap %d"
                                % (k, size, cap))
        items = []
        for combo in itertools.product(row_menu, repeat=S):
            items.append(Prescription(team_id=k, rows=np.stack(combo)))
    else:
        raise SpecValidationError("unknown prescription mode %r" % mode)
    return PrescriptionSet(team_id=k, mode=mode,
                           grid_resolution=(g if mode == "gridded" else 1),
                           items=tuple(items))


@dataclass(frozen=True)
class StageGame:
    """Cost tensors over joint prescription indices, one per team."""
    tensors: tuple
    sets: tuple

    def __post_init__(self):
        shape = self.tensors[0].shape
        for T in self.tensors:
            if T.shape != shape:
                raise SpecValidationError("stage game tensors disagree on shape")
            if not np.all(np.isfinite(T)):
                raise SpecValidationError("stage game tensor has non-finite entries")

    @property
    def n_teams(self):
        return len(self.tensors)

    @property
    def shape(self):
        return self.tensors[0].shape


@dataclass(frozen=True)
class StageEquilibrium:
    """Solution of one stage game.

    kind 'pure': per_team is a tuple of prescription indices.
    kind 'mixed': per_team is a tuple of probability vectors over each
    team's menu. epsilon is the certified maximal unilateral gain,
    recomputed exactly from the tensors.
    """
    kind: str
    per_team: tuple
    epsilon: float

    def __post_init__(self):
        if self.kind not in ("pure", "mixed"):
            raise SpecValidationError("equilibrium kind must be pure or mixed")
        if self.epsilon < 0:
            raise SpecValidationError("epsilon must be nonnegative")
        if self.kind == "mixed":
            vecs = tuple(np.asarray(v, dtype=float) for v in self.per_team)
            for v in vecs:
                if np.any(v < -1e-10) or abs(v.sum() - 1.0) > 1e-10:
                    raise SpecValidationError("mixed profile off the simplex")
            object.__setattr__(self, "per_team", vecs)
        else:
            object.__setattr__(self, "per_team", tuple(int(i) for i in self.per_team))

    def weights(self, game_shape) -> list:
        """Per-team mixture over menu indices (one-hot when pure)."""
        out = []
        for k, n in enumerate(game_shape):
            if self.kind == "pure":
                w = np.zeros(n)
                w[self.per_team[k]] = 1.0
            else:
                w = np.asarray(self.per_team[k], dtype=float)
            out.append(w)
        return out

    def mean_rows(self, sets) -> list:
        """Mixture-averaged prescription rows per team."""
        out = []
        for k, ps in enumerate(sets):
            if self.kind == "pure":
                out.append(ps.items[self.per_team[k]].rows)
            else:
                out.append(np.tensordot(self.per_team[k], ps.rows_stack(), axes=(0, 0)))
        return out


@dataclass
class EquilibriumTable:
    """Stage-game equilibria at every (stage, point) of a backward
    induction; the finite and limit policy tables add the points."""
    stages: list                 # per stage: object array of StageEquilibrium
    sets: tuple

    def equilibrium(self, t: int, idx) -> StageEquilibrium:
        return self.stages[t][tuple(idx)]

    @property
    def horizon(self):
        return len(self.stages)

    @property
    def mixed_points(self) -> list:
        """(stage, point index) of every mixed equilibrium, stage by stage."""
        return [(t, idx) for t, st in enumerate(self.stages)
                for idx in np.ndindex(st.shape) if st[idx].kind == "mixed"]


class KernelCache:
    """The one store of per-team next-count kernels of a run.

    Kernels do not depend on the stage, so one store serves the solver,
    the certificate (which recomputes values and best replies from them
    but solves no stage game) and the forward evaluation; criterion 2 and
    the engine oracle check them. Team k's are a dense read-only stack
    W_k[point, menu item, L_k] over the C-order points of ``lattice``,
    allocated on first request after a size check; a point is filled by
    ``team_transition_kernel`` when first requested.
    """

    def __init__(self, spec: GameSpec, sets):
        self.spec = spec
        self.sets = sets
        self.lattice = JointLattice(spec)
        self._W = None
        self._filled = np.zeros(len(self.lattice), dtype=bool)

    def stacks(self, points=None) -> list:
        """Per-team read-only stacks W_k over every joint point, with the
        kernels at the flat joint indices ``points`` (default: all)
        filled; rows of points not yet requested are zero."""
        if self._W is None:
            lat = self.lattice
            size = 8 * len(lat) * sum(len(ps) * len(tl) for ps, tl in zip(self.sets, lat.teams))
            if size > MAX_STORE_BYTES:
                raise CapacityError("kernel store needs %d bytes, cap is %d"
                                    % (size, MAX_STORE_BYTES))
            self._W = [np.zeros((len(lat), len(ps), len(tl)))
                       for ps, tl in zip(self.sets, lat.teams)]
        todo = np.arange(len(self._filled)) if points is None else np.asarray(points)
        for p in todo[~self._filled[todo]]:
            self._fill(p)
        out = [W.view() for W in self._W]
        for W in out:
            W.setflags(write=False)
        return out

    def _fill(self, p: int):
        idx = np.unravel_index(p, self.lattice.shape)
        z = tuple(zk[p] for zk in self.lattice.z)
        for k, (ps, tl, W) in enumerate(zip(self.sets, self.lattice.teams, self._W)):
            for i, gamma in enumerate(ps.items):
                dist = team_transition_kernel(tl.counts[idx[k]], z, gamma, self.spec, k)
                W[p, i, [tl.index[cv.counts] for cv in dist.support]] = dist.probs
        self._filled[p] = True

    def matrix(self, k: int, z: MeanField) -> np.ndarray:
        """(menu size, lattice size) stack of team k's kernels at z."""
        lat = self.lattice
        flatten_mean_field(self.spec, z)
        idx = [tl.index[tuple(count_point(v, tl.population, j))]
               for j, (v, tl) in enumerate(zip(getattr(z, "per_team", z), lat.teams))]
        p = int(np.ravel_multi_index(idx, lat.shape))
        return self.stacks([p])[k][p]

    def vector(self, k: int, z: MeanField, presc_idx: int) -> np.ndarray:
        return self.matrix(k, z)[presc_idx]


@dataclass(frozen=True)
class ContinuationTable:
    """Next-stage values on the joint count lattice: values[k, i_1, ..., i_K]
    with per-team lattice indices i_k."""
    lattices: tuple
    values: np.ndarray = field(repr=False)


def build_stage_game(z: MeanField, t: int, continuation, sets, spec: GameSpec,
                     kernel_cache: KernelCache = None) -> StageGame:
    """Cost tensors at mean-field point z and stage t.

    tensor_k[joint index] = stage_cost(z, menu_k[i_k])
                            + E[continuation_k(next counts)],
    the expectation taken under the exact joint kernel (product across
    teams). ``continuation`` is None (terminal stage), a ContinuationTable
    (the solvers' batched engine at a single point), or a callable mapping
    a JointCount to a length-K value sequence (exact summation over the
    materialized joint support, the reference the engine is tested
    against; small instances only).
    """
    K = spec.n_teams
    flatten_mean_field(spec, z)
    shape = tuple(len(ps) for ps in sets)
    if continuation is None or isinstance(continuation, ContinuationTable):
        Z = [v[None] for v in getattr(z, "per_team", z)]
        own = [_cost_table(spec, k, sets[k], Z, t) for k in range(K)]
        cont = None
        if continuation is not None:
            cache = kernel_cache or KernelCache(spec, sets)
            cont = _contract([cache.matrix(k, z)[None] for k in range(K)], continuation.values)
        tensors = _stage_tensors(own, cont, shape)
        return StageGame(tensors=tuple(T[0] for T in tensors), sets=tuple(sets))

    from .counts import JointCount, CountVector
    own_cost = [np.array([stage_cost(z, p, spec, k, t) for p in sets[k].items])
                for k in range(K)]
    dists = {}
    for k in range(K):
        m = np.rint(z.per_team[k] * spec.teams[k].population).astype(int)
        for i, p in enumerate(sets[k].items):
            dists[(k, i)] = team_transition_kernel(m, z, p, spec, k)
    tensors = [np.zeros(shape) for _ in range(K)]
    for profile in np.ndindex(shape):
        per = [dists[(k, profile[k])] for k in range(K)]
        acc = np.zeros(K)
        for combo in itertools.product(*(range(len(d)) for d in per)):
            pr = 1.0
            for k in range(K):
                pr *= per[k].probs[combo[k]]
            jc = JointCount(per_team=tuple(
                CountVector(team_id=k, counts=per[k].support[combo[k]].counts)
                for k in range(K)))
            acc += pr * np.asarray(continuation(jc), dtype=float)
        for k in range(K):
            tensors[k][profile] = own_cost[k][profile[k]] + acc[k]
    return StageGame(tensors=tuple(tensors), sets=tuple(sets))


# ---------------------------------------------------------------------------
# the backward-induction engine, batched over P joint points; the finite and
# limit solvers differ only in the next-state operator (kernel stacks
# W_k[P, n_k, L_k] against a gather at projected flow images)

def _cost_table(spec: GameSpec, k: int, ps: PrescriptionSet, Z, t: int) -> np.ndarray:
    """(P, menu size) own stage cost of team k at the joint points Z: the
    closed form of counts.stage_cost, sum_s z_k(s) sum_a gamma(a|s) c_t(s, a, z)."""
    tm = spec.teams[k]
    C = tm.cost_base[t] + np.einsum("sad,pd->psa", tm.cost_coupling[t],
                                    np.concatenate(Z, axis=1))
    return np.einsum("ps,isa,psa->pi", Z[k], ps.rows_stack(), C)


def _contract(Ws, V) -> np.ndarray:
    """sum_n prod_k W_k[p, i_k, n_k] V[..., n_1, ..., n_K] as a
    (..., P, m_1, ..., m_K) array, each W_k being (P, m_k, L_k).

    Raw kernel stacks give the continuation part of the stage tensors;
    kernels averaged under a policy's mixtures (m_k = 1) give its expected
    next value; averaging every team but one gives that team's
    best-response step."""
    K = len(Ws)
    operands = []
    for k, W in enumerate(Ws):
        operands += [W, [2 * K, k, K + k]]
    return np.einsum(*operands, V, [Ellipsis] + list(range(K, 2 * K)),
                     [Ellipsis, 2 * K] + list(range(K)), optimize=True)


def _on_axis(a, k: int, K: int) -> np.ndarray:
    """(P, n) array as (P, 1, ..., n, ..., 1) with n on team k's axis."""
    return np.expand_dims(a, tuple(j + 1 for j in range(K) if j != k))


def _stage_tensors(own, cont, shape) -> list:
    """Per-team (P, *shape) stage-game tensors: own cost table (P, n_k)
    along team k's axis plus the expected continuation (None: terminal)."""
    K = len(own)
    return [_on_axis(c, k, K) + (np.zeros((len(c),) + tuple(shape)) if cont is None
                                 else cont[k]) for k, c in enumerate(own)]


def _backward(spec: GameSpec, sets, Z, points_shape, label, continuation,
              pure_only: bool):
    """Backward induction over stages T-1 .. 0 at the joint points Z (C
    order of ``points_shape``): own cost tables, ``continuation`` of the
    next values (K, *points_shape) as (K, P, *menu shape), stage tensors,
    then solve_stage at every point; ``label(idx)`` names a point.

    Returns the per-stage object arrays of equilibria and the per-team
    equilibrium values (T, K, *points_shape)."""
    T, K = spec.horizon, spec.n_teams
    shape = tuple(len(ps) for ps in sets)
    values = np.zeros((T + 1, K) + tuple(points_shape))
    stages = [None] * T
    for t in range(T - 1, -1, -1):
        own = [_cost_table(spec, k, sets[k], Z, t) for k in range(K)]
        tensors = _stage_tensors(own, None if t == T - 1 else continuation(values[t + 1]),
                                 shape)
        stages[t] = np.empty(points_shape, dtype=object)
        for p, idx in enumerate(np.ndindex(points_shape)):
            game = StageGame(tensors=tuple(X[p] for X in tensors), sets=tuple(sets))
            eq = stages[t][idx] = solve_stage(game, t, label(idx), pure_only=pure_only)
            values[(t, slice(None)) + idx] = equilibrium_values(game, eq)
    return stages, values[:T]


# ---------------------------------------------------------------------------
# solvers

def pure_nash(game: StageGame) -> list:
    """All joint indices from which no team can strictly lower its own
    cost unilaterally (strict tolerance 1e-12), lexicographic order."""
    mask = np.ones(game.shape, dtype=bool)
    for k, T in enumerate(game.tensors):
        mask &= T <= T.min(axis=k, keepdims=True) + PURE_TOL
    return [tuple(int(i) for i in idx) for idx in np.argwhere(mask)]


def certify_epsilon(game: StageGame, eq: StageEquilibrium) -> float:
    """Exact maximal unilateral gain of eq, recomputed from the tensors."""
    weights = eq.weights(game.shape)
    eps = 0.0
    for k, T in enumerate(game.tensors):
        e = _own_cost_vector(T, weights, k)
        eps = max(eps, float(weights[k] @ e - e.min()))
    return max(eps, 0.0)


def equilibrium_values(game: StageGame, eq: StageEquilibrium) -> np.ndarray:
    """Per-team expected cost under the (possibly mixed) profile."""
    weights = eq.weights(game.shape)
    out = np.empty(game.n_teams)
    for k, T in enumerate(game.tensors):
        out[k] = weights[k] @ _own_cost_vector(T, weights, k)
    return out


def _own_cost_vector(tensor: np.ndarray, weights, k: int) -> np.ndarray:
    """Expected cost of team k per own index, others at their mixtures.

    Contracts the highest axis first so remaining axis positions stay put.
    """
    X = tensor
    for j in range(len(weights) - 1, -1, -1):
        if j == k:
            continue
        X = np.tensordot(X, weights[j], axes=(j, 0))
    return X


def mixed_nash_2team(game: StageGame) -> StageEquilibrium:
    """Support enumeration for two-team games.

    Candidate supports are scanned smallest total size first (then row
    size, then lexicographic); each candidate's indifference system is
    solved by least squares and the resulting profile is kept only if its
    exactly recomputed epsilon is at most 1e-9. Supports hold at most
    DEFAULT_SUPPORT_BOUND indices per team.
    """
    if game.n_teams != 2:
        raise SpecValidationError("support enumeration needs exactly 2 teams")
    A, B = game.tensors
    n1, n2 = game.shape
    combos = []
    for r in range(1, min(n1, DEFAULT_SUPPORT_BOUND) + 1):
        for c in range(1, min(n2, DEFAULT_SUPPORT_BOUND) + 1):
            for R in itertools.combinations(range(n1), r):
                for C in itertools.combinations(range(n2), c):
                    combos.append((r + c, r, c, R, C))
    combos.sort()
    for _, r, c, R, C in combos:
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
        cand = StageEquilibrium(kind="mixed", per_team=(x, y), epsilon=0.0)
        eps = certify_epsilon(game, cand)
        if eps <= CERT_TOL:
            if r == 1 and c == 1:
                return StageEquilibrium(kind="pure", per_team=(R[0], C[0]), epsilon=eps)
            return StageEquilibrium(kind="mixed", per_team=(x, y), epsilon=eps)
    raise EquilibriumNotFoundError(
        "no equilibrium with supports of size <= %d certified" % DEFAULT_SUPPORT_BOUND)


def _indifference_solve(M: np.ndarray, size: int):
    """Mixture on the columns of M making all rows equal in expectation.

    Solves [M, -1; 1, 0] [y; v] = [0; 1] by least squares; returns None
    when the system is inconsistent or the mixture leaves the simplex.
    """
    rows = M.shape[0]
    lhs = np.zeros((rows + 1, size + 1))
    lhs[:rows, :size] = M
    lhs[:rows, size] = -1.0
    lhs[rows, :size] = 1.0
    rhs = np.zeros(rows + 1)
    rhs[rows] = 1.0
    sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    y = sol[:size]
    if np.any(y < -1e-9) or abs(y.sum() - 1.0) > 1e-9:
        return None
    if np.max(np.abs(lhs @ sol - rhs)) > 1e-9:
        return None
    y = np.maximum(y, 0.0)
    return y / y.sum()


def br_iteration(game: StageGame, max_iters: int = 200,
                 tol: float = CERT_TOL) -> StageEquilibrium:
    """Damped fictitious play over menu indices.

    Tracks every visited profile (the running mixtures and each round's
    pure best-response profile) with its exactly certified epsilon and
    returns the best one; epsilon is reported honestly even when it never
    reaches tol.
    """
    K = game.n_teams
    shape = game.shape
    weights = [np.full(n, 1.0 / n) for n in shape]
    best = None     # (epsilon, preference, order, equilibrium)
    order = 0

    def consider(eq):
        nonlocal best, order
        eps = certify_epsilon(game, eq)
        eq = StageEquilibrium(kind=eq.kind, per_team=eq.per_team, epsilon=eps)
        rank = (eps, 0 if eq.kind == "pure" else 1, order)
        order += 1
        if best is None or rank < best[0:3]:
            best = (eps, rank[1], rank[2], eq)

    for it in range(1, max_iters + 1):
        brs = []
        for k in range(K):
            e = _own_cost_vector(game.tensors[k], weights, k)
            brs.append(int(np.argmin(e)))
        consider(StageEquilibrium(kind="pure", per_team=tuple(brs), epsilon=0.0))
        consider(StageEquilibrium(kind="mixed",
                                  per_team=tuple(w.copy() for w in weights), epsilon=0.0))
        if best[0] <= tol:
            break
        alpha = 1.0 / (it + 1.0)
        for k in range(K):
            weights[k] *= (1.0 - alpha)
            weights[k][brs[k]] += alpha
    return best[3]


def solve_stage(game: StageGame, t: int, z_label, pure_only: bool = False) -> StageEquilibrium:
    """One-stop solve used by the backward inductions: pure enumeration
    first, then support enumeration for two teams, then fictitious play.
    pure_only fails loudly instead of falling back. pure_nash lists
    lexicographically, which is select_equilibrium's order among pure
    equilibria, so the first one is the selected one."""
    from .errors import NoPureEquilibriumError
    pure = pure_nash(game)
    if pure:
        eq = StageEquilibrium(kind="pure", per_team=pure[0], epsilon=0.0)
        return StageEquilibrium(kind="pure", per_team=pure[0],
                                epsilon=certify_epsilon(game, eq))
    if pure_only:
        raise NoPureEquilibriumError(t, z_label)
    if game.n_teams == 2:
        try:
            return mixed_nash_2team(game)
        except EquilibriumNotFoundError:
            pass
    return br_iteration(game)


def select_equilibrium(candidates) -> StageEquilibrium:
    """Deterministic choice among solved equilibria: pure before mixed;
    among pure the lexicographically smallest joint index; among mixed the
    smallest support profile, then lexicographic support indices."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("select_equilibrium: empty candidate list")

    def key(ieq):
        i, eq = ieq
        if eq.kind == "pure":
            return (0, eq.per_team, (), i)
        supports = tuple(tuple(int(j) for j in np.flatnonzero(v > 1e-12))
                         for v in eq.per_team)
        return (1, (sum(len(s) for s in supports),), supports, i)

    return min(enumerate(candidates), key=key)[1]
