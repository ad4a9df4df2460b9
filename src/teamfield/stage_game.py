"""One-shot games over prescriptions.

At every mean-field point of the backward induction the K team
coordinators face a finite simultaneous-move game: each picks a
prescription from a finite menu, pays its own stage cost plus the
expected continuation value under the induced joint count kernel. This
module builds those menus and cost tensors and solves the game (pure
enumeration, batched over every point of a stage; Lemke–Howson over the
distinct menu items for two teams; damped fictitious play as the
always-terminating fallback).

A solution has one format: the solvers return the row (mixed, epsilon,
per-team mixtures) that the backward driver records, with its per-team
values (``StageEquilibrium``), from ``certify_epsilon``'s own-cost pass.

The prescription simplex is continuous in principle; menus here are
either all deterministic state-to-action maps ("pure") or all maps with
rows on a 1/g grid ("gridded"). Refining g trades computation for
fidelity.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (CapacityError, EquilibriumNotFoundError, NoPureEquilibriumError,
                     SpecValidationError)
from .counts import (JointLattice, MeanField, Prescription, _count_laws, _joint_points,
                     _mixture_rows, count_point, enumerate_counts)
from .model import (GameSpec, _count, _per_team_simplex, _team_rows, cost_matrix,
                    flatten_mean_field)

PURE_TOL = 1e-12      # strict-improvement tolerance for pure deviations
CERT_TOL = 1e-9       # certified-equilibrium acceptance threshold
DEFAULT_PRESCRIPTION_CAP = 10 ** 5
PIVOT_CAP = 1000       # Lemke–Howson pivots per path before the next label is tried
PIVOT_TOL = 1e-12      # Lemke–Howson pivot entries and ratio gaps below this count as zero
MAX_STORE_BYTES = 1 << 30     # largest kernel store, or one stage's game tensors, of a run
STORE_BLOCK_ENTRIES = 1 << 20  # (rows, lattice) entries per block of the store build


@dataclass(frozen=True, eq=False)
class PrescriptionSet:
    """Ordered finite menu of prescriptions for one team."""
    items: tuple

    def __len__(self):
        return len(self.items)

    def rows_stack(self):
        """The items' rows as one read-only (n, S, A) array, stacked once."""
        return self._rows

    @functools.cached_property
    def _rows(self):
        rows = np.stack([p.rows for p in self.items])
        rows.setflags(write=False)
        return rows


def build_prescription_set(spec: GameSpec, k: int, g: int = None) -> PrescriptionSet:
    """Menu for team k, of at most DEFAULT_PRESCRIPTION_CAP items.

    g >= 1: every map whose rows have entries that are multiples of 1/g
    (C(g+|A|-1, |A|-1)^|S| items, rows cycling fastest in the last state).
    g None is the g = 1 grid: all deterministic maps, ordered
    lexicographically by the tuple of chosen action indices (|A|^|S| items).
    """
    tm = spec.teams[k]
    S, A = tm.n_states, tm.n_actions
    kind, g = ("pure", 1) if g is None else ("gridded", g)
    if g < 1:
        raise SpecValidationError("gridded menus need a grid resolution g >= 1")
    row_menu = [np.array(v, dtype=float) / g for v in enumerate_counts(g, A)]
    size = len(row_menu) ** S
    if size > DEFAULT_PRESCRIPTION_CAP:
        raise CapacityError("%s prescription set for team %d has %d items, cap %d"
                            % (kind, k, size, DEFAULT_PRESCRIPTION_CAP))
    return PrescriptionSet(items=tuple(Prescription(rows=np.stack(combo))
                                       for combo in itertools.product(row_menu, repeat=S)))


@dataclass(frozen=True, eq=False)
class StageGame:
    """Cost tensors over joint prescription indices, one per team."""
    tensors: tuple

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


class StageEquilibrium(NamedTuple):
    """Solution of one stage game: the fields of its stage record (epsilon
    is the certified maximal unilateral gain, the weights are per-team
    mixtures, one-hot when pure) and the per-team expected costs."""
    mixed: bool
    epsilon: float
    weights: tuple
    values: np.ndarray


class KernelCache:
    """The one store of per-team next-count kernels of a count lattice.

    Kernels do not depend on the stage, so the store that ``solve_mpe`` or
    ``project_policy_to_lattice`` builds, and the policy it returns keeps,
    serves the solver, the certificate and the cost evaluation; criterion 2
    and the engine oracle check them. Team k's are a dense read-only stack
    W_k[point, menu item, L_k] over the C-order points of ``lattice``,
    built whole by ``counts._count_laws`` on the first ``stacks`` call.
    """

    def __init__(self, spec: GameSpec, sets):
        self.spec = spec
        self.sets = sets
        self.lattice = JointLattice(spec)
        self._W = None

    def stacks(self) -> list:
        """Per-team read-only stacks W_k over every joint point, built in
        blocks of points whose (rows, lattice) arrays stay near
        STORE_BLOCK_ENTRIES entries."""
        if self._W is None:
            lat = self.lattice
            size = 8 * len(lat) * sum(len(ps) * len(tl) for ps, tl in zip(self.sets, lat.teams))
            if size > MAX_STORE_BYTES:
                raise CapacityError("kernel store needs %d bytes, cap is %d"
                                    % (size, MAX_STORE_BYTES))
            zf = np.concatenate(lat.z, axis=1)
            counts = _joint_points([tl.counts for tl in lat.teams])
            self._W = []
            for k, (ps, tl, m) in enumerate(zip(self.sets, lat.teams, counts)):
                n, L, R = len(ps), len(tl), ps.rows_stack()
                W = np.empty((len(lat), n, L))
                step = max(1, STORE_BLOCK_ENTRIES // (n * L))
                for lo in range(0, len(lat), step):
                    mix = _mixture_rows(self.spec, k, zf[lo:lo + step], R)
                    law = _count_laws(mix.reshape((-1,) + mix.shape[2:]),
                                      np.repeat(m[lo:lo + step], n, axis=0))
                    W[lo:lo + step] = law.reshape(-1, n, L)
                W.setflags(write=False)
                self._W.append(W)
        return list(self._W)

    def matrix(self, k: int, z: MeanField) -> np.ndarray:
        """(menu size, lattice size) stack of team k's kernels at z."""
        lat = self.lattice
        flatten_mean_field(self.spec, z)
        idx = [tl.rank(count_point(v, tl.population, j))
               for j, (v, tl) in enumerate(zip(getattr(z, "per_team", z), lat.teams))]
        return self.stacks()[k][np.ravel_multi_index(idx, lat.shape)]

    def vector(self, k: int, z: MeanField, presc_idx: int) -> np.ndarray:
        return self.matrix(k, z)[presc_idx]


# ---------------------------------------------------------------------------
# the backward-induction engine, batched over P joint points; the finite and
# limit solvers differ only in the next-state operator (kernel stacks
# W_k[P, n_k, L_k] against a gather at projected flow images)

def _cost_table(spec: GameSpec, k: int, ps: PrescriptionSet, Z, t: int) -> np.ndarray:
    """(P, menu size) own stage cost of team k at the joint points Z, in
    closed form: sum_s z_k(s) sum_a gamma(a|s) c_t(s, a, z), its terms
    (z(s) gamma(a|s)) c_t(s, a, z) added in a fixed order (actions
    fastest, then states) by elementwise ufuncs like ``model._flow``:
    batch-invariant, within 1e-12 of the einsum form. The sums run on a
    (menu size, P) array, the points on the long inner axis, which is
    copied to (P, menu size) order at the end."""
    C = cost_matrix(spec, k, t, np.concatenate(Z, axis=1))
    R = _team_rows(spec, k, ps.rows_stack())
    out = np.zeros((len(R), len(C)))
    term = np.empty_like(out)
    for z, rows, costs in zip(Z[k].T, R.transpose(1, 2, 0)[..., None], C.transpose(1, 2, 0)):
        for r, c in zip(rows, costs):
            np.multiply(r, z, out=term)
            term *= c
            out += term
    return np.ascontiguousarray(out.T)


def _contract(Ws, V) -> np.ndarray:
    """sum_n prod_k W_k[p, i_k, n_k] V[..., n_1, ..., n_K] as a
    (..., P, m_1, ..., m_K) array, each W_k being (P, m_k, L_k).

    Raw kernel stacks give the continuation part of the stage tensors;
    kernels averaged under a policy's mixtures (m_k = 1) give its expected
    next value; averaging every team but one gives that team's
    best-response step. One np.matmul per team, the last first, with the
    points on a batch axis: a point's bits do not depend on the other
    points, which run in blocks of about STORE_BLOCK_ENTRIES entries."""
    K, P = len(Ws), len(Ws[0])
    lead, Ls, menus = V.shape[:-K], V.shape[-K:], tuple(W.shape[1] for W in Ws)
    step = max(1, STORE_BLOCK_ENTRIES // math.prod(lead) // max(
        math.prod(Ls[:k] + menus[k:]) for k in range(K)))
    out = np.empty((math.prod(lead), P, math.prod(menus))) if step < P else None
    for lo in range(0, P, step):
        X = np.matmul(V.reshape(-1, 1, math.prod(Ls[:-1]), Ls[-1]),
                      Ws[-1][lo:lo + step].transpose(0, 2, 1))
        for k in range(K - 2, -1, -1):     # onto the (L_k, m_>k) matrix of each (p, n_<k)
            X = np.matmul(Ws[k][lo:lo + step, None],
                          X.reshape(X.shape[:2] + (-1, Ls[k], X.shape[-1])))
            X = X.reshape(X.shape[:3] + (-1,))
        if out is None:
            return X.reshape(lead + (P,) + menus)
        out[:, lo:lo + step] = X.reshape(len(X), -1, out.shape[-1])
    return out.reshape(lead + (P,) + menus)


def _on_axis(a, k: int, K: int) -> np.ndarray:
    """(P, n) array as (P, 1, ..., n, ..., 1) with n on team k's axis."""
    return np.expand_dims(a, tuple(j + 1 for j in range(K) if j != k))


def _stage_tensors(own, cont, shape) -> list:
    """Per-team (P, *shape) stage-game tensors: own cost table (P, n_k)
    along team k's axis plus the expected continuation (None: terminal)."""
    K = len(own)
    return [_on_axis(c, k, K) + (np.zeros((len(c),) + tuple(shape)) if cont is None
                                 else cont[k]) for k, c in enumerate(own)]


def _backward(spec: GameSpec, sets, lattice: JointLattice, continuation, pure_only: bool):
    """Backward induction over stages T-1 .. 0 at the points of
    ``lattice`` (C order): own cost tables, ``continuation`` of the next
    values (K, *lattice shape) as (K, P, *menu shape), stage tensors, then
    ``_solve_points``. A stage's K tensors (P, *menu shape) and the
    (K, P, *menu shape) continuation alive with them take 16 K P prod_k n_k
    bytes; above MAX_STORE_BYTES this raises CapacityError before the first
    stage.

    Returns the per-stage record arrays of equilibria and the per-team
    equilibrium values (T, K, *lattice shape)."""
    T, K = spec.horizon, spec.n_teams
    shape = tuple(len(ps) for ps in sets)
    size = 16 * K * len(lattice) * math.prod(shape)
    if size > MAX_STORE_BYTES:
        raise CapacityError("stage games need %d bytes per stage, cap is %d"
                            % (size, MAX_STORE_BYTES))
    values = np.zeros((T + 1, K) + lattice.shape)
    stages = [None] * T
    for t in range(T - 1, -1, -1):
        own = [_cost_table(spec, k, sets[k], lattice.z, t) for k in range(K)]
        tensors = _stage_tensors(own, None if t == T - 1 else continuation(values[t + 1]),
                                 shape)
        stages[t], values[t] = _solve_points(tensors, t, lattice, pure_only)
    return stages, values[:T]


def _solve_points(tensors, t: int, lattice, pure_only: bool):
    """Equilibria (record array over ``lattice.shape``) and per-team values
    (K, *lattice.shape) of the stage games in the per-team tensors
    (P, *menu shape), P points in C order.

    One pure pass covers every point: the lexicographically first pure
    profile with its epsilon and values read by indexing. solve_stage
    runs only at the points without one, in C order; under pure_only the
    first such point raises NoPureEquilibriumError instead, naming it
    by its ``lattice.ids`` entry (read only then: a solve builds no names)."""
    if not all(np.isfinite(X).all() for X in tensors):
        raise SpecValidationError("stage game tensor has non-finite entries")
    has, profiles = _first_pure(tensors)
    pure = np.flatnonzero(has)
    eps, vals = _pure_certificate(tensors, pure, profiles[pure])
    st = np.zeros(len(has), dtype=[("mixed", bool), ("epsilon", float)] + [
        ("w%d" % k, float, (n,)) for k, n in enumerate(tensors[0].shape[1:])]).view(np.recarray)
    st.epsilon[pure] = eps
    for k, item in enumerate(profiles[pure].T):
        st["w%d" % k][pure, item] = 1.0
    values = np.empty((len(tensors), len(has)))
    values[:, pure] = vals
    for p in np.flatnonzero(~has):
        if pure_only:
            raise NoPureEquilibriumError(t, lattice.ids[p])
        eq = solve_stage(StageGame(tensors=tuple(X[p] for X in tensors)))
        st[p] = (eq.mixed, eq.epsilon, *eq.weights)
        values[:, p] = eq.values
    return st.reshape(lattice.shape), values.reshape((len(tensors),) + tuple(lattice.shape))


# ---------------------------------------------------------------------------
# solvers

def _pure_mask(tensors) -> np.ndarray:
    """(P, *menu shape) mask of the joint indices from which no team can
    strictly lower its own cost unilaterally (strict tolerance PURE_TOL),
    for per-team tensors of shape (P, *menu shape)."""
    mask = np.ones(tensors[0].shape, dtype=bool)
    for k, T in enumerate(tensors):
        mask &= T <= T.min(axis=k + 1, keepdims=True) + PURE_TOL
    return mask


def _first_pure(tensors):
    """Per point of (P, *menu shape) tensors: whether a pure equilibrium
    exists (P,) and the lexicographically first one (P, K) (rows without
    one are 0)."""
    mask = _pure_mask(tensors).reshape(len(tensors[0]), -1)
    first = np.unravel_index(mask.argmax(axis=1), tensors[0].shape[1:])
    return mask.any(axis=1), np.stack(first, axis=1)


def _pure_certificate(tensors, points, profiles):
    """certify_epsilon's epsilon (len(points),) and values (K, len(points))
    of the pure profiles (len(points), K) at the given points of
    (P, *menu shape) tensors, read by indexing: with one-hot weights the
    contractions pick single entries (+ 0.0: a one-hot dot product never
    returns -0.0)."""
    K = len(tensors)
    at = (np.asarray(points),) + tuple(np.asarray(profiles, dtype=np.intp).T)
    vals = np.array([T[at] + 0.0 for T in tensors]).reshape(K, -1)
    gains = [vals[k] - T[at[:k + 1] + (slice(None),) + at[k + 2:]].min(axis=-1)
             for k, T in enumerate(tensors)]
    return np.max(gains, axis=0), vals


def _one_hot(shape, profile) -> tuple:
    """Per-team mixtures that put all mass on the pure profile's items."""
    return tuple(np.eye(1, n, i)[0] for n, i in zip(shape, profile))


def certify_epsilon(game: StageGame, weights) -> tuple:
    """Exact maximal unilateral gain of the per-team mixtures ``weights``
    and each team's expected cost under them (K,), from one own-cost
    contraction per team of the tensors. Weights that are not one mixture
    per team over its menu (at model.SIMPLEX_TOL) raise SpecValidationError."""
    weights = _per_team_simplex(weights, game.shape, "stage game weights")
    own = [_run_plan(_contraction_plan(T, k), weights) for k, T in enumerate(game.tensors)]
    values = [w @ e for w, e in zip(weights, own)]
    # the argmin entry is the minimum up to the sign of zero, which cannot
    # change eps: it starts at +0.0 and is replaced only by a larger gain
    eps = max([0.0] + [float(v - e[e.argmin()]) for v, e in zip(values, own)])
    return eps, np.array(values)


def _contraction_plan(tensor: np.ndarray, k: int):
    """Team k's own-cost contraction of ``tensor`` as steps run by _run_plan.

    The highest other axis goes first so remaining axis positions stay
    put, each step by the same np.dot call that np.tensordot makes. A
    step is (matrix, team whose weights it takes, out= buffer, copy):
    the matrix is the (transposed) reshape that np.dot gets, a view of
    the previous step's buffer where numpy makes one (the layout picks
    the BLAS path, so an F-ordered view stays one) and otherwise a fixed
    C-ordered buffer that copy = (dst, src) refills before the step.
    Returns the steps and the view of the last buffer that holds the
    result (the tensor itself for one team)."""
    steps, X = [], tensor
    for j in range(tensor.ndim - 1, -1, -1):
        if j == k:
            continue
        others = [i for i in range(X.ndim) if i != j]
        moved = X.transpose(others + [j])
        mat, copy = moved.reshape(-1, X.shape[j]), None
        if steps and not np.may_share_memory(mat, X):
            copy = (mat.reshape(moved.shape), moved)
        out = np.empty((len(mat), 1))
        steps.append((mat, j, out, copy))
        X = out.reshape([X.shape[i] for i in others])
    return steps, X


def _run_plan(plan, weights) -> np.ndarray:
    """Own-cost vector of a _contraction_plan against the mixtures
    ``weights``, written into the plan's buffers."""
    steps, result = plan
    for mat, j, out, copy in steps:
        if copy is not None:
            np.copyto(*copy)
        np.dot(mat, weights[j][:, None], out=out)
    return result


def mixed_nash_2team(game: StageGame) -> StageEquilibrium:
    """Lemke–Howson for two-team games (Lemke and Howson 1964), in the
    tableau form of von Stengel (Handbook of Game Theory vol. 3, 2002).

    Copies collapse first: an item whose row of [A | B] (team 0) or
    [A.T | B.T] (team 1) repeats an earlier item's is dropped, so paths run
    on the m x n game of first items. Label i < m is team 0's item i,
    label m + j team 1's item j; labels 0, 1, ... are dropped in turn, and
    a path that has not ended after PIVOT_CAP pivots (paths can be
    exponentially long, and a degenerate one can cycle in floating point)
    is given up. The end of the first path whose profile, scattered to
    full length with each copy's weight on its first item (a copy of a
    best reply is one), certify_epsilon accepts at CERT_TOL is returned,
    mixed when its supports hold more than two items in all;
    EquilibriumNotFoundError is raised only when no label certifies."""
    if game.n_teams != 2:
        raise SpecValidationError("Lemke–Howson needs exactly 2 teams")
    A, B = game.tensors
    rows, cols = _first_items(np.hstack([A, B])), _first_items(np.hstack([A.T, B.T]))
    m, n = len(rows), len(cols)
    # payoffs in [1, 2] by a positive affine map per team, which keeps every
    # best reply and makes PIVOT_TOL scale-free; team 1's tableau
    # [B.T | I | 1] holds x (labels 0..m-1) and its slacks (labels m..),
    # team 0's [I | A | 1] its slacks (labels 0..m-1) and y
    P, Q = ((C.max() - C) / ((C.max() - C.min()) or 1.0) + 1.0
            for C in (A[np.ix_(rows, cols)], B[np.ix_(rows, cols)]))
    start = [np.hstack([Q.T, np.eye(n), np.ones((n, 1))]),
             np.hstack([np.eye(m), P, np.ones((m, 1))])]
    for label in range(m + n):
        end = _lemke_howson_path([T.copy() for T in start], m, label)
        if end is None:
            continue
        x, y = np.zeros(len(A)), np.zeros(len(A.T))
        x[rows], y[cols] = end
        eps, values = certify_epsilon(game, (x, y))
        if eps <= CERT_TOL:
            mixed = np.count_nonzero(x) + np.count_nonzero(y) > 2
            return StageEquilibrium(bool(mixed), eps, (x, y), values)
    raise EquilibriumNotFoundError("no Lemke–Howson path ended in a certified equilibrium")


def _first_items(M: np.ndarray) -> np.ndarray:
    """Increasing indices of the rows of M that repeat no earlier row
    bitwise, from one pass keyed by their bytes."""
    first = {}
    for i, row in enumerate(M):
        first.setdefault(row.tobytes(), i)
    return np.fromiter(first.values(), dtype=np.intp)


def _lemke_howson_path(tableaux, m: int, label: int):
    """The (x, y) mixtures at the end of the Lemke–Howson path that drops
    ``label``, pivoting in place on the two tableaux (columns: the labels,
    then the rhs), or None after PIVOT_CAP pivots. The leaving row is the
    lexicographic minimum of [rhs | B^-1] / pivot column over the rows
    whose pivot entry is above PIVOT_TOL: the rhs ratio first, its ties
    (within PIVOT_TOL) broken by the slack columns (B^-1) in label order."""
    n = len(tableaux[0])
    bases = [np.arange(m, m + n), np.arange(m)]
    lex = [[-1, *range(m, m + n)], [-1, *range(m)]]
    side, entering = int(label >= m), label
    for _ in range(PIVOT_CAP):
        T, basis = tableaux[side], bases[side]
        col = T[:, entering]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if not len(rows):     # no positive entry: rounding broke the path
            return None
        for j in lex[side]:
            ratio = T[rows, j] / col[rows]
            rows = rows[ratio <= ratio.min() + PIVOT_TOL]
            if len(rows) == 1:
                break
        pivot = T[rows[0]] / col[rows[0]]
        T -= col[:, None] * pivot
        T[rows[0]] = pivot
        leaving, basis[rows[0]] = basis[rows[0]], entering
        if leaving == label:     # each basis holds distinct labels
            x, y = (np.bincount(b, np.maximum(T[:, -1], 0.0), m + n)
                    for T, b in zip(tableaux, bases))
            return x[:m] / x[:m].sum(), y[m:] / y[m:].sum()
        side, entering = 1 - side, leaving
    return None


def br_iteration(game: StageGame, max_iters: int = 200) -> StageEquilibrium:
    """Damped fictitious play over menu indices.

    Round r plays best replies to row r of the weight history hist[k]
    (uniform at row 0; row r + 1 is row r times 1 - alpha plus alpha on
    the best reply, alpha = 1 / (r + 2)). Of each round's pure best-reply
    profile, then running mixtures, the first visited profile with the
    smallest epsilon is kept, pure before mixed at equal epsilon; play
    stops at the first round where that epsilon is at most CERT_TOL, and
    reports it honestly when it never gets there. A round runs only the
    contraction plan of each team (built once per game; its last np.dot
    writes the round's row of a +inf padded own-cost history), one argmin
    over that row into the reply history and the weight update. Rounds
    run in blocks doubling in length (1, 2, 4, ...); a block certifies
    its mixtures from the own-cost history, reads its pure profiles'
    epsilons from a table of every joint profile's (built once per game),
    and picks its best profile up to its first round at or below
    CERT_TOL: a game certified at round r plays fewer than 2r rounds, and
    the result is bitwise that of certifying round by round with
    certify_epsilon. The histories and the table take 8 ((max_iters + 1)
    sum_k n_k + max_iters K max_k n_k + prod_k n_k) bytes; above
    MAX_STORE_BYTES this raises CapacityError before they are allocated.
    """
    max_iters = _count(max_iters, "max_iters")
    K, shape = game.n_teams, game.shape
    cuts = np.cumsum((0,) + shape).tolist()
    size = 8 * ((max_iters + 1) * cuts[-1] + max_iters * K * max(shape) + math.prod(shape))
    if size > MAX_STORE_BYTES:
        raise CapacityError("fictitious play histories need %d bytes, cap is %d"
                            % (size, MAX_STORE_BYTES))
    # the weight histories side by side, rows of (n_k, 1) slices: np.dot
    # takes real slices (a zero-stride axis can leave its BLAS path)
    whole = np.empty((max_iters + 1, cuts[-1], 1))
    flat = whole[..., 0]
    flat[0] = np.repeat(1.0 / np.array(shape), shape)
    hist = [whole[:, a:b] for a, b in zip(cuts, cuts[1:])]
    costs = np.full((max_iters, K, max(shape), 1), np.inf)
    cost_rows = costs[..., 0]
    own = [costs[:, k, :n] for k, n in enumerate(shape)]
    if K == 1:
        own[0][...] = game.tensors[0][:, None]
    # _pure_certificate's epsilon of every pure profile (a gain is never -0.0)
    pure_eps = np.zeros(shape)
    for k, T in enumerate(game.tensors):
        np.maximum(pure_eps, T - T.min(axis=k, keepdims=True), out=pure_eps)
    plans = [_contraction_plan(T, k) for k, T in enumerate(game.tensors)]
    # a plan's first step reads a fixed matrix and its last, a 2-D view,
    # writes own[k][r]; only the middle steps (K >= 4) may refill a copy
    firsts = [(p[0][0], hist[p[0][1]], p[0][2]) for p, _ in plans if len(p) > 1]
    middles = [(m, hist[j], out, c) for p, _ in plans for m, j, out, c in p[1:-1]]
    lasts = [(p[-1][0], hist[p[-1][1]], own[k]) for k, (p, _) in enumerate(plans) if p]
    brs = np.empty((max_iters, K), dtype=np.intp)
    best, start = None, 0     # best: (epsilon, 0 for pure or 1 for mixed, round)
    while best is None or (best[0] > CERT_TOL and start < max_iters):
        stop = min(2 * start + 1, max_iters)
        for r in range(start, stop):
            for mat, w, out in firsts:
                np.dot(mat, w[r], out=out)
            for mat, w, out, copy in middles:
                if copy is not None:
                    np.copyto(*copy)
                np.dot(mat, w[r], out=out)
            for mat, w, out in lasts:
                np.dot(mat, w[r], out=out[r])
            cost_rows[r].argmin(axis=1, out=brs[r])
            alpha = 1.0 / (r + 2.0)
            np.multiply(flat[r], 1.0 - alpha, out=flat[r + 1])
            for a, i in zip(cuts, brs[r].tolist()):
                flat[r + 1, a + i] += alpha
        block = slice(start, stop)
        pure = pure_eps[tuple(brs[block].T)]
        # (R, 1, n) @ (R, n, 1) is bitwise certify_epsilon's w @ e
        values = [np.matmul(h[block].transpose(0, 2, 1), e[block]) for h, e in zip(hist, own)]
        gains = np.concatenate(values, axis=1)[..., 0] - costs[block].min(axis=2)[..., 0]
        mixed = np.maximum(gains.max(axis=1), 0.0) + 0.0     # + 0.0: never -0.0
        hit = np.flatnonzero(np.minimum(pure, mixed) <= CERT_TOL)
        end = hit[0] + 1 if len(hit) else stop - start
        eps = np.concatenate([pure[:end], mixed[:end]])     # argmin: (epsilon, kind, round) first
        i = int(eps.argmin())
        if best is None or (eps[i], i // end) < best[:2]:
            best = (float(eps[i]), i // end, start + i % end)
        start = stop
    eps, kind, r = best
    weights = tuple(h[r, :, 0].copy() for h in hist) if kind else _one_hot(shape, brs[r])
    values = [w @ _run_plan(p, weights) for w, p in zip(weights, plans)]
    return StageEquilibrium(bool(kind), eps, weights, np.array(values))


def solve_stage(game: StageGame) -> StageEquilibrium:
    """One-stop solve of one stage game: the first pure equilibrium (the
    pure pass of the backward driver at one point), then Lemke–Howson for
    two teams, then fictitious play. The pure equilibrium taken is the
    lexicographically first joint index; Lemke–Howson returns the end of
    the first label's path that certifies; fictitious play returns the
    first visited profile with the smallest certified epsilon, pure before
    mixed."""
    tensors = [T[None] for T in game.tensors]
    has, profiles = _first_pure(tensors)
    if has[0]:
        eps, values = _pure_certificate(tensors, [0], profiles)
        return StageEquilibrium(False, float(eps[0]), _one_hot(game.shape, profiles[0]),
                                values[:, 0])
    if game.n_teams == 2:
        try:
            return mixed_nash_2team(game)
        except EquilibriumNotFoundError:
            pass
    return br_iteration(game)
