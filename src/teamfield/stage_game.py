"""One-shot games over prescriptions.

At every mean-field point of the backward induction the K team
coordinators face a finite simultaneous-move game: each picks a
prescription from a finite menu, pays its own stage cost plus the
expected continuation value under the induced joint count kernel. This
module builds those menus and cost tensors and solves the game (pure
enumeration, batched over every point of a stage; support enumeration
with exact dominance pruning for two teams; damped fictitious play as
the always-terminating fallback).

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
from .model import GameSpec, _count, cost_matrix, flatten_mean_field

PURE_TOL = 1e-12      # strict-improvement tolerance for pure deviations
CERT_TOL = 1e-9       # certified-equilibrium acceptance threshold
DEFAULT_PRESCRIPTION_CAP = 10 ** 5
DEFAULT_SUPPORT_BOUND = 4
MAX_STORE_BYTES = 1 << 30     # largest kernel store, or one stage's game tensors, of a run
STORE_BLOCK_ENTRIES = 1 << 20  # (rows, lattice) entries per block of the store build


@dataclass(frozen=True, eq=False)
class PrescriptionSet:
    """Ordered finite menu of prescriptions for one team."""
    team_id: int
    items: tuple

    def __len__(self):
        return len(self.items)

    def rows_stack(self):
        return np.stack([p.rows for p in self.items])


def build_prescription_set(spec: GameSpec, k: int, g: int = None) -> PrescriptionSet:
    """Menu for team k, of at most DEFAULT_PRESCRIPTION_CAP items.

    g None: all deterministic maps, ordered lexicographically by the tuple
    of chosen action indices (|A|^|S| items). g >= 1: every map whose
    rows have entries that are multiples of 1/g (C(g+|A|-1, |A|-1)^|S|
    items, rows cycling fastest in the last state).
    """
    tm = spec.teams[k]
    S, A = tm.n_states, tm.n_actions
    if g is None:
        kind, row_menu = "pure", list(np.eye(A))
    elif g < 1:
        raise SpecValidationError("gridded menus need a grid resolution g >= 1")
    else:
        kind = "gridded"
        row_menu = [np.array(v, dtype=float) / g for v in enumerate_counts(g, A)]
    size = len(row_menu) ** S
    if size > DEFAULT_PRESCRIPTION_CAP:
        raise CapacityError("%s prescription set for team %d has %d items, cap %d"
                            % (kind, k, size, DEFAULT_PRESCRIPTION_CAP))
    return PrescriptionSet(team_id=k, items=tuple(
        Prescription(team_id=k, rows=np.stack(combo))
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
    closed form: sum_s z_k(s) sum_a gamma(a|s) c_t(s, a, z)."""
    C = cost_matrix(spec, k, t, np.concatenate(Z, axis=1))
    return np.einsum("ps,isa,psa->pi", Z[k], ps.rows_stack(), C)


def _contract(Ws, V) -> np.ndarray:
    """sum_n prod_k W_k[p, i_k, n_k] V[..., n_1, ..., n_K] as a
    (..., P, m_1, ..., m_K) array, each W_k being (P, m_k, L_k).

    Raw kernel stacks give the continuation part of the stage tensors;
    kernels averaged under a policy's mixtures (m_k = 1) give its expected
    next value; averaging every team but one gives that team's
    best-response step."""
    operands = _contract_operands(Ws, V)
    path = _contract_path(tuple(W.shape for W in Ws), V.shape)
    return np.einsum(*operands, optimize=path)


def _contract_operands(Ws, V) -> list:
    """np.einsum's sublist operands of ``_contract``."""
    K = len(Ws)
    operands = []
    for k, W in enumerate(Ws):
        operands += [W, [2 * K, k, K + k]]
    return operands + [V, [Ellipsis] + list(range(K, 2 * K)), [Ellipsis, 2 * K] + list(range(K))]


@functools.lru_cache
def _contract_path(w_shapes, v_shape) -> tuple:
    """The contraction order that np.einsum(..., optimize=True) searches
    for ``_contract`` at these operand shapes (its greedy search), found
    once per shape; zero-stride placeholders stand in for the operands.
    A tuple, so no caller can change the cached path."""
    ops = [np.broadcast_to(0.0, s) for s in w_shapes + (v_shape,)]
    return tuple(np.einsum_path(*_contract_operands(ops[:-1], ops[-1]), optimize="greedy")[0])


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
    ``_solve_points``, which names a point by its ``lattice.ids`` entry. A
    stage's K tensors (P, *menu shape) and the (K, P, *menu shape)
    continuation alive with them take 16 K P prod_k n_k bytes; above
    MAX_STORE_BYTES this raises CapacityError before the first stage.

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
        stages[t], values[t] = _solve_points(tensors, t, lattice.shape, lattice.ids, pure_only)
    return stages, values[:T]


def _solve_points(tensors, t: int, points_shape, ids, pure_only: bool):
    """Equilibria (record array over ``points_shape``) and per-team values
    (K, *points_shape) of the stage games in the per-team tensors
    (P, *menu shape), P points in C order, named ``ids[p]``.

    One pure pass covers every point: the lexicographically first pure
    profile with its epsilon and values read by indexing. solve_stage
    runs only at the points without one, in C order; under pure_only the
    first such point raises NoPureEquilibriumError instead."""
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
            raise NoPureEquilibriumError(t, ids[p])
        eq = solve_stage(StageGame(tensors=tuple(X[p] for X in tensors)))
        st[p] = (eq.mixed, eq.epsilon, *eq.weights)
        values[:, p] = eq.values
    return st.reshape(points_shape), values.reshape((len(tensors),) + tuple(points_shape))


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
    contraction per team of the tensors."""
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
    """Support enumeration for two-team games.

    Candidate supports (R, C) hold at most DEFAULT_SUPPORT_BOUND indices
    per team and are scanned one level (r, c) = (|R|, |C|) at a time:
    smallest total size first, then row size, then R and C
    lexicographically. Each candidate's indifference system is solved by
    least squares and the resulting profile is kept only if its exactly
    recomputed epsilon is at most CERT_TOL; the first one is returned.

    Pairs with a conditionally dominated index are skipped unsolved
    (Porter, Nudelman and Shoham 2008): a row of R that costs more than
    delta = 1e-6 (1 + max |cost|) above some other row against every
    column of C, or a column of C likewise against the rows of R. Such a
    candidate would give that other index a gain of at least delta less
    the 1e-9 residual of the indifference solve, so the certificate would
    reject it. Per level, the indices surviving each support come from
    one array pass over a block of supports (every pairwise "beats by
    more than delta" comparison, reduced over the support); C is drawn
    only from the columns that survive against at least one R of size r
    (found once per r), and a boolean table over a block of the level's
    (R, C) pairs keeps those with R among the rows that survive C and C
    among the columns that survive R (``_level_pairs``). Combinations of
    a subset keep lexicographic order, so the kept pairs
    are visited in exactly the order of the full scan, and the first
    certified candidate is the one the unpruned scan finds. Every table
    is built in blocks of at most STORE_BLOCK_ENTRIES entries from
    ``itertools.islice`` of the combinations, so memory does not grow
    with the number of supports of a level.

    The x solve of a pair is skipped when, against its solved y, some row
    costs more than delta less than every row of R: any mixture on R then
    leaves team 1 a gain above delta, and the certificate would reject it.
    """
    if game.n_teams != 2:
        raise SpecValidationError("support enumeration needs exactly 2 teams")
    A, B = game.tensors
    n1, n2 = game.shape
    delta = 1e-6 * (1.0 + max(np.abs(A).max(), np.abs(B).max()))
    b1, b2 = min(n1, DEFAULT_SUPPORT_BOUND), min(n2, DEFAULT_SUPPORT_BOUND)
    levels = ((r, total - r) for total in range(2, b1 + b2 + 1)
              for r in range(max(1, total - b2), min(b1, total - 1) + 1))
    columns = functools.cache(lambda r: _surviving_columns(B.T, delta, n1, r))
    for r, c, R, C in ((r, c, R, C) for r, c in levels
                       for R, C in _level_pairs(A, B.T, delta, r, c, columns(r))):
        if r == 1 and c == 1:
            x, y = _one_hot(game.shape, (R[0], C[0]))
        else:
            block = np.ix_(R, C)
            y = _indifference_solve(A[block], c)
            if y is None:
                continue
            against = A[:, C] @ y
            if against.min() < against[R].min() - delta:
                continue
            x = _indifference_solve(B[block].T, r)
            if x is None:
                continue
            xf = np.zeros(n1); xf[R] = x
            yf = np.zeros(n2); yf[C] = y
            x, y = xf, yf
        eps, values = certify_epsilon(game, (x, y))
        if eps <= CERT_TOL:
            return StageEquilibrium(r + c > 2, eps, (x, y), values)
    raise EquilibriumNotFoundError(
        "no equilibrium with supports of size <= %d certified" % DEFAULT_SUPPORT_BOUND)


def _surviving_columns(BT: np.ndarray, delta: float, n1: int, r: int) -> np.ndarray:
    """Increasing indices of the rows of BT (columns of the game) that
    survive at least one row support of size r."""
    step = max(1, STORE_BLOCK_ENTRIES // (r * len(BT) ** 2))
    union = np.zeros(len(BT), dtype=bool)
    for Rs in _combination_blocks(n1, r, step):
        union |= _survivors(BT, delta, Rs).any(axis=0)
    return np.flatnonzero(union)


def _level_pairs(A: np.ndarray, BT: np.ndarray, delta: float, r: int, c: int,
                 cols: np.ndarray):
    """The support pairs (R, C) of one level, |R| = r and |C| = c, with C
    drawn from ``cols``, that no index of either support is dominated in,
    as lists of indices in scan order (R, then C, lexicographic).

    Each (R block, C block) pair of blocks gives one boolean table of the
    pairs with R among the rows of A surviving C and C among the rows of
    BT surviving R (worked out only among ``cols``), read row-major; when
    the C's of the level take several blocks, an R block holds one R, so
    the pairs still come in scan order."""
    n1, n2 = len(A), len(BT)
    n_c = math.comb(len(cols), c)
    if n_c == 0:
        return
    c_step = max(1, STORE_BLOCK_ENTRIES // (c * n1 * n1))
    r_step = (1 if n_c > c_step else
              max(1, min(STORE_BLOCK_ENTRIES // (r * n2 * n2),
                         STORE_BLOCK_ENTRIES // (n_c * max(r, c)))))
    for Rs in _combination_blocks(n1, r, r_step):
        cols_ok = _survivors(BT, delta, Rs, cols)
        for Cp in _combination_blocks(len(cols), c, c_step):
            Cs = cols[Cp]
            rows_ok = _survivors(A, delta, Cs)
            keep = rows_ok[:, Rs].all(axis=2).T & cols_ok[:, Cp].all(axis=2)
            for a, b in zip(*np.nonzero(keep)):
                yield Rs[a].tolist(), Cs[b].tolist()


def _survivors(M: np.ndarray, delta: float, supports: np.ndarray,
               among=slice(None)) -> np.ndarray:
    """(len(supports), len(M[among])) mask of the rows of M[among] that no
    row of M beats by more than delta at every column of the support."""
    X = M[:, supports].transpose(1, 0, 2)
    return ~(X[:, among, None] > X[:, None] + delta).all(axis=3).any(axis=2)


def _combination_blocks(n: int, size: int, step: int):
    """itertools.combinations(range(n), size) in lexicographic order as
    (<= step, size) index arrays."""
    combos, total = itertools.combinations(range(n), size), math.comb(n, size)
    for lo in range(0, total, step):
        m = min(step, total - lo)
        flat = itertools.chain.from_iterable(itertools.islice(combos, m))
        yield np.fromiter(flat, dtype=np.intp, count=m * size).reshape(m, size)


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
    over that row and the weight update. Rounds run in blocks doubling in
    length (1, 2, 4, ...); a block ends with a few array operations that
    certify its mixtures from the own-cost history and its pure profiles
    by indexing (_pure_certificate), and pick its best profile up to its
    first round at or below CERT_TOL: a game certified at round r plays
    fewer than 2r rounds, and the result is bitwise that of certifying
    round by round with certify_epsilon. The plans run once more for the
    values of the profile kept. The two histories take 8 ((max_iters + 1)
    sum_k n_k + max_iters K max_k n_k) bytes; above MAX_STORE_BYTES this
    raises CapacityError before they are allocated.
    """
    max_iters = _count(max_iters, "max_iters")
    K, shape = game.n_teams, game.shape
    cuts = np.cumsum((0,) + shape).tolist()
    size = 8 * ((max_iters + 1) * cuts[-1] + max_iters * K * max(shape))
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
    own = [costs[:, k, :n] for k, n in enumerate(shape)]
    if K == 1:
        own[0][...] = game.tensors[0][:, None]
    plans = [_contraction_plan(T, k) for k, T in enumerate(game.tensors)]
    # (matrix, weight history, out, copy, out is a history): team k's last step writes own[k][r]
    steps = [(m, hist[j], own[k] if i == len(p) - 1 else out, c, i == len(p) - 1)
             for k, (p, _) in enumerate(plans) for i, (m, j, out, c) in enumerate(p)]
    brs = np.empty((max_iters, K), dtype=np.intp)
    best, start = None, 0     # best: (epsilon, 0 for pure or 1 for mixed, round)
    while best is None or (best[0] > CERT_TOL and start < max_iters):
        stop = min(2 * start + 1, max_iters)
        for r in range(start, stop):
            for mat, w, out, copy, last in steps:
                if copy is not None:
                    np.copyto(*copy)
                np.dot(mat, w[r], out=out[r] if last else out)
            brs[r] = replies = costs[r, :, :, 0].argmin(axis=1)
            alpha = 1.0 / (r + 2.0)
            np.multiply(flat[r], 1.0 - alpha, out=flat[r + 1])
            for a, i in zip(cuts, replies.tolist()):
                flat[r + 1, a + i] += alpha
        block = slice(start, stop)
        pure, _ = _pure_certificate([T[None] for T in game.tensors],
                                    np.zeros(stop - start, np.intp), brs[block])
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
    pure pass of the backward driver at one point), then support
    enumeration for two teams, then fictitious play. The pure equilibrium
    taken is the lexicographically first joint index; fictitious play
    returns the first visited profile with the smallest certified epsilon,
    pure before mixed."""
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
