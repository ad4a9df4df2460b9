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
raw for the stage games and averaged under a fixed policy's mixtures,
which ``PolicyTable.mixtures`` reads from a stage's record array as whole
(P, n_k) columns. One backward pass (``_evaluate``) evaluates a fixed
policy: ``verify_mpe`` runs it once for the policy's values and every
team's best reply, which share each stage's mixtures and averaged
stacks, and ``policy_value`` and ``best_response`` run it for one
player. The readers take count-lattice tables only, though the tables
serve the limit solver too, over a ``SimplexGrid`` (a ``JointLattice``).
``evaluate_total_cost`` averages ``policy_value``'s stage-0 values under
the initial count law. ``solve_mpe`` runs the backward driver
``stage_game._backward`` that ``limit.solve_mpe_inf`` also runs; its
continuation contracts the store's kernel stacks against the next
values by batched matmuls (``_contract``, which ``_evaluate`` runs too),
the limit's gathers them at projected flow images. The driver finds the
pure stage equilibria of a stage in one pass; only the stage games
without one are solved point by point. A solved or projected policy
keeps its ``KernelCache``, which every reader of it takes (``_store``).
The store holds the own-cost tables of every stage as well as the
kernels: the solve, the certificate and the forward pass read the same
tables, formed once per store, so no reader of a solved or projected
policy forms one, and a table built by hand gets them with its store.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .counts import JointLattice, _count_lattice, _count_laws, _indented
from .errors import SpecValidationError
from .model import GameSpec, _count
from .stage_game import KernelCache, _backward, _contract


@dataclass(eq=False)
class PolicyTable:
    """Stage-game equilibria at every (stage, point) of ``lattice``, the
    joint count lattice (``solve_mpe``) or a simplex grid
    (``limit.solve_mpe_inf``). Each stage is an ``np.recarray`` over the
    points with fields ``mixed``, ``epsilon`` (certified maximal
    unilateral gain) and ``w<k>``: team k's mixture over ``sets[k]``,
    one-hot at pure points (a ``StageEquilibrium`` without its values). A
    count-lattice table keeps its kernel store."""
    stages: list
    sets: tuple
    lattice: JointLattice
    _kernels: KernelCache = field(default=None, init=False, repr=False)   # see _store

    def mixtures(self, t: int) -> list:
        """Per-team (P, n_k) mixtures of stage t, points in C order."""
        st = self.stages[t]
        return [np.ascontiguousarray(st[w].reshape(st.size, -1)) for w in st.dtype.names[2:]]

    @property
    def horizon(self):
        return len(self.stages)

    @property
    def mixed_points(self) -> list:
        """(stage, point index) of every mixed equilibrium, stage by stage."""
        return [(t, tuple(idx.tolist())) for t, st in enumerate(self.stages)
                for idx in np.argwhere(st.mixed)]


@dataclass(eq=False)
class ValueTable:
    """values[t, k, i_1, ..., i_K] over the points of ``lattice``."""
    values: np.ndarray = field(repr=False)
    lattice: JointLattice = None


@dataclass
class EquilibriumCertificate:
    """Pointwise unilateral deviation gains and their summary."""
    gains: np.ndarray = field(repr=False)    # (T, K, *lattice shape)
    max_gain: float = 0.0
    mean_gain: float = 0.0

    def csv_rows(self, lattice: JointLattice):
        """(stage, z_id, team, gain) at every stage, point (C order) and team."""
        T, K = self.gains.shape[0], self.gains.shape[1]
        gains = self.gains.reshape(T, K, -1).tolist()
        return [(t, zid, k, repr(gains[t][k][p]))
                for t in range(T) for p, zid in enumerate(lattice.ids) for k in range(K)]


def _store(spec: GameSpec, policy: PolicyTable) -> KernelCache:
    """The kernel store ``policy`` keeps; a new one of ``spec`` and its menus,
    kept on it, when it keeps none or one of another spec object or menus
    (whose kernels or cost tables may differ).
    Raises SpecValidationError when the spec's lattice has another shape."""
    lattice, cache = _count_lattice(policy), policy._kernels
    if cache is None or cache.spec is not spec or cache.sets is not policy.sets:
        cache = KernelCache(spec, policy.sets)
    if cache.lattice.shape != lattice.shape:
        raise SpecValidationError("kernel store lattice has shape %s, the policy's has %s"
                                  % (cache.lattice.shape, lattice.shape))
    policy._kernels = cache
    return cache


def solve_mpe(spec: GameSpec, sets, pure_only: bool = False):
    """Backward induction over stages T-1 .. 0 and the full joint lattice.

    Returns (PolicyTable, ValueTable); the policy keeps the kernel store it
    was solved with. Raises NoPureEquilibriumError in pure_only mode at the
    first (stage, point) whose game has no pure equilibrium.
    """
    cache = KernelCache(spec, tuple(sets))
    Ws = cache.stacks() if spec.horizon > 1 else None    # checks the store size first
    C = cache.costs()
    stages, values = _backward(spec, cache.sets, cache.lattice, lambda t: [c[t] for c in C],
                               lambda V: _contract(Ws, V), pure_only)
    policy = PolicyTable(stages=stages, sets=cache.sets, lattice=cache.lattice)
    policy._kernels = cache
    return policy, ValueTable(values=values, lattice=cache.lattice)


def _average(w, W) -> np.ndarray:
    """Kernel stack W (P, n, L) averaged under per-point mixtures w (P, n)."""
    return np.einsum("pi,pil->pl", w, W)


def _evaluate(spec: GameSpec, policy: PolicyTable, players) -> list:
    """One backward pass under ``policy`` for ``players``: None plays it (values
    (T, K, *shape)), team k replies best to it ((per-stage picks, values (T,
    *shape)), ties to the smallest index). The cost tables are the store's;
    a stage reads the mixtures, and forms the averaged stacks the players
    need, once."""
    cache = _store(spec, policy)
    T, K, shape = spec.horizon, spec.n_teams, policy.lattice.shape
    Ws = cache.stacks() if T > 1 else None
    C = cache.costs()
    averaged = [j for j in range(K) if players != (j,)]     # some player averages team j
    out = [(np.zeros((T + 1,) + ((K,) if k is None else ()) + shape), [None] * T)
           for k in players]
    for t in range(T - 1, -1, -1):
        w = policy.mixtures(t) if None in players or t < T - 1 else None
        avg = {j: _average(w[j], Ws[j])[:, None] for j in averaged} if t < T - 1 else {}
        for k, (V, pk) in zip(players, out):
            e = C[k][t] if k is not None else np.stack(
                [np.einsum("pi,pi->p", w[j], C[j][t]) for j in range(K)])
            if t < T - 1:
                Wk = [W if j == k else avg[j] for j, W in enumerate(Ws)]
                e = e + _contract(Wk, V[t + 1]).reshape(e.shape)
            if k is not None:
                pk[t], e = e.argmin(axis=1).reshape(shape), e.min(axis=1)
            V[t] = e.reshape(V[t].shape)
    return [V[:T] if k is None else (pk, V[:T]) for k, (V, pk) in zip(players, out)]


def best_response(spec: GameSpec, k: int, others: PolicyTable):
    """Optimal reply of team k (menu ``others.sets[k]``) when teams j != k play ``others``.

    A plain finite-horizon dynamic program (no game solving): at every
    (stage, lattice point) team k picks the menu item minimizing its own
    stage cost plus expected continuation, the other teams' kernels being
    averaged under their (possibly mixed) equilibrium profiles.

    Returns (per-stage arrays of chosen own indices, value array U of
    shape (T, *lattice shape)); ties resolve to the smallest index. Raises
    SpecValidationError if k is not an integer in range(K).
    """
    k = _count(k, "team index", least=None)
    if not 0 <= k < spec.n_teams:
        raise SpecValidationError("team index %r is not in range(%d)" % (k, spec.n_teams))
    return _evaluate(spec, others, (k,))[0]


def policy_value(spec: GameSpec, policy: PolicyTable) -> np.ndarray:
    """Per-team values of playing ``policy`` everywhere: (T, K, *shape)."""
    return _evaluate(spec, policy, (None,))[0]


def verify_mpe(spec: GameSpec, policy: PolicyTable) -> EquilibriumCertificate:
    """Equilibrium certificate, independent of stage-game solving.

    gains[t, k, z] = (value of playing the policy) - (best-response value),
    both recomputed by dynamic programming from the policy's prescriptions,
    the stage costs and the count kernels in one backward pass, whose stages
    share the mixtures and averaged kernels; no stage game is solved. The
    kernels and cost tables are the policy's store (``_store``); acceptance
    criterion 2 and the engine oracle check them. Gains are nonnegative up
    to a -1e-9 numerical floor; for an exact equilibrium the max is ~0.
    """
    V, *replies = _evaluate(spec, policy, (None,) + tuple(range(spec.n_teams)))
    gains = V - np.stack([U for _, U in replies], axis=1)
    return EquilibriumCertificate(
        gains=gains, max_gain=float(gains.max()), mean_gain=float(gains.mean()))


def initial_distribution(spec: GameSpec, lattice: JointLattice) -> np.ndarray:
    """Law of the stage-0 joint counts: independent multinomials from each
    team's initial law, as an array over the joint lattice."""
    dist = np.ones(())
    for k, tl in enumerate(lattice.teams):
        mix = np.broadcast_to(spec.teams[k].initial_law, (1, tl.n_states, tl.n_states))
        pmf = _count_laws(mix, tl.counts[:1])[0]    # every agent draws from the initial law
        dist = np.multiply.outer(dist, pmf)
    return dist


def evaluate_total_cost(spec: GameSpec, policy: PolicyTable) -> np.ndarray:
    """Exact expected cumulative cost per team under ``policy`` from the
    initial count law (never sampled): the stage-0 values of
    ``policy_value`` averaged under that law."""
    V = policy_value(spec, policy)
    init = initial_distribution(spec, policy.lattice)
    return V[0].reshape(spec.n_teams, -1) @ init.reshape(-1)


# ---------------------------------------------------------------------------
# serialization

def policy_records(policy: PolicyTable, values: ValueTable) -> str:
    """The ``records`` array of ``policy.json`` as text (see
    ``_encode_records``); a point's ``z`` is its lattice's ``record_z``,
    the per-team counts."""
    return _encode_records(policy, values.values, policy.lattice.record_z)


_HEAD = (',\n    {\n      "kind": "%s",\n      "prescription": %s,\n      "stage": %d,\n'
         '      "team": %d,\n      "value": ')     # with the separator from the previous record


def _encode_records(policy, values, zs) -> str:
    """Records {kind, prescription, stage, team, value, weights (mixed
    only), z} of ``policy`` and its values (T, K, *points) at every stage,
    point (C order) and team: the text ``json.dumps(sort_keys=True,
    indent=2)`` writes for the ``records`` array of ``policy.json``. ``zs``
    holds every point's encoded ``z``.

    A record is a head (the keys up to "value"), the value, for a mixed
    one its weights, and its point's ``z`` tail. The text is joined once
    from per-team columns of each stage: heads picked from one head per
    menu item (a pure prescription is a menu item), the ``repr`` of the
    value column (values are finite, since stage games reject others, so
    ``repr`` writes them as ``json`` does) and the per-point tails. Only
    the mixed records, whose prescription is their mixture of the menu's
    rows, are formatted one by one."""
    K = len(policy.sets)
    if not (policy.stages and len(zs)):
        return "[]"
    items = [[_indented(p.rows.tolist()) for p in ps.items] for ps in policy.sets]
    stacks = [ps.rows_stack() for ps in policy.sets]
    tails = [',\n      "z": %s\n    }' % z for z in zs]
    stages = []
    for t, st in enumerate(policy.stages):
        mixed, columns = np.flatnonzero(st.mixed).tolist(), []
        for k, (w, v) in enumerate(zip(policy.mixtures(t), values[t].reshape(K, -1).tolist())):
            heads = [_HEAD % ("pure", item, t, k) for item in items[k]]
            head = list(map(heads.__getitem__, w.argmax(axis=1).tolist()))
            value = list(map(repr, v))
            for p in mixed:
                rows = np.tensordot(w[p], stacks[k], axes=(0, 0)).tolist()
                head[p] = _HEAD % ("mixed", _indented(rows), t, k)
                value[p] += ',\n      "weights": %s' % _indented(w[p].tolist())
            columns += [head, value, tails]
        stages.append(columns)
    stages[0][0][0] = stages[0][0][0][2:]      # no separator before the first record
    points = itertools.chain.from_iterable(zip(*columns) for columns in stages)
    return "".join(itertools.chain(["[\n"], itertools.chain.from_iterable(points), ["\n  ]"]))
